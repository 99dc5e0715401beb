"""Span boundaries around the engine's public layer entry points, and
the per-operation arithmetic that turns those spans into layer metrics.

The span tree of one traced ``engine.query(text)`` on a segmented mmap
engine looks like this (names are the span names used below)::

    op
    ├── plan.compile                 LPathEngine.compile (cache lookup)
    │   └── plan.lower_optimize      lower_and_optimize   } only on a
    │       └── lpath.parse          lpath.parser.parse   } plan-cache
    │   └── columnar.physical_compile  x segments         } miss
    └── plan.segmented.rows          SegmentedQuery.rows
        └── columnar.execute         CompiledQuery.rows  x segments

The k-way merge is lazy (``heapq.merge``), so it runs while ``op``
consumes the rows: fan-out + merge time is what is left of
``op - plan.compile`` after the per-segment ``columnar.execute`` spans.
"""

from __future__ import annotations

from typing import Optional

from harness import median
from spans import Tracer

#: (module path, owner attribute or None for the module itself,
#: attribute to wrap, span name).  Public names only.
ENGINE_BOUNDARIES = (
    ("repro.lpath.engine", "LPathEngine", "compile", "plan.compile"),
    ("repro.lpath.parser", None, "parse", "lpath.parse"),
    ("repro.plan.lower", None, "lower_and_optimize", "plan.lower_optimize"),
    ("repro.plan.segmented", None, "lower_and_optimize", "plan.lower_optimize"),
    ("repro.lpath.compiler", "PlanCompiler", "compile_physical",
     "columnar.physical_compile"),
    ("repro.lpath.compiler", "CompiledQuery", "rows", "columnar.execute"),
    ("repro.plan.segmented", "SegmentedQuery", "rows", "plan.segmented.rows"),
)


def install_engine_spans(tracer: Tracer) -> dict[str, str]:
    """Wrap every engine boundary; returns ``{span name: error}`` for the
    ones that could not be wrapped (renamed or moved internals)."""
    import importlib

    errors: dict[str, str] = {}
    for module_path, owner_name, attribute, span_name in ENGINE_BOUNDARIES:
        try:
            owner = importlib.import_module(module_path)
            if owner_name is not None:
                owner = getattr(owner, owner_name)
            tracer.wrap(owner, attribute, span_name)
        except (ImportError, AttributeError) as error:
            errors[span_name] = f"{type(error).__name__}: {error}"
    return errors


def operation_breakdown(tracer: Tracer, root_name: str) -> list[dict]:
    """One dict per operation whose root span is ``root_name``:
    seconds in each layer, derived from the operation's span tree."""
    breakdown = []
    for op_id, spans in tracer.by_operation().items():
        root = next(
            (span for span in spans if span[0] == root_name and span[2] is None),
            None,
        )
        if root is None:
            continue
        totals: dict[str, float] = {}
        parts: list[float] = []
        for name, seconds, _parent in spans:
            totals[name] = totals.get(name, 0.0) + seconds
            if name == "columnar.execute":
                parts.append(seconds)
        compile_s = totals.get("plan.compile", 0.0)
        parse_s = totals.get("lpath.parse")
        lower_s = totals.get("plan.lower_optimize")
        breakdown.append({
            "op_id": op_id,
            "total": root[1],
            "compile": compile_s,
            "cache_hit": lower_s is None,
            "parse": parse_s,
            "lower_optimize": (
                None if lower_s is None else lower_s - (parse_s or 0.0)
            ),
            "physical_compile": totals.get("columnar.physical_compile"),
            "execute": root[1] - compile_s,  # rows consumed, merge included
            "segment_parts": parts,
        })
    return breakdown


def _median_us(seconds) -> Optional[float]:
    """Median in microseconds of the values that exist; ``None`` when a
    boundary could not be wrapped and so left no spans."""
    present = [value for value in seconds if value is not None]
    return median(present) * 1e6 if present else None


def compile_layer_metrics(operations: list[dict]) -> dict[str, Optional[float]]:
    """Medians of the compile-side layers over the plan-cache *misses*
    among ``operations`` (a hit has no parse/lower/physical spans)."""
    misses = [op for op in operations if not op["cache_hit"]]
    return {
        "lpath.parse_us": _median_us(op["parse"] for op in misses),
        "plan.lower_optimize_us": _median_us(
            op["lower_optimize"] for op in misses),
        "columnar.physical_compile_us": _median_us(
            op["physical_compile"] for op in misses),
    }


def segment_metrics(operations: list[dict]) -> dict[str, Optional[float]]:
    """Fan-out arithmetic over operations that ran on >= 2 segments."""
    fanned = [op for op in operations if len(op["segment_parts"]) >= 2]
    if not fanned:
        return {
            "plan.segment_sum_ms": None,
            "plan.fanout_merge_ms": None,
            "plan.straggler_ratio": None,
        }
    sums = [sum(op["segment_parts"]) for op in fanned]
    return {
        "plan.segment_sum_ms": median(sums) * 1e3,
        "plan.fanout_merge_ms": median(
            op["execute"] - total for op, total in zip(fanned, sums)
        ) * 1e3,
        "plan.straggler_ratio": median(
            max(op["segment_parts"]) * len(op["segment_parts"]) / total
            for op, total in zip(fanned, sums) if total > 0
        ),
    }


def cache_delta(before: dict, after: dict) -> dict[str, Optional[float]]:
    """Plan-cache counters over a window, from two ``cache_stats()``."""
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    lookups = hits + misses
    return {
        "plan.cache_hit_rate": hits / lookups if lookups else None,
        "plan.cache_evictions": float(after["evictions"] - before["evictions"]),
    }
