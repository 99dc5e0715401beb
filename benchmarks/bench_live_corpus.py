"""Live-corpus serving cost: append-to-visible latency and query
throughput retention while the compactor runs.

Three gates turn the crash-safe live-corpus story into numbers:

* **Append -> visible.**  A durable append is a WAL frame + fsync + an
  engine swap; the next query must see the rows (read-your-writes).
  The timed window covers the whole pipeline — parse, frame, fsync,
  swap, and the first query observing the new count — and the median
  must stay under ``APPEND_VISIBLE_CEILING_SECONDS``.  An fsync on CI
  disks is hundreds of microseconds; the ceiling catches a regression
  to re-labeling or re-saving the base corpus per append (which would
  cost the full corpus build, orders of magnitude above it).

* **No sawtooth.**  A swap costs what was appended, not what the delta
  already holds (delta tiers merge binary-counter style, base segments
  and plans are shared across snapshots).  The median append -> visible
  over the appends that found the delta at >= 90 % of its final size
  must stay within ``APPEND_GROWTH_CEILING`` of the median over those
  that found it under 10 % — a swap that re-sorts the whole delta, or
  rebuilds a base segment's value index, fails this long before it
  fails the absolute ceiling.

* **QPS retention under compaction.**  Compaction's heavy phase (the
  new base-segment build) runs outside the corpus lock so readers keep
  answering.  With a delta of ~40% of the corpus compacting in a
  background thread, closed-loop query latency may degrade to GIL
  sharing but no further: retained QPS (baseline median latency over
  during-compaction median latency) must stay >=
  ``QPS_RETENTION_FLOOR``.  The gate is asserted on multi-core hosts
  only (single-core runners record the numbers without gating,
  matching ``bench_serving``); medians keep one scheduler hiccup from
  deciding it.

Knobs: ``REPRO_BENCH_SENTENCES`` (corpus size), ``REPRO_BENCH_REPEATS``
(append samples are ``8 * repeats``, at least 64),
``REPRO_BENCH_APPEND_CEILING`` (seconds, default 0.1).
"""

from __future__ import annotations

import io
import os
import shutil
import statistics
import tempfile
import threading
import time

from repro import live, store
from repro.bench import datasets
from repro.tree import write_trees

WORKLOAD = ("//VP//NP", "//NP")

APPEND_VISIBLE_CEILING_SECONDS = float(
    os.environ.get("REPRO_BENCH_APPEND_CEILING", "0.1")
)
#: Late-in-the-delta over early-in-the-delta append -> visible medians.
APPEND_GROWTH_CEILING = 2.0
QPS_RETENTION_FLOOR = 0.80
#: Fraction of the base corpus appended as the to-be-compacted delta.
DELTA_FRACTION = 0.4


def _multicore() -> bool:
    return (os.cpu_count() or 1) >= 2


def _bracketed(trees) -> str:
    out = io.StringIO()
    write_trees(trees, out)
    return out.getvalue()


def _median_query_seconds(engine, requests: int) -> float:
    timings = []
    for index in range(requests):
        started = time.perf_counter()
        engine.query(WORKLOAD[index % len(WORKLOAD)])
        timings.append(time.perf_counter() - started)
    return statistics.median(timings)


def test_live_corpus_gates(benchmark, write_result, write_json, repeats):
    trees = list(datasets.corpus("wsj"))
    split = max(1, int(len(trees) * (1.0 - DELTA_FRACTION)))
    base, delta = trees[:split], trees[split:]
    # One bracketed line per appended tree: the append gate feeds trees
    # one at a time, the compaction gate feeds the whole block.
    delta_lines = [_bracketed([tree]) for tree in delta]

    root = tempfile.mkdtemp(prefix="bench-live-")
    path = os.path.join(root, "live.lpdb")
    try:
        store.save_corpus(base, path, segments=2, format="lpdb0005")
        manager = live.LiveEngineManager(path)
        try:
            # -- gate 1: append -> visible --------------------------------
            samples = min(len(delta_lines), max(64, 8 * repeats))
            append_timings = []
            delta_before = []
            for line in delta_lines[:samples]:
                before = len(manager.engine.query("//_"))
                delta_before.append(manager.corpus.delta_row_count)
                started = time.perf_counter()
                ack = manager.append_trees(line)
                visible = len(manager.engine.query("//_"))
                append_timings.append(time.perf_counter() - started)
                # //_ matches element rows only (@lex attribute rows are
                # part of the ack but not of the match set), so the
                # visibility check is growth, not exact row arithmetic.
                assert ack["rows"] > 0 and visible > before
            append_visible = statistics.median(append_timings)
            # The sawtooth: the same append, early and late in the delta.
            full = manager.corpus.delta_row_count
            append_empty = statistics.median(
                seconds for rows, seconds in zip(delta_before, append_timings)
                if rows < 0.1 * full
            )
            append_full = statistics.median(
                seconds for rows, seconds in zip(delta_before, append_timings)
                if rows >= 0.9 * full
            )
            append_growth = append_full / append_empty

            # -- gate 2: QPS retention while compacting -------------------
            # Fold the remaining delta in so the compactor has real work.
            rest = delta_lines[samples:]
            if rest:
                manager.append_trees("".join(rest))
            baseline = _median_query_seconds(manager.engine, 40)

            during: list[float] = []
            compact_status: dict = {}

            def compact() -> None:
                compact_status.update(manager.compact())

            worker = threading.Thread(target=compact)
            worker.start()
            while worker.is_alive():
                started = time.perf_counter()
                manager.engine.query(WORKLOAD[len(during) % len(WORKLOAD)])
                during.append(time.perf_counter() - started)
            worker.join()
            compact_seconds = compact_status.get("seconds", 0.0)
            # Compaction must actually have happened, and answers after
            # it must match answers before it.
            assert compact_status.get("compacted_rows", 0) > 0
            assert manager.status()["delta_rows"] == 0
            after = _median_query_seconds(manager.engine, 40)

            if len(during) >= 5:
                during_median = statistics.median(during)
                retention = baseline / during_median
            else:
                # Compaction finished inside a handful of queries: there
                # was no sustained contention window to measure.
                during_median = baseline
                retention = 1.0

            # pytest-benchmark's own table gets the steady-state query
            # figure on the fully compacted store.
            benchmark(lambda: manager.engine.query("//NP"))
        finally:
            manager.close()
    finally:
        shutil.rmtree(root)

    lines = [
        "Live corpus: append->visible latency and compaction retention",
        f"corpus: {len(base)} base trees, {len(delta)} appended",
        f"append -> visible (median of {len(append_timings)}): "
        f"{append_visible * 1000.0:.2f} ms "
        f"(ceiling {APPEND_VISIBLE_CEILING_SECONDS * 1000.0:.0f} ms)",
        f"append -> visible, delta < 10% / >= 90% full: "
        f"{append_empty * 1000.0:.2f} / {append_full * 1000.0:.2f} ms "
        f"({append_growth:.2f}x, ceiling {APPEND_GROWTH_CEILING:.1f}x)",
        f"query median before compaction: {baseline * 1000.0:.2f} ms",
        f"query median during compaction: {during_median * 1000.0:.2f} ms "
        f"({len(during)} samples over {compact_seconds:.3f}s)",
        f"query median after compaction:  {after * 1000.0:.2f} ms",
        f"QPS retention while compacting: {retention:.2%} "
        f"(floor {QPS_RETENTION_FLOOR:.0%})",
    ]
    write_result("live_corpus.txt", "\n".join(lines))
    write_json("live_corpus", {
        "append_visible_seconds": append_visible,
        "append_samples": len(append_timings),
        "append_visible_empty_delta_seconds": append_empty,
        "append_visible_full_delta_seconds": append_full,
        "append_growth_ratio": append_growth,
        "query_baseline_seconds": baseline,
        "query_during_compaction_seconds": during_median,
        "query_after_compaction_seconds": after,
        "compaction_seconds": compact_seconds,
        "compaction_samples": len(during),
        "qps_retention": retention,
    })

    assert append_visible <= APPEND_VISIBLE_CEILING_SECONDS
    assert append_growth <= APPEND_GROWTH_CEILING, (
        f"append -> visible grew {append_growth:.2f}x from an empty to a "
        f"full delta (ceiling {APPEND_GROWTH_CEILING:.1f}x)"
    )
    if _multicore():
        assert retention >= QPS_RETENTION_FLOOR, (
            f"query QPS retained only {retention:.2%} while compacting "
            f"(floor {QPS_RETENTION_FLOOR:.0%})"
        )

