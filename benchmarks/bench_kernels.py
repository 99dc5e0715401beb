"""A/B benchmark: native cffi kernels vs the pure-Python columnar loops.

Both backends execute the *same* compiled plans over the same columnar
store — the ``REPRO_KERNELS`` knob pins the dispatch, so the comparison
isolates the hot-loop implementation (per-shape structural joins, the
vectorized scan filters and the batch output gather).  The workload is
the fig. 9 deep-chain territory on the large WSJ profile, with the
structural merge join forced on so every query spends its time in the
loops the C side replaces.

Assertions:

* with the extension built, the native backend beats the pure-Python
  loops by >= 3x in aggregate over the deep-chain suite — on runners
  without a working toolchain the ratio is recorded, not asserted
  (the claim is about the kernels, not about the runner's compiler);
* both backends agree on every result size (byte-identity is the fuzz
  suite's job; the size check here catches a silently wrong build);
* arrival order costs one pass: the native sweep of Q22's first join
  (``//NP=>NP``) over NP bindings as the clustered scan emits them —
  ``(tid, left)`` order, swept on their ``right`` edges, so nested NPs
  arrive out of key order inside each tree — costs <= 1.3x the same join
  over the batch presorted by ``(tid, key)`` (asserted when the
  extension built);
* sparse arrival is recorded beside it: the same native sweep over only
  the bindings of every 64th tree, so each tree's partition starts 64
  trees past the previous one's in the name block (reported, not gated).

``BENCH_kernels.json`` carries the per-query timings, the three
arrival-order timings and the kernel provenance block (backend, cffi and
compiler versions) so CI can diff runs against the uploaded baseline
artifact (``benchmarks/diff_bench.py``).
"""

import os
import time
from array import array
from contextlib import contextmanager

from repro.bench import datasets
from repro.bench.datasets import bench_sentences
from repro.bench.harness import paper_timing
from repro.columnar.kernels import KERNELS_ENV, native_kernels
from repro.lpath.engine import LPathEngine

#: Like the structural-join A/B: the kernel claim is about corpora large
#: enough for per-row interpreter overhead to dominate.
LARGE_SENTENCES = max(1000, bench_sentences())

#: Fig. 9-style deep descendant chains (the asserted suite) plus broad
#: two-step scans (reported — their cost is output-dominated).
DEEP_QUERIES = ("//S//NP//NN", "//NP//NP", "//S//VP//NP//NN", "//VP//NP//PP")
SCAN_QUERIES = ("//S//NP", "//S//VP//NP")

SPEEDUP_FLOOR = 3.0

#: Q22's first join and the most its arrival-order batch may cost over
#: the same batch presorted.
ARRIVAL_QUERY = "//NP=>NP"
ARRIVAL_CEILING = 1.3

#: The sparse arm keeps the bindings of one tree in this many.
SPARSE_EVERY = 64


@contextmanager
def _pinned(variable: str, value: str):
    previous = os.environ.get(variable)
    os.environ[variable] = value
    try:
        yield
    finally:
        if previous is None:
            del os.environ[variable]
        else:
            os.environ[variable] = previous


def _engine() -> LPathEngine:
    trees = datasets.corpus("wsj", LARGE_SENTENCES)
    return LPathEngine(list(trees), keep_trees=False)


def _timed(engine: LPathEngine, query: str, backend: str, repeats: int):
    with _pinned("REPRO_FORCE_JOIN", "merge"), _pinned(KERNELS_ENV, backend):
        engine.count(query)  # warm the plan cache for this backend
        return paper_timing(lambda: engine.count(query), repeats)


def _arrival_order(engine: LPathEngine) -> dict:
    """Per-call seconds of the native sweep over the batch its scan emits,
    over that batch presorted by ``(tid, key)`` and over the emitted
    bindings of every ``SPARSE_EVERY``-th tree: best of interleaved rounds
    of 20 calls, so the ratio compares like with like."""
    with _pinned("REPRO_FORCE_JOIN", "merge"), _pinned(KERNELS_ENV, "native"):
        plan = engine.compile(ARRIVAL_QUERY).plan
    *before, join = plan.steps
    arrival = []
    for step in before:
        arrival = step.run(arrival)
    slot, key = join.spec.low
    tids, keys = plan.runtime.store.tid, plan.runtime.store.col(key)
    rows = arrival[slot]
    order = sorted(range(len(rows)), key=lambda i: (tids[rows[i]], keys[rows[i]]))
    sparse = [i for i in range(len(rows)) if tids[rows[i]] % SPARSE_EVERY == 0]
    presorted = [array("q", map(column.__getitem__, order)) for column in arrival]
    sparse_batch = [array("q", map(column.__getitem__, sparse)) for column in arrival]
    best = dict.fromkeys(
        ("arrival_seconds", "presorted_seconds", "sparse_seconds"), float("inf")
    )
    for _ in range(9):
        for name, batch in zip(best, (arrival, presorted, sparse_batch)):
            started = time.perf_counter()
            for _ in range(20):
                join.pairs(batch)
            best[name] = min(best[name], (time.perf_counter() - started) / 20)
    ratio = best["arrival_seconds"] / best["presorted_seconds"]
    return {
        "query": ARRIVAL_QUERY, "bindings": len(rows), **best, "ratio": ratio,
        "sparse_every": SPARSE_EVERY, "sparse_bindings": len(sparse),
    }


def _format(rows) -> str:
    header = (
        f"{'suite':10s} {'query':18s} {'python (s)':>11s} "
        f"{'native (s)':>11s} {'speedup':>8s} {'rows':>7s}"
    )
    lines = [header, "-" * len(header)]
    for suite, query, python_s, native_s, size in rows:
        speedup = python_s / native_s if native_s else float("inf")
        lines.append(
            f"{suite:10s} {query:18s} {python_s:11.5f} "
            f"{native_s:11.5f} {speedup:7.2f}x {size:7d}"
        )
    return "\n".join(lines)


def test_native_kernels_ab(benchmark, write_result, write_json, repeats):
    native_built = native_kernels() is not None
    engine = _engine()

    rows = []
    payload = []
    deep_python = deep_native = 0.0
    for suite, queries in (("deep-chain", DEEP_QUERIES), ("fig9 scan", SCAN_QUERIES)):
        for query in queries:
            python_s, python_n = _timed(engine, query, "python", repeats)
            if native_built:
                native_s, native_n = _timed(engine, query, "native", repeats)
            else:
                native_s, native_n = python_s, python_n
            assert python_n == native_n, (
                f"kernel backends disagree on {query}: {python_n} vs {native_n}"
            )
            rows.append((suite, query, python_s, native_s, python_n))
            payload.append(
                {
                    "suite": suite,
                    "query": query,
                    "python_seconds": python_s,
                    "native_seconds": native_s if native_built else None,
                    "speedup": python_s / native_s if native_s else None,
                    "rows": python_n,
                }
            )
            if suite == "deep-chain":
                deep_python += python_s
                deep_native += native_s

    speedup = deep_python / deep_native if deep_native else float("inf")
    arrival = _arrival_order(engine) if native_built else None
    table = _format(rows)
    summary = (
        f"\ndeep-chain suite: python {deep_python:.5f}s, native "
        f"{deep_native:.5f}s ({speedup:.2f}x) over {LARGE_SENTENCES} "
        f"sentences\n"
        + (
            f"arrival order {ARRIVAL_QUERY}: {arrival['bindings']} bindings, "
            f"{arrival['arrival_seconds'] * 1e3:.3f} ms vs presorted "
            f"{arrival['presorted_seconds'] * 1e3:.3f} ms "
            f"({arrival['ratio']:.2f}x)\n"
            f"sparse arrival (1 tree in {SPARSE_EVERY}): "
            f"{arrival['sparse_bindings']} bindings, "
            f"{arrival['sparse_seconds'] * 1e3:.3f} ms\n"
            f"gates: native must win >= {SPEEDUP_FLOOR:g}x; arrival order "
            f"<= {ARRIVAL_CEILING:g}x presorted"
            if native_built
            else "gates skipped: cffi extension unavailable (recorded only)"
        )
    )
    write_result(
        "kernels_ab.txt",
        "Native cffi kernels vs pure-Python columnar loops\n" + table + summary,
    )
    write_json(
        "kernels",
        {
            "sentences": LARGE_SENTENCES,
            "native_built": native_built,
            "queries": payload,
            "deep_chain_speedup": speedup if native_built else None,
            "arrival_order": arrival,
            "gated": native_built,
        },
    )

    # Regression benchmark: the default (auto) backend on the deepest chain.
    with _pinned("REPRO_FORCE_JOIN", "merge"):
        benchmark(lambda: engine.count(DEEP_QUERIES[2]))

    if native_built:
        assert speedup >= SPEEDUP_FLOOR, (
            f"native kernels fell below the {SPEEDUP_FLOOR}x floor on the "
            f"deep-chain suite: python {deep_python:.5f}s vs native "
            f"{deep_native:.5f}s ({speedup:.2f}x)"
        )
        assert arrival["ratio"] <= ARRIVAL_CEILING, (
            f"the native sweep over {ARRIVAL_QUERY}'s arrival-order batch "
            f"costs {arrival['ratio']:.2f}x the presorted batch "
            f"(ceiling {ARRIVAL_CEILING:g}x)"
        )
