"""A/B benchmark: set-at-a-time structural merge joins vs per-binding probes.

Both physical joins execute the *same* optimized logical plans over the
same columnar store; the ``REPRO_FORCE_JOIN`` knob pins the choice so the
comparison isolates the join algorithm.  The workload is the paper's
deep-axis territory — fig. 6(b)/6(c)-style descendant chains (three-plus
hierarchical steps) plus fig. 9-style broad scans — where binding-at-a-
time probing pays ``O(|bindings| * log n)`` binary-search work that the
sorted-span merge replaces with one forward pass per partition.

Assertions:

* the structural merge join beats the per-binding probe join by >= 2x in
  aggregate over the deep-axis suite;
* the same 2x holds for value-seeded joins — fig. 6(c) Q1 and Q10, whose
  predicate step is driven from the ``{value, tid, id}`` index: merged
  against the seed's sorted row list instead of probed per binding;
* the optimizer's *unforced* cost-based choice picks ``merge`` for every
  deep-axis and value-seeded query here (the statistics say the bindings
  are plentiful), visible in ``explain()``;
* both join algorithms agree on every result size;
* a ``[...]`` predicate costs no more than 3x its predicate-free twin —
  the same joins on the main chain — under *both* kernel backends.
  Predicates run as semi-joins over the same merge kernels, so the only
  extra work is reducing matches to a selection vector; before that they
  ran one correlated Python generator per row and cost 12-20x.

``BENCH_structural_join.json`` carries the per-query timings so CI can
diff runs against the uploaded baseline artifact
(``benchmarks/diff_bench.py``).
"""

import os

from repro.bench import datasets
from repro.bench.datasets import bench_sentences
from repro.bench.harness import paper_timing
from repro.lpath.engine import LPathEngine

#: The deep-axis suite must not shrink with the CI smoke corpus: the
#: merge join's advantage is a statement about corpora large enough for
#: per-binding probe overhead to dominate ("the large profile").
LARGE_SENTENCES = max(1000, bench_sentences())

#: Deep descendant chains (the asserted suite) and broad scans
#: (reported, not asserted — their cost is output-dominated).
DEEP_QUERIES = ("//S//NP//NN", "//NP//NP", "//S//VP//NP//NN", "//VP//NP//PP")
SCAN_QUERIES = ("//S//NP", "//S//VP//NP")
#: Joins whose candidates are a value seed's row list (asserted like the
#: deep-axis suite: same floor, same cost-based choice).
SEEDED_QUERIES = ("//S[//_[@lex=saw]]", "//NP[->PP[//IN[@lex=of]]=>VP]")

SPEEDUP_FLOOR = 2.0

#: (predicate form, predicate-free twin doing the same joins): fig. 6(c)
#: Q7, Q8 and Q9.
PREDICATE_PAIRS = (
    ("//VP[{//^VB->NP->PP$}]", "//VP{//^VB->NP->PP$}"),
    ("//S[//NP/ADJP]", "//S//NP/ADJP"),
    ("//NP[not(//JJ)]", "//NP//JJ"),
)
PREDICATE_CEILING = 3.0


def _engine() -> LPathEngine:
    trees = datasets.corpus("wsj", LARGE_SENTENCES)
    return LPathEngine(list(trees), keep_trees=False)


def _forced(engine: LPathEngine, query: str, mode: str, repeats: int):
    os.environ["REPRO_FORCE_JOIN"] = mode
    try:
        engine.count(query)  # warm the plan cache for this mode
        return paper_timing(lambda: engine.count(query), repeats)
    finally:
        del os.environ["REPRO_FORCE_JOIN"]


def _predicate_pairs(engine: LPathEngine, repeats: int) -> list[dict]:
    """Time every predicate form beside its twin, per available kernel
    backend (the plan cache keys on the backend, so flipping the
    environment recompiles)."""
    from repro.columnar.kernels import KERNELS_ENV, native_kernels

    backends = ("python", "native") if native_kernels() is not None else ("python",)
    previous = os.environ.get(KERNELS_ENV)
    pairs = []
    try:
        for backend in backends:
            os.environ[KERNELS_ENV] = backend
            for predicate, twin in PREDICATE_PAIRS:
                timed = {}
                for role, query in (("predicate", predicate), ("twin", twin)):
                    engine.count(query)  # compile under this backend
                    timed[role] = paper_timing(
                        lambda: engine.count(query), max(5, repeats)
                    )
                pairs.append(
                    {
                        "kernels": backend,
                        "predicate": predicate,
                        "twin": twin,
                        "predicate_seconds": timed["predicate"][0],
                        "twin_seconds": timed["twin"][0],
                        "ratio": timed["predicate"][0] / timed["twin"][0],
                        "predicate_rows": timed["predicate"][1],
                        "twin_rows": timed["twin"][1],
                    }
                )
    finally:
        if previous is None:
            del os.environ[KERNELS_ENV]
        else:
            os.environ[KERNELS_ENV] = previous
    return pairs


def _format_pairs(pairs) -> str:
    header = (
        f"{'kernels':8s} {'predicate':26s} {'pred (s)':>10s} "
        f"{'twin (s)':>10s} {'ratio':>7s}"
    )
    lines = [header, "-" * len(header)]
    for pair in pairs:
        lines.append(
            f"{pair['kernels']:8s} {pair['predicate']:26s} "
            f"{pair['predicate_seconds']:10.5f} {pair['twin_seconds']:10.5f} "
            f"{pair['ratio']:6.2f}x"
        )
    return "\n".join(lines)


def _format(rows) -> str:
    header = (
        f"{'suite':10s} {'query':18s} {'probe (s)':>11s} "
        f"{'merge (s)':>11s} {'speedup':>8s} {'rows':>7s}"
    )
    lines = [header, "-" * len(header)]
    for suite, query, probe_s, merge_s, size in rows:
        speedup = probe_s / merge_s if merge_s else float("inf")
        lines.append(
            f"{suite:10s} {query:18s} {probe_s:11.5f} "
            f"{merge_s:11.5f} {speedup:7.2f}x {size:7d}"
        )
    return "\n".join(lines)


def test_structural_join_ab(benchmark, write_result, write_json, repeats):
    engine = _engine()

    rows = []
    payload = []
    asserted = {"deep-axis": [0.0, 0.0], "value-seed": [0.0, 0.0]}
    for suite, queries in (
        ("deep-axis", DEEP_QUERIES), ("fig9 scan", SCAN_QUERIES),
        ("value-seed", SEEDED_QUERIES),
    ):
        for query in queries:
            probe_s, probe_n = _forced(engine, query, "probe", repeats)
            merge_s, merge_n = _forced(engine, query, "merge", repeats)
            assert probe_n == merge_n, (
                f"join algorithms disagree on {query}: {probe_n} vs {merge_n}"
            )
            rows.append((suite, query, probe_s, merge_s, probe_n))
            payload.append(
                {
                    "suite": suite,
                    "query": query,
                    "probe_seconds": probe_s,
                    "merge_seconds": merge_s,
                    "speedup": probe_s / merge_s if merge_s else None,
                    "rows": probe_n,
                }
            )
            if suite in asserted:
                asserted[suite][0] += probe_s
                asserted[suite][1] += merge_s
    (deep_probe, deep_merge), (seed_probe, seed_merge) = asserted.values()

    # The optimizer's own statistics-driven choice must pick the merge
    # join for the deep-axis chains and for every value-seeded join (no
    # forcing involved).
    choices = []
    for query in DEEP_QUERIES + SEEDED_QUERIES:
        plan = engine.explain(query)
        lines = [  # a seeded query shows the choice on the seeded join itself
            line for line in plan.splitlines()
            if query in DEEP_QUERIES or "<- ValueSeed" in line
        ]
        assert any("Join[merge" in line for line in lines), (
            f"cost model did not pick the structural merge join for {query}:\n{plan}"
        )
        choices.append(f"{query}: merge (cost-based)")

    pairs = _predicate_pairs(engine, repeats)

    speedup = deep_probe / deep_merge if deep_merge else float("inf")
    seed_speedup = seed_probe / seed_merge if seed_merge else float("inf")
    table = _format(rows)
    summary = (
        f"\ndeep-axis suite: probe {deep_probe:.5f}s, merge {deep_merge:.5f}s "
        f"({speedup:.2f}x) over {LARGE_SENTENCES} sentences\n"
        f"value-seed suite: probe {seed_probe:.5f}s, merge {seed_merge:.5f}s "
        f"({seed_speedup:.2f}x)\n"
        + "\n".join(choices)
    )
    write_result(
        "structural_join_ab.txt",
        "Structural merge join vs per-binding probe join\n" + table + summary
        + "\n\nPredicate forms vs their predicate-free twins\n"
        + _format_pairs(pairs),
    )
    write_json(
        "structural_join",
        {
            "sentences": LARGE_SENTENCES,
            "queries": payload,
            "deep_axis_speedup": speedup,
            "value_seed_speedup": seed_speedup,
            "predicate_pairs": pairs,
        },
    )

    # Regression benchmark: the merge join on the deepest chain.
    os.environ["REPRO_FORCE_JOIN"] = "merge"
    try:
        benchmark(lambda: engine.count(DEEP_QUERIES[2]))
    finally:
        del os.environ["REPRO_FORCE_JOIN"]

    assert speedup >= SPEEDUP_FLOOR, (
        f"structural merge join fell below the {SPEEDUP_FLOOR}x floor on the "
        f"deep-axis suite: probe {deep_probe:.5f}s vs merge {deep_merge:.5f}s "
        f"({speedup:.2f}x)"
    )
    assert seed_speedup >= SPEEDUP_FLOOR, (
        f"value-seeded merge joins fell below the {SPEEDUP_FLOOR}x floor: "
        f"probe {seed_probe:.5f}s vs merge {seed_merge:.5f}s ({seed_speedup:.2f}x)"
    )
    for pair in pairs:
        assert pair["ratio"] <= PREDICATE_CEILING, (
            f"{pair['predicate']} runs {pair['ratio']:.1f}x its twin "
            f"{pair['twin']} under {pair['kernels']} kernels (ceiling "
            f"{PREDICATE_CEILING}x): {pair['predicate_seconds']:.5f}s vs "
            f"{pair['twin_seconds']:.5f}s"
        )
