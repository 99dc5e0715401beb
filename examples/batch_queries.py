#!/usr/bin/env python3
"""Batch execution, aggregation pushdown and top-k early termination.

Builds a small generated treebank, then shows the three batch-era query
surfaces side by side:

* ``query_batch`` — a suite of related queries compiled into one shared
  DAG; scan/join prefixes common to several queries execute once.
* ``aggregate`` — ``count`` / ``count_by_name`` / ``count_by_depth``
  evaluated without materializing the match list.
* ``limit=k`` — the first k results in sorted order, with the
  structural-join sweeps stopping early instead of materializing
  everything and slicing.

``explain_batch`` renders the shared DAG with reuse annotations so you
can see exactly which steps are shared with which earlier query.

Run:  python examples/batch_queries.py
"""

from repro import LPathEngine
from repro.bench.datasets import generate_corpus


def main() -> None:
    trees = list(generate_corpus("wsj", sentences=200, seed=7))
    engine = LPathEngine(trees, keep_trees=False)

    # A fig. 6c-style suite: one expensive shared spine, cheap tails.
    suite = ["//S//VP//NP", "//S//VP//NP//NN", "//S//VP//NP//DT"]
    print("Batch over a shared //S//VP//NP spine:")
    for query, rows in zip(suite, engine.query_batch(suite)):
        print(f"  {query:<18} {len(rows)} matches")

    print("\nThe shared DAG (steps annotated with their reuse):")
    print(engine.explain_batch(suite))

    # Mixed batch entries: plain rows, top-k and aggregates together.
    mixed = [
        "//S//VP//NP",
        {"query": "//S//VP//NP", "limit": 5},
        {"query": "//S//VP//NP", "agg": "count_by_name"},
    ]
    rows, topk, by_name = engine.query_batch(mixed)
    print("\nMixed batch over the same query:")
    print(f"  all rows        : {len(rows)} matches")
    print(f"  limit=5         : {topk}")
    print(f"  count_by_name   : {dict(sorted(by_name.items()))}")
    assert topk == sorted(rows)[:5]
    assert sum(by_name.values()) == len(rows)

    # Aggregates straight off the engine, no batch required.
    print("\nAggregation pushdown (no match list materialized):")
    print(f"  count          : {engine.aggregate('//NP')}")
    print(f"  count_by_depth : {engine.aggregate('//NP', agg='count_by_depth')}")

    # Top-k early termination: identical to sorting the full result and
    # slicing, but the sweeps stop once k rows are in hand.
    full = engine.query("//S//NP//NN")
    first = engine.query("//S//NP//NN", limit=3)
    assert first == sorted(full)[:3]
    print(f"\nTop-3 of //S//NP//NN ({len(full)} total): {first}")


if __name__ == "__main__":
    main()
