#!/usr/bin/env python3
"""Peek inside the engine: LPath -> SQL translation and physical plans.

Shows, for a few representative queries, the SQL text the translation
module emits (Section 4 of the paper) and the physical plan the columnar
executor runs, then runs the SQL on SQLite and checks it against the
engine.

Run:  python examples/sql_translation.py
"""

from repro import LPathEngine, figure1_tree
from repro.corpus import generate_corpus
from repro.labeling import label_corpus
from repro.lpath import parse
from repro.oracle import SQLGenerator, SQLiteBackend

QUERIES = [
    "//V->NP",                      # immediate-following: equality join on labels
    "//VP{//NP$}",                  # scoping + right edge alignment
    "//NP[not(//Adj)]",             # NOT EXISTS
    "//S[//_[@lex=saw]]",           # value predicate via the value index
    "//V/following-sibling::_[position()=1][self::NP]",  # XPath rewrite
]


def main() -> None:
    trees = [figure1_tree()]
    engine = LPathEngine(trees)
    sqlite = SQLiteBackend(label_corpus(trees))
    for query in QUERIES:
        print("=" * 72)
        print("LPath :", query)
        print("\n-- emitted SQL " + "-" * 40)
        print(SQLGenerator().generate(parse(query)))
        print("\n-- physical plan " + "-" * 38)
        print(engine.explain(query))
        plan = engine.query(query)
        agree = plan == sqlite.query(query)
        print(f"\nengine = SQL on SQLite: {agree}  ({len(plan)} results)")
        assert agree, query
        print()

    print("=" * 72)
    print("Same query, larger corpus — the value-seeded plan at work:")
    corpus = generate_corpus("wsj", sentences=500, seed=3)
    big = LPathEngine(corpus, keep_trees=False)
    query = "//_[@lex=rapprochement]"
    print("LPath :", query)
    print(big.explain(query).splitlines()[0])
    print("results:", big.count(query))


if __name__ == "__main__":
    main()
