#!/usr/bin/env python3
"""Compare the four engines of the paper on the same corpus.

Runs a sample of the Figure 6(c) query set through the LPath engine,
TGrep2, CorpusSearch and the XPath-labeling engine, printing per-system
times — a miniature of Figures 7 and 10.

Run:  python examples/engine_comparison.py [sentences]
"""

import sys
import time

from repro.baselines.corpussearch import CorpusSearchEngine
from repro.baselines.tgrep2 import TGrep2Engine
from repro.bench.queries import QUERY_SET
from repro.corpus import generate_corpus
from repro.lpath import LPathCompileError, LPathEngine
from repro.xpath import XPathEngine

SAMPLE = (1, 2, 6, 9, 12, 18)  # value, horizontal, scoped, negation, rare, deep


def timed(run) -> tuple[float, object]:
    started = time.perf_counter()
    result = run()
    return time.perf_counter() - started, result


def main() -> None:
    sentences = int(sys.argv[1]) if len(sys.argv) > 1 else 1000
    print(f"Generating a WSJ-like treebank with {sentences} sentences...")
    corpus = generate_corpus("wsj", sentences=sentences, seed=2)

    print("Loading engines (LPath / TGrep2 / CorpusSearch / XPath-labels)...")
    load, lpath = timed(lambda: LPathEngine(corpus, keep_trees=False))
    print(f"  LPath engine loaded in {load:.2f}s "
          f"({lpath.count('//_')} element nodes)")
    tgrep = TGrep2Engine(corpus)
    corpussearch = CorpusSearchEngine(corpus)
    xpath = XPathEngine(corpus)

    header = f"{'query':<34}{'LPath':>10}{'TGrep2':>10}{'CorpusS.':>10}{'XPath':>10}"
    print("\n" + header)
    print("-" * len(header))
    for query in QUERY_SET:
        if query.qid not in SAMPLE:
            continue
        lpath_seconds, size = timed(lambda: lpath.count(query.lpath))
        tgrep_seconds, _ = timed(lambda: tgrep.count(query.tgrep2))
        corpussearch_seconds, _ = timed(
            lambda: corpussearch.count(query.corpussearch)
        )
        try:
            xpath_seconds, _ = timed(lambda: xpath.count(query.lpath))
            xpath_cell = f"{xpath_seconds * 1000:>8.1f}ms"
        except LPathCompileError:
            xpath_cell = f"{'n/a':>10}"
        print(
            f"{query.lpath:<34}{lpath_seconds * 1000:>8.1f}ms"
            f"{tgrep_seconds * 1000:>8.1f}ms"
            f"{corpussearch_seconds * 1000:>8.1f}ms{xpath_cell}"
            f"   ({size} results)"
        )

    print("\n'n/a' marks LPath-only features (Lemma 3.1: immediate axes,")
    print("scoping and edge alignment are not expressible in XPath).")


if __name__ == "__main__":
    main()
