"""LPDB0004 zero-copy store: the cold-start gate.

Measured on the Figure 9 scalability corpus (WSJ replicated to the
largest factor, sharded): adopting an ``LPDB0004`` file via ``mmap`` must
be at least 10x faster than building the same segmented engine from its
trees (``LPathEngine(trees, keep_trees=False, segments=...)``: deal the
trees into segments, label each straight into columns, clustered-sort
every segment, rebuild projections/bitmaps/statistics), because the
mapped open does O(segments + names) work instead of O(rows).

Results land in ``BENCH_mmap_store.json`` (open timings under
``*_seconds``, file sizes under ``*_kb``) so CI's ``diff_bench.py`` gate
also watches cold-start and on-disk-size regressions across commits.
"""

import os
import time

from repro import store
from repro.bench import by_id, datasets
from repro.bench.datasets import bench_sentences
from repro.corpus import replicate_corpus
from repro.lpath import LPathEngine

FACTOR = 4.0
#: The fig9 largest-factor corpus, floored so the build the mapped open
#: is compared against sorts real segments, not a handful of rows (same
#: clamp idea as the structural-join A/B).
SENTENCES = max(1000, bench_sentences())
SEGMENTS = 8
FIGURE9_QUERIES = (3, 6, 11)
OPEN_SPEEDUP_FLOOR = 10.0
OPEN_REPEATS = 3


def _timed_open(open_engine) -> float:
    """Best-of-N wall time to open (and close) a store-backed engine."""
    best = None
    for _ in range(OPEN_REPEATS):
        started = time.perf_counter()
        engine = open_engine()
        elapsed = time.perf_counter() - started
        engine.close()
        if best is None or elapsed < best:
            best = elapsed
    return best


def test_cold_open_mmap_vs_build(write_result, write_json):
    path = datasets.compiled_corpus_path(
        "wsj", FACTOR, SEGMENTS, sentences=SENTENCES
    )
    rows = store.corpus_info(path)["rows"]
    trees = replicate_corpus(list(datasets.corpus("wsj", SENTENCES)), FACTOR)

    def build():
        return LPathEngine(trees, keep_trees=False, segments=SEGMENTS)

    build_seconds = _timed_open(build)
    mmap_seconds = _timed_open(lambda: LPathEngine.from_store_mmap(path))
    speedup = build_seconds / mmap_seconds

    # Sanity: both opens produce working engines that agree.
    probe = by_id(FIGURE9_QUERIES[0]).lpath
    with build() as built:
        expected = built.count(probe)
    with LPathEngine.from_store_mmap(path) as mapped:
        assert mapped.count(probe) == expected

    lines = [
        f"Cold store open, fig9 corpus at {FACTOR:g}x, {SEGMENTS} segments "
        f"({rows} rows):",
        f"  column build:        {build_seconds:10.5f}s",
        f"  LPDB0004 mmap adopt: {mmap_seconds:10.5f}s "
        f"({os.path.getsize(path)} bytes)",
        f"  speedup: {speedup:.1f}x (floor {OPEN_SPEEDUP_FLOOR:g}x)",
    ]
    write_result("mmap_open.txt", "\n".join(lines))
    write_json(
        "mmap_store_open",
        {
            "factor": FACTOR,
            "sentences_floor": SENTENCES,
            "segments": SEGMENTS,
            "rows": rows,
            "open": {
                "column_build_seconds": build_seconds,
                "lpdb0004_seconds": mmap_seconds,
                "speedup": speedup,
            },
            "file_size": {
                "lpdb0004_kb": os.path.getsize(path) // 1024,
            },
        },
    )
    assert speedup >= OPEN_SPEEDUP_FLOOR, (
        f"LPDB0004 mmap open ({mmap_seconds:.5f}s) is only {speedup:.1f}x "
        f"faster than building from the trees ({build_seconds:.5f}s); "
        f"the floor is {OPEN_SPEEDUP_FLOOR:g}x"
    )
