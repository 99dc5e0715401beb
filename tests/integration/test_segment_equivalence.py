"""Differential sweep: segmented engines must equal the monolithic one.

For random corpora and random queries (the tests/strategies.py
generators), sharding the corpus must be invisible in the results:

* the LPath engine at 2, 3 and 7 segments — cost-based and forced
  merge joins — must return exactly the monolithic engine's
  ``(tid, id)`` lists;
* the same holds for the XPath engine on the start/end-expressible
  fragment;
* a corpus saved as a segmented ``LPDB0004`` file and opened zero-copy
  must also agree exactly.

The in-memory and mmap sharded sweeps each run once per kernel backend
(``REPRO_KERNELS=python`` and ``=native``) so the native hot loops are
exercised across segment boundaries and the packed segment merge.
``REPRO_FUZZ_EXAMPLES`` scales the hypothesis example budget like the
main differential-fuzz harness.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

import pytest
import hypothesis.strategies as st
from hypothesis import given, settings

from repro import store
from repro.columnar.kernels import KERNELS_ENV, native_kernels
from repro.columnar.structural import FORCE_ENV
from repro.labeling import label_corpus
from repro.lpath import LPathEngine
from repro.oracle import SQLiteBackend, TreeWalkEvaluator
from repro.xpath import XPATH_AXES, XPathEngine
from tests.strategies import (
    LABELS, corpora, lpath_queries, sparse_corpora, xpath_queries,
)

FUZZ_EXAMPLES = max(5, int(os.environ.get("REPRO_FUZZ_EXAMPLES", "25")) // 3)
QUERIES_PER_EXAMPLE = 4
SEGMENT_SWEEP = (2, 3, 7)

#: The sharded sweeps run once per kernel backend (the segment executor,
#: the packed segment merge and the per-segment plan compile all
#: dispatch on ``REPRO_KERNELS``); ``native`` skips when the extension
#: did not build.
KERNEL_BACKENDS = ("python", "native")


@contextmanager
def pinned_kernels(backend: str):
    if backend == "native" and native_kernels() is None:
        pytest.skip("cffi extension unavailable")
    previous = os.environ.get(KERNELS_ENV)
    os.environ[KERNELS_ENV] = backend
    try:
        yield
    finally:
        if previous is None:
            del os.environ[KERNELS_ENV]
        else:
            os.environ[KERNELS_ENV] = previous


@contextmanager
def forced_join(mode):
    """Pin ``REPRO_FORCE_JOIN`` (``None``: leave the cost model alone)."""
    previous = os.environ.get(FORCE_ENV)
    if mode is not None:
        os.environ[FORCE_ENV] = mode
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(FORCE_ENV, None)
        else:
            os.environ[FORCE_ENV] = previous


class TestLPathSegmentEquivalence:
    @pytest.mark.parametrize("kernels", KERNEL_BACKENDS)
    @given(data=st.data())
    @settings(max_examples=FUZZ_EXAMPLES, deadline=None)
    def test_segmented_engines_match_monolithic(self, kernels, data):
        trees = data.draw(corpora(max_trees=4, max_depth=4), label="corpus")
        monolithic = LPathEngine(trees, keep_trees=False)
        engines = {
            segments: LPathEngine(trees, keep_trees=False, segments=segments)
            for segments in SEGMENT_SWEEP
        }
        with pinned_kernels(kernels):
            for index in range(QUERIES_PER_EXAMPLE):
                query = data.draw(lpath_queries(), label=f"query {index}")
                expected = monolithic.query(query)
                for segments, engine in engines.items():
                    # Twice: the shard's cost-based joins (probes, on
                    # corpora this small), then every eligible join —
                    # named or value-seeded — as a structural merge.
                    for force in (None, "merge"):
                        with forced_join(force):
                            got = engine.query(query)
                        assert got == expected, (
                            f"segments={segments} force={force} "
                            f"kernels={kernels} "
                            f"disagrees on {query!r}: {got} != {expected}"
                        )

    @pytest.mark.parametrize("kernels", KERNEL_BACKENDS)
    @given(data=st.data())
    @settings(max_examples=FUZZ_EXAMPLES, deadline=None)
    def test_pruned_segments_are_invisible_in_the_answers(self, kernels, data):
        """The pruning-biased sweep: one tag survives in at most two
        trees, the corpus is sharded so that most segments lack it, and
        every query is rewritten to name it — as a main-chain step or
        under ``[...]``/``not``/``or``/``count()``, wherever the
        generator put the label it replaces.  A segment the statistics
        prune must be one that could not have contributed a row."""
        trees, tag = data.draw(sparse_corpora(), label="corpus")
        monolithic = LPathEngine(trees, keep_trees=False)
        engines = [
            LPathEngine(trees, keep_trees=False, segments=segments)
            for segments in SEGMENT_SWEEP
        ]
        with pinned_kernels(kernels):
            for index in range(QUERIES_PER_EXAMPLE):
                query = data.draw(lpath_queries(), label=f"query {index}")
                other = data.draw(st.sampled_from(LABELS), label="replaced")
                query = query.replace(other, tag)
                expected = monolithic.query(query)
                for engine in engines:
                    compiled = engine.compile(query)
                    got = [tuple(row) for row in compiled.rows()]
                    assert got == expected, (
                        f"segments={engine.segments} "
                        f"kernels={kernels} disagrees on {query!r} "
                        f"({compiled.explain().splitlines()[-1]})"
                    )
                    assert compiled.count() == len(expected)

    @pytest.mark.parametrize("kernels", KERNEL_BACKENDS)
    @given(data=st.data())
    @settings(max_examples=FUZZ_EXAMPLES, deadline=None)
    def test_lpdb0004_mmap_engines_match_monolithic(
        self, kernels, data, tmp_path_factory
    ):
        trees = data.draw(corpora(max_trees=4, max_depth=4), label="corpus")
        monolithic = LPathEngine(trees, keep_trees=False)
        path = str(tmp_path_factory.mktemp("mmap") / "corpus.lpdb")
        store.save_corpus(trees, path, segments=3)
        engine = LPathEngine.from_store_mmap(path)
        try:
            with pinned_kernels(kernels):
                for index in range(QUERIES_PER_EXAMPLE):
                    query = data.draw(lpath_queries(), label=f"query {index}")
                    expected = monolithic.query(query)
                    got = engine.query(query)
                    assert got == expected, (
                        f"mmap kernels={kernels} disagrees on "
                        f"{query!r}: {got} != {expected}"
                    )
                    assert engine.count(query) == len(expected), query
        finally:
            engine.close()


class TestXPathSegmentEquivalence:
    @given(data=st.data())
    @settings(max_examples=FUZZ_EXAMPLES, deadline=None)
    def test_segmented_xpath_matches_monolithic(self, data):
        trees = data.draw(corpora(max_trees=4, max_depth=4), label="corpus")
        monolithic = XPathEngine(trees, axes=XPATH_AXES)
        engines = [
            XPathEngine(trees, axes=XPATH_AXES, segments=segments)
            for segments in SEGMENT_SWEEP
        ]
        for index in range(QUERIES_PER_EXAMPLE):
            query = data.draw(xpath_queries(), label=f"query {index}")
            expected = monolithic.query(query)
            for engine in engines:
                got = engine.query(query)
                assert got == expected, (
                    f"segments={engine.segments} disagrees on {query!r}"
                )


class TestSegmentedPlanSurface:
    """Non-fuzz sanity for the segmented compile/execute surface."""

    def _trees(self):
        from repro.tree import figure1_tree

        return [figure1_tree(tid=tid) for tid in range(5)]

    def test_plan_cache_hit_returns_same_segmented_plan(self):
        engine = LPathEngine(self._trees(), segments=3)
        first = engine.compile("//NP")
        assert engine.compile("//NP") is first
        assert len(first.parts) == 3

    def test_explain_shows_segment_count(self):
        engine = LPathEngine(self._trees(), segments=3)
        text = engine.explain("//VP//NP")
        assert "logical plan:" in text
        assert "x3 segments" in text

    def test_pivot_uses_corpus_wide_statistics(self):
        # Selectivity ordering must see summed frequencies; the pivoted
        # plan still returns the same rows.
        engine = LPathEngine(self._trees(), segments=3)
        baseline = LPathEngine(self._trees())
        assert engine.query("//S//NP", pivot=True) == baseline.query("//S//NP")

    def test_count_matches_len_query(self):
        engine = LPathEngine(self._trees(), segments=2)
        assert engine.count("//NP") == len(engine.query("//NP"))

    def test_more_segments_than_trees(self):
        trees = self._trees()[:2]
        engine = LPathEngine(trees, segments=7)
        baseline = LPathEngine(trees)
        assert engine.query("//NP") == baseline.query("//NP")

    def test_sqlite_and_treewalk_see_whole_corpus(self):
        trees = self._trees()
        engine = LPathEngine(trees, segments=3)
        expected = LPathEngine(trees).query("//NP")
        assert engine.query("//NP") == expected
        assert SQLiteBackend(label_corpus(trees)).query("//NP") == expected
        assert TreeWalkEvaluator(trees).query("//NP") == expected

    def test_validate_segmentation_rejects_bad_shapes(self):
        from repro.lpath.errors import LPathError
        from repro.plan.segmented import validate_segmentation

        validate_segmentation(2)
        validate_segmentation(1)
        with pytest.raises(LPathError, match="segments"):
            validate_segmentation(0)
        with pytest.raises(LPathError, match="segments"):
            validate_segmentation("2")
