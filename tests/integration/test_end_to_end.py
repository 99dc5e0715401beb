"""End-to-end integration: corpus generation -> file I/O -> all engines.

These tests run the full production path a user would: generate a
treebank, serialize it to Penn-bracketed text, reload it, build every
engine, and check cross-engine consistency on the paper's query set.
"""

import io

import pytest

from repro.baselines.corpussearch import CorpusSearchEngine
from repro.baselines.tgrep2 import TGrep2Engine
from repro.bench.queries import QUERY_SET
from repro.corpus import generate_corpus
from repro.labeling import label_corpus
from repro.lpath import LPathCompileError, LPathEngine
from repro.oracle import SQLiteBackend, TreeWalkEvaluator
from repro.tree import read_trees, write_trees
from repro.xpath import XPathEngine


@pytest.fixture(scope="module")
def reloaded_corpus():
    corpus = generate_corpus("wsj", sentences=250, seed=17)
    buffer = io.StringIO()
    write_trees(corpus, buffer)
    buffer.seek(0)
    return list(read_trees(buffer))


@pytest.fixture(scope="module")
def engines(reloaded_corpus):
    return {
        "lpath": LPathEngine(reloaded_corpus),
        "tgrep2": TGrep2Engine(reloaded_corpus),
        "corpussearch": CorpusSearchEngine(reloaded_corpus),
        "xpath": XPathEngine(reloaded_corpus),
    }


class TestSerializationPreservesSemantics:
    def test_round_trip_preserves_query_results(self, reloaded_corpus):
        original = generate_corpus("wsj", sentences=250, seed=17)
        original_engine = LPathEngine(original, keep_trees=False)
        reloaded_engine = LPathEngine(reloaded_corpus, keep_trees=False)
        for query in QUERY_SET:
            assert original_engine.query(query.lpath) == reloaded_engine.query(
                query.lpath
            ), query.lpath


class TestFullQuerySetCrossEngine:
    def test_lpath_backends_agree_on_all_23(self, engines):
        lpath = engines["lpath"]
        treewalk = TreeWalkEvaluator(lpath.trees)
        sqlite = SQLiteBackend(label_corpus(lpath.trees))
        for query in QUERY_SET:
            plan = lpath.query(query.lpath)
            assert plan == treewalk.query(query.lpath), query.lpath
            assert plan == sqlite.query(query.lpath), query.lpath

    def test_xpath_engine_agrees_on_its_eleven(self, engines):
        lpath, xpath = engines["lpath"], engines["xpath"]
        supported = 0
        for query in QUERY_SET:
            try:
                result = xpath.query(query.lpath)
            except LPathCompileError:
                continue
            supported += 1
            assert result == lpath.query(query.lpath), query.lpath
        assert supported == 11

    #: Queries where TGrep2/CorpusSearch report the same witness node as
    #: LPath (see bench.queries for the ones that report a different side).
    SAME_WITNESS_TGREP = (1, 2, 3, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15,
                          16, 17, 18, 19, 20, 21, 22, 23)
    SAME_WITNESS_CS = (5, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 18, 19)

    def test_tgrep2_counts_match(self, engines):
        lpath, tgrep = engines["lpath"], engines["tgrep2"]
        for query in QUERY_SET:
            if query.qid not in self.SAME_WITNESS_TGREP:
                continue
            assert tgrep.count(query.tgrep2) == lpath.count(query.lpath), (
                f"Q{query.qid}: {query.tgrep2}"
            )

    def test_corpussearch_counts_match(self, engines):
        lpath, corpussearch = engines["lpath"], engines["corpussearch"]
        for query in QUERY_SET:
            if query.qid not in self.SAME_WITNESS_CS:
                continue
            assert corpussearch.count(query.corpussearch) == lpath.count(
                query.lpath
            ), f"Q{query.qid}: {query.corpussearch}"


class TestSWBProfileEndToEnd:
    def test_swb_runs_whole_query_set(self):
        corpus = generate_corpus("swb", sentences=200, seed=23)
        engine = LPathEngine(corpus, keep_trees=False)
        sizes = [engine.count(query.lpath) for query in QUERY_SET]
        assert any(size > 0 for size in sizes)
        # WSJ-only rare words are absent from SWB (as in Figure 6(c)).
        assert sizes[11] == 0  # rapprochement
        assert sizes[12] == 0  # 1929
