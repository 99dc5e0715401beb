"""Cross-backend differential sweep over the unified plan IR.

Asserts the four LPath execution paths — plan (pivot off and on), SQLite,
and the tree-walk oracle — return identical results over the full query
pool and fuzzed corpora, and that the XPath engine (which now shares the
IR, optimizer and interpreter) agrees with the LPath engine on the
XPath-expressible fragment with and without pivoting.
"""

import pytest
from hypothesis import given, settings

from repro.corpus import generate_corpus
from repro.labeling import label_corpus
from repro.lpath import LPathEngine
from repro.oracle import SQLiteBackend, TreeWalkEvaluator
from repro.xpath import XPATH_AXES, XPathEngine
from tests.lpath.test_differential import QUERY_POOL
from tests.strategies import corpora

#: Queries from the pool that exercise subplan pivoting (downward-only
#: exists chains) and main-chain pivoting.
PIVOT_HEAVY = [
    "//S//NP[//N]->_",
    "//NP[//Det and //N]",
    "//S[//NP/N]",
    "//NP[not(//Det) and not(//Adj)]",
    "//S//V",
    "//NP/N",
]

XPATH_POOL = [
    "//NP",
    "//NP/N",
    "//S//V",
    "//NP/_",
    "//N\\NP",
    "//Det\\ancestor::S",
    "/S/NP",
    "//S[//_[@lex=saw]]",
    "//NP[not(//Adj)]",
    "//S[//NP/Det]",
    "//_[name()=NP]",
    "//NP[//Det and //N]",
    "//V/following-sibling::NP",
    "//NP/preceding-sibling::V",
    "//V/following::N",
    "//N/preceding::V",
]


@pytest.fixture(scope="module")
def generated_corpus():
    return generate_corpus("wsj", sentences=120, seed=23)


@pytest.fixture(scope="module")
def generated_engine(generated_corpus):
    return LPathEngine(generated_corpus)


@pytest.fixture(scope="module")
def generated_sqlite(generated_corpus):
    return SQLiteBackend(label_corpus(generated_corpus))


class TestFourWayAgreement:
    @pytest.mark.parametrize("query", QUERY_POOL)
    def test_plan_pivot_sqlite_treewalk_agree(
        self, generated_corpus, generated_engine, generated_sqlite, query
    ):
        engine = generated_engine
        plan = engine.query(query)
        assert engine.query(query, pivot=True) == plan, query
        assert TreeWalkEvaluator(generated_corpus).query(query) == plan, query
        assert generated_sqlite.query(query) == plan, query

    @given(corpora(max_trees=3, max_depth=4))
    @settings(max_examples=15, deadline=None)
    def test_pivot_agrees_on_random_corpora(self, trees):
        engine, treewalk = LPathEngine(trees), TreeWalkEvaluator(trees)
        for query in QUERY_POOL:
            assert engine.query(query, pivot=True) == treewalk.query(query), query

    def test_count_plumbs_pivot(self, generated_engine):
        engine = generated_engine
        for query in PIVOT_HEAVY:
            assert engine.count(query, pivot=True) == engine.count(query), query


class TestXPathEngineAgreement:
    @given(corpora(max_trees=3, max_depth=4))
    @settings(max_examples=10, deadline=None)
    def test_xpath_pivot_matches_lpath(self, trees):
        xpath_engine = XPathEngine(trees, axes=XPATH_AXES)
        lpath_engine = LPathEngine(trees, keep_trees=False)
        for query in XPATH_POOL:
            expected = lpath_engine.query(query)
            assert xpath_engine.query(query) == expected, query
            assert xpath_engine.query(query, pivot=True) == expected, query
