"""Differential tests: plan backend == SQLite backend == tree-walk oracle.

A pool of queries covering every axis and language feature runs over random
corpora; the three backends must agree exactly.
"""

import pytest
from hypothesis import given, settings

from repro.labeling import label_corpus
from repro.lpath import LPathEngine
from repro.oracle import SQLiteBackend, TreeWalkEvaluator
from tests.strategies import corpora

#: Queries phrased over the strategy alphabet (tests/strategies.py).
QUERY_POOL = [
    # vertical
    "//NP",
    "//NP/N",
    "//S//V",
    "//NP/_",
    "//_/Det",
    "//N\\NP",
    "//Det\\ancestor::S",
    "//V\\ancestor-or-self::_",
    "/S/NP",
    "/_",
    # horizontal
    "//V->NP",
    "//V->_",
    "//NP<-V",
    "//V-->N",
    "//N<--V",
    "//Det->Adj->N",
    # sibling
    "//V==>NP",
    "//V=>NP",
    "//NP<=V",
    "//NP<==_",
    "//NP=>_=>_",
    # scoping and alignment
    "//VP{/V-->N}",
    "//VP{/NP$}",
    "//VP{//NP$}",
    "//VP{//^V}",
    "//S{//NP{/N$}}",
    "//NP[{//^Det->Adj$}]",
    # predicates
    "//S[//_[@lex=saw]]",
    "//_[@lex=dog]",
    "//NP[not(//Adj)]",
    "//NP[//Det and //N]",
    "//NP[//Det or //Adj]",
    "//NP[not(//Det) and not(//Adj)]",
    "//V[==>NP]",
    "//NP[<=V]",
    "//S[//NP/N]",
    "//NP[@lex]",
    "//_[@lex!=dog]",
    "//NP[count(//N)>1]",
    "//NP[count(/_)=2]",
    "//_[name()=NP]",
    "//NP[//N]",
    # positional (restricted forms)
    "//NP/_[position()=1]",
    "//NP/_[last()]",
    "//V/following-sibling::_[position()=1][self::NP]",
    "//NP/_[position()=2]",
    "//_/_[last()][self::N]",
    # attributes as final steps
    "//N/@lex",
    "//_/@_",
    # chains mixing everything
    "//S//NP[//N]->_",
    "//VP{/_[@lex]}",
    "//NP[->_[//N]]",
]


@pytest.fixture(scope="module")
def figure1_engine():
    from repro.tree import figure1_tree

    return LPathEngine([figure1_tree()])


@pytest.fixture(scope="module")
def figure1_sqlite(figure1_engine):
    return SQLiteBackend(label_corpus(figure1_engine.trees))


class TestQueryPoolOnFigure1:
    @pytest.mark.parametrize("query", QUERY_POOL)
    def test_three_backends_agree(self, figure1_engine, figure1_sqlite, query):
        engine = figure1_engine
        plan = engine.query(query)
        treewalk = TreeWalkEvaluator(engine.trees).query(query)
        assert plan == treewalk, f"plan != treewalk for {query}"
        sqlite = figure1_sqlite.query(query)
        assert plan == sqlite, f"plan != sqlite for {query}"


class TestQueryPoolOnRandomCorpora:
    @given(corpora(max_trees=3, max_depth=4))
    @settings(max_examples=25, deadline=None)
    def test_plan_equals_treewalk(self, trees):
        engine, treewalk = LPathEngine(trees), TreeWalkEvaluator(trees)
        for query in QUERY_POOL:
            assert engine.query(query) == treewalk.query(query), (
                f"mismatch for {query}"
            )

    @given(corpora(max_trees=2, max_depth=3))
    @settings(max_examples=10, deadline=None)
    def test_sqlite_agrees(self, trees):
        engine, sqlite = LPathEngine(trees), SQLiteBackend(label_corpus(trees))
        for query in QUERY_POOL:
            assert engine.query(query) == sqlite.query(query), (
                f"mismatch for {query}"
            )
