"""Tests for the baseline XPath engine (Figure 10's comparator)."""

import pytest
from hypothesis import given, settings

from repro.lpath import LPathCompileError, LPathEngine
from repro.tree import figure1_tree
from repro.xpath import XPATH_AXES, VERTICAL_FRAGMENT, XPathEngine
from tests.strategies import corpora

#: Queries in the [11] vertical fragment (the Figure 10 class).
VERTICAL_QUERIES = [
    "//NP",
    "//S",
    "//NP/N",
    "//S//V",
    "//NP/_",
    "//N\\NP",
    "//Det\\ancestor::S",
    "/S/NP",
    "//S[//_[@lex=saw]]",
    "//_[@lex=dog]",
    "//NP[not(//Adj)]",
    "//S[//NP/Det]",
    "//NP/NP",
    "//_[name()=VP]",
    "//NP[//Det and //N]",
    "//N/@lex",
]

#: XPath-expressible but outside the [11] vertical fragment.
HORIZONTAL_QUERIES = [
    "//V/following-sibling::NP",
    "//NP/preceding-sibling::V",
    "//V/following::N",
    "//N/preceding::V",
]


@pytest.fixture(scope="module")
def engines():
    trees = [figure1_tree()]
    return XPathEngine(trees), LPathEngine(trees)


class TestAgainstLPathEngine:
    @pytest.mark.parametrize("query", VERTICAL_QUERIES)
    def test_same_results_as_lpath_engine(self, engines, query):
        xpath_engine, lpath_engine = engines
        assert xpath_engine.query(query) == lpath_engine.query(query)

    @pytest.mark.parametrize("query", HORIZONTAL_QUERIES)
    def test_full_xpath_axes_agree_when_enabled(self, query):
        trees = [figure1_tree()]
        full = XPathEngine(trees, axes=XPATH_AXES)
        lpath_engine = LPathEngine(trees)
        assert full.query(query) == lpath_engine.query(query)

    @given(corpora(max_trees=3, max_depth=4))
    @settings(max_examples=15, deadline=None)
    def test_random_corpora_agree(self, trees):
        xpath_engine = XPathEngine(trees, axes=XPATH_AXES)
        lpath_engine = LPathEngine(trees)
        for query in VERTICAL_QUERIES + HORIZONTAL_QUERIES:
            assert xpath_engine.query(query) == lpath_engine.query(query), query


class TestExpressivenessBoundary:
    """Lemma 3.1 plus the [11] fragment restriction."""

    @pytest.mark.parametrize(
        "query",
        [
            "//V->NP",            # immediate-following
            "//NP<-V",            # immediate-preceding
            "//V=>NP",            # immediate-following-sibling
            "//NP<=V",            # immediate-preceding-sibling
            "//VP{/V}",           # subtree scoping
            "//VP{//NP$}",        # edge alignment + scoping
            "//^NP",              # left alignment
            "//NP$",              # right alignment
            "//S[//V->NP]",       # LPath axis nested in a predicate
            "//S[{//V}]",         # scope nested in a predicate
        ],
    )
    def test_lpath_only_features_rejected(self, engines, query):
        xpath_engine, _ = engines
        with pytest.raises(LPathCompileError):
            xpath_engine.query(query)

    @pytest.mark.parametrize("query", HORIZONTAL_QUERIES)
    def test_vertical_fragment_rejects_horizontal_axes(self, engines, query):
        xpath_engine, _ = engines
        with pytest.raises(LPathCompileError):
            xpath_engine.query(query)

    def test_eleven_of_paper_queries_supported(self, engines):
        """The paper's Figure 10 count: exactly 11 of the 23 Fig 6(c)
        queries run on the XPath-labeling engine."""
        from tests.lpath.test_parser import PAPER_QUERIES

        xpath_engine, _ = engines
        supported = []
        for query in PAPER_QUERIES:
            try:
                xpath_engine.query(query)
                supported.append(query)
            except LPathCompileError:
                pass
        assert len(supported) == 11

    def test_fragment_is_subset(self):
        assert VERTICAL_FRAGMENT < XPATH_AXES


class TestDuplicateTids:
    def test_rejected(self):
        from repro.lpath import LPathError

        with pytest.raises(LPathError):
            XPathEngine([figure1_tree(tid=2), figure1_tree(tid=2)])


@pytest.mark.parametrize("query", [
    '//NP[.="the old man"]', '//PP[.="with a dog"]', '//S//_[.!="I"]',
    '//VP[.="saw the old man with a dog"]/NP',
])
def test_element_string_values_read_the_words_beneath(query):
    """An element's string value is its words; start/end labels find them
    as Definition 4.1 labels do."""
    from repro.oracle import TreeWalkEvaluator

    trees = [figure1_tree()]
    want = TreeWalkEvaluator(trees).query(query)
    assert want
    assert XPathEngine(trees).query(query) == want


class TestStoredLabelScheme:
    """A compiled file answers from the labels it holds, whichever
    dialect opens it."""

    @pytest.fixture(scope="class")
    def wsj(self):
        from repro.corpus import generate_corpus

        return list(generate_corpus("wsj", sentences=60, seed=7))

    def test_xpath_engine_over_a_definition_4_1_file(self, wsj, tmp_path):
        from repro import store
        from repro.oracle import TreeWalkEvaluator

        path = str(tmp_path / "lpath.lpdb")
        store.save_corpus(wsj, path, segments=2)
        walk = TreeWalkEvaluator(wsj)
        with XPathEngine.from_store_mmap(path) as engine:
            for query in ("//S//NP", "//NP//NN", "//VP/NP"):
                assert engine.count(query) == len(walk.query(query)), query

    def test_lpath_open_over_a_start_end_file(self, wsj, tmp_path):
        from repro import store
        from repro.oracle import TreeWalkEvaluator
        from repro.xpath.engine import xpath_stores

        path = str(tmp_path / "start-end.lpdb")
        with open(path, "wb") as stream:
            store.save_mapped_stores(xpath_stores(wsj, 2), stream)
        walk = TreeWalkEvaluator(wsj)
        with LPathEngine.open(path) as engine:
            for query in ("//S//NP", "//NP//NN", "//VP/NP"):
                assert engine.count(query) == len(walk.query(query)), query
            # Start/end labels share no leaf boundaries, so they cannot
            # decide immediate-following: a refusal naming the scheme,
            # never a silent 0.
            with pytest.raises(LPathCompileError, match="start-end"):
                engine.count("//VB->NP")
