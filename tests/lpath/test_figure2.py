"""The paper's Figure 2: example queries with expected results on Figure 1.

Every query runs on the engine and on both references (the SQL translation
on SQLite and the tree walk); node identities are checked against
the spans from Figure 5 (the paper names nodes by subscripts we reproduce
as (label, left, right) triples).
"""

import pytest

from repro.labeling import label_corpus
from repro.lpath import LPathEngine
from repro.oracle import SQLiteBackend, TreeWalkEvaluator
from repro.tree import figure1_tree

#: (query, expected set of (label, left, right)) — Figure 2 of the paper,
#: with V/N for the Figure 1 grammar (the paper's Fig 6(c) variants use the
#: PTB tags VB/NN instead).
FIGURE2 = [
    ("//S[//_[@lex=saw]]", {("S", 1, 10)}),
    ("//V==>NP", {("NP", 3, 9)}),
    ("//V->NP", {("NP", 3, 9), ("NP", 3, 6)}),
    ("//VP/V-->N", {("N", 5, 6), ("N", 8, 9), ("N", 9, 10)}),
    ("//VP{/V-->N}", {("N", 5, 6), ("N", 8, 9)}),
    ("//VP{/NP$}", {("NP", 3, 9)}),
    ("//VP{//NP$}", {("NP", 3, 9), ("NP", 7, 9)}),
]


@pytest.fixture(scope="module")
def engine():
    return LPathEngine([figure1_tree()])


@pytest.fixture(scope="module")
def sqlite(engine):
    return SQLiteBackend(label_corpus(engine.trees))


class TestFigure2:
    @pytest.mark.parametrize("query, expected", FIGURE2)
    def test_plan_backend(self, engine, query, expected):
        nodes = engine.nodes(query)
        assert {(n.label, n.left, n.right) for n in nodes} == expected

    @pytest.mark.parametrize("query, expected", FIGURE2)
    def test_all_backends_agree(self, engine, sqlite, query, expected):
        plan = engine.query(query)
        treewalk = TreeWalkEvaluator(engine.trees).query(query)
        assert plan == sqlite.query(query) == treewalk


class TestSection2Discussion:
    """Claims made in the running text of Sections 1-3."""

    def test_det_immediately_follows_verb(self, engine):
        # "Similarly, Det_8 also immediately follows V_5."
        labels = {n.label for n in engine.nodes("//V->_")}
        assert "Det" in labels and "NP" in labels

    def test_immediate_following_sibling_xpath_rewrite(self, engine):
        # Q2 == the awkward XPath rewrite from the introduction.
        rewrite = engine.query("//V/following-sibling::_[position()=1][self::NP]")
        assert rewrite == engine.query("//V==>NP")

    def test_edge_alignment_rewrite_works_for_children(self, engine):
        # "(Q6) can be expressed as //VP/_[last()][self::NP]" — child case OK.
        rewrite = engine.query("//VP/_[last()][self::NP]")
        assert rewrite == engine.query("//VP{/NP$}")

    def test_edge_alignment_rewrite_fails_for_descendants(self, engine):
        # "//VP//_[last()][self::NP] ... evaluates to ∅, while (Q7) should
        # evaluate to {NP_6, NP_11}" — the motivation for `$`.
        rewrite = TreeWalkEvaluator(engine.trees).query("//VP//_[last()][self::NP]")
        assert rewrite == []
        assert len(engine.query("//VP{//NP$}")) == 2

    def test_subtree_scoping_shrinks_results(self, engine):
        # Q5 ⊂ Q4: N_16 ("today") escapes the VP subtree.
        unscoped = set(engine.query("//VP/V-->N"))
        scoped = set(engine.query("//VP{/V-->N}"))
        assert scoped < unscoped
        assert len(unscoped - scoped) == 1

    def test_following_is_closure_of_immediate_following(self, engine):
        # Table 1: --> is the transitive closure of ->.
        immediate = set(engine.query("//V->_"))
        following = set(engine.query("//V-->_"))
        assert immediate <= following

    def test_proper_analysis_example(self, engine):
        # From Fig 3(b): V is immediately followed by NP_6, NP_7 and Det_8.
        nodes = engine.nodes("//V->_")
        spans = {(n.label, n.left) for n in nodes}
        assert spans == {("NP", 3), ("Det", 3)}
