"""Semantics tests for the tree-walk reference evaluator."""

import pytest

from repro.lpath import LPathEvaluationError
from repro.oracle import TreeWalkEvaluator
from repro.oracle.treewalk import string_value
from repro.tree import figure1_tree, tree_from_spec


@pytest.fixture()
def figure1():
    return TreeWalkEvaluator([figure1_tree()])


class TestBasics:
    def test_query_returns_sorted_pairs(self, figure1):
        pairs = figure1.query("//NP")
        assert pairs == sorted(pairs)
        assert len(pairs) == 5

    def test_nodes_resolve(self, figure1):
        nodes = figure1.nodes("//V")
        assert [n.word for n in nodes] == ["saw"]

    def test_count(self, figure1):
        assert figure1.count("//NP") == 5

    def test_absolute_child_selects_root_only(self, figure1):
        assert figure1.count("/S") == 1
        assert figure1.count("/NP") == 0

    def test_multiple_trees(self):
        trees = [figure1_tree(tid=0), figure1_tree(tid=5)]
        evaluator = TreeWalkEvaluator(trees)
        pairs = evaluator.query("//V")
        assert [tid for tid, _ in pairs] == [0, 5]


class TestPositionalSemantics:
    def test_position_on_child_axis(self, figure1):
        first = figure1.nodes("//NP/_[position()=1]")
        assert all(n.index_in_parent == 0 for n in first)

    def test_position_on_reverse_axis_counts_backwards(self):
        tree = tree_from_spec(
            ("S", ("A", "a"), ("B", "b"), ("C", "c"), ("D", "d"))
        )
        evaluator = TreeWalkEvaluator([tree])
        # preceding-sibling::_[1] of D is C (nearest first on reverse axes).
        nodes = evaluator.nodes("//D/preceding-sibling::_[position()=1]")
        assert [n.label for n in nodes] == ["C"]

    def test_chained_positional_refilters(self):
        tree = tree_from_spec(
            ("S", ("A", "a"), ("B", "b"), ("A", "c"), ("B", "d"))
        )
        evaluator = TreeWalkEvaluator([tree])
        # Second child overall, then [1] of that singleton.
        nodes = evaluator.nodes("//S/_[position()=2][position()=1]")
        assert [n.label for n in nodes] == ["B"]
        assert nodes[0].word == "b"

    def test_last_on_descendants(self, figure1):
        # //VP//_[last()]: the last descendant of VP in document order.
        nodes = figure1.nodes("//VP//_[last()]")
        assert [(n.label, n.word) for n in nodes] == [("N", "dog")]


class TestFunctions:
    def test_count(self, figure1):
        assert figure1.count("//NP[count(//N)=1]") == 3
        assert figure1.count("//NP[count(//N)>1]") == 1  # NP(3,9) contains 2

    def test_name_function(self, figure1):
        assert figure1.query("//_[name()=VP]") == figure1.query("//VP")

    def test_true_false(self, figure1):
        assert figure1.count("//V[true()]") == 1
        assert figure1.count("//V[false()]") == 0

    def test_count_requires_path(self, figure1):
        with pytest.raises(LPathEvaluationError):
            figure1.query("//V[count(1)=1]")


class TestValueComparisons:
    def test_attribute_equality(self, figure1):
        assert figure1.count("//_[@lex=saw]") == 1

    def test_attribute_inequality(self, figure1):
        # Terminals whose word is not "saw": 8 of 9.
        assert figure1.count("//_[@lex!=saw]") == 8

    def test_numeric_comparison(self):
        tree = tree_from_spec(("S", ("CD", "1929"), ("CD", "7")))
        evaluator = TreeWalkEvaluator([tree])
        assert evaluator.count("//CD[@lex=1929]") == 1
        assert evaluator.count("//CD[@lex>100]") == 1
        assert evaluator.count("//CD[@lex<100]") == 1

    def test_element_string_value(self, figure1):
        # The NP "the old man" compared as a full string.
        assert figure1.count("//NP[. = 'the old man']") == 1

    def test_string_value_helper(self):
        tree = figure1_tree()
        assert string_value(tree.root) == "I saw the old man with a dog today"


class TestScopeSemantics:
    def test_scope_restricts_predicates_too(self):
        # Predicates inside a scoped region inherit the scope.
        tree = figure1_tree()
        evaluator = TreeWalkEvaluator([tree])
        # V[-->N] inside VP scope: "today" does not witness the predicate,
        # but "man"/"dog" do, so V still matches.
        assert evaluator.count("//VP{/V[-->N]}") == 1

    def test_scope_alignment_together(self):
        evaluator = TreeWalkEvaluator([figure1_tree()])
        assert evaluator.count("//NP{//^Det}") == 2  # "the", "a" lead their NPs

    def test_unscoped_alignment_is_tree_edges(self):
        evaluator = TreeWalkEvaluator([figure1_tree()])
        assert evaluator.count("//^NP") == 1   # NP over "I"
        assert evaluator.count("//NP$") == 1   # NP over "today"


class TestAttributeSteps:
    def test_attribute_wildcard(self, figure1):
        assert figure1.count("//V/@_") == 1

    def test_attribute_missing(self, figure1):
        assert figure1.count("//VP/@lex") == 0

    def test_attribute_identity_is_element(self, figure1):
        assert figure1.query("//V/@lex") == figure1.query("//V")


class TestErrors:
    def test_query_cannot_start_with_arrow_axis(self, figure1):
        from repro.lpath import LPathSyntaxError

        with pytest.raises((LPathEvaluationError, LPathSyntaxError)):
            figure1.query("->NP")
