"""Tests for the baseline start/end (XPath) labeling scheme."""

from hypothesis import given, settings

from repro.labeling import xpath_scheme as xs
from repro.oracle import traversal as tv
from repro.tree import figure1_tree
from tests.strategies import trees


def _element_rows(tree):
    return {r.id: r for r in xs.label_tree(tree) if not r.is_attribute}


class TestStartEndAssignment:
    def test_no_shared_boundaries(self):
        rows = _element_rows(figure1_tree())
        positions = []
        for row in rows.values():
            positions.extend([row.start, row.end])
        assert len(positions) == len(set(positions))

    def test_root_spans_document(self):
        tree = figure1_tree()
        rows = _element_rows(tree)
        root_row = rows[tree.root.node_id]
        assert root_row.start == 1
        assert root_row.end == 2 * len(tree)

    def test_attribute_rows_share_span(self):
        tree = figure1_tree()
        rows = xs.label_tree(tree)
        v_row = next(r for r in rows if r.name == "V")
        lex = next(r for r in rows if r.is_attribute and r.value == "saw")
        assert (lex.start, lex.end) == (v_row.start, v_row.end)


class TestContainmentPredicates:
    @given(trees(max_depth=4))
    @settings(max_examples=50, deadline=None)
    def test_vertical_and_order_axes_agree(self, tree):
        rows = _element_rows(tree)
        for x in tree.nodes:
            for y in tree.nodes:
                lx, ly = rows[x.node_id], rows[y.node_id]
                assert xs.is_descendant(lx, ly) == tv.is_descendant(x, y)
                assert xs.is_ancestor(lx, ly) == tv.is_ancestor(x, y)
                assert xs.is_child(lx, ly) == tv.is_child(x, y)
                assert xs.is_parent(lx, ly) == tv.is_parent(x, y)

    @given(trees(max_depth=4))
    @settings(max_examples=40, deadline=None)
    def test_following_is_document_order_following(self, tree):
        """start/end 'following' = XPath following = linguistic following."""
        rows = _element_rows(tree)
        for x in tree.nodes:
            for y in tree.nodes:
                lx, ly = rows[x.node_id], rows[y.node_id]
                assert xs.is_following(lx, ly) == tv.follows(tree, x, y)
                assert xs.is_preceding(lx, ly) == tv.precedes(tree, x, y)


class TestExpressivenessGap:
    def test_immediate_following_not_decidable(self):
        """The paper's motivation for the new scheme: under start/end labels
        there is no label comparison equivalent to immediate-following.

        Concretely: two (x, y) pairs with identical start-gap relationships
        differ on immediate-following, so no function of the start/end
        numbers alone can decide the axis.  We demonstrate the loss directly:
        leaf adjacency information (shared boundaries) is absent.
        """
        tree = figure1_tree()
        rows = _element_rows(tree)
        v = next(n for n in tree.nodes if n.label == "V")
        np_obj = next(n for n in tree.nodes if n.label == "NP" and n.left == 3 and n.depth == 3)
        np_man = next(n for n in tree.nodes if n.label == "NP" and n.right == 6)
        # Both NPs immediately follow V structurally...
        assert tv.immediately_follows_adjacent(tree, np_obj, v)
        assert tv.immediately_follows_adjacent(tree, np_man, v)
        # ...but their start positions relative to V's end differ, and the
        # simple "x.start == y.end + 1" guess is wrong for the nested NP.
        assert rows[np_obj.node_id].start == rows[v.node_id].end + 1
        assert rows[np_man.node_id].start != rows[v.node_id].end + 1
