"""Property tests: Table 2 label predicates == structural ground truth."""

from hypothesis import given, settings

from repro.labeling import label_tree
from repro.oracle import predicates as lp, traversal as tv
from repro.tree import figure1_tree
from tests.strategies import trees

#: (label predicate, ground-truth function taking (tree, x_node, y_node))
AXIS_CASES = [
    (lp.is_child, lambda t, x, y: tv.is_child(x, y)),
    (lp.is_parent, lambda t, x, y: tv.is_parent(x, y)),
    (lp.is_descendant, lambda t, x, y: tv.is_descendant(x, y)),
    (lp.is_ancestor, lambda t, x, y: tv.is_ancestor(x, y)),
    (lp.is_immediate_following, tv.immediately_follows_adjacent),
    (lp.is_following, tv.follows),
    (lp.is_immediate_preceding, lambda t, x, y: tv.immediately_follows_adjacent(t, y, x)),
    (lp.is_preceding, tv.precedes),
    (lp.is_immediate_following_sibling, tv.is_immediate_following_sibling),
    (lp.is_following_sibling, tv.is_following_sibling),
    (lp.is_immediate_preceding_sibling, tv.is_immediate_preceding_sibling),
    (lp.is_preceding_sibling, tv.is_preceding_sibling),
]


def _element_rows(tree):
    rows = [r for r in label_tree(tree) if not r.is_attribute]
    return {r.id: r for r in rows}


class TestTable2AgainstGroundTruth:
    @given(trees(max_depth=4))
    @settings(max_examples=50, deadline=None)
    def test_all_axes_agree(self, tree):
        rows = _element_rows(tree)
        nodes = tree.nodes
        for x in nodes:
            for y in nodes:
                lx, ly = rows[x.node_id], rows[y.node_id]
                for label_pred, truth in AXIS_CASES:
                    assert label_pred(lx, ly) == truth(tree, x, y), (
                        f"{label_pred.__name__} disagrees for "
                        f"{x.label}[{x.left},{x.right}] vs {y.label}[{y.left},{y.right}]"
                    )

    @given(trees(max_depth=4))
    @settings(max_examples=30, deadline=None)
    def test_reflexive_variants(self, tree):
        rows = _element_rows(tree)
        for x in tree.nodes:
            lx = rows[x.node_id]
            assert lp.is_descendant_or_self(lx, lx)
            assert lp.is_ancestor_or_self(lx, lx)
            assert not lp.is_descendant(lx, lx)
            assert lp.is_self(lx, lx)

    @given(trees(max_depth=4))
    @settings(max_examples=30, deadline=None)
    def test_scope_and_alignment(self, tree):
        rows = _element_rows(tree)
        for scope in tree.nodes:
            ls = rows[scope.node_id]
            for x in tree.nodes:
                lx = rows[x.node_id]
                assert lp.in_scope(lx, ls) == tv.in_subtree(scope, x)
                if tv.in_subtree(scope, x):
                    assert lp.is_left_aligned(lx, ls) == tv.is_leftmost_in(scope, x)
                    assert lp.is_right_aligned(lx, ls) == tv.is_rightmost_in(scope, x)


class TestDifferentTrees:
    def test_cross_tree_never_related(self):
        t0 = figure1_tree(tid=0)
        t1 = figure1_tree(tid=1)
        rows0 = [r for r in label_tree(t0) if not r.is_attribute]
        rows1 = [r for r in label_tree(t1) if not r.is_attribute]
        for pred, _ in AXIS_CASES:
            for x in rows0[:4]:
                for y in rows1[:4]:
                    assert not pred(x, y)


class TestAttributePredicate:
    def test_attribute_rows_detected(self):
        rows = label_tree(figure1_tree())
        elements = {r.id: r for r in rows if not r.is_attribute}
        for row in rows:
            if row.is_attribute:
                assert lp.is_attribute(row, elements[row.id])
        v_row = next(r for r in rows if r.name == "V")
        assert not lp.is_attribute(v_row, v_row)
