"""Tests for naive structural axis ground truth, incl. Definition 3.1."""

from hypothesis import given, settings

from repro.oracle import traversal as tv
from repro.tree import figure1_tree
from tests.strategies import trees


def _by_label(tree, label, occurrence=0):
    matches = [node for node in tree.nodes if node.label == label]
    return matches[occurrence]


class TestFigure1Relations:
    """The worked examples from Sections 1-2 of the paper."""

    def setup_method(self):
        self.tree = figure1_tree()
        self.v = _by_label(self.tree, "V")          # "saw"
        self.object_np = _by_label(self.tree, "NP", 1)   # spans 3..9
        self.man_np = _by_label(self.tree, "NP", 2)      # "the old man"
        self.det_the = _by_label(self.tree, "Det", 0)

    def test_nps_immediately_following_verb(self):
        nps = [
            node
            for node in self.tree.nodes
            if node.label == "NP" and tv.immediately_follows(self.tree, node, self.v)
        ]
        assert {(n.left, n.right) for n in nps} == {(3, 9), (3, 6)}

    def test_det_immediately_follows_verb(self):
        assert tv.immediately_follows(self.tree, self.det_the, self.v)

    def test_adjacent_equals_definition_3_1_here(self):
        for x in self.tree.nodes:
            for y in self.tree.nodes:
                assert tv.immediately_follows(self.tree, x, y) == \
                    tv.immediately_follows_adjacent(self.tree, x, y)

    def test_three_nouns_follow_verb(self):
        nouns = [
            node for node in self.tree.nodes
            if node.label == "N" and tv.follows(self.tree, node, self.v)
        ]
        assert [n.word for n in nouns] == ["man", "dog", "today"]

    def test_sibling_relations(self):
        assert tv.is_immediate_following_sibling(self.tree, self.object_np, self.v)
        assert tv.is_following_sibling(self.tree, self.object_np, self.v)
        assert tv.is_immediate_preceding_sibling(self.tree, self.v, self.object_np)
        assert not tv.is_sibling(self.v, self.v)

    def test_vertical_relations(self):
        vp = _by_label(self.tree, "VP")
        assert tv.is_child(self.v, vp)
        assert tv.is_parent(vp, self.v)
        assert tv.is_ancestor(self.tree.root, self.det_the)
        assert tv.is_descendant(self.det_the, self.tree.root)
        assert not tv.is_descendant(self.v, self.v)

    def test_edge_alignment(self):
        vp = _by_label(self.tree, "VP")
        dog_np = _by_label(self.tree, "NP", 3)  # "a dog"
        assert tv.is_rightmost_in(vp, self.object_np)
        assert tv.is_rightmost_in(vp, dog_np)
        assert not tv.is_rightmost_in(vp, self.man_np)
        assert tv.is_leftmost_in(vp, self.v)

    def test_in_subtree(self):
        vp = _by_label(self.tree, "VP")
        today_n = [n for n in self.tree.nodes if n.word == "today"][0]
        assert tv.in_subtree(vp, self.v)
        assert tv.in_subtree(vp, vp)
        assert not tv.in_subtree(vp, today_n)


class TestDefinition31Equivalence:
    """Definition 3.1 (no intermediate node) == leaf adjacency, on random trees."""

    @given(trees(max_depth=4))
    @settings(max_examples=40, deadline=None)
    def test_equivalence(self, tree):
        nodes = tree.nodes
        for x in nodes:
            for y in nodes:
                assert tv.immediately_follows(tree, x, y) == \
                    tv.immediately_follows_adjacent(tree, x, y)

    @given(trees(max_depth=4))
    @settings(max_examples=40, deadline=None)
    def test_follows_antisymmetric(self, tree):
        for x in tree.nodes:
            assert not tv.follows(tree, x, x)
            for y in tree.nodes:
                if tv.follows(tree, x, y):
                    assert not tv.follows(tree, y, x)
                    assert tv.precedes(tree, y, x)
