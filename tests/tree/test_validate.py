"""Tests for structural and span validation."""

import weakref

import pytest
from hypothesis import given, settings

from repro.tree import Tree, TreeError, TreeNode, figure1_tree, validate
from repro.tree.validate import validate_spans, validate_structure
from tests.strategies import trees


class TestValidateStructure:
    def test_figure1_valid(self):
        validate(figure1_tree())

    @given(trees())
    @settings(max_examples=50, deadline=None)
    def test_random_trees_valid(self, tree):
        validate(tree)

    def test_stale_parent_pointer_detected(self):
        tree = figure1_tree()
        tree.root.children[0]._parent = None  # the weak link, cleared
        with pytest.raises(TreeError):
            validate_structure(tree)

    def test_parent_link_to_another_node_detected(self):
        tree = figure1_tree()
        vp = tree.root.children[1]
        vp.children[0]._parent = weakref.ref(tree.root)
        with pytest.raises(TreeError, match="stale parent pointer"):
            validate_structure(tree)

    def test_shared_child_detected(self):
        shared = TreeNode("N", attributes={"lex": "dog"})
        a = TreeNode("NP", [shared])
        root = TreeNode("S", [a])
        root.children.append(a.children[0])  # bypass append() checks
        tree = Tree.__new__(Tree)
        tree.root = root
        with pytest.raises(TreeError):
            validate_structure(tree)


class TestValidateSpans:
    def test_corrupted_left_detected(self):
        tree = figure1_tree()
        tree.root.children[0].left = 99
        with pytest.raises(TreeError):
            validate_spans(tree)

    def test_corrupted_depth_detected(self):
        tree = figure1_tree()
        tree.root.children[1].depth = 7
        with pytest.raises(TreeError):
            validate_spans(tree)

    def test_duplicate_id_detected(self):
        tree = figure1_tree()
        tree.nodes[2].node_id = tree.nodes[1].node_id
        with pytest.raises(TreeError):
            validate_spans(tree)

    def test_zero_id_detected(self):
        tree = figure1_tree()
        tree.nodes[3].node_id = 0
        with pytest.raises(TreeError):
            validate_spans(tree)

    def test_gap_between_children_detected(self):
        tree = figure1_tree()
        vp = [n for n in tree.nodes if n.label == "VP"][0]
        vp.children[1].left += 1  # create a hole after V
        with pytest.raises(TreeError):
            validate_spans(tree)
