"""Naive structural ground truth for every LPath axis.

These functions compute axis relations *directly from the tree structure*
(parent pointers, child lists, leaf order) without using the interval labels
of Definition 4.1.  They serve two purposes:

* reference semantics for the tree-walk evaluator, and
* an independent oracle for property tests of the labeling predicates
  (Table 2): for random trees, ``axis_by_labels(x, y)`` must agree with
  ``axis_by_structure(x, y)``.

Definitions follow Section 2/3 of the paper:

* ``follows(x, y)``: x's first leaf comes after y's last leaf (the XPath
  ``following`` axis restricted to linguistic trees).
* ``immediately_follows(x, y)`` (Definition 3.1): ``follows(x, y)`` and no
  node z exists with ``follows(x, z)`` and ``follows(z, y)``.  By the
  paper's adjacency property this is equivalent to leaf adjacency, which
  :func:`immediately_follows_adjacent` computes; the equivalence is
  property-tested.
"""

from __future__ import annotations

from .node import Tree, TreeNode


def _leaf_order(tree: Tree) -> dict[int, int]:
    """Map node_id of each terminal to its 0-based position in leaf order."""
    return {leaf.node_id: position for position, leaf in enumerate(tree.leaves())}


def first_leaf(node: TreeNode) -> TreeNode:
    """Leftmost terminal descendant (or the node itself when terminal)."""
    while node.children:
        node = node.children[0]
    return node


def last_leaf(node: TreeNode) -> TreeNode:
    """Rightmost terminal descendant (or the node itself when terminal)."""
    while node.children:
        node = node.children[-1]
    return node


def is_ancestor(x: TreeNode, y: TreeNode) -> bool:
    """True when ``x`` is a proper ancestor of ``y``."""
    return any(ancestor is x for ancestor in y.ancestors())


def is_descendant(x: TreeNode, y: TreeNode) -> bool:
    """True when ``x`` is a proper descendant of ``y``."""
    return is_ancestor(y, x)


def is_child(x: TreeNode, y: TreeNode) -> bool:
    """True when ``x`` is a child of ``y``."""
    return x.parent is y


def is_parent(x: TreeNode, y: TreeNode) -> bool:
    """True when ``x`` is the parent of ``y``."""
    return y.parent is x


def is_sibling(x: TreeNode, y: TreeNode) -> bool:
    """True when ``x`` and ``y`` are distinct and share a parent."""
    return x is not y and x.parent is not None and x.parent is y.parent


def follows(tree: Tree, x: TreeNode, y: TreeNode) -> bool:
    """True when ``x`` follows ``y``: x's leaves all come after y's."""
    order = _leaf_order(tree)
    return order[first_leaf(x).node_id] > order[last_leaf(y).node_id]


def precedes(tree: Tree, x: TreeNode, y: TreeNode) -> bool:
    """True when ``x`` precedes ``y`` (inverse of :func:`follows`)."""
    return follows(tree, y, x)


def immediately_follows_adjacent(tree: Tree, x: TreeNode, y: TreeNode) -> bool:
    """Adjacency form: x's first leaf is right after y's last leaf."""
    order = _leaf_order(tree)
    return order[first_leaf(x).node_id] == order[last_leaf(y).node_id] + 1


def immediately_follows(tree: Tree, x: TreeNode, y: TreeNode) -> bool:
    """Definition 3.1, computed literally (quadratic; for testing only).

    ``x`` immediately follows ``y`` iff ``x`` follows ``y`` and there is no
    node ``z`` with ``x`` follows ``z`` and ``z`` follows ``y``.
    """
    if not follows(tree, x, y):
        return False
    order = _leaf_order(tree)
    x_first = order[first_leaf(x).node_id]
    y_last = order[last_leaf(y).node_id]
    for z in tree.nodes:
        z_first = order[first_leaf(z).node_id]
        z_last = order[last_leaf(z).node_id]
        if x_first > z_last and z_first > y_last:
            return False
    return True


def is_following_sibling(tree: Tree, x: TreeNode, y: TreeNode) -> bool:
    """True when ``x`` is a sibling of ``y`` appearing after it."""
    return is_sibling(x, y) and x.index_in_parent > y.index_in_parent


def is_immediate_following_sibling(tree: Tree, x: TreeNode, y: TreeNode) -> bool:
    """True when ``x`` is the sibling right after ``y``."""
    return is_sibling(x, y) and x.index_in_parent == y.index_in_parent + 1


def is_preceding_sibling(tree: Tree, x: TreeNode, y: TreeNode) -> bool:
    """True when ``x`` is a sibling of ``y`` appearing before it."""
    return is_following_sibling(tree, y, x)


def is_immediate_preceding_sibling(tree: Tree, x: TreeNode, y: TreeNode) -> bool:
    """True when ``x`` is the sibling right before ``y``."""
    return is_immediate_following_sibling(tree, y, x)


def is_leftmost_in(scope: TreeNode, x: TreeNode) -> bool:
    """Left edge alignment: x's first leaf is scope's first leaf."""
    return first_leaf(x) is first_leaf(scope)


def is_rightmost_in(scope: TreeNode, x: TreeNode) -> bool:
    """Right edge alignment: x's last leaf is scope's last leaf."""
    return last_leaf(x) is last_leaf(scope)


def in_subtree(scope: TreeNode, x: TreeNode) -> bool:
    """Subtree scoping: ``x`` is ``scope`` itself or a descendant of it."""
    return x is scope or is_descendant(x, scope)
