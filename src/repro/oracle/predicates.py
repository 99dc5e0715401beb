"""Table 2: deciding every LPath axis by label comparisons.

Each predicate answers "does node ``x`` stand in the axis relation to node
``y``?" by inspecting only the two labels.  These are exactly the join
conditions the LPath-to-SQL compiler emits; keeping them in one module lets
property tests check them against the structural ground truth in
:mod:`repro.oracle.traversal`, and lets the compiler and the documentation
share a single source of truth.

All relations are within one tree: every predicate requires
``x.tid == y.tid``.  ``x`` and ``y`` range over *element* rows unless noted.
"""

from __future__ import annotations

from ..labeling.lpath_scheme import Label


def same_tree(x: Label, y: Label) -> bool:
    """Both labels belong to the same tree."""
    return x.tid == y.tid


# -- vertical navigation ----------------------------------------------------

def is_child(x: Label, y: Label) -> bool:
    """child(x, y): x is a child of y."""
    return same_tree(x, y) and x.pid == y.id


def is_parent(x: Label, y: Label) -> bool:
    """parent(x, y): x is the parent of y."""
    return same_tree(x, y) and x.id == y.pid


def is_descendant(x: Label, y: Label) -> bool:
    """descendant(x, y): y.left <= x.left, x.right <= y.right, x.depth > y.depth."""
    return (
        same_tree(x, y)
        and y.left <= x.left
        and x.right <= y.right
        and x.depth > y.depth
    )


def is_ancestor(x: Label, y: Label) -> bool:
    """ancestor(x, y): x.left <= y.left, y.right <= x.right, x.depth < y.depth."""
    return (
        same_tree(x, y)
        and x.left <= y.left
        and y.right <= x.right
        and x.depth < y.depth
    )


def is_descendant_or_self(x: Label, y: Label) -> bool:
    """Reflexive descendant (footnote 5 of the paper)."""
    return same_tree(x, y) and (x.id == y.id or is_descendant(x, y))


def is_ancestor_or_self(x: Label, y: Label) -> bool:
    """Reflexive ancestor."""
    return same_tree(x, y) and (x.id == y.id or is_ancestor(x, y))


# -- horizontal navigation ---------------------------------------------------

def is_immediate_following(x: Label, y: Label) -> bool:
    """immediate-following(x, y): x.left == y.right (adjacency property)."""
    return same_tree(x, y) and x.left == y.right


def is_following(x: Label, y: Label) -> bool:
    """following(x, y): x.left >= y.right."""
    return same_tree(x, y) and x.left >= y.right


def is_immediate_preceding(x: Label, y: Label) -> bool:
    """immediate-preceding(x, y): x.right == y.left."""
    return same_tree(x, y) and x.right == y.left


def is_preceding(x: Label, y: Label) -> bool:
    """preceding(x, y): x.right <= y.left."""
    return same_tree(x, y) and x.right <= y.left


# -- sibling navigation -------------------------------------------------------

def is_immediate_following_sibling(x: Label, y: Label) -> bool:
    """Sibling right after y: same parent and adjacent spans."""
    return same_tree(x, y) and x.pid == y.pid and x.left == y.right


def is_following_sibling(x: Label, y: Label) -> bool:
    """Sibling after y: same parent, x.left >= y.right."""
    return same_tree(x, y) and x.pid == y.pid and x.left >= y.right


def is_immediate_preceding_sibling(x: Label, y: Label) -> bool:
    """Sibling right before y."""
    return same_tree(x, y) and x.pid == y.pid and x.right == y.left


def is_preceding_sibling(x: Label, y: Label) -> bool:
    """Sibling before y."""
    return same_tree(x, y) and x.pid == y.pid and x.right <= y.left


# -- other ---------------------------------------------------------------------

def is_self(x: Label, y: Label) -> bool:
    """self(x, y): the same node."""
    return same_tree(x, y) and x.id == y.id and x.name == y.name


def is_attribute(x: Label, y: Label) -> bool:
    """attribute(x, y): x is an attribute row of element y."""
    return same_tree(x, y) and x.id == y.id and x.is_attribute


# -- scoping and alignment (Section 3 language features) -----------------------

def in_scope(x: Label, scope: Label) -> bool:
    """Subtree scoping: x lies within the subtree rooted at ``scope``."""
    return (
        same_tree(x, scope)
        and scope.left <= x.left
        and x.right <= scope.right
        and x.depth >= scope.depth
    )


def is_left_aligned(x: Label, scope: Label) -> bool:
    """Edge alignment ``^``: x starts at the scope's left edge."""
    return same_tree(x, scope) and x.left == scope.left


def is_right_aligned(x: Label, scope: Label) -> bool:
    """Edge alignment ``$``: x ends at the scope's right edge."""
    return same_tree(x, scope) and x.right == scope.right
