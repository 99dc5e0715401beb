"""The LPath labeling scheme (Definition 4.1).

Every node of a linguistic tree is assigned a tuple
``(left, right, depth, id, pid, name, value)``:

* leaves tile the interval line: the leftmost leaf starts at 1, each leaf
  spans ``[left, left+1)``, and consecutive leaves *share a boundary* —
  this shared boundary is what makes the immediate-following axis a simple
  equality test ``x.left == y.right`` (the adjacency property);
* a non-terminal spans from its first to its last leaf descendant
  (containment property);
* ``depth`` disambiguates unary chains, whose nodes share spans;
* ``id``/``pid`` expedite the child/parent and sibling axes;
* attributes are extra rows sharing the element's positional fields, with
  ``name`` prefixed by ``@`` and the attribute value in ``value``.

Labels for a whole corpus form the relation
``node(tid, left, right, depth, id, pid, name, value)`` (Section 5's
schema), stored as a clustered column store (:mod:`repro.columnar`).
"""

from __future__ import annotations

from array import array
from typing import Iterable, Iterator, NamedTuple, Optional

from ..tree.node import Tree

ATTRIBUTE_PREFIX = "@"

#: Column order of the label relation, matching the paper's Section 5 schema.
COLUMNS = ("tid", "left", "right", "depth", "id", "pid", "name", "value")


class Label(NamedTuple):
    """One row of the label relation."""

    tid: int
    left: int
    right: int
    depth: int
    id: int
    pid: int
    name: str
    value: Optional[str]

    @property
    def is_attribute(self) -> bool:
        """True for attribute rows (``name`` starts with ``@``)."""
        return self.name.startswith(ATTRIBUTE_PREFIX)


def label_columns(trees: Iterable[Tree]) -> tuple:
    """The label relation of a corpus as eight parallel columns, in
    :data:`COLUMNS` order -- the labeler column stores are built from: the
    six integer columns as ``array('q')``, ``name`` and ``value`` as lists.

    Rows are in document order, tree by tree: each node's element row,
    then its attribute rows sorted by attribute name.  A node's ``pid`` is
    the ``id`` of the last node met one level up (``up[depth - 1]``):
    in preorder that is its parent, so no parent link is followed."""
    columns = (*(array("q") for _ in range(6)), [], [])
    tid, left, right, depth, ids, pid, name, value = (
        column.append for column in columns
    )
    for tree in trees:
        tree_id = tree.tid
        up = [0] * (len(tree.nodes) + 1)
        for node in tree.nodes:
            node_id = node.node_id
            level = node.depth
            parent_id = up[level - 1]
            up[level] = node_id
            lo = node.left
            hi = node.right
            tid(tree_id)
            left(lo)
            right(hi)
            depth(level)
            ids(node_id)
            pid(parent_id)
            name(node.label)
            value(None)
            for key, text in node.attribute_items():
                tid(tree_id)
                left(lo)
                right(hi)
                depth(level)
                ids(node_id)
                pid(parent_id)
                name(ATTRIBUTE_PREFIX + key)
                value(text)
    return columns


def label_tree(tree: Tree) -> list[Label]:
    """All rows (element + attribute) for one tree, in document order."""
    return list(label_corpus((tree,)))


def label_corpus(trees: Iterable[Tree]) -> Iterator[Label]:
    """Rows for a whole corpus; trees keep their own ``tid``.  The rows of
    ``zip(*label_columns(trees))``, made one at a time -- stores are built
    from the columns, not from these rows."""
    new = tuple.__new__
    for tree in trees:
        tree_id = tree.tid
        up = [0] * (len(tree.nodes) + 1)
        for node in tree.nodes:
            node_id = node.node_id
            level = node.depth
            parent_id = up[level - 1]
            up[level] = node_id
            lo = node.left
            hi = node.right
            yield new(Label, (
                tree_id, lo, hi, level, node_id, parent_id, node.label, None,
            ))
            for key, text in node.attribute_items():
                yield new(Label, (
                    tree_id, lo, hi, level, node_id, parent_id,
                    ATTRIBUTE_PREFIX + key, text,
                ))
