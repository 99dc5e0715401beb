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
    :data:`COLUMNS` order — the one Definition 4.1 labeler: the six
    integer columns as ``array('q')``, ``name`` and ``value`` as lists.

    Rows are in document order, tree by tree: each node's element row,
    then its attribute rows sorted by attribute name.  Column stores are
    built straight from these columns, integer arrays as they are."""
    columns = (*(array("q") for _ in range(6)), [], [])
    tid, left, right, depth, ids, pid, name, value = (
        column.append for column in columns
    )
    for tree in trees:
        tree_id = tree.tid
        for node in tree.nodes:
            parent = node.parent
            parent_id = 0 if parent is None else parent.node_id
            tid(tree_id)
            left(node.left)
            right(node.right)
            depth(node.depth)
            ids(node.node_id)
            pid(parent_id)
            name(node.label)
            value(None)
            attributes = node.attributes
            for key in sorted(attributes):
                tid(tree_id)
                left(node.left)
                right(node.right)
                depth(node.depth)
                ids(node.node_id)
                pid(parent_id)
                name(ATTRIBUTE_PREFIX + key)
                value(attributes[key])
    return columns


def label_tree(tree: Tree) -> list[Label]:
    """All rows (element + attribute) for one tree, in document order: a
    row view over :func:`label_columns`."""
    return list(map(Label._make, zip(*label_columns((tree,)))))


def label_corpus(trees: Iterable[Tree]) -> Iterator[Label]:
    """Rows for a whole corpus; trees keep their own ``tid``.  A row view
    over :func:`label_columns`, one tree at a time — stores are built from
    the columns, not from these rows."""
    for tree in trees:
        yield from label_tree(tree)
