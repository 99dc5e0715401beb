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

from typing import Iterable, Iterator, NamedTuple, Optional

from ..tree.node import Tree, TreeNode

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


def label_node(node: TreeNode, tid: int) -> Label:
    """The element row for one (already indexed) tree node."""
    return Label(
        tid=tid,
        left=node.left,
        right=node.right,
        depth=node.depth,
        id=node.node_id,
        pid=node.parent.node_id if node.parent is not None else 0,
        name=node.label,
        value=None,
    )


def attribute_labels(node: TreeNode, tid: int) -> Iterator[Label]:
    """Attribute rows for one node (Definition 4.1, items 8-9)."""
    pid = node.parent.node_id if node.parent is not None else 0
    for attr_name in sorted(node.attributes):
        yield Label(
            tid=tid,
            left=node.left,
            right=node.right,
            depth=node.depth,
            id=node.node_id,
            pid=pid,
            name=ATTRIBUTE_PREFIX + attr_name,
            value=node.attributes[attr_name],
        )


def label_tree(tree: Tree) -> list[Label]:
    """All rows (element + attribute) for one tree, in document order."""
    rows: list[Label] = []
    for node in tree.nodes:
        rows.append(label_node(node, tree.tid))
        rows.extend(attribute_labels(node, tree.tid))
    return rows


def label_corpus(trees: Iterable[Tree]) -> Iterator[Label]:
    """Rows for a whole corpus; trees keep their own ``tid``."""
    for tree in trees:
        yield from label_tree(tree)
