"""Baseline XPath labeling scheme (Section 5.4's comparator, after [11]).

This scheme "uses textual positions of the start and end tags rather than
left and right": a document-order counter advances at every start tag *and*
every end tag, so element spans never share boundaries.  Containment still
answers descendant/ancestor/following/preceding and, with depth, child and
parent — but leaf adjacency is lost, so immediate-following and the other
LPath-only axes cannot be decided from these labels.  That asymmetry is the
point of Figure 10: the LPath scheme supports strictly more axes at the same
evaluation cost.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple, Optional

from ..tree.node import Tree, TreeNode

#: Column order for the XPath-labeled relation.
COLUMNS = ("tid", "start", "end", "depth", "id", "pid", "name", "value")


class XPathLabel(NamedTuple):
    """One row of the start/end label relation."""

    tid: int
    start: int
    end: int
    depth: int
    id: int
    pid: int
    name: str
    value: Optional[str]

    @property
    def is_attribute(self) -> bool:
        """True for attribute rows."""
        return self.name.startswith("@")


def label_tree(tree: Tree) -> list[XPathLabel]:
    """Start/end rows (elements then their attributes) in document order,
    from one explicit-stack walk: a node comes off the stack with start 0
    on the way down and is pushed back below its children, with its start
    tag's position, to be labelled on the way up."""
    rows: list[XPathLabel] = []
    counter = 0
    stack: list[tuple[TreeNode, int, int]] = [(tree.root, 0, 0)]
    while stack:
        node, pid, start = stack.pop()
        counter += 1
        if not start:
            stack.append((node, pid, counter))
            stack.extend((child, node.node_id, 0) for child in reversed(node.children))
            continue
        row = (tree.tid, start, counter, node.depth, node.node_id, pid)
        rows.append(XPathLabel(*row, node.label, None))
        for attr_name, text in node.attribute_items():
            rows.append(XPathLabel(*row, "@" + attr_name, text))
    rows.sort(key=lambda row: (row.start, row.name))
    return rows


def label_corpus(trees: Iterable[Tree]) -> Iterator[XPathLabel]:
    """Rows for a whole corpus."""
    for tree in trees:
        yield from label_tree(tree)


# -- containment predicates (what this scheme *can* decide) -------------------

def is_descendant(x: XPathLabel, y: XPathLabel) -> bool:
    """descendant(x, y) under start/end containment."""
    return x.tid == y.tid and y.start < x.start and x.end < y.end


def is_ancestor(x: XPathLabel, y: XPathLabel) -> bool:
    """ancestor(x, y) under start/end containment."""
    return is_descendant(y, x)


def is_child(x: XPathLabel, y: XPathLabel) -> bool:
    """child(x, y): containment plus one level of depth."""
    return is_descendant(x, y) and x.depth == y.depth + 1


def is_parent(x: XPathLabel, y: XPathLabel) -> bool:
    """parent(x, y)."""
    return is_child(y, x)


def is_following(x: XPathLabel, y: XPathLabel) -> bool:
    """following(x, y): x starts after y ends."""
    return x.tid == y.tid and x.start > y.end


def is_preceding(x: XPathLabel, y: XPathLabel) -> bool:
    """preceding(x, y): x ends before y starts."""
    return x.tid == y.tid and x.end < y.start
