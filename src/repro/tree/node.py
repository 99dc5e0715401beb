"""Ordered linguistic trees (the paper's Section 2.1 data model).

A linguistic tree is an ordered labeled tree whose terminals are units of a
linguistic artifact (words) and whose non-terminals are annotations.
Following Figure 1 of the paper, terminal words are not separate tree nodes:
they are ``@lex`` attributes attached to their pre-terminal node, so that
every tree node is an *element* and attributes ride along with elements
(Definition 4.1, items 8-9).

The module also implements the interval spans that underpin the labeling
scheme: every node carries ``left``/``right``/``depth`` positions computed in
a single depth-first traversal (Definition 4.1, items 1-5).
"""

from __future__ import annotations

import contextlib
import gc
import weakref
from typing import Iterator, Mapping, Optional, Sequence


@contextlib.contextmanager
def collector_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector around a bulk build (a corpus's
    trees, a store's columns): hundreds of thousands of containers, every
    few hundred of which would trigger a collection that walks them again.
    None forms a cycle (a node's parent link is weak), so pausing only
    defers that work; the previous state is restored.  A build that leaves
    more young objects than a middle-generation collection's worth is
    moved to the old generation in one walk (``gc.collect(1)``), not the
    two (young, then middle) the collector would make of it later."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            young, middle, _ = gc.get_threshold()
            if 0 < young * middle < gc.get_count()[0]:
                gc.collect(1)
            gc.enable()


class TreeError(ValueError):
    """Raised for structurally invalid trees or invalid tree operations."""


class TreeNode:
    """A node of an ordered linguistic tree.

    Parameters
    ----------
    label:
        The node tag (``S``, ``NP``, ``VP``, ``-NONE-``...).
    children:
        Ordered child nodes.  A node with no children is a terminal
        (pre-terminal carrying a word, or an empty category).
    attributes:
        Attribute name to value mapping.  The conventional attribute for a
        terminal's word is ``lex`` (rendered ``@lex`` in LPath).

    A node owns its children; :attr:`parent` is a weak link, so trees are
    acyclic and a dropped one is freed by reference counting.  A node keeps
    its subtree alive, not its ancestors: ``parent`` reads ``None`` once
    the parent has been freed.
    """

    __slots__ = (
        "label",
        "children",
        "attributes",
        "_parent",
        "left",
        "right",
        "depth",
        "node_id",
        "_index_in_parent",
        "__weakref__",
    )

    def __init__(
        self,
        label: str,
        children: Optional[Sequence["TreeNode"]] = None,
        attributes: Optional[Mapping[str, str]] = None,
    ) -> None:
        if not label:
            raise TreeError("node label must be a non-empty string")
        self.label = label
        self.children: list[TreeNode] = []
        self.attributes: dict[str, str] = dict(attributes or {})
        self._parent: Optional[weakref.ref] = None  # see ``parent``
        # Span annotations; populated by Tree.index().
        self.left: int = 0
        self.right: int = 0
        self.depth: int = 0
        self.node_id: int = 0
        self._index_in_parent: int = -1
        for child in children or ():
            self.append(child)

    # -- structure ---------------------------------------------------------

    @property
    def parent(self) -> Optional["TreeNode"]:
        """The parent node; ``None`` for a root, a detached node, or a node
        whose parent has been freed."""
        link = self._parent
        return None if link is None else link()

    def append(self, child: "TreeNode") -> "TreeNode":
        """Attach ``child`` as the rightmost child and return it."""
        if child.parent is not None:
            raise TreeError("node already has a parent; detach it first")
        child._parent = weakref.ref(self)
        child._index_in_parent = len(self.children)
        self.children.append(child)
        return child

    def detach(self) -> "TreeNode":
        """Remove this node from its parent and return it."""
        parent = self.parent
        if parent is None:
            return self
        parent.children.remove(self)
        for position, sibling in enumerate(parent.children):
            sibling._index_in_parent = position
        self._parent = None
        self._index_in_parent = -1
        return self

    def __getstate__(self) -> dict:
        """Copy and pickle state: every slot but the weak parent link,
        which :meth:`__setstate__` rebuilds from the children."""
        return {
            name: getattr(self, name)
            for name in self.__slots__ if name not in ("_parent", "__weakref__")
        }

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            setattr(self, name, value)
        self._parent = None
        for child in self.children:
            child._parent = weakref.ref(self)

    @property
    def is_terminal(self) -> bool:
        """True when the node has no children."""
        return not self.children

    @property
    def word(self) -> Optional[str]:
        """The terminal word (``@lex`` attribute) if present."""
        return self.attributes.get("lex")

    @property
    def index_in_parent(self) -> int:
        """0-based position among siblings (-1 for a detached root)."""
        return self._index_in_parent

    # -- navigation primitives (used by the tree-walk evaluator) -----------

    def ancestors(self) -> Iterator["TreeNode"]:
        """Yield proper ancestors, nearest first."""
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def descendants(self) -> Iterator["TreeNode"]:
        """Yield proper descendants in document (pre)order."""
        stack = list(reversed(self.children))
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def preorder(self) -> Iterator["TreeNode"]:
        """Yield this node and all descendants in document order."""
        yield self
        yield from self.descendants()

    def leaves(self) -> Iterator["TreeNode"]:
        """Yield terminal descendants (or self when terminal) in order."""
        if self.is_terminal:
            yield self
            return
        for node in self.descendants():
            if node.is_terminal:
                yield node

    def next_sibling(self) -> Optional["TreeNode"]:
        """The immediately following sibling, if any."""
        if self.parent is None:
            return None
        siblings = self.parent.children
        position = self._index_in_parent + 1
        return siblings[position] if position < len(siblings) else None

    def previous_sibling(self) -> Optional["TreeNode"]:
        """The immediately preceding sibling, if any."""
        if self.parent is None or self._index_in_parent == 0:
            return None
        return self.parent.children[self._index_in_parent - 1]

    # -- rendering ----------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        word = f" {self.word!r}" if self.word is not None else ""
        return f"<TreeNode {self.label}{word} children={len(self.children)}>"


class Tree:
    """A rooted ordered tree plus its span index.

    ``Tree`` owns the Definition 4.1 positional annotations: calling
    :meth:`index` (done automatically on construction) assigns ``left``,
    ``right``, ``depth`` and ``node_id`` to every node in one DFS pass.

    * the leftmost leaf has ``left = 1`` and every leaf has
      ``right = left + 1`` with consecutive leaves sharing a boundary
      (items 1-3);
    * a non-terminal spans from its first leaf's ``left`` to its last
      leaf's ``right`` (item 4);
    * the root has ``depth = 1`` (item 5);
    * ``node_id`` is a nonzero document-order identifier (item 6): the
      node's 1-based position in :attr:`nodes`, which :meth:`node_by_id`
      indexes.

    The tree holds every node, so each :attr:`TreeNode.parent` link is
    valid while the tree is reachable.
    """

    __slots__ = ("root", "tid", "_nodes")

    def __init__(self, root: TreeNode, tid: int = 0) -> None:
        if root.parent is not None:
            raise TreeError("tree root must not have a parent")
        self.root = root
        self.tid = tid
        self.index()

    def index(self) -> None:
        """(Re)compute identifiers and depths top-down in preorder, then
        spans bottom-up: reversed preorder meets every node after all of
        its descendants."""
        nodes: list[TreeNode] = []
        stack = [(self.root, 1)]
        next_left = 1
        while stack:
            node, depth = stack.pop()
            nodes.append(node)
            node.node_id = len(nodes)
            node.depth = depth
            children = node.children
            if children:
                stack.extend((child, depth + 1) for child in reversed(children))
            else:
                node.left = next_left
                next_left += 1
                node.right = next_left
        for node in reversed(nodes):
            children = node.children
            if children:
                node.left = children[0].left
                node.right = children[-1].right
        self._nodes = nodes

    # -- access -------------------------------------------------------------

    @property
    def nodes(self) -> list[TreeNode]:
        """All nodes in document order."""
        return self._nodes

    def node_by_id(self, node_id: int) -> TreeNode:
        """Look up a node by its document-order identifier (its 1-based
        position in :attr:`nodes`); :class:`TreeError` out of range."""
        if 0 < node_id <= len(self._nodes):
            return self._nodes[node_id - 1]
        raise TreeError(f"no node with id {node_id}")

    def leaves(self) -> list[TreeNode]:
        """Terminal nodes in order."""
        return [node for node in self._nodes if node.is_terminal]

    def words(self) -> list[str]:
        """The sentence: the ``@lex`` values of terminals, in order."""
        return [leaf.word for leaf in self.leaves() if leaf.word is not None]

    def __len__(self) -> int:
        return len(self._nodes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Tree tid={self.tid} nodes={len(self._nodes)}>"
