"""TGrep2 corpus view and backtracking matcher.

TGrep2's data model makes words real leaf nodes (children of their POS
tag).  The corpus view materializes that: every ``@lex`` attribute becomes
a word leaf.  Word leaves report the owning pre-terminal's ``node_id`` so
result counts line up with the label-relation engines.

Matching follows the tool's strategy: for each candidate head node, check
the links by scanning the tree with backtracking — no label scheme, no
join planning.  A word/tag index over the corpus (TGrep2 builds one in its
compiled corpus file) accelerates head-candidate retrieval.
"""

from __future__ import annotations

from typing import Iterator, Optional

from ...tree.node import Tree, TreeNode
from .ast import Link, NodeSpec, Pattern


class TNode:
    """A node of the TGrep2 view of a tree."""

    __slots__ = ("label", "children", "parent", "left", "right",
                 "index_in_parent", "node_id", "is_word")

    def __init__(self, label: str, node_id: int, is_word: bool = False) -> None:
        self.label = label
        self.children: list[TNode] = []
        self.parent: Optional[TNode] = None
        self.left = 0
        self.right = 0
        self.index_in_parent = -1
        self.node_id = node_id
        self.is_word = is_word

    def descendants(self) -> Iterator["TNode"]:
        stack = list(reversed(self.children))
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TNode {self.label}>"


class TTree:
    """One tree in the corpus view, with the orderings the matcher needs."""

    def __init__(self, tree: Tree) -> None:
        self.tid = tree.tid
        self.root = self._convert(tree.root)
        self.nodes: list[TNode] = [self.root, *self.root.descendants()]
        self._assign_spans()
        self.by_left: dict[int, list[TNode]] = {}
        self.by_right: dict[int, list[TNode]] = {}
        for node in self.nodes:
            self.by_left.setdefault(node.left, []).append(node)
            self.by_right.setdefault(node.right, []).append(node)

    def _convert(self, source: TreeNode) -> TNode:
        node = TNode(source.label, source.node_id)
        for child in source.children:
            converted = self._convert(child)
            converted.parent = node
            converted.index_in_parent = len(node.children)
            node.children.append(converted)
        word = source.word
        if word is not None:
            leaf = TNode(word, source.node_id, is_word=True)
            leaf.parent = node
            leaf.index_in_parent = len(node.children)
            node.children.append(leaf)
        return node

    def _assign_spans(self) -> None:
        next_left = 1

        def visit(node: TNode) -> None:
            nonlocal next_left
            if not node.children:
                node.left = next_left
                node.right = next_left + 1
                next_left += 1
                return
            for child in node.children:
                visit(child)
            node.left = node.children[0].left
            node.right = node.children[-1].right

        visit(self.root)


Bindings = dict[str, TNode]


class Matcher:
    """Backtracking evaluation of one pattern over one tree."""

    def __init__(self, tree: TTree) -> None:
        self.tree = tree

    def match_heads(self, pattern: Pattern) -> Iterator[TNode]:
        """Nodes of the tree at which the whole pattern matches."""
        for node in self.tree.nodes:
            if pattern.spec.matches_name(node.label):
                bindings: Bindings = {}
                if self._match_at(node, pattern, bindings):
                    yield node

    # -- internals -----------------------------------------------------------

    def _match_at(self, node: TNode, pattern: Pattern, bindings: Bindings) -> bool:
        spec = pattern.spec
        if spec.backreference is not None:
            bound = bindings.get(spec.backreference)
            if bound is None or bound is not node:
                return False
        elif not spec.matches_name(node.label):
            return False
        if spec.label is not None:
            previous = bindings.get(spec.label)
            if previous is not None and previous is not node:
                return False
            bindings[spec.label] = node
        for link in pattern.links:
            if not self._match_link(node, link, bindings):
                if spec.label is not None:
                    bindings.pop(spec.label, None)
                return False
        return True

    def _match_link(self, node: TNode, link: Link, bindings: Bindings) -> bool:
        found = False
        for candidate in self._candidates(node, link):
            if self._match_at(candidate, link.target, bindings):
                found = True
                break
        return not found if link.negated else found

    def _candidates(self, node: TNode, link: Link) -> Iterator[TNode]:
        relation, argument = link.relation, link.argument
        tree = self.tree
        if relation == "<":
            yield from node.children
        elif relation == ">":
            if node.parent is not None:
                yield node.parent
        elif relation == "<<":
            yield from node.descendants()
        elif relation == ">>":
            ancestor = node.parent
            while ancestor is not None:
                yield ancestor
                ancestor = ancestor.parent
        elif relation == "<N":
            child = _nth(node.children, argument)
            if child is not None:
                yield child
        elif relation == ">N":
            parent = node.parent
            if parent is not None and _nth(parent.children, argument) is node:
                yield parent
        elif relation == "<:":
            if len(node.children) == 1:
                yield node.children[0]
        elif relation == ".":
            yield from tree.by_left.get(node.right, ())
        elif relation == ",":
            yield from tree.by_right.get(node.left, ())
        elif relation == "..":
            for candidate in tree.nodes:
                if candidate.left >= node.right:
                    yield candidate
        elif relation == ",,":
            for candidate in tree.nodes:
                if candidate.right <= node.left:
                    yield candidate
        elif relation in ("$", "$.", "$,", "$..", "$,,"):
            parent = node.parent
            if parent is None:
                return
            for sibling in parent.children:
                if sibling is node:
                    continue
                if relation == "$":
                    yield sibling
                elif relation == "$." and sibling.left == node.right:
                    yield sibling
                elif relation == "$," and sibling.right == node.left:
                    yield sibling
                elif relation == "$.." and sibling.left >= node.right:
                    yield sibling
                elif relation == "$,," and sibling.right <= node.left:
                    yield sibling
        else:  # pragma: no cover - parser restricts relations
            raise ValueError(f"unknown relation {relation!r}")


def _nth(children: list[TNode], argument: Optional[int]) -> Optional[TNode]:
    if argument is None or argument == 0:
        return None
    index = argument - 1 if argument > 0 else argument
    try:
        return children[index]
    except IndexError:
        return None
