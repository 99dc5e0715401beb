"""Penn-Treebank bracketed notation reader and writer.

Treebank-3 stores one parse per sentence in LISP-style bracketed form::

    ( (S (NP-SBJ (PRP I)) (VP (VBD saw) (NP (DT the) (NN dog))) (. .)) )

Words appear as bare tokens under their pre-terminal.  On parsing we convert
each word into a ``lex`` attribute of its pre-terminal node, matching the
paper's Figure 1 data model where words are ``@lex`` attributes.  The writer
is the exact inverse, so ``parse(write(tree)) == tree``.
"""

from __future__ import annotations

from typing import Iterable, Iterator, TextIO

from .node import Tree, TreeError, TreeNode, collector_paused


class BracketParseError(TreeError):
    """Raised when bracketed input is malformed."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at offset {position})")
        self.position = position


_OPEN = "("
_CLOSE = ")"


def _tokenize(text: str) -> Iterator[tuple[str, int]]:
    """Yield ``(token, offset)`` pairs: parens and whitespace-free atoms."""
    index, length = 0, len(text)
    while index < length:
        char = text[index]
        if char.isspace():
            index += 1
        elif char in (_OPEN, _CLOSE):
            yield char, index
            index += 1
        else:
            start = index
            while index < length and not text[index].isspace() and text[index] not in (_OPEN, _CLOSE):
                index += 1
            yield text[start:index], start


def parse_tree(text: str, tid: int = 0) -> Tree:
    """Parse a single bracketed tree.

    Accepts both bare trees ``(S ...)`` and the Treebank-3 convention of an
    extra outer wrapper ``( (S ...) )``.
    """
    trees = list(iter_trees(text, start_tid=tid))
    if not trees:
        raise BracketParseError("no tree found in input", 0)
    if len(trees) > 1:
        raise BracketParseError("more than one tree in input; use iter_trees", 0)
    return trees[0]


def iter_trees(text: str, start_tid: int = 0) -> Iterator[Tree]:
    """Parse a sequence of bracketed trees from ``text``.

    Each top-level s-expression becomes one :class:`Tree`.  A top-level
    expression whose head is itself a parenthesis (the Treebank file
    convention ``( (S ...) )``) is unwrapped when it contains exactly one
    subtree; multi-rooted wrappers get a synthetic ``TOP`` node.  The whole
    text is parsed at the first ``next``, with the cyclic collector paused.
    """
    trees: list[Tree] = []
    with collector_paused():
        tokens = list(_tokenize(text))
        index = 0
        while index < len(tokens):
            node, index = _parse_node(tokens, index, len(text))
            trees.append(Tree(node, tid=start_tid + len(trees)))
    yield from trees


def _parse_node(
    tokens: list[tuple[str, int]], position: int, end: int
) -> tuple[TreeNode, int]:
    token, offset = tokens[position]
    if token != _OPEN:
        raise BracketParseError(f"expected '(' but found {token!r}", offset)
    position += 1
    if position >= len(tokens):
        raise BracketParseError("unexpected end of input after '('", offset)
    head, head_offset = tokens[position]
    if head == _CLOSE:
        raise BracketParseError("empty tree '()'", head_offset)
    children: list[TreeNode] = []
    words: list[str] = []
    if head == _OPEN:
        # Unlabeled wrapper: parse children, synthesize a label below.
        label = None
    else:
        label = head
        position += 1
    while position < len(tokens):
        token, offset = tokens[position]
        if token == _CLOSE:
            position += 1
            return _build_node(label, children, words, offset), position
        if token == _OPEN:
            child, position = _parse_node(tokens, position, end)
            children.append(child)
        else:
            words.append(token)
            position += 1
    raise BracketParseError("unbalanced parentheses: missing ')'", end)


def _build_node(
    label: str | None, children: list[TreeNode], words: list[str], offset: int
) -> TreeNode:
    if label is None:
        # Treebank-3 wrapper "( (S ...) )".
        if words:
            raise BracketParseError("words not allowed in an unlabeled wrapper", offset)
        if len(children) == 1:
            return children[0].detach()
        node = TreeNode("TOP")
        for child in children:
            node.append(child.detach() if child.parent else child)
        return node
    if words and children:
        raise BracketParseError(
            f"node {label!r} mixes words and subtrees", offset
        )
    if len(words) > 1:
        raise BracketParseError(
            f"pre-terminal {label!r} has multiple words {words!r}", offset
        )
    if words:
        return TreeNode(label, attributes={"lex": words[0]})
    return TreeNode(label, children)


def format_node(node: TreeNode) -> str:
    """Render one node (recursively) in bracketed notation."""
    if node.is_terminal:
        word = node.word
        if word is None:
            return f"({node.label} )"
        return f"({node.label} {word})"
    inner = " ".join(format_node(child) for child in node.children)
    return f"({node.label} {inner})"


def format_tree(tree: Tree, wrap: bool = False) -> str:
    """Render a tree; ``wrap=True`` adds the Treebank-3 outer parentheses."""
    body = format_node(tree.root)
    return f"( {body} )" if wrap else body


def write_trees(trees: Iterable[Tree], stream: TextIO, wrap: bool = True) -> int:
    """Write trees one per line; returns the number written."""
    count = 0
    for tree in trees:
        stream.write(format_tree(tree, wrap=wrap))
        stream.write("\n")
        count += 1
    return count


def read_trees(stream: TextIO, start_tid: int = 0) -> Iterator[Tree]:
    """Read every tree from a file-like object."""
    yield from iter_trees(stream.read(), start_tid=start_tid)
