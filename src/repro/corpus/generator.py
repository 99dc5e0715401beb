"""Seeded synthetic treebank generation."""

from __future__ import annotations

import random
from typing import Optional

from ..tree.node import Tree, TreeNode, collector_paused
from .grammar import Grammar
from .lexicon import Lexicon
from .profiles import PROFILES

#: Beyond this depth only shallow (POS-only) productions are chosen.
DEFAULT_MAX_DEPTH = 10


def generate_node(
    symbol: str,
    grammar: Grammar,
    lexicon: Lexicon,
    rng: random.Random,
    depth: int = 1,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> TreeNode:
    """Expand one grammar symbol into a subtree."""
    if symbol in grammar.pos_tags:
        return TreeNode(symbol, attributes={"lex": lexicon.sample(symbol, rng)})
    production = grammar.choose(symbol, rng, shallow_only=depth >= max_depth)
    node = TreeNode(symbol)
    for child_symbol in production.rhs:
        node.append(
            generate_node(child_symbol, grammar, lexicon, rng, depth + 1, max_depth)
        )
    return node


def generate_tree(
    grammar: Grammar,
    lexicon: Lexicon,
    rng: random.Random,
    tid: int = 0,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> Tree:
    """Generate one parse tree from the grammar's start symbol."""
    return Tree(generate_node(grammar.start, grammar, lexicon, rng, max_depth=max_depth), tid=tid)


def generate_corpus(
    profile: str = "wsj",
    sentences: int = 1000,
    seed: int = 0,
    start_tid: int = 0,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> list[Tree]:
    """Generate a corpus with a named profile (``"wsj"`` or ``"swb"``).

    Deterministic for a given ``(profile, sentences, seed)``.  Built with
    the cyclic collector paused: trees are acyclic.
    """
    try:
        build = PROFILES[profile]
    except KeyError:
        raise ValueError(
            f"unknown profile {profile!r}; available: {sorted(PROFILES)}"
        ) from None
    grammar, lexicon = build()
    rng = random.Random(seed)
    with collector_paused():
        return [
            generate_tree(grammar, lexicon, rng, tid=start_tid + offset, max_depth=max_depth)
            for offset in range(sentences)
        ]


def replicate_corpus(trees: list[Tree], factor: float, seed: Optional[int] = None) -> list[Tree]:
    """Scale a corpus for Figure 9: repeat (or truncate) to ``factor`` × size.

    Replicated trees are structural copies with fresh tids, mirroring the
    paper's "replicated the WSJ dataset between 0.5 and 4 times".
    """
    target = max(1, int(round(len(trees) * factor)))
    with collector_paused():
        return [
            Tree(_copy_node(trees[index % len(trees)].root), tid=index)
            for index in range(target)
        ]


def _copy_node(node: TreeNode) -> TreeNode:
    return TreeNode(
        node.label,
        children=[_copy_node(child) for child in node.children],
        attributes=dict(node.attribute_items()),
    )
