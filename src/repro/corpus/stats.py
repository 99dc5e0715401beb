"""Corpus characteristics: the data behind Figures 6(a) and 6(b)."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from ..tree.bracket import format_tree
from ..tree.node import Tree


@dataclass(frozen=True)
class CorpusStats:
    """The Figure 6(a) row for one dataset."""

    file_size_bytes: int    # uncompressed bracketed-ASCII size
    tree_count: int
    tree_nodes: int         # element nodes (the paper's "Tree Nodes")
    word_count: int
    unique_tags: int
    max_depth: int

    def file_size_kb(self) -> int:
        return round(self.file_size_bytes / 1024)


def corpus_stats(trees: Sequence[Tree]) -> CorpusStats:
    """Compute dataset characteristics (Figure 6(a))."""
    file_size = 0
    node_count = 0
    word_count = 0
    tags: set[str] = set()
    max_depth = 0
    for tree in trees:
        file_size += len(format_tree(tree, wrap=True)) + 1  # newline
        node_count += len(tree.nodes)
        for node in tree.nodes:
            tags.add(node.label)
            if node.depth > max_depth:
                max_depth = node.depth
            if node.word is not None:
                word_count += 1
    return CorpusStats(
        file_size_bytes=file_size,
        tree_count=len(trees),
        tree_nodes=node_count,
        word_count=word_count,
        unique_tags=len(tags),
        max_depth=max_depth,
    )


def tag_frequencies(trees: Sequence[Tree]) -> Counter:
    """Occurrences of every tag (element nodes only)."""
    counter: Counter = Counter()
    for tree in trees:
        for node in tree.nodes:
            counter[node.label] += 1
    return counter


def top_tags(trees: Sequence[Tree], n: int = 10) -> list[tuple[str, int]]:
    """The Figure 6(b) list: the ``n`` most frequent tags."""
    return tag_frequencies(trees).most_common(n)


def format_stats_table(rows: dict[str, CorpusStats]) -> str:
    """Render a Figure 6(a)-style table for several datasets."""
    names = list(rows)
    lines = ["%-16s" % "" + "".join(f"{name:>14}" for name in names)]
    fields = [
        ("File Size", lambda s: f"{s.file_size_kb()}kB"),
        ("Trees", lambda s: str(s.tree_count)),
        ("Tree Nodes", lambda s: str(s.tree_nodes)),
        ("Words", lambda s: str(s.word_count)),
        ("Unique Tags", lambda s: str(s.unique_tags)),
        ("Maximum Depth", lambda s: str(s.max_depth)),
    ]
    for label, fetch in fields:
        lines.append("%-16s" % label + "".join(f"{fetch(rows[name]):>14}" for name in names))
    return "\n".join(lines)


def format_top_tags_table(rows: dict[str, Sequence[tuple[str, int]]]) -> str:
    """Render a Figure 6(b)-style table (rank, tag, frequency per dataset)."""
    names = list(rows)
    depth = max(len(tags) for tags in rows.values())
    header = "%-5s" % "#" + "".join(f"{name + ' tag':>16}{'freq':>9}" for name in names)
    lines = [header]
    for rank in range(depth):
        cells = ["%-5d" % (rank + 1)]
        for name in names:
            tags = rows[name]
            if rank < len(tags):
                tag, frequency = tags[rank]
                cells.append(f"{tag:>16}{frequency:>9}")
            else:
                cells.append(f"{'':>16}{'':>9}")
        lines.append("".join(cells))
    return "\n".join(lines)
