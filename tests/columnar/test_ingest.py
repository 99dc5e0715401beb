"""Ingest is columnar: trees are labelled straight into column lists.

``save_corpus`` and ``LPathEngine(trees)`` build every store from
``label_columns(trees)``; label rows are a view over those columns.  The
tree path and the row path (``label_corpus`` rows dealt by
``partition_rows_by_tid`` into ``ColumnStore.from_rows``) must build
equal stores and write the same LPDB0004 bytes at 1, 2 and 3 segments,
empty shards included (a corpus of fewer trees than segments), whatever
order the trees come in.
"""

from __future__ import annotations

import io
import os
import tempfile
from operator import itemgetter

import hypothesis.strategies as st
from hypothesis import given, settings

from repro import store
from repro.columnar.store import ColumnStore
from repro.labeling.lpath_scheme import (
    ATTRIBUTE_PREFIX,
    Label,
    label_columns,
    label_corpus,
)
from tests.columnar.test_concat import assert_same_store
from tests.strategies import corpora, sparse_corpora

#: Trees in any order: both paths deal by sorted tid, not by position.
any_corpora = st.one_of(
    corpora(), sparse_corpora().map(itemgetter(0)),
).flatmap(st.permutations)
segment_counts = st.integers(min_value=1, max_value=3)


def definition_rows(trees):
    """Definition 4.1 spelled out row by row: each node's element row in
    document order, then its attribute rows by attribute name."""
    for tree in trees:
        for node in tree.nodes:
            pid = 0 if node.parent is None else node.parent.node_id
            position = (tree.tid, node.left, node.right, node.depth,
                        node.node_id, pid)
            yield Label(*position, node.label, None)
            for key in sorted(node.attributes):
                yield Label(*position, ATTRIBUTE_PREFIX + key,
                            node.attributes[key])


@settings(max_examples=20, deadline=None)
@given(any_corpora, segment_counts)
def test_tree_path_writes_the_row_path_bytes(trees, segments):
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "corpus.lpdb")
        count = store.save_corpus(trees, path, segments=segments)
        with open(path, "rb") as handle:
            from_trees = handle.read()
    rows = list(label_corpus(trees))
    assert count == len(rows)
    buffer = io.BytesIO()
    store.save_mapped_stores(
        [ColumnStore.from_rows(shard)
         for shard in store.partition_rows_by_tid(rows, segments)],
        buffer,
    )
    assert from_trees == buffer.getvalue()


@settings(max_examples=20, deadline=None)
@given(any_corpora, segment_counts)
def test_column_build_equals_row_build(trees, segments):
    assert list(label_corpus(trees)) == list(definition_rows(trees))
    assert_same_store(
        ColumnStore(*label_columns(trees)),
        ColumnStore.from_rows(label_corpus(trees)),
    )
    shards = store.partition_rows_by_tid(list(label_corpus(trees)), segments)
    built = list(store.tree_stores(trees, segments))
    for one, shard in zip(built, shards):
        assert_same_store(one, ColumnStore.from_rows(shard))
    # The sharding rule: sorted distinct tids, dealt round-robin.
    tids = sorted(tree.tid for tree in trees)
    assert [list(one.tid_bounds) for one in built] == [
        tids[shard::segments] for shard in range(segments)
    ]


def test_attribute_rows_follow_their_element_by_name():
    from repro.tree import Tree, TreeNode

    leaf = TreeNode("N", attributes={"lex": "dog", "case": "nom", "a": "x"})
    tree = Tree(TreeNode("NP", children=[leaf]), tid=4)
    rows = list(label_corpus([tree]))
    assert rows == list(definition_rows([tree]))
    assert [row.name for row in rows] == ["NP", "N", "@a", "@case", "@lex"]
    assert [row.pid for row in rows] == [0, 1, 1, 1, 1]
