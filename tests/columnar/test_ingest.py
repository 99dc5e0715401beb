"""Ingest is columnar: trees are labelled straight into columns.

``save_corpus`` and ``LPathEngine(trees)`` build every store from
``label_columns(trees)``; label rows are a view over those columns.  The
tree path and the row path (``label_corpus`` rows of the dealt trees
into ``ColumnStore.from_rows``) must build
equal stores and write the same LPDB0004 bytes at 1, 2 and 3 segments,
empty shards included (a corpus of fewer trees than segments), whatever
order the trees come in.  The build itself runs on the native kernels
or on their pure-Python twins; both must lay out the same bytes.
"""

from __future__ import annotations

import io
import os
import tempfile
from operator import attrgetter, itemgetter

import pytest

import hypothesis.strategies as st
from hypothesis import given, settings

from repro import store
from repro.columnar.kernels import native_kernels
from repro.columnar.store import ColumnStore
from repro.labeling.lpath_scheme import (
    ATTRIBUTE_PREFIX,
    Label,
    label_columns,
    label_corpus,
)
from repro.tree import Tree, TreeNode
from tests.columnar.test_concat import assert_same_store
from tests.columnar.test_kernels import kernels_env
from tests.strategies import LABELS, corpora, sparse_corpora

#: Trees in any order: both paths deal by sorted tid, not by position.
any_corpora = st.one_of(
    corpora(), sparse_corpora().map(itemgetter(0)),
).flatmap(st.permutations)
segment_counts = st.integers(min_value=1, max_value=3)
tid_of = attrgetter("tid")


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
        [ColumnStore.from_rows(label_corpus(shard))
         for shard in store.partition_by_tid(trees, segments, tid_of)],
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
    rows = list(label_corpus(trees))
    shards = store.partition_by_tid(rows, segments, itemgetter(0))
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


@st.composite
def build_corpora(draw):
    """A corpus in any tid order with the shapes the clustered sort must
    order exactly: a unary chain of one label (``NP -> NP``: equal
    ``left``, so pre-order input is *not* in clustered order there), an
    attribute value equal to a tag name (the two share a string id) and
    single-node trees."""
    trees = list(draw(any_corpora))
    tid = max(tree.tid for tree in trees) + 1
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        label = draw(st.sampled_from(LABELS))
        node = TreeNode(label, attributes={"lex": draw(st.sampled_from(LABELS))})
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            node = TreeNode(label, children=[node])
        trees.insert(draw(st.integers(min_value=0, max_value=len(trees))),
                     Tree(node, tid=tid))
        tid += 1
    return trees


#: Label rows drawn from small ranges, so every clustered-key column
#: ties often and only a later one (``pid`` last) or the input position
#: decides: rows no tree produces, through ``from_rows``.
tied_rows = st.lists(st.tuples(
    st.integers(0, 3), st.integers(0, 3), st.integers(0, 3), st.integers(0, 2),
    st.integers(0, 2), st.integers(0, 3),
    st.sampled_from(["NP", "VP", "@lex", "@x"]),
    st.sampled_from([None, "NP", "dog", "@lex"]),
), max_size=40)

needs_native = pytest.mark.skipif(
    native_kernels() is None, reason="cffi extension unavailable"
)
#: The nightly job widens the search; CI runs the same examples each time.
identity_settings = settings(
    max_examples=40, deadline=None, derandomize=bool(os.environ.get("CI")),
)


def assert_backends_agree(build) -> None:
    """``build()`` (a list of stores) under the native kernels and under
    their Python twins: arrays, directories, statistics and LPDB0004
    bytes must be identical."""
    built, written = {}, {}
    for backend in ("python", "native"):
        with kernels_env(backend):
            built[backend] = build()
            buffer = io.BytesIO()
            store.save_mapped_stores(built[backend], buffer)
            written[backend] = buffer.getvalue()
    for native, twin in zip(built["native"], built["python"]):
        assert_same_store(native, twin)
    assert written["native"] == written["python"]


@needs_native
@identity_settings
@given(build_corpora(), segment_counts,
       st.sampled_from([store.LPATH_LABELS, store.START_END_LABELS]))
def test_native_build_equals_the_python_twin(trees, segments, scheme):
    assert_backends_agree(lambda: [
        ColumnStore(*label_columns(shard), scheme=scheme)
        for shard in store.partition_by_tid(trees, segments, tid_of)
    ])


@needs_native
@identity_settings
@given(tied_rows, segment_counts,
       st.sampled_from([store.LPATH_LABELS, store.START_END_LABELS]))
def test_native_build_of_tied_rows_equals_the_python_twin(
    rows, segments, scheme,
):
    assert_backends_agree(lambda: [
        ColumnStore.from_rows(shard, scheme)
        for shard in store.partition_by_tid(rows, segments, itemgetter(0))
    ])
