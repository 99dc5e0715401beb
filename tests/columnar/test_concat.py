"""``ColumnStore.concat`` is ``from_rows`` without the sort.

Random corpora are split at random tid cuts into 2–4 parts; the parts
are built (heap, or saved and mapped as LPDB0004) and concatenated.  The
result must equal a ``from_rows`` build over every row, field for field
(the segment's 17 blobs and sidecar record, both bounds' entries, the
dictionaries in the same order), and the LPDB0004 bytes written from it
must equal those written from the ``from_rows`` build.
"""

from __future__ import annotations

import io

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro import store
from repro.columnar.store import ColumnStore
from repro.labeling.lpath_scheme import label_corpus
from repro.tree import Tree
from tests.strategies import tree_nodes

FIELDS = ("n", "scheme", "root_right", "name_bounds", "tid_bounds")
#: The store fields that are segment blobs (the rest are the segment's
#: aux blobs, compared through the segment).
COLUMNS = (
    "tid", "left", "right", "depth", "id", "pid", "is_attr", "right_edge",
    "tid_id_perm", "children_perm", "_perm_ids",
)


@st.composite
def split_corpora(draw):
    """``(rows, parts)``: the label rows of a random corpus with gapped
    tids, and the same rows cut at 1–3 random tree boundaries.  One part
    gets an element name and an attribute-only name no other part has;
    cuts may leave a part with a single tree."""
    count = draw(st.integers(min_value=2, max_value=7))
    tid = 0
    corpus = []
    for _ in range(count):
        tid += draw(st.integers(min_value=1, max_value=3))
        corpus.append(Tree(draw(tree_nodes(max_depth=4)), tid=tid))
    cuts = sorted(draw(st.sets(
        st.integers(min_value=1, max_value=count - 1), min_size=1, max_size=3,
    )))
    bounds = [0, *cuts, count]
    groups = [corpus[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    lonely = draw(st.sampled_from(groups))
    lonely[0].root.label = "LONELY"
    lonely[-1].root.attributes["only"] = draw(st.sampled_from(["x", "NP"]))
    parts = [list(label_corpus(group)) for group in groups]
    return [row for part in parts for row in part], parts


def mapped(rows) -> ColumnStore:
    blob = saved([ColumnStore.from_rows(rows)])
    _scheme, (segment,) = store._parse_mapped(blob, [])
    return ColumnStore.adopt(segment)


def assert_same_store(merged: ColumnStore, expected: ColumnStore) -> None:
    assert type(merged) is ColumnStore
    for field in FIELDS:
        got, want = getattr(merged, field), getattr(expected, field)
        assert got == want, field
        if isinstance(want, dict) and field != "root_right":
            # Walked in order by the file writer; root_right is only
            # looked up (the writer sorts it).
            assert list(got) == list(want), field
    for blob, got, want in zip(
        store._BLOB_NAMES, merged.segment.buffers, expected.segment.buffers,
        strict=True,
    ):
        assert bytes(got) == bytes(want), blob
    for field in COLUMNS:
        got, want = getattr(merged, field), getattr(expected, field)
        assert bytes(got) == bytes(want), field
    assert merged.segment.meta == expected.segment.meta
    assert merged.segment.table == expected.segment.table
    assert list(merged.names) == list(expected.names)
    assert list(merged.values) == list(expected.values)
    for field in ("name_tid_bounds", "children_bounds"):
        got, want = getattr(merged, field), getattr(expected, field)
        assert list(got.items()) == list(want.items()), field
    for name in (None, *expected.name_bounds):
        assert merged.name_stats(name) == expected.name_stats(name), name
    assert merged.by_value == expected.by_value


def saved(stores) -> bytes:
    buffer = io.BytesIO()
    store.save_mapped_stores(stores, buffer)
    return buffer.getvalue()


@settings(max_examples=60, deadline=None)
@given(split_corpora(), st.booleans())
def test_concat_equals_from_rows(case, from_files):
    rows, parts = case
    build = mapped if from_files else ColumnStore.from_rows
    merged = ColumnStore.concat([build(part) for part in parts])
    expected = ColumnStore.from_rows(rows)
    assert_same_store(merged, expected)
    assert saved([merged]) == saved([expected])


@settings(max_examples=30, deadline=None)
@given(split_corpora())
def test_concat_mixes_heap_and_mapped_parts(case):
    rows, parts = case
    stores = [
        (mapped if index % 2 else ColumnStore.from_rows)(part)
        for index, part in enumerate(parts)
    ]
    assert_same_store(ColumnStore.concat(stores), ColumnStore.from_rows(rows))


def test_concat_of_concats_equals_one_concat():
    """Tier merges concatenate earlier concatenations."""
    from repro.tree.bracket import iter_trees

    text = "(S (NP (N dog)) (VP (V ran)))" * 3 + "(S (NP (Det the) (N cat)))" * 3
    rows = list(label_corpus(iter_trees(text)))
    by_tid = [[row for row in rows if row[0] == tid] for tid in range(6)]
    tiers = [ColumnStore.from_rows(part) for part in by_tid]
    nested = ColumnStore.concat([
        ColumnStore.concat(tiers[:3]), ColumnStore.concat(tiers[3:5]), tiers[5],
    ])
    assert_same_store(nested, ColumnStore.from_rows(rows))


def test_concat_skips_empty_and_rejects_overlap():
    from repro.tree.bracket import iter_trees

    rows = list(label_corpus(iter_trees("(S (N a))(S (N b))")))
    first = ColumnStore.from_rows([row for row in rows if row[0] == 0])
    second = ColumnStore.from_rows([row for row in rows if row[0] == 1])
    empty = ColumnStore.from_rows([])
    assert_same_store(
        ColumnStore.concat([empty, first, empty, second]),
        ColumnStore.from_rows(rows),
    )
    assert ColumnStore.concat([empty]).n == 0
    with pytest.raises(ValueError, match="tid-disjoint"):
        ColumnStore.concat([second, first])
    with pytest.raises(ValueError, match="tid-disjoint"):
        ColumnStore.concat([first, first])
