"""A mapped ColumnStore must be observably identical to a built one.

The zero-copy store answers every probe from memoryviews, sidecar
directories and binary search instead of Python dicts built by an O(rows)
load — this suite pins the two implementations together surface-by-
surface over fuzzed corpora, so any drift in the LPDB0004 writer, the
sidecar parser or the shims shows up as a concrete probe mismatch rather
than a wrong query result three layers up.
"""

from __future__ import annotations

import io
from array import array
from operator import itemgetter

import pytest
import hypothesis.strategies as st
from hypothesis import given, settings

from repro import store
from repro.columnar.executor import ColumnarRuntime
from repro.columnar.store import ColumnStore
from repro.labeling import label_corpus
from repro.tree import figure1_tree
from tests.strategies import corpora


def mapped_and_built(trees, segments=1):
    """Per-segment ``(mapped, built)`` store pairs for one corpus: the
    saved tree build, and a build from the rows of the same shard."""
    buffer = io.BytesIO()
    store.save_mapped_stores(store.tree_stores(trees, segments), buffer)
    _scheme, mapped_segments = store._parse_mapped(buffer.getvalue(), [])
    shards = store.partition_by_tid(
        list(label_corpus(trees)), segments, itemgetter(0)
    )
    return [
        (ColumnStore.adopt(segment), ColumnStore.from_rows(shard))
        for segment, shard in zip(mapped_segments, shards)
    ]


def reference_by_value(column_store) -> dict:
    """The row-at-a-time value-index builder the gather-based
    ``ColumnStore._build_by_value`` replaced, kept as its oracle."""
    table: dict = {}
    values, is_attr, tids = (
        column_store.values, column_store.is_attr, column_store.tid
    )
    for row in column_store.tid_id_perm:
        if not is_attr[row] or values[row] is None:
            continue
        entry = table.get(values[row])
        if entry is None:
            entry = table[values[row]] = (array("q"), array("q"))
        entry[0].append(tids[row])
        entry[1].append(row)
    return table


def assert_stores_equal(mapped: ColumnStore, built: ColumnStore):
    assert mapped.n == built.n
    for attr in ("tid", "left", "right", "depth", "id", "pid"):
        assert list(getattr(mapped, attr)) == list(getattr(built, attr)), attr
    assert list(mapped.names) == list(built.names)
    assert list(mapped.values) == list(built.values)
    assert bytes(mapped.is_attr) == bytes(built.is_attr)
    assert bytes(mapped.right_edge) == bytes(built.right_edge)
    assert mapped.root_right == built.root_right
    assert mapped.name_bounds == built.name_bounds
    assert mapped.tid_bounds == built.tid_bounds
    assert list(mapped.tid_id_perm) == list(built.tid_id_perm)
    assert list(mapped.children_perm) == list(built.children_perm)
    assert mapped.tree_count() == built.tree_count()

    for key, bounds in built.name_tid_bounds.items():
        assert mapped.name_tid_bounds.get(key) == bounds, key
        assert mapped.name_tid_bounds[key] == bounds
        assert key in mapped.name_tid_bounds
    assert mapped.name_tid_bounds.get(("no-such-name", 0), (0, 0)) == (0, 0)
    assert ("no-such-name", 0) not in mapped.name_tid_bounds

    for key, bounds in built.children_bounds.items():
        assert mapped.children_bounds.get(key) == bounds, key
    assert mapped.children_bounds.get((10 ** 9, 0), (0, 0)) == (0, 0)

    for name in list(built.name_bounds) + [None, "no-such-name"]:
        assert mapped.name_stats(name) == built.name_stats(name), name
        assert mapped.frequency(name) == built.frequency(name), name
        if name is not None:
            assert mapped.name_block(name) == built.name_block(name)

    for tid in built.tid_bounds:
        assert list(mapped.tid_rows(tid)) == list(built.tid_rows(tid))
        for node_id in set(built.id):
            assert list(mapped.tid_id_rows(tid, node_id)) == list(
                built.tid_id_rows(tid, node_id)
            )
            assert list(mapped.children_rows(tid, node_id)) == list(
                built.children_rows(tid, node_id)
            )
        for name in built.name_bounds:
            assert mapped.name_tid_block(name, tid) == built.name_tid_block(
                name, tid
            )
            assert mapped.clustered_range(name, tid, 1, 7) == \
                built.clustered_range(name, tid, 1, 7)

    mapped_value = ColumnarRuntime(mapped).string_value
    built_value = ColumnarRuntime(built).string_value
    for row in range(built.n):
        assert mapped_value(row) == built_value(row), row

    for column_store in (mapped, built):
        expected = reference_by_value(column_store)
        assert column_store.by_value == expected
        assert list(column_store.by_value) == list(expected)  # same order
    built_values = {
        value: (list(tids), list(rows_))
        for value, (tids, rows_) in built.by_value.items()
    }
    mapped_values = {
        value: (list(tids), list(rows_))
        for value, (tids, rows_) in mapped.by_value.items()
    }
    assert mapped_values == built_values


class TestMappedStoreEquivalence:
    def test_figure1_single_segment(self):
        for mapped, built in mapped_and_built([figure1_tree()]):
            assert_stores_equal(mapped, built)

    def test_figure1_sharded(self):
        trees = [figure1_tree(tid=t) for t in range(5)]
        for mapped, built in mapped_and_built(trees, segments=3):
            assert_stores_equal(mapped, built)

    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_random_corpora(self, data):
        trees = data.draw(corpora(max_trees=4, max_depth=4), label="corpus")
        segments = data.draw(st.sampled_from([1, 2, 3]), label="segments")
        for mapped, built in mapped_and_built(trees, segments=segments):
            assert_stores_equal(mapped, built)

    def test_string_column_interning(self):
        (mapped, _built), = mapped_and_built([figure1_tree()])
        block = mapped.name_block("NP")
        first = mapped.names[block[0]]
        # Same table entry object on every access — interning for free.
        assert all(mapped.names[row] is first for row in block)
        assert len(mapped.names) == mapped.n
        assert list(iter(mapped.names)) == list(mapped.names)


class TestMappedEngineSurface:
    """Engine-level seams specific to the mapped path."""

    def test_from_store_mmap_rejects_non_mmap_file(self, tmp_path):
        from repro.lpath import LPathEngine

        path = tmp_path / "old.lpdb"
        path.write_bytes(b"LPDB0002" + b"\x00" * 8)
        with pytest.raises(store.StoreError, match="LPDB0002"):
            LPathEngine.from_store_mmap(str(path))

    def test_engine_close_unmaps_and_is_idempotent(self, tmp_path):
        from repro.lpath import LPathEngine
        from repro.lpath.errors import LPathError

        path = tmp_path / "c.lpdb"
        store.save_corpus(
            [figure1_tree(tid=t) for t in range(4)], str(path),
            segments=2, format="lpdb0004",
        )
        engine = LPathEngine.from_store_mmap(str(path))
        compiled = engine.compile("//NP")
        assert engine.query("//NP")
        engine.close()
        engine.close()
        with pytest.raises(LPathError, match="closed"):
            engine.query("//NP")
        # A stale compiled plan reads released views: loud, not garbage.
        with pytest.raises(ValueError):
            list(compiled.rows())

    def test_explain_and_cache_work_on_mapped_engines(self, tmp_path):
        from repro.lpath import LPathEngine

        path = tmp_path / "c.lpdb"
        store.save_corpus(
            [figure1_tree(tid=t) for t in range(4)], str(path),
            segments=2, format="lpdb0004",
        )
        with LPathEngine.from_store_mmap(str(path)) as engine:
            text = engine.explain("//VP//NP")
            assert "logical plan:" in text
            assert "x2 segments" in text
            first = engine.compile("//NP")
            assert engine.compile("//NP") is first
            assert engine.cache_stats()["hits"] == 1
