"""Tests for compiled-corpus storage and the from_labels engine path."""

import io

import pytest
import hypothesis.strategies as st
from hypothesis import given, settings

from repro import store
from repro.labeling import label_corpus
from repro.lpath import LPathEngine, LPathError
from repro.tree import figure1_tree
from tests.strategies import corpora


def round_trip(rows):
    buffer = io.BytesIO()
    store.save_labels(rows, buffer)
    buffer.seek(0)
    return store.load_labels(buffer)


def saved_bytes(rows, checksum=True) -> bytes:
    buffer = io.BytesIO()
    store.save_labels(rows, buffer, checksum=checksum)
    return buffer.getvalue()


class TestFormat:
    def test_round_trip_figure1(self):
        rows = list(label_corpus([figure1_tree()]))
        assert round_trip(rows) == rows

    @given(corpora(max_trees=3, max_depth=4))
    @settings(max_examples=30, deadline=None)
    def test_round_trip_random(self, trees):
        rows = list(label_corpus(trees))
        assert round_trip(rows) == rows

    def test_empty_corpus(self):
        assert round_trip([]) == []

    def test_magic_checked(self):
        with pytest.raises(store.StoreError):
            store.load_labels(io.BytesIO(b"NOTLPDB!rest"))

    def test_truncation_detected(self):
        rows = list(label_corpus([figure1_tree()]))
        buffer = io.BytesIO()
        store.save_labels(rows, buffer)
        data = buffer.getvalue()
        with pytest.raises(store.StoreError):
            store.load_labels(io.BytesIO(data[:-3]))

    def test_trailing_garbage_detected(self):
        rows = list(label_corpus([figure1_tree()]))
        buffer = io.BytesIO()
        store.save_labels(rows, buffer)
        with pytest.raises(store.StoreError):
            store.load_labels(io.BytesIO(buffer.getvalue() + b"\x00"))

    def test_interning_compresses(self):
        trees = [figure1_tree(tid=i) for i in range(20)]
        rows = list(label_corpus(trees))
        buffer = io.BytesIO()
        store.save_labels(rows, buffer)
        # Far smaller than a naive text dump of the rows.
        assert len(buffer.getvalue()) < len(repr(rows)) / 4

    def test_file_helpers(self, tmp_path):
        path = tmp_path / "corpus.lpdb"
        count = store.save_corpus([figure1_tree()], str(path))
        assert count == 25
        assert store.is_compiled_corpus(str(path))
        assert not store.is_compiled_corpus(str(tmp_path / "missing"))
        rows = store.load_corpus_labels(str(path))
        assert len(rows) == 25


class TestColumnarLoader:
    """The direct-to-columns loader must agree with the row loader."""

    def test_columns_match_rows_figure1(self):
        rows = list(label_corpus([figure1_tree()]))
        data = saved_bytes(rows)
        columns = store.load_label_columns(io.BytesIO(data))
        assert len(columns) == len(rows)
        for index, row in enumerate(rows):
            assert (
                columns.tid[index], columns.left[index], columns.right[index],
                columns.depth[index], columns.id[index], columns.pid[index],
                columns.names[index], columns.values[index],
            ) == tuple(row)

    @given(corpora(max_trees=3, max_depth=4))
    @settings(max_examples=20, deadline=None)
    def test_columns_match_rows_random(self, trees):
        rows = list(label_corpus(trees))
        data = saved_bytes(rows)
        columns = store.load_label_columns(io.BytesIO(data))
        assert columns.names == [row.name for row in rows]
        assert list(columns.left) == [row.left for row in rows]
        assert columns.values == [row.value for row in rows]

    def test_reads_legacy_format(self):
        rows = list(label_corpus([figure1_tree()]))
        data = saved_bytes(rows, checksum=False)
        assert data.startswith(store.LEGACY_MAGIC)
        assert store.load_labels(io.BytesIO(data)) == rows
        assert store.load_label_columns(io.BytesIO(data)).names == [
            row.name for row in rows
        ]

    def test_file_helper(self, tmp_path):
        path = tmp_path / "corpus.lpdb"
        store.save_corpus([figure1_tree()], str(path))
        columns = store.load_corpus_columns(str(path))
        assert len(columns) == 25


class TestSegmentedFormat:
    """The LPDB0003 manifest + per-segment block layout."""

    def trees(self, count=5):
        return [figure1_tree(tid=tid) for tid in range(count)]

    def test_round_trip_concatenates_shards(self):
        rows = list(label_corpus(self.trees()))
        buffer = io.BytesIO()
        count = store.save_labels(rows, buffer, segments=3)
        assert count == len(rows)
        data = buffer.getvalue()
        assert data.startswith(store.SEGMENTED_MAGIC)
        # Same multiset of rows; shard-major order.
        assert sorted(store.load_labels(io.BytesIO(data))) == sorted(rows)

    def test_segment_columns_partition_by_tid(self):
        rows = list(label_corpus(self.trees()))
        buffer = io.BytesIO()
        store.save_labels(rows, buffer, segments=3)
        shards = store.load_segment_columns(io.BytesIO(buffer.getvalue()))
        assert len(shards) == 3
        tid_sets = [set(shard.tid) for shard in shards]
        # Disjoint shards covering every tree (round-robin over sorted tids).
        assert tid_sets == [{0, 3}, {1, 4}, {2}]
        assert sum(len(shard) for shard in shards) == len(rows)

    def test_single_store_formats_load_as_one_segment(self):
        rows = list(label_corpus([figure1_tree()]))
        for checksum in (True, False):
            shards = store.load_segment_columns(
                io.BytesIO(saved_bytes(rows, checksum=checksum))
            )
            assert len(shards) == 1
            assert shards[0].names == [row.name for row in rows]

    def test_merged_column_loader_reads_segmented_files(self):
        rows = list(label_corpus(self.trees()))
        buffer = io.BytesIO()
        store.save_labels(rows, buffer, segments=4)
        columns = store.load_label_columns(io.BytesIO(buffer.getvalue()))
        assert len(columns) == len(rows)
        assert sorted(columns.tid) == sorted(row.tid for row in rows)

    def test_empty_segments_allowed(self):
        rows = list(label_corpus([figure1_tree()]))
        buffer = io.BytesIO()
        store.save_labels(rows, buffer, segments=3)
        shards = store.load_segment_columns(io.BytesIO(buffer.getvalue()))
        assert [len(shard) for shard in shards] == [len(rows), 0, 0]

    def test_legacy_layout_has_no_segmented_variant(self):
        rows = list(label_corpus(self.trees()))
        with pytest.raises(store.StoreError):
            store.save_labels(rows, io.BytesIO(), checksum=False, segments=2)

    def test_partition_rows_deterministic_and_whole_trees(self):
        rows = list(label_corpus(self.trees(7)))
        shards = store.partition_rows_by_tid(rows, 3)
        again = store.partition_rows_by_tid(rows, 3)
        assert shards == again
        seen = set()
        for shard in shards:
            tids = {row.tid for row in shard}
            assert not tids & seen
            seen |= tids
        assert seen == set(range(7))

    def test_partition_rejects_bad_counts(self):
        for partition in (store.partition_rows_by_tid, store.partition_columns):
            with pytest.raises(store.StoreError):
                partition([] if partition is store.partition_rows_by_tid
                          else store.LabelColumns(), 0)

    def test_truncation_and_bit_flips_detected(self):
        rows = list(label_corpus(self.trees()))
        buffer = io.BytesIO()
        store.save_labels(rows, buffer, segments=3)
        blob = buffer.getvalue()
        for cut in range(0, len(blob), 7):
            with pytest.raises(store.StoreError):
                store.load_segment_columns(io.BytesIO(blob[:cut]))
        for position in range(0, len(blob), 11):
            corrupt = bytearray(blob)
            corrupt[position] ^= 0x10
            with pytest.raises(store.StoreError):
                store.load_segment_columns(io.BytesIO(bytes(corrupt)))

    def test_trailing_garbage_detected(self):
        rows = list(label_corpus(self.trees()))
        buffer = io.BytesIO()
        store.save_labels(rows, buffer, segments=2)
        with pytest.raises(store.StoreError):
            store.load_segment_columns(io.BytesIO(buffer.getvalue() + b"\x00"))

    def test_file_helpers_and_sniffing(self, tmp_path):
        path = tmp_path / "corpus.lpdb"
        store.save_corpus(self.trees(), str(path), segments=3)
        assert store.is_compiled_corpus(str(path))
        assert store.corpus_segment_count(str(path)) == 3
        shards = store.load_corpus_segments(str(path))
        assert len(shards) == 3
        single = tmp_path / "single.lpdb"
        store.save_corpus(self.trees(), str(single))
        assert store.corpus_segment_count(str(single)) == 1
        assert len(store.load_corpus_segments(str(single))) == 1


def mmap_bytes(rows, segments=1) -> bytes:
    buffer = io.BytesIO()
    store.save_labels(rows, buffer, segments=segments, format="lpdb0004")
    return buffer.getvalue()


def rebuild_mmap_file(blob: bytes, mutate) -> bytes:
    """Reassemble an LPDB0004 file with a sidecar edited by ``mutate``
    (CRC recomputed, data region kept) — how the corruption tests craft
    *precisely* broken files that still pass the checksum."""
    import zlib

    sidecar_length, offset = store._read_varint(blob, len(store.MMAP_MAGIC))
    _crc, offset = store._read_varint(blob, offset)
    header = store._parse_mmap_sidecar(blob[offset:offset + sidecar_length])
    region = blob[store._align8(offset + sidecar_length):]
    mutate(header)
    sidecar = store._encode_mmap_sidecar(header)
    head = io.BytesIO()
    store._write_varint(head, len(sidecar))
    store._write_varint(head, zlib.crc32(sidecar))
    prefix = store.MMAP_MAGIC + head.getvalue() + sidecar
    padding = b"\x00" * (store._align8(len(prefix)) - len(prefix))
    return prefix + padding + region


class TestMmapFormat:
    """The LPDB0004 zero-copy layout: sidecar + aligned raw columns."""

    def trees(self, count=5):
        return [figure1_tree(tid=tid) for tid in range(count)]

    def test_round_trip_clustered_order(self):
        rows = list(label_corpus(self.trees()))
        data = mmap_bytes(rows, segments=2)
        assert data.startswith(store.MMAP_MAGIC)
        # Rows come back in clustered (not insertion) order.
        assert sorted(store.load_labels(io.BytesIO(data))) == sorted(rows)

    def test_segment_columns_partition_by_tid(self):
        rows = list(label_corpus(self.trees()))
        shards = store.load_segment_columns(
            io.BytesIO(mmap_bytes(rows, segments=3))
        )
        assert [set(shard.tid) for shard in shards] == [{0, 3}, {1, 4}, {2}]
        assert sum(len(shard) for shard in shards) == len(rows)

    def test_merged_column_loader(self):
        rows = list(label_corpus(self.trees()))
        columns = store.load_label_columns(
            io.BytesIO(mmap_bytes(rows, segments=4))
        )
        assert len(columns) == len(rows)
        assert sorted(columns.tid) == sorted(row.tid for row in rows)

    def test_empty_corpus_and_empty_segments(self):
        assert store.load_labels(io.BytesIO(mmap_bytes([]))) == []
        rows = list(label_corpus([figure1_tree()]))
        shards = store.load_segment_columns(
            io.BytesIO(mmap_bytes(rows, segments=3))
        )
        assert [len(shard) for shard in shards] == [len(rows), 0, 0]

    def test_resave_round_trips_from_every_older_revision(self, tmp_path):
        from repro.lpath import LPathEngine

        rows = list(label_corpus(self.trees()))
        olds = {
            "LPDB0001": saved_bytes(rows, checksum=False),
            "LPDB0002": saved_bytes(rows),
        }
        seg_buffer = io.BytesIO()
        store.save_labels(rows, seg_buffer, segments=3)
        olds["LPDB0003"] = seg_buffer.getvalue()
        oracle = LPathEngine.from_labels(rows)
        for revision, blob in olds.items():
            assert blob.startswith(revision.encode("ascii"))
            reloaded = store.load_labels(io.BytesIO(blob))
            path = tmp_path / f"from-{revision}.lpdb"
            with open(path, "wb") as handle:
                store.save_labels(reloaded, handle, segments=2,
                                  format="lpdb0004")
            assert store.corpus_format(str(path)) == "LPDB0004"
            with LPathEngine.from_store_mmap(str(path)) as engine:
                for query in ("//NP", "//V->NP", "//VP{//NP$}"):
                    assert engine.query(query) == oracle.query(query), (
                        revision, query,
                    )

    def test_file_helpers(self, tmp_path):
        path = tmp_path / "corpus.lpdb"
        store.save_corpus(self.trees(), str(path), segments=3,
                          format="lpdb0004")
        assert store.is_compiled_corpus(str(path))
        assert store.corpus_format(str(path)) == "LPDB0004"
        assert store.corpus_segment_count(str(path)) == 3
        assert len(store.load_corpus_segments(str(path))) == 3

    def test_info_reads_only_the_sidecar(self, tmp_path):
        path = tmp_path / "corpus.lpdb"
        store.save_corpus(self.trees(), str(path), segments=2,
                          format="lpdb0004")
        info = store.corpus_info(str(path), top=3)
        assert info["format"] == "LPDB0004"
        assert info["segments"] == 2
        assert info["rows"] == 125
        assert info["trees"] == 5
        assert len(info["top_names"]) == 3
        name, stats = info["top_names"][0]
        assert stats[0] >= info["top_names"][1][1][0]
        # Same numbers as a full legacy scan of the same corpus.
        legacy = tmp_path / "corpus3.lpdb"
        store.save_corpus(self.trees(), str(legacy), segments=2)
        legacy_info = store.corpus_info(str(legacy), top=3)
        for key in ("rows", "trees", "distinct_names", "top_names"):
            assert info[key] == legacy_info[key], key

    def test_checksum_false_rejected(self):
        with pytest.raises(store.StoreError, match="checksum"):
            store.save_labels([], io.BytesIO(), checksum=False,
                              format="lpdb0004")

    def test_lpdb0002_format_rejects_segments(self):
        with pytest.raises(store.StoreError, match="single-store"):
            store.save_labels([], io.BytesIO(), segments=2,
                              format="lpdb0002")

    def test_unknown_format_rejected(self):
        with pytest.raises(store.StoreError, match="unknown store format"):
            store.save_labels([], io.BytesIO(), format="lpdb9999")


class TestMmapCorruption:
    """LPDB0004 failure modes: truncation anywhere, sidecar bit flips,
    and misaligned/overrunning blob offsets all raise StoreError."""

    @pytest.fixture(scope="class")
    def blob(self):
        rows = list(label_corpus([figure1_tree(tid=t) for t in range(3)]))
        return mmap_bytes(rows, segments=2)

    def loaders(self):
        return (store.load_labels, store.load_label_columns,
                store.load_segment_columns)

    def test_every_truncation_detected(self, blob):
        # Includes every cut *mid-column* in the data region: the file
        # size no longer matches the declared region length.
        for cut in range(0, len(blob), 17):
            for loader in self.loaders():
                with pytest.raises(store.StoreError):
                    loader(io.BytesIO(blob[:cut]))

    def test_mapped_open_detects_truncation(self, blob, tmp_path):
        path = tmp_path / "cut.lpdb"
        path.write_bytes(blob[:len(blob) - len(blob) // 3])  # mid-column
        with pytest.raises(store.StoreError, match="size mismatch"):
            store.open_mapped_corpus(str(path))

    def test_trailing_garbage_detected(self, blob):
        with pytest.raises(store.StoreError, match="size mismatch"):
            store.load_labels(io.BytesIO(blob + b"\x00"))

    def test_sidecar_bit_flips_detected(self, blob):
        sidecar_length, offset = store._read_varint(
            blob, len(store.MMAP_MAGIC)
        )
        _crc, offset = store._read_varint(blob, offset)
        for position in range(offset, offset + sidecar_length, 5):
            corrupt = bytearray(blob)
            corrupt[position] ^= 0x20
            with pytest.raises(store.StoreError):
                store.load_labels(io.BytesIO(bytes(corrupt)))

    def test_crc_mismatch_is_loud(self, blob):
        sidecar_length, offset = store._read_varint(
            blob, len(store.MMAP_MAGIC)
        )
        _crc, offset = store._read_varint(blob, offset)
        corrupt = bytearray(blob)
        corrupt[offset + sidecar_length // 2] ^= 0xFF
        with pytest.raises(store.StoreError, match="sidecar is corrupt"):
            store.load_labels(io.BytesIO(bytes(corrupt)))

    def test_misaligned_blob_offset_detected(self, blob, tmp_path):
        def misalign(header):
            meta = header.segments[0]
            offset, length = meta.blobs[1]
            meta.blobs[1] = (offset + 4, length)

        broken = rebuild_mmap_file(blob, misalign)
        with pytest.raises(store.StoreError, match="misaligned"):
            store.load_labels(io.BytesIO(broken))
        path = tmp_path / "misaligned.lpdb"
        path.write_bytes(broken)
        with pytest.raises(store.StoreError, match="misaligned"):
            store.open_mapped_corpus(str(path))

    def test_blob_length_mismatch_detected(self, blob):
        def shrink(header):
            meta = header.segments[0]
            offset, length = meta.blobs[0]
            meta.blobs[0] = (offset, length - 8)

        with pytest.raises(store.StoreError, match="declares"):
            store.load_labels(io.BytesIO(rebuild_mmap_file(blob, shrink)))

    def test_blob_overrun_detected(self, blob):
        def overrun(header):
            meta = header.segments[-1]
            _offset, length = meta.blobs[-1]
            meta.blobs[-1] = (store._align8(header.data_length), length)

        with pytest.raises(store.StoreError, match="overruns"):
            store.load_labels(io.BytesIO(rebuild_mmap_file(blob, overrun)))

    def test_bad_string_reference_detected(self, blob):
        def poison(header):
            meta = header.segments[0]
            sid, row_hi, part_hi, max_part, min_d, max_d = meta.names[0]
            meta.names[0] = (len(meta.strings) + 7, row_hi, part_hi,
                             max_part, min_d, max_d)

        with pytest.raises(store.StoreError, match="string id"):
            store.load_labels(io.BytesIO(rebuild_mmap_file(blob, poison)))

    def test_foreign_byteorder_rejected(self, blob):
        import sys

        def flip(header):
            header.byteorder = "big" if sys.byteorder == "little" else "little"

        with pytest.raises(store.StoreError, match="byte order"):
            store.load_labels(io.BytesIO(rebuild_mmap_file(blob, flip)))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.lpdb"
        path.write_bytes(b"")
        with pytest.raises(store.StoreError):
            store.open_mapped_corpus(str(path))
        path.write_bytes(b"NOTLPDB!")
        with pytest.raises(store.StoreError, match="magic"):
            store.open_mapped_corpus(str(path))

    def test_mapped_corpus_close_invalidates_views(self, blob, tmp_path):
        path = tmp_path / "ok.lpdb"
        path.write_bytes(blob)
        corpus = store.open_mapped_corpus(str(path))
        segment = corpus.segments[0]
        left = segment.left
        assert left[0] >= 0
        corpus.close()
        corpus.close()  # idempotent
        with pytest.raises(ValueError):
            left[0]


class TestCorruptionDetection:
    """Truncation and bit corruption raise StoreError — never garbage."""

    @pytest.fixture(scope="class")
    def blob(self):
        return saved_bytes(list(label_corpus([figure1_tree()])))

    def test_every_truncation_detected(self, blob):
        for cut in range(len(blob)):
            for loader in (store.load_labels, store.load_label_columns):
                with pytest.raises(store.StoreError):
                    loader(io.BytesIO(blob[:cut]))

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_single_bit_flips_detected(self, blob, data):
        position = data.draw(st.integers(0, len(blob) - 1), label="byte")
        bit = data.draw(st.integers(0, 7), label="bit")
        corrupt = bytearray(blob)
        corrupt[position] ^= 1 << bit
        for loader in (store.load_labels, store.load_label_columns):
            with pytest.raises(store.StoreError):
                loader(io.BytesIO(bytes(corrupt)))

    def test_trailing_garbage_detected(self, blob):
        with pytest.raises(store.StoreError):
            store.load_labels(io.BytesIO(blob + b"\x00"))

    def test_checksum_message_is_loud(self, blob):
        corrupt = bytearray(blob)
        corrupt[-1] ^= 0xFF
        with pytest.raises(store.StoreError, match="mismatch"):
            store.load_labels(io.BytesIO(bytes(corrupt)))


class TestEngineFromColumns:
    def test_columnar_engine_matches_row_engine(self):
        trees = [figure1_tree()]
        rows = list(label_corpus(trees))
        data = saved_bytes(rows)
        from_trees = LPathEngine(trees)
        engine = LPathEngine.from_columns(store.load_label_columns(io.BytesIO(data)))
        for query in ("//NP", "//V->NP", "//VP{//NP$}", "//S[//_[@lex=saw]]", "//NP$"):
            assert engine.query(query) == from_trees.query(query), query

    def test_row_backends_unavailable(self):
        rows = list(label_corpus([figure1_tree()]))
        data = saved_bytes(rows)
        engine = LPathEngine.from_columns(store.load_label_columns(io.BytesIO(data)))
        with pytest.raises(LPathError):
            engine.query("//NP", backend="sqlite")
        with pytest.raises(LPathError):
            engine.treewalk

    def test_rejects_non_bundle_input(self):
        rows = list(label_corpus([figure1_tree()]))
        # Label rows are not a column bundle: clear LPathError, not an
        # AttributeError from deep inside ColumnStore construction.
        with pytest.raises(LPathError, match="column bundle"):
            LPathEngine.from_columns(rows[0])
        with pytest.raises(LPathError, match="column bundle"):
            LPathEngine.from_columns(rows)
        with pytest.raises(LPathError, match="at least one"):
            LPathEngine.from_columns([])

    def test_rejects_ragged_bundle(self):
        rows = list(label_corpus([figure1_tree()]))
        columns = store.load_label_columns(io.BytesIO(saved_bytes(rows)))
        columns.names.append("EXTRA")
        with pytest.raises(LPathError, match="ragged"):
            LPathEngine.from_columns(columns)

    def test_segment_list_and_reshard(self):
        trees = [figure1_tree(tid=tid) for tid in range(4)]
        rows = list(label_corpus(trees))
        expected = LPathEngine(trees).query("//NP")
        buffer = io.BytesIO()
        store.save_labels(rows, buffer, segments=3)
        shards = store.load_segment_columns(io.BytesIO(buffer.getvalue()))
        sharded = LPathEngine.from_columns(shards, workers=2)
        assert sharded.segments == 3
        assert sharded.query("//NP") == expected
        columns = store.load_label_columns(io.BytesIO(saved_bytes(rows)))
        resharded = LPathEngine.from_columns(columns, segments=2)
        assert resharded.segments == 2
        assert resharded.query("//NP") == expected
        with pytest.raises(LPathError, match="conflicts"):
            LPathEngine.from_columns(shards, segments=2)


class TestEngineFromLabels:
    def test_queries_match_tree_built_engine(self):
        trees = [figure1_tree()]
        rows = list(label_corpus(trees))
        from_trees = LPathEngine(trees)
        from_rows = LPathEngine.from_labels(rows)
        for query in ("//NP", "//V->NP", "//VP{//NP$}", "//S[//_[@lex=saw]]"):
            assert from_rows.query(query) == from_trees.query(query)

    def test_sqlite_backend_works(self):
        rows = list(label_corpus([figure1_tree()]))
        engine = LPathEngine.from_labels(rows)
        assert engine.query("//NP", backend="sqlite") == engine.query("//NP")

    def test_tree_features_unavailable(self):
        rows = list(label_corpus([figure1_tree()]))
        engine = LPathEngine.from_labels(rows)
        with pytest.raises(LPathError):
            engine.nodes("//NP")
        with pytest.raises(LPathError):
            engine.treewalk

    def test_root_alignment_still_works(self):
        """from_labels must reconstruct the root_right map for `$`."""
        rows = list(label_corpus([figure1_tree()]))
        engine = LPathEngine.from_labels(rows)
        assert engine.count("//NP$") == 1


class TestCLIIntegration:
    def test_compile_and_query(self, tmp_path):
        from repro.cli import main

        mrg = tmp_path / "c.mrg"
        lpdb = tmp_path / "c.lpdb"
        out = io.StringIO()
        assert main(["generate", "--sentences", "30", "--seed", "4",
                     "-o", str(mrg)], out=out) == 0
        assert main(["compile", str(mrg), "-o", str(lpdb)], out=out) == 0

        direct, compiled = io.StringIO(), io.StringIO()
        assert main(["query", str(mrg), "//NP", "--count"], out=direct) == 0
        assert main(["query", str(lpdb), "//NP", "--count"], out=compiled) == 0
        assert direct.getvalue() == compiled.getvalue()

    def test_compiled_corpus_rejects_tree_engines(self, tmp_path):
        from repro.cli import main

        lpdb = tmp_path / "c.lpdb"
        store.save_corpus([figure1_tree()], str(lpdb))
        assert main(["query", str(lpdb), "NP < Det", "--engine", "tgrep2"],
                    out=io.StringIO()) == 1


class TestStoreFingerprint:
    """The content-derived store identity keying the serving layer's
    result cache: equal for byte-identical copies, different whenever
    the bytes that back query answers change."""

    def _store(self, path, count=6, format="lpdb0004", segments=2):
        trees = [figure1_tree(tid=tid) for tid in range(count)]
        store.save_corpus(trees, str(path), segments=segments, format=format)
        return str(path)

    def test_shape_names_the_revision(self, tmp_path):
        fingerprint = store.store_fingerprint(
            self._store(tmp_path / "a.lpdb")
        )
        revision, size, digest = fingerprint.split("-")
        assert revision == "lpdb0004"
        assert int(size) > 0
        assert len(digest) == 8

    def test_identical_copies_share_identity(self, tmp_path):
        a = self._store(tmp_path / "a.lpdb")
        b = tmp_path / "b.lpdb"
        b.write_bytes(open(a, "rb").read())
        assert store.store_fingerprint(a) == store.store_fingerprint(str(b))

    def test_different_corpora_differ(self, tmp_path):
        a = self._store(tmp_path / "a.lpdb", count=6)
        b = self._store(tmp_path / "b.lpdb", count=7)
        assert store.store_fingerprint(a) != store.store_fingerprint(b)

    def test_same_size_edit_changes_identity(self, tmp_path):
        a = self._store(tmp_path / "a.lpdb")
        original = store.store_fingerprint(a)
        raw = bytearray(open(a, "rb").read())
        raw[len(raw) // 2] ^= 0xFF  # flip bits, keep the size
        edited = tmp_path / "edited.lpdb"
        edited.write_bytes(bytes(raw))
        assert store.store_fingerprint(str(edited)) != original

    def test_tail_edit_changes_identity(self, tmp_path):
        # The digest samples head AND tail, so appended/late corruption
        # still renames the store even past the head window.
        a = self._store(tmp_path / "a.lpdb")
        original = store.store_fingerprint(a)
        raw = bytearray(open(a, "rb").read())
        raw[-3] ^= 0xFF
        edited = tmp_path / "edited.lpdb"
        edited.write_bytes(bytes(raw))
        assert store.store_fingerprint(str(edited)) != original

    def test_older_revisions_fingerprint_too(self, tmp_path):
        fingerprint = store.store_fingerprint(
            self._store(tmp_path / "old.lpdb", format="lpdb0003")
        )
        assert fingerprint.startswith("lpdb0003-")

    def test_non_store_file_raises(self, tmp_path):
        bogus = tmp_path / "not_a_store.mrg"
        bogus.write_text("( (S (NP (DT a))))\n")
        with pytest.raises(store.StoreError):
            store.store_fingerprint(str(bogus))

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            store.store_fingerprint(str(tmp_path / "gone.lpdb"))
