"""Tests for compiled-corpus storage and engines opened without trees."""

import hashlib
import io
import os
import sys
import tempfile
from operator import attrgetter

import pytest
import hypothesis.strategies as st
from hypothesis import given, settings

from repro import store
from repro.columnar import ColumnStore
from repro.labeling import label_corpus
from repro.lpath import LPathEngine, LPathError
from repro.oracle import SQLiteBackend
from repro.tree import figure1_tree
from tests.strategies import corpora


def round_trip(rows):
    """Save and reload; rows come back in clustered order, so compare
    as sorted lists."""
    buffer = io.BytesIO()
    store.save_mapped_stores([ColumnStore.from_rows(rows)], buffer)
    buffer.seek(0)
    return sorted(store.load_labels(buffer))


class TestFormat:
    def test_round_trip_figure1(self):
        rows = list(label_corpus([figure1_tree()]))
        assert round_trip(rows) == sorted(rows)

    @given(corpora(max_trees=3, max_depth=4))
    @settings(max_examples=30, deadline=None)
    def test_round_trip_random(self, trees):
        rows = list(label_corpus(trees))
        assert round_trip(rows) == sorted(rows)

    def test_empty_corpus(self):
        assert round_trip([]) == []

    def test_magic_checked(self):
        with pytest.raises(store.StoreError):
            store.load_labels(io.BytesIO(b"NOTLPDB!rest"))

    def test_truncation_detected(self):
        data = mmap_bytes([figure1_tree()])
        with pytest.raises(store.StoreError):
            store.load_labels(io.BytesIO(data[:-3]))

    def test_trailing_garbage_detected(self):
        data = mmap_bytes([figure1_tree()])
        with pytest.raises(store.StoreError):
            store.load_labels(io.BytesIO(data + b"\x00"))

    def test_file_helpers(self, tmp_path):
        path = tmp_path / "corpus.lpdb"
        count = store.save_corpus([figure1_tree()], str(path))
        assert count == 25
        assert store.is_compiled_corpus(str(path))
        assert store.corpus_format(str(path)) == "LPDB0004"
        assert not store.is_compiled_corpus(str(tmp_path / "missing"))
        rows = store.load_corpus_labels(str(path))
        assert len(rows) == 25


class TestPartitionByTid:
    def trees(self, count=5):
        return [figure1_tree(tid=tid) for tid in range(count)]

    def test_partition_deterministic_and_whole_trees(self):
        trees = self.trees(7)
        shards = store.partition_by_tid(trees, 3, attrgetter("tid"))
        again = store.partition_by_tid(trees, 3, attrgetter("tid"))
        assert shards == again
        seen = set()
        for shard in shards:
            tids = {tree.tid for tree in shard}
            assert not tids & seen
            seen |= tids
        assert seen == set(range(7))

    def test_partition_rejects_bad_counts(self):
        with pytest.raises(store.StoreError):
            store.partition_by_tid([], 0, attrgetter("tid"))


class TestSniffing:
    """``corpus_format`` is the one sniffer: anything that is neither an
    LPDB0004 file nor an LPDB0005 directory raises a plain StoreError,
    and ``is_compiled_corpus`` answers False for it."""

    def make_empty(self, path):
        path.write_bytes(b"")

    def make_short(self, path):
        path.write_bytes(b"LPDB")

    def make_treebank(self, path):
        path.write_text("(S (NP (N dog)) (VP (V ran)))\n")

    def make_future_revision(self, path):
        path.write_bytes(b"LPDB0006" + bytes(16))

    def make_bare_directory(self, path):
        path.mkdir()

    def make_bad_manifest(self, path):
        from repro.live import MANIFEST_NAME

        path.mkdir()
        (path / MANIFEST_NAME).write_bytes(store.MMAP_MAGIC + bytes(16))

    @pytest.mark.parametrize("kind", [
        "empty", "short", "treebank", "future_revision", "bare_directory",
        "bad_manifest",
    ])
    def test_non_stores_rejected(self, tmp_path, kind):
        path = tmp_path / "input"
        getattr(self, f"make_{kind}")(path)
        with pytest.raises(store.StoreError) as error:
            store.corpus_format(str(path))
        assert not isinstance(error.value, store.RetiredRevisionError)
        assert not store.is_compiled_corpus(str(path))


def mmap_bytes(trees, segments=1) -> bytes:
    buffer = io.BytesIO()
    store.save_mapped_stores(store.tree_stores(trees, segments), buffer)
    return buffer.getvalue()


def mapped_segments(tmp_path, blob):
    """``(n, tids)`` per segment of an LPDB0004 blob, opened zero-copy."""
    path = tmp_path / "segments.lpdb"
    path.write_bytes(blob)
    with store.open_mapped_corpus(str(path)) as corpus:
        return [
            (segment.n, set(segment.tid)) for segment in corpus.segments
        ]


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
        data = mmap_bytes(self.trees(), segments=2)
        assert data.startswith(store.MMAP_MAGIC)
        # Rows come back in clustered (not insertion) order.
        assert sorted(store.load_labels(io.BytesIO(data))) == sorted(rows)

    def test_segment_columns_partition_by_tid(self, tmp_path):
        rows = list(label_corpus(self.trees()))
        shards = mapped_segments(tmp_path, mmap_bytes(self.trees(), segments=3))
        assert [tids for _, tids in shards] == [{0, 3}, {1, 4}, {2}]
        assert sum(n for n, _ in shards) == len(rows)

    def test_empty_corpus_and_empty_segments(self, tmp_path):
        assert store.load_labels(io.BytesIO(mmap_bytes([]))) == []
        rows = list(label_corpus([figure1_tree()]))
        shards = mapped_segments(
            tmp_path, mmap_bytes([figure1_tree()], segments=3)
        )
        assert [n for n, _ in shards] == [len(rows), 0, 0]

    def test_file_helpers(self, tmp_path):
        path = tmp_path / "corpus.lpdb"
        store.save_corpus(self.trees(), str(path), segments=3,
                          format="lpdb0004")
        assert store.is_compiled_corpus(str(path))
        assert store.corpus_format(str(path)) == "LPDB0004"
        assert store.corpus_info(str(path))["segments"] == 3
        with store.open_mapped_corpus(str(path)) as corpus:
            assert len(corpus.segments) == 3

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
        # Same numbers as one store rebuilt from the file's rows.
        scan = store.InfoFold()
        rows = store.load_corpus_labels(str(path))
        scan.add_segments([ColumnStore.from_rows(rows).segment.meta])
        scanned = scan.summary(str(path), 0, "LPDB0004", 3)
        for key in ("rows", "trees", "distinct_names", "top_names"):
            assert info[key] == scanned[key], key

    @given(corpora(max_trees=4, max_depth=4), st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_live_fold_matches_one_file_fold(self, trees, segments):
        # A live corpus folds its base files' sidecars and the segment
        # its WAL delta builds; on every name it reports the numbers of
        # one LPDB0004 file holding the same trees.
        from repro.labeling.lpath_scheme import label_columns
        from repro.live import LiveCorpus

        half = len(trees) // 2
        with tempfile.TemporaryDirectory() as scratch:
            single = os.path.join(scratch, "single.lpdb")
            directory = os.path.join(scratch, "live")
            store.save_corpus(trees, single)
            store.save_corpus(trees[:half], directory, segments=segments,
                              format="lpdb0005")
            with LiveCorpus(directory) as corpus:
                corpus.append_columns(label_columns(trees[half:]))
            one = store.corpus_info(single, top=1000)
            live = store.corpus_info(directory, top=1000)
        assert live["delta_rows"] == len(list(label_corpus(trees[half:])))
        for key in ("rows", "trees", "distinct_names", "top_names"):
            assert live[key] == one[key], key

    @pytest.mark.parametrize("format", ["lpdb9999", "lpdb0002", "lpdb0003"])
    def test_unknown_format_rejected(self, tmp_path, format):
        path = tmp_path / "corpus.lpdb"
        with pytest.raises(store.StoreError, match="unknown store format"):
            store.save_corpus([figure1_tree()], str(path), format=format)
        assert not path.exists()


class TestLabelScheme:
    """An LPDB0004 file records which labeling filled its columns."""

    @pytest.fixture()
    def start_end_path(self, tmp_path):
        from repro.xpath.engine import xpath_stores

        path = str(tmp_path / "start-end.lpdb")
        with open(path, "wb") as stream:
            store.save_mapped_stores(
                xpath_stores([figure1_tree(tid=tid) for tid in range(3)], 2),
                stream,
            )
        return path

    def test_sqlite_rows_refuse_a_start_end_file(self, start_end_path):
        # The SQLite reference reads Definition 4.1 rows; start/end
        # columns read as such answer 0 for every immediate-* axis.
        with pytest.raises(store.StoreError, match="start-end"):
            store.load_corpus_labels(start_end_path)

    def test_info_reports_the_scheme(self, start_end_path, tmp_path):
        path = str(tmp_path / "lpath.lpdb")
        store.save_corpus([figure1_tree()], path)
        assert store.corpus_info(path)["scheme"] == "lpath-4.1"
        assert store.corpus_info(start_end_path)["scheme"] == "start-end"

    def test_open_reads_the_scheme_back(self, start_end_path, tmp_path):
        path = str(tmp_path / "lpath.lpdb")
        store.save_corpus([figure1_tree()], path)
        for want, opened in ((store.LPATH_LABELS, path),
                             (store.START_END_LABELS, start_end_path)):
            assert store._read_sidecar(opened).scheme == want
            with store.open_mapped_corpus(opened) as corpus:
                assert corpus.scheme == want

    @pytest.mark.skipif(sys.byteorder != "little",
                        reason="the flag byte of a little-endian file")
    def test_only_a_start_end_file_sets_a_flag_bit(self, start_end_path):
        # A reader that knows only the byte order takes any nonzero first
        # byte for big-endian, so it refuses the tagged file.
        def first_sidecar_byte(blob):
            _length, offset = store._read_varint(blob, len(store.MMAP_MAGIC))
            _crc, offset = store._read_varint(blob, offset)
            return blob[offset]

        with open(start_end_path, "rb") as handle:
            assert first_sidecar_byte(handle.read()) == 0x02
        assert first_sidecar_byte(mmap_bytes([figure1_tree()])) == 0x00

    def test_unknown_flag_bit_rejected(self, monkeypatch):
        blob = mmap_bytes([figure1_tree()])
        encode = store._encode_mmap_sidecar
        monkeypatch.setattr(
            store, "_encode_mmap_sidecar",
            lambda header: b"\x04" + encode(header)[1:],
        )
        with pytest.raises(store.StoreError, match="flags"):
            store.load_labels(io.BytesIO(rebuild_mmap_file(blob, lambda _: None)))

    def test_one_file_holds_one_scheme(self):
        from repro.xpath.engine import xpath_stores

        trees = [figure1_tree()]
        mixed = [*store.tree_stores(trees, 1), *xpath_stores(trees, 1)]
        with pytest.raises(store.StoreError, match="label schemes"):
            store.save_mapped_stores(mixed, io.BytesIO())


class TestMmapCorruption:
    """LPDB0004 failure modes: truncation anywhere, sidecar bit flips,
    and misaligned/overrunning blob offsets all raise StoreError."""

    @pytest.fixture(scope="class")
    def blob(self):
        return mmap_bytes([figure1_tree(tid=t) for t in range(3)], segments=2)

    def test_every_truncation_detected(self, blob):
        # Includes every cut *mid-column* in the data region: the file
        # size no longer matches the declared region length.
        for cut in range(0, len(blob), 17):
            with pytest.raises(store.StoreError):
                store.load_labels(io.BytesIO(blob[:cut]))

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


#: The sha1 of the LPDB0004 bytes and the store fingerprint of
#: ``generate_corpus("wsj", 200, seed=7)`` saved at 1, 2 and 3 segments.
#: The layout is native-endian, so the pins hold on little-endian hosts.
GOLDEN_LPDB0004 = {
    1: ("13849daa5f1f4f15014f3885627bab3e78445201",
        "lpdb0004-556944-ae5ffaca"),
    2: ("c02db7c299b8764faa5f2a85702c3cfe5aa6a70a",
        "lpdb0004-557776-66e9daf1"),
    3: ("f1a3654d451cc6a0913ac7234791619839c69334",
        "lpdb0004-558552-39a51460"),
}


@pytest.mark.skipif(sys.byteorder != "little",
                    reason="LPDB0004 pins are little-endian bytes")
@pytest.mark.parametrize("segments", sorted(GOLDEN_LPDB0004))
def test_lpdb0004_writer_bytes_are_pinned(tmp_path, segments):
    from repro.corpus.generator import generate_corpus

    path = tmp_path / "golden.lpdb"
    store.save_corpus(generate_corpus("wsj", 200, seed=7), str(path),
                      segments=segments)
    digest, fingerprint = GOLDEN_LPDB0004[segments]
    assert hashlib.sha1(path.read_bytes()).hexdigest() == digest
    assert store.store_fingerprint(str(path)) == fingerprint


@pytest.mark.parametrize("segments", sorted(GOLDEN_LPDB0004))
def test_live_base_file_is_the_lpdb0004_file(tmp_path, segments):
    """One writer serves both formats: a live directory's base segment
    file is, byte for byte, the LPDB0004 file of the same trees."""
    from repro.corpus.generator import generate_corpus

    trees = generate_corpus("wsj", 200, seed=7)
    single, directory = tmp_path / "single.lpdb", tmp_path / "live"
    store.save_corpus(trees, str(single), segments=segments)
    store.save_corpus(trees, str(directory), segments=segments,
                      format="lpdb0005")
    (base,) = directory.glob("seg-*.lpdb")
    assert base.read_bytes() == single.read_bytes()


def write_file(path, stores):
    """The LPDB0004 file writer: atomic, through save_mapped_stores."""
    with store.atomic_write(str(path)) as handle:
        store.save_mapped_stores(stores, handle)


def write_live(path, stores):
    """The live writer: stores become one base seg-*.lpdb file."""
    from repro.live import create_live_stores

    create_live_stores(str(path), stores, 10_000)


class TestOneSegmentAtATime:
    """Both writers consume their stores lazily: a segment's buffers are
    written to an anonymous spill beside the destination and dropped
    before the next store is built, and a failure mid-stream leaves the
    previous store and no stray file."""

    @pytest.fixture(scope="class")
    def shards(self):
        from operator import attrgetter

        from repro.corpus.generator import generate_corpus

        trees = generate_corpus("wsj", 90, seed=5)
        return store.partition_by_tid(trees, 3, attrgetter("tid"))

    @pytest.mark.parametrize("write", [write_file, write_live])
    def test_segment_buffers_are_freed_before_the_next_store(
        self, tmp_path, monkeypatch, shards, write,
    ):
        import tempfile
        import weakref
        from array import array

        from repro.columnar import ColumnStore
        from repro.labeling import label_columns

        spill_dirs = []
        make_spill = tempfile.TemporaryFile

        def spy(*args, **kwargs):
            spill_dirs.append(kwargs.get("dir"))
            return make_spill(*args, **kwargs)

        monkeypatch.setattr(tempfile, "TemporaryFile", spy)
        refs, requested = [], []

        def build(shard):
            built = ColumnStore(*label_columns(shard))
            refs[:] = [weakref.ref(buffer) for buffer in built.segment.buffers
                       if isinstance(buffer, array)]
            return built

        def stores():
            for shard in shards:
                held = [ref for ref in refs if ref() is not None]
                assert not held, (
                    f"store {len(requested)} requested while {len(held)} "
                    "buffers of the previous segment are still alive"
                )
                requested.append(len(refs))
                yield build(shard)  # no frame keeps the store

        path = tmp_path / "out"
        with store.collector_paused():  # freed by refcount, not by gc
            write(path, stores())
        assert requested == [0, 15, 15]  # the 17 blobs less 2 bytearrays
        assert spill_dirs == [str(tmp_path if write is write_file else path)]
        engine = LPathEngine.open(str(path))
        reference = LPathEngine([tree for shard in shards for tree in shard])
        assert engine.count("//NP//NN") == reference.count("//NP//NN") > 0

    @pytest.mark.parametrize("write", [write_file, write_live])
    def test_a_failing_store_leaves_the_old_store_and_no_file(
        self, tmp_path, shards, write,
    ):
        from repro.columnar import ColumnStore
        from repro.labeling import label_columns
        from repro.live import LOCK_NAME

        path = tmp_path / "out"
        write(path, (ColumnStore(*label_columns(shard)) for shard in shards))
        listing = sorted(tmp_path.rglob("*"))
        before = {entry: entry.read_bytes() for entry in listing
                  if entry.is_file()}
        seen = []

        def stores():
            yield ColumnStore(*label_columns(shards[0]))
            # The first segment is spilled by now, and the spill has no
            # name in the destination's directory.
            seen.extend(sorted(tmp_path.rglob("*")))
            raise OSError("shard build died")

        with pytest.raises(OSError, match="shard build died"):
            write(path, stores())
        assert [entry for entry in seen if entry not in listing] == (
            [tmp_path / f".out.tmp-{os.getpid()}"] if write is write_file
            else [path / LOCK_NAME, path / "seg-00000002.lpdb"]
        )
        assert sorted(tmp_path.rglob("*")) == listing
        assert {entry: entry.read_bytes() for entry in before} == before  # re-read


class TestRetiredRevisions:
    """Files of the retired row-encoded revisions fail loudly everywhere:
    a StoreError that names the revision and says to re-compile."""

    @pytest.fixture(params=sorted(store.RETIRED_REVISIONS))
    def legacy(self, request, tmp_path):
        # Hand-written: the magic, then bytes shaped like a varint
        # length and CRC.
        path = tmp_path / "old.lpdb"
        path.write_bytes(request.param + b"\x05\x00\x00\x00\x00\x00")
        return str(path), request.param.decode("ascii")

    def check(self, error, revision):
        message = str(error.value)
        assert revision in message
        assert "repro compile" in message

    def test_open(self, legacy):
        path, revision = legacy
        with pytest.raises(store.StoreError) as error:
            LPathEngine.open(path)
        self.check(error, revision)

    def test_sniff(self, legacy):
        path, revision = legacy
        with pytest.raises(store.StoreError) as error:
            store.corpus_format(path)
        self.check(error, revision)
        with pytest.raises(store.StoreError) as error:
            store.is_compiled_corpus(path)
        self.check(error, revision)

    def test_info(self, legacy):
        path, revision = legacy
        with pytest.raises(store.StoreError) as error:
            store.corpus_info(path)
        self.check(error, revision)

    def test_fingerprint(self, legacy):
        path, revision = legacy
        with pytest.raises(store.StoreError) as error:
            store.store_fingerprint(path)
        self.check(error, revision)

    @pytest.mark.parametrize("command", [["store", "info"], ["query"]],
                             ids=["store-info", "query"])
    def test_cli(self, legacy, capsys, command):
        from repro.cli import main

        path, revision = legacy
        argv = command + [path] + (["//NP"] if command == ["query"] else [])
        assert main(argv, out=io.StringIO()) == 1
        err = capsys.readouterr().err
        assert revision in err and "repro compile" in err


class TestEngineWithoutTrees:
    """An engine over a compiled file (``from_store_mmap``) holds no
    trees: it answers from the stored labels alone."""

    @pytest.fixture()
    def engine(self, tmp_path):
        path = str(tmp_path / "figure1.lpdb")
        store.save_corpus([figure1_tree()], path)
        with LPathEngine.from_store_mmap(path) as engine:
            yield engine

    def test_queries_match_tree_built_engine(self, engine):
        from_trees = LPathEngine([figure1_tree()])
        for query in ("//NP", "//V->NP", "//VP{//NP$}", "//S[//_[@lex=saw]]"):
            assert engine.query(query) == from_trees.query(query)

    def test_sqlite_backend_works(self, engine):
        rows = list(label_corpus([figure1_tree()]))
        assert SQLiteBackend(rows).query("//NP") == engine.query("//NP")

    def test_tree_features_unavailable(self, engine):
        with pytest.raises(LPathError):
            engine.nodes("//NP")

    def test_root_alignment_still_works(self, engine):
        """The stored right-edge bitmap answers `$` with no tree."""
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

    def test_non_store_file_raises(self, tmp_path):
        bogus = tmp_path / "not_a_store.mrg"
        bogus.write_text("( (S (NP (DT a))))\n")
        with pytest.raises(store.StoreError):
            store.store_fingerprint(str(bogus))

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            store.store_fingerprint(str(tmp_path / "gone.lpdb"))
