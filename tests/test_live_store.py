"""Unit coverage for the LPDB0005 live-corpus subsystem: durable
appends, torn-tail recovery, the writer lock, restartable compaction,
atomic file saves, and the crash-oriented fault points at probability
1.0 (every call fires — the subprocess kill matrix lives in
``tests/integration/test_crash_matrix.py``)."""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings

from repro import live, store
from repro.corpus import generate_corpus
from repro.labeling.lpath_scheme import label_columns, label_corpus
from repro.live import LiveCorpus, LiveEngineManager
from repro.store import StoreError
from repro.tree.bracket import iter_trees
from tests.strategies import corpora

TEXT = "(S (NP (N dog)) (VP (V ran)))"
MORE = "(S (NP (N cat)) (VP (V sat) (NP (N mat))))"


def rows_for(text: str, start_tid: int = 0):
    return list(label_corpus(iter_trees(text, start_tid=start_tid)))


def columns_for(text: str, start_tid: int = 0) -> tuple:
    return label_columns(iter_trees(text, start_tid=start_tid))


def create_live(path: str, text: str, segments: int = 1) -> None:
    store.save_corpus(iter_trees(text), path, segments=segments,
                      format="lpdb0005")


@pytest.fixture()
def corpus_dir(tmp_path) -> str:
    path = str(tmp_path / "live.lpdb")
    create_live(path, TEXT * 3, segments=2)
    return path


def sorted_rows(rows):
    return sorted(tuple(row) for row in rows)


class TestCreateAndOpen:
    def test_round_trip_through_store_api(self, tmp_path):
        path = str(tmp_path / "corpus.lpdb")
        trees = list(iter_trees(TEXT * 2))
        count = store.save_corpus(trees, path, format="lpdb0005")
        assert count == len(rows_for(TEXT * 2))
        assert os.path.isdir(path)
        assert store.corpus_format(path) == "LPDB0005"
        assert store.is_compiled_corpus(path)
        assert sorted_rows(store.load_corpus_labels(path)) == sorted_rows(
            rows_for(TEXT * 2)
        )

    def test_empty_corpus_round_trips(self, tmp_path):
        path = str(tmp_path / "empty.lpdb")
        create_live(path, "")
        assert store.load_corpus_labels(path) == []
        engine = live.open_live_engine(path)
        try:
            assert engine.query("//NP") == []
        finally:
            engine.close()

    def test_refuses_foreign_directory(self, tmp_path):
        (tmp_path / "keep.txt").write_text("not yours")
        with pytest.raises(StoreError, match="non-empty directory"):
            create_live(str(tmp_path), TEXT)

    def test_recreate_over_live_corpus_bumps_generation(self, corpus_dir):
        create_live(corpus_dir, MORE)
        info = store.corpus_info(corpus_dir)
        assert info["generation"] == 2
        assert sorted_rows(store.load_corpus_labels(corpus_dir)) == (
            sorted_rows(rows_for(MORE))
        )

    def test_open_missing_manifest(self, tmp_path):
        os.makedirs(tmp_path / "bare")
        with pytest.raises(StoreError, match="MANIFEST"):
            LiveCorpus(str(tmp_path / "bare"))

    def test_fingerprint_copy_stable(self, corpus_dir, tmp_path):
        import shutil

        clone = str(tmp_path / "clone.lpdb")
        shutil.copytree(corpus_dir, clone)
        assert store.store_fingerprint(clone) == store.store_fingerprint(
            corpus_dir
        )


class TestAppend:
    def test_append_is_visible_after_reopen(self, corpus_dir):
        with LiveCorpus(corpus_dir) as corpus:
            ack = corpus.append_trees(MORE)
        assert ack["trees"] == 1
        info = store.corpus_info(corpus_dir)
        assert info["delta_rows"] == ack["rows"]
        assert info["wal_records"] == 1
        total = sorted_rows(store.load_corpus_labels(corpus_dir))
        assert len(total) == info["rows"]

    def test_append_changes_fingerprint(self, corpus_dir):
        before = store.store_fingerprint(corpus_dir)
        with LiveCorpus(corpus_dir) as corpus:
            corpus.append_trees(MORE)
            assert corpus.fingerprint != before
        assert store.store_fingerprint(corpus_dir) != before

    def test_append_assigns_fresh_tids(self, corpus_dir):
        with LiveCorpus(corpus_dir) as corpus:
            first = corpus.append_trees(MORE)
            second = corpus.append_trees(TEXT)
        assert second["first_tid"] == first["next_tid"]

    def test_append_columns_rejects_overlapping_tids(self, corpus_dir):
        with LiveCorpus(corpus_dir) as corpus:
            with pytest.raises(StoreError, match="next_tid"):
                corpus.append_columns(columns_for(TEXT))  # tids restart at 0

    def test_append_rejects_empty(self, corpus_dir):
        with LiveCorpus(corpus_dir) as corpus:
            with pytest.raises(StoreError, match="no trees"):
                corpus.append_trees("   ")
            with pytest.raises(StoreError, match="at least one row"):
                corpus.append_columns(label_columns(()))

    def test_read_only_open_cannot_append(self, corpus_dir):
        with LiveCorpus(corpus_dir, writable=False) as corpus:
            with pytest.raises(StoreError, match="read-only"):
                corpus.append_trees(MORE)

    def test_read_only_open_takes_no_lock(self, corpus_dir):
        with LiveCorpus(corpus_dir, writable=False):
            assert not os.path.exists(os.path.join(corpus_dir, "LOCK"))


class TestWriterLock:
    def test_second_writer_gets_clean_error(self, corpus_dir):
        with LiveCorpus(corpus_dir):
            with pytest.raises(StoreError, match="locked by pid"):
                LiveCorpus(corpus_dir)

    def test_stale_lock_reclaimed(self, corpus_dir):
        # A pid that cannot exist: the kernel's pid_max ceiling is 2^22.
        with open(os.path.join(corpus_dir, "LOCK"), "w") as handle:
            handle.write("4999999\n")
        with LiveCorpus(corpus_dir) as corpus:
            corpus.append_trees(MORE)

    def test_garbage_lock_reclaimed(self, corpus_dir):
        with open(os.path.join(corpus_dir, "LOCK"), "w") as handle:
            handle.write("not-a-pid")
        with LiveCorpus(corpus_dir) as corpus:
            corpus.append_trees(MORE)

    def test_lock_released_on_close(self, corpus_dir):
        LiveCorpus(corpus_dir).close()
        assert not os.path.exists(os.path.join(corpus_dir, "LOCK"))


class TestRecovery:
    def append_then_tear(self, corpus_dir, torn_bytes: bytes) -> int:
        """Append one acknowledged batch, then fake a crash mid-write by
        hand-appending garbage to the WAL."""
        with LiveCorpus(corpus_dir) as corpus:
            acked = corpus.append_trees(MORE)["rows"]
            wal_path = corpus.wal_path
        with open(wal_path, "ab") as handle:
            handle.write(torn_bytes)
        return acked

    @pytest.mark.parametrize(
        "tail",
        [
            b"\x03",                          # torn frame header
            b"\xff\xff\xff\x7f\x00\x00\x00\x00",  # length beyond EOF
            b"\x04\x00\x00\x00\x99\x99\x99\x99junk",  # bad CRC
        ],
        ids=["torn-header", "overlong", "bad-crc"],
    )
    def test_torn_tail_truncated_acked_rows_survive(self, corpus_dir, tail):
        acked = self.append_then_tear(corpus_dir, tail)
        with LiveCorpus(corpus_dir) as corpus:
            assert len(corpus.snapshot()[1][0]) == acked
            assert "truncated" in corpus.manifest.last_recovery
        # Recovery is level-triggered: a second clean open keeps the
        # recovery note but does not re-recover.
        info = store.corpus_info(corpus_dir)
        assert info["wal_torn_bytes"] == 0

    def test_read_only_open_ignores_torn_tail(self, corpus_dir):
        acked = self.append_then_tear(corpus_dir, b"\x01\x02\x03")
        with LiveCorpus(corpus_dir, writable=False) as corpus:
            assert len(corpus.snapshot()[1][0]) == acked
        info = store.corpus_info(corpus_dir)
        assert info["wal_torn_bytes"] == 3  # still on disk

    def test_orphan_files_collected(self, corpus_dir):
        for orphan in ("seg-99999999.lpdb", "wal-99999999.log",
                       "tmp-manifest-9-123"):
            with open(os.path.join(corpus_dir, orphan), "wb") as handle:
                handle.write(b"garbage")
        with LiveCorpus(corpus_dir) as corpus:
            recovery = corpus.manifest.last_recovery
        assert "seg-99999999.lpdb" in recovery
        assert not os.path.exists(
            os.path.join(corpus_dir, "wal-99999999.log")
        )

    def test_foreign_files_left_alone(self, corpus_dir):
        foreign = os.path.join(corpus_dir, "NOTES.txt")
        with open(foreign, "w") as handle:
            handle.write("operator breadcrumbs")
        with LiveCorpus(corpus_dir):
            pass
        assert os.path.exists(foreign)

    def test_recovery_bumps_generation(self, corpus_dir):
        before = store.corpus_info(corpus_dir)["generation"]
        self.append_then_tear(corpus_dir, b"\xde\xad")
        LiveCorpus(corpus_dir).close()
        assert store.corpus_info(corpus_dir)["generation"] == before + 1


class TestWalDecodes:
    """A writable open decodes each WAL record once (recovery's scan is
    the one the delta loads from), and a compaction decodes none to
    count the frames its rotated WAL holds."""

    @pytest.fixture()
    def decodes(self, monkeypatch) -> list:
        calls, real = [], live._decode_into

        def decode_into(payload, columns):
            calls.append(len(payload))
            return real(payload, columns)

        monkeypatch.setattr(live, "_decode_into", decode_into)
        return calls

    @pytest.mark.parametrize("records", [0, 1, 4])
    def test_open_decodes_each_record_once(self, corpus_dir, decodes,
                                           records):
        with LiveCorpus(corpus_dir) as corpus:
            for _ in range(records):
                corpus.append_trees(MORE)
        decodes.clear()
        with LiveCorpus(corpus_dir) as corpus:
            assert len(decodes) == records
            assert corpus.wal_records == records

    def test_compaction_recount_decodes_nothing(self, corpus_dir, decodes):
        with LiveCorpus(corpus_dir) as corpus:
            corpus.append_trees(MORE)
            corpus.append_trees(TEXT)
            decodes.clear()
            assert corpus.compact()["compacted_rows"]
            assert decodes == []
            assert corpus.wal_records == 0


def decode_record(payload: bytes) -> tuple:
    columns = label_columns(())
    live._decode_into(payload, columns)
    return columns


class TestWalRecordCodec:
    """One WAL record payload: a row count, an interned string table and
    varint rows.  Its frame CRC catches torn writes (``TestRecovery``);
    a payload that passes the CRC but is malformed still raises
    StoreError rather than yielding garbage rows."""

    @pytest.fixture(scope="class")
    def payload(self):
        return live._encode_payload(columns_for(MORE))[0]

    def test_round_trip(self):
        columns = columns_for(TEXT + MORE)
        payload, count = live._encode_payload(columns)
        assert count == len(rows_for(TEXT + MORE))
        assert decode_record(payload) == columns

    @given(corpora(max_trees=3, max_depth=4))
    @settings(max_examples=30, deadline=None)
    def test_round_trip_random(self, trees):
        columns = label_columns(trees)
        assert decode_record(live._encode_payload(columns)[0]) == columns

    def test_interning_compresses(self):
        rows = rows_for(MORE * 20)
        payload, _ = live._encode_payload(columns_for(MORE * 20))
        # Far smaller than a naive text dump of the rows.
        assert len(payload) < len(repr(rows)) / 4

    def test_every_truncation_detected(self, payload):
        for cut in range(len(payload)):
            with pytest.raises(StoreError):
                decode_record(payload[:cut])

    def test_trailing_garbage_detected(self, payload):
        with pytest.raises(StoreError, match="trailing"):
            decode_record(payload + b"\x00")

    @pytest.mark.parametrize("name, value", [(5, 0), (0, 0), (1, 2)])
    def test_bad_string_reference_detected(self, name, value):
        import io

        record = io.BytesIO()
        # One row, a one-entry string table, then a name index past its
        # end, a name index of "no value", or a value index past its end.
        for field in (1, 1, 1, 65, 0, 0, 1, 0, 1, 0, name, value):
            store._write_varint(record, field)
        with pytest.raises(StoreError, match="out of range"):
            decode_record(record.getvalue())


#: The sha256 of the WAL after :func:`_pinned_appends`.  WAL records are
#: varints and UTF-8 (no native-endian field), so the pin holds on any
#: host.
GOLDEN_WAL_SHA256 = (
    "1a27ac5b55e48cde73ce586c193c1dd74789aeb4a6e87eb66d90e266f631dc2b"
)


def _pinned_appends(corpus) -> None:
    """A fixed append sequence: the paper's Figure 1, generated SWB trees
    (words become ``@lex``), and a tree with non-ASCII words."""
    from repro.tree import figure1_tree
    from repro.tree.bracket import format_tree

    corpus.append_trees(format_tree(figure1_tree(), wrap=True))
    corpus.append_trees("\n".join(
        format_tree(tree, wrap=True) for tree in generate_corpus("swb", 12, 5)
    ))
    corpus.append_trees("(S (NP (N café)) (VP (V sah) (NP (N Müller))))")


def test_wal_bytes_are_pinned(tmp_path):
    import hashlib

    path = str(tmp_path / "pinned")
    store.save_corpus(generate_corpus("wsj", 5, seed=7), path,
                      format="lpdb0005")
    with LiveCorpus(path) as corpus:
        _pinned_appends(corpus)
        assert corpus.wal_records == 3
        wal = corpus.wal_path
    with open(wal, "rb") as handle:
        assert hashlib.sha256(handle.read()).hexdigest() == GOLDEN_WAL_SHA256


class TestFaultPoints:
    def test_fsync_fail_rolls_back(self, corpus_dir, monkeypatch):
        with LiveCorpus(corpus_dir) as corpus:
            size_before = corpus._wal_size
            monkeypatch.setenv("REPRO_FAULTS", "fsync_fail:1.0:1")
            with pytest.raises(StoreError, match="NOT acknowledged"):
                corpus.append_trees(MORE)
            monkeypatch.delenv("REPRO_FAULTS")
            # Nothing acknowledged, file rolled back, store usable.
            assert corpus._wal_size == size_before
            assert os.path.getsize(corpus.wal_path) == size_before
            corpus.append_trees(MORE)

    def test_disk_full_rolls_back(self, corpus_dir, monkeypatch):
        with LiveCorpus(corpus_dir) as corpus:
            monkeypatch.setenv("REPRO_FAULTS", "disk_full:1.0:1")
            with pytest.raises(StoreError, match="NOT acknowledged"):
                corpus.append_trees(MORE)
            monkeypatch.delenv("REPRO_FAULTS")
            assert corpus.verify_on_disk()[0]

    def test_torn_write_poisons_until_reopen(self, corpus_dir, monkeypatch):
        with LiveCorpus(corpus_dir) as corpus:
            monkeypatch.setenv("REPRO_FAULTS", "torn_write:1.0:1")
            with pytest.raises(StoreError, match="torn write"):
                corpus.append_trees(MORE)
            monkeypatch.delenv("REPRO_FAULTS")
            with pytest.raises(StoreError, match="poisoned"):
                corpus.append_trees(MORE)
            ok, reason = corpus.verify_on_disk()
            assert not ok and "poisoned" in reason
        # Reopen runs recovery: the torn tail goes, appends work again.
        with LiveCorpus(corpus_dir) as corpus:
            assert "truncated" in corpus.manifest.last_recovery
            corpus.append_trees(MORE)


class TestCompaction:
    def test_compaction_preserves_rows_and_results(self, corpus_dir):
        with LiveCorpus(corpus_dir) as corpus:
            corpus.append_trees(MORE)
            corpus.append_trees(TEXT)
        before = sorted_rows(store.load_corpus_labels(corpus_dir))
        with LiveCorpus(corpus_dir) as corpus:
            status = corpus.compact()
        assert status["compacted_rows"] > 0
        assert store.corpus_info(corpus_dir)["delta_rows"] == 0
        assert sorted_rows(store.load_corpus_labels(corpus_dir)) == before

    def test_compact_empty_delta_is_noop(self, corpus_dir):
        with LiveCorpus(corpus_dir) as corpus:
            generation = corpus.generation
            status = corpus.compact()
        assert status["compacted_rows"] == 0
        assert store.corpus_info(corpus_dir)["generation"] == generation

    def test_base_segment_count_stays_logarithmic(self, corpus_dir):
        """Each compaction's file absorbs its newest neighbours while
        they hold fewer than twice its rows: after k equal compactions
        the fixture's (sharded, so never absorbed) file sits beside
        popcount(k) compacted ones — at most 2 + floor(log2 k) files."""
        manager = LiveEngineManager(corpus_dir)
        try:
            base = len(manager.engine.query("//N"))
            for compactions in range(1, 17):
                manager.append_trees(MORE)
                manager.compact()
                files = manager.status()["base_segments"]
                assert files == 1 + bin(compactions).count("1")
                assert files <= 2 + compactions.bit_length() - 1
                assert len(manager.engine.query("//N")) == base + 2 * compactions
            names = set(manager.corpus.base_segment_names())
        finally:
            manager.close()
        assert names == {
            entry for entry in os.listdir(corpus_dir) if entry.startswith("seg-")
        }
        expected = rows_for(TEXT * 3) + [
            row for tid in range(3, 19) for row in rows_for(MORE, start_tid=tid)
        ]
        assert sorted_rows(store.load_corpus_labels(corpus_dir)) == sorted_rows(
            expected
        )

    def test_merges_never_rebuild_built_rows(self, corpus_dir, monkeypatch):
        """Tier merges and compactions concatenate stores already built:
        the one sort per append is the new batch's, and no compaction
        sorts label columns again."""
        from repro.columnar import store as column_store

        sorted_batches = []
        real_build = column_store._build_segment

        def build_segment(tid, *columns):
            sorted_batches.append(len(tid))
            return real_build(tid, *columns)

        monkeypatch.setattr(column_store, "_build_segment", build_segment)
        batch = len(rows_for(MORE))
        manager = LiveEngineManager(corpus_dir)
        try:
            absorbed = 0
            for appended in range(1, 13):
                sorted_batches.clear()
                manager.append_trees(MORE)
                assert sorted_batches == [batch]
                if appended % 3 == 0:
                    status = manager.compact()
                    absorbed += len(status["absorbed"])
                    assert sorted_batches == [batch]
            assert absorbed >= 2
        finally:
            manager.close()

    def test_append_during_compaction_survives_rotation(self, corpus_dir):
        """Rows appended between the compaction snapshot and cut-over
        must be carried into the rotated WAL."""
        with LiveCorpus(corpus_dir) as corpus:
            corpus.append_trees(MORE)

            # Interleave an append the way a concurrent request would,
            # between the snapshot and the cut-over.
            real_barrier = live._barrier
            appended = {}

            def barrier_with_append(name, compactor=False):
                if name == "compact_segment" and not appended:
                    appended["ack"] = corpus.append_trees(TEXT)
                real_barrier(name, compactor)

            live._barrier = barrier_with_append
            try:
                corpus.compact()
            finally:
                live._barrier = real_barrier
            assert len(corpus.snapshot()[1][0]) == appended["ack"]["rows"]
            assert corpus.wal_records == 1
        # The carried rows survive a full reopen (they are in the WAL).
        with LiveCorpus(corpus_dir) as corpus:
            assert len(corpus.snapshot()[1][0]) == appended["ack"]["rows"]


class TestLiveEngine:
    def test_engine_matches_monolithic_resave(self, tmp_path, corpus_dir):
        with LiveCorpus(corpus_dir) as corpus:
            corpus.append_trees(MORE)
        mono = str(tmp_path / "mono.lpdb")
        store.save_corpus(iter_trees(TEXT * 3 + MORE), mono)
        from repro.lpath import LPathEngine

        live_engine = LPathEngine.open(corpus_dir)
        mono_engine = LPathEngine.open(mono)
        try:
            for query in ("//NP", "//VP//NP", "//S//N"):
                assert sorted(live_engine.query(query)) == sorted(
                    mono_engine.query(query)
                )
        finally:
            live_engine.close()
            mono_engine.close()

    def test_delta_segment_tagged_in_explain(self, corpus_dir):
        with LiveCorpus(corpus_dir) as corpus:
            corpus.append_trees(MORE)
        engine = live.open_live_engine(corpus_dir)
        try:
            assert "delta" in engine.explain("//NP")
        finally:
            engine.close()

    def test_manager_read_your_writes(self, corpus_dir):
        manager = LiveEngineManager(corpus_dir)
        try:
            before = len(manager.engine.query("//N"))
            manager.append_trees(MORE)
            assert len(manager.engine.query("//N")) == before + 2
            manager.compact()
            assert len(manager.engine.query("//N")) == before + 2
            ok, reason = manager.verify()
            assert ok, reason
        finally:
            manager.close()

    def test_manager_auto_compactor(self, corpus_dir):
        import time

        manager = LiveEngineManager(
            corpus_dir, compact_rows=1, compact_interval=0.02
        )
        try:
            manager.append_trees(MORE)
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if manager.status()["compactions"] >= 1:
                    break
                time.sleep(0.02)
            status = manager.status()
            assert status["compactions"] >= 1
            assert status["delta_rows"] == 0
        finally:
            manager.close()


def segment_stores(engine):
    return [
        segment.compiler.column_store
        for segment in engine._compiler.segments
    ]


class TestEngineSwap:
    """What an append/compaction swap may and may not rebuild."""

    QUERIES = ("//N", "//VP//NP", "//NP/N", "//_[@lex=cat]")

    def answers(self, engine):
        return [engine.query(query) for query in self.QUERIES]

    def fresh_answers(self, corpus_dir):
        engine = live.open_live_engine(corpus_dir)
        try:
            return self.answers(engine)
        finally:
            engine.close()

    def test_swapped_engine_equals_fresh_open(self, corpus_dir):
        """The same texts before and after every swap, so what runs
        after it is the carried (and rebased) plan."""
        manager = LiveEngineManager(corpus_dir)
        try:
            assert self.answers(manager.engine) == self.fresh_answers(
                corpus_dir
            )
            for step in ("append", "append", "compact", "append"):
                if step == "compact":
                    manager.compact()
                else:
                    manager.append_trees(MORE)
                assert self.answers(manager.engine) == self.fresh_answers(
                    corpus_dir
                ), step
            status = manager.status()
            assert status["plans_carried"] >= 4 * len(self.QUERIES)
            assert status["plans_rebased"] >= 4 * len(self.QUERIES)
        finally:
            manager.close()

    def test_old_snapshot_outlives_append_and_compaction(self, corpus_dir):
        manager = LiveEngineManager(corpus_dir)
        try:
            snapshot = manager.engine
            before = self.answers(snapshot)
            pending = iter(snapshot.compile("//N").rows())
            manager.append_trees(MORE)
            manager.compact()
            assert [tuple(row) for row in pending] == before[0]
            assert self.answers(snapshot) == before       # cached plans
            assert len(snapshot.query("//S//N")) == 3     # a new compile
            assert len(manager.engine.query("//S//N")) == 5
        finally:
            manager.close()

    def test_unchanged_segments_are_shared_not_rebuilt(
        self, corpus_dir, monkeypatch
    ):
        from repro.columnar.store import ColumnStore

        builds = []
        real_build = ColumnStore._build_by_value

        def spy(store):
            builds.append(store)
            return real_build(store)

        monkeypatch.setattr(ColumnStore, "_build_by_value", spy)
        manager = LiveEngineManager(corpus_dir)
        try:
            base = segment_stores(manager.engine)
            assert len(base) == 2  # the fixture's two shards, no delta
            manager.engine.query("//_[@lex=dog]")
            engines = [manager.engine]
            for _ in range(5):
                manager.append_trees(MORE)
                manager.engine.query("//_[@lex=dog]")
                engines.append(manager.engine)
            for older, newer in zip(engines, engines[1:]):
                old, new = segment_stores(older), segment_stores(newer)
                assert all(a is b for a, b in zip(base, new))
                # Tiers merge from the young end only: whatever the
                # merge left alone is the same object in both engines.
                shared = [store for store in new if any(
                    store is other for other in old
                )]
                assert shared == new[:len(shared)]
                assert len(shared) >= len(base)
            status = manager.status()
            # 5 equal batches: binary counter 1, 10, 11, 100, 101.
            assert status["delta_segments"] == 2
            assert status["segments_reused"] >= 5 * len(base)
            base_builds = [
                store for store in builds
                if any(store is shard for shard in base)
            ]
            assert len(base_builds) == len(base)  # once per base shard

            manager.compact()
            after = segment_stores(manager.engine)
            assert all(a is b for a, b in zip(base, after))
            assert len(after) == len(base) + 1    # the compacted file
            assert manager.status()["delta_segments"] == 0
        finally:
            manager.close()

    def test_rebase_binds_only_the_new_segment(self, corpus_dir, monkeypatch):
        """A carried plan is moved onto the next snapshot by binding its
        retained skeleton to the segments that are new — no lowering, no
        skeleton build, and nothing for the segments both lists hold (a
        shard the statistics pruned stays pruned without a second look)."""
        import repro.columnar
        from repro.lpath.compiler import PlanCompiler
        from repro.plan import segmented

        manager = LiveEngineManager(corpus_dir)
        try:
            before = self.answers(manager.engine)
            plans = {
                query: manager.engine.compile(query) for query in self.QUERIES
            }
            assert plans["//_[@lex=cat]"].bound == []   # no base shard has it
            calls = {"skeleton": 0, "lower": 0, "bind": []}
            real_skeleton = repro.columnar.PlanSkeleton
            real_lower = segmented.lower_and_optimize
            real_bind = PlanCompiler.compile_physical

            def skeleton(*args, **kwargs):
                calls["skeleton"] += 1
                return real_skeleton(*args, **kwargs)

            def lower(*args, **kwargs):
                calls["lower"] += 1
                return real_lower(*args, **kwargs)

            def bind(self, *args, **kwargs):
                calls["bind"].append(self)
                return real_bind(self, *args, **kwargs)

            monkeypatch.setattr(repro.columnar, "PlanSkeleton", skeleton)
            monkeypatch.setattr(segmented, "lower_and_optimize", lower)
            monkeypatch.setattr(PlanCompiler, "compile_physical", bind)
            manager.append_trees(MORE)
            after = self.answers(manager.engine)
            monkeypatch.undo()

            segments = manager.engine._compiler.segments
            assert [segment.kind for segment in segments] == [
                "base", "base", "delta",
            ]
            # The one skeleton built belongs to the plan no base shard
            # could match: its first bind ever is the new tier's.
            assert (calls["skeleton"], calls["lower"]) == (1, 0)
            # One bind per carried plan, each against the new tier only.
            assert calls["bind"] == [segments[-1].compiler] * len(self.QUERIES)
            for query, old in plans.items():
                new = manager.engine.compile(query)
                assert new is not old and new.lowered is old.lowered
                assert new.parts[:2] == old.parts
                assert new.bound[-1] == (2, new.parts[2])
            assert [len(rows) for rows in after] == [
                len(rows) + added
                for rows, added in zip(before, (2, 1, 2, 1))
            ]
            assert "pruned 2 of 3" in manager.engine.explain("//_[@lex=cat]")
        finally:
            manager.close()

    def test_tier_count_stays_logarithmic(self, corpus_dir):
        manager = LiveEngineManager(corpus_dir)
        try:
            for appended in range(1, 33):
                manager.append_trees(MORE)
                tiers = manager.status()["delta_segments"]
                assert tiers == bin(appended).count("1")
            assert "2 base + 1 delta" in manager.engine.explain("//N")
        finally:
            manager.close()

    def test_readers_race_swaps(self, corpus_dir):
        """Readers share segments and carried plans with the thread that
        swaps engines under them: every answer must be some snapshot's
        answer, and a reader never goes back in time."""
        import sys
        import threading

        appends, readers = 24, 4
        manager = LiveEngineManager(corpus_dir)
        base = len(manager.engine.query("//N"))
        valid = {base + 2 * done for done in range(appends + 1)}
        stop = threading.Event()
        failures: list = []

        def read() -> None:
            seen = base
            try:
                while not stop.is_set():
                    for query in ("//N", "//NP/N", "//_[@lex=cat]"):
                        count = len(manager.engine.query(query))
                        if query == "//N":
                            assert count in valid and count >= seen, count
                            seen = count
            except Exception as error:  # noqa: BLE001 - reported below
                failures.append(error)

        def write() -> None:
            try:
                for done in range(appends):
                    manager.append_trees(MORE)
                    if done % 8 == 7:
                        manager.compact()
            except Exception as error:  # noqa: BLE001 - reported below
                failures.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=read) for _ in range(readers)]
            writer = threading.Thread(target=write)
            for thread in threads + [writer]:
                thread.start()
            writer.join(timeout=60.0)
            stop.set()
            for thread in threads:
                thread.join(timeout=60.0)
            assert not writer.is_alive()
            assert not any(thread.is_alive() for thread in threads)
            assert failures == []
            assert len(manager.engine.query("//N")) == base + 2 * appends
        finally:
            sys.setswitchinterval(interval)
            stop.set()
            manager.close()

    def test_retired_engine_over_absorbed_file_answers_in_grace(
        self, corpus_dir, monkeypatch
    ):
        manager = LiveEngineManager(corpus_dir)
        try:
            manager.append_trees(MORE)
            manager.compact()
            (first,) = manager.corpus.base_segment_names()[1:]
            mapping = manager._state._files[first][0]
            manager.append_trees(MORE)
            snapshot = manager.engine
            expected = self.answers(snapshot)
            assert manager.compact()["absorbed"] == [first]
            assert not os.path.exists(os.path.join(corpus_dir, first))
            assert manager.status()["base_segments"] == 2
            # Inside the grace period the retired engine still reads the
            # absorbed file's pages: new texts compile against it too.
            assert self.answers(snapshot) == expected
            assert len(snapshot.query("//S//N")) == len(expected[0])
            assert mapping._mapping is not None
            monkeypatch.setattr(live, "ENGINE_GRACE_SECONDS", 0.0)
            manager.status()
            assert mapping._mapping is None
            assert manager._state._retired == []
            assert self.answers(manager.engine) == expected
        finally:
            manager.close()

    def test_idle_manager_reaps_retired_engines(
        self, corpus_dir, monkeypatch
    ):
        manager = LiveEngineManager(corpus_dir)
        try:
            manager.append_trees(MORE)
            retired = manager._retired[0][1]
            assert manager.status()["retired_engines"] == 1
            monkeypatch.setattr(live, "ENGINE_GRACE_SECONDS", 0.0)
            assert manager.status()["retired_engines"] == 0
            assert retired._compiler is None  # closed, not just dropped
        finally:
            manager.close()

    def test_compactor_tick_reaps_retired_engines(
        self, corpus_dir, monkeypatch
    ):
        import time

        monkeypatch.setattr(live, "ENGINE_GRACE_SECONDS", 0.0)
        manager = LiveEngineManager(
            corpus_dir, compact_rows=10**9, compact_interval=0.02
        )
        try:
            manager.append_trees(MORE)
            deadline = time.monotonic() + 5.0
            while manager._retired and time.monotonic() < deadline:
                time.sleep(0.02)
            assert manager._retired == []
        finally:
            manager.close()


def exploding_save(stores, handle):
    """A store writer that dies mid-write, after producing bytes."""
    handle.write(b"partial garbage")
    raise OSError("disk died mid-save")


def directory_bytes(path: str) -> dict:
    return {
        name: open(os.path.join(path, name), "rb").read()
        for name in sorted(os.listdir(path))
    }


class TestAtomicSaves:
    def test_failed_save_preserves_previous_store(self, tmp_path,
                                                  monkeypatch):
        path = str(tmp_path / "corpus.lpdb")
        trees = list(iter_trees(TEXT * 2))
        store.save_corpus(trees, path, format="lpdb0004")
        good = open(path, "rb").read()

        # Make the re-save die mid-write, after bytes have been
        # produced: the temp file must be discarded and the original
        # store stay byte-identical.  save_corpus writes through
        # save_mapped_stores.
        monkeypatch.setattr(store, "save_mapped_stores", exploding_save)
        with pytest.raises(OSError, match="disk died"):
            store.save_corpus(trees, path, format="lpdb0004")
        monkeypatch.undo()
        assert open(path, "rb").read() == good
        assert not [
            name for name in os.listdir(tmp_path)
            if name.startswith(".corpus.lpdb.tmp-")
        ]

    def test_failed_live_save_preserves_previous_store(self, tmp_path,
                                                       monkeypatch):
        path = str(tmp_path / "live.lpdb")
        trees = list(iter_trees(TEXT * 2))
        store.save_corpus(trees, path, format="lpdb0005")
        good = directory_bytes(path)

        # The re-created base file dies mid-write: it is removed, and the
        # installed generation (manifest, base file, WAL) is untouched.
        monkeypatch.setattr(live, "save_mapped_stores", exploding_save)
        with pytest.raises(OSError, match="disk died"):
            store.save_corpus(trees, path, format="lpdb0005")
        monkeypatch.undo()
        assert directory_bytes(path) == good

    def test_atomic_write_fsyncs_and_replaces(self, tmp_path):
        path = str(tmp_path / "out.bin")
        with store.atomic_write(path) as handle:
            handle.write(b"payload")
        assert open(path, "rb").read() == b"payload"


class TestStoreInfoSurface:
    def test_info_reports_live_fields(self, corpus_dir):
        with LiveCorpus(corpus_dir) as corpus:
            corpus.append_trees(MORE)
        info = store.corpus_info(corpus_dir)
        assert info["format"] == "LPDB0005"
        assert info["generation"] == 1
        assert info["base_rows"] > 0
        assert info["delta_rows"] > 0
        assert info["wal_records"] == 1
        assert info["rows"] == info["base_rows"] + info["delta_rows"]
        assert info["last_recovery"] is None

    def test_segment_count_includes_delta(self, corpus_dir):
        base = store.corpus_info(corpus_dir)["segments"]
        with LiveCorpus(corpus_dir) as corpus:
            corpus.append_trees(MORE)
        assert store.corpus_info(corpus_dir)["segments"] == base + 1

    def test_info_matches_generated_corpus(self, tmp_path):
        trees = list(generate_corpus("wsj", sentences=20, seed=5))
        path = str(tmp_path / "gen.lpdb")
        store.save_corpus(trees, path, format="lpdb0005", segments=2)
        mono = str(tmp_path / "mono.lpdb")
        store.save_corpus(trees, mono, format="lpdb0004", segments=2)
        live_info = store.corpus_info(path)
        mono_info = store.corpus_info(mono)
        assert live_info["rows"] == mono_info["rows"]
        assert live_info["trees"] == mono_info["trees"]
        assert live_info["distinct_names"] == mono_info["distinct_names"]
        assert live_info["top_names"] == mono_info["top_names"]
