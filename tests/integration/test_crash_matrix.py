"""Kill -9 crash matrix for the live-corpus durability barriers.

Each case spawns a sacrificial subprocess with ``REPRO_CRASH_POINT``
aimed at one barrier, lets the kernel SIGKILL it mid-operation, then
reopens the store in this process and checks the durability contract:

* **appends** — every acknowledged batch survives; at most one
  unacknowledged batch may additionally survive (at-least-once for
  records that were fully framed before the crash); the store reopens
  cleanly and queries correctly.
* **compaction** — the exact row multiset is preserved no matter which
  barrier the compactor died at, and a fresh compaction completes
  afterwards.

These are real processes and real ``kill -9``, not monkeypatched
exceptions — the deterministic-fault versions live in
``tests/test_live_store.py``.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys

import pytest

import repro
from repro import store
from repro.faults import CRASH_ENV, FAULTS_ENV
from repro.labeling.lpath_scheme import label_corpus
from repro.live import LiveCorpus
from repro.lpath import LPathEngine
from repro.tree.bracket import iter_trees

TEXT = "(S (NP (N dog)) (VP (V ran) (NP (N home))))"
ROWS_PER_TREE = len(list(label_corpus(iter_trees(TEXT))))

SRC_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

APPENDER = """\
import sys
from repro.live import LiveCorpus

path, batches, text = sys.argv[1], int(sys.argv[2]), sys.argv[3]
corpus = LiveCorpus(path)
for _ in range(batches):
    ack = corpus.append_trees(text)
    print("ACKED", ack["rows"], flush=True)
corpus.close()
print("CLEAN-EXIT", flush=True)
"""

COMPACTOR = """\
import sys
from repro.live import LiveCorpus

corpus = LiveCorpus(sys.argv[1])
status = corpus.compact()
corpus.close()
print("COMPACTED", status["compacted_rows"], flush=True)
"""

APPEND_BARRIERS = ("wal_write", "wal_fsync")
COMPACT_BARRIERS = (
    "compact_segment",
    "compact_wal",
    "manifest_temp",
    "manifest_replace",
    "manifest_dirsync",
    "compact_gc",
)


def run_child(script: str, argv: list, extra_env: dict) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_ROOT + os.pathsep + env.get("PYTHONPATH", "")
    env.pop(CRASH_ENV, None)
    env.pop(FAULTS_ENV, None)
    env.update(extra_env)
    return subprocess.run(
        [sys.executable, "-c", script, *argv],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )


def sorted_rows(rows):
    return sorted(tuple(row) for row in rows)


def assert_store_healthy(path: str) -> None:
    """The store must reopen, self-verify, and answer queries that agree
    with a bulk load of its labels."""
    with LiveCorpus(path) as corpus:
        ok, reason = corpus.verify_on_disk()
        assert ok, reason
    rows = store.load_corpus_labels(path)
    engine = LPathEngine.open(path)
    try:
        assert len(engine.query("//N")) == sum(
            1 for row in rows if row.name == "N"
        )
    finally:
        engine.close()


@pytest.fixture()
def live_path(tmp_path) -> str:
    path = str(tmp_path / "live.lpdb")
    store.save_corpus(iter_trees(TEXT * 4), path, segments=2,
                      format="lpdb0005")
    return path


class TestAppendKillMatrix:
    BATCHES = 4

    @pytest.mark.parametrize("barrier", APPEND_BARRIERS)
    @pytest.mark.parametrize("occurrence", [1, 2])
    def test_no_acknowledged_loss(self, live_path, barrier, occurrence):
        result = run_child(
            APPENDER,
            [live_path, str(self.BATCHES), TEXT],
            {CRASH_ENV: f"{barrier}:{occurrence}"},
        )
        assert result.returncode == -signal.SIGKILL, result.stderr
        assert "CLEAN-EXIT" not in result.stdout
        acked = result.stdout.count("ACKED")
        assert acked == occurrence - 1  # died inside batch `occurrence`

        info = store.corpus_info(live_path)
        recovered = info["delta_rows"] // ROWS_PER_TREE
        assert info["delta_rows"] % ROWS_PER_TREE == 0
        # Contract: acked <= recovered <= attempted.  `wal_write` dies
        # before fsync (frame may or may not be durable); `wal_fsync`
        # dies after fsync but before the ack, so the in-flight batch is
        # always durable yet never acknowledged.
        assert acked <= recovered <= acked + 1
        if barrier == "wal_fsync":
            assert recovered == acked + 1
        assert_store_healthy(live_path)

    def test_clean_run_has_no_kill(self, live_path):
        result = run_child(APPENDER, [live_path, "3", TEXT], {})
        assert result.returncode == 0, result.stderr
        assert "CLEAN-EXIT" in result.stdout
        assert store.corpus_info(live_path)["delta_rows"] == (
            3 * ROWS_PER_TREE
        )
        assert_store_healthy(live_path)

    def test_stale_lock_from_killed_writer_is_reclaimed(self, live_path):
        result = run_child(
            APPENDER, [live_path, "2", TEXT], {CRASH_ENV: "wal_fsync:2"}
        )
        assert result.returncode == -signal.SIGKILL
        assert os.path.exists(os.path.join(live_path, "LOCK"))
        with LiveCorpus(live_path) as corpus:  # reclaims the dead pid
            corpus.append_trees(TEXT)


class TestCompactionKillMatrix:
    @pytest.fixture()
    def loaded_path(self, live_path) -> str:
        with LiveCorpus(live_path) as corpus:
            for _ in range(3):
                corpus.append_trees(TEXT * 2)
        return live_path

    @pytest.mark.parametrize("barrier", COMPACT_BARRIERS)
    def test_rows_survive_kill_at_barrier(self, loaded_path, barrier):
        before = sorted_rows(store.load_corpus_labels(loaded_path))
        result = run_child(COMPACTOR, [loaded_path], {CRASH_ENV: barrier})
        assert result.returncode == -signal.SIGKILL, result.stderr
        assert "COMPACTED" not in result.stdout

        assert sorted_rows(store.load_corpus_labels(loaded_path)) == before
        assert_store_healthy(loaded_path)
        # The interrupted compaction must be restartable to completion.
        with LiveCorpus(loaded_path) as corpus:
            corpus.compact()
        assert sorted_rows(store.load_corpus_labels(loaded_path)) == before
        assert store.corpus_info(loaded_path)["delta_rows"] == 0

    @pytest.fixture()
    def absorbing_path(self, live_path) -> str:
        """Base files (sharded seed, 2 trees, 1 tree) plus one tree of
        delta: the next compaction absorbs both small files."""
        with LiveCorpus(live_path) as corpus:
            for trees in (2, 1):  # 2 trees is not < 2 x 1: both files stay
                corpus.append_trees(TEXT * trees)
                corpus.compact()
            corpus.append_trees(TEXT)
            assert len(corpus.base_segment_names()) == 3
        return live_path

    @pytest.mark.parametrize("barrier", COMPACT_BARRIERS)
    def test_absorbing_compaction_survives_kill(self, absorbing_path, barrier):
        path = absorbing_path
        before = sorted_rows(store.load_corpus_labels(path))
        with LiveCorpus(path, writable=False) as corpus:
            seed, *absorbed = corpus.base_segment_names()
        result = run_child(COMPACTOR, [path], {CRASH_ENV: barrier})
        assert result.returncode == -signal.SIGKILL, result.stderr

        rows = sorted_rows(store.load_corpus_labels(path))
        assert rows == before
        assert len(set(rows)) == len(rows)  # no row referenced twice
        with LiveCorpus(path) as corpus:  # recovery collects the orphans
            names = corpus.base_segment_names()
            assert set(os.listdir(path)) == {
                "MANIFEST", "LOCK", corpus.manifest.wal, *names,
            }
            installed = barrier in (
                "manifest_replace", "manifest_dirsync", "compact_gc",
            )
            assert len(names) == (2 if installed else 3)
            if installed and barrier != "compact_gc":
                for name in absorbed:
                    assert f"removed orphan {name}" in (
                        corpus.manifest.last_recovery
                    )
            corpus.compact()
        assert sorted_rows(store.load_corpus_labels(path)) == before
        assert_store_healthy(path)

    def test_kill_then_append_then_compact(self, loaded_path):
        """Interleave a crash, more appends, and a successful compaction
        — the paranoid end-to-end sequence."""
        before = sorted_rows(store.load_corpus_labels(loaded_path))
        result = run_child(
            COMPACTOR, [loaded_path], {CRASH_ENV: "manifest_replace"}
        )
        assert result.returncode == -signal.SIGKILL
        with LiveCorpus(loaded_path) as corpus:
            ack = corpus.append_trees(TEXT)
            corpus.compact()
        after = sorted_rows(store.load_corpus_labels(loaded_path))
        assert len(after) == len(before) + ack["rows"]
        assert_store_healthy(loaded_path)

    def test_probabilistic_compactor_kill(self, loaded_path):
        """`compactor_kill` at probability 1.0 fires at the first
        compaction barrier; the store survives exactly like the
        deterministic matrix."""
        before = sorted_rows(store.load_corpus_labels(loaded_path))
        result = run_child(
            COMPACTOR, [loaded_path], {FAULTS_ENV: "compactor_kill:1.0:7"}
        )
        assert result.returncode == -signal.SIGKILL, result.stderr
        assert sorted_rows(store.load_corpus_labels(loaded_path)) == before
        assert_store_healthy(loaded_path)
