"""Segments run one after another; the segment pool is gone.

A segmented engine has no thread pool of its own: every query runs its
per-segment plans sequentially in the calling thread, in segment order,
and starts no thread.  What stays is the guarantee a query daemon relies
on — many handler threads may share one segmented engine — and the last
class checks that the retired pool surface (``workers=``, ``mode=``, the
``--workers``/``--mode`` flags, the ``/stats`` ``workers`` key) is
rejected or absent rather than silently accepted.
"""

import threading

import pytest

from repro import faults, store
from repro.cli import main
from repro.corpus import generate_corpus
from repro.faults import FAULTS_ENV, FaultConfigError, parse_fault_specs
from repro.live import LiveEngineManager, open_live_engine
from repro.lpath import LPathEngine
from repro.plan.cache import PlanCache
from repro.serve import QueryService
from repro.tree import figure1_tree
from repro.xpath import XPathEngine


def trees(count=4):
    return [figure1_tree(tid=tid) for tid in range(count)]


@pytest.fixture(scope="module")
def three_segment_store(tmp_path_factory) -> str:
    path = tmp_path_factory.mktemp("segments") / "corpus.lpdb"
    store.save_corpus(
        list(generate_corpus("wsj", sentences=60, seed=5)), str(path),
        segments=3, format="lpdb0004",
    )
    return str(path)


class Recorder:
    """Stands in for one compiled segment part and logs every run as
    ``(segment position, thread ident)`` before delegating."""

    def __init__(self, index, part, log):
        self._index = index
        self._part = part
        self._log = log

    def _run(self, method):
        self._log.append((self._index, threading.get_ident()))
        return getattr(self._part, method)()

    def rows(self):
        return self._run("rows")

    def count(self):
        return self._run("count")

    def aggregate(self):
        return self._run("aggregate")

    def __getattr__(self, name):
        return getattr(self._part, name)


def started_threads(monkeypatch) -> list:
    """Every thread started from now on (a thread pool's workers too:
    they are ``threading.Thread`` objects)."""
    started = []
    original = threading.Thread.start

    def start(thread):
        started.append(thread.name)
        return original(thread)

    monkeypatch.setattr(threading.Thread, "start", start)
    return started


class TestSequentialExecution:
    @pytest.mark.parametrize("engine_class", [LPathEngine, XPathEngine])
    @pytest.mark.parametrize("method,agg", [
        ("rows", None), ("count", None), ("aggregate", "count_by_name"),
    ])
    def test_parts_run_in_segment_order_in_calling_thread(
        self, engine_class, method, agg
    ):
        monolithic = engine_class(trees(6))
        engine = engine_class(trees(6), segments=3)
        compiled = engine.compile("//NP", agg=agg)
        log = []
        compiled.parts = [
            Recorder(index, part, log)
            for index, part in enumerate(compiled.parts)
        ]
        expected = getattr(monolithic.compile("//NP", agg=agg), method)()
        assert getattr(compiled, method)() == expected
        caller = threading.get_ident()
        assert log == [(index, caller) for index in range(3)]

    @pytest.mark.parametrize("opener", [
        "lpath", "xpath", "mmap", "live",
    ])
    def test_segmented_queries_start_no_thread(
        self, opener, three_segment_store, tmp_path, monkeypatch
    ):
        if opener == "lpath":
            engine = LPathEngine(trees(6), segments=3)
        elif opener == "xpath":
            engine = XPathEngine(trees(6), segments=3)
        elif opener == "mmap":
            engine = LPathEngine.from_store_mmap(three_segment_store)
        else:
            path = str(tmp_path / "live.lpdb")
            store.save_corpus(trees(6), path, segments=3, format="lpdb0005")
            engine = LPathEngine.open(path)
        started = started_threads(monkeypatch)
        with engine:
            assert engine.segments == 3
            for query in ("//NP", "//S//NP", "//VP/V"):
                engine.query(query)
                engine.count(query)
                engine.aggregate(query, "count_by_depth")
        assert started == []

    @pytest.mark.parametrize("segments", [2, 3, 5])
    def test_segment_slow_stalls_each_segment_once(
        self, segments, monkeypatch
    ):
        engine = LPathEngine(trees(6), segments=segments)
        expected = (list(engine.query("//NP")), engine.count("//NP"))
        monkeypatch.setattr(faults, "SEGMENT_SLOW_SECONDS", 0.0)
        monkeypatch.setenv(FAULTS_ENV, f"segment_slow:1.0:{segments}")
        before = faults.fault_counts().get("segment_slow", 0)
        rows = list(engine.query("//NP"))
        count = engine.count("//NP")
        passes = faults.fault_counts()["segment_slow"] - before
        assert (rows, count) == expected
        assert passes == 2 * segments


class TestSharedSegmentedEngine:
    QUERIES = ("//NP", "//S//NP", "//VP/VB", "//NP[not(//JJ)]", "//PP=>SBAR")

    def test_concurrent_queries_match_sequential(self, three_segment_store):
        with LPathEngine.from_store_mmap(three_segment_store) as engine:
            expected = {
                query: (list(engine.query(query)), engine.count(query))
                for query in self.QUERIES
            }
        assert any(rows for rows, _count in expected.values())
        callers = 8
        barrier = threading.Barrier(callers)
        answers = []
        failures = []

        def caller(offset):
            # Each thread starts at a different query, so first compiles
            # and first runs of every plan race each other.
            order = self.QUERIES[offset:] + self.QUERIES[:offset]
            try:
                barrier.wait(timeout=10)
                for query in order:
                    answers.append((
                        query, list(shared.query(query)), shared.count(query)
                    ))
            except BaseException as error:  # reported below
                failures.append(error)

        with LPathEngine.from_store_mmap(three_segment_store) as shared:
            assert shared.segments == 3
            threads = [
                threading.Thread(
                    target=caller, args=(index % len(self.QUERIES),)
                )
                for index in range(callers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        assert failures == []
        assert len(answers) == callers * len(self.QUERIES)
        for query, rows, count in answers:
            assert (rows, count) == expected[query], query


class TestRetiredProcessSurface:
    def test_worker_kill_is_not_a_fault_point(self):
        with pytest.raises(FaultConfigError, match="unknown fault point"):
            parse_fault_specs("worker_kill:0.5:1")

    @pytest.mark.parametrize("engine_class", [LPathEngine, XPathEngine])
    def test_engines_take_no_mode(self, engine_class):
        with pytest.raises(TypeError, match="mode"):
            engine_class(trees(), segments=2, mode="process")

    @pytest.mark.parametrize("engine_class", [LPathEngine, XPathEngine])
    def test_engines_take_no_workers(self, engine_class):
        with pytest.raises(TypeError, match="workers"):
            engine_class(trees(), segments=2, workers=2)

    def test_from_store_mmap_takes_no_mode(self, three_segment_store):
        with pytest.raises(TypeError, match="mode"):
            LPathEngine.from_store_mmap(three_segment_store, mode="process")

    def test_from_store_mmap_takes_no_workers(self, three_segment_store):
        with pytest.raises(TypeError, match="workers"):
            LPathEngine.from_store_mmap(three_segment_store, workers=2)

    def test_query_service_takes_no_workers(self, three_segment_store):
        with pytest.raises(TypeError, match="workers"):
            QueryService(three_segment_store, workers=2)

    @pytest.mark.parametrize("factory", [
        LPathEngine.open,
        XPathEngine.from_store_mmap,
        open_live_engine,
        LiveEngineManager,
    ], ids=lambda factory: factory.__qualname__)
    def test_factories_take_no_workers(self, factory, tmp_path):
        # Arguments bind before anything is opened: the path need not exist.
        with pytest.raises(TypeError, match="workers"):
            factory(str(tmp_path / "absent"), workers=2)

    def test_from_segments_takes_no_workers(self):
        with pytest.raises(TypeError, match="workers"):
            LPathEngine.from_segments([], PlanCache(8), workers=2)

    def test_store_stats_carry_no_workers_key(self, three_segment_store):
        service = QueryService(three_segment_store)
        try:
            (described,) = service.stats()["stores"]
        finally:
            service.close(drain_timeout=0.0)
        assert described["segments"] == 3
        assert "workers" not in described

    @pytest.mark.parametrize("argv", [
        ["query", "corpus.mrg", "//NP", "--mode", "process"],
        ["serve", "corpus.lpdb", "--mode", "thread"],
    ])
    def test_cli_has_no_mode_flag(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2
        assert "unrecognized arguments: --mode" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["query", "corpus.mrg", "//NP", "--workers", "2"],
        ["serve", "corpus.lpdb", "--workers", "2"],
    ])
    def test_cli_has_no_workers_flag(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ")
        assert "unrecognized arguments: --workers 2" in err

    def test_retired_retry_knob_is_ignored(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROCESS_RETRIES", "lots")
        with LPathEngine(trees(), segments=2) as engine:
            assert engine.count("//NP") == 4 * LPathEngine(
                [figure1_tree()]).count("//NP")
