"""The segment thread pool: when it exists, what it builds, how it ends.

:class:`~repro.plan.segmented.SegmentPool` is the only fan-out there is.
These tests pin its contract directly (lazy, locked creation; a size
capped by the segment count; a shutdown that never resurrects) and the
way a compiled :class:`~repro.plan.segmented.SegmentedQuery` hands its
parts to it.  The last class checks that the retired process-pool
surface is rejected rather than silently accepted.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.cli import main
from repro.faults import FaultConfigError, parse_fault_specs
from repro.lpath import LPathEngine
from repro.plan import SegmentPool
from repro.tree import figure1_tree, parse_tree
from repro.xpath import XPathEngine


def trees(count=4):
    return [figure1_tree(tid=tid) for tid in range(count)]


class RecordingExecutor(ThreadPoolExecutor):
    """A thread pool that remembers how many items each ``map`` got."""

    def __init__(self):
        super().__init__(max_workers=2)
        self.batches = []

    def map(self, fn, *iterables, **kwargs):
        items = list(iterables[0])
        self.batches.append(len(items))
        return super().map(fn, items, **kwargs)


class TestSequentialWhenPointless:
    @pytest.mark.parametrize("workers, segments", [
        (None, 4),
        (1, 4),
        (4, 1),
        (None, 1),
    ])
    def test_no_executor(self, workers, segments):
        pool = SegmentPool(workers, segments)
        assert pool() is None
        assert pool._executor is None

    def test_nothing_built_before_first_call(self):
        pool = SegmentPool(2, 4)
        assert pool._executor is None
        executor = pool()
        assert isinstance(executor, ThreadPoolExecutor)
        pool.shutdown()


class TestExecutor:
    def test_one_executor_reused_across_calls(self):
        pool = SegmentPool(2, 4)
        try:
            assert pool() is pool()
        finally:
            pool.shutdown()

    @pytest.mark.parametrize("workers, segments, expected", [
        (2, 4, 2),
        (8, 3, 3),
        (4, 4, 4),
    ])
    def test_size_capped_by_segment_count(self, workers, segments, expected):
        pool = SegmentPool(workers, segments)
        try:
            assert pool()._max_workers == expected
        finally:
            pool.shutdown()

    def test_worker_threads_are_named(self):
        pool = SegmentPool(2, 2)
        try:
            name = pool().submit(lambda: threading.current_thread().name)
            assert name.result(timeout=10).startswith("repro-segment")
        finally:
            pool.shutdown()

    def test_concurrent_first_calls_build_one_executor(self):
        pool = SegmentPool(2, 4)
        callers = 8
        barrier = threading.Barrier(callers)
        seen = []

        def first_call():
            barrier.wait(timeout=10)
            seen.append(pool())

        threads = [threading.Thread(target=first_call) for _ in range(callers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        try:
            assert len(seen) == callers
            assert len({id(executor) for executor in seen}) == 1
        finally:
            pool.shutdown()


class TestShutdown:
    def test_shutdown_releases_executor_and_stays_sequential(self):
        pool = SegmentPool(2, 4)
        executor = pool()
        pool.shutdown()
        assert executor._shutdown
        assert pool() is None
        assert pool._executor is None

    def test_shutdown_before_first_use_never_builds(self):
        pool = SegmentPool(2, 4)
        pool.shutdown()
        assert pool() is None
        assert pool._executor is None

    def test_shutdown_is_idempotent(self):
        pool = SegmentPool(2, 4)
        pool()
        pool.shutdown()
        pool.shutdown()
        assert pool() is None


class TestSegmentedFanOut:
    def test_bound_parts_go_through_the_pool(self):
        with LPathEngine(trees(), segments=2) as engine:
            plan = engine.compile("//NP")
            expected = list(plan.rows())
            executor = RecordingExecutor()
            plan.get_pool = lambda: executor
            try:
                assert list(plan.rows()) == expected
                assert plan.count() == len(expected)
            finally:
                executor.shutdown()
        assert executor.batches == [len(plan.bound)] * 2
        assert len(plan.bound) == 2

    def test_pruned_segments_are_not_handed_out(self):
        # Tids are dealt round-robin, so only segment 0 (tids 0 and 2)
        # carries a WHPP: the other segment's statistics prove it empty
        # and the one bound part runs inline.
        corpus = [
            parse_tree("(S (WHPP (IN of) (NN what)) (VP (VB go)))", tid=0),
            parse_tree("(S (NP (NN dogs)) (VP (VB bark)))", tid=1),
            parse_tree("(S (WHPP (IN in) (NN which)) (VP (VB go)))", tid=2),
            parse_tree("(S (NP (NN cats)) (VP (VB purr)))", tid=3),
        ]
        with LPathEngine(corpus, segments=2) as engine:
            plan = engine.compile("//WHPP")
            executor = RecordingExecutor()
            plan.get_pool = lambda: executor
            try:
                assert plan.count() == 2
            finally:
                executor.shutdown()
        assert len(plan.bound) == 1
        assert executor.batches == []

    @pytest.mark.parametrize("engine_class", [LPathEngine, XPathEngine])
    def test_threaded_engine_matches_sequential(self, engine_class):
        corpus = trees(6)
        with engine_class(corpus, segments=3) as sequential, \
                engine_class(corpus, segments=3, workers=2) as threaded:
            assert sequential._pool() is None
            assert isinstance(threaded._pool(), ThreadPoolExecutor)
            for query in ("//NP", "//S//NP", "//VP/V"):
                assert threaded.query(query) == sequential.query(query)
                assert threaded.count(query) == sequential.count(query)


class TestRetiredProcessSurface:
    def test_worker_kill_is_not_a_fault_point(self):
        with pytest.raises(FaultConfigError, match="unknown fault point"):
            parse_fault_specs("worker_kill:0.5:1")

    @pytest.mark.parametrize("engine_class", [LPathEngine, XPathEngine])
    def test_engines_take_no_mode(self, engine_class):
        with pytest.raises(TypeError, match="mode"):
            engine_class(trees(), segments=2, workers=2, mode="process")

    def test_from_store_mmap_takes_no_mode(self, tmp_path):
        from repro import store

        path = tmp_path / "c.lpdb"
        store.save_corpus(trees(), str(path), segments=2, format="lpdb0004")
        with pytest.raises(TypeError, match="mode"):
            LPathEngine.from_store_mmap(str(path), workers=2, mode="process")

    @pytest.mark.parametrize("argv", [
        ["query", "corpus.mrg", "//NP", "--mode", "process"],
        ["serve", "corpus.lpdb", "--mode", "thread"],
    ])
    def test_cli_has_no_mode_flag(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2
        assert "unrecognized arguments: --mode" in capsys.readouterr().err

    def test_retired_retry_knob_is_ignored(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROCESS_RETRIES", "lots")
        with LPathEngine(trees(), segments=2, workers=2) as engine:
            assert engine.count("//NP") == 4 * LPathEngine(
                [figure1_tree()]).count("//NP")
