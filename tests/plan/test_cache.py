"""Tests for the plan cache: unit behavior plus engine integration."""

import pytest

from repro.lpath import LPathEngine
from repro.plan.cache import PlanCache
from repro.tree import figure1_tree
from repro.xpath import XPathEngine


class TestPlanCacheUnit:
    def test_hit_miss_accounting(self):
        cache = PlanCache(maxsize=4)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.stats == {
            "hits": 1, "misses": 1, "evictions": 0, "size": 1, "maxsize": 4,
        }

    def test_lru_eviction(self):
        cache = PlanCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1      # refresh "a"
        cache.put("c", 3)               # evicts "b"
        assert "b" not in cache
        assert "a" in cache and "c" in cache
        assert len(cache) == 2
        assert cache.evictions == 1
        assert cache.stats["evictions"] == 1

    def test_clear_invalidates_everything(self):
        cache = PlanCache()
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats == {
            "hits": 0, "misses": 0, "evictions": 0, "size": 0, "maxsize": 128,
        }
        assert cache.get("a") is None

    def test_zero_capacity_disables_caching(self):
        cache = PlanCache(maxsize=0)
        cache.put("a", 1)
        assert cache.get("a") is None
        assert len(cache) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            PlanCache(maxsize=-1)

    def test_concurrent_access_never_tears(self):
        """Hammer one small cache from many threads: the LRU reorder,
        eviction sweep and counters all run under the lock, so the totals
        must reconcile exactly and no operation may raise (an unlocked
        OrderedDict dies with RuntimeError/KeyError under this load)."""
        import threading

        cache = PlanCache(maxsize=8)
        threads, errors = 8, []
        rounds = 300
        barrier = threading.Barrier(threads)

        def worker(seed: int) -> None:
            try:
                barrier.wait()
                for step in range(rounds):
                    key = (seed * step) % 16
                    if cache.get(key) is None:
                        cache.put(key, key)
                    stats = cache.stats
                    assert stats["size"] <= stats["maxsize"]
                    assert stats["hits"] + stats["misses"] >= stats["size"]
            except BaseException as error:  # pragma: no cover - failure path
                errors.append(error)

        pool = [
            threading.Thread(target=worker, args=(seed,))
            for seed in range(1, threads + 1)
        ]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        assert not errors
        stats = cache.stats
        assert stats["hits"] + stats["misses"] == threads * rounds
        assert len(cache) <= 8


@pytest.fixture()
def engine():
    return LPathEngine([figure1_tree()])


class TestEngineCaching:
    def test_repeated_compiles_reuse_the_plan(self, engine):
        first = engine.compile("//NP")
        second = engine.compile("//NP")
        assert first is second
        assert engine.plan_cache.hits == 1

    def test_cached_plan_is_reexecutable(self, engine):
        first = engine.query("//NP")
        assert engine.query("//NP") == first
        assert engine.query("//NP") == first

    def test_pivot_flag_keys_separately(self, engine):
        plain = engine.compile("//S//V")
        pivoted = engine.compile("//S//V", pivot=True)
        assert plain is not pivoted
        assert engine.compile("//S//V", pivot=True) is pivoted

    def test_pivot_limit_and_agg_key_independently(self, engine):
        options = [
            {"pivot": pivot, **extra}
            for pivot in (False, True)
            for extra in ({}, {"limit": 2}, {"agg": "count"})
        ]
        plans = [engine.compile("//S//V", **option) for option in options]
        assert len(set(map(id, plans))) == len(options)
        for option, plan in zip(options, plans):
            assert engine.compile("//S//V", **option) is plan
        from repro.columnar import ColumnarPlan

        assert all(isinstance(plan.plan, ColumnarPlan) for plan in plans)

    def test_ast_queries_share_the_text_key(self, engine):
        from repro.lpath import parse

        path = parse("//NP")
        compiled = engine.compile(path)
        assert engine.compile(str(path)) is compiled

    def test_clear_invalidates(self, engine):
        first = engine.compile("//NP")
        engine.plan_cache.clear()
        assert engine.compile("//NP") is not first

    def test_close_drops_cached_plans(self):
        with LPathEngine([figure1_tree()]) as engine:
            engine.query("//NP")
            assert len(engine.plan_cache) > 0
        assert len(engine.plan_cache) == 0

    def test_eviction_bounded_by_cache_size(self):
        engine = LPathEngine([figure1_tree()], plan_cache_size=2)
        for query in ("//NP", "//VP", "//S", "//V"):
            engine.query(query)
        assert len(engine.plan_cache) == 2

    def test_compile_errors_are_not_cached(self, engine):
        from repro.lpath import LPathCompileError

        with pytest.raises(LPathCompileError):
            engine.compile("//NP[position()=2]")
        assert len(engine.plan_cache) == 0

    def test_xpath_engine_caches_too(self):
        engine = XPathEngine([figure1_tree()])
        first = engine.compile("//NP/N")
        assert engine.compile("//NP/N") is first
        assert engine.query("//NP/N") == engine.query("//NP/N")
