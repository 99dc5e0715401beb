"""The query service and daemon against a live mmap store: responses
byte-identical to the in-process engine, pagination that tiles the result
set exactly, a result cache that answers repeats, admission control that
rejects (not queues unboundedly) under overload, and deadlines that turn
runaway queries into clean 504s."""

from __future__ import annotations

import threading
import time

import pytest

from repro import store
from repro.lpath import LPathEngine
from repro.serve import QueryService, ServeClient, ServeError, StoreSpec
from repro.serve.service import LATENCY_WINDOW, MAX_BATCH_QUERIES
from repro.xpath import XPathEngine
from repro.xpath.engine import xpath_stores

QUERIES = ("//NP", "//VP//NP", "//S//NP//WHPP", "//_[.//NP]//VB")


def batch_documents(service, params) -> list[dict]:
    """A streamed batch as the JSON-shaped documents an in-process
    caller reads off its answers."""
    return [answer.document() for answer in service.answer_batch(params)]


@pytest.fixture(scope="module")
def reference(store_path):
    with LPathEngine.open(store_path) as engine:
        yield {query: engine.query(query) for query in QUERIES}


class TestExecute:
    def test_rows_match_in_process_engine(self, service, reference):
        for query, expected in reference.items():
            page = service.execute({"query": query, "limit": 50_000})
            assert [tuple(pair) for pair in page["matches"]] == expected
            assert page["total"] == len(expected)

    def test_pivot_matches_in_process_engine(self, service, store_path):
        with LPathEngine.open(store_path) as engine:
            expected = engine.query("//VP//NP", pivot=True)
        page = service.execute(
            {"query": "//VP//NP", "pivot": True, "limit": 50_000}
        )
        assert [tuple(pair) for pair in page["matches"]] == expected

    def test_count_mode_ships_no_rows(self, service, reference):
        page = service.execute({"query": "//NP", "count": True})
        assert page["total"] == len(reference["//NP"])
        assert page["count"] == page["total"]
        assert "matches" not in page

    def test_pagination_tiles_the_result_set(self, service, reference):
        expected = reference["//NP"]
        assert len(expected) > 7  # the corpus must exercise >1 page
        rows, offset = [], 0
        while True:
            page = service.execute(
                {"query": "//NP", "limit": 7, "offset": offset}
            )
            assert len(page["matches"]) <= 7
            rows.extend(tuple(pair) for pair in page["matches"])
            if page["next_offset"] is None:
                break
            assert page["next_offset"] == offset + len(page["matches"])
            offset = page["next_offset"]
        assert rows == expected

    def test_offset_past_end_is_an_empty_page(self, service, reference):
        page = service.execute(
            {"query": "//NP", "offset": len(reference["//NP"]) + 10}
        )
        assert page["matches"] == []
        assert page["next_offset"] is None

    def test_string_flags_from_query_strings(self, service):
        page = service.execute({"q": "//NP", "count": "1", "limit": "5"})
        assert page["count"] == page["total"]

    def test_integer_flags_from_json_bodies(self, service):
        page = service.execute({"query": "//VP//NP", "count": 1, "pivot": 0})
        assert page["count"] == page["total"] and page["cached"] is False
        page = service.execute({"query": "//VP//NP", "count": 0, "pivot": 1})
        assert "matches" in page and page["cached"] is False  # pivot: own key


class TestResultCache:
    def test_repeat_query_is_a_cache_hit(self, service):
        first = service.execute({"query": "//VP//NP", "limit": 50_000})
        again = service.execute({"query": "//VP//NP", "limit": 50_000})
        assert first["cached"] is False
        assert again["cached"] is True
        assert again["matches"] == first["matches"]
        assert service.results.stats["hits"] == 1

    def test_pages_of_one_query_share_one_entry(self, service):
        service.execute({"query": "//NP", "limit": 5})
        page = service.execute({"query": "//NP", "limit": 5, "offset": 5})
        assert page["cached"] is True
        assert service.results.stats["misses"] == 1

    def test_pivot_is_a_distinct_entry(self, service):
        service.execute({"query": "//VP//NP"})
        page = service.execute({"query": "//VP//NP", "pivot": True})
        assert page["cached"] is False

    def test_oversize_results_are_not_cached(self, store_path):
        with QueryService(store_path, max_cached_rows=1) as service:
            first = service.execute({"query": "//NP"})
            again = service.execute({"query": "//NP"})
        assert first["total"] > 1
        assert again["cached"] is False
        assert service.results.stats["oversize"] == 2

    def test_count_and_rows_share_the_cache(self, service, reference):
        service.execute({"query": "//NP"})
        page = service.execute({"query": "//NP", "count": True})
        assert page["cached"] is True
        assert page["total"] == len(reference["//NP"])


class TestTopKAndAggregates:
    def test_top_k_is_the_sorted_prefix(self, service, reference):
        page = service.execute({"query": "//NP", "top_k": 5})
        expected = sorted(reference["//NP"])[:5]
        assert [tuple(pair) for pair in page["matches"]] == expected
        assert page["total"] == 5

    def test_aggregate_count_matches_row_count(self, service, reference):
        page = service.execute({"query": "//NP", "agg": "count"})
        assert page["agg"] == "count"
        assert dict(
            (group, count) for group, count in page["aggregate"]
        ) == {"count": len(reference["//NP"])}
        assert "matches" not in page

    def test_grouped_aggregate_sums_to_count(self, service, reference):
        page = service.execute({"query": "//VP//NP", "agg": "count_by_depth"})
        assert sum(count for _, count in page["aggregate"]) == \
            len(reference["//VP//NP"])

    def test_top_k_caches_only_the_truncated_rows(self, store_path):
        # The oversize guard sees the k truncated rows, not the full
        # result set: a top-k query stays cacheable even when its full
        # result would be rejected.
        with QueryService(store_path, max_cached_rows=5) as service:
            full = service.execute({"query": "//NP"})
            top = service.execute({"query": "//NP", "top_k": 3})
            again = service.execute({"query": "//NP", "top_k": 3})
        assert full["total"] > 5
        assert service.results.stats["oversize"] == 1
        assert top["cached"] is False
        assert again["cached"] is True
        assert again["matches"] == top["matches"]

    def test_top_k_and_full_results_never_collide(self, service):
        # Distinct cache keys: the truncated entry must never answer the
        # full query (nor the full entry get truncated to answer top-k).
        service.execute({"query": "//VP//NP", "top_k": 2})
        page = service.execute({"query": "//VP//NP"})
        assert page["cached"] is False
        assert page["total"] > 2

    @pytest.mark.parametrize(
        "params",
        [
            {"query": "//NP", "top_k": 1, "agg": "count"},
            {"query": "//NP", "count": True, "agg": "count"},
            {"query": "//NP", "agg": "sum"},
            {"query": "//NP", "top_k": -1},
            {"query": "//NP", "top_k": "many"},
        ],
        ids=["topk+agg", "count+agg", "bad-agg", "negative-k", "non-int-k"],
    )
    def test_bad_top_k_and_agg_are_400(self, service, params):
        with pytest.raises(ServeError) as failure:
            service.execute(params)
        assert failure.value.status == 400


class TestBatchExecution:
    def test_batch_matches_per_query_execution(self, service, reference):
        queries = [
            "//NP",
            {"query": "//VP//NP", "top_k": 3},
            {"query": "//NP", "agg": "count"},
        ]
        documents = batch_documents(service, {"queries": queries})
        summary = documents.pop()
        assert summary["done"] is True
        assert summary["completed"] == summary["queries"] == 3
        assert [d["index"] for d in documents] == [0, 1, 2]
        assert [tuple(p) for p in documents[0]["matches"]] == \
            reference["//NP"]
        assert [tuple(p) for p in documents[1]["matches"]] == \
            sorted(reference["//VP//NP"])[:3]
        assert dict(
            (group, count) for group, count in documents[2]["aggregate"]
        ) == {"count": len(reference["//NP"])}

    def test_batch_members_use_the_result_cache_individually(self, service):
        service.execute({"query": "//NP"})
        documents = batch_documents(service, {"queries": ["//NP", "//VP//NP"]})
        assert documents[0]["cached"] is True
        assert documents[1]["cached"] is False
        # ...and a batch populates the cache for later singles/batches.
        documents = batch_documents(service, {"queries": ["//VP//NP"]})
        assert documents[0]["cached"] is True

    def test_member_failure_is_a_document_not_an_abort(
        self, service, reference
    ):
        documents = batch_documents(
            service, {"queries": ["//NP", "//(", "//VP//NP"]}
        )
        summary = documents.pop()
        assert summary["done"] is False
        assert summary["completed"] == 2
        assert documents[1]["index"] == 1
        assert "error" in documents[1]
        assert [tuple(p) for p in documents[2]["matches"]] == \
            reference["//VP//NP"]

    @pytest.mark.parametrize(
        "params",
        [
            {},
            {"queries": []},
            {"queries": "//NP"},
            {"queries": [7]},
            {"queries": ["//NP"] * (MAX_BATCH_QUERIES + 1)},
            {"queries": [{"query": "//NP", "top_k": 1, "agg": "count"}]},
        ],
        ids=["missing", "empty", "not-a-list", "bad-entry", "too-many",
             "bad-member"],
    )
    def test_bad_batches_are_400_before_streaming(self, service, params):
        with pytest.raises(ServeError) as failure:
            service.answer_batch(params)
        assert failure.value.status == 400

    def test_batch_is_admitted_as_one_unit(self, store_path):
        with QueryService(
            store_path, max_inflight=1, max_queue=0
        ) as service:
            stream = service.answer_batch({"queries": ["//NP", "//VP//NP"]})
            next(stream)
            # The in-flight batch holds the only slot...
            with pytest.raises(ServeError) as failure:
                service.execute({"query": "//S//NP//WHPP"})
            assert failure.value.status == 429
            assert list(stream)[-1].document()["done"] is True
            # ...and releases it when the stream completes.
            assert service.execute({"query": "//S//NP//WHPP"})["total"] >= 0


class TestEndpointLatency:
    def test_latency_percentiles_surface_in_stats(self, service):
        for milliseconds in (1.0, 2.0, 3.0):
            service.record_latency("/query", milliseconds / 1000.0)
        service.record_latency("/batch", 0.004)
        endpoints = service.stats()["endpoints"]
        assert endpoints["/query"]["count"] == 3
        assert endpoints["/query"]["p50_ms"] == 2.0
        assert endpoints["/query"]["p99_ms"] >= endpoints["/query"]["p50_ms"]
        assert endpoints["/batch"] == {
            "count": 1, "p50_ms": 4.0, "p99_ms": 4.0,
        }

    def test_latency_window_is_bounded_but_counts_everything(self, service):
        for _ in range(LATENCY_WINDOW + 100):
            service.record_latency("/healthz", 0.001)
        endpoints = service.stats()["endpoints"]
        assert endpoints["/healthz"]["count"] == LATENCY_WINDOW + 100
        assert len(service._latency["/healthz"][1]) == LATENCY_WINDOW


class TestValidation:
    @pytest.mark.parametrize(
        "params",
        [
            {},                                        # no query at all
            {"query": "   "},                          # blank
            {"query": "//NP", "dialect": "sql"},       # unknown dialect
            {"query": "//NP", "limit": 0},             # below floor
            {"query": "//NP", "limit": 100_000},       # above ceiling
            {"query": "//NP", "offset": -1},
            {"query": "//NP", "offset": "soon"},
            {"query": "//NP", "timeout_ms": 0},
            {"query": "//NP", "timeout_ms": "fast"},
            {"query": "//NP", "pivot": "maybe"},
            {"query": "//NP", "count": 2},             # only 0/1 are flags
            {"query": "//NP", "count": 1.0},
            {"query": "//NP", "pivot": -1},
            {"query": "//NP", "pivot": [True]},
        ],
    )
    def test_bad_requests_are_400(self, service, params):
        with pytest.raises(ServeError) as failure:
            service.execute(params)
        assert failure.value.status == 400

    def test_unknown_store_is_404(self, service):
        with pytest.raises(ServeError) as failure:
            service.execute({"query": "//NP", "store": "/no/such.lpdb"})
        assert failure.value.status == 404
        assert "not served here" in str(failure.value)

    def test_parse_error_is_400_not_a_crash(self, service):
        with pytest.raises(ServeError) as failure:
            service.execute({"query": "//NP[@"})
        assert failure.value.status == 400

    def test_invalid_kernels_env_is_400(self, service, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS", "bogus")
        with pytest.raises(ServeError) as failure:
            service.execute({"query": "//NP"})
        assert failure.value.status == 400
        assert "REPRO_KERNELS" in str(failure.value)

    def test_dialect_mismatch_is_400(self, service):
        with pytest.raises(ServeError) as failure:
            service.execute({"query": "//NP", "dialect": "xpath"})
        assert failure.value.status == 400
        assert "dialect" in str(failure.value)

    def test_bad_service_knobs_fail_fast(self, store_path):
        from repro.lpath.errors import LPathError

        for kwargs in (
            {"max_inflight": 0},
            {"max_queue": -1},
            {"timeout": 0},
        ):
            with pytest.raises(LPathError):
                QueryService(store_path, **kwargs)
        with pytest.raises(LPathError):
            QueryService([])
        with pytest.raises(LPathError):
            QueryService(StoreSpec(store_path, dialect="sql"))


class TestXPathDialect:
    def test_xpath_store_serves_xpath_queries(self, trees, tmp_path):
        path = str(tmp_path / "xpath.lpdb")
        with open(path, "wb") as stream:
            store.save_mapped_stores(xpath_stores(trees, 2), stream)
        with XPathEngine.from_store_mmap(path) as engine:
            expected = engine.query("//NP")
        with QueryService(StoreSpec(path, dialect="xpath")) as service:
            page = service.execute(
                {"query": "//NP", "dialect": "xpath", "limit": 50_000}
            )
            assert [tuple(pair) for pair in page["matches"]] == expected
            with pytest.raises(ServeError) as failure:
                service.execute({"query": "//NP"})  # lpath against xpath
            assert failure.value.status == 400

    def test_lpath_file_serves_the_xpath_dialect_from_its_own_labels(
        self, trees, store_path
    ):
        """A ``repro compile`` file holds Definition 4.1 labels; the XPath
        dialect restricts the queries, the file's labels answer them."""
        from repro.oracle import TreeWalkEvaluator

        walk = TreeWalkEvaluator(trees)
        with QueryService(StoreSpec(store_path, dialect="xpath")) as service:
            for query in ("//NP//NN", "//S//NP", "//VP/NP"):
                page = service.execute(
                    {"query": query, "dialect": "xpath", "count": True}
                )
                assert page["total"] == len(walk.query(query)), query

    def test_pre_mmap_store_refuses_xpath_dialect(self, tmp_path):
        # A store of a retired revision (here a hand-written LPDB0003
        # header) gets a clean refusal naming the revision.
        path = tmp_path / "old.lpdb"
        path.write_bytes(b"LPDB0003" + b"\x02\x05\x00\x00\x00\x00")
        with pytest.raises(store.StoreError) as failure:
            QueryService(StoreSpec(str(path), dialect="xpath"))
        assert "LPDB0003" in str(failure.value)
        assert "repro compile" in str(failure.value)


class _SlowEngine:
    """Wraps a served engine so queries block until the test releases
    them (or, as a backstop, for five seconds)."""

    def __init__(self, engine) -> None:
        self._engine = engine
        self.entered = threading.Event()
        self.release = threading.Event()

    def __getattr__(self, name):
        return getattr(self._engine, name)

    def compile(self, *args, **kwargs):
        # The service runs every query through ``engine.compile``.
        self.entered.set()
        self.release.wait(timeout=5.0)
        return self._engine.compile(*args, **kwargs)


def _slow_service(store_path, **kwargs):
    service = QueryService(store_path, **kwargs)
    handle = service._stores[store_path]
    handle.engine = _SlowEngine(handle.engine)
    return service


class TestAdmissionControl:
    def test_overload_rejects_with_429(self, store_path):
        with _slow_service(
            store_path, max_inflight=1, max_queue=0
        ) as service:
            slow = service._stores[store_path].engine
            runner = threading.Thread(
                target=service.execute, args=({"query": "//NP"},)
            )
            runner.start()
            try:
                assert slow.entered.wait(timeout=5.0)
                with pytest.raises(ServeError) as failure:
                    service.execute({"query": "//VP//NP"})
                assert failure.value.status == 429
                assert service.rejected == 1
            finally:
                slow.release.set()
                runner.join()

    def test_deadline_expiry_is_504(self, store_path):
        with _slow_service(store_path) as service:
            started = time.monotonic()
            with pytest.raises(ServeError) as failure:
                service.execute({"query": "//NP", "timeout_ms": 50})
            assert failure.value.status == 504
            assert time.monotonic() - started < 0.9  # gave up, not slept
            assert service.timeouts == 1
            # The abandoned query must never have populated the cache,
            # not even once its worker has run to the end.
            service._stores[store_path].engine.release.set()
            service._pool.shutdown(wait=True)
            assert service.results.stats["size"] == 0

    def test_queued_query_expires_while_waiting(self, store_path):
        with _slow_service(
            store_path, max_inflight=1, max_queue=4
        ) as service:
            slow = service._stores[store_path].engine
            runner = threading.Thread(
                target=service.execute, args=({"query": "//NP"},)
            )
            runner.start()
            try:
                assert slow.entered.wait(timeout=5.0)
                with pytest.raises(ServeError) as failure:
                    service.execute({"query": "//VP//NP", "timeout_ms": 50})
                assert failure.value.status == 504
                assert "queued" in str(failure.value)
            finally:
                slow.release.set()
                runner.join()

    def test_cache_hits_bypass_admission(self, store_path):
        # Fill the cache, then wedge the only execution slot: the cached
        # query must still answer instantly.
        with _slow_service(
            store_path, max_inflight=1, max_queue=0
        ) as service:
            slow = service._stores[store_path].engine
            slow.release.set()
            service.execute({"query": "//NP"})
            slow.release.clear()
            slow.entered.clear()
            runner = threading.Thread(
                target=service.execute, args=({"query": "//VP//NP"},)
            )
            runner.start()
            try:
                assert slow.entered.wait(timeout=5.0)
                page = service.execute({"query": "//NP"})
                assert page["cached"] is True
            finally:
                slow.release.set()
                runner.join()


class TestStats:
    def test_stats_shape_and_counters(self, service):
        service.execute({"query": "//NP"})
        service.execute({"query": "//NP"})
        stats = service.stats()
        assert stats["server"]["served"] == 1
        assert stats["server"]["inflight"] == 0
        assert stats["server"]["draining"] is False
        assert stats["result_cache"]["hits"] == 1
        assert stats["result_cache"]["misses"] == 1
        assert stats["kernels"]["backend"] in ("python", "native")
        (described,) = stats["stores"]
        assert described["dialect"] == "lpath"
        assert described["fingerprint"].startswith("lpdb0004-")
        assert described["plan_cache"]["misses"] >= 1

    def test_health_reports_ok(self, service):
        assert service.health() == {"status": "ok"}
