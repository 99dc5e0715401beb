"""Serving live (LPDB0005) corpora over HTTP: durable appends through
``POST /append`` with read-your-writes, live health in ``/stats`` and
``/readyz``, threshold-driven background compaction under load, and
clean 400s for everything that is not an appendable store."""

from __future__ import annotations

import time

import pytest

from repro import store
from repro.serve import (
    QueryServer,
    QueryService,
    ServeClient,
    ServeClientError,
)
from repro.tree.bracket import iter_trees

TEXT = "(S (NP (N dog)) (VP (V ran)))"
MORE = "(S (NP (N cat)) (VP (V sat) (NP (N mat))))"


@pytest.fixture()
def live_path(tmp_path) -> str:
    path = str(tmp_path / "live.lpdb")
    store.save_corpus(iter_trees(TEXT * 5), path, segments=2,
                      format="lpdb0005")
    return path


@pytest.fixture()
def live_service(live_path):
    with QueryService(live_path) as built:
        yield built


@pytest.fixture()
def live_server(live_service):
    with QueryServer(live_service).start() as built:
        yield built


@pytest.fixture()
def live_client(live_server):
    with ServeClient(live_server.url, max_retries=0) as built:
        yield built


class TestAppendEndpoint:
    def test_append_read_your_writes(self, live_client):
        before = live_client.count("//N")
        ack = live_client.append(MORE)
        assert ack["trees"] == 1 and ack["rows"] > 0
        assert live_client.count("//N") == before + 2

    def test_append_bumps_fingerprint_and_defeats_cache(self, live_client):
        first = live_client.query_page("//NP")
        assert live_client.query_page("//NP")["cached"] is True
        live_client.append(MORE)
        fresh = live_client.query_page("//NP")
        assert fresh["cached"] is False
        assert len(fresh["matches"]) == len(first["matches"]) + 2

    def test_appends_are_durable_across_restart(self, live_path):
        with QueryService(live_path) as service:
            with QueryServer(service).start() as server:
                with ServeClient(server.url, max_retries=0) as client:
                    client.append(MORE)
                    client.append(TEXT)
                    total = client.count("//N")
        # Service closed: the writer lock is released and the rows are
        # on disk; a cold second daemon serves the same counts.
        with QueryService(live_path) as service:
            with QueryServer(service).start() as server:
                with ServeClient(server.url, max_retries=0) as client:
                    assert client.count("//N") == total

    def test_append_counter_in_stats(self, live_client):
        live_client.append(MORE)
        live_client.append(TEXT)
        assert live_client.stats()["server"]["appends"] == 2

    def test_parse_error_is_400(self, live_client):
        with pytest.raises(ServeClientError) as failure:
            live_client.append("(S (NP broken")
        assert failure.value.status == 400

    def test_empty_trees_is_400(self, live_client):
        with pytest.raises(ServeClientError) as failure:
            live_client.append("   ")
        assert failure.value.status == 400

    def test_get_method_is_405(self, live_client):
        with pytest.raises(ServeClientError) as failure:
            live_client._request("GET", "/append")
        assert failure.value.status == 405

    def test_append_to_immutable_store_is_400(self, tmp_path, live_path):
        frozen = str(tmp_path / "frozen.lpdb")
        store.save_corpus(
            list(iter_trees(TEXT * 3)), frozen, format="lpdb0004"
        )
        with QueryService([live_path, frozen]) as service:
            with QueryServer(service).start() as server:
                with ServeClient(server.url, max_retries=0) as client:
                    with pytest.raises(ServeClientError) as failure:
                        client.append(MORE, store=frozen)
                    assert failure.value.status == 400
                    assert "immutable" in str(failure.value)
                    client.append(MORE, store=live_path)  # the live one works


class TestLiveHealthSurfaces:
    def test_stats_reports_live_block(self, live_client):
        live_client.append(MORE)
        stores = live_client.stats()["stores"]
        block = stores[0]["live"]
        assert block["generation"] >= 1
        assert block["delta_rows"] > 0
        assert block["appends"] == 1
        assert block["compactions"] == 0

    def test_readyz_reports_live_health(self, live_client):
        live_client.append(MORE)
        ready = live_client.ready()
        health = next(iter(ready["stores"].values()))
        assert health["live"]["delta_rows"] > 0
        assert health["live"]["compacting"] is False

    def test_swap_reuse_counters_move(self, live_client):
        """Both health surfaces show what engine swaps reuse: the same
        query across two appends is compiled once, carried twice and
        rebased twice, over base segments that are never rebuilt."""
        for _ in range(2):
            assert live_client.count("//N") > 0
            live_client.append(MORE)
        assert live_client.count("//N") > 0
        block = live_client.stats()["stores"][0]["live"]
        health = next(iter(live_client.ready()["stores"].values()))["live"]
        for surface in (block, health):
            assert surface["base_segments"] == 1      # one file, 2 shards
            assert surface["delta_segments"] == 1     # 1 + 1 batches merged
            assert surface["segments_reused"] >= 2 * 2  # 2 base shards, twice
            assert surface["plans_carried"] >= 2
            assert surface["plans_rebased"] >= 2
        assert block["retired_engines"] == 2

    def test_second_writer_is_rejected_while_serving(
        self, live_service, live_path
    ):
        from repro.live import LiveCorpus
        from repro.store import StoreError

        with pytest.raises(StoreError, match="locked"):
            LiveCorpus(live_path)


class TestThresholdCompaction:
    def test_background_compaction_fires_and_queries_survive(self, live_path):
        with QueryService(live_path, compact_rows=1) as service:
            with QueryServer(service).start() as server:
                with ServeClient(server.url, max_retries=0) as client:
                    expected = client.count("//N")
                    for _ in range(3):
                        expected += 2
                        client.append(MORE)
                        assert client.count("//N") == expected
                    deadline = time.monotonic() + 10.0
                    while time.monotonic() < deadline:
                        block = client.stats()["stores"][0]["live"]
                        if block["compactions"] >= 1 and not block["compacting"]:
                            break
                        time.sleep(0.05)
                    else:
                        pytest.fail("background compaction never fired")
                    # Compaction must not change any answer.
                    assert client.count("//N") == expected
        info = store.corpus_info(live_path)
        assert info["generation"] > 1

    def test_rejects_negative_threshold(self, live_path):
        from repro.lpath.errors import LPathError

        with pytest.raises(LPathError, match="compact_rows"):
            QueryService(live_path, compact_rows=-1)


class TestLiveStoreModes:
    def test_xpath_dialect_spec_is_rejected(self, live_path):
        from repro.lpath.errors import LPathError
        from repro.serve.service import StoreSpec

        with pytest.raises(LPathError, match="dialect"):
            QueryService(StoreSpec(path=live_path, dialect="xpath"))
