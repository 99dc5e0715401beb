"""The HTTP daemon and client over a real socket: the wire adds nothing
and loses nothing — rows byte-identical to the in-process engine, every
failure a JSON error document with the right status, connections kept
alive across requests."""

from __future__ import annotations

import http.client
import json
import socket

import pytest

from repro.lpath import LPathEngine
from repro.serve import ServeClientError


@pytest.fixture(scope="module")
def expected(store_path):
    with LPathEngine.open(store_path) as engine:
        yield {
            "//NP": engine.query("//NP"),
            "//VP//NP": engine.query("//VP//NP"),
        }


class TestQueryEndpoint:
    def test_post_rows_match_in_process_engine(self, client, expected):
        assert client.query("//NP") == expected["//NP"]

    def test_get_form_matches_post_form(self, client, expected):
        page = client.get_query(q="//VP//NP", limit=50_000)
        assert [tuple(pair) for pair in page["matches"]] == \
            expected["//VP//NP"]

    def test_client_pagination_reassembles_exactly(self, client, expected):
        assert client.query("//NP", limit=3) == expected["//NP"]

    def test_count_round_trip(self, client, expected):
        assert client.count("//NP") == len(expected["//NP"])

    def test_keep_alive_reuses_one_connection(self, client):
        client.query_page("//NP")
        connection = client._sock
        client.query_page("//VP//NP")
        client.stats()
        assert client._sock is connection
        assert client.reconnects == 0

    def test_repeat_query_is_served_from_cache(self, client):
        first = client.query_page("//NP")
        again = client.query_page("//NP")
        assert first["cached"] is False
        assert again["cached"] is True
        assert again["matches"] == first["matches"]


class TestErrorDocuments:
    def test_missing_query_is_400(self, client):
        with pytest.raises(ServeClientError) as failure:
            client.query_page("")
        assert failure.value.status == 400

    def test_parse_error_is_400_with_clean_message(self, client):
        with pytest.raises(ServeClientError) as failure:
            client.query("//NP[@")
        assert failure.value.status == 400
        assert "Traceback" not in str(failure.value)

    def test_unknown_route_is_404(self, client):
        with pytest.raises(ServeClientError) as failure:
            client._request("GET", "/nope")
        assert failure.value.status == 404

    def test_unknown_store_is_404(self, client):
        with pytest.raises(ServeClientError) as failure:
            client.query("//NP", store="/no/such.lpdb")
        assert failure.value.status == 404

    def test_bad_dialect_is_400(self, client):
        with pytest.raises(ServeClientError) as failure:
            client.query("//NP", dialect="sql")
        assert failure.value.status == 400

    def test_invalid_json_body_is_400(self, server):
        connection = http.client.HTTPConnection(
            server.host, server.port, timeout=10
        )
        try:
            connection.request(
                "POST", "/query", b"{not json",
                {"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            document = json.loads(response.read())
            assert response.status == 400
            assert "invalid JSON" in document["error"]
        finally:
            connection.close()

    def test_non_object_json_body_is_400(self, server):
        connection = http.client.HTTPConnection(
            server.host, server.port, timeout=10
        )
        try:
            connection.request(
                "POST", "/query", b"[1, 2]",
                {"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            assert response.status == 400
        finally:
            connection.close()

    def test_oversized_body_is_refused(self, server):
        # Refused unread, so the connection must close (or the unread
        # body would be parsed as the next request) — and close without
        # racing the client's send: 50 rounds, each pushing the whole
        # 2 MiB body in one request() the way stock http.client does.
        for _ in range(50):
            connection = http.client.HTTPConnection(
                server.host, server.port, timeout=10
            )
            try:
                connection.request(
                    "POST", "/query", b" " * (2 << 20),
                    {"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                document = json.loads(response.read())
                assert response.status == 400
                assert "too large" in document["error"]
                assert response.getheader("Connection") == "close"
                assert response.will_close
            finally:
                connection.close()

    def test_errors_never_leak_tracebacks(self, client):
        for exercise in (
            lambda: client.query_page(""),
            lambda: client.query("//NP[@"),
            lambda: client._request("GET", "/nope"),
        ):
            with pytest.raises(ServeClientError) as failure:
                exercise()
            assert "Traceback" not in str(failure.value)


class TestBatchEndpoint:
    def test_batch_round_trip_matches_per_query(self, client, expected):
        documents = client.query_batch([
            "//NP",
            {"query": "//VP//NP", "top_k": 3},
            {"query": "//NP", "agg": "count"},
        ])
        assert [d["index"] for d in documents] == [0, 1, 2]
        assert [tuple(p) for p in documents[0]["matches"]] == \
            expected["//NP"]
        assert [tuple(p) for p in documents[1]["matches"]] == \
            sorted(expected["//VP//NP"])[:3]
        assert dict(documents[2]["aggregate"]) == \
            {"count": len(expected["//NP"])}

    def test_batch_wire_format_is_chunked_ndjson(self, server):
        connection = http.client.HTTPConnection(server.host, server.port)
        try:
            connection.request(
                "POST", "/batch",
                json.dumps({"queries": ["//NP", "//VP//NP"]}),
                {"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            assert response.status == 200
            assert response.getheader("Content-Type") == \
                "application/x-ndjson"
            assert response.getheader("Transfer-Encoding") == "chunked"
            documents = [
                json.loads(line)
                for line in response.read().decode("utf-8").splitlines()
                if line
            ]
            assert len(documents) == 3
            assert documents[-1]["done"] is True
        finally:
            connection.close()

    def test_invalid_batch_member_is_400(self, client):
        with pytest.raises(ServeClientError) as failure:
            client.query_batch([
                {"query": "//NP", "top_k": 1, "agg": "count"}
            ])
        assert failure.value.status == 400

    def test_member_parse_error_streams_an_error_document(self, client):
        documents = client._request_ndjson(
            "POST", "/batch", {"queries": ["//NP", "//("]}
        )
        assert "error" in documents[1]
        assert documents[-1]["done"] is False
        # The strict client surface turns the partial batch into an error.
        with pytest.raises(ServeClientError):
            client.query_batch(["//NP", "//("])

    def test_top_k_and_agg_round_trip_on_query_endpoint(
        self, client, expected
    ):
        assert client.query("//NP", top_k=4) == sorted(expected["//NP"])[:4]
        assert client.aggregate("//NP") == {"count": len(expected["//NP"])}


class TestObservability:
    def test_healthz(self, client):
        assert client.health() == {"status": "ok"}

    def test_stats_counts_the_traffic_it_saw(self, client):
        client.query_page("//NP")
        client.query_page("//NP")
        stats = client.stats()
        assert stats["server"]["served"] == 1
        assert stats["result_cache"]["hits"] == 1
        assert stats["result_cache"]["misses"] == 1
        (described,) = stats["stores"]
        assert described["fingerprint"].startswith("lpdb0004-")
        assert stats["kernels"]["backend"] in ("python", "native")

    def test_stats_sizes_the_result_cache(self, client, expected):
        # An entry is one buffer: 16 bytes a cached (tid, id) row, plus
        # the few JSON bytes of an aggregate (which holds no rows).
        assert client.stats()["result_cache"]["rows"] == 0
        assert client.stats()["result_cache"]["bytes"] == 0
        client.query_page("//NP", limit=3)       # caches the whole answer
        client.query("//VP//NP", top_k=2)        # caches the two rows
        held = len(expected["//NP"]) + 2
        cache = client.stats()["result_cache"]
        assert cache["size"] == 2
        assert cache["rows"] == held and cache["bytes"] == 16 * held
        client.aggregate("//NP")
        cache = client.stats()["result_cache"]
        assert cache["size"] == 3 and cache["rows"] == held
        assert 16 * held < cache["bytes"] < 16 * held + 64

    def test_stats_reports_per_endpoint_latency(self, client):
        client.query_page("//NP")
        client.query_batch(["//VP//NP"])
        endpoints = client.stats()["endpoints"]
        assert endpoints["/query"]["count"] >= 1
        assert endpoints["/batch"]["count"] >= 1
        for entry in endpoints.values():
            assert entry["p99_ms"] >= entry["p50_ms"] >= 0.0

    def test_stats_is_json_clean(self, client):
        # Everything in /stats must survive a JSON round trip untouched.
        stats = client.stats()
        assert json.loads(json.dumps(stats)) == stats


class TestClientTransport:
    def test_client_rejects_non_http_urls(self):
        from repro.serve import ServeClient

        with pytest.raises(ServeClientError):
            ServeClient("ftp://example.org")

    def test_unreachable_daemon_is_a_clean_error(self):
        from repro.serve import ServeClient

        with ServeClient("http://127.0.0.1:9") as client:
            with pytest.raises(ServeClientError) as failure:
                client.health()
        assert "cannot reach daemon" in str(failure.value)

    def test_client_retries_a_dead_keep_alive(self, client):
        client.query_page("//NP")
        # Kill the idle connection out from under the client; the next
        # request must transparently reconnect.
        client._sock.shutdown(socket.SHUT_RDWR)
        assert client.query_page("//NP")["cached"] is True
        assert client.reconnects == 1 and client.backoffs == 0
