"""Lifecycle discipline for long-lived serving: close is idempotent at
every layer (engine, service, daemon), a closed service answers with a
clean draining error instead of a crash, and shutdown drains in-flight
queries rather than cutting them off mid-scan."""

from __future__ import annotations

import threading
import time

import pytest

from repro.lpath import LPathEngine
from repro.serve import (
    QueryServer,
    QueryService,
    ServeClient,
    ServeClientError,
    ServeError,
)


class TestIdempotentClose:
    def test_engine_double_close(self, store_path):
        engine = LPathEngine.open(store_path)
        assert engine.query("//NP")
        engine.close()
        engine.close()  # second close must be a no-op, not a crash

    def test_service_double_close(self, store_path):
        service = QueryService(store_path)
        service.execute({"query": "//NP"})
        service.close()
        service.close()

    def test_server_double_close(self, store_path):
        service = QueryService(store_path)
        server = QueryServer(service).start()
        with ServeClient(server.url) as client:
            assert client.health() == {"status": "ok"}
        server.close()
        server.close()

    def test_server_close_without_ever_serving(self, store_path):
        # close() before start() must not deadlock on the serve_forever
        # handshake that never happened.
        service = QueryService(store_path)
        server = QueryServer(service)
        server.close()

    def test_context_managers_close_on_exit(self, store_path):
        with QueryService(store_path) as service:
            with QueryServer(service).start() as server:
                with ServeClient(server.url) as client:
                    client.query_page("//NP")
        # An *uncached* query against the exited service hits the
        # draining gate (cache hits stay answerable by design).
        with pytest.raises(ServeError):
            service.execute({"query": "//VP//NP"})


class TestClosedService:
    def test_execute_after_close_is_503(self, store_path):
        service = QueryService(store_path)
        service.close()
        with pytest.raises(ServeError) as failure:
            service.execute({"query": "//VP//NP"})
        assert failure.value.status == 503
        assert "draining" in str(failure.value)

    def test_closed_engine_behind_a_live_daemon_is_clean(self, store_path):
        # The operator closed the engine out from under the daemon (or a
        # reload raced a request): the client sees one clean error line,
        # never a traceback, and the daemon keeps answering.
        service = QueryService(store_path)
        with QueryServer(service).start() as server:
            with ServeClient(server.url) as client:
                assert client.query("//NP")
                for handle in service._stores.values():
                    handle.engine.close()
                service.results.clear()
                with pytest.raises(ServeClientError) as failure:
                    client.query("//VP//NP")
                assert failure.value.status in (400, 503)
                assert "Traceback" not in str(failure.value)
                assert client.health() == {"status": "ok"}

    def test_daemon_after_service_close_is_503(self, store_path):
        service = QueryService(store_path)
        with QueryServer(service).start() as server:
            with ServeClient(server.url) as client:
                assert client.health() == {"status": "ok"}
                service.close()
                with pytest.raises(ServeClientError) as failure:
                    client.query("//NP")
                assert failure.value.status == 503
                assert client.health() == {"status": "draining"}


class TestDrain:
    def test_close_waits_for_inflight_queries(self, store_path):
        service = QueryService(store_path)
        handle = next(iter(service._stores.values()))
        inner_compile = handle.engine.compile
        entered = threading.Event()
        finished = threading.Event()

        def slow_compile(*args, **kwargs):
            # The service runs every query through ``engine.compile``.
            entered.set()
            time.sleep(0.3)
            compiled = inner_compile(*args, **kwargs)
            finished.set()
            return compiled

        handle.engine.compile = slow_compile
        outcome = {}

        def run():
            outcome["rows"] = service.execute(
                {"query": "//NP", "limit": 50_000}
            )

        runner = threading.Thread(target=run)
        runner.start()
        assert entered.wait(timeout=5.0)
        service.close(drain_timeout=10.0)
        runner.join(timeout=5.0)
        # The in-flight query ran to completion before the engines went
        # away: it finished, returned rows, and was never cut off.
        assert finished.is_set()
        assert outcome["rows"]["total"] > 0

    def test_drain_timeout_bounds_the_wait(self, store_path):
        service = QueryService(store_path)
        handle = next(iter(service._stores.values()))
        entered = threading.Event()
        release = threading.Event()

        inner_compile = handle.engine.compile

        def wedged_compile(*args, **kwargs):
            entered.set()
            release.wait(timeout=5.0)
            return inner_compile(*args, **kwargs)

        handle.engine.compile = wedged_compile

        def run():
            # The wedged query may still complete (close only stopped
            # waiting for it) or fail against closed engines; the test
            # only cares that close() returned promptly.
            try:
                service.execute({"query": "//NP"})
            except Exception:
                pass

        runner = threading.Thread(target=run)
        runner.start()
        assert entered.wait(timeout=5.0)
        started = time.monotonic()
        service.close(drain_timeout=0.2)
        assert time.monotonic() - started < 2.0
        release.set()
        runner.join(timeout=10.0)

    def test_new_queries_rejected_while_draining(self, server, client):
        server.service.close(drain_timeout=0.0)
        with pytest.raises(ServeClientError) as failure:
            client.query("//NP")
        assert failure.value.status == 503
