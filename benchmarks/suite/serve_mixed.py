"""``serve_mixed``: a daemon child process under a mixed closed loop.

Serving-bound by construction: 80 % of requests are ``count`` queries
from an eight-query hot set that lives in the daemon's 256-entry result
cache, 10 % are never-seen lexical queries (they execute), 10 % are one
1 000-row page of ``//VB->NP`` at a random offset (cached rows, JSON
paging).  HTTP, admission, result cache and paging dominate; engine
execution is about a tenth of the ops.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
import sys
import threading
from typing import Optional

import queries as Q
from harness import (
    Lexicon,
    Window,
    child_env,
    median,
    now,
    percentile,
    stop_process,
    treewalk_rows,
)
from spans import NO_TRACE
from workload import Workload, probe

#: One generator process, one keep-alive connection per client thread.
CLIENT_THREADS = min(os.cpu_count() or 1, 2)
HOT_SHARE, MISS_SHARE = 0.80, 0.10  # the rest are pages


class ServeMixed(Workload):
    name = "serve_mixed"
    round_ops = 200  # per client

    def setup(self, tracer=NO_TRACE):
        from repro.serve import ServeClient

        self.build_store(tracer)
        self.lexicon = Lexicon(self.trees)
        begun = now()
        self.daemon = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", self.store_path,
             "--port", "0", "--max-inflight", str(CLIENT_THREADS)],
            env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True,
        )
        # The daemon inherits the generator's CPU pin and shares that core
        # with its clients.  On a core of its own it goes idle between
        # requests, and waking an idle virtual CPU is the noisiest thing
        # this box does: interleaved runs spread 19.5 % on op.p50_ms that
        # way against 11.5 % this way (README, "How steady").
        banner = self.daemon.stdout.readline()
        if " on http://" not in banner:
            raise RuntimeError(f"daemon did not start: {banner!r}")
        self.url = banner.split(" on ", 1)[1].split()[0]
        # One attempt per request: a refusal must count, not be retried away.
        self.clients = [
            ServeClient(self.url, max_retries=0) for _ in range(CLIENT_THREADS)
        ]
        if not self.clients[0].ready().get("ready"):
            raise RuntimeError("daemon is not ready")
        self.layer["serve.daemon_start_s"] = now() - begun
        warm = self.adhoc_texts()
        for client in self.clients:  # open each connection, fill the cache
            for text in Q.SERVE_HOT:
                client.count(text)
            self.page_total = client.query_page(
                Q.SERVE_PAGE_QUERY, limit=Q.SERVE_PAGE_ROWS)["total"]
            for _ in range(self.sizes.warm_adhoc // 10):
                client.query(next(warm)[0])

    def prepare_checks(self):
        self.hot_expected = self.expected_counts(Q.SERVE_HOT)
        self.page_rows = [
            list(pair) for pair in
            treewalk_rows(self.trees, [Q.SERVE_PAGE_QUERY])[Q.SERVE_PAGE_QUERY]
        ]

    def requests(self, thread: int, lexical):
        """The seeded request mix of one client thread, drawing its
        never-seen texts from ``lexical``:
        ``(kind, query text, anchor word or page offset)``."""
        rng = random.Random(self.seed * 100 + thread)
        last_offset = max(0, self.page_total - Q.SERVE_PAGE_ROWS)
        while True:
            draw = rng.random()
            if draw < HOT_SHARE:
                yield "hot", rng.choice(Q.SERVE_HOT), None
            elif draw < HOT_SHARE + MISS_SHARE:
                yield ("miss", *next(lexical))
            else:
                yield "page", Q.SERVE_PAGE_QUERY, rng.randint(0, last_offset)

    def client_loop(self, thread, requests, deadline, tracer, window, answers):
        client = self.clients[thread]

        def send(kind, text, extra):
            if kind == "hot":
                return client.count(text)
            if kind == "miss":
                return client.query(text)
            return client.query_page(text, offset=extra, limit=Q.SERVE_PAGE_ROWS)

        op = thread * 10_000_000
        while now() < deadline:
            batch = list(itertools.islice(requests, self.round_ops))  # off the clock
            window.begin_round()
            for kind, text, extra in batch:
                window.attempted += 1
                try:
                    begun = now()
                    with tracer.span(f"serve.{kind}", op):
                        answer = send(kind, text, extra)
                    window.add(kind, now() - begun)
                    if kind == "page":
                        # A page is a thousand small lists.  Checked here, off
                        # the op's clock, and dropped: thousands of pages kept
                        # alive would make the generator's own garbage
                        # collector the slowest layer of the run.
                        wanted = self.page_rows[extra:extra + Q.SERVE_PAGE_ROWS]
                        if (answer["total"] != len(self.page_rows)
                                or answer["matches"] != wanted):
                            window.fail("page differs from treewalk")
                    else:
                        answers.append((kind, text, extra, answer))
                except Exception as error:  # noqa: BLE001 - refusals count as failed
                    window.fail(f"{kind} request raised {type(error).__name__}")
                op += 1
            window.end_round()

    def run_window(self, seconds, tracer=NO_TRACE):
        self._stats_before = self.clients[0].stats()
        self._cpu_before = self.daemon_cpu_seconds()
        parts = [Window() for _ in self.clients]
        self._answers = [[] for _ in self.clients]
        deadline = now() + seconds
        threads = [
            threading.Thread(
                target=self.client_loop,
                args=(index, self.requests(index, self.adhoc_texts()), deadline,
                      tracer, parts[index], self._answers[index]),
            )
            for index in range(len(self.clients))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        window = Window(clients=len(self.clients))
        for part in parts:
            window.merge(part)
        self._cpu_after = self.daemon_cpu_seconds()
        self._stats_after = self.clients[0].stats()
        return window

    def verify(self, window):
        lexical = []
        for answers in self._answers:
            for kind, text, extra, answer in answers:
                if kind == "hot":
                    if answer != self.hot_expected[text]:
                        window.fail("hot count differs from treewalk")
                else:
                    lexical.append((text, extra, answer))
        self.check_adhoc(window, lexical)

    def install_spans(self, tracer):
        """The engine runs in the daemon: only client-side spans exist."""

    # -- per-layer -----------------------------------------------------------

    def daemon_cpu_seconds(self) -> Optional[float]:
        """User + system CPU of the daemon so far (Linux procfs)."""
        try:
            with open(f"/proc/{self.daemon.pid}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
            return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")
        except (OSError, ValueError, IndexError):
            return None

    def probes(self, tracer, traced):
        metrics: dict = {}

        def over_http():
            return {
                "serve.hot_p50_us": median(traced.seconds("hot")) * 1e6,
                "serve.miss_p50_ms": median(traced.seconds("miss")) * 1e3,
                "serve.page_p50_ms": median(traced.seconds("page")) * 1e3,
                "serve.http_p99_ms": percentile(traced.seconds(), 0.99) * 1e3,
            }

        probe(metrics, self.errors,
              ["serve.hot_p50_us", "serve.miss_p50_ms", "serve.page_p50_ms",
               "serve.http_p99_ms"], over_http)

        def daemon_counters():
            before, after = self._stats_before, self._stats_after

            def moved(section, key):
                return after[section][key] - before[section][key]

            hits = moved("result_cache", "hits")
            return {
                "serve.result_cache_hit_rate":
                    hits / (hits + moved("result_cache", "misses")),
                "serve.rejected": float(moved("server", "rejected")),
                "serve.timeouts": float(moved("server", "timeouts")),
                "serve.daemon_cpu_s_per_kop":
                    (self._cpu_after - self._cpu_before)
                    / len(traced.samples) * 1000.0,
            }

        probe(metrics, self.errors,
              ["serve.result_cache_hit_rate", "serve.rejected",
               "serve.timeouts", "serve.daemon_cpu_s_per_kop"], daemon_counters)

        def page_bytes():
            from http.client import HTTPConnection
            from urllib.parse import urlsplit

            address = urlsplit(self.url)
            connection = HTTPConnection(address.hostname, address.port, timeout=30)
            try:
                connection.request(
                    "POST", "/query",
                    json.dumps({"query": Q.SERVE_PAGE_QUERY, "offset": 0,
                                "limit": Q.SERVE_PAGE_ROWS}),
                    {"Content-Type": "application/json"},
                )
                body = connection.getresponse().read()
            finally:
                connection.close()
            return {"serve.bytes_per_page": float(len(body))}

        probe(metrics, self.errors, ["serve.bytes_per_page"], page_bytes)
        probe(metrics, self.errors,
              ["serve.service_hot_us", "serve.service_miss_ms",
               "serve.service_page_ms", "serve.http_overhead_us"],
              lambda: self.service_replay(metrics["serve.hot_p50_us"]))
        return metrics

    def service_replay(self, http_hot_us: Optional[float]) -> dict:
        """The same mix through an in-process ``QueryService.execute``:
        the serving layer without sockets, HTTP parsing or JSON."""
        from repro.serve import QueryService

        timings: dict[str, list[float]] = {"hot": [], "miss": [], "page": []}
        service = QueryService(self.store_path, max_inflight=CLIENT_THREADS)
        try:
            for text in Q.SERVE_HOT:
                service.execute({"query": text, "count": True})
            service.execute({"query": Q.SERVE_PAGE_QUERY})
            requests = self.requests(0, self.adhoc_texts())
            for _ in range(self.sizes.service_replay_ops):
                kind, text, extra = next(requests)
                params = {"query": text}
                if kind == "hot":
                    params["count"] = True
                elif kind == "page":
                    params.update(offset=extra, limit=Q.SERVE_PAGE_ROWS)
                begun = now()
                service.execute(params)
                timings[kind].append(now() - begun)
        finally:
            service.close()
        hot_us = median(timings["hot"]) * 1e6
        return {
            "serve.service_hot_us": hot_us,
            "serve.service_miss_ms": median(timings["miss"]) * 1e3,
            "serve.service_page_ms": median(timings["page"]) * 1e3,
            "serve.http_overhead_us":
                None if http_hot_us is None else http_hot_us - hot_us,
        }

    def teardown(self):
        for client in getattr(self, "clients", ()):
            client.close()
        self.clients = []
        daemon = getattr(self, "daemon", None)
        if daemon is not None:
            stop_process(daemon)
            self.daemon = None
        super().teardown()
