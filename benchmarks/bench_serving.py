"""Serving throughput and tail latency for the query daemon.

The serving workload is the paper's Figure 6b "rare tag" pattern turned
operational: many concurrent clients asking a small set of
high-selectivity queries (``//ADVP-LOC-CLR``, ``//WHPP``) over one
compiled corpus.  After the first execution each query is a result-cache
hit, so steady state measures the daemon itself — HTTP keep-alive
round trips, admission control, cache lookups — not plan execution.

Reported: sustained QPS and the p50/p95/p99 per-request latencies (as
``*_seconds``, so ``diff_bench.py`` gates tail-latency regressions in
CI).  The throughput floor (>= 500 QPS, p99 < 50 ms) is asserted only on
multi-core hosts; single-core runs record the numbers without gating.

Knobs: ``REPRO_BENCH_CLIENTS`` (default 4 load-generator threads) and
``REPRO_BENCH_REQUESTS`` (default 300 requests per client).
"""

from __future__ import annotations

import os
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor

from repro import store
from repro.bench import datasets
from repro.serve import QueryServer, QueryService, ServeClient

#: The fig6b rare-tag workload: cheap queries, hot in the result cache.
WORKLOAD = ("//ADVP-LOC-CLR", "//WHPP")

CLIENTS = int(os.environ.get("REPRO_BENCH_CLIENTS", 4))
REQUESTS_PER_CLIENT = int(os.environ.get("REPRO_BENCH_REQUESTS", 300))

QPS_FLOOR = 500.0
P99_CEILING_SECONDS = 0.050


def percentile(sorted_timings: list[float], fraction: float) -> float:
    index = min(
        int(fraction * len(sorted_timings)), len(sorted_timings) - 1
    )
    return sorted_timings[index]


def test_serving_throughput_and_tail_latency(write_result, write_json):
    trees = datasets.corpus("wsj")
    handle, path = tempfile.mkstemp(suffix=".lpdb")
    try:
        os.close(handle)
        store.save_corpus(trees, path, segments=2)
        service = QueryService(path, max_inflight=CLIENTS, max_queue=64)
        with QueryServer(service).start() as server:
            _drive(server, service, write_result, write_json)
    finally:
        os.unlink(path)


def _drive(server, service, write_result, write_json) -> None:
    # Warm: first sight of each query executes and fills the result
    # cache; correctness rides along via the count round trip.
    with ServeClient(server.url) as warmup:
        expected = {query: warmup.count(query) for query in WORKLOAD}

    def load(seed: int) -> list[float]:
        timings = []
        with ServeClient(server.url) as client:
            for index in range(REQUESTS_PER_CLIENT):
                query = WORKLOAD[(seed + index) % len(WORKLOAD)]
                started = time.perf_counter()
                count = client.count(query)
                timings.append(time.perf_counter() - started)
                assert count == expected[query]
        return timings

    started = time.perf_counter()
    with ThreadPoolExecutor(CLIENTS) as pool:
        per_client = list(pool.map(load, range(CLIENTS)))
    wall_seconds = time.perf_counter() - started

    timings = sorted(t for client in per_client for t in client)
    total = len(timings)
    qps = total / wall_seconds
    p50 = percentile(timings, 0.50)
    p95 = percentile(timings, 0.95)
    p99 = percentile(timings, 0.99)
    stats = service.stats()

    cores = os.cpu_count() or 1
    multicore = cores >= 2
    gate = (
        f"gate: >= {QPS_FLOOR:g} QPS and p99 < "
        f"{P99_CEILING_SECONDS * 1000:g}ms"
        if multicore
        else "gate: recorded only (single-core host)"
    )
    write_result(
        "serving.txt",
        "\n".join([
            f"Serving: {CLIENTS} clients x {REQUESTS_PER_CLIENT} requests "
            f"over {', '.join(WORKLOAD)} ({cores} cores):",
            f"  throughput: {qps:,.0f} QPS over {wall_seconds:.2f}s "
            f"({total} requests)",
            f"  latency: p50 {p50 * 1000:.2f}ms  p95 {p95 * 1000:.2f}ms  "
            f"p99 {p99 * 1000:.2f}ms",
            f"  result cache: {stats['result_cache']['hits']} hits / "
            f"{stats['result_cache']['misses']} misses",
            f"  {gate}",
        ]),
    )
    write_json(
        "serving",
        {
            "clients": CLIENTS,
            "requests_per_client": REQUESTS_PER_CLIENT,
            "workload": list(WORKLOAD),
            "total_requests": total,
            "wall_seconds": wall_seconds,
            "qps": qps,
            "p50_seconds": p50,
            "p95_seconds": p95,
            "p99_seconds": p99,
            "result_cache": stats["result_cache"],
            # uptime_seconds/timeout_seconds are config and wall-clock
            # noise, not timings; keep them away from diff_bench's
            # *_seconds gate.
            "server": {
                key: value
                for key, value in stats["server"].items()
                if not key.endswith("_seconds")
            },
            "cores": cores,
            "gated": multicore,
        },
    )

    # Every request succeeded and the books balance: each landed as a
    # result-cache hit or an executed query, with no rejections.
    cache = stats["result_cache"]
    assert stats["server"]["rejected"] == 0
    assert stats["server"]["timeouts"] == 0
    assert cache["hits"] + cache["misses"] == total + len(WORKLOAD)
    if multicore:
        assert qps >= QPS_FLOOR, (
            f"serving sustained only {qps:,.0f} QPS "
            f"(floor {QPS_FLOOR:g}) on {cores} cores"
        )
        assert p99 < P99_CEILING_SECONDS, (
            f"p99 latency {p99 * 1000:.2f}ms breaches the "
            f"{P99_CEILING_SECONDS * 1000:g}ms ceiling"
        )
