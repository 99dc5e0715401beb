"""Fault-recovery cost: quarantine isolation.

One gate turns the serving layer's robustness story into a number:
with one store quarantined (real on-disk corruption caught by the
readiness probe) and shed clients hammering it, the 503 path must be
cheap enough that the healthy store keeps >= 90% of its solo QPS.  The
shed arm models impatient-but-bounded retry clients: far above what a
Retry-After honoring client would generate, far below a load test of
the shed path itself.

The two arms alternate round by round — the shed clients start and stop
with each mixed round, and the arm that goes first alternates too — so
drift of the box lands on both arms alike.  Each round pair gives one
retention (its mixed QPS over its solo QPS) and the gate takes the
median of them, so a single scheduler hiccup can't fail (or pass) it.
It is asserted only on multi-core hosts; single-core runs record the
numbers without gating (matching ``bench_serving``).  The healthy QPS is
a closed-loop single client's ``1 / median latency`` — per-thread
medians are far more stable than multi-client wall-clock throughput.

Knob: ``REPRO_BENCH_REQUESTS`` for the QPS arms.
"""

from __future__ import annotations

import os
import shutil
import statistics
import tempfile
import threading
import time

import pytest

from repro import store
from repro.bench import datasets
from repro.serve import QueryServer, QueryService, ServeClient, ServeClientError

from bench_serving import percentile

#: Cheap nested-path queries, alternated so both windows mix plans.
WORKLOAD = ("//VP//NP", "//NP")

QPS_REQUESTS = int(os.environ.get("REPRO_BENCH_REQUESTS", 200))

QPS_RETENTION_FLOOR = 0.90

#: One shed request per hammer thread per this interval — ~50/s total
#: (everything shares one GIL, so shed traffic must stay a small
#: fraction of the ~2500/s cache-hit capacity for retention to measure
#: the shed path's cost, not its volume; a per-request disk re-probe
#: regression would still cost several ms each and crater retention).
SHED_INTERVAL_SECONDS = 0.04
SHED_CLIENTS = 2


@pytest.fixture(scope="module")
def store_file():
    trees = datasets.corpus("wsj")
    handle, path = tempfile.mkstemp(suffix=".lpdb")
    try:
        os.close(handle)
        store.save_corpus(trees, path, segments=2)
        yield path
    finally:
        os.unlink(path)


def _multicore() -> bool:
    return (os.cpu_count() or 1) >= 2


# -- quarantined-store 503s leave healthy QPS alone ----------------------


def _flip_sidecar_byte(path: str, offset: int = 64) -> None:
    with open(path, "r+b") as handle:
        handle.seek(offset)
        byte = handle.read(1)[0]
        handle.seek(offset)
        handle.write(bytes([byte ^ 0xFF]))


def _healthy_round(client, healthy: str, expected: dict) -> list:
    """The closed-loop client sends ``QPS_REQUESTS`` counts to the
    healthy store; returns the per-request latencies."""
    timings = []
    for index in range(QPS_REQUESTS):
        query = WORKLOAD[index % len(WORKLOAD)]
        started = time.perf_counter()
        count = client.count(query, store=healthy)
        timings.append(time.perf_counter() - started)
        assert count == expected[query]
    return timings


def _mixed_round(
    server, client, healthy: str, doomed: str, expected: dict,
    shed_statuses: list,
) -> list:
    """:func:`_healthy_round` while ``SHED_CLIENTS`` clients hammer the
    quarantined store; each shed answer's status lands in
    ``shed_statuses``."""
    stop = threading.Event()

    def hammer() -> None:
        with ServeClient(server.url, max_retries=0) as shed:
            while not stop.is_set():
                try:
                    shed.count(WORKLOAD[0], store=doomed)
                    shed_statuses.append(200)
                except ServeClientError as error:
                    shed_statuses.append(error.status)
                stop.wait(SHED_INTERVAL_SECONDS)

    threads = [threading.Thread(target=hammer) for _ in range(SHED_CLIENTS)]
    for thread in threads:
        thread.start()
    try:
        return _healthy_round(client, healthy, expected)
    finally:
        stop.set()
        for thread in threads:
            thread.join()


def _arm_summary(rounds: list) -> tuple[float, float, float]:
    """(QPS from the median of the per-round median latencies, that
    median, the p99 of the pooled latencies) of one arm."""
    median = statistics.median(statistics.median(timings) for timings in rounds)
    pooled = sorted(latency for timings in rounds for latency in timings)
    return 1.0 / median, median, percentile(pooled, 0.99)


def test_quarantined_store_does_not_drag_healthy_qps(
    store_file, tmp_path, write_result, write_json, repeats
):
    healthy = str(tmp_path / "healthy.lpdb")
    doomed = str(tmp_path / "doomed.lpdb")
    shutil.copy(store_file, healthy)
    shutil.copy(store_file, doomed)

    # A long cooldown pins the quarantine for every mixed round: shed
    # requests must be answered from the handle's state, never re-probed.
    service = QueryService(
        [healthy, doomed], max_inflight=1 + SHED_CLIENTS,
        max_queue=64, store_retry_after=300.0,
    )
    rounds = max(3, repeats)
    with QueryServer(service).start() as server:
        with ServeClient(server.url) as warmup:
            expected = {
                query: warmup.count(query, store=healthy)
                for query in WORKLOAD
            }
            _flip_sidecar_byte(doomed)
            probe = warmup.ready()
            assert probe["ready"] is True  # healthy store still serves
            assert probe["healthy_stores"] == 1

        shed_statuses: list = []
        arms: dict = {"alone": [], "mixed": []}
        retentions = []
        # One healthy connection serves both arms, so a pair never
        # compares two connections' handler threads.
        with ServeClient(server.url, max_retries=0) as client:
            for round_ in range(rounds):
                order = (
                    ("mixed", "alone") if round_ % 2 else ("alone", "mixed")
                )
                for arm in order:
                    arms[arm].append(
                        _healthy_round(client, healthy, expected)
                        if arm == "alone" else _mixed_round(
                            server, client, healthy, doomed, expected,
                            shed_statuses,
                        )
                    )
                # QPS is 1 / median latency, so mixed over solo QPS is
                # solo over mixed latency.
                retentions.append(
                    statistics.median(arms["alone"][-1])
                    / statistics.median(arms["mixed"][-1])
                )
        stats = service.stats()

    # Every shed request was refused with the quarantine 503 — none
    # executed, none succeeded, none crashed the daemon.
    assert shed_statuses, "the shed arm never got a request through"
    assert set(shed_statuses) == {503}

    qps_alone, median_alone, p99_alone = _arm_summary(arms["alone"])
    qps_mixed, median_mixed, p99_mixed = _arm_summary(arms["mixed"])
    retention = statistics.median(retentions)
    pairs = ", ".join(f"{value:.1%}" for value in retentions)
    gated = _multicore()
    write_result(
        "quarantine_isolation.txt",
        "\n".join([
            f"Quarantine isolation: closed-loop client, {rounds} "
            f"interleaved rounds of {QPS_REQUESTS} requests per arm, "
            f"{SHED_CLIENTS} shed "
            f"clients at {1 / SHED_INTERVAL_SECONDS:.0f}/s each "
            f"(QPS = 1 / median latency):",
            f"  healthy store alone: {qps_alone:,.0f} QPS "
            f"(median {median_alone * 1000:.2f}ms, "
            f"p99 {p99_alone * 1000:.2f}ms)",
            f"  with quarantined store shedding "
            f"{len(shed_statuses)} x 503: {qps_mixed:,.0f} QPS "
            f"(median {median_mixed * 1000:.2f}ms, "
            f"p99 {p99_mixed * 1000:.2f}ms)",
            f"  retention (median of the round pairs): {retention:.1%} "
            f"({pairs})",
            f"  gate: >= {QPS_RETENTION_FLOOR:.0%} retention"
            + ("" if gated else " (recorded only: single-core host)"),
        ]),
    )
    write_json(
        "quarantine_isolation",
        {
            "requests_per_round": QPS_REQUESTS,
            "rounds": rounds,
            "shed_clients": SHED_CLIENTS,
            "shed_requests": len(shed_statuses),
            "qps_alone": qps_alone,
            "qps_mixed": qps_mixed,
            "retention": retention,
            "round_retentions": retentions,
            "median_alone_seconds": median_alone,
            "median_mixed_seconds": median_mixed,
            "p99_alone_seconds": p99_alone,
            "p99_mixed_seconds": p99_mixed,
            "quarantines": stats["server"]["quarantines"],
            "cores": os.cpu_count() or 1,
            "gated": gated,
        },
    )

    assert stats["server"]["quarantines"] >= 1
    if gated:
        assert retention >= QPS_RETENTION_FLOOR, (
            f"healthy-store QPS fell to a median {retention:.1%} of its "
            f"solo QPS under quarantined-store load (round pairs: "
            f"{pairs}; floor {QPS_RETENTION_FLOOR:.0%})"
        )
