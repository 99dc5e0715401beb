"""The chaos matrix: every fault point in :mod:`repro.faults`, pinned
seeds, driven end-to-end through the daemon.

The invariant under test is the whole PR's contract: under injected
faults every response is **byte-identical to the fault-free run** or a
**cleanly classified error** (429/503/504 with transient marking — never
a traceback, never a 500, never silently wrong rows), and the daemon
itself never dies (``/healthz`` answers ``ok`` after every storm)."""

from __future__ import annotations

import pytest

from repro import store
from repro.corpus import generate_corpus
from repro.serve import (
    QueryServer,
    QueryService,
    ServeClient,
    ServeClientError,
)

#: The workload: a mix of scans, nested paths, a filter, and an
#: aggregate — each run twice so the cache layer is always in play.
WORKLOAD = (
    {"query": "//NP"},
    {"query": "//VP//NP"},
    {"query": "//S//NP//WHPP"},
    {"query": "//_[.//NP]//VB"},
    {"query": "//NP", "top_k": 5},
    {"query": "//VP//NP", "agg": "count"},
)

#: 0 is the client's classified transport failure — what a bounded
#: retry budget correctly reports when every attempt got reset.
CLEAN_STATUSES = (0, 429, 503, 504)


@pytest.fixture(scope="module")
def chaos_store(tmp_path_factory) -> str:
    trees = list(generate_corpus("wsj", sentences=30, seed=3))
    path = tmp_path_factory.mktemp("chaos") / "corpus.lpdb"
    store.save_corpus(trees, str(path), segments=2, format="lpdb0004")
    return str(path)


@pytest.fixture(scope="module")
def baseline(chaos_store) -> dict:
    with QueryService(chaos_store) as service:
        with QueryServer(service).start() as server:
            with ServeClient(server.url, max_retries=0) as client:
                return _run_workload(client)[0]


def _run_workload(client) -> tuple[dict, list]:
    """Execute the workload twice; returns the answers keyed by request
    plus the clean-error list (anything unclean raises out)."""
    answers: dict = {}
    errors: list = []
    for _round in range(2):
        for request in WORKLOAD:
            key = tuple(sorted(request.items()))
            try:
                if "agg" in request:
                    answer = client.aggregate(
                        request["query"], agg=request["agg"]
                    )
                else:
                    answer = client.query(
                        request["query"], top_k=request.get("top_k")
                    )
            except ServeClientError as error:
                assert error.status in CLEAN_STATUSES, (
                    f"unclassified failure for {request}: "
                    f"{error.status} {error}"
                )
                assert error.transient is True
                assert "Traceback" not in str(error)
                errors.append((key, error.status))
                continue
            if key in answers:
                assert answer == answers[key], (
                    f"non-deterministic answer for {request}"
                )
            answers[key] = answer
    return answers, errors


def _assert_answers_match(answers: dict, baseline: dict) -> None:
    for key, answer in answers.items():
        assert answer == baseline[key], f"divergent rows for {dict(key)}"


class TestChaosMatrix:
    @pytest.mark.parametrize("faults, service_options, client_options", [
        # Slow segments: latency chaos, zero correctness impact.
        ("segment_slow:0.5:3", {}, {}),
        # Failing mmap reads: clean 503s (breaker/quarantine may engage),
        # every successful answer still byte-identical.
        (
            "mmap_read_error:0.3:7",
            {"store_retry_after": 0.05},
            {"max_retries": 4, "backoff_base": 0.02, "backoff_cap": 0.2},
        ),
        # Dropped connections: the client's reconnect/backoff absorbs
        # every reset.
        (
            "socket_reset:0.4:42",
            {},
            {"max_retries": 6, "backoff_base": 0.01, "backoff_cap": 0.1},
        ),
        # Poisoned cache entries: the integrity digest catches each one
        # and re-executes — corruption can never reach the client.
        ("cache_poison:1.0:5", {}, {}),
        # Everything at once.
        (
            "segment_slow:0.3:3,mmap_read_error:0.2:7,"
            "socket_reset:0.3:42,cache_poison:0.5:5",
            {"store_retry_after": 0.05},
            {"max_retries": 6, "backoff_base": 0.02, "backoff_cap": 0.2},
        ),
    ], ids=[
        "segment_slow", "mmap_read_error", "socket_reset", "cache_poison",
        "all_points",
    ])
    def test_answers_identical_or_cleanly_classified(
        self, chaos_store, baseline, monkeypatch,
        faults, service_options, client_options,
    ):
        monkeypatch.setenv("REPRO_FAULTS", faults)
        with QueryService(chaos_store, **service_options) as service:
            with QueryServer(service).start() as server:
                with ServeClient(server.url, **client_options) as client:
                    answers, errors = _run_workload(client)
                    _assert_answers_match(answers, baseline)
                    # The daemon survived the storm.
                    assert client.health() == {"status": "ok"}
                    stats = client.stats()
                    assert stats["server"]["uptime_seconds"] >= 0
        if "cache_poison:1.0" in faults:
            assert stats["result_cache"]["integrity_failures"] >= 1

    def test_fault_free_matrix_run_matches_itself(
        self, chaos_store, baseline, monkeypatch
    ):
        # The control arm: no faults, same workload, answers match the
        # module baseline (guards against a flaky baseline fixture).
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        with QueryService(chaos_store) as service:
            with QueryServer(service).start() as server:
                with ServeClient(server.url, max_retries=0) as client:
                    answers, errors = _run_workload(client)
        assert errors == []
        _assert_answers_match(answers, baseline)
        assert set(answers) == set(baseline)
