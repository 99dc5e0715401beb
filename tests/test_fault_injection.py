"""Unit tests for the deterministic fault-injection harness
(:mod:`repro.faults`): spec parsing is strict, draws are reproducible
from the seed, and every helper stays inert when faults are off."""

from __future__ import annotations

import pytest

from repro import faults
from repro.faults import (
    FAULT_POINTS,
    FAULTS_ENV,
    FaultConfigError,
    FaultSpec,
    Injector,
    parse_fault_specs,
)
from repro.serve.cache import EncodedAggregate
from tests.batches import batch_of


class TestSpecParsing:
    def test_single_spec(self):
        specs = parse_fault_specs("segment_slow:0.25:7")
        assert specs == {
            "segment_slow": FaultSpec("segment_slow", 0.25, 7)
        }

    def test_multiple_specs_with_whitespace(self):
        specs = parse_fault_specs(
            " mmap_read_error:1.0:3 , segment_slow:0.5:3 ,"
        )
        assert set(specs) == {"mmap_read_error", "segment_slow"}
        assert specs["segment_slow"].probability == 0.5

    @pytest.mark.parametrize("raw, fragment", [
        ("segment_slow", "expected point:prob:seed"),
        ("segment_slow:0.5", "expected point:prob:seed"),
        ("segment_slow:0.5:1:extra", "expected point:prob:seed"),
        ("unknown_point:0.5:1", "unknown fault point"),
        ("segment_slow:maybe:1", "probability"),
        ("segment_slow:1.5:1", "must be in [0, 1]"),
        ("segment_slow:-0.1:1", "must be in [0, 1]"),
        ("segment_slow:0.5:soon", "seed"),
        ("segment_slow:0.5:1,segment_slow:0.5:2", "duplicate"),
    ])
    def test_malformed_specs_raise(self, raw, fragment):
        with pytest.raises(FaultConfigError) as failure:
            parse_fault_specs(raw)
        assert fragment in str(failure.value)

    def test_every_documented_point_parses(self):
        raw = ",".join(f"{point}:0.1:1" for point in FAULT_POINTS)
        assert set(parse_fault_specs(raw)) == set(FAULT_POINTS)


class TestInjectorDeterminism:
    def test_same_seed_same_firing_sequence(self):
        draws = []
        for _ in range(2):
            injector = Injector(parse_fault_specs("socket_reset:0.3:42"))
            draws.append(
                [injector.fires("socket_reset") for _ in range(64)]
            )
        assert draws[0] == draws[1]
        # A 0.3 probability over 64 draws fires sometimes, not always.
        assert 0 < sum(draws[0]) < 64

    def test_different_seeds_differ(self):
        def sequence(seed: int) -> list[bool]:
            injector = Injector(
                parse_fault_specs(f"socket_reset:0.5:{seed}")
            )
            return [injector.fires("socket_reset") for _ in range(64)]

        assert sequence(1) != sequence(2)

    def test_probability_extremes(self):
        injector = Injector(
            parse_fault_specs("cache_poison:1.0:1,segment_slow:0.0:1")
        )
        assert all(injector.fires("cache_poison") for _ in range(8))
        assert not any(injector.fires("segment_slow") for _ in range(8))

    def test_inactive_point_never_fires_or_counts(self):
        injector = Injector(parse_fault_specs("socket_reset:1.0:1"))
        assert injector.fires("cache_poison") is False
        assert injector.counts() == {}

    def test_counts_track_checkpoint_passes(self):
        injector = Injector(parse_fault_specs("socket_reset:0.0:1"))
        for _ in range(5):
            injector.fires("socket_reset")
        assert injector.counts() == {"socket_reset": 5}


class TestEnvironmentActivation:
    def test_unset_env_means_no_injector(self, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV, raising=False)
        assert faults.active_injector() is None
        assert faults.fires("segment_slow") is False
        assert faults.fault_counts() == {}
        # Inert helpers: no sleep, no error, no mutation.
        faults.maybe_delay_segment()
        faults.maybe_mmap_read_error()
        assert faults.maybe_reset_socket() is False
        rows = batch_of([(1, 2), (3, 4)])
        assert faults.poisoned_rows(rows) is rows

    def test_env_change_rebuilds_injector(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "socket_reset:0.0:1")
        first = faults.active_injector()
        monkeypatch.setenv(FAULTS_ENV, "socket_reset:0.0:2")
        second = faults.active_injector()
        assert first is not second
        assert second.specs["socket_reset"].seed == 2

    def test_malformed_env_raises_config_error(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "nope")
        with pytest.raises(FaultConfigError):
            faults.active_injector()


class TestHelpers:
    def test_mmap_read_error_raises_oserror(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "mmap_read_error:1.0:1")
        with pytest.raises(OSError) as failure:
            faults.maybe_mmap_read_error()
        assert "injected fault" in str(failure.value)

    def test_poisoned_rows_differ_but_keep_shape(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "cache_poison:1.0:1")
        rows = batch_of([(1, 2), (3, 4)])
        poisoned = faults.poisoned_rows(rows)
        assert poisoned != rows
        assert len(poisoned) == len(rows)
        assert list(rows) == [(1, 2), (3, 4)]  # the copy was flipped
        # Aggregate-shaped and empty results are corrupted too: any
        # cached entry must be detectably wrong when the point fires.
        aggregate = EncodedAggregate.of({"NP": 7})
        poisoned = faults.poisoned_rows(aggregate)
        assert type(poisoned) is EncodedAggregate
        assert poisoned.pairs != aggregate.pairs == b'[["NP", 7]]'
        assert faults.poisoned_rows(batch_of([])) != batch_of([])

    def test_reset_socket_reports_the_draw(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "socket_reset:1.0:1")
        assert faults.maybe_reset_socket() is True


class TestSlowSegments:
    def test_segment_slow_never_changes_results(self, tmp_path, monkeypatch):
        from repro import store
        from repro.lpath import LPathEngine
        from repro.tree import figure1_tree

        path = str(tmp_path / "corpus.lpdb")
        store.save_corpus(
            [figure1_tree(tid=tid) for tid in range(4)], path,
            segments=2, format="lpdb0004",
        )
        with LPathEngine.open(path) as engine:
            expected = engine.query("//VP//NP")
        monkeypatch.setenv(FAULTS_ENV, "segment_slow:1.0:3")
        with LPathEngine.open(path) as engine:
            assert engine.query("//VP//NP") == expected
        # Both segments passed the checkpoint, one after the other.
        assert faults.fault_counts() == {"segment_slow": 2}
