"""Tests for the benchmark support package (queries, harness, report)."""

import math

import pytest

from repro.baselines.corpussearch import parse_query
from repro.baselines.tgrep2 import parse_pattern
from repro.bench import (
    PAPER_RESULT_SIZES,
    QUERY_SET,
    by_id,
    measure,
    paper_timing,
    run_suite,
    unsupported,
    xpath_queries,
)
from repro.bench.report import (
    log_bar_chart,
    scaling_table,
    speedup_summary,
    timing_table,
)
from repro.lpath import parse


class TestQuerySet:
    def test_23_queries_numbered_1_to_23(self):
        assert [q.qid for q in QUERY_SET] == list(range(1, 24))

    def test_all_lpath_queries_parse(self):
        for query in QUERY_SET:
            parse(query.lpath)

    def test_all_tgrep2_translations_parse(self):
        for query in QUERY_SET:
            parse_pattern(query.tgrep2)

    def test_all_corpussearch_translations_parse(self):
        for query in QUERY_SET:
            parse_query(query.corpussearch)

    def test_eleven_xpath_queries(self):
        assert len(xpath_queries()) == 11
        assert [q.qid for q in xpath_queries()] == [1, 8, 9] + list(range(12, 20))

    def test_paper_result_sizes_complete(self):
        assert len(PAPER_RESULT_SIZES["WSJ"]) == 23
        assert len(PAPER_RESULT_SIZES["SWB"]) == 23

    def test_by_id(self):
        assert by_id(6).lpath == "//VP{//NP$}"
        with pytest.raises(KeyError):
            by_id(99)

    def test_benchmark_suite_copy_has_not_drifted(self):
        # benchmarks/suite/ keeps a frozen copy of the 23 texts (it must
        # not import the product); the two lists have to stay equal.
        import importlib.util
        import os

        root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
        spec = importlib.util.spec_from_file_location(
            "suite_queries",
            os.path.join(root, "benchmarks", "suite", "queries.py"),
        )
        suite = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(suite)
        assert list(suite.PAPER_QUERIES) == [q.lpath for q in QUERY_SET]

    def test_queries_match_figure6c_text(self):
        assert by_id(1).lpath == "//S[//_[@lex=saw]]"
        assert by_id(7).lpath == "//VP[{//^VB->NP->PP$}]"
        assert by_id(10).lpath == "//NP[->PP[//IN[@lex=of]]=>VP]"
        assert by_id(23).lpath == "//VP=>VP"


class TestHarness:
    def test_paper_timing_trims_extremes(self):
        calls = iter([0, 0, 0, 0, 0, 0, 0])

        def run():
            next(calls)
            return 42

        seconds, result = paper_timing(run, repeats=7)
        assert result == 42
        assert seconds >= 0

    def test_measure(self):
        measurement = measure("sys", 3, lambda: 7, repeats=3)
        assert measurement.system == "sys"
        assert measurement.qid == 3
        assert measurement.result_size == 7
        assert measurement.supported

    def test_unsupported(self):
        measurement = unsupported("sys", 4)
        assert measurement.unsupported
        assert math.isnan(measurement.seconds)

    def test_run_suite(self):
        systems = {
            "a": lambda qid: (lambda: qid * 10),
            "b": lambda qid: None if qid == 2 else (lambda: qid),
        }
        measurements = run_suite(systems, [1, 2], repeats=1)
        assert len(measurements) == 4
        b2 = [m for m in measurements if m.system == "b" and m.qid == 2][0]
        assert b2.unsupported


class TestReport:
    def make_measurements(self):
        return [
            measure("fast", 1, lambda: 5, repeats=1),
            measure("slow", 1, lambda: sum(range(200_000)), repeats=1),
            measure("fast", 2, lambda: 1, repeats=1),
            unsupported("slow", 2),
        ]

    def test_timing_table(self):
        text = timing_table(self.make_measurements(), "T")
        assert "Q1" in text and "Q2" in text
        assert "n/a" in text

    def test_log_bar_chart(self):
        text = log_bar_chart(self.make_measurements(), "Bars")
        assert "#" in text
        assert "n/a" in text

    def test_speedup_summary(self):
        text = speedup_summary(self.make_measurements(), "slow", "fast")
        assert "speedup" in text
        assert "1 queries" in text  # only Q1 comparable

    def test_speedup_no_overlap(self):
        text = speedup_summary([unsupported("a", 1), unsupported("b", 1)], "a", "b")
        assert "no comparable" in text

    def test_scaling_table(self):
        series = {"sys": [(0.5, 0.1), (1.0, 0.2)], "other": [(1.0, 0.4)]}
        text = scaling_table(series, "Scale")
        assert "0.5x" in text and "1x" in text
        assert "n/a" in text


class TestDatasets:
    def test_corpus_cached_and_deterministic(self):
        from repro.bench import datasets

        first = datasets.corpus("wsj", sentences=20)
        second = datasets.corpus("wsj", sentences=20)
        assert first is second  # lru_cache
        assert len(first) == 20

    def test_scaled_corpus(self):
        from repro.bench import datasets

        datasets.clear_caches()
        try:
            import os

            os.environ["REPRO_BENCH_SENTENCES"] = "20"
            scaled = datasets.scaled_corpus("wsj", 2.0)
            assert len(scaled) == 40
        finally:
            del os.environ["REPRO_BENCH_SENTENCES"]
            datasets.clear_caches()
