"""``paper_suite``: the 23 queries of Fig. 6(c) in a loop.

Execution-bound by construction: the plan cache holds all 23 plans after
the warm-up loop, so every timed op is a cache hit followed by the
columnar executor, its structural joins and kernels, and the segment
merge -- on the mmap engine the daemon serves, not the in-memory one.
"""

from __future__ import annotations

import subprocess
import sys

import layers
import queries as Q
from harness import Window, child_env, median, now
from spans import NO_TRACE
from workload import Workload, probe

QUERY_COUNT = len(Q.PAPER_QUERIES)
EXECUTE_NAMES = [f"columnar.execute_ms.q{i + 1:02d}" for i in range(QUERY_COUNT)]


class PaperSuite(Workload):
    name = "paper_suite"
    round_ops = QUERY_COUNT

    def setup(self, tracer=NO_TRACE):
        self.build_store(tracer)
        self.engine = self.open_engine(tracer)
        for text in Q.PAPER_QUERIES:  # fills the plan cache, loads kernels
            self.engine.query(text)

    def prepare_checks(self):
        counts = self.expected_counts(Q.PAPER_QUERIES)
        self.expected = [counts[text] for text in Q.PAPER_QUERIES]

    def run_window(self, seconds, tracer=NO_TRACE):
        window = Window()
        engine = self.engine
        self._answers = answers = []
        self._cache_before = engine.cache_stats()
        op = 0
        deadline = now() + seconds
        while now() < deadline:  # a round is one loop: the same mix every time
            window.begin_round()
            for index, text in enumerate(Q.PAPER_QUERIES):
                window.attempted += 1
                try:
                    begun = now()
                    with tracer.span("op", op):
                        rows = engine.query(text)
                    window.add("query", now() - begun)
                    answers.append((index, len(rows)))
                except Exception as error:  # noqa: BLE001 - counted, not fatal
                    window.fail(f"query raised {type(error).__name__}")
                op += 1
            window.end_round()
        self._cache_after = engine.cache_stats()
        return window

    def verify(self, window):
        for index, size in self._answers:
            if size != self.expected[index]:
                window.fail(f"Q{index + 1} count differs from treewalk")

    # -- per-layer -----------------------------------------------------------

    def probes(self, tracer, traced):
        metrics: dict = {}
        operations = layers.operation_breakdown(tracer, "op")
        by_query: dict[int, list[dict]] = {}
        for operation in operations:  # op ids count up through whole loops
            by_query.setdefault(operation["op_id"] % QUERY_COUNT, []).append(
                operation)

        def execute_layers():
            found = {
                name: median(op["execute"] for op in by_query[index]) * 1e3
                for index, name in enumerate(EXECUTE_NAMES)
            }
            found["columnar.rows_per_s"] = (
                sum(size for _index, size in self._answers)
                / sum(op["execute"] for op in operations))
            found["plan.cache_hit_us"] = median(
                op["compile"] for op in operations if op["cache_hit"]) * 1e6
            found.update(layers.cache_delta(self._cache_before, self._cache_after))
            return found

        probe(metrics, self.errors,
              EXECUTE_NAMES + ["columnar.rows_per_s", "plan.cache_hit_us",
                               "plan.cache_hit_rate", "plan.cache_evictions"],
              execute_layers)

        def fanout():
            # One suite loop's worth: per-query medians, summed.
            per_query = [
                layers.segment_metrics(by_query[index])
                for index in range(QUERY_COUNT)
            ]
            return {
                "plan.segment_sum_ms": sum(
                    part["plan.segment_sum_ms"] for part in per_query),
                "plan.fanout_merge_ms": sum(
                    part["plan.fanout_merge_ms"] for part in per_query),
                "plan.straggler_ratio": median(
                    part["plan.straggler_ratio"] for part in per_query),
            }

        probe(metrics, self.errors,
              ["plan.segment_sum_ms", "plan.fanout_merge_ms",
               "plan.straggler_ratio"], fanout)

        def cold_compile():
            self.engine.plan_cache.clear()
            for index, text in enumerate(Q.PAPER_QUERIES):
                with tracer.span("probe.cold_compile", -1 - index):
                    self.engine.compile(text)
            return layers.compile_layer_metrics(
                layers.operation_breakdown(tracer, "probe.cold_compile"))

        probe(metrics, self.errors,
              ["lpath.parse_us", "plan.lower_optimize_us",
               "columnar.physical_compile_us"], cold_compile)
        return metrics

    def offline_probes(self):
        metrics: dict = {}

        def labeling():
            from repro.labeling import label_corpus

            begun = now()
            for _row in label_corpus(self.trees):
                pass
            return {"labeling.label_s": now() - begun}

        probe(metrics, self.errors, ["labeling.label_s"], labeling)
        probe(metrics, self.errors, ["cli.import_ms", "cli.cold_query_ms"],
              self.cold_cli)
        if self.sizes.comparator_sentences:
            probe(metrics, self.errors,
                  ["columnar.suite_1k_s", "plan.volcano_suite_s", "xpath.suite_s",
                   "baselines.tgrep2_suite_s", "baselines.corpussearch_suite_s"],
                  self.comparators)
        return metrics

    def cold_cli(self) -> dict:
        """A linguist's one-off: fresh interpreter, open the store, run
        Q19, print the count.  Import cost is measured beside it so a
        slower cold query can be told from a slower import."""
        env = child_env()

        def fresh(*arguments) -> tuple[float, str]:
            begun = now()
            done = subprocess.run(
                [sys.executable, *arguments], env=env, capture_output=True,
                text=True, timeout=120, check=True,
            )
            return now() - begun, done.stdout

        runs = range(self.sizes.cold_cli_runs)
        bare = median(fresh("-c", "pass")[0] for _ in runs)
        imported = median(fresh("-c", "import repro.cli")[0] for _ in runs)
        expected = self.expected[Q.PAPER_QUERIES.index(Q.COLD_QUERY)]
        cold = []
        for _ in runs:
            seconds, output = fresh(
                "-m", "repro", "query", self.store_path, Q.COLD_QUERY,
                "--mmap", "--count")
            if int(output.strip()) != expected:
                raise AssertionError(f"cold CLI printed {output!r}")
            cold.append(seconds)
        return {"cli.import_ms": (imported - bare) * 1e3,
                "cli.cold_query_ms": median(cold) * 1e3}

    def comparators(self) -> dict:
        """Figs. 7 and 10 orderings on a small corpus, one pass each.
        Informational: single samples, never gated."""
        from repro import LPathEngine
        from repro.baselines.corpussearch import CorpusSearchEngine
        from repro.baselines.tgrep2 import TGrep2Engine
        from repro.corpus.generator import generate_corpus
        from repro.xpath.engine import XPathEngine

        trees = generate_corpus("wsj", self.sizes.comparator_sentences, self.seed)

        def suite(engine, texts) -> float:
            begun = now()
            for text in texts:
                engine.count(text)
            return now() - begun

        return {
            "columnar.suite_1k_s": suite(
                LPathEngine(trees, keep_trees=False, executor="columnar"),
                Q.PAPER_QUERIES),
            "plan.volcano_suite_s": suite(
                LPathEngine(trees, keep_trees=False), Q.PAPER_QUERIES),
            "xpath.suite_s": suite(
                XPathEngine(trees),
                [Q.PAPER_QUERIES[index] for index in Q.XPATH_SUPPORTED]),
            "baselines.tgrep2_suite_s": suite(
                TGrep2Engine(trees), Q.TGREP2_QUERIES),
            "baselines.corpussearch_suite_s": suite(
                CorpusSearchEngine(trees), Q.CORPUSSEARCH_QUERIES),
        }
