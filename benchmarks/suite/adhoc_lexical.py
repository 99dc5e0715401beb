"""``adhoc_lexical``: thousands of never-seen lexical queries, each once.

Compile-bound by construction: every text is new, so every op misses
the 128-entry plan cache and pays parse + lower/optimize + physical
compile; execution starts from a rare word's value-index probe and
touches a handful of rows.  The same plan layer as ``paper_suite``, used
the other way round (miss instead of hit).
"""

from __future__ import annotations

import itertools

import layers
from harness import Lexicon, Window, median, now
from spans import NO_TRACE
from workload import Workload, probe


class AdhocLexical(Workload):
    name = "adhoc_lexical"
    round_ops = 200

    def setup(self, tracer=NO_TRACE):
        self.build_store(tracer)
        self.engine = self.open_engine(tracer)
        # The query generator's input: rare words and tags, read off the
        # trees (not the engine).
        self.lexicon = Lexicon(self.trees)
        warm = self.adhoc_texts()
        for _ in range(self.sizes.warm_adhoc):
            self.engine.query(next(warm)[0])

    def run_window(self, seconds, tracer=NO_TRACE):
        window = Window()
        engine = self.engine
        texts = self.adhoc_texts()
        self._answers = answers = []
        self._cache_before = engine.cache_stats()
        op = 0
        deadline = now() + seconds
        while now() < deadline:
            batch = list(itertools.islice(texts, self.round_ops))  # off the clock
            window.begin_round()
            for text, word in batch:
                window.attempted += 1
                try:
                    begun = now()
                    with tracer.span("op", op):
                        rows = engine.query(text)
                    window.add("query", now() - begun)
                    answers.append((text, word, rows))
                except Exception as error:  # noqa: BLE001 - counted, not fatal
                    window.fail(f"query raised {type(error).__name__}")
                op += 1
            window.end_round()
        self._cache_after = engine.cache_stats()
        self._last_text = text
        return window

    def verify(self, window):
        self.check_adhoc(window, self._answers)

    def probes(self, tracer, traced):
        metrics: dict = {}
        operations = layers.operation_breakdown(tracer, "op")

        def compile_layers():
            found = layers.compile_layer_metrics(operations)
            busy = sum(op["execute"] for op in operations)
            found["columnar.execute_us"] = median(
                op["execute"] for op in operations) * 1e6
            found["columnar.rows_per_s"] = (
                sum(len(rows) for _text, _word, rows in self._answers) / busy)
            found["adhoc.compile_share"] = (
                sum(op["compile"] for op in operations)
                / sum(op["total"] for op in operations))
            found.update(layers.cache_delta(self._cache_before, self._cache_after))
            return found

        probe(metrics, self.errors,
              ["lpath.parse_us", "plan.lower_optimize_us",
               "columnar.physical_compile_us", "columnar.execute_us",
               "columnar.rows_per_s", "adhoc.compile_share",
               "plan.cache_hit_rate", "plan.cache_evictions"], compile_layers)
        return metrics

    def offline_probes(self):
        metrics: dict = {}

        def cache_hit():
            # The window's last text is still among the 128 cached plans.
            timings = []
            for _ in range(200):
                begun = now()
                self.engine.compile(self._last_text)
                timings.append(now() - begun)
            return {"plan.cache_hit_us": median(timings) * 1e6}

        probe(metrics, self.errors, ["plan.cache_hit_us"], cache_hit)
        return metrics
