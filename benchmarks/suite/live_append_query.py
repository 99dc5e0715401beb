"""``live_append_query``: the write path beside the read path.

One thread drives a ``LiveEngineManager`` in a fixed interleave: one
append of five Switchboard-profile trees that counts as done only once a
query sees it (append -> visible), then four tag-only reads.  The
background compactor folds the WAL into new base segments several times
per window, so the sawtooth (an append costs more as the in-memory delta
grows) and the compaction stalls land in the upper percentiles: with one
op in five an append, ``op.p50_ms`` is a read and ``op.p95_ms`` an
append.  The run ends with close -> read-only reopen -> every
acknowledged token is still there exactly once.
"""

from __future__ import annotations

import os

import layers
import queries as Q
from harness import (
    Window,
    directory_bytes,
    median,
    now,
    peak_rss_mb,
    percentile,
    treewalk_rows,
)
from spans import NO_TRACE
from workload import Workload, probe

TREES_PER_APPEND = 5
#: One append and four reads, this many times, make a round: about one
#: compaction cycle (3 000 delta rows are some 24 appends), so every
#: round holds the same stretch of the sawtooth and one compaction.
INTERLEAVES_PER_ROUND = 25
#: Stands in for each append's unique word until the append is issued.
TOKEN = "zzbenchtoken"
#: Every append leaves a retired engine behind (the manager keeps them for
#: 30 s), so memory grows with the appends a window gets through, and that
#: number moves with the machine's speed.  Peak RSS is therefore read when
#: this many appends have been acknowledged: the same state in every run.
RSS_AFTER_APPENDS = 60


class LiveAppendQuery(Workload):
    name = "live_append_query"
    round_ops = INTERLEAVES_PER_ROUND * (1 + len(Q.LIVE_READS))
    store_format = "lpdb0005"

    def setup(self, tracer=NO_TRACE):
        from repro.corpus.generator import generate_corpus
        from repro.live import LiveEngineManager
        from repro.tree.bracket import format_tree

        self.build_store(tracer)
        self.layer["live.create_s"] = self.layer["store.save_s"]
        self.manager = LiveEngineManager(
            self.store_path, compact_rows=self.sizes.live_compact_rows)
        spoken = generate_corpus(
            "swb", TREES_PER_APPEND * self.sizes.live_batch_pool, self.seed + 1)
        self.batches = [
            spoken[start:start + TREES_PER_APPEND]
            for start in range(0, len(spoken), TREES_PER_APPEND)
        ]
        self.batch_texts = []
        for batch in self.batches:  # the reads are tag-only: a word is free
            batch[0].leaves()[0].attributes["lex"] = TOKEN
            self.batch_texts.append("\n".join(format_tree(tree) for tree in batch))
        self.appended: list[int] = []   # batch index of every acked append
        self.acked: list[str] = []      # ... and its unique token
        self.sequence = 0
        self.rss_checkpoint = None
        for _ in range(2):              # warm the read plans and one append
            for text in Q.LIVE_READS:
                self.manager.engine.query(text)
        self.append_visible(Window(), NO_TRACE)
        # The directory as created plus that one append: the same state in
        # every run.  How many appends a window gets through, and so what
        # the directory holds at the end, moves with the machine's speed
        # (that is ``live.final_bytes_per_row``).
        self.created_bytes_per_node = self.directory_bytes_per_row()

    def directory_bytes_per_row(self) -> float:
        status = self.manager.status()
        return directory_bytes(self.store_path) / (
            status["base_rows"] + status["delta_rows"])

    def prepare_checks(self):
        self.base_counts = self.expected_counts(Q.LIVE_READS)
        self.batch_counts = [
            {text: len(rows)
             for text, rows in treewalk_rows(batch, Q.LIVE_READS).items()}
            for batch in self.batches
        ]
        self._running = [dict(self.base_counts)]  # read totals after n appends

    def append_visible(self, window, tracer):
        """One append -> visible operation.  Returns ``(delta rows before,
        compacting before, seconds, label rows appended)`` or ``None`` when
        the append was not acknowledged."""
        manager = self.manager
        token = f"zzbench{self.sequence}"
        batch = self.sequence % len(self.batch_texts)
        self.sequence += 1
        text = self.batch_texts[batch].replace(TOKEN, token)
        probe_text = f"//_[@lex={token}]"
        delta_rows = manager.corpus.delta_row_count
        compacting = manager.compacting
        window.attempted += 1
        try:
            begun = now()
            with tracer.span("live.append_visible", self.sequence):
                with tracer.span("live.manager_append"):
                    acknowledged = manager.append_trees(text)
                with tracer.span("live.visible_query"):
                    visible = manager.engine.count(probe_text)
            seconds = now() - begun
        except Exception as error:  # noqa: BLE001 - an unacknowledged append
            window.fail(f"append raised {type(error).__name__}")
            return None
        self.appended.append(batch)
        self.acked.append(token)
        if len(self.acked) == RSS_AFTER_APPENDS:
            self.rss_checkpoint = peak_rss_mb()
        window.add("append", seconds)
        if visible != 1:
            window.fail("appended token not visible exactly once")
        return delta_rows, compacting, seconds, acknowledged["rows"]

    def run_window(self, seconds, tracer=NO_TRACE):
        window = Window()
        manager = self.manager
        self._reads = reads = []              # (appends so far, text, size)
        self._append_facts = append_facts = []
        self._read_facts = read_facts = []    # (compacting before, seconds)
        self._compactions: dict[int, float] = {}  # generation -> seconds
        self._wal_bytes = self._wal_rows = 0
        compactions_before = manager.compactions
        deadline = now() + seconds
        while now() < deadline:
            window.begin_round()
            for _ in range(INTERLEAVES_PER_ROUND):
                wal_before = self.wal_size()
                fact = self.append_visible(window, tracer)
                if fact is not None:
                    append_facts.append(fact)
                    grown = self.wal_size() - wal_before
                    if grown > 0:  # a WAL rotation in between shrinks the file
                        self._wal_bytes += grown
                        self._wal_rows += fact[3]
                for text in Q.LIVE_READS:
                    window.attempted += 1
                    compacting = manager.compacting
                    try:
                        begun = now()
                        rows = manager.engine.query(text)
                        elapsed = now() - begun
                    except Exception as error:  # noqa: BLE001 - counted
                        window.fail(f"read raised {type(error).__name__}")
                        continue
                    window.add("read", elapsed)
                    reads.append((len(self.appended), text, len(rows)))
                    read_facts.append((compacting, elapsed))
                last = manager.last_compaction
                if last and last.get("compacted_rows"):
                    self._compactions[last["generation"]] = last["seconds"]
            window.end_round()
        self.layer["live.compactions"] = float(
            manager.compactions - compactions_before)
        return window

    def wal_size(self) -> int:
        try:
            return os.path.getsize(self.manager.corpus.wal_path)
        except OSError:  # rotated away between the property and the stat
            return 0

    def verify(self, window):
        for appends, text, size in self._reads:
            if size != self.read_totals(appends)[text]:
                window.fail("live read differs from treewalk")

    def read_totals(self, appends: int) -> dict[str, int]:
        """Treewalk counts of the reads after the first ``appends`` acked
        appends: base corpus plus each appended batch (queries never
        cross trees, so counts add)."""
        running = self._running
        while len(running) <= appends:
            batch = self.batch_counts[self.appended[len(running) - 1]]
            running.append(
                {text: running[-1][text] + batch[text] for text in Q.LIVE_READS})
        return running[appends]

    def close_checks(self, window):
        """Durability: close, reopen read-only, and every acknowledged
        append must be there exactly once, with the reads still right."""
        from repro import LPathEngine

        status = self.manager.status()
        self.manager.close()
        self.manager = None
        self.layer["live.final_bytes_per_row"] = directory_bytes(self.store_path) / (
            status["base_rows"] + status["delta_rows"])
        begun = now()
        engine = LPathEngine.open(self.store_path)
        self.layer["live.reopen_ms"] = (now() - begun) * 1e3
        lost = 0
        try:
            for token in self.acked:
                window.attempted += 1
                if engine.count(f"//_[@lex={token}]") != 1:
                    lost += 1
            totals = self.read_totals(len(self.appended))
            for text in Q.LIVE_READS:
                window.attempted += 1
                if engine.count(text) != totals[text]:
                    window.fail("reopened read differs from treewalk")
        finally:
            engine.close()
        if lost:
            window.fail("acknowledged append lost after reopen", lost)
        self.layer["live.durable_share"] = 1.0 - lost / len(self.acked)

    def peak_rss_mb(self):
        return self.rss_checkpoint or peak_rss_mb()

    def store_bytes_per_node(self):
        return self.created_bytes_per_node

    # -- per-layer -----------------------------------------------------------

    def install_spans(self, tracer):
        super().install_spans(tracer)
        try:
            tracer.wrap(self.manager.corpus, "append_trees", "live.wal_append")
        except AttributeError as error:
            self.errors["span:live.wal_append"] = str(error)

    def probes(self, tracer, traced):
        metrics: dict = {}

        def append_layers():
            durations, own = tracer.durations(), tracer.self_times()
            return {
                "live.wal_append_ms": median(durations["live.wal_append"]) * 1e3,
                # manager.append_trees minus the WAL write it contains
                "live.engine_swap_ms": median(own["live.manager_append"]) * 1e3,
                "live.visible_query_ms":
                    median(durations["live.visible_query"]) * 1e3,
            }

        probe(metrics, self.errors,
              ["live.wal_append_ms", "live.engine_swap_ms",
               "live.visible_query_ms"], append_layers)
        # Every visibility query is a never-seen text on a fresh engine:
        # the same compile layers adhoc_lexical measures, met on another road.
        probe(metrics, self.errors,
              ["lpath.parse_us", "plan.lower_optimize_us",
               "columnar.physical_compile_us"],
              lambda: layers.compile_layer_metrics(
                  layers.operation_breakdown(tracer, "live.append_visible")))

        def per_kind():
            appends = traced.seconds("append")
            return {
                "live.append_visible_p50_ms": median(appends) * 1e3,
                "live.append_visible_p95_ms": percentile(appends, 0.95) * 1e3,
                "live.read_p50_ms": median(traced.seconds("read")) * 1e3,
            }

        probe(metrics, self.errors,
              ["live.append_visible_p50_ms", "live.append_visible_p95_ms",
               "live.read_p50_ms"], per_kind)

        def sawtooth():
            # An append early in a compaction cycle against one late in it.
            limit = self.sizes.live_compact_rows
            early = [fact[2] for fact in self._append_facts if fact[0] < 0.1 * limit]
            late = [fact[2] for fact in self._append_facts if fact[0] >= 0.9 * limit]
            return {"live.append_growth_ratio": median(late) / median(early)}

        probe(metrics, self.errors, ["live.append_growth_ratio"], sawtooth)
        probe(metrics, self.errors, ["live.compact_s"],
              lambda: {"live.compact_s": median(self._compactions.values())})

        def stall():
            stalled = [s for busy, s in self._read_facts if busy]
            quiet = [s for busy, s in self._read_facts if not busy]
            return {"live.read_stall_ratio": median(stalled) / median(quiet)}

        probe(metrics, self.errors, ["live.read_stall_ratio"], stall)
        probe(metrics, self.errors, ["live.wal_bytes_per_row"],
              lambda: {"live.wal_bytes_per_row": self._wal_bytes / self._wal_rows})
        return metrics

    def teardown(self):
        manager = getattr(self, "manager", None)
        if manager is not None:
            manager.close()
            self.manager = None
        super().teardown()
