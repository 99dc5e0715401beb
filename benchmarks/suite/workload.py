"""The life cycle every workload shares, and the pieces more than one
workload needs (the WSJ-profile store, the answer oracle, the lexical
query stream).

``run.py`` drives one workload object through::

    setup()            everything the *system* does before the first timed
                       op (generate, label, save, open, daemon, warm-up);
                       timed by the caller -> ``setup_s``
    prepare_checks()   the benchmark's own oracle work (treewalk answers)
                       -- not part of ``setup_s``
    run_window()       the closed-loop timed window, in whole rounds of
                       ``round_ops`` ops; answers are kept ...
    verify()           ... and checked after the window closes, so checking
                       never sits between two timed ops
    install_spans()    traced pass only: wrap the layer boundaries
    probes()           per-layer numbers that need the spans installed
    offline_probes()   per-layer numbers measured after they are removed
    close_checks()     end-of-run checks (durability) and final sizes
    teardown()         stop children, close engines, delete stores

End-to-end paths use only ``generate_corpus``, ``save_corpus``,
``format_tree``, ``LPathEngine.open/query/count/compile/plan_cache/
cache_stats/close``, ``LiveEngineManager``, ``ServeClient`` and the
``repro serve|query`` CLI.  Everything else a probe touches runs inside
:func:`probe`, so a renamed internal nulls one layer's metrics and
nothing more.
"""

from __future__ import annotations

import json
import os
import random
import shutil
from typing import Callable, Optional, Sequence

import layers
import queries as Q
from harness import (
    SUITE_DIR,
    Lexicon,
    Sizes,
    Window,
    directory_bytes,
    peak_rss_mb,
    treewalk_rows,
)
from spans import NO_TRACE, Tracer, timed

EXPECTED_PATH = os.path.join(SUITE_DIR, "expected.json")
STORE_SEGMENTS = 2
#: Share of lexical answers compared row for row with treewalk: of the
#: answers that hold rows, and of the empty ones.
ADHOC_SAMPLE_SHARE = {True: 0.05, False: 0.01}


def probe(
    metrics: dict, errors: dict, names: Sequence[str],
    measure: Callable[[], dict],
) -> None:
    """Run one per-layer probe in isolation: whatever it raises nulls
    exactly the metrics it was going to produce."""
    try:
        metrics.update(measure())
    except Exception as error:  # noqa: BLE001 - a probe must never cost the run
        for name in names:
            metrics[name] = None
            errors[name] = f"{type(error).__name__}: {error}"


def pinned_counts(seed: int, sentences: int) -> Optional[dict]:
    """The committed treewalk counts, when they are for this corpus."""
    try:
        with open(EXPECTED_PATH, encoding="utf-8") as handle:
            pinned = json.load(handle)
    except (OSError, ValueError):
        return None
    if pinned.get("seed") == seed and pinned.get("sentences") == sentences:
        return pinned["counts"]
    return None


class Workload:
    name = ""
    store_format = "lpdb0004"
    #: Timed ops per round (see :class:`harness.Window`).
    round_ops = 0

    def __init__(self, sizes: Sizes, seed: int, work: str) -> None:
        self.sizes = sizes
        self.seed = seed
        #: Per-layer numbers that fall out of set-up and the checks.
        self.layer: dict[str, Optional[float]] = {}
        #: ``metric name -> why it could not be measured``.
        self.errors: dict[str, str] = {}
        self.trees = None
        self.store_path = os.path.join(work, f"{self.name}.{self.store_format}")
        self.store_rows = 0
        self.lexicon: Optional[Lexicon] = None
        self._streams = 0

    # -- set-up pieces -------------------------------------------------------

    def build_store(self, tracer) -> None:
        from repro.corpus.generator import generate_corpus
        from repro.store import save_corpus

        self.trees, self.layer["corpus.generate_s"] = timed(
            tracer, "corpus.generate", generate_corpus,
            "wsj", self.sizes.sentences, self.seed,
        )
        # Labels and writes; labeling.label_s times the labelling alone.
        self.store_rows, self.layer["store.save_s"] = timed(
            tracer, "store.save", save_corpus, self.trees, self.store_path,
            segments=STORE_SEGMENTS, format=self.store_format,
        )
        self.layer["store.bytes"] = float(directory_bytes(self.store_path))

    def open_engine(self, tracer):
        from repro import LPathEngine

        engine, seconds = timed(
            tracer, "store.open", LPathEngine.open, self.store_path)
        self.layer["store.open_ms"] = seconds * 1e3
        return engine

    # -- oracle pieces -------------------------------------------------------

    def expected_counts(self, texts: Sequence[str]) -> dict[str, int]:
        """Treewalk counts for ``texts`` over the base corpus: the pinned
        ones for the default seed, derived now for any other."""
        pinned = pinned_counts(self.seed, self.sizes.sentences)
        if pinned is not None and all(text in pinned for text in texts):
            return {text: pinned[text] for text in texts}
        rows = treewalk_rows(self.trees, texts)
        return {text: len(found) for text, found in rows.items()}

    def adhoc_texts(self):
        """A fresh seeded stream of distinct lexical queries (the streams
        of one run use different seeds, so they do not share texts beyond
        chance)."""
        self._streams += 1
        return Q.adhoc_stream(
            {word: self.lexicon.nodes_with[word]
             for word in self.lexicon.rare_words(Q.ADHOC_RARE_WORDS)},
            self.lexicon.tags, self.seed * 1000 + self._streams,
        )

    def check_adhoc(self, window: Window, answers) -> None:
        """``answers`` holds ``(text, anchor word, rows)``.  Every answer
        must lie inside the trees that contain its anchor word; a seeded
        sample must equal treewalk row for row."""
        sampler = random.Random(self.seed + 17)
        nonempty = 0
        for text, word, rows in answers:
            allowed = self.lexicon.tids_with(word)
            if any(tid not in allowed for tid, _node in rows):
                window.fail("adhoc answer outside the anchor word's trees")
            nonempty += bool(rows)
            if (sampler.random() < ADHOC_SAMPLE_SHARE[bool(rows)]
                    and self.lexicon.treewalk(text, word)
                    != [tuple(row) for row in rows]):
                window.fail("adhoc answer differs from treewalk")
        if answers:
            self.layer["adhoc.nonempty_share"] = nonempty / len(answers)

    # -- life cycle ------------------------------------------------------------

    def setup(self, tracer=NO_TRACE) -> None:
        raise NotImplementedError

    def prepare_checks(self) -> None:
        """Derive the reference answers (treewalk); not part of set-up."""

    def run_window(self, seconds: float, tracer=NO_TRACE) -> Window:
        raise NotImplementedError

    def verify(self, window: Window) -> None:
        raise NotImplementedError

    def install_spans(self, tracer: Tracer) -> None:
        """Wrap the engine's layer boundaries (in-process engines only)."""
        for span_name, error in layers.install_engine_spans(tracer).items():
            self.errors[f"span:{span_name}"] = error

    def probes(self, tracer: Tracer, traced: Window) -> dict:
        return {}

    def offline_probes(self) -> dict:
        return {}

    def close_checks(self, window: Window) -> None:
        """End-of-run checks; failures land in ``window``."""

    def peak_rss_mb(self) -> float:
        """Read after teardown, when the children have been reaped."""
        return peak_rss_mb()

    def store_bytes_per_node(self) -> float:
        return directory_bytes(self.store_path) / self.store_rows

    def teardown(self) -> None:
        engine = getattr(self, "engine", None)
        if engine is not None:
            engine.close()
            self.engine = None
        if os.path.isdir(self.store_path):
            shutil.rmtree(self.store_path, ignore_errors=True)
        elif os.path.exists(self.store_path):
            os.unlink(self.store_path)
        self.trees = None
