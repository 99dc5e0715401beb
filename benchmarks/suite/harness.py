"""Shared plumbing for the four workloads: sizes, the work directory,
statistics, the treewalk oracle and the window/result containers.

The product is imported lazily (after :func:`bootstrap` has put
``src/`` on the path), so importing this module has no side effects.
"""

from __future__ import annotations

import collections
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

SUITE_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT_DIR = os.path.dirname(os.path.dirname(SUITE_DIR))
SRC_DIR = os.path.join(ROOT_DIR, "src")
#: Everything a run writes: a private directory per pass (stores, the
#: kernel build's temp files; removed when the pass ends) and the traced
#: passes' ``trace-<workload>.json``.  Inside the checkout because the
#: benchmark may write nowhere else; git-ignored.
WORK_ROOT = os.path.join(SUITE_DIR, ".work")

#: The CPUs this process may use, read before anything is pinned.
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []

DEFAULT_SEED = 20060403  # ICDE 2006

#: The value a per-layer metric takes in the driver's one-line result
#: when this workload does not exercise the layer or its probe failed
#: (documents written with ``--out`` carry ``null`` and the reason).
NOT_MEASURED = -1.0


@dataclass(frozen=True)
class Sizes:
    """Everything that scales a run.  Two instances exist: the measured
    configuration and the tier-1 smoke configuration."""

    label: str
    sentences: int          # WSJ-profile sentences in every corpus
    setup_repeats: int      # set-ups per untraced run (median -> setup_s)
    warm_adhoc: int         # adhoc texts run before the window opens
    cold_cli_runs: int      # fresh-process CLI queries (traced pass)
    comparator_sentences: int  # corpus of the paper-shape comparators
    live_compact_rows: int  # LiveEngineManager(compact_rows=...)
    live_batch_pool: int    # distinct 5-tree append batches, cycled
    service_replay_ops: int  # in-process QueryService replay length


FULL = Sizes(
    label="full", sentences=5000, setup_repeats=5, warm_adhoc=300,
    cold_cli_runs=5, comparator_sentences=1000, live_compact_rows=3000,
    live_batch_pool=64, service_replay_ops=1500,
)
SMOKE = Sizes(
    label="smoke", sentences=200, setup_repeats=1, warm_adhoc=20,
    cold_cli_runs=1, comparator_sentences=0, live_compact_rows=300,
    live_batch_pool=8, service_replay_ops=60,
)


# -- process environment -----------------------------------------------------


def pin_this_thread(cpu: int) -> None:
    """Keep the calling thread, and the threads and child processes it
    starts from now on (the daemon, the cold CLI runs), on one CPU.
    Without it the scheduler decides which core's weather a run gets."""
    try:
        os.sched_setaffinity(0, {cpu})  # pid 0 is the calling *thread*
    except (AttributeError, OSError):
        pass  # not Linux, or not allowed here: run unpinned


def bootstrap() -> str:
    """Put the product on ``sys.path``, pin this thread to the first CPU
    it may use, and keep every temporary file the product creates (the
    kernel build, mostly) inside the checkout.  Returns this run's
    private work directory."""
    if not os.path.isdir(os.path.join(SRC_DIR, "repro")):
        raise SystemExit(
            f"benchmark needs the product source at {SRC_DIR}; "
            "this directory holds only the benchmark"
        )
    if SRC_DIR not in sys.path:
        sys.path.insert(0, SRC_DIR)
    if CPUS:
        pin_this_thread(CPUS[0])
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"run-{os.getpid()}-", dir=WORK_ROOT)
    os.environ["TMPDIR"] = work
    tempfile.tempdir = work
    return work


def child_env() -> dict:
    """Environment for the daemon and CLI children: the product on
    ``PYTHONPATH``, temp files in the work directory (inherited)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def remove_work(work: str) -> None:
    """Delete this run's work directory.  The (git-ignored, empty) root
    stays: removing it would race a concurrent pass creating its own."""
    shutil.rmtree(work, ignore_errors=True)


def peak_rss_mb() -> float:
    """Peak resident set of this process and of every child it has
    waited for, whichever is larger (Linux reports KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def directory_bytes(path: str) -> int:
    if os.path.isfile(path):
        return os.path.getsize(path)
    total = 0
    for base, _dirs, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(base, name))
    return total


def provenance(seed: int, sizes: Sizes, seconds: float) -> dict:
    """What a result document must carry to be comparable with another."""
    from repro.columnar.kernels import kernel_info

    kernels = kernel_info()
    try:
        compiler = subprocess.run(
            ["cc", "--version"], capture_output=True, text=True, timeout=10
        ).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.SubprocessError):
        compiler = None
    sha = None
    if os.path.exists(os.path.join(ROOT_DIR, ".git")):  # never a parent's repo
        try:
            sha = subprocess.run(
                ["git", "-C", ROOT_DIR, "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "kernel_backend": kernels["backend"],
        "cffi": kernels["cffi"],
        "compiler": compiler,
        "seed": seed,
        "sizes": sizes.label,
        "sentences": sizes.sentences,
        "window_seconds": seconds,
        "setup_repeats": sizes.setup_repeats,
        "git_sha": sha,
    }


# -- statistics --------------------------------------------------------------


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of unsorted ``values``."""
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(fraction * len(ordered))))
    return ordered[rank]


def median(values: Iterable[float]) -> float:
    """Median; raises ``statistics.StatisticsError`` on no data, which a
    per-layer probe turns into "not measured"."""
    return statistics.median(list(values))


class Window:
    """The samples of one timed window, taken in *rounds*.

    A round is one fixed portion of the workload's op mix (one loop of
    the 23 queries, 200 lexical texts, ...), timed from its first op to
    its last with the generator's own work between rounds left out.
    ``rounds`` holds ``(wall seconds, [op seconds, ...])`` per round and
    ``samples`` ``(kind, seconds)`` per completed op; ``failed`` counts
    ops that raised, were refused or answered wrongly (they stay in
    ``attempted`` and are never dropped from it).

    The reported numbers are medians over the rounds.  This box's cores
    run 1.1x to 1.5x slower for a second or three at a time; a mean over
    the whole window moves with how many such stretches it caught, the
    median round does not as long as most rounds ran undisturbed."""

    def __init__(self, clients: int = 1) -> None:
        self.clients = clients  # closed loops running rounds side by side
        self.samples: list[tuple[str, float]] = []
        self.rounds: list[tuple[float, list[float]]] = []
        self.attempted = 0
        self.failed = 0
        self.failures: collections.Counter = collections.Counter()
        self._open: list[float] = []
        self._began = 0.0

    def begin_round(self) -> None:
        self._open = []
        self._began = now()

    def add(self, kind: str, seconds: float) -> None:
        self.samples.append((kind, seconds))
        self._open.append(seconds)

    def end_round(self) -> None:
        ended = now()
        if self._open:
            self.rounds.append((ended - self._began, self._open))

    def fail(self, reason: str, amount: int = 1) -> None:
        self.failed += amount
        self.failures[reason] += amount

    def merge(self, other: "Window") -> None:
        self.samples.extend(other.samples)
        self.rounds.extend(other.rounds)
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures.update(other.failures)

    def seconds(self, kind: Optional[str] = None) -> list[float]:
        return [
            sample[1] for sample in self.samples
            if kind is None or sample[0] == kind
        ]

    def summary(self) -> dict[str, float]:
        """Wall-clock throughput, median and p95 latency: each taken per
        round, then the median over the rounds."""
        return {
            "ops_per_s": self.clients * median(
                len(latencies) / wall for wall, latencies in self.rounds),
            "p50_ms": median(
                median(latencies) for _wall, latencies in self.rounds) * 1e3,
            "p95_ms": median(
                percentile(latencies, 0.95) for _wall, latencies in self.rounds
            ) * 1e3,
        }


# -- the oracle --------------------------------------------------------------


class Lexicon:
    """Word and tag statistics of a generated corpus, read straight off
    the trees (no product code beyond the tree accessors): occurrence
    counts and, per word, the nodes that carry it and their trees."""

    def __init__(self, trees) -> None:
        self.nodes_with: dict[str, list] = collections.defaultdict(list)
        self.trees_with: dict[str, list] = collections.defaultdict(list)
        tags = set()
        for tree in trees:
            seen = set()
            for node in tree.nodes:
                tags.add(node.label)
                word = node.word
                if word is not None:
                    self.nodes_with[word].append(node)
                    if word not in seen:
                        seen.add(word)
                        self.trees_with[word].append(tree)
        # Only names the LPath lexer reads as one plain name token.
        self.tags = sorted(tag for tag in tags if tag.replace("-", "A").isalnum()
                           and tag[0].isalpha())
        self._evaluators: dict[str, object] = {}
        self._tids: dict[str, frozenset] = {}

    def rare_words(self, count: int) -> list[str]:
        """The ``count`` least frequent plain-alphanumeric words."""
        plain = [
            (len(nodes), word) for word, nodes in self.nodes_with.items()
            if word.isalnum()
        ]
        return sorted(word for _n, word in sorted(plain)[:count])

    def tids_with(self, word: str) -> frozenset:
        found = self._tids.get(word)
        if found is None:
            found = self._tids[word] = frozenset(
                tree.tid for tree in self.trees_with[word])
        return found

    def treewalk(self, text: str, word: str) -> list[tuple[int, int]]:
        """The reference answer to a query anchored at ``@lex=word``.

        Every step of such a query stays inside the anchor's tree, so
        walking only the trees that contain the word gives exactly the
        corpus-wide answer — in microseconds instead of a full scan."""
        from repro import TreeWalkEvaluator

        evaluator = self._evaluators.get(word)
        if evaluator is None:
            evaluator = TreeWalkEvaluator(self.trees_with[word])
            self._evaluators[word] = evaluator
        return [tuple(pair) for pair in evaluator.query(text)]


def treewalk_rows(trees, queries: Sequence[str]) -> dict[str, list]:
    """Reference result rows from the tree-walking evaluator, which
    shares no code with the plan/columnar path being timed."""
    from repro import TreeWalkEvaluator

    evaluator = TreeWalkEvaluator(list(trees))
    return {
        text: [tuple(pair) for pair in evaluator.query(text)]
        for text in queries
    }


def stop_process(process: subprocess.Popen, grace: float = 15.0) -> None:
    """Interrupt a child, wait for it, and kill it if it will not go."""
    import signal

    if process.poll() is None:
        process.send_signal(signal.SIGINT)
        try:
            process.wait(timeout=grace)
        except subprocess.TimeoutExpired:
            process.kill()
    process.wait()
    for stream in (process.stdout, process.stderr):
        if stream is not None:
            stream.close()


now = time.perf_counter
