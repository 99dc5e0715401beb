"""Deterministic fault injection for the executor, store and serving layers.

The fault-tolerance machinery (store quarantine and load shedding in
:mod:`repro.serve`, retry/backoff in :class:`repro.serve.ServeClient`,
WAL recovery in :mod:`repro.live`) only earns trust when its failure
paths actually run.  This module turns them on deterministically: eight
*named injection points*, threaded through the code they exercise, fire
according to an environment spec ::

    REPRO_FAULTS=point:prob:seed[,point:prob:seed...]

    REPRO_FAULTS=segment_slow:1.0:7         # every segment run stalls
    REPRO_FAULTS=socket_reset:0.25:42       # a quarter of responses reset
    REPRO_FAULTS=mmap_read_error:0.5:3,segment_slow:0.5:3

The points and where they bite:

``segment_slow``
    Each segment run of a query sleeps :data:`SEGMENT_SLOW_SECONDS`
    first; segments run one after another, so a query over N segments
    can stall N times — exercises deadlines, queue growth and the
    circuit breaker without any wrong answers.
``mmap_read_error``
    A mapped :class:`repro.columnar.ColumnStore`'s read checkpoint raises
    ``OSError`` — the shape of a failing disk or a lost mapping; the
    daemon must classify it 503 and quarantine the store, never 500.
``socket_reset``
    The daemon abandons one ``/query``/``/batch`` response without
    writing a byte, so the client sees the connection die mid-request
    and must reconnect-and-retry.
``cache_poison``
    Rows being written to the serving result cache are corrupted
    *after* their integrity digest was taken — the cache's checksum
    must catch the poisoned entry on the way out and re-execute.
``torn_write``
    A live-store WAL append writes only a prefix of its framed record
    and dies (the shape of a crash mid-``write``) — recovery on the
    next open must truncate the torn tail instead of decoding garbage.
``fsync_fail``
    A durability-barrier ``fsync`` raises ``OSError`` — the writer must
    roll the unacknowledged bytes back and report the append failed,
    never acknowledge rows the disk did not accept.
``disk_full``
    A WAL append fails up front with ``ENOSPC`` — the store must stay
    clean (nothing written, nothing acknowledged) and the error must
    classify as transient.
``compactor_kill``
    The live-store compactor SIGKILLs itself at its next durability
    barrier — the crash-matrix tests run compaction in a subprocess and
    assert the store reopens with zero acknowledged-row loss.

Separately from the probabilistic schedule, ``REPRO_CRASH_POINT=<barrier>[:n]``
SIGKILLs the process the ``n``-th time a *named durability barrier*
(:func:`crash_point`) is crossed — the exhaustive
kill-at-every-barrier subprocess matrix drives this, one barrier per
child process, with no randomness at all.

Decisions are **seed-deterministic**: each point keeps a per-process
call counter and draws ``blake2b(point:seed:counter)`` against the
probability (a real hash, not a CRC — CRC32 is linear, so two seeds one
bit apart would produce correlated firing sequences), and the same spec
over the same (single-threaded) call sequence fires at exactly the same
calls every run — a chaos matrix can pin seeds and assert
byte-identical recovery.

This module imports only the standard library, so any layer (including
:mod:`repro.columnar.store`, which must stay import-light) can thread a
checkpoint through without cycles.  When ``REPRO_FAULTS`` is unset every
checkpoint is one dict lookup.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from typing import NamedTuple, Optional

FAULTS_ENV = "REPRO_FAULTS"
CRASH_ENV = "REPRO_CRASH_POINT"

FAULT_POINTS = (
    "segment_slow",
    "mmap_read_error",
    "socket_reset",
    "cache_poison",
    "torn_write",
    "fsync_fail",
    "disk_full",
    "compactor_kill",
)

#: How long a fired ``segment_slow`` sleeps.
SEGMENT_SLOW_SECONDS = 0.05


class FaultSpec(NamedTuple):
    """One activated injection point: fire with ``probability`` on each
    pass, drawn deterministically from ``seed`` and the call counter."""

    point: str
    probability: float
    seed: int


class FaultConfigError(ValueError):
    """A malformed ``REPRO_FAULTS`` value — a configuration error (the
    CLI exits 2), never a runtime crash."""


def parse_fault_specs(raw: str) -> dict[str, FaultSpec]:
    """Parse a ``point:prob:seed[,...]`` spec; raises
    :class:`FaultConfigError` with the offending part spelled out."""
    specs: dict[str, FaultSpec] = {}
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        fields = part.split(":")
        if len(fields) != 3:
            raise FaultConfigError(
                f"bad {FAULTS_ENV} entry {part!r}: expected point:prob:seed"
            )
        point, prob_text, seed_text = fields
        if point not in FAULT_POINTS:
            raise FaultConfigError(
                f"unknown fault point {point!r}; choose from "
                f"{', '.join(FAULT_POINTS)}"
            )
        try:
            probability = float(prob_text)
        except ValueError:
            raise FaultConfigError(
                f"bad {FAULTS_ENV} probability {prob_text!r} for {point}"
            ) from None
        if not 0.0 <= probability <= 1.0:
            raise FaultConfigError(
                f"{point} probability must be in [0, 1], got {probability}"
            )
        try:
            seed = int(seed_text)
        except ValueError:
            raise FaultConfigError(
                f"bad {FAULTS_ENV} seed {seed_text!r} for {point}"
            ) from None
        if point in specs:
            raise FaultConfigError(f"duplicate fault point {point!r}")
        specs[point] = FaultSpec(point, probability, seed)
    return specs


class Injector:
    """The active fault plan plus one call counter per point."""

    def __init__(self, specs: dict[str, FaultSpec]) -> None:
        self.specs = specs
        self._counts: dict[str, int] = {}
        self._lock = threading.Lock()

    def fires(self, point: str) -> bool:
        spec = self.specs.get(point)
        if spec is None:
            return False
        with self._lock:
            count = self._counts.get(point, 0)
            self._counts[point] = count + 1
        if spec.probability >= 1.0:
            return True
        if spec.probability <= 0.0:
            return False
        token = f"{point}:{spec.seed}:{count}".encode("ascii")
        digest = hashlib.blake2b(token, digest_size=8).digest()
        return int.from_bytes(digest, "big") / 2**64 < spec.probability

    def counts(self) -> dict[str, int]:
        """Checkpoint passes per point (fired or not) — observability."""
        with self._lock:
            return dict(self._counts)


#: The parsed injector for the current ``REPRO_FAULTS`` value, rebuilt
#: whenever the raw value changes (tests flip the env mid-process).
_ACTIVE: tuple[Optional[str], Optional[Injector]] = (None, None)
_ACTIVE_LOCK = threading.Lock()


def active_injector() -> Optional[Injector]:
    """The process's injector, or ``None`` when no faults are configured.
    Raises :class:`FaultConfigError` on a malformed spec."""
    raw = os.environ.get(FAULTS_ENV)
    if not raw:
        return None
    global _ACTIVE
    cached_raw, injector = _ACTIVE
    if cached_raw != raw:
        with _ACTIVE_LOCK:
            cached_raw, injector = _ACTIVE
            if cached_raw != raw:
                injector = Injector(parse_fault_specs(raw))
                _ACTIVE = (raw, injector)
    return injector


def fires(point: str) -> bool:
    """Advance ``point``'s counter and report whether it fires now."""
    injector = active_injector()
    return injector is not None and injector.fires(point)


def fault_counts() -> dict[str, int]:
    """Checkpoint passes per active point ({} when faults are off)."""
    injector = active_injector()
    return injector.counts() if injector is not None else {}


# -- the injection helpers, one per point ---------------------------------


def maybe_delay_segment() -> None:
    """``segment_slow``: stall one segment execution."""
    if fires("segment_slow"):
        time.sleep(SEGMENT_SLOW_SECONDS)


def maybe_mmap_read_error(injector: Optional[Injector] = None) -> None:
    """``mmap_read_error``: fail a mapped-store read the way a dying
    disk or a revoked mapping would.  A caller that passes checkpoints
    in a loop (one per plan step) resolves :func:`active_injector` once
    and hands the injector in, so only that costs an environment read."""
    if injector is None:
        injector = active_injector()
    if injector is not None and injector.fires("mmap_read_error"):
        raise OSError("injected fault: mmap read failed (mmap_read_error)")


def maybe_reset_socket() -> bool:
    """``socket_reset``: report whether the transport should abandon the
    current response (the daemon closes the connection unanswered)."""
    return fires("socket_reset")


def maybe_torn_write() -> bool:
    """``torn_write``: report whether the writer should tear the record
    it is about to persist (write a prefix, then act crashed)."""
    return fires("torn_write")


def maybe_fsync_fail() -> None:
    """``fsync_fail``: fail a durability barrier the way a dying disk or
    a thin-provisioned volume under pressure would."""
    if fires("fsync_fail"):
        raise OSError("injected fault: fsync failed (fsync_fail)")


def maybe_disk_full() -> None:
    """``disk_full``: refuse a write up front with ``ENOSPC``."""
    if fires("disk_full"):
        import errno

        raise OSError(
            errno.ENOSPC, "injected fault: no space left on device (disk_full)"
        )


def maybe_kill_compactor() -> None:
    """``compactor_kill``: SIGKILL the process at a compaction barrier —
    only meaningful when compaction runs in a sacrificial subprocess
    (the crash matrix) or when the whole daemon is the blast radius
    under test."""
    if fires("compactor_kill"):
        import signal

        os.kill(os.getpid(), signal.SIGKILL)


#: Per-process pass counters for :func:`crash_point` barriers.
_BARRIER_COUNTS: dict[str, int] = {}
_BARRIER_LOCK = threading.Lock()


def crash_point(name: str) -> None:
    """Cross the named durability barrier; SIGKILL the process when
    ``REPRO_CRASH_POINT=name[:n]`` selects this barrier's ``n``-th pass
    (1-based, default 1).

    This is the deterministic sibling of the probabilistic fault points:
    the kill-at-every-barrier matrix spawns one subprocess per
    ``(barrier, occurrence)`` pair and asserts the store reopens with
    zero acknowledged-row loss.  Unset, each barrier costs one dict
    lookup."""
    spec = os.environ.get(CRASH_ENV)
    if not spec:
        return
    point, _, nth_text = spec.partition(":")
    if point != name:
        return
    with _BARRIER_LOCK:
        count = _BARRIER_COUNTS.get(name, 0) + 1
        _BARRIER_COUNTS[name] = count
    try:
        nth = int(nth_text) if nth_text else 1
    except ValueError:
        raise FaultConfigError(
            f"bad {CRASH_ENV} occurrence {nth_text!r}; expected barrier[:n]"
        ) from None
    if count == nth:
        import signal

        os.kill(os.getpid(), signal.SIGKILL)


def poisoned_rows(rows):
    """``cache_poison``: the result to actually store in the result
    cache — ``rows`` itself, or when the point fires a copy with the
    first byte of its buffer flipped (an empty one gains a zero row
    first).  Callers digest the *original* first, modeling corruption
    that lands after the checksum was taken."""
    if not fires("cache_poison"):
        return rows
    blob = bytearray(rows.tobytes() or bytes(16))
    blob[0] ^= 0xFF
    return type(rows).frombytes(bytes(blob))
