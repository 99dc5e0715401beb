"""A small LRU plan cache.

Each engine keeps one cache keyed on the *unparsed* query text (plus any
compile options such as ``pivot``), so the repeated-query loops of the
fig6/fig9 benchmarks skip parsing, lowering and optimization entirely.
Compiled plans are stateless closure trees and re-iterable, so sharing one
plan across executions is safe.

The physical-join choice (probe vs. structural merge) is derived from the
engine's collected statistics, which are immutable for a loaded corpus —
so cached plans can never go stale from the cost model.  The only mutable
input is the ``REPRO_FORCE_JOIN`` override, which therefore participates
in the cache key.

The cache is thread-safe: a query daemon's handler threads share one
engine, so the LRU reorder, the eviction sweep and the
hit/miss/eviction/rebase counters all run under one lock — concurrent
lookups can never corrupt the ``OrderedDict`` or tear a :attr:`PlanCache.stats`
snapshot.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from typing import Hashable, Optional

from ..columnar.kernels.api import kernels_backend


class PlanCache:
    """A lock-protected LRU cache with hit/miss/eviction statistics."""

    def __init__(self, maxsize: int = 128) -> None:
        if maxsize < 0:
            raise ValueError("maxsize must be >= 0")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: Hits a segmented compiler moved onto its own segment list
        #: (:func:`cached_compile`); :mod:`repro.live` reports the sum.
        self.rebased = 0
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: Hashable) -> Optional[object]:
        """The cached plan for ``key``, or ``None`` (counts a miss)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def put(self, key: Hashable, plan: object, rebased: bool = False) -> None:
        """Insert (or refresh) an entry, evicting the least recently used;
        ``rebased`` counts the plan as a rebased hit."""
        with self._lock:
            self.rebased += rebased
            if self.maxsize == 0:
                return
            self._entries[key] = plan
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.evictions += 1

    def carry(self, keep) -> "PlanCache":
        """A new cache with fresh statistics sharing, in LRU order, the
        plans ``keep(plan)`` accepts — what the next snapshot engine of a
        live corpus starts from (:mod:`repro.live`)."""
        carried = PlanCache(self.maxsize)
        with self._lock:
            carried._entries.update(
                (key, plan) for key, plan in self._entries.items()
                if keep(plan)
            )
        return carried

    def clear(self) -> None:
        """Invalidate every entry and reset the statistics."""
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0
            self.rebased = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    @property
    def stats(self) -> dict[str, int]:
        """A consistent counter snapshot (taken under the lock, so a
        concurrent ``put`` can never tear hits against size)."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "size": len(self._entries),
                "maxsize": self.maxsize,
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<PlanCache size={len(self)}/{self.maxsize} hits={self.hits} "
            f"misses={self.misses} evictions={self.evictions}>"
        )


def compile_options_key(
    query, pivot: bool, limit: Optional[int] = None, agg: Optional[str] = None,
) -> tuple:
    """The tuple of everything a compiled plan's output depends on: the
    unparsed query text plus every compile option — ``pivot``, the top-k
    ``limit``, the ``agg`` operation, the ``REPRO_FORCE_JOIN`` override
    and the resolved ``REPRO_KERNELS`` backend.  Shared between the per-engine plan cache and the serving
    layer's result cache (:mod:`repro.serve`), so the two caches can
    never disagree about which knobs distinguish two executions.
    Resolving the kernel backend raises
    :class:`~repro.lpath.errors.LPathError` on an invalid or
    forced-but-unavailable ``REPRO_KERNELS`` value."""
    return (
        (query if isinstance(query, str) else str(query)),
        pivot,
        limit,
        agg,
        os.environ.get("REPRO_FORCE_JOIN") or None,
        kernels_backend(),
    )


def cached_compile(
    cache: PlanCache, compiler, query, pivot: bool = False,
    limit: Optional[int] = None, agg: Optional[str] = None,
):
    """Compile ``query`` through ``cache``, keyed on
    :func:`compile_options_key`, so a warm hit can never return a plan
    compiled for the other join order, the other physical-join mode, the
    other kernel backend (plans bind their backend at compile time), or a
    different limit/aggregate wrapper.

    The lookup happens before any parsing, so a warm hit skips the whole
    parse → lower → optimize pipeline; AST queries key on their unparse,
    which round-trips, so they share entries with their textual form.

    A compiler with a ``rebase`` method (the segmented one) gets to
    bring a hit up to date first: an engine of a live corpus starts from
    its predecessor's plans, compiled for the predecessor's segments.
    """
    key = compile_options_key(query, pivot, limit=limit, agg=agg)
    cached = cache.get(key)
    if cached is not None:
        rebase = getattr(compiler, "rebase", None)
        if rebase is None:
            return cached
        current = rebase(cached)
        if current is not cached:
            cache.put(key, current, rebased=True)
        return current
    compiled = compiler.compile(query, pivot=pivot, limit=limit, agg=agg)
    cache.put(key, compiled)
    return compiled
