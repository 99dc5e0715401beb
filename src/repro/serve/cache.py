"""The serving layer's result cache.

A long-lived daemon sees the same hot queries over and over (the fig6b
"rare tag" pattern: many users, few distinct queries), so the service
memoizes *result sets*, not just compiled plans.  The cache is a
:class:`~repro.plan.cache.PlanCache` — the same lock-protected LRU with
hit/miss/eviction counters the engines use for plans — and every entry
is **one buffer** behind one interface — ``pairs`` (the buffer),
``len`` (its result rows), ``tobytes``/``frombytes`` and ``encode`` (its
JSON bytes): a :class:`~repro.columnar.result.ResultBatch` (the packed
``(tid, id)`` pairs exactly as the executor emitted them, 16 bytes a
row; a page is a slice of it) or an :class:`EncodedAggregate` (the JSON
bytes of an aggregate's sorted ``[group, count]`` pairs, no rows).

Keying mirrors :func:`repro.plan.cache.compile_options_key` and adds the
serving dimensions: the **store fingerprint**
(:func:`repro.store.store_fingerprint` — content-derived, so two daemons
serving byte-identical copies share semantics, and replacing the file on
disk can never serve stale rows after a reload) and the **dialect**.
The kernel backend and the ``REPRO_FORCE_JOIN`` override stay in the key
even though every backend must return identical rows: the differential
test layer deliberately queries the same store under both backends, and
a result cached under one backend must never mask a divergence in the
other.

Every entry additionally carries a CRC-32 **integrity digest** of that
buffer, taken at insert time and re-checked on every hit: a poisoned or
torn entry (the ``cache_poison`` fault point in :mod:`repro.faults`, or
any real in-process corruption) is dropped and served as a miss — the
query re-executes and the ``integrity_failures`` counter records the save.
The cache can return a stale-but-correct result or nothing; it can
never return corrupted rows.
"""

from __future__ import annotations

import json
import zlib
from typing import Optional

from ..faults import poisoned_rows
from ..plan.cache import PlanCache, compile_options_key


class EncodedAggregate:
    """An aggregate result in its cached form: the JSON bytes of its
    sorted ``[group, count]`` pairs, held in ``pairs`` and encoded as
    they are.  It holds no ``(tid, id)`` rows, so its ``len`` is 0."""

    __slots__ = ("pairs",)

    def __init__(self, pairs: bytes) -> None:
        self.pairs = pairs

    @classmethod
    def of(cls, groups: dict) -> "EncodedAggregate":
        return cls(json.dumps(sorted(groups.items())).encode("utf-8"))

    @classmethod
    def frombytes(cls, blob: bytes) -> "EncodedAggregate":
        return cls(blob)

    def tobytes(self) -> bytes:
        return self.pairs

    def encode(self, kern=None) -> bytes:
        return self.pairs

    def __len__(self) -> int:
        return 0


def rows_digest(rows) -> int:
    """The CRC-32 of a cached result's buffer."""
    return zlib.crc32(rows.pairs)


class ResultCache(PlanCache):
    """An LRU of fully materialized result sets.

    ``max_rows`` bounds the size of any single cached entry: a query
    that matches half the corpus would evict the whole working set of
    hot small results for one giant one, so oversized results are simply
    not cached (the ``oversize`` counter records how often).
    """

    def __init__(self, maxsize: int = 256, max_rows: int = 100_000) -> None:
        super().__init__(maxsize)
        self.max_rows = max_rows
        self.oversize = 0
        self.integrity_failures = 0

    @staticmethod
    def key(
        fingerprint: str, dialect: str, query: str, pivot: bool,
        limit: Optional[int] = None, agg: Optional[str] = None,
    ) -> tuple:
        """The full result identity: serving dimensions + everything a
        compiled plan's output depends on.  ``limit`` is the plan's
        top-k — a top-k entry holds only the truncated k rows, so a
        limited query can never pin a full result set in the cache (and
        a full-result entry is never truncated to serve a limited
        request).  Raises :class:`~repro.lpath.errors.LPathError` for an
        invalid ``REPRO_KERNELS`` environment, exactly like compiling
        would."""
        return (fingerprint, dialect) + compile_options_key(
            query, pivot, limit=limit, agg=agg
        )

    def put_rows(self, key: tuple, rows) -> bool:
        """Cache a result set unless it exceeds ``max_rows``; returns
        whether the entry was stored.  The entry carries a digest of the
        rows as handed in — taken *before* the ``cache_poison`` fault
        point gets a chance to corrupt what is stored, so injected
        corruption is guaranteed detectable on the way out."""
        if len(rows) > self.max_rows:
            with self._lock:
                self.oversize += 1
            return False
        self.put(key, (rows_digest(rows), poisoned_rows(rows)))
        return True

    def get_rows(self, key: tuple):
        """The cached result set for ``key`` — integrity-checked — or
        ``None``.  An entry whose rows no longer match their insert-time
        digest is dropped and reported as a miss; the caller re-executes
        and the corruption can never reach a client."""
        entry = self.get(key)
        if entry is None:
            return None
        digest, rows = entry
        if rows_digest(rows) == digest:
            return rows
        with self._lock:
            self.integrity_failures += 1
            self.hits -= 1
            self.misses += 1
            self._entries.pop(key, None)
        return None

    @property
    def stats(self) -> dict[str, int]:
        """The PlanCache counters plus the oversize-rejection and
        integrity-failure counts, and what the entries hold right now:
        ``rows`` of ``(tid, id)`` results and ``bytes`` of buffers."""
        snapshot = PlanCache.stats.fget(self)
        with self._lock:
            snapshot["oversize"] = self.oversize
            snapshot["integrity_failures"] = self.integrity_failures
            snapshot["max_rows"] = self.max_rows
            held = [rows for _digest, rows in self._entries.values()]
            snapshot["bytes"] = sum(memoryview(r.pairs).nbytes for r in held)
            snapshot["rows"] = sum(map(len, held))
        return snapshot
