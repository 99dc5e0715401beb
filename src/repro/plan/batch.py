"""Shared-scan batch execution over the columnar executor.

A workload of related queries (the fig6/fig9 suites, a daemon's
concurrent clients) repeats leaf work constantly: the same name-block
scans, and often the same first joins — ``//S//VP//NP[...]`` and
``//S//VP//PP[...]`` agree on everything up to the last step.  The
columnar executor fingerprints every step prefix with a cumulative
structural signature (:attr:`repro.columnar.PlanSkeleton.signatures`), and
two plans whose prefixes carry equal signatures compute identical
intermediate batches.  This module exploits that:

* :func:`run_batch` executes a list of compiled queries through one
  signature → batch cache, so each shared scan (and every shared join
  prefix) runs **once** and fans its output to every consumer.  Batches
  are immutable by convention — every step returns fresh arrays — so
  fan-out needs no copies.  Entries are dropped as soon as the last
  consumer has run, bounding the cache to the live working set.
* :func:`explain_batch` renders the implied DAG: each query's step list
  with reuse annotations pointing at the query that computes the shared
  prefix.

Plans without signatures (segmented engines, pruned segments)
participate transparently — they just execute standalone.  Results are
byte-identical to per-query execution: the cache only ever substitutes a
batch for a recomputation of the same step prefix.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional, Sequence


def _signatures(compiled) -> Optional[tuple]:
    plan = getattr(compiled, "plan", None)
    signatures = getattr(plan, "signatures", None)
    if signatures and getattr(plan, "execute", None) is not None:
        return signatures
    return None


class BatchState:
    """The shared-prefix cache plus per-signature reference counts for
    one batch run.  A cached batch is dropped the moment its last
    consumer has run, bounding memory to the live working set."""

    __slots__ = ("shared", "remaining")

    def __init__(self, compiled: Sequence) -> None:
        self.shared: dict = {}
        self.remaining: Counter = Counter()
        for query in compiled:
            signatures = _signatures(query)
            if signatures:
                self.remaining.update(signatures)

    def execute_one(self, query):
        """Execute one member against the shared cache; returns exactly
        what the query would produce standalone — its (top-k-truncated)
        :class:`~repro.columnar.result.ResultBatch`, or the aggregate
        dict."""
        signatures = _signatures(query)
        if signatures is None:
            return query.rows() if query.agg is None else query.aggregate()
        plan, shared = query.plan, self.shared
        try:
            if query.agg is not None:
                if query.agg == "count" and len(plan.steps) == 1:
                    # Partition-bounds fast path beats any sharing.
                    return query.aggregate()
                if query.agg == "count":
                    return {"count": len(plan.execute(shared))}
                return plan.group_counts(shared)
            if query.limit is None:
                return plan.execute(shared)
            if not any(signature in shared for signature in signatures):
                # Nothing to reuse: early termination beats materializing
                # the full result just to seed a cache nobody reads.
                return plan.rows_limited(query.limit)
            return plan.execute(shared)[: query.limit]
        finally:
            self.remaining.subtract(signatures)
            for signature in signatures:
                if self.remaining[signature] <= 0:
                    shared.pop(signature, None)


def run_batch(compiled: Sequence) -> list:
    """Execute compiled queries through one shared-prefix batch cache;
    one result per query, in order: the batch (or aggregate dict)
    ``query()`` (or ``aggregate()``) returns."""
    return list(map(BatchState(compiled).execute_one, compiled))


def explain_batch(compiled: Sequence) -> str:
    """Render the shared-scan DAG of a batch: every query's pipeline,
    annotating each step prefix with the query that computes it."""
    seen: dict = {}
    total = reused = 0
    lines: list[str] = []
    for index, query in enumerate(compiled):
        header = f"[q{index}] {query.description}"
        extras = []
        if query.limit is not None:
            extras.append(f"top-k k={query.limit}")
        if query.agg is not None:
            extras.append(f"aggregate {query.agg}")
        if extras:
            header += f"  ({', '.join(extras)})"
        lines.append(header)
        signatures = _signatures(query)
        if signatures is None:
            lines.append("  (no shared-scan support; executes standalone)")
            continue
        plan = query.plan
        start = 0
        for prefix in range(len(signatures), 0, -1):
            owner = seen.get(signatures[prefix - 1])
            if owner is not None:
                start = prefix
                lines.append(
                    f"  steps 1..{prefix}: shared with q{owner}"
                )
                break
        total += len(plan.steps)
        reused += start
        for step in range(start, len(plan.steps)):
            seen.setdefault(signatures[step], index)
            lines.append(f"  {step + 1}. {plan.steps[step].describe()}")
    lines.insert(
        0,
        f"shared-scan batch: {len(compiled)} queries, "
        f"{total} pipeline steps, {reused} served from shared prefixes",
    )
    return "\n".join(lines)
