"""Segment-aware plan compilation and execution.

A segmented engine shards its corpus by tree (``tid``) into N independent
:class:`Segment`\\ s — each one a complete physical context (a
:class:`~repro.columnar.ColumnStore`) over a disjoint set of trees.
Because every query result row belongs to exactly one tree, running the
same plan against each segment and merging the per-segment ``(tid, id)``
lists needs no cross-segment joins and no deduplication, just a sorted
merge.

The division of labor:

* :class:`SegmentedPlanCompiler` — parse → lower → optimize exactly
  **once** (against a :class:`SegmentedCatalog` that sums per-segment
  statistics, so selectivity decisions see the whole corpus), then
  bind the optimized IR to every segment whose statistics do not prove
  its result empty (:func:`required_names`), through the regular
  :meth:`~repro.lpath.compiler.PlanCompiler.compile_physical` — whose
  first call builds the plan's segment-independent skeleton.  The
  per-engine plan cache stores the resulting :class:`SegmentedQuery`
  under the same ``(query, pivot, ...)`` key as a monolithic plan —
  the cache is segment-count-agnostic.
* :class:`SegmentedQuery` — runs the per-segment plans one after another
  and merges the sorted per-segment results.  It keeps the optimized IR
  it was compiled from, so :meth:`SegmentedPlanCompiler.rebase` can move
  it onto a segment list that shares most segments with its own
  (consecutive snapshots of a live corpus, :mod:`repro.live`) by binding
  only the new ones.

Results are byte-identical to the monolithic engine: each per-segment
plan emits its sorted distinct ``(tid, id)`` pairs as one packed
:class:`~repro.columnar.result.ResultBatch`, segments partition the tid
space, and the k-way merge of the batches preserves global order.

Segments run sequentially in the calling thread.  A thread pool over
them lost to the sequential loop at every measured corpus size and
segment count (the GIL serializes the pure-Python parts of the
executor), so there is none; segments exist for pruning and for the
delta tiers of a live corpus.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from ..columnar.result import EMPTY, ResultBatch
from ..columnar.store import NameStats
from ..columnar.structural import read_knobs
from ..faults import active_injector, maybe_delay_segment
from .ir import (
    AllPred, Cmp, Col, Const, ExistsPred, IndexProbe, PlanNode, ValueSeed,
    linearize, N,
)
from .lower import Lowerer, lower_and_optimize


def validate_segmentation(segments: int) -> None:
    """Reject a nonsensical shard count with one error shape for every
    engine (raises :class:`~repro.lpath.errors.LPathError`)."""
    from ..lpath.errors import LPathError

    if not isinstance(segments, int) or segments < 1:
        raise LPathError(f"segments must be a positive int, got {segments!r}")


class Segment:
    """One shard of a segmented corpus: a disjoint set of trees plus the
    physical structures (and per-segment ``(name, tid)`` partition bounds)
    to query them independently."""

    __slots__ = ("index", "compiler", "size", "kind")

    def __init__(
        self, index: int, compiler, size: int, kind: str = "base"
    ) -> None:
        self.index = index
        self.compiler = compiler  # a PlanCompiler over this shard only
        self.size = size          # label rows in the shard
        self.kind = kind          # "base" (immutable store) or "delta" (WAL)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Segment {self.index} rows={self.size} kind={self.kind}>"


class SegmentedCatalog:
    """The lowerer's catalog surface, summed over every segment.

    Sizes and name frequencies add across disjoint shards, so pivot
    selectivity ordering sees corpus-wide statistics."""

    def __init__(self, catalogs: Sequence) -> None:
        if not catalogs:
            raise ValueError("a segmented catalog needs at least one segment")
        self._catalogs = list(catalogs)
        self._name_stats: dict = {}  # shards are immutable: merged once

    def size(self) -> int:
        return sum(catalog.size() for catalog in self._catalogs)

    def frequency(self, name: Optional[str]) -> int:
        return sum(catalog.frequency(name) for catalog in self._catalogs)

    def tree_count(self) -> int:
        """Trees across all shards (tids are disjoint, so counts add)."""
        return sum(catalog.tree_count() for catalog in self._catalogs)

    def name_stats(self, name: Optional[str]):
        """Per-name statistics merged across shards (once per name):
        cardinalities and partition counts add, depth ranges widen, the
        largest partition is the max — giving the optimizer corpus-wide
        inputs while each segment still re-decides its physical join from
        its own stats."""
        merged = self._name_stats.get(name)
        if merged is not None:
            return merged
        for catalog in self._catalogs:
            stats = catalog.name_stats(name)
            if stats.rows == 0:
                continue
            if merged is None:
                merged = stats
            else:
                merged = NameStats(
                    merged.rows + stats.rows,
                    merged.partitions + stats.partitions,
                    max(merged.max_partition, stats.max_partition),
                    min(merged.min_depth, stats.min_depth),
                    max(merged.max_depth, stats.max_depth),
                )
        if merged is None:
            merged = NameStats(0, 0, 0, 0, 0)
        self._name_stats[name] = merged
        return merged


class SegmentedQuery:
    """A compiled query fanned out over N segments.

    Holds one per-segment compiled result (the same
    :class:`~repro.lpath.compiler.CompiledQuery` objects a monolithic
    engine produces) and merges their sorted outputs."""

    def __init__(
        self,
        segments: Sequence[Segment],
        parts: Sequence,
        logical: PlanNode,
        lowered,
        limit: Optional[int] = None,
        agg: Optional[str] = None,
        kern=None,
    ) -> None:
        #: The compiler's segment list this plan was built for (the list
        #: object itself: :meth:`SegmentedPlanCompiler.rebase` compares
        #: identity) and, in the same order, one compiled part each — a
        #: part over the :data:`PRUNED` plan where the segment's
        #: statistics proved its result empty (:func:`required_names`):
        #: it answers like any other part, with nothing.
        self.segments = segments
        self.parts = list(parts)
        #: ``(segment position, part)`` of the segments a plan was bound
        #: to; :meth:`explain` shows the first of them.
        self.bound = [
            (index, part) for index, part in enumerate(self.parts)
            if part.plan is not PRUNED
        ]
        self.logical = logical
        #: Kept so a rebase can physical-compile the same optimized plan
        #: against a segment that did not exist yet.
        self.lowered = lowered
        self.limit = limit
        self.agg = agg
        self.kern = kern  # the compile's ``Knobs.kern``: merges the batches

    @property
    def description(self) -> str:
        return self.lowered.description

    def _map(self, task: Callable) -> list:
        """``task(part)`` for every segment's part, in segment order."""
        run = task
        if active_injector() is not None:  # one read per query
            def run(part):
                maybe_delay_segment()  # segment_slow: stall each segment run
                return task(part)
        return [run(part) for part in self.parts]

    def rows(self) -> ResultBatch:
        """Distinct, sorted ``(tid, id)`` pairs across every segment: the
        per-segment batches merged by one kernel call.

        Under a top-k limit every segment already stops at its own first
        k results (each could hold the k globally-smallest keys), so the
        merge only has to truncate — identical output to a monolithic
        top-k because the segments partition the tid space."""
        parts = self._map(lambda part: part.rows())
        merged = ResultBatch.merge(parts, self.kern)
        return merged if self.limit is None else merged[: self.limit]

    def count(self) -> int:
        """Total result size — per-segment counts simply add because the
        segments partition the tid space."""
        if self.limit is not None:
            return len(self.rows())
        return sum(self._map(lambda part: part.count()))

    def aggregate(self) -> dict:
        """Merge per-segment aggregates: group counts add across the
        disjoint tid shards (and ``{"count": n}`` is just the one-group
        case)."""
        if self.agg is None:
            from ..lpath.errors import LPathCompileError

            raise LPathCompileError("plan carries no aggregate")
        results = self._map(lambda part: part.aggregate())
        from collections import Counter

        merged: Counter = Counter()
        for result in results:
            merged.update(result)
        return dict(merged)

    def explain(self) -> str:
        """The shared logical IR plus the first bound segment's physical
        plan (all segments bind the same skeleton against the same
        design), and how many segments the statistics pruned."""
        parts = [self.description]
        if self.logical is not None:
            parts.append("logical plan:\n" + self.lowered.render(self.logical))
        total = len(self.parts)
        note = ""
        delta = sum(1 for segment in self.segments if segment.kind == "delta")
        if delta:
            note = f": {total - delta} base + {delta} delta"
        if len(self.bound) < total:
            note += f", pruned {total - len(self.bound)} of {total}"
        if self.bound:
            index, shown = self.bound[0]
            parts.append(
                f"physical plan (x{total} segments{note}, segment {index} "
                "shown):\n" + shown.plan.explain(indent=2)
            )
        else:
            parts.append(
                f"physical plan (x{total} segments{note}):\n"
                "  (no segment can hold a result)"
            )
        return "\n".join(parts)


class _Pruned:
    """The plan of a segment whose statistics prove its result empty: no
    skeleton was bound to it and it yields nothing, whatever is asked."""

    def execute(self) -> ResultBatch:
        return EMPTY

    def count_rows(self) -> int:
        return 0

    def rows_limited(self, k: int) -> ResultBatch:
        return EMPTY

    def group_counts(self) -> dict:
        return {}


PRUNED = _Pruned()


def required_names(root: PlanNode) -> tuple[frozenset, frozenset]:
    """``(names, seeds)`` a segment must hold for ``root`` to return
    anything from it: the tag (or ``@attribute`` row name) of every
    named probe on the main chain and on the chains of *positive*
    ``exists`` conditions — bare or under ``and``, nested to any depth —
    plus the ``key`` of every value seed among them.  A segment whose
    statistics show zero rows for one of the names, or whose store
    resolves one of the seeds to no element, cannot contribute a row.

    Nothing is ever required from under ``not``/``or``/``count()``/a
    value comparison (absence can satisfy those), from an or-self probe
    (the context row itself may match) or from a wildcard step."""
    names: set = set()
    seeds: set = set()
    pending = [root]
    while pending:
        for node in linearize(pending.pop()):
            access = getattr(node, "access", None)
            if isinstance(access, ValueSeed):
                seeds.add(access.key)
                names.update(
                    name for name in (access.attr, access.name_test) if name
                )
            elif (
                isinstance(access, IndexProbe)
                and access.self_slot is None and access.eq
                and isinstance(access.eq[0], Const)
                and isinstance(access.eq[0].value, str)
            ):
                names.add(access.eq[0].value)
            conditions = list(getattr(node, "conditions", ()))
            while conditions:
                condition = conditions.pop()
                if isinstance(condition, AllPred):
                    conditions.extend(condition.parts)
                elif isinstance(condition, ExistsPred):
                    pending.append(condition.subplan)
                elif (  # sN.name = 'tag': how parent/attribute steps test names
                    isinstance(condition, Cmp) and condition.op == "="
                    and isinstance(condition.left, Col) and condition.left.col == N
                    and isinstance(condition.right, Const)
                ):
                    names.add(condition.right.value)
    return frozenset(names), frozenset(seeds)


class SegmentedPlanCompiler:
    """Compile queries once, execute them against every segment.

    Mirrors the :class:`~repro.lpath.compiler.PlanCompiler` surface the
    engines and the plan cache consume (``compile(query, pivot, limit,
    agg)``), so an engine swaps monolithic for segmented compilation
    without touching its query paths.  Works for both dialects — the
    per-segment compilers carry the scheme, dialect and result class."""

    def __init__(self, segments: Sequence[Segment]) -> None:
        if not segments:
            raise ValueError("a segmented compiler needs at least one segment")
        self.segments = list(segments)
        first = self.segments[0].compiler
        self.dialect = first.dialect
        self.scheme = first.scheme
        self.lowerer = Lowerer(
            self.scheme,
            SegmentedCatalog(
                [segment.compiler.column_store for segment in self.segments]
            ),
            self.dialect,
        )

    def compile(
        self, query, pivot: bool = False,
        limit: Optional[int] = None, agg: Optional[str] = None,
    ) -> SegmentedQuery:
        """One logical compile, one physical skeleton, a bind per segment
        that can hold a result, one merged result.

        The environment knobs are read once, here.  ``explain()`` costs
        the logical plan's joins against the summed corpus-wide
        statistics; the first segment's ``compile_physical`` builds the
        plan's segment-independent skeleton, and each bind decides probe
        vs. merge against its own shard's statistics.  Segments whose
        statistics prove their result empty (:func:`required_names`) are
        not bound at all."""
        knobs = read_knobs()
        root, lowered = lower_and_optimize(
            self.lowerer, query, pivot, limit=limit, agg=agg, knobs=knobs,
        )
        parts = self._bind(root, lowered, knobs)
        return SegmentedQuery(
            self.segments, parts, root, lowered,
            limit=limit, agg=agg, kern=knobs.kern,
        )

    def _bind(self, root, lowered, knobs, known=None) -> list:
        """One part per segment, in order: the part ``known`` (``id(segment)
        -> part``) already holds, a part over :data:`PRUNED` for a segment
        that lacks a required name or seed, else the plan bound to the
        segment."""
        names, seeds = required_names(root)
        parts = []
        for segment in self.segments:
            compiler = segment.compiler
            store = compiler.column_store
            part = known.get(id(segment)) if known else None
            if part is not None:
                pass
            elif any(store.frequency(name) == 0 for name in names) or any(
                not store.seed(*seed)[0] for seed in seeds
            ):
                _inner, limit, agg = compiler.unwrap(root)
                part = compiler.result_class(
                    PRUNED, lowered, root, limit=limit, agg=agg
                )
            else:
                part = compiler.compile_physical(root, lowered, knobs)
            parts.append(part)
        return parts

    def rebase(self, compiled: SegmentedQuery) -> SegmentedQuery:
        """``compiled`` itself when it was built for this compiler's
        segment list; otherwise (a plan carried across a live-corpus
        engine swap) a new :class:`SegmentedQuery` over *this* list that
        keeps the part — or the pruning verdict — of every
        :class:`Segment` object both lists hold and binds only the
        segments that are new, from the skeleton the plan's retained
        ``lowered`` carries (nothing is lowered, optimized or
        skeleton-built again).  ``compiled`` is never restructured — a
        query in flight on the retired engine still holds it.  Its logical
        plan, and the estimates ``explain()`` prints, stay as first lowered
        and costed (:meth:`~repro.plan.lower.LoweredQuery.annotate`)."""
        if compiled.segments is self.segments:
            return compiled
        compiled.lowered.annotate(compiled.logical)
        known = {
            id(segment): part
            for segment, part in zip(compiled.segments, compiled.parts)
        }
        parts = self._bind(compiled.logical, compiled.lowered, read_knobs(), known)
        return SegmentedQuery(
            self.segments, parts, compiled.logical, compiled.lowered,
            limit=compiled.limit, agg=compiled.agg, kern=compiled.kern,
        )
