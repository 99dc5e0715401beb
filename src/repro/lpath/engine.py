"""The LPath query engine: load a corpus, answer LPath queries.

The engine is the Section 4 design: Definition 4.1 labels in a clustered
column store, each query compiled through the shared logical IR
(:mod:`repro.plan`), optimized, then run by the batch columnar executor
(:mod:`repro.columnar`).  The references it is checked against — the
tree walk and the SQL translation run on SQLite — live in
:mod:`repro.oracle`, outside the product.

``segments > 1`` shards the corpus by tree into independent column
stores (:mod:`repro.plan.segmented`): queries compile once, run against
every shard that can hold a result, one shard after another, and merge
the sorted per-shard results — identical output.  Shards let the
statistics prune whole segments and a live corpus add delta tiers.

Compiled plans are kept in an LRU :class:`~repro.plan.cache.PlanCache`
keyed on the unparsed query text plus the compile options, so repeated
queries (the benchmark hot path) skip parsing, lowering and optimization.
"""

from __future__ import annotations

import os
from typing import Optional, Sequence, Union

from ..columnar.result import ResultBatch
from ..columnar.store import COLUMN_NAMES
from ..plan.cache import PlanCache, cached_compile
from ..plan.segmented import (
    Segment,
    SegmentedPlanCompiler,
    validate_segmentation,
)
from ..store import collector_paused, tree_stores
from ..tree.node import Tree, TreeNode
from .ast import Path
from .compiler import PlanCompiler
from .errors import LPathError

Query = Union[str, Path]


class PlanEngine:
    """The query surface both dialects' engines share:
    compile through the engine's plan cache, then hand back what the
    plan produces — a :class:`~repro.columnar.result.ResultBatch`, a
    count, an aggregate dict — never a copy of it.  A subclass sets
    ``_compiler`` (``None`` once closed) and ``plan_cache``."""

    def compile(
        self,
        query: Query,
        pivot: bool = False,
        limit: Optional[int] = None,
        agg: Optional[str] = None,
    ):
        """Compile to a shared-IR plan, via the per-engine plan cache."""
        if self._compiler is None:
            raise LPathError("engine is closed")
        return cached_compile(
            self.plan_cache, self._compiler, query, pivot, limit=limit, agg=agg
        )

    def query(
        self, query: Query, pivot: bool = False, limit: Optional[int] = None
    ) -> ResultBatch:
        """Distinct, sorted ``(tid, id)`` pairs matching the query, as a
        :class:`~repro.columnar.result.ResultBatch` (``limit=k`` compiles
        an early-terminating top-k plan)."""
        return self.compile(query, pivot=pivot, limit=limit).rows()

    def count(self, query: Query, pivot: bool = False) -> int:
        """Result-set size, counted through the compiled plan: a
        segmented engine adds per-segment counts."""
        return self.compile(query, pivot=pivot).count()

    def aggregate(self, query: Query, agg: str = "count", pivot: bool = False) -> dict:
        """Evaluate an aggregate over the result set without returning
        rows: ``{"count": n}``, or ``{group: n}`` keyed by node name
        (``count_by_name``) / depth (``count_by_depth``).  The plan
        counts from partition bounds and join output cardinality instead
        of materializing node lists."""
        return self.compile(query, pivot=pivot, agg=agg).aggregate()

    def query_batch(self, queries: Sequence, pivot: bool = False) -> list:
        """Execute a batch of queries through one shared-scan cache:
        identical scans and common step prefixes across the batch run
        once and fan out to every consumer (:mod:`repro.plan.batch`).

        Each entry is a query (string or AST) or a mapping with keys
        ``query`` and optionally ``limit`` / ``agg`` / ``pivot``.
        Returns one result per entry — the same batch (or aggregate
        dict) the equivalent :meth:`query` / :meth:`aggregate` call
        produces."""
        from ..plan.batch import run_batch

        return run_batch(self._compile_batch(queries, pivot))

    def explain_batch(self, queries: Sequence, pivot: bool = False) -> str:
        """Render the shared-scan DAG :meth:`query_batch` would execute,
        with reuse annotations on every shared step prefix."""
        from ..plan.batch import explain_batch

        return explain_batch(self._compile_batch(queries, pivot))

    def _compile_batch(self, queries: Sequence, pivot: bool) -> list:
        if self._compiler is None:
            raise LPathError("engine is closed")
        compiled = []
        for entry in queries:
            options = {"pivot": pivot}
            if isinstance(entry, dict):
                spec = dict(entry)
                query = spec.pop("query", None)
                if query is None:
                    raise LPathError("batch entry mapping needs a 'query' key")
                unknown = set(spec) - {"limit", "agg", "pivot"}
                if unknown:
                    raise LPathError(
                        f"unknown batch entry keys: {', '.join(sorted(unknown))}"
                    )
                options.update(spec)
            else:
                query = entry
            compiled.append(self.compile(query, **options))
        return compiled

    def cache_stats(self) -> dict[str, int]:
        """Plan-cache observability: hits, misses, evictions, size and
        capacity of this engine's LRU plan cache."""
        return self.plan_cache.stats

    def explain(
        self, query: Query, pivot: bool = False,
        limit: Optional[int] = None, agg: Optional[str] = None,
    ) -> str:
        """Logical-IR and physical plan description."""
        return self.compile(query, pivot=pivot, limit=limit, agg=agg).explain()

    # -- construction ------------------------------------------------------

    def _shell(self, segments: int, plan_cache: PlanCache) -> None:
        """The engine state every constructor shares; the caller
        installs ``_compiler``."""
        self.trees = []
        self.segments = segments
        self._mapped = None
        self.plan_cache = plan_cache

    def _install(
        self, stores: list, make_compiler, plan_cache_size: int
    ) -> None:
        """:meth:`_shell` plus one ``make_compiler(store)`` per store —
        segment-compiled when there is more than one."""
        self._shell(len(stores), PlanCache(plan_cache_size))
        compilers = [make_compiler(store) for store in stores]
        if len(compilers) == 1:
            self._compiler = compilers[0]
        else:
            self._compiler = SegmentedPlanCompiler(
                [
                    Segment(index, compiler, len(store))
                    for index, (compiler, store) in enumerate(zip(compilers, stores))
                ]
            )

    @classmethod
    def _open_mapped(
        cls, path: str, make_compiler, plan_cache_size: int,
        column_names: tuple = COLUMN_NAMES,
    ):
        """An engine over every segment of an ``LPDB0004`` file, adopted
        zero-copy; the engine owns the mapping from here on."""
        from ..columnar.store import ColumnStore
        from ..store import open_mapped_corpus

        corpus = open_mapped_corpus(path)
        try:
            stores = [
                ColumnStore.adopt(segment, column_names)
                for segment in corpus.segments
            ]
            validate_segmentation(len(stores))
            engine = cls.__new__(cls)
            engine._install(stores, make_compiler, plan_cache_size)
        except BaseException:
            corpus.close()
            raise
        engine._mapped = corpus
        return engine

    def close(self) -> None:
        """Release cached plans, column stores and (for mmap-backed
        engines) the file mapping, so a closed engine is promptly
        garbage-collectable.  Idempotent."""
        self.plan_cache.clear()
        self._compiler = None
        self.trees = []
        if self._mapped is not None:
            self._mapped.close()
            self._mapped = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class LPathEngine(PlanEngine):
    """Query a corpus of linguistic trees with LPath.

    ``executor`` is accepted for callers written against the engine's
    former two-executor surface; ``"columnar"`` is the only value left."""

    def __init__(
        self,
        trees: Sequence[Tree],
        keep_trees: bool = True,
        plan_cache_size: int = 128,
        executor: str = "columnar",
        segments: int = 1,
    ) -> None:
        if executor != "columnar":
            raise LPathError(
                f"unknown executor {executor!r}: the columnar executor is "
                "the only one"
            )
        trees = list(trees)
        tids = [tree.tid for tree in trees]
        if len(set(tids)) != len(tids):
            raise LPathError("trees must have distinct tids")
        validate_segmentation(segments)
        with collector_paused():
            stores = list(tree_stores(trees, segments))
        self._install(stores, PlanCompiler, plan_cache_size)
        self.trees = trees
        if keep_trees:
            self._by_id = {tree.tid: tree for tree in trees}

    @classmethod
    def from_segments(
        cls, segments: Sequence[Segment], plan_cache: PlanCache
    ) -> "LPathEngine":
        """Build an engine over prebuilt
        :class:`~repro.plan.segmented.Segment` objects (store + compiler
        each), *sharing* them: nothing is copied or re-derived, so
        :mod:`repro.live` hands the same immutable segments — and a plan
        cache carried over from the previous snapshot — to every engine
        it swaps in.  Always segment-compiled, even over one segment, so
        carried plans have one shape."""
        validate_segmentation(len(segments))
        engine = cls.__new__(cls)
        engine._shell(len(segments), plan_cache)
        engine._compiler = SegmentedPlanCompiler(segments)
        return engine

    def _shell(self, segments: int, plan_cache: PlanCache) -> None:
        super()._shell(segments, plan_cache)
        self._by_id = None

    @classmethod
    def from_store_mmap(
        cls, path: str, plan_cache_size: int = 128
    ) -> "LPathEngine":
        """Open an ``LPDB0004`` compiled corpus zero-copy.

        The file is ``mmap``\\ ed and every segment's columns, projections,
        bitmaps, partition bounds and collected statistics are adopted as
        views straight off the map — open cost is O(segments + names),
        not O(rows), and two engines (or processes) opening the same file
        share its pages through the OS cache.  No trees.

        :meth:`close` unmaps the file, invalidating every adopted view."""
        return cls._open_mapped(path, PlanCompiler, plan_cache_size)

    @classmethod
    def open(cls, path: str, plan_cache_size: int = 128) -> "LPathEngine":
        """Open a compiled corpus as a column-store engine.

        ``LPDB0004`` files are adopted zero-copy via
        :meth:`from_store_mmap`; ``LPDB0005`` live directories open as a
        snapshot over mmap'd base segments plus the WAL replayed into an
        in-memory delta store (:func:`repro.live.open_live_engine`).
        Anything else — a retired revision included — raises
        :class:`~repro.store.StoreError`."""
        if os.path.isdir(path):
            from ..live import open_live_engine

            return open_live_engine(path, plan_cache_size=plan_cache_size)
        return cls.from_store_mmap(path, plan_cache_size=plan_cache_size)

    # -- queries ------------------------------------------------------------

    def nodes(self, query: Query, pivot: bool = False) -> list[TreeNode]:
        """Matched tree nodes (needs ``keep_trees=True``)."""
        if self._by_id is None:
            raise LPathError("engine was built with keep_trees=False")
        return [
            self._by_id[tid].node_by_id(node_id)
            for tid, node_id in self.query(query, pivot=pivot)
        ]

    def close(self) -> None:
        super().close()
        self._by_id = None


def engine_from_bracketed(text: str, **kwargs) -> LPathEngine:
    """Convenience: build an engine straight from bracketed trees."""
    from ..tree.bracket import iter_trees

    return LPathEngine(list(iter_trees(text)), **kwargs)
