"""The LPath query engine: load a corpus, answer LPath queries.

Three backends share one parser and one axis semantics:

* ``"plan"`` (default) — the Section 4 engine: Definition 4.1 labels in
  a clustered column store, compiled through the shared logical IR
  (:mod:`repro.plan`), optimized, then run by the batch columnar
  executor (:mod:`repro.columnar`);
* ``"sqlite"`` — the same labels in SQLite, executing the *emitted SQL text*
  (:mod:`repro.lpath.sql`); a differential oracle for the translation;
* ``"treewalk"`` — direct tree walking (:mod:`repro.lpath.treewalk`); the
  reference semantics.

``segments > 1`` shards the corpus by tree into independent column
stores (:mod:`repro.plan.segmented`): queries compile once, run against
every shard that can hold a result, one shard after another, and merge
the sorted per-shard results — identical output.  Shards let the
statistics prune whole segments and a live corpus add delta tiers.  The
sqlite and treewalk oracles always see the whole corpus.

Compiled plans are kept in an LRU :class:`~repro.plan.cache.PlanCache`
keyed on the unparsed query text plus the compile options, so repeated
queries (the benchmark hot path) skip parsing, lowering and optimization.
"""

from __future__ import annotations

import os
from typing import Optional, Sequence, Union

from ..columnar.result import ResultBatch
from ..columnar.store import COLUMN_NAMES
from ..labeling.lpath_scheme import label_corpus
from ..plan.cache import PlanCache, cached_compile
from ..plan.segmented import (
    Segment,
    SegmentedPlanCompiler,
    validate_segmentation,
)
from ..store import collector_paused, row_stores, tree_stores
from ..tree.node import Tree, TreeNode
from .ast import Path
from .compiler import PlanCompiler
from .errors import LPathError
from .parser import parse
from .sql import SQLGenerator, SQLiteBackend
from .treewalk import TreeWalkEvaluator

Query = Union[str, Path]
BACKENDS = ("plan", "sqlite", "treewalk")


class PlanEngine:
    """The plan-backend query surface both dialects' engines share:
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
        # Rows exist only if the SQLite oracle is built: it consumes this
        # generator once and is cached (see :attr:`sqlite`).
        self._rows = label_corpus(trees)
        self.trees = trees
        if keep_trees:
            self._treewalk = TreeWalkEvaluator(trees)
            self._by_id = {tree.tid: tree for tree in trees}

    @classmethod
    def from_labels(
        cls,
        rows: Sequence,
        plan_cache_size: int = 128,
        segments: int = 1,
    ) -> "LPathEngine":
        """Build an engine straight from label rows (e.g. a compiled corpus
        loaded with :mod:`repro.store`).  Tree-dependent features
        (:meth:`nodes`, the tree-walk backend) are unavailable; the rows
        are kept for the SQLite oracle."""
        engine = cls.__new__(cls)
        engine._from_rows(list(rows), plan_cache_size, segments)
        return engine

    def _from_rows(
        self, rows: list, plan_cache_size: int, segments: int
    ) -> None:
        validate_segmentation(segments)
        self._install(
            row_stores(rows, segments), PlanCompiler, plan_cache_size
        )
        self._rows = rows

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
        self._sql = SQLGenerator()
        self._rows = None
        self._sqlite = None
        self._treewalk = None
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
        share its pages through the OS cache.  No trees, no SQLite
        oracle.

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

    def query(
        self,
        query: Query,
        backend: str = "plan",
        pivot: bool = False,
        limit: Optional[int] = None,
    ) -> ResultBatch:
        """Distinct, sorted ``(tid, id)`` pairs matching the query, as
        one :class:`~repro.columnar.result.ResultBatch` whatever the
        backend.

        ``pivot=True`` (plan backend only, ignored elsewhere) enables
        selectivity-driven join ordering.  ``limit=k`` keeps the first k
        pairs in sorted order — the plan backend compiles a top-k plan
        that terminates early instead of truncating; the oracle backends
        truncate, so differential runs stay comparable."""
        if self._compiler is None:
            raise LPathError("engine is closed")
        if backend == "plan":
            return super().query(query, pivot=pivot, limit=limit)
        if backend == "sqlite":
            sql = self.to_sql(query)
            result = sorted(tuple(row) for row in self.sqlite.execute(sql))
        elif backend == "treewalk":
            result = self.treewalk.query(query)
        else:
            raise LPathError(
                f"unknown backend {backend!r}; choose from {BACKENDS}"
            )
        return ResultBatch.of(result[:limit])

    def count(self, query: Query, backend: str = "plan", pivot: bool = False) -> int:
        """Result-set size (what the paper's experiments report).

        The plan backend counts through the compiled plan itself, so a
        segmented engine adds per-segment counts instead of packing and
        merging every result row just to take its length."""
        if backend == "plan":
            return super().count(query, pivot=pivot)
        return len(self.query(query, backend=backend, pivot=pivot))

    def nodes(self, query: Query, pivot: bool = False) -> list[TreeNode]:
        """Matched tree nodes (needs ``keep_trees=True``)."""
        if self._by_id is None:
            raise LPathError("engine was built with keep_trees=False")
        return [
            self._by_id[tid].node_by_id(node_id)
            for tid, node_id in self.query(query, pivot=pivot)
        ]

    # -- compilation artifacts -------------------------------------------------

    def to_sql(self, query: Query) -> str:
        """The SQL text the paper's translation module would emit."""
        path = parse(query) if isinstance(query, str) else query
        return self._sql.generate(path)

    # -- backends ---------------------------------------------------------------

    @property
    def sqlite(self) -> SQLiteBackend:
        """The lazily created SQLite differential backend."""
        if self._sqlite is None:
            if self._rows is None:
                raise LPathError(
                    "this engine keeps no label rows (built from columns or "
                    "an mmap'd store), so the SQLite oracle is unavailable"
                )
            self._sqlite = SQLiteBackend(self._rows)
        return self._sqlite

    @property
    def treewalk(self) -> TreeWalkEvaluator:
        """The tree-walking reference evaluator."""
        if self._treewalk is None:
            raise LPathError(
                "this engine keeps no trees (built with keep_trees=False, "
                "from_labels or over a store), so the treewalk backend is "
                "unavailable"
            )
        return self._treewalk

    def close(self) -> None:
        """Release every backend resource: the SQLite oracle, cached
        plans, the column stores / row references, and — for
        mmap-backed engines — the file mapping itself, which
        invalidates every adopted column view (later reads through a
        stale reference raise ``ValueError``).  Idempotent; queries on a
        closed engine raise :class:`LPathError`."""
        if self._sqlite is not None:
            self._sqlite.close()
            self._sqlite = None
        super().close()
        self._rows = None
        self._treewalk = None
        self._by_id = None


def engine_from_bracketed(text: str, **kwargs) -> LPathEngine:
    """Convenience: build an engine straight from bracketed trees."""
    from ..tree.bracket import iter_trees

    return LPathEngine(list(iter_trees(text)), **kwargs)
