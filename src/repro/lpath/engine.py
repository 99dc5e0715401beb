"""The LPath query engine: load a corpus, answer LPath queries.

Three backends share one parser and one axis semantics:

* ``"plan"`` (default) — the Section 4 engine: Definition 4.1 labels
  compiled through the shared logical IR (:mod:`repro.plan`), optimized,
  then run by one of two physical executors: the tuple-at-a-time Volcano
  interpreter (``executor="volcano"``, the default) or the batch columnar
  executor over parallel arrays (``executor="columnar"``,
  :mod:`repro.columnar`);
* ``"sqlite"`` — the same labels in SQLite, executing the *emitted SQL text*
  (:mod:`repro.lpath.sql`); a differential oracle for the translation;
* ``"treewalk"`` — direct tree walking (:mod:`repro.lpath.treewalk`); the
  reference semantics.

``segments > 1`` shards the corpus by tree into independent physical
stores (:mod:`repro.plan.segmented`): queries compile once, run against
every shard (optionally on a ``workers``-sized thread pool) and merge the
sorted per-shard results — identical output, embarrassingly parallel
execution.  The sqlite and treewalk oracles always see the whole corpus.

Compiled plans are kept in an LRU :class:`~repro.plan.cache.PlanCache`
keyed on the unparsed query text plus the compile options (pivot flag and
executor choice), so repeated queries (the benchmark hot path) skip
parsing, lowering and optimization.
"""

from __future__ import annotations

from collections import ChainMap
from typing import Optional, Sequence, Union

from ..columnar.result import ResultBatch
from ..labeling.lpath_scheme import label_corpus, root_spans
from ..plan.cache import PlanCache, cached_compile
from ..plan.segmented import (
    RemoteSpec,
    Segment,
    SegmentPool,
    SegmentedPlanCompiler,
    validate_segmentation,
)
from ..relational.database import Database, create_node_table
from ..relational.sqlite_backend import SQLiteBackend
from ..store import partition_columns, partition_rows_by_tid
from ..tree.node import Tree, TreeNode
from .ast import Path
from .compiler import EXECUTORS, PlanCompiler
from .errors import LPathError
from .parser import parse
from .sql import SQLGenerator
from .treewalk import TreeWalkEvaluator

Query = Union[str, Path]
BACKENDS = ("plan", "sqlite", "treewalk")

#: The attribute surface an object must expose to count as a column bundle
#: (:class:`repro.store.LabelColumns` or anything shaped like it).
COLUMN_BUNDLE_ATTRS = (
    "tid", "left", "right", "depth", "id", "pid", "names", "values",
)


class PlanEngine:
    """The plan-backend query surface both dialects' engines share:
    compile through the engine's plan cache, then hand back what the
    plan produces — a :class:`~repro.columnar.result.ResultBatch`, a
    count, an aggregate dict — never a copy of it.  A subclass sets
    ``_compiler`` (``None`` once closed), ``plan_cache`` and
    ``executor``."""

    def compile(
        self,
        query: Query,
        pivot: bool = False,
        executor: Optional[str] = None,
        limit: Optional[int] = None,
        agg: Optional[str] = None,
    ):
        """Compile to a shared-IR plan, via the per-engine plan cache."""
        if self._compiler is None:
            raise LPathError("engine is closed")
        return cached_compile(
            self.plan_cache,
            self._compiler,
            query,
            pivot,
            executor=executor if executor is not None else self.executor,
            limit=limit,
            agg=agg,
        )

    def query(
        self,
        query: Query,
        pivot: bool = False,
        executor: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> ResultBatch:
        """Distinct, sorted ``(tid, id)`` pairs matching the query, as a
        :class:`~repro.columnar.result.ResultBatch` (``limit=k`` compiles
        an early-terminating top-k plan)."""
        return self.compile(
            query, pivot=pivot, executor=executor, limit=limit
        ).rows()

    def count(
        self, query: Query, pivot: bool = False, executor: Optional[str] = None
    ) -> int:
        """Result-set size, counted through the compiled plan: a
        segmented engine adds per-segment counts, and a process-mode
        engine ships back one integer per worker instead of the rows."""
        return self.compile(query, pivot=pivot, executor=executor).count()

    def aggregate(
        self,
        query: Query,
        agg: str = "count",
        pivot: bool = False,
        executor: Optional[str] = None,
    ) -> dict:
        """Evaluate an aggregate over the result set without returning
        rows: ``{"count": n}``, or ``{group: n}`` keyed by node name
        (``count_by_name``) / depth (``count_by_depth``).  The plan
        counts from partition bounds and join output cardinality instead
        of materializing node lists."""
        return self.compile(
            query, pivot=pivot, executor=executor, agg=agg
        ).aggregate()

    def query_batch(
        self,
        queries: Sequence,
        pivot: bool = False,
        executor: Optional[str] = None,
    ) -> list:
        """Execute a batch of queries through one shared-scan cache:
        identical scans and common step prefixes across the batch run
        once and fan out to every consumer (:mod:`repro.plan.batch`).

        Each entry is a query (string or AST) or a mapping with keys
        ``query`` and optionally ``limit`` / ``agg`` / ``pivot``.
        Returns one result per entry — the same batch (or aggregate
        dict) the equivalent :meth:`query` / :meth:`aggregate` call
        produces."""
        from ..plan.batch import run_batch

        return run_batch(self._compile_batch(queries, pivot, executor))

    def explain_batch(
        self,
        queries: Sequence,
        pivot: bool = False,
        executor: Optional[str] = None,
    ) -> str:
        """Render the shared-scan DAG :meth:`query_batch` would execute,
        with reuse annotations on every shared step prefix."""
        from ..plan.batch import explain_batch

        return explain_batch(self._compile_batch(queries, pivot, executor))

    def _compile_batch(
        self, queries: Sequence, pivot: bool, executor: Optional[str]
    ) -> list:
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
            compiled.append(self.compile(query, executor=executor, **options))
        return compiled

    def cache_stats(self) -> dict[str, int]:
        """Plan-cache observability: hits, misses, evictions, size and
        capacity of this engine's LRU plan cache."""
        return self.plan_cache.stats

    def explain(
        self, query: Query, pivot: bool = False, executor: Optional[str] = None,
        limit: Optional[int] = None, agg: Optional[str] = None,
    ) -> str:
        """Logical-IR and physical plan description."""
        return self.compile(
            query, pivot=pivot, executor=executor, limit=limit, agg=agg
        ).explain()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class LPathEngine(PlanEngine):
    """Query a corpus of linguistic trees with LPath."""

    def __init__(
        self,
        trees: Sequence[Tree],
        extra_indexes: bool = False,
        keep_trees: bool = True,
        plan_cache_size: int = 128,
        executor: str = "volcano",
        segments: int = 1,
        workers: Optional[int] = None,
    ) -> None:
        self.trees = list(trees)
        tids = [tree.tid for tree in self.trees]
        if len(set(tids)) != len(tids):
            raise LPathError("trees must have distinct tids")
        rows = list(label_corpus(self.trees))
        root_right = {tree.tid: tree.root.right for tree in self.trees}
        self._init_from_rows(
            rows, root_right, extra_indexes, plan_cache_size, executor,
            segments=segments, workers=workers,
        )
        self._treewalk = TreeWalkEvaluator(self.trees) if keep_trees else None
        self._by_id = (
            {tree.tid: tree for tree in self.trees} if keep_trees else None
        )

    @classmethod
    def from_labels(
        cls,
        rows: Sequence,
        extra_indexes: bool = False,
        plan_cache_size: int = 128,
        executor: str = "volcano",
        segments: int = 1,
        workers: Optional[int] = None,
    ) -> "LPathEngine":
        """Build an engine straight from label rows (e.g. a compiled corpus
        loaded with :mod:`repro.store`).  Tree-dependent features
        (:meth:`nodes`, the tree-walk backend) are unavailable."""
        engine = cls.__new__(cls)
        engine.trees = []
        rows = list(rows)
        engine._init_from_rows(
            rows, root_spans(rows), extra_indexes, plan_cache_size, executor,
            segments=segments, workers=workers,
        )
        engine._treewalk = None
        engine._by_id = None
        return engine

    @classmethod
    def from_columns(
        cls,
        columns,
        plan_cache_size: int = 128,
        executor: str = "columnar",
        segments: Optional[int] = None,
        workers: Optional[int] = None,
    ) -> "LPathEngine":
        """Build a columnar-only engine from one column bundle (e.g.
        :func:`repro.store.load_corpus_columns`) or a *list* of per-segment
        bundles (:func:`repro.store.load_corpus_segments`) without ever
        materializing per-row tuples.  Only ``backend="plan"`` with the
        columnar executor is available — no row table, no SQLite oracle,
        no trees.

        ``segments=N`` re-shards a single bundle by tree; a bundle list is
        already sharded and adopts one store per element.  ``workers``
        sizes the thread pool the per-segment plans fan out on."""
        from ..columnar import ColumnStore

        if executor not in EXECUTORS:
            raise LPathError(
                f"unknown executor {executor!r}; choose from {EXECUTORS}"
            )
        if executor != "columnar":
            raise LPathError(
                "from_columns builds a columnar-only engine (no row table); "
                "executor='volcano' needs row storage — build the engine "
                "with from_labels or from trees instead"
            )
        bundles = cls._as_bundle_list(columns, segments)
        validate_segmentation(len(bundles), workers)
        stores = [
            bundle if isinstance(bundle, ColumnStore)
            else ColumnStore.from_columns(bundle)
            for bundle in bundles
        ]
        shards = [
            Segment(
                index,
                PlanCompiler(column_store=store, root_right=store.root_right),
                len(store),
            )
            for index, store in enumerate(stores)
        ]
        root_right = {}
        for store in stores:
            root_right.update(store.root_right)
        engine = cls._columnar_only(
            len(stores), workers, root_right, PlanCache(plan_cache_size)
        )
        engine._compiler = (
            shards[0].compiler if len(shards) == 1
            else SegmentedPlanCompiler(shards, get_pool=engine._pool)
        )
        return engine

    @classmethod
    def from_segments(
        cls,
        segments: Sequence[Segment],
        plan_cache: PlanCache,
        workers: Optional[int] = None,
    ) -> "LPathEngine":
        """Build a columnar-only engine over prebuilt
        :class:`~repro.plan.segmented.Segment` objects (store + compiler
        each), *sharing* them: nothing is copied or re-derived, so
        :mod:`repro.live` hands the same immutable segments — and a plan
        cache carried over from the previous snapshot — to every engine
        it swaps in.  Always segment-compiled, even over one segment, so
        carried plans have one shape."""
        validate_segmentation(len(segments), workers)
        engine = cls._columnar_only(
            len(segments), workers,
            ChainMap(*(
                segment.compiler.column_store.root_right
                for segment in segments
            )),
            plan_cache,
        )
        engine._compiler = SegmentedPlanCompiler(
            segments, get_pool=engine._pool
        )
        return engine

    @classmethod
    def _columnar_only(
        cls, segments: int, workers: Optional[int], root_right,
        plan_cache: PlanCache,
    ) -> "LPathEngine":
        """The engine shell every row-less constructor shares; the
        caller installs ``_compiler``."""
        engine = cls.__new__(cls)
        engine.trees = []
        engine.executor = "columnar"
        engine.segments = segments
        engine.workers = workers
        engine.mode = "thread"
        engine._mapped = None
        engine._pool = SegmentPool(workers, segments)
        engine.database = None
        engine.node_table = None
        engine.root_right = root_right
        engine._sql = SQLGenerator()
        engine._rows = None
        engine._sqlite = None
        engine._treewalk = None
        engine._by_id = None
        engine.plan_cache = plan_cache
        return engine

    @classmethod
    def from_store_mmap(
        cls,
        path: str,
        plan_cache_size: int = 128,
        workers: Optional[int] = None,
        mode: Optional[str] = None,
    ) -> "LPathEngine":
        """Open an ``LPDB0004`` compiled corpus zero-copy.

        The file is ``mmap``\\ ed and every segment's columns, projections,
        bitmaps, partition bounds and collected statistics are adopted as
        views straight off the map — open cost is O(segments + names),
        not O(rows), and two engines (or processes) opening the same file
        share its pages through the OS cache.  Columnar-only, like
        :meth:`from_columns`.

        ``mode`` picks the fan-out pool: ``"thread"`` or ``"process"``
        (default: process whenever ``workers > 1``, because this engine
        is exactly the shape process workers need — they re-open the
        store by ``(path, segment)`` instead of unpickling it).
        :meth:`close` unmaps the file, invalidating every adopted view."""
        from ..columnar.store import MappedColumnStore
        from ..store import open_mapped_corpus

        validate_segmentation(1, workers, mode)
        if mode is None:
            mode = "process" if workers is not None and workers > 1 else "thread"
        corpus = open_mapped_corpus(path)
        try:
            stores = [
                MappedColumnStore(segment) for segment in corpus.segments
            ]
            engine = cls.from_columns(
                stores if len(stores) > 1 else stores[0],
                plan_cache_size=plan_cache_size,
                workers=workers,
            )
        except BaseException:
            corpus.close()
            raise
        engine._mapped = corpus
        engine.mode = mode
        engine._pool = SegmentPool(workers, len(stores), mode=mode)
        if len(stores) > 1:
            # Re-point the already-built segmented compiler at the
            # mode-aware pool and teach it how workers re-open the store.
            engine._compiler.get_pool = engine._pool
            engine._compiler.remote = RemoteSpec(path, "LPath")
        return engine

    @classmethod
    def open(
        cls,
        path: str,
        plan_cache_size: int = 128,
        workers: Optional[int] = None,
        mode: Optional[str] = None,
    ) -> "LPathEngine":
        """Open any compiled corpus file as a columnar engine.

        ``LPDB0004`` files are adopted zero-copy via
        :meth:`from_store_mmap`; ``LPDB0005`` live directories open as a
        snapshot over mmap'd base segments plus the WAL replayed into an
        in-memory delta store (:func:`repro.live.open_live_engine`);
        older revisions are decoded eagerly (``mode="process"``
        therefore requires an ``LPDB0004`` file — worker processes
        re-open the store by path)."""
        import os as _os

        from .. import store as store_module

        if _os.path.isdir(path):
            from ..live import open_live_engine

            return open_live_engine(
                path, plan_cache_size=plan_cache_size,
                workers=workers, mode=mode,
            )
        if store_module.corpus_format(path) == "LPDB0004":
            return cls.from_store_mmap(
                path, plan_cache_size=plan_cache_size,
                workers=workers, mode=mode,
            )
        if mode == "process":
            raise LPathError(
                "process-mode fan-out needs an LPDB0004 store (re-save the "
                f"corpus with format='lpdb0004'); {path} is "
                f"{store_module.corpus_format(path)}"
            )
        shards = store_module.load_corpus_segments(path)
        return cls.from_columns(
            shards if len(shards) > 1 else shards[0],
            plan_cache_size=plan_cache_size,
            workers=workers,
        )

    @staticmethod
    def _as_bundle_list(columns, segments: Optional[int]) -> list:
        """Normalize ``from_columns`` input to a list of validated column
        bundles, applying an optional re-shard."""
        from ..columnar import ColumnStore

        def check(bundle):
            if isinstance(bundle, ColumnStore):
                return bundle
            missing = [
                attr for attr in COLUMN_BUNDLE_ATTRS
                if not hasattr(bundle, attr)
            ]
            if missing:
                raise LPathError(
                    "from_columns expected a column bundle with the "
                    f"{'/'.join(COLUMN_BUNDLE_ATTRS)} columns "
                    f"(e.g. repro.store.LabelColumns); {type(bundle).__name__!r} "
                    f"is missing {', '.join(missing)}"
                )
            lengths = {
                attr: len(getattr(bundle, attr)) for attr in COLUMN_BUNDLE_ATTRS
            }
            if len(set(lengths.values())) > 1:
                raise LPathError(
                    f"ragged column bundle: column lengths differ ({lengths})"
                )
            return bundle

        if isinstance(columns, (list, tuple)):
            if not columns:
                raise LPathError("from_columns needs at least one bundle")
            bundles = [check(bundle) for bundle in columns]
            if segments is not None and segments != len(bundles):
                raise LPathError(
                    f"segments={segments} conflicts with a list of "
                    f"{len(bundles)} pre-sharded bundles"
                )
            return bundles
        bundle = check(columns)
        if segments is None or segments == 1:
            return [bundle]
        if isinstance(bundle, ColumnStore):
            raise LPathError(
                "cannot re-shard an already built ColumnStore; pass the raw "
                "LabelColumns (or a list of per-segment bundles) instead"
            )
        return partition_columns(bundle, segments)

    def _init_from_rows(
        self, rows, root_right, extra_indexes: bool, plan_cache_size: int,
        executor: str = "volcano", segments: int = 1,
        workers: Optional[int] = None,
    ) -> None:
        if executor not in EXECUTORS:
            raise LPathError(
                f"unknown executor {executor!r}; choose from {EXECUTORS}"
            )
        validate_segmentation(segments, workers)
        self.executor = executor
        self.segments = segments
        self.workers = workers
        self.mode = "thread"
        self._mapped = None
        self._pool = SegmentPool(workers, segments)
        self.root_right = root_right
        if segments == 1:
            self.database = Database("lpath")
            self.node_table = create_node_table(
                self.database, rows, extra_indexes=extra_indexes
            )
            self._compiler = PlanCompiler(self.node_table, self.root_right)
            compilers = [self._compiler]
        else:
            # One relational store per shard; the monolithic table
            # attributes stay None so misuse fails loudly.
            self.database = None
            self.node_table = None
            parts = []
            for index, shard in enumerate(partition_rows_by_tid(rows, segments)):
                database = Database(f"lpath-seg{index}")
                table = create_node_table(
                    database, shard, extra_indexes=extra_indexes
                )
                shard_tids = {row[0] for row in shard}
                shard_root_right = {
                    tid: right for tid, right in root_right.items()
                    if tid in shard_tids
                }
                parts.append(
                    Segment(
                        index,
                        PlanCompiler(table, shard_root_right),
                        len(shard),
                    )
                )
            self._compiler = SegmentedPlanCompiler(parts, get_pool=self._pool)
            compilers = [segment.compiler for segment in parts]
        if executor == "columnar":
            # The engine's default executor gets its physical structures at
            # load time (the row tables are always built eagerly above).
            for compiler in compilers:
                compiler.columnar_runtime
        self._sql = SQLGenerator()
        self._rows = rows
        self._sqlite: Optional[SQLiteBackend] = None
        self.plan_cache = PlanCache(plan_cache_size)

    # -- queries ------------------------------------------------------------

    def query(
        self,
        query: Query,
        backend: str = "plan",
        pivot: bool = False,
        executor: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> ResultBatch:
        """Distinct, sorted ``(tid, id)`` pairs matching the query, as
        one :class:`~repro.columnar.result.ResultBatch` whatever the
        backend.

        ``pivot=True`` (plan backend only, ignored elsewhere) enables
        selectivity-driven join ordering; ``executor`` overrides the
        engine's physical executor for this query (plan backend only).
        ``limit=k`` keeps the first k pairs in sorted order — the plan
        backend compiles a top-k plan that terminates early instead of
        truncating; the oracle backends truncate, so differential runs
        stay comparable."""
        if self._compiler is None:
            raise LPathError("engine is closed")
        if backend == "plan":
            return super().query(
                query, pivot=pivot, executor=executor, limit=limit
            )
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

    def count(
        self,
        query: Query,
        backend: str = "plan",
        pivot: bool = False,
        executor: Optional[str] = None,
    ) -> int:
        """Result-set size (what the paper's experiments report).

        The plan backend counts through the compiled plan itself, so a
        segmented engine adds per-segment counts — and a process-mode
        engine ships back one integer per worker instead of packing,
        unpacking and merging every result row just to take its length."""
        if backend == "plan":
            return super().count(query, pivot=pivot, executor=executor)
        return len(self.query(query, backend=backend, pivot=pivot, executor=executor))

    def nodes(
        self, query: Query, pivot: bool = False, executor: Optional[str] = None
    ) -> list[TreeNode]:
        """Matched tree nodes (needs ``keep_trees=True``)."""
        if self._by_id is None:
            raise LPathError("engine was built with keep_trees=False")
        result = []
        for tid, node_id in self.query(query, pivot=pivot, executor=executor):
            result.append(self._by_id[tid].node_by_id(node_id))
        return result

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
                    "columnar-only engine has no row storage for SQLite"
                )
            self._sqlite = SQLiteBackend(self._rows)
        return self._sqlite

    @property
    def treewalk(self) -> TreeWalkEvaluator:
        """The tree-walking reference evaluator."""
        if self._treewalk is None:
            raise LPathError(
                "this engine keeps no trees (built with keep_trees=False, "
                "from_labels or from_columns), so the treewalk backend is "
                "unavailable"
            )
        return self._treewalk

    def close(self) -> None:
        """Release every backend resource: the SQLite oracle, the worker
        pool, cached plans, the relational store / row references, and —
        for mmap-backed engines — the file mapping itself, which
        invalidates every adopted column view (later reads through a
        stale reference raise ``ValueError``).  Idempotent; queries on a
        closed engine raise :class:`LPathError`."""
        if self._sqlite is not None:
            self._sqlite.close()
            self._sqlite = None
        self._pool.shutdown()
        self.plan_cache.clear()
        self.database = None
        self.node_table = None
        self._rows = None
        self._compiler = None
        self._treewalk = None
        self._by_id = None
        self.trees = []
        mapped = getattr(self, "_mapped", None)
        if mapped is not None:
            mapped.close()
            self._mapped = None



def engine_from_bracketed(text: str, **kwargs) -> LPathEngine:
    """Convenience: build an engine straight from bracketed trees."""
    from ..tree.bracket import iter_trees

    return LPathEngine(list(iter_trees(text)), **kwargs)
