"""The baseline XPath engine (Section 5.4).

Identical machinery to the LPath engine — same mini relational engine, same
clustering and secondary indexes, and (since the unified-IR refactor) the
same logical-plan compiler, optimizer and interpreter from
:mod:`repro.plan` — but labels come from the start/end scheme of [11].
Per the paper: "To compare the performance, we set other components of
both labeling schemes to be the same."
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from ..labeling import xpath_scheme
from ..lpath.ast import Path
from ..lpath.engine import PlanEngine
from ..lpath.errors import LPathError
from ..plan.cache import PlanCache
from ..plan.segmented import (
    RemoteSpec,
    Segment,
    SegmentPool,
    SegmentedPlanCompiler,
    validate_segmentation,
)
from ..relational.database import Database
from ..relational.table import Table
from ..store import partition_rows_by_tid
from ..tree.node import Tree
from .compiler import VERTICAL_FRAGMENT, XPathPlanCompiler

XNODE_COLUMNS = ("tid", "start", "end", "depth", "id", "pid", "name", "value")
XNODE_CLUSTERED_KEY = ("name", "tid", "start", "end", "depth", "id", "pid")
XNODE_SECONDARY_INDEXES = {
    "idx_tid_value_id": ("tid", "value", "id"),
    "idx_value_tid_id": ("value", "tid", "id"),
    "idx_tid_id": ("tid", "id", "start", "end", "depth", "pid"),
}

Query = Union[str, Path]


def create_xnode_table(db: Database, rows, name: str = "xnode") -> Table:
    """Load the start/end label relation with the shared physical design."""
    table = db.create_table(name, XNODE_COLUMNS, XNODE_CLUSTERED_KEY)
    table.load(rows)
    for index_name, columns in XNODE_SECONDARY_INDEXES.items():
        table.create_index(index_name, columns)
    return table


class XPathEngine(PlanEngine):
    """Query a corpus with the XPath-expressible fragment of LPath syntax."""

    def __init__(
        self,
        trees: Sequence[Tree],
        axes: frozenset = VERTICAL_FRAGMENT,
        plan_cache_size: int = 128,
        executor: str = "volcano",
        segments: int = 1,
        workers: Optional[int] = None,
    ) -> None:
        from ..lpath.compiler import EXECUTORS

        if executor not in EXECUTORS:
            raise LPathError(
                f"unknown executor {executor!r}; choose from {EXECUTORS}"
            )
        validate_segmentation(segments, workers)
        self.trees = list(trees)
        tids = [tree.tid for tree in self.trees]
        if len(set(tids)) != len(tids):
            raise LPathError("trees must have distinct tids")
        rows = [tuple(row) for row in xpath_scheme.label_corpus(self.trees)]
        self.executor = executor
        self.segments = segments
        self.workers = workers
        self.mode = "thread"
        self._mapped = None
        self._pool = SegmentPool(workers, segments)
        if segments == 1:
            self.database = Database("xpath")
            self.xnode_table = create_xnode_table(self.database, rows)
            self._compiler = XPathPlanCompiler(self.xnode_table, axes=axes)
        else:
            self.database = None
            self.xnode_table = None
            parts = []
            for index, shard in enumerate(partition_rows_by_tid(rows, segments)):
                database = Database(f"xpath-seg{index}")
                table = create_xnode_table(database, shard)
                parts.append(
                    Segment(
                        index, XPathPlanCompiler(table, axes=axes), len(shard)
                    )
                )
            self._compiler = SegmentedPlanCompiler(parts, get_pool=self._pool)
        self.plan_cache = PlanCache(plan_cache_size)

    @classmethod
    def from_store_mmap(
        cls,
        path: str,
        axes: frozenset = VERTICAL_FRAGMENT,
        plan_cache_size: int = 128,
        workers: Optional[int] = None,
        mode: Optional[str] = None,
    ) -> "XPathEngine":
        """Open an ``LPDB0004`` file of *start/end-labeled* rows zero-copy
        (save one with ``repro.labeling.xpath_scheme.label_corpus`` rows
        and ``save_labels(format='lpdb0004')``).  Columnar-only — no row
        table, no trees.  ``mode`` as in
        :meth:`repro.lpath.LPathEngine.from_store_mmap` (process default
        when ``workers > 1``); :meth:`close` unmaps the file."""
        from ..columnar.store import MappedColumnStore
        from ..store import open_mapped_corpus

        validate_segmentation(1, workers, mode)
        if mode is None:
            mode = "process" if workers is not None and workers > 1 else "thread"
        corpus = open_mapped_corpus(path)
        try:
            stores = [
                MappedColumnStore(segment, column_names=XNODE_COLUMNS)
                for segment in corpus.segments
            ]
            validate_segmentation(len(stores), workers)
            engine = cls.__new__(cls)
            engine.trees = []
            engine.executor = "columnar"
            engine.segments = len(stores)
            engine.workers = workers
            engine.mode = mode
            engine._mapped = corpus
            engine._pool = SegmentPool(workers, len(stores), mode=mode)
            engine.database = None
            engine.xnode_table = None
            if len(stores) == 1:
                engine._compiler = XPathPlanCompiler(
                    column_store=stores[0], axes=axes
                )
            else:
                engine._compiler = SegmentedPlanCompiler(
                    [
                        Segment(
                            index,
                            XPathPlanCompiler(column_store=store, axes=axes),
                            len(store),
                        )
                        for index, store in enumerate(stores)
                    ],
                    get_pool=engine._pool,
                    remote=RemoteSpec(
                        path, "XPath",
                        tuple(sorted(axis.name for axis in axes)),
                    ),
                )
            engine.plan_cache = PlanCache(plan_cache_size)
        except BaseException:
            corpus.close()
            raise
        return engine

    def close(self) -> None:
        """Release the worker pool, cached plans, relational stores and
        (for mmap-backed engines) the file mapping, so a closed engine is
        promptly garbage-collectable.  Idempotent."""
        self._pool.shutdown()
        self.plan_cache.clear()
        self.database = None
        self.xnode_table = None
        self._compiler = None
        self.trees = []
        mapped = getattr(self, "_mapped", None)
        if mapped is not None:
            mapped.close()
            self._mapped = None
