"""Compile LPath queries through the shared logical-plan IR.

Following Section 4 of the paper, every LPath axis becomes a join whose
condition is the Table 2 label comparison; joins are evaluated index-
nested-loop style against the paper's physical design (clustered
``{name, tid, left, ...}`` plus the ``{tid, value, id}``, ``{value, tid,
id}`` and ``{tid, id, ...}`` secondary indexes).

Since the unified-IR refactor all of the step/predicate machinery lives in
:mod:`repro.plan` — :mod:`~repro.plan.lower` builds the logical plan with
the Definition-4.1 axis semantics of
:class:`~repro.plan.schemes.LPathScheme`, :mod:`~repro.plan.optimizer`
runs predicate pushdown and (with ``pivot=True``) selectivity-driven join
reordering, and :mod:`~repro.plan.executor` interprets the result.  This
module only keeps the engine-facing façade.

The :mod:`repro.plan` imports are deliberately lazy: that package lowers
*this* package's AST, so importing it at module scope would be circular.
"""

from __future__ import annotations

from typing import Union

from collections import Counter

# ``columnar.PlanSkeleton`` and ``plan_lower.lower_and_optimize`` are read
# per call, so a wrapper installed on the module (a test, a tracer) applies.
from .. import columnar
from ..columnar.result import ResultBatch
from ..columnar.structural import read_knobs
from ..plan import lower as plan_lower
from ..plan.ir import Aggregate, Limit, PlanNode, render
from ..relational.operators import Operator
from ..relational.table import Table
from .ast import Path
from .errors import LPathCompileError

Query = Union[str, Path]


class CompiledQuery:
    """A compiled main pipeline ready to execute.

    ``limit`` carries a logical :class:`~repro.plan.ir.Limit` (top-k in
    output order) the physical plan was compiled under; ``agg`` carries
    an :class:`~repro.plan.ir.Aggregate` operation.  Both are recorded
    here (the physical executors reject post-output operators) and
    applied by :meth:`rows` / :meth:`aggregate`."""

    def __init__(
        self,
        plan: Operator,
        lowered,
        logical: PlanNode = None,
        limit: int = None,
        agg: str = None,
    ) -> None:
        self.plan = plan
        self.lowered = lowered
        self.logical = logical
        self.limit = limit
        self.agg = agg

    @property
    def description(self) -> str:
        return self.lowered.description

    def rows(self) -> ResultBatch:
        """The result step's distinct sorted ``(tid, id)`` pairs, packed
        — truncated to the top-k when the plan carries a limit (the
        columnar executor terminates early instead of truncating)."""
        execute = getattr(self.plan, "execute", None)
        if execute is None:  # the Volcano interpreter yields key tuples
            return ResultBatch.of(sorted(self.plan)[: self.limit])
        if self.limit is not None:
            return self.plan.rows_limited(self.limit)
        return execute()

    def count(self) -> int:
        if self.limit is not None:
            return len(self.rows())
        fast = getattr(self.plan, "count_rows", None)
        if fast is not None:
            # The columnar pipeline counts bare scans from partition
            # bounds instead of emitting them.
            return fast()
        return sum(1 for _ in self.plan)

    def aggregate(self) -> dict:
        """Evaluate the plan's aggregate: ``{"count": n}`` for plain
        counts, ``{group: n}`` for the grouped forms (the group value is
        the third component of the extended distinct key)."""
        if self.agg is None:
            raise LPathCompileError("plan carries no aggregate")
        if self.agg == "count":
            return {"count": self.count()}
        grouped = getattr(self.plan, "group_counts", None)
        if grouped is not None:
            return grouped()
        return dict(Counter(key[2] for key in self.plan))

    def explain(self) -> str:
        """The logical IR (uniform across dialects) plus the physical plan."""
        parts = [self.description]
        if self.logical is not None:
            parts.append("logical plan:\n" + render(self.logical, indent=2))
        parts.append("physical plan:\n" + self.plan.explain(indent=2))
        return "\n".join(parts)


EXECUTORS = ("volcano", "columnar")


class PlanCompiler:
    """Compiles parsed LPath queries against one loaded label relation.

    Subclasses (the XPath baseline) override :attr:`dialect`,
    :attr:`result_class` and the scheme; the compile pipeline itself —
    parse → lower (pivoted or not) → optimize → physical-compile — exists
    only here.  Two physical backends serve the same optimized IR: the
    tuple-at-a-time Volcano interpreter (:mod:`repro.plan.executor`, needs
    the row ``table``) and the batch columnar executor
    (:mod:`repro.columnar`, built lazily from the table's rows, or handed
    a prebuilt ``column_store`` for row-less engines)."""

    dialect = "LPath"
    result_class = CompiledQuery

    def __init__(
        self,
        table: Table = None,
        root_right: dict[int, int] = None,
        scheme=None,
        column_store=None,
    ) -> None:
        from ..plan.executor import Runtime
        from ..plan.lower import Lowerer
        from ..plan.schemes import Catalog, LPathScheme

        if table is None and column_store is None:
            raise ValueError("PlanCompiler needs a row table or a column store")
        self.table = table
        self.column_store = column_store
        self.root_right = root_right
        self.scheme = scheme if scheme is not None else LPathScheme()
        if table is not None:
            self.catalog = Catalog(table)
        else:
            from ..columnar import ColumnarCatalog

            self.catalog = ColumnarCatalog(column_store)
        self.lowerer = Lowerer(self.scheme, self.catalog, self.dialect)
        self.runtime = (
            Runtime(table, self.scheme, root_right) if table is not None else None
        )
        self._columnar_runtime = None

    @property
    def columnar_runtime(self):
        """The columnar physical context, built on first use."""
        if self._columnar_runtime is None:
            from ..columnar import ColumnStore, ColumnarRuntime

            store = self.column_store
            if store is None:
                store = ColumnStore.from_rows(
                    self.table.scan(), column_names=self.table.schema.columns[:8]
                )
                self.column_store = store
            index_columns = {}
            if self.table is not None:
                index_columns = {
                    name: index.columns for name, index in self.table.indexes.items()
                }
            self._columnar_runtime = ColumnarRuntime(
                store, self.scheme, self.root_right, index_columns
            )
        return self._columnar_runtime

    def compile(
        self, query: Query, pivot: bool = False, executor: str = "volcano",
        limit: int = None, agg: str = None,
    ) -> CompiledQuery:
        """Compile a query; ``pivot=True`` enables selectivity-driven join
        ordering: when the query is a plain step chain, the join starts at
        the step with the rarest tag and extends leftward through inverted
        axes (and downward-only ``exists`` predicates pivot the same way).
        An optimization beyond the paper (see DESIGN.md ablations).

        ``executor`` picks the physical backend for the optimized IR:
        ``"volcano"`` (tuple-at-a-time interpreter) or ``"columnar"``
        (batch execution over parallel arrays).  ``limit`` compiles a
        top-k plan; ``agg`` an aggregate plan (mutually exclusive)."""
        knobs = read_knobs() if executor == "columnar" else None
        root, lowered = plan_lower.lower_and_optimize(
            self.lowerer, query, pivot, executor, limit=limit, agg=agg,
            knobs=knobs,
        )
        return self.compile_physical(root, lowered, executor, knobs)

    def unwrap(self, root: PlanNode, executor: str) -> tuple:
        """``(inner, limit, agg)``: ``root`` without its ``Limit`` /
        ``Aggregate`` wrapper and what the wrapper asked for — after
        checking that this relation can run ``executor`` at all, so a
        part that is never physical-compiled (a segment pruned by its
        statistics) rejects what a compiled one would."""
        if executor not in EXECUTORS:
            raise LPathCompileError(
                f"unknown executor {executor!r}; choose from {EXECUTORS}"
            )
        if executor == "volcano" and self.runtime is None:
            raise LPathCompileError(
                "this engine has no row storage; use executor='columnar'"
            )
        if isinstance(root, Limit):
            return root.input, root.count, None
        if isinstance(root, Aggregate):
            return root.input, None, root.op
        return root, None, None

    def compile_physical(
        self, root: PlanNode, lowered, executor: str = "volcano", knobs=None
    ) -> CompiledQuery:
        """Compile an already optimized logical plan against *this*
        relation.  Split out of :meth:`compile` so a segmented engine can
        lower and optimize a query once and physical-compile it against
        every segment (:mod:`repro.plan.segmented`).

        For the batch executor that is two halves: the first call with a
        given ``lowered`` builds the plan's segment-independent
        :class:`~repro.columnar.PlanSkeleton` and leaves it there; this
        and every later call — another segment, a live corpus's next
        one — only *bind* it to this relation's column store.  ``knobs``
        is the caller's one read of the environment
        (:func:`~repro.columnar.structural.read_knobs`).

        A ``Limit``/``Aggregate`` wrapper is peeled off here: the
        physical executors end their pipelines at Distinct, so
        the wrapper becomes an attribute of the compiled query (applied
        in :meth:`CompiledQuery.rows` / :meth:`CompiledQuery.aggregate`)
        while ``explain()`` still renders it from the logical root."""
        inner, limit, agg = self.unwrap(root, executor)
        if executor == "columnar":
            knobs = read_knobs(knobs)
            if lowered.skeleton is None:
                lowered.skeleton = columnar.PlanSkeleton(inner, knobs)
            physical = lowered.skeleton.bind(self.columnar_runtime, knobs.injector)
        else:
            from ..plan.executor import compile_plan

            physical = compile_plan(inner, self.runtime)
        return self.result_class(physical, lowered, root, limit=limit, agg=agg)
