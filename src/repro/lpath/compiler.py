"""Compile LPath queries through the shared logical-plan IR.

Following Section 4 of the paper, every LPath axis becomes a join whose
condition is the Table 2 label comparison, evaluated against the paper's
physical design: the label relation clustered by ``{name, tid, left,
...}`` plus a ``{tid, id, ...}`` permutation, held as parallel column
arrays (:mod:`repro.columnar`).

All of the step/predicate machinery lives in :mod:`repro.plan` —
:mod:`~repro.plan.lower` builds the logical plan with the Definition-4.1
axis semantics of :class:`~repro.plan.schemes.LPathScheme`,
:mod:`~repro.plan.optimizer` runs predicate pushdown, the cost-based
probe-vs-merge join choice and (with ``pivot=True``) selectivity-driven
join reordering — and the columnar executor runs the result.  This module
only keeps the engine-facing façade.

The :mod:`repro.plan` imports are deliberately lazy: that package lowers
*this* package's AST, so importing it at module scope would be circular.
"""

from __future__ import annotations

from typing import Union

# ``columnar.PlanSkeleton`` and ``plan_lower.lower_and_optimize`` are read
# per call, so a wrapper installed on the module (a test, a tracer) applies.
from .. import columnar
from ..columnar.result import ResultBatch
from ..columnar.structural import read_knobs
from ..plan import lower as plan_lower
from ..plan.ir import Aggregate, Limit, PlanNode
from .ast import Path
from .errors import LPathCompileError

Query = Union[str, Path]


class CompiledQuery:
    """A compiled main pipeline ready to execute.

    ``limit`` carries a logical :class:`~repro.plan.ir.Limit` (top-k in
    output order) the physical plan was compiled under; ``agg`` carries
    an :class:`~repro.plan.ir.Aggregate` operation.  Both are recorded
    here (the physical pipeline ends at Distinct) and applied by
    :meth:`rows` / :meth:`aggregate`."""

    def __init__(
        self,
        plan,
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
        — the top-k when the plan carries a limit (the pipeline
        terminates early instead of truncating)."""
        if self.limit is not None:
            return self.plan.rows_limited(self.limit)
        return self.plan.execute()

    def count(self) -> int:
        """The result size; bare scans count from partition bounds
        instead of emitting their rows."""
        if self.limit is not None:
            return len(self.rows())
        return self.plan.count_rows()

    def aggregate(self) -> dict:
        """Evaluate the plan's aggregate: ``{"count": n}`` for plain
        counts, ``{group: n}`` for the grouped forms (the group value is
        the third component of the extended distinct key)."""
        if self.agg is None:
            raise LPathCompileError("plan carries no aggregate")
        if self.agg == "count":
            return {"count": self.count()}
        return self.plan.group_counts()

    def explain(self) -> str:
        """The logical IR (uniform across dialects) plus the physical plan."""
        parts = [self.description]
        if self.logical is not None:
            parts.append("logical plan:\n" + self.lowered.render(self.logical))
        parts.append("physical plan:\n" + self.plan.explain(indent=2))
        return "\n".join(parts)


class PlanCompiler:
    """Compiles parsed LPath queries against one column store.

    Subclasses (the XPath baseline) override :attr:`dialect`,
    :attr:`result_class` and the scheme; the compile pipeline itself —
    parse → lower (pivoted or not) → optimize → physical-compile — exists
    only here."""

    dialect = "LPath"
    result_class = CompiledQuery

    def __init__(
        self,
        column_store,
        scheme=None,
    ) -> None:
        from ..plan.lower import Lowerer
        from ..plan.schemes import LPathScheme

        self.column_store = column_store
        self.scheme = scheme if scheme is not None else LPathScheme()
        self.lowerer = Lowerer(self.scheme, column_store, self.dialect)
        self._columnar_runtime = None

    @property
    def columnar_runtime(self):
        """The columnar physical context, built on first use."""
        if self._columnar_runtime is None:
            self._columnar_runtime = columnar.ColumnarRuntime(
                self.column_store, self.scheme
            )
        return self._columnar_runtime

    def compile(
        self, query: Query, pivot: bool = False,
        limit: int = None, agg: str = None,
    ) -> CompiledQuery:
        """Compile a query; ``pivot=True`` enables selectivity-driven join
        ordering: when the query is a plain step chain, the join starts at
        the step with the rarest tag and extends leftward through inverted
        axes (and downward-only ``exists`` predicates pivot the same way).
        An optimization beyond the paper, measured by
        ``benchmarks/bench_ablation_indexes.py``.  ``limit`` compiles a top-k plan; ``agg`` an aggregate plan
        (mutually exclusive)."""
        knobs = read_knobs()
        root, lowered = plan_lower.lower_and_optimize(
            self.lowerer, query, pivot, limit=limit, agg=agg, knobs=knobs,
        )
        return self.compile_physical(root, lowered, knobs)

    @staticmethod
    def unwrap(root: PlanNode) -> tuple:
        """``(inner, limit, agg)``: ``root`` without its ``Limit`` /
        ``Aggregate`` wrapper and what the wrapper asked for."""
        if isinstance(root, Limit):
            return root.input, root.count, None
        if isinstance(root, Aggregate):
            return root.input, None, root.op
        return root, None, None

    def compile_physical(
        self, root: PlanNode, lowered, knobs=None
    ) -> CompiledQuery:
        """Compile an already optimized logical plan against *this*
        store.  Split out of :meth:`compile` so a segmented engine can
        lower and optimize a query once and physical-compile it against
        every segment (:mod:`repro.plan.segmented`).

        That is two halves: the first call with a given ``lowered``
        builds the plan's segment-independent
        :class:`~repro.columnar.PlanSkeleton` and leaves it there; this
        and every later call — another segment, a live corpus's next
        one — only *bind* it to this store.  ``knobs`` is the caller's
        one read of the environment
        (:func:`~repro.columnar.structural.read_knobs`).

        A ``Limit``/``Aggregate`` wrapper is peeled off here: the
        physical pipeline ends at Distinct, so the wrapper becomes an
        attribute of the compiled query (applied in
        :meth:`CompiledQuery.rows` / :meth:`CompiledQuery.aggregate`)
        while ``explain()`` still renders it from the logical root."""
        inner, limit, agg = self.unwrap(root)
        knobs = read_knobs(knobs)
        if lowered.skeleton is None:
            lowered.skeleton = columnar.PlanSkeleton(inner, knobs)
        physical = lowered.skeleton.bind(self.columnar_runtime, knobs.injector)
        return self.result_class(physical, lowered, root, limit=limit, agg=agg)
