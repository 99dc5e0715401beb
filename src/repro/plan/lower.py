"""Shared AST → logical-IR lowering for both query dialects.

One :class:`Lowerer` serves the LPath engine and the baseline XPath
engine: every dialect difference (axis inventory, probe shapes, value
semantics) is delegated to a :class:`~repro.plan.schemes.LabelScheme`
adapter, so the step/predicate/scope machinery exists exactly once.

Lowering follows Section 4 of the paper: every axis becomes a join whose
condition is the Table 2 label comparison, evaluated index-nested-loop
style against the paper's physical design.  A *binding* is the
concatenation of the label rows matched by the steps so far (one slot of 8
columns per step); slots are assigned at lowering time, so scoping and
edge alignment are plain column comparisons.  Predicates lower to
condition trees whose correlated subplans are themselves IR (rooted at
:class:`~repro.plan.ir.Context`).

Positional predicates (``position()``/``last()``) are supported in the
restricted forms needed by XPath rewrites — a positional predicate must be
the first predicate of its step and its axis must be child or a sibling
axis; the tree-walk evaluator covers the general semantics.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from ..lpath.ast import (
    AndExpr,
    Comparison,
    FunctionCall,
    Literal,
    NodeTest,
    NotExpr,
    Number,
    OrExpr,
    Path,
    PathExists,
    PredicateExpr,
    Scope,
    Step,
)
from ..lpath import parser  # ``parser.parse`` read per call: tracers wrap it
from ..lpath.axes import OR_SELF_BASES, Axis
from ..lpath.errors import LPathCompileError
from ..lpath.functions import as_float
from .ir import (
    AGGREGATE_OPS,
    Aggregate,
    AllPred,
    AnyPred,
    BoolConst,
    CLUSTERED,
    Cmp,
    Col,
    Const,
    Context,
    CountCmpPred,
    Distinct,
    ExistsPred,
    Filter,
    IndexProbe,
    IsAttr,
    IsElement,
    Join,
    Limit,
    NotPred,
    PlanNode,
    PositionPred,
    Pred,
    Scan,
    TID_ID,
    TableScan,
    ValueCmpPred,
    ValueSeed,
    render,
    D, I, L, N, P, R, T,
)
from .schemes import DOWNWARD_AXES, LabelScheme

_FLIPPED_OPS = {"<": ">", ">": "<", "<=": ">=", ">=": "<=", "=": "=", "!=": "!="}


@dataclass
class LoweredQuery:
    """The logical plan of one query plus its result bookkeeping — and,
    once it has been physical-compiled, the segment-independent half of
    that compile (``skeleton``, built inside the first
    ``compile_physical`` call and bound per segment from then on).
    ``description`` — the header ``explain()`` prints — unparses the AST
    when it is read, not on every compile; ``catalog`` and ``knobs``
    are the first compile's, which :meth:`annotate` costs joins against."""

    root: PlanNode
    result_slot: int
    header: str          # ``"LPath plan for {}"``: the slot takes the query
    path: Path
    skeleton: object = None
    catalog: object = None
    knobs: object = None

    @property
    def description(self) -> str:
        return self.header.format(self.path)

    def render(self, root: PlanNode) -> str:
        """``root``, this query's optimized plan, as ``explain()`` prints it."""
        self.annotate(root)
        return render(root, indent=2)

    def annotate(self, root: PlanNode) -> None:
        """Cost ``root``'s joins (:func:`~repro.plan.optimizer.annotate_joins`)
        once, then drop the catalog: a plan carried across live swaps holds
        no retired store.  Racing callers write the same values."""
        if (catalog := self.catalog) is not None:
            optimizer.annotate_joins(root, catalog, self.knobs)
            self.catalog = None


def lower_and_optimize(
    lowerer: "Lowerer", query, pivot: bool = False,
    limit: Optional[int] = None, agg: Optional[str] = None, knobs=None,
) -> tuple[PlanNode, LoweredQuery]:
    """The logical half of every compile: parse (if text), lower —
    pivoted when requested and applicable, plain otherwise — and
    optimize.  Shared by the monolithic compilers and the segmented
    driver so the pivot-fallback and optimizer invocation can never
    diverge between them.  ``knobs``, the caller's one read of the
    environment, is kept for ``explain()``'s join annotations.

    ``limit`` wraps the optimized plan in a :class:`~repro.plan.ir.Limit`
    (top-k in output order); ``agg`` wraps it in an
    :class:`~repro.plan.ir.Aggregate` — the grouped forms extend the
    Distinct key with the grouping column, which is functionally
    dependent on ``(tid, id)`` and so never changes the distinct result
    cardinality.  The two are mutually exclusive (a truncated aggregate
    has no defined semantics)."""
    if limit is not None and agg is not None:
        raise LPathCompileError("limit and agg cannot be combined")
    if limit is not None and limit < 0:
        raise LPathCompileError(f"limit must be non-negative, got {limit}")
    if agg is not None and agg not in AGGREGATE_OPS:
        raise LPathCompileError(
            f"unknown aggregate {agg!r} (expected one of {', '.join(AGGREGATE_OPS)})"
        )
    path = parser.parse(query) if isinstance(query, str) else query
    lowered = lowerer.lower_pivot(path) if pivot else None
    if lowered is None:
        lowered = lowerer.lower(path)
    root = optimizer.optimize(lowered.root, lowerer, pivot=pivot)
    lowered.catalog, lowered.knobs = lowerer.catalog, knobs
    slot = lowered.result_slot
    if agg in ("count_by_name", "count_by_depth"):
        group_col = N if agg == "count_by_name" else D
        if isinstance(root, Distinct) and root.key == ((slot, T), (slot, I)):
            root.key = ((slot, T), (slot, I), (slot, group_col))
    if agg is not None:
        root = Aggregate(root, agg, slot)
    elif limit is not None:
        root = Limit(root, limit)
    return root, lowered


class Lowerer:
    """Lower parsed queries to the shared IR for one engine instance."""

    def __init__(self, scheme: LabelScheme, catalog, dialect: str) -> None:
        self.scheme = scheme
        self.catalog = catalog
        self.dialect = dialect

    # -- entry points --------------------------------------------------------

    def lower(self, path: Path) -> LoweredQuery:
        """The straightforward left-to-right plan for ``path``."""
        items = list(path.items)
        if not items or isinstance(items[0], Scope):
            raise LPathCompileError("a query must begin with a step")
        self.scheme.validate(items)
        first = items[0]
        node: PlanNode = self.first_scan(first)
        node = self._first_step_filter(node, first)
        node = self._chain(node, items[1:], ctx=0, next_slot=1, scope=None)
        result_slot = self._result_slot(items)
        root = Distinct(node, key=((result_slot, T), (result_slot, I)))
        return LoweredQuery(
            root, result_slot, f"{self.dialect} plan for {{}}", path
        )

    def lower_pivot(self, path: Path) -> Optional[LoweredQuery]:
        """Selectivity-pivoted plan for a plain step chain, or ``None``.

        When the query is a plain chain of invertible axes, the join starts
        at the step with the rarest tag and extends leftward through
        inverted axes — an optimization beyond the paper (see DESIGN.md
        ablations), generalized here to both labeling schemes.
        """
        items = list(path.items)
        steps = self._pivotable_chain(items, first_axes=(Axis.DESCENDANT, Axis.CHILD))
        if steps is None:
            return None
        pivot_index = self._pivot_index(steps)
        if pivot_index is None:
            return None
        self.scheme.validate(items)

        order = [pivot_index] + list(range(pivot_index - 1, -1, -1)) + list(
            range(pivot_index + 1, len(steps))
        )
        slot_of = {step_index: position for position, step_index in enumerate(order)}

        pivot_step = steps[pivot_index]
        seed = Step(Axis.DESCENDANT, pivot_step.test, predicates=pivot_step.predicates)
        node: PlanNode = self.first_scan(seed)
        node = self._first_step_filter(node, seed)
        for step_index in order[1:]:
            if step_index < pivot_index:
                # Extend left: invert the axis of the step to our right.
                axis = self.scheme.inverse(steps[step_index + 1].axis)
                ctx = slot_of[step_index + 1]
            else:
                axis = steps[step_index].axis
                ctx = slot_of[step_index - 1]
            original = steps[step_index]
            node = self._join_step(
                Step(axis, original.test, predicates=original.predicates),
                ctx=ctx,
                cand=slot_of[step_index],
                scope=None,
                node=node,
            )
            if step_index == 0 and steps[0].axis is Axis.CHILD:
                node = Filter(
                    node, (Cmp(Col(slot_of[0], P), "=", Const(0)),), "root step"
                )
        result_slot = slot_of[len(steps) - 1]
        root = Distinct(node, key=((result_slot, T), (result_slot, I)))
        return LoweredQuery(
            root,
            result_slot,
            f"{self.dialect} pivot plan for {{}} (pivot step {pivot_index + 1})",
            path,
        )

    def lower_subchain_pivot(
        self, steps: Sequence[Step], ctx: int, free_slot: int
    ) -> Optional[PlanNode]:
        """Pivoted correlated subplan for a downward-only predicate chain.

        The composition of downward axes is again a descendant relation, so
        the subplan can be seeded by one descendant probe from the context
        at the rarest step, then extended leftward through inverted axes;
        the original first-step axis condition re-links step 0 to the
        context.  Used by the optimizer for ``exists`` predicates only
        (reordering changes which slot is materialized last, so value and
        count comparisons keep their original order).
        """
        if any(step.axis not in DOWNWARD_AXES for step in steps):
            return None
        chain = self._pivotable_chain(list(steps), first_axes=DOWNWARD_AXES)
        if chain is None:
            return None
        pivot_index = self._pivot_index(chain)
        if pivot_index is None:
            return None

        order = [pivot_index] + list(range(pivot_index - 1, -1, -1)) + list(
            range(pivot_index + 1, len(chain))
        )
        slot_of = {index: free_slot + position for position, index in enumerate(order)}
        strict = any(
            step.axis in (Axis.CHILD, Axis.DESCENDANT)
            for step in chain[: pivot_index + 1]
        )
        seed_axis = Axis.DESCENDANT if strict else Axis.DESCENDANT_OR_SELF
        pivot_step = chain[pivot_index]
        node: PlanNode = self._join_step(
            Step(seed_axis, pivot_step.test, predicates=pivot_step.predicates),
            ctx=ctx,
            cand=slot_of[pivot_index],
            scope=None,
            node=Context(ctx),
        )
        for step_index in order[1:]:
            if step_index < pivot_index:
                axis = self.scheme.inverse(chain[step_index + 1].axis)
                step_ctx = slot_of[step_index + 1]
            else:
                axis = chain[step_index].axis
                step_ctx = slot_of[step_index - 1]
            original = chain[step_index]
            node = self._join_step(
                Step(axis, original.test, predicates=original.predicates),
                ctx=step_ctx,
                cand=slot_of[step_index],
                scope=None,
                node=node,
            )
            if step_index == 0:
                # Re-link the leftmost step to the context via its original axis.
                link = self.scheme.axis_conditions(chain[0].axis, ctx, slot_of[0])
                node.conditions = tuple(node.conditions) + tuple(link)
        return node

    # -- pivot applicability -------------------------------------------------

    def _pivotable_chain(self, items, first_axes) -> Optional[list[Step]]:
        steps: list[Step] = []
        for index, item in enumerate(items):
            if not isinstance(item, Step):
                return None
            if index > 0 and self.scheme.inverse(item.axis) is None:
                return None
            if item.left_aligned or item.right_aligned:
                return None
            if any(mentions_position(p) for p in item.predicates):
                return None  # positions are relative to the original axis
            steps.append(item)
        if len(steps) < 2:
            return None
        if steps[0].axis not in first_axes:
            return None
        return steps

    def _pivot_index(self, steps: Sequence[Step]) -> Optional[int]:
        frequency = [
            self.catalog.frequency(None if step.test.is_wildcard else step.test.name)
            for step in steps
        ]
        pivot_index = min(range(len(steps)), key=frequency.__getitem__)
        if pivot_index == 0:
            return None  # the default left-to-right plan is already optimal
        return pivot_index

    # -- first step ----------------------------------------------------------

    def first_scan(self, step: Step) -> Scan:
        if step.axis is Axis.DESCENDANT:
            root_only = False
        elif step.axis is Axis.CHILD:
            root_only = True
        else:
            raise LPathCompileError(
                f"a query cannot start with the {step.axis.value} axis"
            )
        found = find_attribute_equality(step.predicates)
        if found is not None:
            attr, literal = found
            name_test = None if step.test.is_wildcard else step.test.name
            return Scan(
                ValueSeed(attr, literal, name_test, root_only=root_only),
                (),
                f"value seed {attr}={literal}",
                step=step,
            )
        conditions: list[Pred] = []
        if step.test.is_wildcard:
            conditions.append(IsElement(0))
            if root_only:
                conditions.append(Cmp(Col(0, P), "=", Const(0)))
                label = "roots"
            else:
                label = "all elements"
            return Scan(TableScan(), tuple(conditions), label, step=step)
        name = step.test.name
        access = IndexProbe(CLUSTERED, (Const(name),))
        if root_only:
            conditions.append(Cmp(Col(0, P), "=", Const(0)))
            label = f"roots named {name}"
        else:
            label = f"elements named {name}"
        return Scan(access, tuple(conditions), label, step=step)

    def _first_step_filter(self, node: PlanNode, step: Step) -> PlanNode:
        """Alignment and predicates of the already-materialized first step."""
        checks = self.scheme.alignment_conditions(
            step.left_aligned, step.right_aligned, 0, None
        )
        for predicate in step.predicates:
            if mentions_position(predicate):
                raise LPathCompileError(
                    "positional predicates on the first step are not supported "
                    "by the plan backend"
                )
            checks.append(self._boolean(predicate, 0, 1, None))
        if checks:
            node = Filter(node, tuple(checks), "first step")
        return node

    # -- the step chain ------------------------------------------------------

    def _chain(
        self,
        node: PlanNode,
        items: Sequence,
        ctx: int,
        next_slot: int,
        scope: Optional[int],
    ) -> PlanNode:
        for item in items:
            if isinstance(item, Scope):
                # The context node becomes the scope; its row is already in
                # the binding at ``ctx``.
                return self._chain(
                    node, list(item.body.items), ctx, next_slot, scope=ctx
                )
            step = item
            if step.axis is Axis.SELF:
                node = self._self_filter(node, step, ctx, next_slot, scope)
                continue
            node = self._join_step(step, ctx, next_slot, scope, node)
            ctx = next_slot
            next_slot += 1
        return node

    def _result_slot(self, items: Sequence) -> int:
        """Slot of the result step (the last step, through scopes)."""
        slot = -1
        stack = list(items)
        while stack:
            item = stack.pop(0)
            if isinstance(item, Scope):
                stack = list(item.body.items)
                continue
            if item.axis is not Axis.SELF:
                slot += 1
        if slot < 0:
            raise LPathCompileError("query selects nothing")
        return slot

    def _self_filter(
        self,
        node: PlanNode,
        step: Step,
        ctx: int,
        next_slot: int,
        scope: Optional[int],
    ) -> PlanNode:
        checks: list[Pred] = []
        if not step.test.is_wildcard:
            checks.append(Cmp(Col(ctx, N), "=", Const(step.test.name)))
        checks.extend(
            self.scheme.alignment_conditions(
                step.left_aligned, step.right_aligned, ctx, scope
            )
        )
        for predicate in step.predicates:
            if mentions_position(predicate):
                raise LPathCompileError(
                    "positional predicates on self steps are unsupported"
                )
            checks.append(self._boolean(predicate, ctx, next_slot, scope))
        if not checks:
            return node
        return Filter(node, tuple(checks), "self step")

    def _join_step(
        self,
        step: Step,
        ctx: int,
        cand: int,
        scope: Optional[int],
        node: PlanNode,
    ) -> Join:
        access, conditions = self._probe(step, ctx, cand, scope)
        if scope is not None:
            conditions.extend(self.scheme.scope_conditions(cand, scope))
        conditions.extend(
            self.scheme.alignment_conditions(
                step.left_aligned, step.right_aligned, cand, scope
            )
        )
        conditions.extend(self._step_predicates(step, ctx, cand, scope))
        return Join(
            node,
            slot=cand,
            access=access,
            conditions=tuple(conditions),
            label=f"{step.axis.value}::{step.test}",
            axis=step.axis,
            step=step,
            ctx_slot=ctx,
            scope_slot=scope,
        )

    def _probe(
        self, step: Step, ctx: int, cand: int, scope: Optional[int]
    ) -> tuple[object, list[Pred]]:
        axis, test = step.axis, step.test
        if axis is Axis.ATTRIBUTE:
            access = IndexProbe(TID_ID, (Col(ctx, T), Col(ctx, I)))
            if test.is_wildcard:
                return access, [IsAttr(cand)]
            return access, [Cmp(Col(cand, N), "=", Const("@" + test.name))]

        if axis is not Axis.PARENT:
            # Value-driven probe: a step with a direct [@attr = literal]
            # predicate is answered from the {tid, value, id} index — the
            # optimization behind the paper's fast value-predicate queries.
            found = find_attribute_equality(step.predicates)
            if found is not None:
                attr, literal = found
                name_test = None if test.is_wildcard else test.name
                # The axis's span window makes the join merge-eligible; the
                # or-self axes (a disjunction, no window) stay per-binding.
                window = (
                    None if axis in OR_SELF_BASES
                    else self.scheme.window(axis, ctx, scope)
                )
                access = ValueSeed(
                    attr, literal, name_test, tid=Col(ctx, T), window=window
                )
                return access, self.scheme.axis_conditions(axis, ctx, cand)

        if axis is Axis.PARENT:
            access = IndexProbe(TID_ID, (Col(ctx, T), Col(ctx, P)))
            if test.is_wildcard:
                return access, [IsElement(cand)]
            return access, [Cmp(Col(cand, N), "=", Const(test.name))]

        if test.is_wildcard:
            # No leading-name index applies: scan the tree's rows and filter
            # with the full Table 2 conditions.
            access = IndexProbe(TID_ID, (Col(ctx, T),))
            conditions: list[Pred] = [IsElement(cand)]
            conditions.extend(self.scheme.axis_conditions(axis, ctx, cand))
            return access, conditions

        access, conditions = self.scheme.named_probe(
            axis, test.name, ctx, cand, scope
        )
        return access, list(conditions)

    # -- predicates ----------------------------------------------------------

    def _step_predicates(
        self, step: Step, ctx: int, cand: int, scope: Optional[int]
    ) -> list[Pred]:
        checks: list[Pred] = []
        for index, predicate in enumerate(step.predicates):
            if mentions_position(predicate):
                if index != 0:
                    raise LPathCompileError(
                        "positional predicates must come first on their step "
                        "(use the tree-walk evaluator for full XPath semantics)"
                    )
                checks.append(self._positional(predicate, step, ctx, cand))
            else:
                checks.append(self._boolean(predicate, cand, cand + 1, scope))
        return checks

    def _boolean(
        self,
        expr: PredicateExpr,
        ctx: int,
        free_slot: int,
        scope: Optional[int],
    ) -> Pred:
        if isinstance(expr, OrExpr):
            return AnyPred(
                tuple(self._boolean(part, ctx, free_slot, scope) for part in expr.parts)
            )
        if isinstance(expr, AndExpr):
            return AllPred(
                tuple(self._boolean(part, ctx, free_slot, scope) for part in expr.parts)
            )
        if isinstance(expr, NotExpr):
            return NotPred(self._boolean(expr.part, ctx, free_slot, scope))
        if isinstance(expr, PathExists):
            return ExistsPred(self._subpath(expr.path, ctx, free_slot, scope))
        if isinstance(expr, Comparison):
            return self._comparison(expr, ctx, free_slot, scope)
        if isinstance(expr, FunctionCall):
            if expr.name == "true":
                return BoolConst(True)
            if expr.name == "false":
                return BoolConst(False)
            raise LPathCompileError(
                f"function {expr.name}() is not usable as a boolean here"
            )
        if isinstance(expr, Literal):
            return BoolConst(bool(expr.value))
        if isinstance(expr, Number):
            raise LPathCompileError(
                "bare numeric predicates are positional; unsupported here"
            )
        raise LPathCompileError(f"cannot compile predicate {expr!r}")

    def _comparison(
        self,
        expr: Comparison,
        ctx: int,
        free_slot: int,
        scope: Optional[int],
    ) -> Pred:
        left, op, right = expr.left, expr.op, expr.right
        # name() comparisons: a condition on the context row's name column.
        if (
            isinstance(left, FunctionCall)
            and left.name == "name"
            and isinstance(right, (Literal, Number))
        ):
            wanted = right.value if isinstance(right, Literal) else str(right.value)
            if op in ("=", "!="):
                return Cmp(Col(ctx, N), op, Const(wanted))
            raise LPathCompileError("name() only supports = and != comparisons")
        # count(path) op number.
        if isinstance(left, FunctionCall) and left.name == "count":
            return self._count(left, op, right, ctx, free_slot, scope)
        if isinstance(right, FunctionCall) and right.name == "count":
            return self._count(right, _FLIPPED_OPS[op], left, ctx, free_slot, scope)
        # path op literal/number (and the mirrored form).
        if isinstance(left, PathExists) and isinstance(right, (Literal, Number)):
            return self._value_comparison(left.path, op, right, ctx, free_slot, scope)
        if isinstance(right, PathExists) and isinstance(left, (Literal, Number)):
            return self._value_comparison(
                right.path, _FLIPPED_OPS[op], left, ctx, free_slot, scope
            )
        if isinstance(left, (Literal, Number)) and isinstance(right, (Literal, Number)):
            return BoolConst(static_compare(left, op, right))
        raise LPathCompileError(
            f"comparison {expr} is not supported by the plan backend"
        )

    def _count(
        self,
        call: FunctionCall,
        op: str,
        other: PredicateExpr,
        ctx: int,
        free_slot: int,
        scope: Optional[int],
    ) -> Pred:
        argument = call.args[0] if call.args else None
        if not isinstance(argument, PathExists):
            raise LPathCompileError("count() takes a path argument")
        if not isinstance(other, (Number, Literal)):
            raise LPathCompileError("count() comparisons need a numeric operand")
        try:
            target = float(other.value)
        except (TypeError, ValueError):
            raise LPathCompileError("count() comparisons need a numeric operand")
        subplan = self._subpath(argument.path, ctx, free_slot, scope)
        return CountCmpPred(subplan, op, target)

    def _value_comparison(
        self,
        path: Path,
        op: str,
        literal,
        ctx: int,
        free_slot: int,
        scope: Optional[int],
    ) -> Pred:
        subplan = self._subpath(path, ctx, free_slot, scope)
        numeric = isinstance(literal, Number) or op in ("<", "<=", ">", ">=")
        return ValueCmpPred(subplan, op, literal.value, numeric)

    def _subpath(
        self,
        path: Path,
        ctx: int,
        free_slot: int,
        scope: Optional[int],
    ) -> PlanNode:
        """A correlated subplan rooted at :class:`Context`."""
        node: PlanNode = Context(ctx)
        base = ctx
        free = free_slot
        items = list(path.items)
        index = 0
        while index < len(items):
            item = items[index]
            if isinstance(item, Scope):
                if index != len(items) - 1:
                    raise LPathCompileError("steps after a scope are not allowed")
                scope = base
                items = items[:index] + list(item.body.items)
                continue
            if item.axis is Axis.SELF:
                checks: list[Pred] = []
                if not item.test.is_wildcard:
                    checks.append(Cmp(Col(base, N), "=", Const(item.test.name)))
                checks.extend(
                    self.scheme.alignment_conditions(
                        item.left_aligned, item.right_aligned, base, scope
                    )
                )
                for predicate in item.predicates:
                    if mentions_position(predicate):
                        raise LPathCompileError(
                            "positional predicates on self steps are unsupported"
                        )
                    checks.append(self._boolean(predicate, base, free, scope))
                node = Filter(node, tuple(checks), "self step")
                index += 1
                continue
            node = self._join_step(item, base, free, scope, node)
            base = free
            free += 1
            index += 1
        return node

    # -- positional predicates ----------------------------------------------

    def _positional(
        self, predicate: PredicateExpr, step: Step, ctx: int, cand: int
    ) -> Pred:
        if step.axis not in self.scheme.positional_axes:
            raise LPathCompileError(
                f"positional predicates on the {step.axis.value} axis are not "
                "supported by the plan backend"
            )
        if not isinstance(predicate, Comparison):
            raise LPathCompileError("unsupported positional predicate form")
        left, op, right = predicate.left, predicate.op, predicate.right
        if not (isinstance(left, FunctionCall) and left.name == "position"):
            raise LPathCompileError("positional predicates must test position()")
        use_last = isinstance(right, FunctionCall) and right.name == "last"
        if not use_last and not isinstance(right, Number):
            raise LPathCompileError("position() must be compared to a number or last()")
        return PositionPred(
            step.axis,
            None if step.test.is_wildcard else step.test.name,
            op,
            None if use_last else float(right.value),
            ctx,
            cand,
        )


# -- shared AST helpers --------------------------------------------------------


def find_attribute_equality(
    predicates: Sequence[PredicateExpr],
) -> Optional[tuple[str, object]]:
    """Find a direct ``[@attr = literal]`` among a step's predicates:
    ``(@attr, its Literal or Number)``."""
    stack = list(predicates)
    while stack:
        expr = stack.pop(0)
        if isinstance(expr, AndExpr):
            stack = list(expr.parts) + stack
            continue
        if not isinstance(expr, Comparison) or expr.op != "=":
            continue
        for path_side, other in ((expr.left, expr.right), (expr.right, expr.left)):
            if not isinstance(path_side, PathExists):
                continue
            if not isinstance(other, (Literal, Number)):
                continue
            items = path_side.path.items
            if len(items) != 1 or not isinstance(items[0], Step):
                continue
            step = items[0]
            if step.axis is not Axis.ATTRIBUTE or step.test.is_wildcard or step.predicates:
                continue
            return "@" + step.test.name, other
    return None


def mentions_position(expr: PredicateExpr) -> bool:
    if isinstance(expr, (OrExpr, AndExpr)):
        return any(mentions_position(part) for part in expr.parts)
    if isinstance(expr, NotExpr):
        return mentions_position(expr.part)
    if isinstance(expr, Comparison):
        return mentions_position(expr.left) or mentions_position(expr.right)
    if isinstance(expr, FunctionCall):
        return expr.name in ("position", "last")
    return False


def paths_in_predicate(expr: PredicateExpr) -> Iterator:
    """Every step nested in a predicate expression (for validation)."""
    if isinstance(expr, (OrExpr, AndExpr)):
        for part in expr.parts:
            yield from paths_in_predicate(part)
    elif isinstance(expr, NotExpr):
        yield from paths_in_predicate(expr.part)
    elif isinstance(expr, Comparison):
        yield from paths_in_predicate(expr.left)
        yield from paths_in_predicate(expr.right)
    elif isinstance(expr, FunctionCall):
        for arg in expr.args:
            yield from paths_in_predicate(arg)
    elif isinstance(expr, PathExists):
        yield from expr.path.items


#: The comparison operators by their surface spelling.
COMPARISONS = {
    "=": operator.eq, "!=": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}


def static_compare(left, op: str, right) -> bool:
    left_value = left.value
    right_value = right.value
    if isinstance(left, Number) or isinstance(right, Number):
        left_number = as_float(left_value)
        right_number = as_float(right_value)
        if left_number is None or right_number is None:
            return op == "!="
        return COMPARISONS[op](left_number, right_number)
    if op in ("=", "!="):
        return COMPARISONS[op](left_value, right_value)
    left_number, right_number = as_float(left_value), as_float(right_value)
    if left_number is None or right_number is None:
        return False
    return COMPARISONS[op](left_number, right_number)


# Last: the optimizer imports this module's names.
from . import optimizer  # noqa: E402
