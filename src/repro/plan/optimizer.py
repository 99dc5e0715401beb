"""Optimizer passes over the logical IR.

Three walks run between lowering and execution, for both dialects:

* :func:`reorder_exists_subplans` (``pivot=True`` only) — the
  selectivity-driven join reordering generalized to correlated ``exists``
  predicate subplans: a downward-only chain is re-lowered to start at its
  rarest step (main-chain reordering lives in
  :meth:`repro.plan.lower.Lowerer.lower_pivot`);
* :func:`push_down` — classic predicate pushdown over the main pipeline:
  every :class:`~repro.plan.ir.Filter` condition sinks to the deepest
  :class:`Scan`/:class:`Join` whose bound slots cover it, and equality
  conditions on the ``name`` column upgrade the access path itself (a
  table scan, or the per-tree ``idx_tid_id`` fallback probe, becomes a
  clustered name probe);
* :func:`finish_conditions` — one traversal of the chain and every
  subplan under it that, per node, drops duplicated and implied
  comparisons (scoped steps emit their containment residuals twice) and
  orders what is left cheapest-first (the rarest ``exists`` before a
  common one, from catalog statistics).

:func:`annotate_joins` is no pass: only ``explain()`` reads what it
records, the probe vs. structural merge choice of every merge-eligible
``Join``, so a plan makes it once, when first explained or rebased
(:meth:`~repro.plan.lower.LoweredQuery.annotate`); each bind runs the
same cost model on its own shard.

All passes mutate the IR in place and preserve results exactly; they are
covered by the cross-backend differential sweeps.
"""

from __future__ import annotations

from typing import Optional

from .ir import (
    AllPred,
    AnyPred,
    BoolConst,
    CLUSTERED,
    Cmp,
    Col,
    Const,
    Context,
    CountCmpPred,
    ExistsPred,
    Filter,
    IndexProbe,
    Join,
    NotPred,
    PlanNode,
    PositionPred,
    Pred,
    Scan,
    TID_ID,
    TableScan,
    ValueCmpPred,
    ValueSeed,
    child_of,
    linearize,
    pred_slots,
    set_child,
    subplan_preds,
    D, L, N, R,
)
from ..columnar import structural
from ..lpath.axes import Axis
from .lower import _FLIPPED_OPS, Lowerer


def optimize(root: PlanNode, lowerer: Lowerer, pivot: bool = False) -> PlanNode:
    """Run every pass; returns the (mutated) root."""
    if pivot:
        reorder_exists_subplans(root, lowerer)
    root = push_down(root)
    finish_conditions(root, lowerer.catalog)
    return root


# -- predicate pushdown -------------------------------------------------------


def push_down(root: PlanNode) -> PlanNode:
    """Sink Filter conditions down the main pipeline and upgrade access
    paths that a sunk name-equality condition can narrow."""
    chain = linearize(root)
    if not isinstance(chain[0], Scan):
        return root  # correlated subplans are built tight already
    bound: dict[int, set[int]] = {}
    slots: set[int] = set()
    for position, node in enumerate(chain):
        if isinstance(node, (Scan, Join)):
            slots = slots | {node.slot}
        bound[position] = slots

    for position, node in enumerate(chain):
        if not isinstance(node, Filter):
            continue
        remaining: list[Pred] = []
        for condition in node.conditions:
            target = _sink_target(chain, position, condition, bound)
            if target is None:
                remaining.append(condition)
            else:
                target.conditions = tuple(target.conditions) + (condition,)
        node.conditions = tuple(remaining)

    for node in chain:
        if isinstance(node, (Scan, Join)):
            _upgrade_access(node)

    return _drop_empty_filters(root)


def _sink_target(
    chain: list[PlanNode], position: int, condition: Pred, bound: dict[int, set[int]]
) -> Optional[PlanNode]:
    """The deepest Scan/Join below ``position`` that binds every slot the
    condition reads, or ``None`` to leave it in place."""
    refs = pred_slots(condition)
    for index in range(position - 1, -1, -1):
        node = chain[index]
        if not isinstance(node, (Scan, Join)):
            continue
        if refs <= bound[index]:
            return node
    return None


def _upgrade_access(node) -> None:
    """Turn a broad access path plus a name-equality condition into a
    clustered name probe (predicate pushdown into the index)."""
    name_cond = None
    for condition in node.conditions:
        if (
            isinstance(condition, Cmp)
            and condition.op == "="
            and isinstance(condition.left, Col)
            and condition.left.col == N
            and condition.left.slot == node.slot
            and isinstance(condition.right, Const)
            and isinstance(condition.right.value, str)
        ):
            name_cond = condition
            break
    if name_cond is None:
        return
    name = name_cond.right.value
    keep = tuple(c for c in node.conditions if c is not name_cond)
    if isinstance(node, Scan) and isinstance(node.access, TableScan):
        node.access = IndexProbe(CLUSTERED, (Const(name),))
        node.conditions = keep
        node.label = f"{node.label} named {name}"
        return
    if (
        isinstance(node, Join)
        and isinstance(node.access, IndexProbe)
        and node.access.index == TID_ID
        and len(node.access.eq) == 1
        and node.access.low is None
        and node.access.high is None
        and node.access.self_slot is None
    ):
        tid = node.access.eq[0]
        node.access = IndexProbe(CLUSTERED, (Const(name), tid))
        node.conditions = keep


def _drop_empty_filters(root: PlanNode) -> PlanNode:
    chain = linearize(root)
    rebuilt: Optional[PlanNode] = None
    for node in chain:
        if isinstance(node, Filter) and not node.conditions:
            continue
        if rebuilt is not None and child_of(node) is not None:
            set_child(node, rebuilt)
        rebuilt = node
    return rebuilt if rebuilt is not None else root


# -- redundant residuals ------------------------------------------------------

#: ``op -> the stronger ops that imply it`` over one operand pair.
_IMPLIED_BY = {
    "<=": ("=", "<"),
    ">=": ("=", ">"),
    "!=": ("<", ">"),
}


def _operand_order(operand) -> tuple:
    if isinstance(operand, Col):
        return (0, operand.slot, operand.col)
    return (1, repr(operand.value))


def _canonical(cmp: Cmp) -> tuple:
    """``(left, op, right)`` with the operand pair in one fixed order, so
    ``s0.left <= s1.left`` and ``s1.left >= s0.left`` compare equal."""
    left, op, right = cmp.left, cmp.op, cmp.right
    if _operand_order(right) < _operand_order(left):
        left, op, right = right, _FLIPPED_OPS[op], left
    return left, op, right


def _implied(key: tuple, held: set) -> bool:
    """Is a stronger comparison over ``key``'s operand pair among ``held``?"""
    left, op, right = key
    return any(
        (left, stronger, right) in held for stronger in _IMPLIED_BY.get(op, ())
    )


def _on_element(cmp: Pred, attr_slot: int, slot: int) -> Optional[Cmp]:
    """A span/depth comparison on an attribute row, re-addressed to the
    row's element at ``slot`` — Definition-4.1 attribute rows share their
    element's positional fields — or ``None`` for anything else."""
    if not isinstance(cmp, Cmp):
        return None
    moved = []
    for operand in (cmp.left, cmp.right):
        if isinstance(operand, Col) and operand.slot == attr_slot:
            if operand.col not in (L, R, D):
                return None
            operand = Col(slot, operand.col)
        moved.append(operand)
    return Cmp(moved[0], cmp.op, moved[1])


def _answered_by_seed(node: PlanNode, condition: Pred, held: set) -> bool:
    """Is ``condition`` the ``[@attr = literal]`` test that ``node``'s
    :class:`ValueSeed` access was built from?  Every seeded row has an
    ``attr`` row whose value is the literal, so re-running the one-step
    attribute subplan per row can only say yes.  Inside a scope the
    attribute step also repeats the scope's containment; that holds for
    the attribute row exactly when it does for the seeded element, so it
    is no obstacle when ``node`` (canonical comparisons ``held``) checks
    it, or something stronger, itself."""
    access = getattr(node, "access", None)
    if not (
        isinstance(access, ValueSeed)
        and isinstance(condition, ValueCmpPred)
        and condition.op == "="
        and condition.value == access.literal.value
    ):
        return False
    chain = linearize(condition.subplan)
    if len(chain) != 2 or not isinstance(chain[1], Join):
        return False
    step = chain[1]
    if step.axis is not Axis.ATTRIBUTE or step.ctx_slot != node.slot:
        return False
    name_test = Cmp(Col(step.slot, N), "=", Const(access.attr))
    rest = [c for c in step.conditions if c != name_test]
    if len(rest) == len(step.conditions):
        return False
    for extra in rest:
        moved = _on_element(extra, step.slot, node.slot)
        if moved is None:
            return False
        key = _canonical(moved)
        if key not in held and not _implied(key, held):
            return False
    return True


def _pruned(node: PlanNode) -> list[Pred]:
    """``node``'s conditions minus those the rest of the node already
    guarantees: exact duplicates, weaker comparisons over the same
    operand pair (``a >= b`` beside ``a > b``; ``a <= b`` beside
    ``a = b``), and the ``[@attr = literal]`` test a value-seed access
    answers by construction.  Scoped steps emit their containment
    residuals once for the axis and once for the scope, so every
    ``{...}`` step used to check each column twice."""
    keys = [
        _canonical(c) if isinstance(c, Cmp) else None
        for c in node.conditions
    ]
    held = set(keys)
    kept: list[Pred] = []
    seen: set = set()
    for condition, key in zip(node.conditions, keys):
        if key is None:
            if _answered_by_seed(node, condition, held):
                continue
        else:
            if key in seen or _implied(key, held):
                continue
            seen.add(key)
        kept.append(condition)
    return kept


# -- join reordering for predicate subplans -----------------------------------


def reorder_exists_subplans(root: PlanNode, lowerer: Lowerer) -> None:
    """Pivot downward-only ``exists`` subplans to start at their rarest step."""
    for node in linearize(root):
        if isinstance(node, (Scan, Join, Filter)):
            for condition in node.conditions:
                _reorder_in_pred(condition, lowerer)


def _reorder_in_pred(pred: Pred, lowerer: Lowerer) -> None:
    if isinstance(pred, (AllPred, AnyPred)):
        for part in pred.parts:
            _reorder_in_pred(part, lowerer)
        return
    if isinstance(pred, NotPred):
        _reorder_in_pred(pred.part, lowerer)
        return
    if isinstance(pred, (ValueCmpPred, CountCmpPred)):
        # Reordering changes which slot is materialized last; these need the
        # original result step's rows, so only recurse into nested exists.
        reorder_exists_subplans(pred.subplan, lowerer)
        return
    if not isinstance(pred, ExistsPred):
        return
    reorder_exists_subplans(pred.subplan, lowerer)
    replacement = _pivoted_subplan(pred.subplan, lowerer)
    if replacement is not None:
        pred.subplan = replacement


def _pivoted_subplan(subplan: PlanNode, lowerer: Lowerer) -> Optional[PlanNode]:
    chain = linearize(subplan)
    if not isinstance(chain[0], Context) or len(chain) < 3:
        return None
    joins = chain[1:]
    if not all(isinstance(node, Join) for node in joins):
        return None  # self-step filters pin evaluation order
    steps = []
    for join in joins:
        if join.step is None or join.scope_slot is not None:
            return None
        steps.append(join.step)
    ctx = joins[0].ctx_slot
    free_slot = joins[0].slot
    return lowerer.lower_subchain_pivot(steps, ctx, free_slot)


# -- the finishing traversal: prune, order, cost ------------------------------


def finish_conditions(root: PlanNode, stats) -> None:
    """One walk over a chain and, recursively, every predicate subplan
    under it.  Per node: drop redundant conditions (:func:`_pruned`) and
    stable-sort the rest cheapest-first (:func:`_condition_key`)."""
    for node in linearize(root):
        if not isinstance(node, (Scan, Join, Filter)):
            continue
        if node.conditions:
            kept = _pruned(node)
            if len(kept) > 1:
                kept.sort(key=lambda pred: _condition_key(pred, stats))
            node.conditions = tuple(kept)
            for condition in node.conditions:
                for pred, _negated in subplan_preds(condition):
                    finish_conditions(pred.subplan, stats)


def annotate_joins(
    root: PlanNode, stats, knobs, est: Optional[float] = None,
) -> None:
    """Record the cost-based probe vs. structural-merge choice on every
    merge-eligible ``Join`` (``Join.physical`` / ``Join.est_in``) — the
    main chain's and those of predicate subplans, which run over their
    owner's whole output and so are seeded with its estimate
    (:func:`~repro.columnar.structural.flow_estimate`).  ``knobs.force``
    pins the choice, and merge choices carry the resolved kernel backend
    (``merge/native`` | ``merge/python``) so ``explain()`` can never
    silently cross backends."""
    for node in linearize(root):
        if not isinstance(node, (Scan, Join, Filter)):
            continue
        est_in, est = structural.flow_estimate(node, stats, est)
        spec = structural.merge_spec(node)
        if spec is not None:
            choice = knobs.force or structural.choose_join(
                est_in, spec.name or node.access, stats
            )
            node.est_in = est_in
            node.physical = (
                f"merge/{knobs.backend}" if choice == "merge" else choice
            )
        for condition in node.conditions:
            for pred, _negated in subplan_preds(condition):
                annotate_joins(pred.subplan, stats, knobs, est)


def _condition_cost(pred: Pred) -> int:
    if isinstance(pred, (Cmp, BoolConst)):
        return 0
    if isinstance(pred, (AllPred, AnyPred, NotPred)):
        return 1 + max((_condition_cost(p) for p in _parts(pred)), default=0)
    if isinstance(pred, PositionPred):
        return 4
    if isinstance(pred, ExistsPred):
        return 6
    if isinstance(pred, (ValueCmpPred, CountCmpPred)):
        return 8
    return 0  # IsElement / IsAttr / RightEdge


def _parts(pred: Pred):
    if isinstance(pred, NotPred):
        return (pred.part,)
    return pred.parts


def _condition_key(pred: Pred, stats) -> tuple:
    """``(cost class, estimated cardinality of a subplan predicate's
    seeding probe)`` — the statistics-driven tiebreak between same-shape
    subplan conditions (a rare ``exists`` refutes bindings more cheaply
    than a common one)."""
    seed = 0.0
    if isinstance(pred, (ExistsPred, ValueCmpPred, CountCmpPred)):
        seed = float(stats.size())
        for node in linearize(pred.subplan):
            if isinstance(node, Join) and isinstance(node.access, IndexProbe):
                operand = node.access.eq[0] if node.access.eq else None
                if isinstance(operand, Const) and isinstance(operand.value, str):
                    seed = float(stats.frequency(operand.value))
                break
    return _condition_cost(pred), seed
