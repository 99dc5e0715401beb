"""The single physical interpreter for the logical IR.

One compiler turns IR plans into runnable form for both dialects:

* the main pipeline becomes a tree of the mini relational engine's
  physical operators (``Source`` → ``IndexNestedLoopJoin``/``Select`` →
  ``Distinct``), so ``explain()`` shows the familiar Volcano plan;
* correlated predicate subplans (rooted at :class:`~repro.plan.ir.Context`)
  compile to step lists driven by :func:`_run_steps` — the one recursive
  interpreter that replaced the per-dialect ``_run_plan``/``_run`` twins.

Everything runtime-specific (which table, which indexes, how to read an
element's string value) lives in :class:`Runtime`; compiled predicates and
probes are stateless closures, so compiled plans are re-iterable and safe
to keep in the plan cache.
"""

from __future__ import annotations

import operator
from typing import Callable, Iterable, Optional

from ..lpath.axes import Axis
from ..relational.expression import Func
from ..relational.operators import (
    Distinct as PhysicalDistinct,
    IndexNestedLoopJoin,
    Operator,
    Select,
    Source,
)
from ..relational.table import Table
from .ir import (
    AllPred,
    AnyPred,
    BoolConst,
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
    NotPred,
    PlanNode,
    PositionPred,
    Pred,
    RightEdge,
    ROW_WIDTH,
    Scan,
    TableScan,
    ValueCmpPred,
    ValueSeed,
    linearize,
    I, L, N, P, R, T, V,
)
from .lower import as_float, numeric_compare
from .schemes import LabelScheme

BindingCheck = Callable[[tuple], bool]
RowProbe = Callable[[tuple], Iterable[tuple]]

_OPS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


class Runtime:
    """One engine's physical context: table, indexes, scheme semantics."""

    def __init__(
        self,
        table: Table,
        scheme: LabelScheme,
        root_right: Optional[dict[int, int]] = None,
    ) -> None:
        self.table = table
        self.scheme = scheme
        self.clustered = table.clustered
        self.by_tid_id = table.index("idx_tid_id")
        self.by_value_tid = table.index("idx_value_tid_id")
        self.by_tid_value = table.index("idx_tid_value_id")
        self.root_right = root_right

    def index_by_name(self, name: str):
        if name == self.clustered.name:
            return self.clustered
        return self.table.index(name)

    def string_value(self, row: tuple) -> Optional[str]:
        """The string value of one label row; ``None`` when the scheme
        cannot compute it (start/end labels lose leaf order)."""
        if row[N].startswith("@"):
            return row[V] if row[V] is not None else ""
        if not self.scheme.element_string_values:
            return None
        words = [
            r[V]
            for r in self.clustered.scan_range(
                ("@lex", row[T]), low=row[L], high=row[R], include_high=False
            )
            if r[R] <= row[R] and r[V] is not None
        ]
        return " ".join(words)


# -- the main pipeline --------------------------------------------------------


def compile_plan(node: PlanNode, runtime: Runtime) -> Operator:
    """Compile a top-level IR plan to physical operators."""
    if isinstance(node, Scan):
        probe = compile_access(node.access, runtime)
        checks = [compile_pred(c, runtime) for c in node.conditions]
        if checks:
            rows = lambda probe=probe, checks=checks: (
                row for row in probe(()) if all(check(row) for check in checks)
            )
        else:
            rows = lambda probe=probe: probe(())
        return Source(rows, node.label)
    if isinstance(node, Join):
        outer = compile_plan(node.input, runtime)
        matcher = _make_matcher(
            compile_access(node.access, runtime),
            [compile_pred(c, runtime) for c in node.conditions],
        )
        return IndexNestedLoopJoin(outer, matcher, node.label)
    if isinstance(node, Filter):
        child = compile_plan(node.input, runtime)
        check = _conjunction([compile_pred(c, runtime) for c in node.conditions])
        return Select(child, Func(check, node.label))
    if isinstance(node, Distinct):
        child = compile_plan(node.input, runtime)
        positions = tuple(slot * ROW_WIDTH + col for slot, col in node.key)
        return PhysicalDistinct(child, positions=positions)
    raise TypeError(f"cannot execute {node!r} as a top-level plan")


def _make_matcher(probe: RowProbe, checks: list[BindingCheck]) -> RowProbe:
    if not checks:
        return probe

    def matches(binding: tuple) -> Iterable[tuple]:
        for row in probe(binding):
            combined = binding + row
            if all(check(combined) for check in checks):
                yield row

    return matches


def _conjunction(checks: list[BindingCheck]) -> BindingCheck:
    if len(checks) == 1:
        return checks[0]
    return lambda binding: all(check(binding) for check in checks)


# -- correlated subplans ------------------------------------------------------


def compile_subplan(node: PlanNode, runtime: Runtime):
    """Compile a Context-rooted subplan to a ``binding -> bindings`` runner."""
    steps: list[tuple] = []
    for item in linearize(node):
        if isinstance(item, Context):
            continue
        if isinstance(item, Join):
            steps.append(
                (
                    "join",
                    compile_access(item.access, runtime),
                    [compile_pred(c, runtime) for c in item.conditions],
                )
            )
        elif isinstance(item, Filter):
            steps.append(
                ("filter", None, [compile_pred(c, runtime) for c in item.conditions])
            )
        else:
            raise TypeError(f"cannot execute {item!r} inside a subplan")
    plan = tuple(steps)

    def run(binding: tuple) -> Iterable[tuple]:
        return _run_steps(binding, plan, 0)

    return run


def _run_steps(binding: tuple, plan: tuple, index: int) -> Iterable[tuple]:
    """Lazily run a compiled step list from ``binding`` — the one subplan
    interpreter shared by both dialects."""
    if index == len(plan):
        yield binding
        return
    kind, probe, checks = plan[index]
    if kind == "filter":
        if all(check(binding) for check in checks):
            yield from _run_steps(binding, plan, index + 1)
        return
    for row in probe(binding):
        combined = binding + row
        if all(check(combined) for check in checks):
            yield from _run_steps(combined, plan, index + 1)


# -- access paths -------------------------------------------------------------


def compile_access(access, runtime: Runtime) -> RowProbe:
    if isinstance(access, TableScan):
        table = runtime.table
        return lambda binding: table.scan()
    if isinstance(access, IndexProbe):
        return _compile_index_probe(access, runtime)
    if isinstance(access, ValueSeed):
        return _compile_value_seed(access, runtime)
    raise TypeError(f"unknown access spec {access!r}")


def _operand_getter(operand):
    if isinstance(operand, Col):
        position = operand.slot * ROW_WIDTH + operand.col
        return lambda binding, position=position: binding[position]
    value = operand.value
    return lambda binding, value=value: value


def _compile_index_probe(access: IndexProbe, runtime: Runtime) -> RowProbe:
    index = runtime.index_by_name(access.index)
    eq_getters = [_operand_getter(op) for op in access.eq]
    low = None if access.low is None else _operand_getter(access.low)
    high = None if access.high is None else _operand_getter(access.high)

    if low is None and high is None:
        probe = lambda b: index.scan_eq(tuple(g(b) for g in eq_getters))
    else:
        include_low, include_high = access.include_low, access.include_high

        def probe(b, index=index, eq_getters=eq_getters, low=low, high=high,
                  include_low=include_low, include_high=include_high):
            return index.scan_range(
                tuple(g(b) for g in eq_getters),
                low=None if low is None else low(b),
                high=None if high is None else high(b),
                include_low=include_low,
                include_high=include_high,
            )

    if access.self_slot is None:
        return probe

    base = access.self_slot * ROW_WIDTH
    name = access.self_name

    def with_self(binding: tuple) -> Iterable[tuple]:
        row = binding[base:base + ROW_WIDTH]
        if row[N] == name:
            yield row
        yield from probe(binding)

    return with_self


def _compile_value_seed(access: ValueSeed, runtime: Runtime) -> RowProbe:
    attr, literal = access.attr, access.literal
    name_test, root_only = access.name_test, access.root_only
    by_tid_id = runtime.by_tid_id

    if access.tid is None:
        by_value = runtime.by_value_tid

        def rows(binding: tuple) -> Iterable[tuple]:
            for attr_row in by_value.scan_eq((literal,)):
                if attr_row[N] != attr:
                    continue
                for element in by_tid_id.scan_eq((attr_row[T], attr_row[I])):
                    if element[N].startswith("@"):
                        continue
                    if name_test is not None and element[N] != name_test:
                        continue
                    if root_only and element[P] != 0:
                        continue
                    yield element

        return rows

    tid = _operand_getter(access.tid)
    by_tid_value = runtime.by_tid_value

    def correlated(binding: tuple) -> Iterable[tuple]:
        tree = tid(binding)
        for attr_row in by_tid_value.scan_eq((tree, literal)):
            if attr_row[N] != attr:
                continue
            for element in by_tid_id.scan_eq((tree, attr_row[I])):
                if element[N].startswith("@"):
                    continue
                if name_test is not None and element[N] != name_test:
                    continue
                yield element

    return correlated


# -- predicates ---------------------------------------------------------------


def compile_pred(pred: Pred, runtime: Runtime) -> BindingCheck:
    if isinstance(pred, Cmp):
        compare = _OPS[pred.op]
        if isinstance(pred.left, Col) and isinstance(pred.right, Col):
            x = pred.left.slot * ROW_WIDTH + pred.left.col
            c = pred.right.slot * ROW_WIDTH + pred.right.col
            return lambda b, x=x, c=c, compare=compare: compare(b[x], b[c])
        if isinstance(pred.left, Col):
            x = pred.left.slot * ROW_WIDTH + pred.left.col
            value = pred.right.value
            return lambda b, x=x, value=value, compare=compare: compare(b[x], value)
        if isinstance(pred.right, Col):
            c = pred.right.slot * ROW_WIDTH + pred.right.col
            value = pred.left.value
            return lambda b, c=c, value=value, compare=compare: compare(value, b[c])
        outcome = compare(pred.left.value, pred.right.value)
        return lambda b, outcome=outcome: outcome
    if isinstance(pred, IsElement):
        position = pred.slot * ROW_WIDTH + N
        return lambda b, position=position: not b[position].startswith("@")
    if isinstance(pred, IsAttr):
        position = pred.slot * ROW_WIDTH + N
        return lambda b, position=position: b[position].startswith("@")
    if isinstance(pred, BoolConst):
        value = pred.value
        return lambda b, value=value: value
    if isinstance(pred, AllPred):
        parts = [compile_pred(p, runtime) for p in pred.parts]
        return lambda b, parts=parts: all(part(b) for part in parts)
    if isinstance(pred, AnyPred):
        parts = [compile_pred(p, runtime) for p in pred.parts]
        return lambda b, parts=parts: any(part(b) for part in parts)
    if isinstance(pred, NotPred):
        inner = compile_pred(pred.part, runtime)
        return lambda b, inner=inner: not inner(b)
    if isinstance(pred, RightEdge):
        root_right = runtime.root_right
        if root_right is None:
            raise TypeError("right-edge alignment needs root spans")
        t = pred.slot * ROW_WIDTH + T
        r = pred.slot * ROW_WIDTH + R
        return lambda b, t=t, r=r, root_right=root_right: b[r] == root_right[b[t]]
    if isinstance(pred, ExistsPred):
        runner = compile_subplan(pred.subplan, runtime)
        return lambda b, runner=runner: next(iter(runner(b)), None) is not None
    if isinstance(pred, ValueCmpPred):
        return _compile_value_cmp(pred, runtime)
    if isinstance(pred, CountCmpPred):
        return _compile_count_cmp(pred, runtime)
    if isinstance(pred, PositionPred):
        return _compile_position(pred, runtime)
    raise TypeError(f"unknown predicate {pred!r}")


def _compile_value_cmp(pred: ValueCmpPred, runtime: Runtime) -> BindingCheck:
    runner = compile_subplan(pred.subplan, runtime)
    string_value = runtime.string_value
    op, wanted, numeric = pred.op, pred.value, pred.numeric
    target = None
    if numeric:
        target = float(wanted) if not isinstance(wanted, str) else as_float(wanted)
        if target is None:
            return lambda b: False

    def check(binding: tuple) -> bool:
        for extended in runner(binding):
            row = extended[-ROW_WIDTH:]
            value = string_value(row)
            if value is None:
                continue
            if numeric:
                try:
                    number = float(value.strip())
                except ValueError:
                    continue
                if numeric_compare(number, op, target):
                    return True
            else:
                if (value == wanted) == (op == "="):
                    return True
        return False

    return check


def _compile_count_cmp(pred: CountCmpPred, runtime: Runtime) -> BindingCheck:
    runner = compile_subplan(pred.subplan, runtime)
    op, target = pred.op, pred.target

    def check(binding: tuple) -> bool:
        seen = set()
        for extended in runner(binding):
            row = extended[-ROW_WIDTH:]
            seen.add((row[T], row[I], row[N]))
        return numeric_compare(float(len(seen)), op, target)

    return check


def _compile_position(pred: PositionPred, runtime: Runtime) -> BindingCheck:
    by_tid_id = runtime.by_tid_id
    axis, op, target = pred.axis, pred.op, pred.target
    cand_base = pred.cand_slot * ROW_WIDTH
    ctx_base = pred.ctx_slot * ROW_WIDTH
    if pred.test_name is None:
        name_matches = lambda row: not row[N].startswith("@")
    else:
        name_matches = lambda row, name=pred.test_name: row[N] == name

    def check(binding: tuple) -> bool:
        candidate = binding[cand_base:cand_base + ROW_WIDTH]
        context = binding[ctx_base:ctx_base + ROW_WIDTH]
        siblings = [
            row
            for row in by_tid_id.scan_eq((candidate[T],))
            if row[P] == candidate[P] and name_matches(row)
        ]
        siblings.sort(key=lambda row: row[L])
        if axis is Axis.CHILD:
            ordered = siblings
        elif axis in (Axis.FOLLOWING_SIBLING, Axis.IMMEDIATE_FOLLOWING_SIBLING):
            ordered = [row for row in siblings if row[L] >= context[R]]
        else:
            ordered = [row for row in siblings if row[R] <= context[L]]
            ordered.reverse()
        position = None
        for rank, row in enumerate(ordered, start=1):
            if row[I] == candidate[I]:
                position = rank
                break
        if position is None:
            return False
        wanted = float(len(ordered)) if target is None else target
        return numeric_compare(float(position), op, wanted)

    return check
