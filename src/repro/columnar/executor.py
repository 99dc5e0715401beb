"""Batch-at-a-time physical compiler for the shared logical IR.

This is the physical backend of :mod:`repro.plan`; every engine runs its
optimized IR here:

* a pipeline intermediate is a **batch** — one ``array('q')`` of row ids
  per bound slot — never a stream of concatenated 8-wide tuples;
* :class:`~repro.plan.ir.IndexProbe` becomes binary-search range slicing
  over the clustered column arrays (a candidate set is usually a plain
  ``range`` of row ids);
* residual conditions that compare one candidate column against an
  already-bound value are evaluated as **vector filters** — one pass over
  the candidate ids reading a single column array, with the right-hand
  operand pre-resolved per step — rather than per-row closure calls over
  wide tuples;
* merge-eligible hierarchical joins additionally choose (per store, from
  collected statistics, or via ``REPRO_FORCE_JOIN``) the set-at-a-time
  structural merge join of :mod:`repro.columnar.structural` over the
  per-binding probe join;
* wildcard child steps expand the whole batch from the store's CSR
  children index instead of scanning a whole tree per binding;
* ``[...]`` subplan predicates — ``exists``, ``count(p) op k`` and ``p op
  literal``, nested to any depth and under ``and``/``or`` — run as
  **semi-joins**: the subplan compiles to a sub-pipeline of the same join
  steps, runs once over the owner's whole batch with a hidden ordinal
  column, and a reduction of what reaches its end becomes a selection
  vector (:class:`_SemiJoin`); ``position()`` is a rank among siblings
  (:class:`_PositionSelect`);
* only scalar conditions no vector filter expresses are checked per row.

Compiled plans are stateless and re-iterable, so they are safe to keep in
the per-engine plan cache.

Operand access is **sequence-protocol only** — a deliberate contract
since the zero-copy store arrived: every column reference compiled here
(``store.col(...)``, the bitmap filters, the probe bound getters, the
string columns) must go through ``__getitem__``/``len``/iteration and
never assume ``array('q')`` concretely, because a
store adopted from a file hands back ``memoryview`` casts straight off
an ``mmap`` and every store hands back lazy
:class:`~repro.columnar.store.StringColumn` wrappers instead.  The same
rule binds :mod:`repro.columnar.structural`, whose generated sweep loops
index the raw views directly.  (A released view — the owning engine was
closed — raises ``ValueError`` on access, so stale plans fail loudly.)
"""

from __future__ import annotations

import operator
from bisect import bisect_left, bisect_right
from collections import Counter
from itertools import compress, repeat
from operator import itemgetter
from typing import Callable, Iterable, Optional, Sequence

from ..lpath.axes import Axis
from ..lpath.errors import LPathCompileError
from ..lpath.functions import as_float
from ..plan.ir import (
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
    NotPred,
    PlanNode,
    PositionPred,
    Pred,
    RightEdge,
    Scan,
    SubplanPred,
    TID_ID,
    TableScan,
    ValueCmpPred,
    ValueSeed,
    linearize,
    pred_slots,
    semi_join_header,
    subplan_preds,
    COLUMN_NAMES as IR_COLUMN_NAMES,
    I, L, P, R, T, V,
)
from ..plan.lower import COMPARISONS as _OPS
from ..faults import active_injector
from .kernels.api import NativeRangeFilter, bind_checks, classify_checks
from .result import EMPTY, ResultBatch, python_emit_pairs
from .store import ColumnStore
from .structural import (
    JoinOutput,
    Knobs,
    MergeJoinStep,
    _apply_filters,
    _first_passing,
    apply_selectors,
    choose_join,
    flow_estimate,
    merge_spec,
    python_distinct,
    python_take,
    select_all,
)

from array import array

Binding = list          # row ids, indexed by slot
BindingCheck = Callable[[Binding], bool]
RowProbe = Callable[[Binding], Sequence[int]]

_FLIPPED = {
    "=": "=", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<=",
}


class ColumnarRuntime:
    """One engine's columnar physical context."""

    def __init__(self, store: ColumnStore) -> None:
        self.store = store
        #: Hot-path string resolution: one closure with the column arrays
        #: and the per-tree ``@lex`` bounds pre-resolved, instead of
        #: re-walking store attributes and bound dictionaries per row.
        self.string_value = _make_string_value(store)
        #: What a bound condition can name by position: the eight relation
        #: columns, then the ``is_attr`` (:data:`A`) and ``right_edge``
        #: (:data:`E`) bitmaps — resolved once per store, not per compile.
        self.columns = tuple(store.col(position) for position in range(8)) + (
            store.is_attr, store.right_edge,
        )


#: Positions of the derived bitmaps in :attr:`ColumnarRuntime.columns`.
A, E = 8, 9


def _make_string_value(store: ColumnStore) -> Callable[[int], Optional[str]]:
    values, is_attr = store.values, store.is_attr
    lefts, rights, tids = store.left, store.right, store.tid
    bounds = store.name_tid_bounds
    lex_bounds: dict[int, tuple[int, int]] = {}

    def string_value(row: int) -> Optional[str]:
        if is_attr[row]:
            value = values[row]
            return value if value is not None else ""
        tid = tids[row]
        span = lex_bounds.get(tid)
        if span is None:
            span = lex_bounds[tid] = bounds.get(("@lex", tid), (0, 0))
        lo, hi = span
        if lo == hi:
            return ""
        low, high = lefts[row], rights[row]
        lo = bisect_left(lefts, low, lo, hi)
        hi = bisect_left(lefts, high, lo, hi)
        words = [
            values[leaf]
            for leaf in range(lo, hi)
            if rights[leaf] <= high and values[leaf] is not None
        ]
        return " ".join(words)

    return string_value


# -- plan compilation ---------------------------------------------------------


class _Compile:
    """One compile's context.  With only the compile's ``knobs`` — the
    forced join mode, the resolved kernel backend and its batch
    primitives (column gather, ordinal reduction, result emit), the
    fault injector —
    it builds the segment-independent :class:`PlanSkeleton`; given a
    ``runtime`` as well it *binds* that skeleton to one store."""

    def __init__(self, knobs: Knobs, runtime=None) -> None:
        self.force, kern, self.injector = knobs
        self.kern = kern
        self.take = python_take if kern is None else kern.take
        self.distinct = python_distinct if kern is None else kern.distinct
        self.emit = python_emit_pairs if kern is None else kern.emit_pairs
        self.runtime = runtime
        if runtime is not None:
            self.store = runtime.store
            self.cols = runtime.columns

    def checkpoint(self) -> None:
        """One physical step is being bound: one read-fault checkpoint."""
        if self.injector is not None:
            self.store.checkpoint(self.injector)


def _unbound(step):
    """A shallow copy of a skeleton object for its ``bind`` to fill in."""
    clone = object.__new__(type(step))
    clone.__dict__.update(step.__dict__)
    return clone


class PlanSkeleton:
    """Everything about a columnar physical plan that does not depend on
    the store it runs against, built once per optimized logical plan:
    the chain as step skeletons, each join's shape analysis, every
    condition classified with column *positions* in place of column
    arrays, the semi-join sub-skeletons and the validated native check
    kinds.

    :meth:`bind` turns it into a :class:`ColumnarPlan` for one store —
    per segment of a sharded corpus, and again for every segment a live
    corpus grows later — by resolving column pointers, partition bounds
    and the value-seed probe, and by picking merge vs. probe per join:
    the one part that *is* per store, because it weighs a join's
    estimated input against the shard's own partition statistics."""

    def __init__(self, node: PlanNode, knobs: Knobs) -> None:
        self.knobs = knobs
        ctx = _Compile(knobs)
        steps: list = []
        #: The terminating ``Distinct`` key — all the lowerers build: the
        #: result slot's ``(tid, id)``, plus its group column under a
        #: grouped aggregate.
        self.key = None
        width = 0
        for item in linearize(node):
            if self.key is not None:
                raise LPathCompileError(
                    "Distinct must terminate a columnar pipeline"
                )
            if isinstance(item, Scan):
                steps.append(_ScanStep(item, ctx))
                width = 1
            elif isinstance(item, Join):
                steps.append(_Join(item, ctx, width))
                width += 1
            elif isinstance(item, Filter):
                steps.append(_FilterStep(item, ctx, width))
            elif isinstance(item, Distinct):
                self.key = item.key
            else:
                raise LPathCompileError(f"cannot execute {item!r} as a columnar plan")
        if not steps or not isinstance(steps[0], _ScanStep):
            raise LPathCompileError("a columnar pipeline must start at a Scan")
        if self.key is None:
            raise LPathCompileError("a columnar pipeline must end in Distinct")
        self.steps = steps
        self._signatures = None

    @property
    def signatures(self) -> tuple:
        """``signatures[i]``: the cumulative structural fingerprint of
        steps ``0..i`` (what :mod:`repro.plan.batch` shares batches on) —
        derived on first use, since most plans never run in a batch."""
        if self._signatures is None:
            found, signature = [], None
            for step in self.steps:
                signature = (signature, _node_signature(step.node))
                found.append(signature)
            self._signatures = tuple(found)
        return self._signatures

    def bind(self, runtime: ColumnarRuntime, injector=None) -> "ColumnarPlan":
        """The executable plan over ``runtime``'s store.  ``injector`` is
        the caller's one read of ``REPRO_FAULTS`` (each step bound passes
        one checkpoint); the forced join mode and the kernel backend stay
        as the skeleton was built — the plan cache keys on both."""
        ctx = _Compile(self.knobs._replace(injector=injector), runtime)
        steps, est = [], None
        for step in self.steps:
            step, est = step.bind(ctx, est)
            steps.append(step)
        return ColumnarPlan(steps, self.key, runtime, self, ctx.emit)


def _pred_signature(pred: Pred) -> object:
    """A hashable structural fingerprint of one predicate.  ``str()``
    alone is not enough: subplan predicates render as ``exists{...}``,
    which would collide two different subplans."""
    if isinstance(pred, ExistsPred):
        return ("exists", _chain_signature(pred.subplan))
    if isinstance(pred, ValueCmpPred):
        return (
            "valuecmp", pred.op, repr(pred.value), pred.numeric,
            _chain_signature(pred.subplan),
        )
    if isinstance(pred, CountCmpPred):
        return ("countcmp", pred.op, pred.target, _chain_signature(pred.subplan))
    if isinstance(pred, (AllPred, AnyPred)):
        return (type(pred).__name__,) + tuple(
            _pred_signature(p) for p in pred.parts
        )
    if isinstance(pred, NotPred):
        return ("not", _pred_signature(pred.part))
    if isinstance(pred, PositionPred):
        return (
            "position", str(pred.axis), pred.test_name, pred.op,
            pred.target, pred.ctx_slot, pred.cand_slot,
        )
    return str(pred)


def _node_signature(node: PlanNode) -> object:
    """The structural fingerprint of one chain node — only fields that
    determine the node's *output* (slot layout, access, conditions), not
    annotations like ``label``/``step``/``est_in`` that vary between
    otherwise identical plans.  The access spec itself is the key, not
    its rendering: two value seeds that differ in their name test print
    alike."""
    if isinstance(node, Context):
        return ("context",)
    if isinstance(node, Scan):
        return (
            "scan", node.slot, node.access,
            tuple(_pred_signature(c) for c in node.conditions),
        )
    if isinstance(node, Join):
        return (
            "join", node.slot, node.access, str(node.axis),
            node.ctx_slot, node.scope_slot,
            tuple(_pred_signature(c) for c in node.conditions),
        )
    if isinstance(node, Filter):
        return ("filter", tuple(_pred_signature(c) for c in node.conditions))
    return (type(node).__name__,)


def _chain_signature(node: PlanNode) -> object:
    signature = None
    for item in linearize(node):
        signature = (signature, _node_signature(item))
    return signature


class ColumnarPlan:
    """An executable batch pipeline ending in one emit: the result
    slot's row ids become a :class:`~repro.columnar.result.ResultBatch`.

    ``signatures[i]`` is the cumulative structural fingerprint of steps
    ``0..i`` — two plans whose prefixes carry equal signatures compute
    identical intermediate batches, which is what the batch executor
    (:mod:`repro.plan.batch`) exploits: :meth:`execute` can seed itself
    from a ``shared`` signature → batch cache and record every batch it
    produces there (batches are immutable by convention — every step
    returns fresh arrays — so sharing needs no copies)."""

    def __init__(
        self, steps, key, runtime: ColumnarRuntime, skeleton, emit_pairs
    ) -> None:
        self.steps = steps
        self.key = key
        self.runtime = runtime
        self.skeleton = skeleton
        self.emit_pairs = emit_pairs

    @property
    def signatures(self):
        return self.skeleton.signatures

    def _checkpoint(self, steps: int = 1) -> None:
        """``steps`` physical steps are about to run: one read-fault
        checkpoint each, ``REPRO_FAULTS`` read once for all of them."""
        injector = active_injector()
        if injector is not None:
            for _ in range(steps):
                self.runtime.store.checkpoint(injector)

    def _pipeline(self, shared: Optional[dict] = None) -> list[array]:
        """Run the step pipeline, resuming from the longest shared prefix
        when a ``shared`` cache is supplied (and feeding it)."""
        batch: list[array] = []
        start = 0
        signatures = self.signatures if shared is not None else None
        if signatures:
            for index in range(len(self.steps), 0, -1):
                cached = shared.get(signatures[index - 1])
                if cached is not None:
                    batch = cached
                    start = index
                    break
        self._checkpoint(len(self.steps) - start)
        for index in range(start, len(self.steps)):
            batch = self.steps[index].run(batch)
            if signatures:
                shared[signatures[index]] = batch
        return batch

    def _emit(self, batch: list[array]) -> ResultBatch:
        """A finished batch's answer: the result slot's ``(tid, id)``
        gathered, sorted and deduplicated in one kernel call (none for
        an empty batch)."""
        rows = batch[self.key[0][0]]
        if not len(rows):
            return EMPTY
        cols = self.runtime.columns
        return ResultBatch(self.emit_pairs(cols[T], cols[I], rows))

    def execute(self, shared: Optional[dict] = None) -> ResultBatch:
        return self._emit(self._pipeline(shared))

    def count_rows(self) -> int:
        """The result cardinality.  A one-step plan whose scan resolves
        to an unfiltered contiguous clustered range (a name-block probe)
        is counted straight from the partition bounds; everything else
        is the length of the emitted batch."""
        if len(self.steps) == 1:
            bounds = self.steps[0].cardinality()
            if bounds is not None:
                self._checkpoint()
                return bounds
        return len(self.execute())

    def group_counts(self, shared: Optional[dict] = None) -> dict:
        """``{group: distinct keys}`` of a grouped aggregate: the key's
        third column (a name or a depth) counted over the distinct
        ``(tid, id, group)`` keys of the result slot."""
        slot, group = self.key[2]
        rows = set(self._pipeline(shared)[slot])
        cols = self.runtime.columns
        keys = set(zip(*(map(cols[c].__getitem__, rows) for c in (T, I, group))))
        return dict(Counter(key[2] for key in keys))

    def rows_limited(self, k: int) -> ResultBatch:
        """The first ``k`` result pairs, without materializing the full
        result set.

        Every join correlates bindings within one tree, so the pipeline
        restricted to a subset of the scan's trees computes exactly that
        subset's results.  The driver groups the scan's candidates by
        tree, processes tid groups in ascending order in geometrically
        growing chunks, and stops after the first complete chunk that
        brings the total to >= k pairs — every chunk's pairs sort after
        the previous chunk's and all unprocessed trees can only produce
        larger ``(tid, ...)`` keys still, so the concatenated chunk
        emits, cut at ``k``, are exact.  Structural merge joins inside a
        chunk run under a ``max_rows`` cutoff; a truncated chunk is
        re-run uncapped (rare: chunks start at 4 trees)."""
        from .structural import Cutoff

        if k <= 0:
            return EMPTY
        if len(self.steps) < 2:
            return self.execute()[:k]
        self._checkpoint(len(self.steps))
        seed = self.steps[0].run([])[0]
        if not len(seed):
            return EMPTY
        tids = self.runtime.store.tid
        # One key-based sort orders the candidates by owning tree (stable,
        # so within-tree seed order survives); tree boundaries are then
        # discovered lazily while assembling each chunk.  Only processed
        # rows ever pay per-row Python cost — an eager dict-of-groups
        # build here would touch the whole seed and dominate top-k time.
        ordered = sorted(seed, key=tids.__getitem__)
        total = len(ordered)
        rest = self.steps[1:]
        acc = array("q")
        chunk, position = 4, 0
        budget = max(1024, 32 * k)
        while position < total:
            seed_rows = array("q")
            trees = 0
            previous = -1
            while position < total:
                row = ordered[position]
                tid = tids[row]
                if tid != previous:
                    if trees == chunk:
                        break
                    trees += 1
                    previous = tid
                seed_rows.append(row)
                position += 1
            chunk *= 2
            for capped in (True, False):
                cutoff = Cutoff(budget) if capped else None
                batch: list[array] = [seed_rows]
                for step in rest:
                    if cutoff is not None and isinstance(step, MergeJoinStep):
                        batch = step.run(batch, cutoff=cutoff)
                    else:
                        batch = step.run(batch)
                if cutoff is None or not cutoff.hit:
                    break
                # The capped run dropped whole trees mid-chunk; its
                # partial output cannot be merged exactly — redo the
                # chunk without the cutoff.
            acc.extend(self._emit(batch).pairs)
            if len(acc) >= 2 * k:
                break
        return ResultBatch(acc[:2 * k])

    def explain(self, indent: int = 0) -> str:
        cols = ", ".join(f"s{s}.{IR_COLUMN_NAMES[c]}" for s, c in self.key)
        lines = [" " * indent + f"ColumnarDistinct[{cols}]"]
        indent += 2
        for step in reversed(self.steps):
            lines.append(" " * indent + step.describe())
            lines.extend(_explain_selectors(step.semi, indent + 2))
            indent += 2
        return "\n".join(lines)


# -- pipeline steps -----------------------------------------------------------


class _Conditions:
    """One node's conditions, classified once per plan: vector filters
    over the candidate columns (by column *position*), per-binding
    prunes and per-row residual checks (scalar IR — their closures
    capture column arrays, so :meth:`bind` compiles them), and
    set-at-a-time selectors (every condition with a subplan or a
    ``position()`` in it, run over the step's whole output batch) as
    sub-skeletons."""

    __slots__ = ("vector", "binding", "row", "semi")

    def __init__(self, conditions: Sequence[Pred], cand_slot: int, ctx: _Compile) -> None:
        self.vector, self.binding, self.row, semi = [], [], [], []
        for condition in conditions:
            if _set_at_a_time(condition):
                semi.append(_compile_selector(condition, ctx, cand_slot + 1))
            elif cand_slot not in pred_slots(condition):
                self.binding.append(condition)
            else:
                filt = _vector_filter(condition, cand_slot)
                if filt is not None:
                    self.vector.append(filt)
                else:
                    self.row.append(condition)
        self.semi = tuple(semi)

    def bind(self, ctx: _Compile, est) -> tuple[list, list, list, tuple]:
        """``(vector, binding, row, semi)`` over one store: positions
        resolved to its column arrays, residuals compiled, selectors
        bound (``est`` is the owning step's estimated output)."""
        cols = ctx.cols
        return (
            [
                (cols[column], opf, slot, payload if slot is None else cols[payload])
                for column, opf, slot, payload in self.vector
            ],
            [compile_pred(pred, ctx) for pred in self.binding],
            [compile_pred(pred, ctx) for pred in self.row],
            tuple(selector.bind(ctx, est) for selector in self.semi),
        )


def _vector_filter(pred: Pred, cand_slot: int):
    """``(column, opfunc, rhs_slot, payload)`` for a condition that reads
    exactly one candidate column, or ``None``; columns are positions in
    :attr:`ColumnarRuntime.columns`.  ``rhs_slot is None`` means
    ``payload`` is a constant, otherwise ``payload`` is the column the
    binding slot indexes into — once bound, no per-row getter closures
    on the hot path."""
    if isinstance(pred, IsElement) and pred.slot == cand_slot:
        return A, operator.eq, None, 0
    if isinstance(pred, IsAttr) and pred.slot == cand_slot:
        return A, operator.eq, None, 1
    if isinstance(pred, RightEdge) and pred.slot == cand_slot:
        return E, operator.eq, None, 1
    if not isinstance(pred, Cmp):
        return None
    left, right = pred.left, pred.right
    cand_left = isinstance(left, Col) and left.slot == cand_slot
    cand_right = isinstance(right, Col) and right.slot == cand_slot
    if cand_left and not cand_right:
        return (left.col, _OPS[pred.op]) + _operand_parts(right)
    if cand_right and not cand_left:
        return (right.col, _OPS[_FLIPPED[pred.op]]) + _operand_parts(left)
    return None


def _operand_parts(operand) -> tuple:
    """``(slot, column)`` for a binding column, ``(None, value)`` for a
    constant."""
    if isinstance(operand, Col):
        return operand.slot, operand.col
    return None, operand.value


def _operand_getter(operand, store: ColumnStore) -> Callable[[Binding], object]:
    if isinstance(operand, Col):
        column = store.col(operand.col)
        slot = operand.slot
        return lambda b, column=column, slot=slot: column[b[slot]]
    value = operand.value
    return lambda b, value=value: value


def _semi_tag(semi) -> str:
    return f" semi={len(semi)}" if semi else ""


class _ScanStep:
    """Materialize slot 0 from an access spec."""

    def __init__(self, node: Scan, ctx: _Compile) -> None:
        if node.slot != 0:
            raise LPathCompileError("a columnar Scan must bind slot 0")
        self.node = node
        self.label = node.label
        self.access = node.access
        self.take = ctx.take
        self.conds = conds = _Conditions(node.conditions, node.slot, ctx)
        # Scan-side vector filters compare buffer columns against
        # constants (slot 0 binds first, so no binding-column operands
        # exist); when the native backend is active a contiguous
        # candidate range is materialized — and filtered, when there are
        # any — in one C pass instead of an interpreted loop over it (a
        # value seed lists its rows itself).
        self.kinds = (
            classify_checks(conds.vector, require_const=True)
            if ctx.kern is not None and not isinstance(node.access, ValueSeed)
            else None
        )

    def bind(self, ctx: _Compile, est):
        ctx.checkpoint()
        _est_in, est = flow_estimate(self.node, ctx.store, est)
        bound = _unbound(self)
        bound.probe = compile_access(self.access, ctx.runtime)
        bound.vector, bound.binding, bound.row, bound.semi = self.conds.bind(ctx, est)
        bound._native_filter = (
            None if self.kinds is None
            else NativeRangeFilter(ctx.kern, bind_checks(self.kinds, bound.vector))
        )
        return bound, est

    def run(self, batch: list[array]) -> list[array]:
        empty: Binding = []
        if not all(check(empty) for check in self.binding):
            return [array("q")]
        cands = self.probe(empty)
        if (
            self._native_filter is not None
            and isinstance(cands, range)
            and cands.step == 1
        ):
            kept = self._native_filter.run(cands.start, cands.stop)
            if self.row:
                kept = array(
                    "q",
                    (
                        j for j in kept
                        if all(check([j]) for check in self.row)
                    ),
                )
        elif self.vector or self.row:
            kept = array("q", _apply_filters(cands, empty, self.vector, self.row))
        else:  # batches are never mutated, so a seed's own list will do
            kept = cands if isinstance(cands, array) else array("q", cands)
        return apply_selectors(self.semi, [kept], self.take)[0]

    def cardinality(self) -> Optional[int]:
        """The scan's result count straight from the clustered partition
        bounds, or ``None`` when filters (or a non-contiguous access
        path) make the count data-dependent.  Rows of one name block are
        distinct ``(tid, id)`` pairs — a node carries exactly one label
        row per name — so the range length *is* the distinct count."""
        if self.vector or self.binding or self.row or self.semi:
            return None
        if not (
            isinstance(self.access, IndexProbe)
            and self.access.index == CLUSTERED
        ):
            return None
        cands = self.probe([])
        if isinstance(cands, range):
            return len(cands)
        return None

    def describe(self) -> str:
        return (
            f"ColumnarScan(s0 <- {self.access}: {self.label}"
            f" | vector={len(self.vector)}{_semi_tag(self.semi)}"
            f" row={len(self.row)})"
        )


def _children_probe(node: Join):
    """``(tid slot, id slot, remaining conditions)`` when a wildcard
    child step — a whole-tree ``idx_tid_id`` probe plus a
    ``cand.pid = ctx.id`` condition — can instead read one slice of a
    store's CSR children index, or ``None``."""
    access = node.access
    if not (
        isinstance(access, IndexProbe)
        and access.index == TID_ID
        and len(access.eq) == 1
        and access.low is None
        and access.high is None
        and access.self_slot is None
        and isinstance(access.eq[0], Col)
        and access.eq[0].col == T
    ):
        return None
    cand = node.slot
    for condition in node.conditions:
        if not isinstance(condition, Cmp) or condition.op != "=":
            continue
        sides = (condition.left, condition.right)
        for mine, other in (sides, sides[::-1]):
            if (
                isinstance(mine, Col) and mine.slot == cand and mine.col == P
                and isinstance(other, Col) and other.slot != cand
                and other.col == I
            ):
                remaining = tuple(c for c in node.conditions if c is not condition)
                return access.eq[0].slot, other.slot, remaining
    return None


class _Join:
    """One ``Join``'s segment-independent analysis, standing in the
    skeleton where a bound plan has a :class:`MergeJoinStep` or a
    :class:`_JoinStep`: the merge shape (or none), the children-index
    shortcut, the classified conditions and — under the native backend,
    for the shapes its kernels cover (no binding prunes, no per-row
    residuals, no or-self) — the validated native checks.  Any other
    merge join runs :class:`MergeJoinStep`'s reference loop.

    :meth:`bind` picks the flavor for one store: a structural merge join
    when the shape admits one and the cost model (or
    ``REPRO_FORCE_JOIN``) favors it against *that store's* statistics, a
    per-binding probe otherwise."""

    def __init__(self, node: Join, ctx: _Compile, expected_slot: int) -> None:
        if node.slot != expected_slot:
            raise LPathCompileError(
                f"columnar join expected slot {expected_slot}, got {node.slot}"
            )
        self.node = node
        self.spec = spec = merge_spec(node)
        self.children = None if spec is not None else _children_probe(node)
        self.conds = conds = _Conditions(
            node.conditions if self.children is None else self.children[2],
            node.slot, ctx,
        )
        self.semi = conds.semi
        self.kinds = None
        if (
            ctx.kern is not None and spec is not None
            and spec.self_slot is None and not conds.binding and not conds.row
        ):
            self.kinds = classify_checks(conds.vector)

    def bind(self, ctx: _Compile, est):
        ctx.checkpoint()
        node, spec = self.node, self.spec
        est_in, est = flow_estimate(node, ctx.store, est)
        merge = spec is not None and "merge" == (
            ctx.force or choose_join(est_in, spec.name or node.access, ctx.store)
        )
        conds = self.conds.bind(ctx, est)
        if not merge:
            return _JoinStep(self, ctx, *conds), est
        seed = (
            _ValueSeedProbe(node.access, ctx.store) if spec.name is None else None
        )
        return MergeJoinStep(self, ctx, *conds, seed=seed), est


class _JoinStep(JoinOutput):
    """Extend every binding of the batch with matching candidate rows.

    Candidates come from binary-search slices of the clustered arrays (the
    per-tree ``(name, tid)`` partitions) — or, for wildcard child steps,
    one slice of the CSR children index — then shrink through the vector
    filters.  A tree-keyed :class:`~repro.plan.ir.ValueSeed` access first
    drops every binding whose tree does not hold the literal at all (one
    pass over the batch's ``tid`` column), so only trees that can match
    pay for a probe.  A wildcard child step expands the whole batch at
    once instead (:meth:`_expand`).
    """

    def __init__(self, join: _Join, ctx: _Compile, vector, binding, row, semi=()) -> None:
        node = join.node
        self.slot = node.slot
        self.via_children = join.children is not None
        if self.via_children:
            self.children, self.store = join.children[:2], ctx.store
        else:
            self.probe = compile_access(node.access, ctx.runtime)
        self.vector, self.binding, self.row, self.semi = vector, binding, row, semi
        self.take = ctx.take
        self.label = node.label
        self.access = access = node.access
        #: (batch slot, store column) naming each binding's tree, when the
        #: probe is a tree-keyed value seed.
        self._seed_tid = (
            (access.tid.slot, ctx.cols[access.tid.col])
            if isinstance(access, ValueSeed) and isinstance(access.tid, Col)
            else None
        )

    def pairs(self, batch: list[array], cutoff=None, first_match: bool = False):
        if self.via_children:
            return self._expand(batch, first_match)
        src: list[int] = []
        res: list[int] = []
        probe, vector, binding_checks, row_checks = (
            self.probe, self.vector, self.binding, self.row,
        )
        matches = _first_passing if first_match else _apply_filters
        count = len(batch[0]) if batch else 0
        indexes: Iterable[int] = range(count)
        if self._seed_tid is not None and count:
            slot, tids = self._seed_tid
            trees, column = probe.partition()[1], batch[slot]
            indexes = [i for i in indexes if (None, tids[column[i]]) in trees]
        for i in indexes:
            b = [column[i] for column in batch]
            if binding_checks and not all(check(b) for check in binding_checks):
                continue
            cands = matches(probe(b), b, vector, row_checks)
            if cands:
                res.extend(cands)
                src.extend([i] * len(cands))
        return src, res

    def _expand(self, batch: list[array], first_match: bool):
        """``pairs`` of a wildcard child step, set-at-a-time: every
        binding's slice of the children index, then each vector filter in
        one pass over all the candidates, the per-binding and per-row
        checks, and for ``first_match`` each binding's first survivor."""
        (tid_slot, id_slot), store = self.children, self.store
        src, res = array("q"), array("q")
        for i, rows in enumerate(map(
            store.children_rows, map(store.tid.__getitem__, batch[tid_slot]),
            map(store.id.__getitem__, batch[id_slot]),
        )):
            res.extend(rows)
            src.extend(repeat(i, len(rows)))
        for column, opf, rhs_slot, payload in self.vector:
            wanted = repeat(payload) if rhs_slot is None else map(
                payload.__getitem__, map(batch[rhs_slot].__getitem__, src))
            src, res = _kept(map(opf, map(column.__getitem__, res), wanted), src, res)
        checks = (*self.binding, *self.row)
        if checks:
            src, res = _kept((
                all(check([column[i] for column in batch] + [j]) for check in checks)
                for i, j in zip(src, res)
            ), src, res)
        if first_match and src:
            src, res = _kept([True, *map(operator.ne, src[1:], src)], src, res)
        return src, res

    def describe(self, first_match: bool = False) -> str:
        via = " via=children-index" if self.via_children else ""
        return (
            f"ColumnarJoin(s{self.slot} <- {self.access}: {self.label}"
            f" | vector={len(self.vector)}{_semi_tag(self.semi)}"
            f" row={len(self.row)}{via}{' first_match' if first_match else ''})"
        )


def _kept(passed: Iterable, *columns: array) -> list[array]:
    """Each of ``columns`` cut to the positions ``passed`` marks true."""
    passed = list(passed)
    return [array("q", compress(column, passed)) for column in columns]


class _FilterStep:
    """Keep batch entries satisfying every condition."""

    def __init__(self, node: Filter, ctx: _Compile, width: int) -> None:
        self.node = node
        self.selectors = tuple(
            _compile_selector(condition, ctx, width)
            for condition in node.conditions
        )
        self.take = ctx.take
        self.label = node.label

    @property
    def semi(self) -> tuple:
        """The set-at-a-time selectors (what ``explain`` expands)."""
        return tuple(s for s in self.selectors if not isinstance(s, _RowSelect))

    def bind(self, ctx: _Compile, est):
        ctx.checkpoint()
        bound = _unbound(self)
        bound.selectors = tuple(s.bind(ctx, est) for s in self.selectors)
        return bound, est

    def restrict(self, batch: list[array]):
        """``(passing rows, keep)`` as ``apply_selectors`` returns them."""
        return apply_selectors(self.selectors, batch, self.take)

    def run(self, batch: list[array]) -> list[array]:
        return self.restrict(batch)[0]

    def describe(self) -> str:
        return (
            f"ColumnarFilter({self.label} | checks={len(self.selectors)}"
            f"{_semi_tag(self.semi)})"
        )


# -- access paths -------------------------------------------------------------


def compile_access(access, runtime: ColumnarRuntime) -> RowProbe:
    if isinstance(access, TableScan):
        size = runtime.store.n
        return lambda b: range(size)
    if isinstance(access, IndexProbe):
        return _compile_index_probe(access, runtime)
    if isinstance(access, ValueSeed):
        seed = _ValueSeedProbe(access, runtime.store)
        return seed.scan if access.tid is None else seed
    raise LPathCompileError(f"unknown access spec {access!r}")


def _compile_index_probe(access: IndexProbe, runtime: ColumnarRuntime) -> RowProbe:
    store = runtime.store
    name = access.index
    if name == CLUSTERED:
        probe = _clustered_probe(access, store)
    elif name == TID_ID:
        probe = _tid_id_probe(access, store)
    else:
        raise LPathCompileError(f"columnar executor cannot resolve index {name!r}")

    if access.self_slot is None:
        return probe

    names = store.names
    self_slot, self_name = access.self_slot, access.self_name

    def with_self(b: Binding) -> Sequence[int]:
        row = b[self_slot]
        base = list(probe(b))
        if names[row] == self_name:
            return [row] + base
        return base

    return with_self


def _clustered_probe(access: IndexProbe, store: ColumnStore) -> RowProbe:
    name_of = _operand_getter(access.eq[0], store)
    low = None if access.low is None else _operand_getter(access.low, store)
    high = None if access.high is None else _operand_getter(access.high, store)
    include_low, include_high = access.include_low, access.include_high

    if len(access.eq) == 1:
        if low is not None or high is not None:
            # The lowerer never ranges on the column after a bare name
            # prefix (ranges always follow a (name, tid) prefix).
            raise LPathCompileError(
                "unsupported clustered probe shape: name prefix with range"
            )
        return lambda b: store.name_block(name_of(b))

    tid_of = _operand_getter(access.eq[1], store)

    def probe(b: Binding) -> range:
        return store.clustered_range(
            name_of(b),
            tid_of(b),
            None if low is None else low(b),
            None if high is None else high(b),
            include_low,
            include_high,
        )

    return probe


def _tid_id_probe(access: IndexProbe, store: ColumnStore) -> RowProbe:
    if access.low is not None or access.high is not None:
        raise LPathCompileError("range probes on idx_tid_id are not supported")
    tid_of = _operand_getter(access.eq[0], store)
    if len(access.eq) == 1:
        return lambda b: store.tid_rows(tid_of(b))
    id_of = _operand_getter(access.eq[1], store)
    return lambda b: store.tid_id_rows(tid_of(b), id_of(b))


class _ValueSeedProbe:
    """``[@attr = literal]`` answered from the value index.

    The literal's element rows, resolved once per store
    (:meth:`~repro.columnar.store.ColumnStore.seed`) in ``(tid, left)``
    order with per-tree bounds: what a structural merge join sweeps
    (:meth:`rows`), one lookup and a slice per binding for a tree-keyed
    probe — and the bounds tell a probe join which bindings can match at
    all before it probes any of them."""

    def __init__(self, access: ValueSeed, store: ColumnStore) -> None:
        self.access = access
        self.store = store
        self.tid_of = (
            None if access.tid is None else _operand_getter(access.tid, store)
        )

    def rows(self) -> array:
        """The element rows holding the literal, by ``(tid, left)``."""
        return self.partition()[0]

    def partition(self) -> tuple:
        """``(rows, bounds, lefts)`` as the store resolved them: what the
        interpreted merge loops and the probe read."""
        return self.store.seed(*self.access.key)

    def __call__(self, b: Binding) -> Sequence[int]:
        """The seed's rows in the binding's tree (a tree-keyed seed)."""
        rows, bounds, _lefts = self.partition()
        lo, hi = bounds.get((None, self.tid_of(b)), (0, 0))
        return rows[lo:hi]

    def scan(self, b: Binding) -> Sequence[int]:
        """Every seed row of the corpus (a first step's seed)."""
        rows = self.rows()
        if self.access.root_only:
            pids = self.store.pid
            return [row for row in rows if pids[row] == 0]
        return rows


# -- predicates ---------------------------------------------------------------


def compile_pred(pred: Pred, ctx: _Compile) -> BindingCheck:
    """Compile a scalar predicate — one with no subplan and no
    ``position()`` in it, outside the vector filters — to a check over a
    row-id binding list."""
    store = ctx.store
    if isinstance(pred, Cmp):
        compare = _OPS[pred.op]
        if isinstance(pred.left, Col) and isinstance(pred.right, Col):
            lcol, ls = store.col(pred.left.col), pred.left.slot
            rcol, rs = store.col(pred.right.col), pred.right.slot
            return lambda b: compare(lcol[b[ls]], rcol[b[rs]])
        if isinstance(pred.left, Col):
            lcol, ls = store.col(pred.left.col), pred.left.slot
            value = pred.right.value
            return lambda b: compare(lcol[b[ls]], value)
        if isinstance(pred.right, Col):
            rcol, rs = store.col(pred.right.col), pred.right.slot
            value = pred.left.value
            return lambda b: compare(value, rcol[b[rs]])
        outcome = compare(pred.left.value, pred.right.value)
        return lambda b: outcome
    if isinstance(pred, IsElement):
        is_attr, slot = store.is_attr, pred.slot
        return lambda b: not is_attr[b[slot]]
    if isinstance(pred, IsAttr):
        is_attr, slot = store.is_attr, pred.slot
        return lambda b: bool(is_attr[b[slot]])
    if isinstance(pred, BoolConst):
        value = pred.value
        return lambda b: value
    if isinstance(pred, AllPred):
        parts = [compile_pred(p, ctx) for p in pred.parts]
        return lambda b: all(part(b) for part in parts)
    if isinstance(pred, AnyPred):
        parts = [compile_pred(p, ctx) for p in pred.parts]
        return lambda b: any(part(b) for part in parts)
    if isinstance(pred, NotPred):
        inner = compile_pred(pred.part, ctx)
        return lambda b: not inner(b)
    if isinstance(pred, RightEdge):
        right_edge, slot = store.right_edge, pred.slot
        return lambda b: bool(right_edge[b[slot]])
    raise LPathCompileError(f"unknown predicate {pred!r}")


# -- predicates as selection vectors ------------------------------------------
#
# A selector answers ``select(batch, sel)``: of the batch ordinals in
# ``sel`` (ascending — a ``range`` or an ``array('q')``), the ascending
# ``array('q')`` of those whose binding satisfies the predicate.  That
# makes the boolean algebra plain set algebra over ordinals: ``exists`` is
# a semi-join, ``not`` a complement within ``sel``, ``and`` a sequential
# restriction, ``or`` a union.


def _set_at_a_time(pred: Pred) -> bool:
    """Whether a condition holds a subplan or is a ``position()`` (which
    the lowerer never nests)."""
    return isinstance(pred, PositionPred) or any(True for _ in subplan_preds(pred))


def _compile_selector(pred: Pred, ctx: _Compile, width: int):
    """The selector skeleton for one condition (``bind`` makes it
    runnable over one store).  ``width`` is the slot count of the
    batches it will see."""
    if isinstance(pred, SubplanPred):
        return _SemiJoin(pred, ctx, width)
    if isinstance(pred, PositionPred):
        return _PositionSelect(pred)
    if _set_at_a_time(pred):
        if isinstance(pred, NotPred):
            if isinstance(pred.part, ExistsPred):
                return _SemiJoin(pred.part, ctx, width, negated=True)
            return _NotSelect(_compile_selector(pred.part, ctx, width))
        parts = tuple(_compile_selector(part, ctx, width) for part in pred.parts)
        return _AllSelect(parts) if isinstance(pred, AllPred) else _AnySelect(parts)
    return _RowSelect(pred)


def _as_ordinals(sel) -> array:
    return sel if isinstance(sel, array) else array("q", sel)


class _RowSelect:
    """A scalar predicate, checked binding by binding."""

    def __init__(self, pred: Pred, check: Optional[BindingCheck] = None) -> None:
        self.pred = pred
        self.check = check

    def bind(self, ctx: _Compile, est) -> "_RowSelect":
        return _RowSelect(self.pred, compile_pred(self.pred, ctx))

    def select(self, batch: list, sel) -> array:
        check = self.check
        return array(
            "q", (i for i in sel if check([column[i] for column in batch]))
        )

    def explain(self, indent: int, negated: bool) -> list[str]:
        return []


class _NotSelect:
    """Complement within the incoming selection, for negated ``and``/``or``
    trees, ``count()``, value comparisons and ``position()`` (a directly
    negated ``exists`` is an anti-:class:`_SemiJoin`)."""

    def __init__(self, part) -> None:
        self.part = part

    def bind(self, ctx: _Compile, est) -> "_NotSelect":
        return _NotSelect(self.part.bind(ctx, est))

    def select(self, batch: list, sel) -> array:
        hit = set(self.part.select(batch, sel))
        return array("q", (i for i in sel if i not in hit))

    def explain(self, indent: int, negated: bool) -> list[str]:
        return self.part.explain(indent, not negated)


class _AllSelect:
    """Conjunction: each part only sees what the previous parts kept."""

    def __init__(self, parts: tuple) -> None:
        self.parts = parts

    def bind(self, ctx: _Compile, est):
        return type(self)(tuple(part.bind(ctx, est) for part in self.parts))

    def select(self, batch: list, sel) -> array:
        return _as_ordinals(select_all(self.parts, batch, sel))

    def explain(self, indent: int, negated: bool) -> list[str]:
        return [
            line for part in self.parts for line in part.explain(indent, negated)
        ]


class _AnySelect(_AllSelect):
    """Disjunction: the union of the parts' selections, each part only
    looking at the ordinals no earlier part has accepted yet."""

    def select(self, batch: list, sel) -> array:
        found: set = set()
        for part in self.parts:
            if found:
                sel = array("q", (i for i in sel if i not in found))
            if not len(sel):
                break
            found.update(part.select(batch, sel))
        return array("q", sorted(found))


class _SemiJoin:
    """A subplan predicate as a set-at-a-time semi-join — or, built
    ``negated`` for ``not(exists)``, the anti-semi-join.

    The ``Context``-rooted subplan compiles to a sub-pipeline of the same
    batch steps the main chain uses (merge or probe per join, by the same
    cost model, from the estimates the enclosing chain seeded).  One
    ``select`` runs it once over every selected binding while tracking,
    outside the slot numbering, which binding each intermediate row came
    from (the hidden ordinal column).  For ``exists`` the distinct
    ordinals that reach the end are the bindings with a match, their
    complement those with none; its last step only has to witness a
    match, so it runs in ``first_match`` mode (at most one output row per
    input row) unless it carries selectors of its own.  A value comparison
    keeps the ordinals of result rows (the subplan's last slot) whose
    string value compares true; ``count()`` counts each ordinal's distinct
    result rows, a row being one ``(tid, id, name)`` within one store."""

    def __init__(
        self, pred: SubplanPred, ctx: _Compile, width: int,
        negated: bool = False,
    ) -> None:
        self.pred = pred
        self.negated = negated
        self.take = ctx.take
        self.distinct = ctx.distinct
        steps: list = []
        for item in linearize(pred.subplan):
            if isinstance(item, Context):
                self.result_slot = item.slot
            elif isinstance(item, Join):
                steps.append(_Join(item, ctx, width))
                self.result_slot = item.slot
                width = item.slot + 1
            elif isinstance(item, Filter):
                steps.append(_FilterStep(item, ctx, width))
            else:
                raise LPathCompileError(
                    f"cannot execute {item!r} inside a subplan"
                )
        self.steps = tuple(steps)
        last = steps[-1] if steps else None
        self.first_match = (
            isinstance(pred, ExistsPred) and isinstance(last, _Join) and not last.semi
        )
        self.test = _value_test(pred) if isinstance(pred, ValueCmpPred) else None

    def bind(self, ctx: _Compile, est) -> "_SemiJoin":
        """The runnable semi-join over one store; ``est`` is the
        estimated batch it will see."""
        bound = _unbound(self)
        steps = []
        for step in self.steps:
            step, est = step.bind(ctx, est)
            steps.append(step)
        bound.steps = tuple(steps)
        bound.string_value = ctx.runtime.string_value
        return bound

    def select(self, batch: list, sel) -> array:
        take = self.take
        selected = len(sel)
        restricted = selected != len(batch[0])
        if restricted:
            sel = _as_ordinals(sel)
            batch = [take(column, sel) for column in batch]
        # ``origin[r]`` is the ordinal (within the selected bindings) that
        # intermediate row ``r`` descends from; ``None`` is the identity.
        origin = None
        final = len(self.steps) - 1
        for index, step in enumerate(self.steps):
            if isinstance(step, _FilterStep):
                batch, through = step.restrict(batch)
                if through is None:
                    continue
            elif index == final and self.first_match:
                through, _cand = step.pairs(batch, first_match=True)
            else:
                through, cand = step.pairs(batch)
                batch, keep = step.extend(batch, through, cand)
                if keep is not None:
                    through = take(_as_ordinals(through), keep)
            through = _as_ordinals(through)
            origin = through if origin is None else take(origin, through)
            if not len(origin):
                break
        if origin is None:  # nothing filtered, nothing joined: all match
            origin = range(selected)
        found = self._reduce(origin, batch, selected)
        return take(sel, found) if restricted else found

    def _reduce(self, origin, batch: list, selected: int) -> array:
        """The ascending ordinals the predicate keeps, from the ``origin``
        of every row of the final ``batch``."""
        pred = self.pred
        if isinstance(pred, ExistsPred):
            return self.distinct(origin, selected, self.negated)
        results = batch[self.result_slot] if len(origin) else ()
        if isinstance(pred, ValueCmpPred):
            test, string_value = self.test, self.string_value
            passing = {row for row in set(results) if test(string_value(row))}
            return self.distinct(
                compress(origin, map(passing.__contains__, results)), selected)
        counts = Counter(map(itemgetter(0), set(zip(origin, results))))
        compare, target = _OPS[pred.op], pred.target
        return array(
            "q", (i for i in range(selected) if compare(float(counts[i]), target))
        )

    def explain(self, indent: int, negated: bool) -> list[str]:
        header = semi_join_header(self.pred.subplan, negated != self.negated)
        if not isinstance(self.pred, ExistsPred):
            header += f" {self.pred}"
        lines = [" " * indent + header]
        indent += 2
        final = len(self.steps) - 1
        for index in range(final, -1, -1):
            step = self.steps[index]
            if index == final and self.first_match:
                lines.append(" " * indent + step.describe(first_match=True))
            else:
                lines.append(" " * indent + step.describe())
            lines.extend(_explain_selectors(step.semi, indent + 2))
            indent += 2
        return lines


def _value_test(pred: ValueCmpPred) -> Callable[[Optional[str]], bool]:
    """Whether a string value (``None``: the row has none) compares true:
    as text for ``=``/``!=`` against a string, else as a number — a value
    that is no number reads as NaN, which only ``!=`` holds against."""
    op, wanted = pred.op, pred.value
    if not pred.numeric:
        return lambda value: value is not None and (value == wanted) == (op == "=")
    target, compare = as_float(wanted), _OPS[op]

    def test(value: Optional[str]) -> bool:
        number = as_float(value)
        if number is None or target is None:
            return op == "!=" and value is not None
        return compare(number, target)

    return test


class _PositionSelect:
    """``position()`` / ``last()`` on a sibling-family step as a rank among
    the candidate's siblings that pass the step's name test: its slice of
    the children index (in span order, so both span edges ascend), built
    once per ``(tid, pid)`` and ``select``.  On the child axis it ranks
    among all of them, on the following axes among those starting at or
    after the context's right edge, on the preceding axes among those
    ending at or before its left edge, from the context outwards."""

    def __init__(self, pred: PositionPred) -> None:
        self.pred = pred

    def bind(self, ctx: _Compile, est) -> "_PositionSelect":
        bound = _unbound(self)
        bound.store = ctx.store
        return bound

    def select(self, batch: list, sel) -> array:
        pred, store = self.pred, self.store
        tids, pids, ids, is_attr, names = (
            store.tid, store.pid, store.id, store.is_attr, store.names,
        )
        left, right = store.left.__getitem__, store.right.__getitem__
        axis, compare, target = pred.axis, _OPS[pred.op], pred.target
        cands, contexts = batch[pred.cand_slot], batch[pred.ctx_slot]
        groups: dict = {}
        kept = array("q")
        for i in sel:
            cand = cands[i]
            key = tids[cand], pids[cand]
            rows = groups.get(key)
            if rows is None:
                rows = groups[key] = [
                    row for row in store.children_rows(*key)
                    if (not is_attr[row] if pred.test_name is None
                        else names[row] == pred.test_name)
                ]
            at = bisect_left(rows, left(cand), key=left)
            if at == len(rows) or ids[rows[at]] != ids[cand]:
                continue
            if axis is Axis.CHILD:
                position, size = at + 1, len(rows)
            elif axis in (Axis.FOLLOWING_SIBLING, Axis.IMMEDIATE_FOLLOWING_SIBLING):
                first = bisect_left(rows, right(contexts[i]), key=left)
                position, size = at - first + 1, len(rows) - first
            else:
                size = bisect_right(rows, left(contexts[i]), key=right)
                position = size - at
            if position > 0 and compare(
                float(position), float(size) if target is None else target
            ):
                kept.append(i)
        return kept

    def explain(self, indent: int, negated: bool) -> list[str]:
        pred = self.pred
        return [" " * indent + (
            f"PositionRank[{'not ' if negated else ''}{pred} among "
            f"{pred.axis.value}::{pred.test_name or '_'} siblings]"
        )]


def _explain_selectors(selectors, indent: int) -> list[str]:
    return [
        line for selector in selectors for line in selector.explain(indent, False)
    ]
