"""The logical query IR shared by the LPath and XPath engines.

Both dialects lower their parsed ASTs to the same small algebra over the
label relation ``(tid, left/start, right/end, depth, id, pid, name,
value)``:

* :class:`Scan` / :class:`Join` — materialize one query step per *slot*
  (8 binding columns), driven by an access spec (:class:`IndexProbe`,
  :class:`TableScan` or :class:`ValueSeed`);
* :class:`Filter` — residual conditions over already-bound slots;
* :class:`Distinct` — the output: every plan ends in the distinct
  ``(tid, id)`` key of its result slot;
* :class:`Context` — the leaf of a correlated predicate subplan: it yields
  the incoming binding unchanged.

Conditions are first-class predicate trees (:class:`Cmp`, :class:`AllPred`,
:class:`ExistsPred`, ...) whose operands name binding columns by
``(slot, column)``; the optimizer can therefore reason about which slots a
condition touches, push conditions into probes, and reorder joins.  The
columnar executor (:mod:`repro.columnar.executor`) turns the IR into
runnable plans for either labeling scheme.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

#: Symbolic column offsets within one slot (one label row).  The two
#: labeling schemes share these positions: ``L``/``R`` hold LPath's
#: ``left``/``right`` or the start/end scheme's ``start``/``end``.
T, L, R, D, I, P, N, V = range(8)
ROW_WIDTH = 8

COLUMN_NAMES = ("tid", "left", "right", "depth", "id", "pid", "name", "value")


# -- operands -----------------------------------------------------------------


@dataclass(frozen=True)
class Col:
    """Binding column ``slot.column``."""

    slot: int
    col: int

    def __str__(self) -> str:
        return f"s{self.slot}.{COLUMN_NAMES[self.col]}"


@dataclass(frozen=True)
class Const:
    """A literal operand."""

    value: object

    def __str__(self) -> str:
        return repr(self.value)


Operand = Union[Col, Const]


# -- predicates ---------------------------------------------------------------


class Pred:
    """Base class for IR predicates (conditions over a binding)."""


@dataclass(frozen=True)
class Cmp(Pred):
    """``left <op> right`` with ``op`` in ``= != < <= > >=``."""

    left: Operand
    op: str
    right: Operand

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


@dataclass(frozen=True)
class IsElement(Pred):
    """The slot's row is an element (name does not start with ``@``)."""

    slot: int

    def __str__(self) -> str:
        return f"element(s{self.slot})"


@dataclass(frozen=True)
class IsAttr(Pred):
    """The slot's row is an attribute row."""

    slot: int

    def __str__(self) -> str:
        return f"attribute(s{self.slot})"


@dataclass(frozen=True)
class BoolConst(Pred):
    """A constant boolean condition."""

    value: bool

    def __str__(self) -> str:
        return "true" if self.value else "false"


@dataclass(frozen=True)
class AllPred(Pred):
    """Conjunction."""

    parts: tuple[Pred, ...]

    def __str__(self) -> str:
        return "(" + " and ".join(str(p) for p in self.parts) + ")"


@dataclass(frozen=True)
class AnyPred(Pred):
    """Disjunction."""

    parts: tuple[Pred, ...]

    def __str__(self) -> str:
        return "(" + " or ".join(str(p) for p in self.parts) + ")"


@dataclass(frozen=True)
class NotPred(Pred):
    """Negation."""

    part: Pred

    def __str__(self) -> str:
        return f"not({self.part})"


@dataclass(frozen=True)
class RightEdge(Pred):
    """The slot's row is right-aligned with its tree root
    (``right == root_right[tid]``) — LPath ``$`` outside a scope."""

    slot: int

    def __str__(self) -> str:
        return f"right-edge(s{self.slot})"


class SubplanPred(Pred):
    """Base for predicates that run a correlated subplan."""

    subplan: "PlanNode"


@dataclass(eq=False)
class ExistsPred(SubplanPred):
    """True iff the subplan yields at least one binding (semijoin)."""

    subplan: "PlanNode"

    def __str__(self) -> str:
        return "exists{...}"


@dataclass(eq=False)
class ValueCmpPred(SubplanPred):
    """``path <op> literal``: some result of the subplan has a string value
    comparing true against the literal."""

    subplan: "PlanNode"
    op: str
    value: object
    numeric: bool

    def __str__(self) -> str:
        return f"value{{...}} {self.op} {self.value!r}"


@dataclass(eq=False)
class CountCmpPred(SubplanPred):
    """``count(path) <op> number`` over distinct subplan results."""

    subplan: "PlanNode"
    op: str
    target: float

    def __str__(self) -> str:
        return f"count{{...}} {self.op} {self.target}"


@dataclass(eq=False)
class PositionPred(Pred):
    """Restricted ``position()``/``last()`` predicate on a sibling-family
    axis; ``target is None`` means ``last()``."""

    axis: object                 # repro.lpath.axes.Axis
    test_name: Optional[str]     # None for the wildcard test
    op: str
    target: Optional[float]
    ctx_slot: int
    cand_slot: int

    def __str__(self) -> str:
        wanted = "last()" if self.target is None else self.target
        return f"position(s{self.cand_slot}) {self.op} {wanted}"


# -- access specs -------------------------------------------------------------


class Access:
    """How candidate rows for a slot are produced from the current binding."""


@dataclass(frozen=True)
class TableScan(Access):
    """Full scan of the label relation (clustered order)."""

    def __str__(self) -> str:
        return "TableScan"


#: The two physical orders an :class:`IndexProbe` names — the clustered
#: ``{name, tid, left, ...}`` order and the ``{tid, id, ...}`` permutation.
#: The lowerer writes these and the columnar executor resolves them.
CLUSTERED = "clustered"
TID_ID = "idx_tid_id"


@dataclass(frozen=True)
class IndexProbe(Access):
    """Prefix-equality probe with an optional range on the next key column.

    ``eq`` operands are in index-key order; ``low``/``high`` bound the
    column right after the equality prefix.  ``self_slot``/``self_name``
    implement the or-self axes: the context row is also yielded when its
    name matches.
    """

    index: str                   # CLUSTERED or TID_ID
    eq: tuple[Operand, ...]
    low: Optional[Operand] = None
    high: Optional[Operand] = None
    include_low: bool = True
    include_high: bool = True
    self_slot: Optional[int] = None
    self_name: Optional[str] = None

    def __str__(self) -> str:
        parts = [self.index, "eq=(" + ", ".join(str(o) for o in self.eq) + ")"]
        if self.low is not None or self.high is not None:
            lo = "(" if not self.include_low else "["
            hi = ")" if not self.include_high else "]"
            low = str(self.low) if self.low is not None else "-inf"
            high = str(self.high) if self.high is not None else "+inf"
            parts.append(f"range={lo}{low}, {high}{hi}")
        if self.self_slot is not None:
            parts.append(f"or-self(s{self.self_slot})")
        return "IndexProbe(" + " ".join(parts) + ")"


@dataclass(frozen=True)
class ValueSeed(Access):
    """Drive a step from the value index: find ``[@attr = literal]`` rows,
    then look up their element rows.  ``tid is None`` seeds a whole-corpus
    scan (first step); a :class:`Col` correlates it with the binding.
    ``literal`` is the query's: a string matches a value as written, a
    number every value ``number()`` reads as it.  ``window`` is the step
    axis's ``(low, high, include_low, include_high)`` range of ``left``
    (the bounds a named step's :class:`IndexProbe` carries) — a superset
    of the axis relation that a structural merge join over the seed's
    sorted rows sweeps; a per-tree probe ignores it."""

    attr: str                    # "@"-prefixed attribute row name
    literal: object              # the query's Literal or Number
    name_test: Optional[str]     # element name filter, None for wildcard
    root_only: bool = False
    tid: Optional[Operand] = None
    window: Optional[tuple] = None

    def __str__(self) -> str:
        scope = "corpus" if self.tid is None else f"tree {self.tid}"
        return f"ValueSeed({self.attr}={self.literal} over {scope})"

    @property
    def key(self) -> tuple:
        """``(attr, literal value, name test)``: what a store resolves."""
        return self.attr, self.literal.value, self.name_test


# -- plan nodes ---------------------------------------------------------------


class PlanNode:
    """Base class for logical plan nodes."""


@dataclass(eq=False)
class Context(PlanNode):
    """Leaf of a correlated subplan: yields the incoming binding, whose
    ``slot`` holds the context node the subplan starts from."""

    slot: int


@dataclass(eq=False)
class Scan(PlanNode):
    """Materialize slot 0 from an access spec (the first query step)."""

    access: Access
    conditions: tuple[Pred, ...]
    label: str
    step: object = None          # AST Step annotation (for the optimizer)

    slot: int = 0


@dataclass(eq=False)
class Join(PlanNode):
    """Extension join: for each input binding, append every access row
    that satisfies the conditions as slot ``slot``.

    ``physical`` records the optimizer's cost-based choice of join
    algorithm for batch execution — ``"merge"`` (set-at-a-time structural
    merge join over the sorted span columns) or ``"probe"`` (per-binding
    index probe); ``None`` means the join shape admits no structural
    variant.  ``est_in`` is the estimated input cardinality the choice was
    based on."""

    input: PlanNode
    slot: int
    access: Access
    conditions: tuple[Pred, ...]
    label: str
    axis: object = None          # Axis annotation
    step: object = None          # AST Step annotation
    ctx_slot: Optional[int] = None
    scope_slot: Optional[int] = None
    physical: Optional[str] = None
    est_in: Optional[float] = None


@dataclass(eq=False)
class Filter(PlanNode):
    """Keep bindings satisfying every condition."""

    input: PlanNode
    conditions: tuple[Pred, ...]
    label: str = "filter"


@dataclass(eq=False)
class Distinct(PlanNode):
    """Drop duplicate bindings keyed on ``(slot, column)`` positions (and
    project to that key)."""

    input: PlanNode
    key: tuple[tuple[int, int], ...]


@dataclass(eq=False)
class Limit(PlanNode):
    """Keep only the first ``count`` results in the dialect's output order
    (sorted distinct keys) — the logical top-k operator.  The physical
    executors push the cutoff into the structural-join sweeps so
    deep-chain queries stop the moment k results exist."""

    input: PlanNode
    count: int


#: The aggregate operations :class:`Aggregate` supports.  ``count`` is
#: the distinct result cardinality; the ``count_by_*`` forms group it by
#: the result slot's name or depth column.
AGGREGATE_OPS = ("count", "count_by_name", "count_by_depth")


@dataclass(eq=False)
class Aggregate(PlanNode):
    """Fold the distinct result set to counts without materializing node
    lists: ``op`` is one of :data:`AGGREGATE_OPS`, ``slot`` the result
    slot whose name/depth column keys the grouped forms."""

    input: PlanNode
    op: str
    slot: int


# -- introspection helpers ----------------------------------------------------


def child_of(node: PlanNode) -> Optional[PlanNode]:
    """The single input of a node, or ``None`` for leaves."""
    if isinstance(node, (Scan, Context)):
        return None
    return node.input


def set_child(node: PlanNode, child: PlanNode) -> None:
    """Replace the single input of a non-leaf node."""
    node.input = child


def linearize(node: PlanNode) -> list[PlanNode]:
    """The chain from leaf to ``node`` (leaf first)."""
    chain: list[PlanNode] = []
    current: Optional[PlanNode] = node
    while current is not None:
        chain.append(current)
        current = child_of(current)
    chain.reverse()
    return chain


def operand_slots(operand: Operand) -> set[int]:
    if isinstance(operand, Col):
        return {operand.slot}
    return set()


def pred_slots(pred: Pred) -> set[int]:
    """Every binding slot a predicate reads (subplans contribute the outer
    slots they reference, not the transient slots they introduce)."""
    if isinstance(pred, Cmp):
        return operand_slots(pred.left) | operand_slots(pred.right)
    if isinstance(pred, (IsElement, IsAttr, RightEdge)):
        return {pred.slot}
    if isinstance(pred, (AllPred, AnyPred)):
        return set().union(*(pred_slots(p) for p in pred.parts)) if pred.parts else set()
    if isinstance(pred, NotPred):
        return pred_slots(pred.part)
    if isinstance(pred, BoolConst):
        return set()
    if isinstance(pred, PositionPred):
        return {pred.ctx_slot, pred.cand_slot}
    if isinstance(pred, (ExistsPred, ValueCmpPred, CountCmpPred)):
        return subplan_outer_slots(pred.subplan)
    raise TypeError(f"unknown predicate {pred!r}")


def subplan_preds(pred: Pred, negated: bool = False):
    """Every subplan predicate in one condition's and/or/not tree, in
    source order, each with whether an odd number of ``not`` wrap it
    (subplans nested *inside* a subplan belong to that subplan's nodes)."""
    if isinstance(pred, SubplanPred):
        yield pred, negated
    elif isinstance(pred, (AllPred, AnyPred)):
        for part in pred.parts:
            yield from subplan_preds(part, negated)
    elif isinstance(pred, NotPred):
        yield from subplan_preds(pred.part, not negated)


def access_slots(access: Access) -> set[int]:
    if isinstance(access, IndexProbe):
        slots: set[int] = set()
        for operand in access.eq:
            slots |= operand_slots(operand)
        for operand in (access.low, access.high):
            if operand is not None:
                slots |= operand_slots(operand)
        if access.self_slot is not None:
            slots.add(access.self_slot)
        return slots
    if isinstance(access, ValueSeed):
        return operand_slots(access.tid) if access.tid is not None else set()
    return set()


def subplan_outer_slots(node: PlanNode) -> set[int]:
    """Slots of the *outer* binding referenced anywhere in a subplan."""
    introduced: set[int] = set()
    referenced: set[int] = set()
    for item in linearize(node):
        if isinstance(item, Context):
            # Read even when no step follows: ``[. = 'w']`` compares the
            # context node's own string value.
            referenced.add(item.slot)
        elif isinstance(item, (Scan, Join)):
            if isinstance(item, Join):
                referenced |= access_slots(item.access)
            introduced.add(item.slot)
            for pred in item.conditions:
                referenced |= pred_slots(pred)
        elif isinstance(item, Filter):
            for pred in item.conditions:
                referenced |= pred_slots(pred)
        elif isinstance(item, Distinct):
            referenced |= {slot for slot, _ in item.key}
    return referenced - introduced


# -- rendering ----------------------------------------------------------------


def _render_conditions(conditions: Sequence[Pred]) -> str:
    if not conditions:
        return ""
    return " if " + " and ".join(str(c) for c in conditions)


def _format_estimate(value: float) -> str:
    """Cardinality estimates rendered stably (no float noise in snapshots)."""
    if value >= 1000:
        return f"{value:.2g}"
    return f"{value:g}" if value == round(value, 1) else f"{value:.1f}"


def _render_semi_joins(conditions: Sequence[Pred], indent: int) -> str:
    """The ``exists`` subplans of one node's conditions, each as an
    indented ``SemiJoin``/``AntiSemiJoin`` block (``not(exists{...})`` is
    the anti form), so a predicate's joins read like the main chain's."""
    blocks = []
    pad = " " * indent
    for condition in conditions:
        for pred, negated in subplan_preds(condition):
            if isinstance(pred, ExistsPred):
                blocks.append(
                    f"\n{pad}{semi_join_header(pred.subplan, negated)}\n"
                    + render(pred.subplan, indent + 2)
                )
    return "".join(blocks)


def semi_join_header(subplan: PlanNode, negated: bool) -> str:
    """``SemiJoin[on s0]`` / ``AntiSemiJoin[on s0, s1]``: the kind and the
    outer slots the subplan correlates on (shared by both plan renderings)."""
    kind = "AntiSemiJoin" if negated else "SemiJoin"
    slots = ", ".join(f"s{slot}" for slot in sorted(subplan_outer_slots(subplan)))
    return f"{kind}[on {slots}]"


def render(node: PlanNode, indent: int = 0) -> str:
    """A uniform, dialect-independent textual rendering of the IR."""
    pad = " " * indent
    if isinstance(node, Context):
        return f"{pad}Context"
    if isinstance(node, Scan):
        return (
            f"{pad}Scan(s{node.slot} <- {node.access}: {node.label})"
            f"{_render_conditions(node.conditions)}"
            f"{_render_semi_joins(node.conditions, indent + 2)}"
        )
    if isinstance(node, Join):
        choice = ""
        if node.physical is not None:
            est = (
                "" if node.est_in is None
                else f" est_in={_format_estimate(node.est_in)}"
            )
            choice = f"[{node.physical}{est}]"
        head = (
            f"{pad}Join{choice}(s{node.slot} <- {node.access}: {node.label})"
            f"{_render_conditions(node.conditions)}"
            f"{_render_semi_joins(node.conditions, indent + 2)}"
        )
        return head + "\n" + render(node.input, indent + 2)
    if isinstance(node, Filter):
        head = (
            f"{pad}Filter({node.label}){_render_conditions(node.conditions)}"
            f"{_render_semi_joins(node.conditions, indent + 2)}"
        )
        return head + "\n" + render(node.input, indent + 2)
    if isinstance(node, Distinct):
        key = ", ".join(f"s{s}.{COLUMN_NAMES[c]}" for s, c in node.key)
        return f"{pad}Distinct[{key}]\n" + render(node.input, indent + 2)
    if isinstance(node, Limit):
        return f"{pad}TopK[k={node.count}]\n" + render(node.input, indent + 2)
    if isinstance(node, Aggregate):
        return (
            f"{pad}Aggregate[{node.op} over s{node.slot}]\n"
            + render(node.input, indent + 2)
        )
    raise TypeError(f"cannot render {node!r}")
