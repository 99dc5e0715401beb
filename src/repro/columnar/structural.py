"""Set-at-a-time structural joins over the clustered span columns.

The batch executor's default ``Join`` step is *binding-at-a-time*: every
left-side binding triggers an independent binary-search probe of the
``(name, tid)`` partition, so a query touching ``k`` hierarchical steps
does ``O(|bindings| * k * log n)`` probe work plus per-binding closure
overhead.  Classic XML-DB structural-join results (stack-tree, staircase)
show that sorted span columns admit *merge-based* evaluation: sort the
bindings once by their probe bound, then answer the whole axis step in a
single forward pass over the partition.  This module brings that to the
columnar executor:

* ``sweep`` — the sort-merge join for every probe with a lower span bound
  (child / descendant / following / sibling axes, scoped variants
  included): bindings sorted by ``(tid, low)`` make the partition start
  pointer monotone, so finding each candidate range costs amortized O(1)
  instead of two binary searches.  The native kernels find each tree's
  partition by galloping on from the previous tree's end instead of
  bisecting the rest of the name block twice (``paper_suite`` ≈ 1.22k →
  1.49k ops/s, 9 of 10 alternating pairs);
* ``stack`` — the stack-tree variant for the ancestor axes: a stack of
  "open" spans replaces the per-binding prefix scan, so each partition row
  is pushed and popped exactly once per tid group (boundary-sharing LPath
  labels only ever leave stale entries that the residual conditions
  filter);
* ``prefix`` — the merge variant for the preceding axes, whose matches
  genuinely are a prefix of the partition: a monotone end pointer replaces
  the per-binding binary search.

What they merge against is a *candidate list* — row ids in ``(tid,
left)`` order with a position range per tree: the identity list over a
name block of the clustered order for a named step, the literal's element
rows (resolved once per bound plan) for a step driven from the value
index.  One :class:`MergeJoinStep` for both.

The C kernels (:mod:`repro.columnar.kernels`) do this work under the
native backend.  :meth:`MergeJoinStep.pairs` is their reference: one
plain loop over the three strategies that filters candidates with the
probe join's own :func:`_apply_filters`, kept simple enough to check by
eye rather than fast, and required to emit the kernels' ``(src, cand)``
pairs exactly.  It also runs the shapes the kernels leave out (binding
prunes, per-row residuals, or-self).

All three also run in ``first_match`` mode — a binding stops at its first
passing candidate — which is what the last step of a predicate
sub-pipeline needs: an ``exists`` semi-join only asks whether a binding
matches (see ``_SemiJoin`` in :mod:`repro.columnar.executor`).

Which joins are *eligible* is a pure IR-shape question (:func:`merge_spec`);
whether a merge join is *worth it* is a cost question answered from
collected statistics (:func:`choose_join`), shared by ``explain()``'s
join annotation and the per-segment bind so both always agree on the
model — on the main chain and, with the owner's estimate threaded in
(:func:`flow_estimate`), inside predicate subplans.
``REPRO_FORCE_JOIN=merge|probe`` overrides the choice for differential
testing.
"""

from __future__ import annotations

import os
from array import array
from itertools import compress
from math import log2
from typing import NamedTuple, Optional

from ..faults import active_injector
from ..lpath.axes import Axis
from ..plan.ir import (
    CLUSTERED,
    Col,
    Const,
    IndexProbe,
    Join,
    PlanNode,
    Scan,
    TableScan,
    ValueSeed,
    L, R, T,
)
from .kernels.api import NativeMergeJoin, active_kernels, bind_checks
from .store import python_take

SWEEP, STACK, PREFIX = "sweep", "stack", "prefix"

_ANCESTOR_AXES = (Axis.ANCESTOR, Axis.ANCESTOR_OR_SELF)
_CHILD_LIKE = (Axis.CHILD, Axis.IMMEDIATE_FOLLOWING_SIBLING, Axis.IMMEDIATE_FOLLOWING)

#: Cost-model units, calibrated to CPython's actual constants: a probe
#: pays per binding for the binding-list build, the access closures, one
#: dict lookup and two bisects; a merge pays a sort (C-level tuple sort,
#: hence the small per-element unit), a flat per-binding bookkeeping cost
#: and an amortized pointer advance over each touched partition.  The
#: native kernels order a tid-ordered batch in one insertion pass, so for
#: them ``SORT_UNIT`` overstates the sort; it predates that and is kept.
PROBE_SETUP = 5.0
PROBE_BINDING = 12.0
MERGE_SETUP = 40.0
MERGE_BINDING = 5.0
SORT_UNIT = 0.2
ADVANCE_UNIT = 0.1

FORCE_ENV = "REPRO_FORCE_JOIN"


def force_mode() -> Optional[str]:
    """The forced physical-join mode from the environment, if any.

    An unset or empty variable means "let the cost model decide"; any
    other value than ``merge``/``probe`` is a configuration error and
    raises, so a typo'd override can never silently fall back to the
    cost-based choice mid-differential-run."""
    mode = os.environ.get(FORCE_ENV)
    if not mode:
        return None
    if mode in ("merge", "probe"):
        return mode
    from ..lpath.errors import LPathError

    raise LPathError(
        f"invalid {FORCE_ENV} value {mode!r}; use 'merge' or 'probe'"
    )


class Knobs(NamedTuple):
    """The environment a compile depends on, read once per compile (and
    handed down through it) instead of once per plan step per segment:
    the forced join mode, the resolved ``REPRO_KERNELS`` bundle (``None``
    is the pure-Python backend) and the active ``REPRO_FAULTS`` injector."""

    force: Optional[str]
    kern: object
    injector: object

    @property
    def backend(self) -> str:
        return "python" if self.kern is None else "native"


def read_knobs(knobs: Optional[Knobs] = None) -> Knobs:
    """``knobs`` when the caller was handed them, else three environment
    reads (raises on an invalid knob value)."""
    return knobs or Knobs(force_mode(), active_kernels(), active_injector())


class MergeSpec(NamedTuple):
    """The analyzed shape of a merge-eligible join."""

    strategy: str                     # SWEEP / STACK / PREFIX
    name: Optional[str]               # candidate partition name; None: the
                                      # join's value seed lists the candidates
    tid_slot: int                     # binding slot supplying the tree id
    low: Optional[tuple[int, int]]    # (slot, column) of the lower bound
    high: Optional[tuple[int, int]]   # (slot, column) of the upper bound
    include_low: bool
    include_high: bool
    self_slot: Optional[int]          # or-self context slot
    self_name: Optional[str]


def _bound(operand) -> tuple[Optional[tuple[int, int]], bool]:
    if operand is None:
        return None, True
    if isinstance(operand, Col) and operand.col in (L, R):
        return (operand.slot, operand.col), True
    return None, False


def merge_spec(node: PlanNode) -> Optional[MergeSpec]:
    """A :class:`MergeSpec` when ``node`` is a structural-join-eligible
    ``Join`` — a clustered ``(name, tid)`` probe, or a tree-keyed value
    seed carrying its axis window, with span-column bounds — else
    ``None``."""
    if not isinstance(node, Join):
        return None
    access = node.access
    if isinstance(access, ValueSeed):
        if access.window is None:
            return None
        name, tid_op, self_slot, self_name = None, access.tid, None, None
        low_op, high_op, include_low, include_high = access.window
    elif isinstance(access, IndexProbe):
        if access.index != CLUSTERED:
            return None
        if len(access.eq) != 2:
            return None
        name_op, tid_op = access.eq
        if not isinstance(name_op, Const) or not isinstance(name_op.value, str):
            return None
        name, self_slot, self_name = name_op.value, access.self_slot, access.self_name
        low_op, high_op = access.low, access.high
        include_low, include_high = access.include_low, access.include_high
    else:
        return None
    if not isinstance(tid_op, Col) or tid_op.col != T:
        return None
    low, low_ok = _bound(low_op)
    high, high_ok = _bound(high_op)
    if not low_ok or not high_ok:
        return None
    if low is None and high is None:
        return None  # a bare partition scan needs no probe to beat
    if low is not None:
        strategy = SWEEP
    elif node.axis in _ANCESTOR_AXES:
        strategy = STACK
    else:
        strategy = PREFIX
    return MergeSpec(
        strategy, name, tid_op.slot, low, high, include_low, include_high,
        self_slot, self_name,
    )


# -- cardinality estimation ---------------------------------------------------


def _avg_partition(stats, name: str) -> float:
    ns = stats.name_stats(name)
    return ns.rows / ns.partitions if ns.partitions else 0.0


def _seed_guess(access: ValueSeed, stats) -> float:
    """Value seeds hit the {value, tid, id} index: typically a small
    fraction of the attribute rows; the square root keeps the guess
    between "constant" and "everything" without per-value stats."""
    return max(1.0, float(stats.frequency(access.attr)) ** 0.5)


def scan_estimate(node: Scan, stats) -> float:
    """Estimated cardinality of a pipeline's first step."""
    access = node.access
    if isinstance(access, TableScan):
        return float(stats.size())
    if isinstance(access, ValueSeed):
        return _seed_guess(access, stats)
    if isinstance(access, IndexProbe) and access.eq and isinstance(access.eq[0], Const):
        return float(stats.frequency(access.eq[0].value))
    return float(stats.size())


def join_fanout(node: Join, stats) -> float:
    """Expected matches per input binding for one join step."""
    access = node.access
    if isinstance(access, IndexProbe):
        if access.eq and isinstance(access.eq[0], Const) and isinstance(
            access.eq[0].value, str
        ):
            name = access.eq[0].value
            ns = stats.name_stats(name)
            avg_part = _avg_partition(stats, name)
            if node.axis in _CHILD_LIKE:
                return min(avg_part, 2.0)
            if node.axis in _ANCESTOR_AXES:
                depth_range = float(ns.max_depth - ns.min_depth + 1)
                return min(avg_part, depth_range)
            return avg_part * 0.5
        if len(access.eq) >= 2:
            return 1.5   # (tid, id) family: a handful of rows per node
        trees = max(1, stats.tree_count())
        return max(1.0, stats.size() / trees * 0.5)   # whole-tree scan
    if isinstance(access, ValueSeed):
        trees = max(1, stats.tree_count())
        return max(1.0, float(stats.frequency(access.attr)) / trees * 0.5)
    return 1.0


def flow_estimate(node, stats, est: Optional[float]):
    """``(est_in, est_out)``: the estimated cardinality reaching one chain
    node and leaving it — the one rule both walks that cost joins thread
    along a pipeline (the optimizer's over the IR against the catalog,
    the bind's over the skeleton against each shard).  A ``Scan`` starts
    the flow, a ``Join`` multiplies it by its fan-out, anything else
    passes it on.  A predicate subplan starts from its owner's
    ``est_out``: it runs over the owner's whole output."""
    if isinstance(node, Scan):
        return est, scan_estimate(node, stats)
    if isinstance(node, Join):
        return est, est * join_fanout(node, stats)
    return est, est


def choose_join(est_in: float, candidates, stats) -> str:
    """Pick the cheaper physical join under the module's cost units.
    ``candidates`` names the candidate side: a partition name, or the
    :class:`ValueSeed` whose element rows are the candidate list — sized
    by a store's own list (a bind), or like a seeded scan where ``stats``
    resolves no seeds (the summed catalog of a segmented corpus); either
    way assumed spread one tree per row."""
    if isinstance(candidates, ValueSeed):
        seed = getattr(stats, "seed", None)
        if seed is None:
            rows = _seed_guess(candidates, stats)
        else:
            rows = float(len(seed(*candidates.key)[0]))
        partitions = min(rows, float(stats.tree_count()))
    else:
        ns = stats.name_stats(candidates)
        rows, partitions = float(ns.rows), float(ns.partitions)
    avg_part = rows / partitions if partitions else 0.0
    probe = PROBE_SETUP + est_in * (PROBE_BINDING + log2(avg_part + 2.0))
    touched = min(est_in, partitions)
    merge = (
        MERGE_SETUP
        + est_in * (MERGE_BINDING + SORT_UNIT * log2(est_in + 2.0))
        + touched * avg_part * ADVANCE_UNIT
    )
    return "merge" if merge < probe else "probe"


# -- the physical operator ----------------------------------------------------


class Cutoff:
    """A per-execution row budget for structural joins (top-k early
    termination).  Once a join has emitted ``max_rows`` pairs it stops
    *before starting the next tree*, so its output always covers a
    complete prefix of the ascending tid groups; ``hit`` records that a
    truncation happened so the driver can fall back to an uncapped run.

    A fresh ``Cutoff`` is passed per execution — never stored on a step —
    because compiled plans are cached and shared across threads."""

    __slots__ = ("max_rows", "hit")

    def __init__(self, max_rows: int) -> None:
        self.max_rows = max_rows
        self.hit = False


_EMPTY = (0, 0)
#: Span positions are small ints; a probe without an upper bound sweeps up
#: to this sentinel (the native kernels' ``REPRO_NO_LIMIT``).
_NO_LIMIT = 1 << 62


# -- the candidate filter both join flavors share -----------------------------


def _apply_filters(cands, b: list, vector, row_checks):
    """The candidates ``cands`` for binding ``b`` that pass every vector
    check (a ``(column, op, rhs slot, payload)`` comparison, ``payload``
    indexed by the binding's ``rhs slot`` row when that is set) and then
    every per-row residual, in candidate order."""
    for column, opf, rhs_slot, payload in vector:
        wanted = payload if rhs_slot is None else payload[b[rhs_slot]]
        cands = [j for j in cands if opf(column[j], wanted)]
        if not cands:
            return cands
    if row_checks:
        cands = [j for j in cands if all(check(b + [j]) for check in row_checks)]
    return cands


def _first_passing(cands, b: list, vector, row_checks):
    """``_apply_filters`` for a ``first_match`` join: the first candidate
    that passes everything (as a 0/1-element sequence), without filtering
    the candidates behind it."""
    resolved = [
        (column, opf, payload if rhs_slot is None else payload[b[rhs_slot]])
        for column, opf, rhs_slot, payload in vector
    ]
    for j in cands:
        for column, opf, wanted in resolved:
            if not opf(column[j], wanted):
                break
        else:
            if all(check(b + [j]) for check in row_checks):
                return (j,)
    return ()


# -- what every join step does with its matches -------------------------------


def python_distinct(ordinals, n: int, negated: bool = False) -> array:
    """The distinct values of ``ordinals`` (all in ``range(n)``),
    ascending — or, ``negated``, the values of ``range(n)`` *not* among
    them.  The native backend does either in one marking pass."""
    if not negated:
        return array("q", sorted(set(ordinals)))
    absent = bytearray(b"\x01") * n
    for ordinal in ordinals:
        absent[ordinal] = 0
    return array("q", compress(range(n), absent))


def select_all(parts, batch, sel):
    """Sequential restriction: the ordinals of ``sel`` every selector in
    ``parts`` keeps (each selector only sees what the previous ones left)."""
    for part in parts:
        if not len(sel):
            break
        sel = part.select(batch, sel)
    return sel


def apply_selectors(selectors, batch: list, take):
    """``(batch restricted to the rows every selector keeps, keep)`` —
    ``keep`` is ``None`` when nothing was dropped, else the ascending
    ordinals kept (so a caller tracking provenance can follow along)."""
    count = len(batch[0]) if batch else 0
    if selectors and count:
        keep = select_all(selectors, batch, range(count))
        if len(keep) != count:
            return [take(column, keep) for column in batch], keep
    return batch, None


class JoinOutput:
    """The half of a join step both flavors share.  A flavor implements
    ``pairs(batch, cutoff, first_match) -> (src, cand)`` — for every
    match, the index of its input binding and the candidate row — and
    this turns the pairs into the next batch: input columns gathered
    through ``src``, the candidates appended as the new slot, then the
    step's set-at-a-time predicate selectors (``semi``) applied to the
    result."""

    take = staticmethod(python_take)
    semi: tuple = ()

    def run(self, batch: list, cutoff: Optional["Cutoff"] = None) -> list:
        src, cand = self.pairs(batch, cutoff)
        return self.extend(batch, src, cand)[0]

    def extend(self, batch: list, src, cand):
        """``(next batch, keep)`` as :func:`apply_selectors` returns them,
        ``keep`` counting in pair ordinals."""
        take = self.take
        out = [take(column, src) for column in batch]
        out.append(cand if isinstance(cand, array) else array("q", cand))
        return apply_selectors(self.semi, out, take)


class MergeJoinStep(JoinOutput):
    """One structural merge join in a columnar pipeline.

    Drop-in peer of the executor's probe ``_JoinStep``: consumes and
    produces the same slot-per-array batches and applies the same
    classified conditions, but enumerates candidates by merging the sorted
    binding bounds against the sorted partition instead of re-probing per
    binding.  Construction is done by :mod:`repro.columnar.executor`'s
    per-segment bind, which passes in the node's segment-independent
    analysis (``join``) plus the classified condition lists resolved to
    this store's columns, so both join flavors share one condition
    compiler — and, off the native kernel, one candidate filter.

    The partition merged against is a *candidate list*: positions
    ``lo..hi`` per tree of a row-id sequence in ``(tid, left)`` order.  A
    named step's list is the identity over the store (a name block's
    positions are its rows); a value-seeded step's is ``seed.rows()``,
    the literal's element rows, resolved once per store.
    """

    def __init__(self, join, ctx, vector, binding, row, semi=(), seed=None) -> None:
        node, spec, store = join.node, join.spec, ctx.store
        self.slot = node.slot
        self.label = node.label
        self.access = node.access
        self.spec = spec
        self.vector = vector
        self.binding = binding
        self.row = row
        self.semi = semi
        self.take = ctx.take
        # The native (cffi) kernel runs the shapes the join skeleton
        # validated for it (``join.kinds``: no binding prunes, no per-row
        # residuals, no or-self, fixed-width integer columns — decided
        # once per plan, under the backend the plan cache keys on); only
        # column pointers are resolved here.  Everything else, and the
        # whole pure-Python backend, runs the reference loop of pairs().
        self._native = None
        if join.kinds is not None:
            self._native = NativeMergeJoin(
                ctx.kern, spec, bind_checks(join.kinds, vector), store, seed
            )
            return  # the kernel reads the store itself
        self.seed = seed
        #: A name block's candidate list: (rows, per-tree bounds, ``left``
        #: by position) — positions are rows.
        self.block = (range(store.n), store.name_tid_bounds, store.left)
        self.tids = store.tid
        self.rights = store.right
        self.names = store.names
        self.key_arr = store.col(
            spec.low[1] if spec.strategy == SWEEP else spec.high[1]
        )
        self.high_arr = None if spec.high is None else store.col(spec.high[1])

    def pairs(self, batch: list, cutoff: Optional[Cutoff] = None,
              first_match: bool = False):
        """``(src, cand)`` index/row pairs of every match; with
        ``first_match`` at most one — the first passing candidate — per
        input binding.

        Off the native kernel this is the reference loop the kernels are
        checked against, pair for pair.  Bindings are visited by ``(tid,
        key, i)`` — the key being the probe's low bound for ``sweep``, its
        high bound otherwise — so within a tree one pointer only moves
        forward through the candidate list.  Each binding takes its
        strategy's candidates: for ``sweep`` the positions from that
        pointer (advanced past the low bound) up to the high bound; for
        ``stack`` the spans pushed so far that are still open at the
        binding's edge; for ``prefix`` the tree's positions up to the
        edge.  The or-self row goes in front, and the probe join's own
        filter keeps what passes."""
        if self._native is not None:
            return self._native.pairs(batch, cutoff, first_match)
        src: list[int] = []
        res: list[int] = []
        count = len(batch[0]) if batch else 0
        if count == 0:
            return src, res
        spec = self.spec
        key_slot = spec.low[0] if spec.strategy == SWEEP else spec.high[0]
        keyed = sorted(zip(
            map(self.tids.__getitem__, batch[spec.tid_slot]),
            map(self.key_arr.__getitem__, batch[key_slot]),
            range(count),
        ))
        rows, bounds, edges = (
            self.block if self.seed is None else self.seed.partition()
        )
        matches = _first_passing if first_match else _apply_filters
        current_tid = None
        lo = hi = ptr = 0
        opened: list[int] = []
        for tid_val, key, i in keyed:
            b = [column[i] for column in batch]
            if not all(check(b) for check in self.binding):
                continue
            if tid_val != current_tid:
                if cutoff is not None and len(res) >= cutoff.max_rows:
                    cutoff.hit = True
                    break
                current_tid = tid_val
                lo, hi = bounds.get((spec.name, tid_val), _EMPTY)
                ptr = lo
                opened = []
            if spec.strategy == SWEEP:
                start = key if spec.include_low else key + 1
                while ptr < hi and edges[ptr] < start:
                    ptr += 1
                if spec.high is None:
                    limit = _NO_LIMIT
                else:
                    high_val = self.high_arr[b[spec.high[0]]]
                    limit = high_val + 1 if spec.include_high else high_val
                end = ptr
                while end < hi and edges[end] < limit:
                    end += 1
                cands = rows[ptr:end]
            else:
                # ``opened`` holds the tree's rows up to the edge: for
                # ``prefix`` all of them, for ``stack`` those whose span
                # is still open — spans are strict (``right > left``), so
                # one ending at the edge cannot contain the binding.
                limit = key + 1 if spec.include_high else key
                while ptr < hi and edges[ptr] < limit:
                    opened.append(rows[ptr])
                    ptr += 1
                if spec.strategy == STACK:
                    while opened and self.rights[opened[-1]] <= key:
                        opened.pop()
                cands = opened
            if spec.self_slot is not None:
                self_row = b[spec.self_slot]
                if self.names[self_row] == spec.self_name:
                    cands = [self_row, *cands]
            matched = matches(cands, b, self.vector, self.row)
            res.extend(matched)
            src.extend([i] * len(matched))
        return src, res

    def describe(self, first_match: bool = False) -> str:
        kernel = "native" if self._native is not None else "python"
        semi = f" semi={len(self.semi)}" if self.semi else ""
        return (
            f"StructuralMergeJoin(s{self.slot} <- {self.access}: {self.label}"
            f" | strategy={self.spec.strategy} kernel={kernel}"
            f" vector={len(self.vector)}"
            f"{semi} row={len(self.row)}{' first_match' if first_match else ''})"
        )
