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
  instead of two binary searches, and the residual Table 2 comparisons run
  inline over the raw arrays;
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
index.  One :class:`MergeJoinStep`, one set of loops and kernels for both.

All three also run in ``first_match`` mode — a binding stops at its first
passing candidate — which is what the last step of a predicate
sub-pipeline needs: an ``exists`` semi-join only asks whether a binding
matches (see ``_SemiJoin`` in :mod:`repro.columnar.executor`).

Which joins are *eligible* is a pure IR-shape question (:func:`merge_spec`);
whether a merge join is *worth it* is a cost question answered from
collected statistics (:func:`choose_join`), shared by the optimizer's
annotation pass and the per-segment bind so both always agree on the
model — on the main chain and, with the owner's estimate threaded in
(:func:`flow_estimate`), inside predicate subplans.
``REPRO_FORCE_JOIN=merge|probe`` overrides the choice for differential
testing.
"""

from __future__ import annotations

import operator as _operator
import os
from array import array
from itertools import compress, islice, repeat
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
    passes it on.  ``est is None`` means *per row*: the chain belongs to
    a ``count()``/value subplan, which runs once per binding, so every
    join in it — nested ``exists`` included — sees one row.  An
    ``exists`` subplan starts from its owner's ``est_out`` (it runs over
    the owner's whole output); any other subplan from ``None``."""
    if isinstance(node, Scan):
        return est, scan_estimate(node, stats)
    if isinstance(node, Join):
        if est is None:
            return 1.0, None
        return est, est * join_fanout(node, stats)
    return est, est


def choose_join(est_in: float, candidates, stats) -> str:
    """Pick the cheaper physical join under the module's cost units.
    ``candidates`` names the candidate side: a partition name, or the
    :class:`ValueSeed` whose element rows are the candidate list — sized
    from the literal's entry in a store's value index (a bind), or like a
    seeded scan where ``stats`` keeps no per-value statistics (the
    optimizer's catalog); either way assumed spread one tree per row."""
    if isinstance(candidates, ValueSeed):
        by_value = getattr(stats, "by_value", None)
        if by_value is None:
            rows = _seed_guess(candidates, stats)
        else:
            rows = float(len(by_value.get(candidates.literal, ((), ()))[1]))
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
#: Span positions are small ints; this sentinel keeps the scan loops to a
#: single bound comparison when the probe has no upper bound.
_NO_LIMIT = 1 << 62

#: Comparison functions the executor's vector filters use, mapped back to
#: source tokens so the sweep loop can be generated with *native*
#: comparisons — a C function call per candidate per condition is the
#: difference between parity and a 2x win at corpus scale.
_OP_TOKEN = {
    _operator.eq: "==",
    _operator.ne: "!=",
    _operator.lt: "<",
    _operator.le: "<=",
    _operator.gt: ">",
    _operator.ge: ">=",
}

_SWEEP_CACHE: dict[tuple, object] = {}


def _compile_sweep(spec: MergeSpec, checks, first_match: bool) -> Optional[object]:
    """Generate (and cache per shape) the flat sweep loop for one join
    shape, with the bound arithmetic and every vector comparison inlined.
    ``first_match`` generates the variant that leaves a binding at its
    first passing candidate.  Returns ``None`` when a condition uses an
    operator outside the fixed comparison set — the generic interpreted
    sweep handles those."""
    tokens = []
    for _column, opf, rhs_slot, _payload in checks:
        token = _OP_TOKEN.get(opf)
        if token is None:
            return None
        tokens.append((token, rhs_slot is None))
    seeded = spec.name is None
    shape = (
        tuple(tokens),
        spec.include_low,
        spec.high is not None,
        spec.include_high,
        first_match,
        seeded,
    )
    cached = _SWEEP_CACHE.get(shape)
    if cached is not None:
        return cached

    # Position -> row through the candidate list (``lefts`` is by
    # position already); a name block is the identity list, so its
    # variant indexes the columns directly.
    row = "rows[{}]".format if seeded else "{}".format
    unpack, resolve, conds = [], [], []
    for k, (token, is_const) in enumerate(tokens):
        unpack.append(f"    c{k}, _o{k}, s{k}, p{k} = checks[{k}]")
        if is_const:
            resolve.append(f"        v{k} = p{k}")
        else:
            unpack.append(f"    b{k} = batch[s{k}]")
            resolve.append(f"        v{k} = p{k}[b{k}[i]]")
        conds.append(f"c{k}[{row('j')}] {token} v{k}")
    start = "low_val" if spec.include_low else "low_val + 1"
    if spec.high is None:
        limit = f"        limit = {_NO_LIMIT}"
    elif spec.include_high:
        limit = "        limit = high_arr[high_col[i]] + 1"
    else:
        limit = "        limit = high_arr[high_col[i]]"
    pad = "                " if conds else "            "
    emit = f"{pad}res_append({row('j')})\n{pad}src_append(i)\n"
    if first_match:
        emit += f"{pad}break\n"
    guard = f"            if {' and '.join(conds)}:\n" if conds else ""
    body = f"{guard}{emit}            j += 1"
    # The loop emits (source binding, candidate) index pairs; the caller
    # gathers them into replicated output columns with one C-level map
    # per slot — two list appends per match beat an extend/repeat pair
    # per binding for the typical 1-3 matches a binding produces.
    source = f"""\
def sweep(keyed, batch, rows, bounds, lefts, name, high_col, high_arr, checks, max_rows):
{chr(10).join(unpack) if unpack else '    pass'}
    src = []
    src_append = src.append
    res = []
    res_append = res.append
    current_tid = None
    truncated = False
    lo = hi = ptr = 0
    for tid_val, low_val, i in keyed:
        if tid_val != current_tid:
            if max_rows is not None and len(res) >= max_rows:
                truncated = True
                break
            current_tid = tid_val
            lo, hi = bounds.get((name, tid_val), (0, 0))
            ptr = lo
        start = {start}
        while ptr < hi and lefts[ptr] < start:
            ptr += 1
{limit}
{chr(10).join(resolve) if resolve else ''}
        j = ptr
        while j < hi and lefts[j] < limit:
{body}
    return src, res, truncated
"""
    namespace: dict = {}
    exec(source, namespace)  # tokens come from the fixed comparison set
    compiled = namespace["sweep"]
    _SWEEP_CACHE[shape] = compiled
    return compiled


# -- what every join step does with its matches -------------------------------


def python_take(column, src) -> array:
    """``column`` gathered through the index sequence ``src`` (one
    C-level map; the native backend swaps in a C gather)."""
    return array("q", map(column.__getitem__, src))


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
    compiler.

    The partition merged against is a *candidate list*: positions
    ``lo..hi`` per tree of a row-id sequence in ``(tid, left)`` order.  A
    named step's list is the identity over the store (a name block's
    positions are its rows); a value-seeded step's is ``seed.rows()``,
    the literal's element rows, resolved at the first execution.
    """

    def __init__(self, join, ctx, vector, binding, row, semi=(), seed=None) -> None:
        node, spec, store = join.node, join.spec, ctx.store
        self.slot = node.slot
        self.label = node.label
        self.access = node.access
        self.spec = spec
        self.binding = binding
        self.row = row
        self.semi = semi
        self.take = ctx.take
        self.vector_specs = vector
        # The flat generated loops and the native (cffi) kernel handle
        # exactly the same shapes — no binding prunes, no per-row
        # residuals, no or-self prepend — the kernel for all three
        # strategies when every column involved is a fixed-width integer
        # buffer.  Which of the two applies is the join skeleton's
        # verdict (``join.kinds`` / ``join.sweep_loops``: decided once
        # per plan, under the backend the plan cache keys on); only
        # column pointers are resolved here.
        self._native = None
        self._sweep_loops = join.sweep_loops   # indexed by first_match
        if join.kinds is not None:
            self._native = NativeMergeJoin(
                ctx.kern, spec, bind_checks(join.kinds, vector), store, seed
            )
            return  # the kernel reads the store itself
        self.seed = seed
        #: A name block's candidate list: (rows, per-tree bounds, ``left``
        #: by position) — positions are rows.
        self.block = (range(store.n), store.name_tid_bounds, store.left)
        self.lefts = store.left
        self.rights = store.right
        self.tids = store.tid
        self.names = store.names
        # Vector filters split by operand kind: constants bind once
        # here, binding-column comparisons resolve once per binding
        # inside pairs().
        self.const_checks = [
            (column, opf, payload)
            for column, opf, rhs_slot, payload in vector
            if rhs_slot is None
        ]
        self.col_checks = [check for check in vector if check[2] is not None]
        self.low_arr = None if spec.low is None else store.col(spec.low[1])
        self.high_arr = None if spec.high is None else store.col(spec.high[1])

    # -- candidate enumeration ------------------------------------------------

    def pairs(self, batch: list, cutoff: Optional[Cutoff] = None,
              first_match: bool = False):
        """``(src, cand)`` index/row pairs of every match; with
        ``first_match`` at most one — the first passing candidate — per
        input binding."""
        if self._native is not None:
            return self._native.pairs(batch, cutoff, first_match)
        src: list[int] = []
        res: list[int] = []
        count = len(batch[0]) if batch else 0
        if count == 0:
            return src, res
        spec = self.spec
        tids, tid_col = self.tids, batch[spec.tid_slot]
        if spec.strategy == SWEEP:
            key_slot, key_arr = spec.low[0], self.low_arr
        else:
            key_slot, key_arr = spec.high[0], self.high_arr
        key_col = batch[key_slot]
        # One C-level build-and-sort replaces per-binding binary searches.
        keyed = list(
            zip(
                map(tids.__getitem__, tid_col),
                map(key_arr.__getitem__, key_col),
                range(count),
            )
        )
        keyed.sort()
        rows, bounds, edges = (
            self.block if self.seed is None else self.seed.partition()
        )
        if spec.strategy == SWEEP:
            loop = self._sweep_loops[first_match]
            if loop is not None:
                high_col = None if spec.high is None else batch[spec.high[0]]
                src, res, truncated = loop(
                    keyed, batch, rows, bounds, edges,
                    spec.name, high_col, self.high_arr, self.vector_specs,
                    None if cutoff is None else cutoff.max_rows,
                )
                if truncated:
                    cutoff.hit = True
                return src, res
            run = self._run_sweep
        elif spec.strategy == STACK:
            run = self._run_stack
        else:
            run = self._run_prefix
        run(batch, keyed, rows, bounds, edges, src, res, cutoff, first_match)
        return src, res

    def _resolved_checks(self, batch, i):
        col_checks = self.col_checks
        if not col_checks:
            return self.const_checks
        return self.const_checks + [
            (column, opf, payload[batch[rhs_slot][i]])
            for column, opf, rhs_slot, payload in col_checks
        ]

    def _emit(self, batch, i, src, res, matched, first_match) -> None:
        """Record binding ``i``'s matched candidates, applying or-self
        and the residual per-row checks."""
        spec = self.spec
        if spec.self_slot is not None:
            self_row = batch[spec.self_slot][i]
            if self.names[self_row] == spec.self_name:
                checks = self._resolved_checks(batch, i)
                if all(opf(column[self_row], value) for column, opf, value in checks):
                    matched = [self_row] + matched
        if self.row and matched:
            b = [column[i] for column in batch]
            row_checks = self.row
            passing = (
                j for j in matched
                if all(check(b + [j]) for check in row_checks)
            )
            matched = list(islice(passing, 1) if first_match else passing)
        elif first_match:
            matched = matched[:1]
        if matched:
            res.extend(matched)
            src.extend(repeat(i, len(matched)))

    def _prune(self, batch, i) -> bool:
        """Binding-only conditions (no candidate column involved)."""
        checks = self.binding
        if not checks:
            return True
        b = [column[i] for column in batch]
        return all(check(b) for check in checks)

    def _run_sweep(self, batch, keyed, rows, bounds, edges, src, res, cutoff, first_match) -> None:
        spec = self.spec
        name = spec.name
        include_low, include_high = spec.include_low, spec.include_high
        high = spec.high
        high_arr = self.high_arr
        high_col = None if high is None else batch[high[0]]
        current_tid = None
        lo = hi = ptr = 0
        for tid_val, low_val, i in keyed:
            if not self._prune(batch, i):
                continue
            if tid_val != current_tid:
                if cutoff is not None and len(res) >= cutoff.max_rows:
                    cutoff.hit = True
                    break
                current_tid = tid_val
                lo, hi = bounds.get((name, tid_val), _EMPTY)
                ptr = lo
            start = low_val if include_low else low_val + 1
            while ptr < hi and edges[ptr] < start:
                ptr += 1
            if high is None:
                limit = _NO_LIMIT
            else:
                high_val = high_arr[high_col[i]]
                limit = high_val + 1 if include_high else high_val
            matched = self._scan(batch, i, rows, ptr, hi, limit)
            self._emit(batch, i, src, res, matched, first_match)

    def _scan(self, batch, i, rows, start, hi, limit) -> list:
        """Collect candidates from position ``start`` up to the span
        limit, running the pre-resolved comparisons inline (specialized
        for the common 0/1/2-condition shapes of a name block, whose
        positions are its rows, so the hot loop stays call-free)."""
        lefts = self.lefts
        checks = self._resolved_checks(batch, i)
        matched: list[int] = []
        append = matched.append
        if self.seed is not None:
            # Through a seed's list, positions name rows; not unrolled —
            # a seeded join only lands here with a per-row residual, or
            # for the stack and prefix strategies of the Python backend.
            for j in rows[start:hi]:
                if lefts[j] >= limit:
                    break
                if all(opf(column[j], value) for column, opf, value in checks):
                    append(j)
            return matched
        j = start
        n_checks = len(checks)
        if n_checks == 0:
            while j < hi and lefts[j] < limit:
                append(j)
                j += 1
        elif n_checks == 1:
            c0, o0, v0 = checks[0]
            while j < hi and lefts[j] < limit:
                if o0(c0[j], v0):
                    append(j)
                j += 1
        elif n_checks == 2:
            (c0, o0, v0), (c1, o1, v1) = checks
            while j < hi and lefts[j] < limit:
                if o0(c0[j], v0) and o1(c1[j], v1):
                    append(j)
                j += 1
        else:
            while j < hi and lefts[j] < limit:
                if all(opf(column[j], value) for column, opf, value in checks):
                    append(j)
                j += 1
        return matched

    def _run_stack(self, batch, keyed, rows, bounds, edges, src, res, cutoff, first_match) -> None:
        """Stack-tree ancestors: spans still open at the context's left
        edge are the only possible ancestors; each partition row is pushed
        once per tid group and popped once its span closes (spans are
        strict — ``right > left`` in both labeling schemes — so a span
        ending at the context edge can never contain it)."""
        spec = self.spec
        rights, name = self.rights, spec.name
        include_high = spec.include_high
        current_tid = None
        lo = hi = ptr = 0
        stack: list[int] = []
        push = stack.append
        for tid_val, edge, i in keyed:
            if not self._prune(batch, i):
                continue
            if tid_val != current_tid:
                if cutoff is not None and len(res) >= cutoff.max_rows:
                    cutoff.hit = True
                    break
                current_tid = tid_val
                lo, hi = bounds.get((name, tid_val), _EMPTY)
                ptr = lo
                del stack[:]
            limit = edge + 1 if include_high else edge
            while ptr < hi and edges[ptr] < limit:
                push(rows[ptr])
                ptr += 1
            while stack and rights[stack[-1]] <= edge:
                stack.pop()
            checks = self._resolved_checks(batch, i)
            matched = [
                j for j in stack
                if all(opf(column[j], value) for column, opf, value in checks)
            ]
            self._emit(batch, i, src, res, matched, first_match)

    def _run_prefix(self, batch, keyed, rows, bounds, edges, src, res, cutoff, first_match) -> None:
        spec = self.spec
        name = spec.name
        include_high = spec.include_high
        current_tid = None
        lo = hi = end = 0
        for tid_val, edge, i in keyed:
            if not self._prune(batch, i):
                continue
            if tid_val != current_tid:
                if cutoff is not None and len(res) >= cutoff.max_rows:
                    cutoff.hit = True
                    break
                current_tid = tid_val
                lo, hi = bounds.get((name, tid_val), _EMPTY)
                end = lo
            limit = edge + 1 if include_high else edge
            while end < hi and edges[end] < limit:
                end += 1
            matched = self._scan(batch, i, rows, lo, end, _NO_LIMIT)
            self._emit(batch, i, src, res, matched, first_match)

    def describe(self, first_match: bool = False) -> str:
        kernel = "native" if self._native is not None else "python"
        semi = f" semi={len(self.semi)}" if self.semi else ""
        return (
            f"StructuralMergeJoin(s{self.slot} <- {self.access}: {self.label}"
            f" | strategy={self.spec.strategy} kernel={kernel}"
            f" vector={len(self.vector_specs)}"
            f"{semi} row={len(self.row)}{' first_match' if first_match else ''})"
        )
