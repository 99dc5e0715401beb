"""Column-oriented storage for the label relation.

This module stores the relation ``node(tid, left, right, depth, id, pid,
name, value)`` as parallel arrays rather than row tuples:

* the six integer columns live in ``array('q')`` buffers, physically
  ordered by the paper's clustered key ``{name, tid, left, right, depth,
  id, pid}`` — so every clustered probe is a *contiguous range of row
  ids*, found by a dictionary lookup on ``(name, tid)`` plus two binary
  searches on the raw ``left`` array;
* ``name``/``value`` are interned-string columns;
* derived per-row bitmaps (``is_attr``, ``right_edge``) turn the
  element/attribute tests and LPath's root alignment (``$``) into plain
  array reads;
* secondary projections — a ``(tid, id)`` permutation for parent /
  attribute / whole-tree probes, a CSR-style ``(tid, pid)`` children
  index for wildcard child/parent steps, and per-value row lists for the
  ``[@attr = literal]`` seeds — are permutation arrays over the same
  columns, so no row is ever stored twice;
* per-name cardinality/partition/depth statistics (:class:`NameStats`)
  feed the optimizer's cost-based choice between per-binding probe joins
  and the structural merge joins of :mod:`repro.columnar.structural`.

Row ids index every column; a query binding is a short list of row ids
rather than a concatenation of 8-wide tuples.  The batch executor in
:mod:`repro.columnar.executor` consumes these primitives.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from collections import Counter
from itertools import compress, count, groupby, repeat
from operator import eq, itemgetter, not_, or_
from typing import Iterable, Iterator, NamedTuple, Optional

from ..faults import maybe_mmap_read_error
from ..labeling.lpath_scheme import ATTRIBUTE_PREFIX

#: Column positions, shared with :mod:`repro.plan.ir`.
T, L, R, D, I, P, N, V = range(8)

#: Default column names (the LPath relation; the start/end relation only
#: renames ``left``/``right`` to ``start``/``end`` — positions are equal).
COLUMN_NAMES = ("tid", "left", "right", "depth", "id", "pid", "name", "value")


class NameStats(NamedTuple):
    """Collected statistics for one name partition, feeding the
    optimizer's join cost model (:mod:`repro.plan.optimizer` /
    :mod:`repro.columnar.structural`)."""

    rows: int            # rows carrying the name across the corpus
    partitions: int      # distinct (name, tid) partitions
    max_partition: int   # rows in the largest per-tree partition
    min_depth: int       # shallowest occurrence (0 when absent)
    max_depth: int       # deepest occurrence (0 when absent)


def _gather(column, rows: list):
    """``column[row]`` for every row, in one C-level call."""
    if len(rows) < 2:  # itemgetter needs two keys to return a tuple
        return [column[row] for row in rows]
    return itemgetter(*rows)(column)


def _transpose(rows: list, width: int) -> tuple:
    """``rows`` as ``width`` column lists.  One C-level gather per
    column: ``zip(*rows)`` would allocate an iterator per row, and on a
    large heap the collections those allocations trigger cost more than
    the transpose itself."""
    return tuple(list(map(itemgetter(position), rows)) for position in range(width))


def _sorted_columns(rows, width: int) -> tuple:
    """``rows`` sorted, then transposed into ``width`` columns."""
    return _transpose(sorted(rows), width)


def run_bounds(keys) -> dict:
    """``key -> (lo, hi)`` for every run of equal adjacent ``keys``: on
    sorted keys, each key's one contiguous block."""
    bounds = {}
    hi = 0
    for key, run in groupby(keys):
        lo, hi = hi, hi + len(list(run))
        bounds[key] = (lo, hi)
    return bounds


def _key_name(item) -> str:
    """The name of one ``((name, tid), bounds)`` partition entry."""
    return item[0][0]


def _shift_into(target: dict, items, shift: int) -> None:
    """``target[key] = (lo + shift, hi + shift)`` for every ``(key, (lo,
    hi))`` of ``items``, in order."""
    for key, (lo, hi) in items:
        target[key] = (lo + shift, hi + shift)


def _string_slice(column, lo: int, hi: int):
    """Rows ``lo:hi`` of a string column, heap list or mapped."""
    if isinstance(column, StringColumn):
        return map(column.table.__getitem__, column.ids[lo:hi])
    return column[lo:hi]


class ColumnStore:
    """The label relation as clustered parallel arrays.

    Build with :meth:`from_rows` (any iterable of 8-tuples / ``Label``
    rows) or :meth:`concat` (tid-disjoint stores laid end to end); a
    compiled ``LPDB0004`` file is adopted zero-copy by
    :class:`MappedColumnStore` instead.
    """

    __slots__ = (
        "n",
        "tid",
        "left",
        "right",
        "depth",
        "id",
        "pid",
        "names",
        "values",
        "column_names",
        "is_attr",
        "right_edge",
        "root_right",
        "name_bounds",
        "name_tid_bounds",
        "tid_id_perm",
        "tid_bounds",
        "children_perm",
        "children_bounds",
        "_perm_ids",
        "_by_value",
        "_name_stats",
    )

    def __init__(
        self,
        tid: Iterable[int],
        left: Iterable[int],
        right: Iterable[int],
        depth: Iterable[int],
        id: Iterable[int],
        pid: Iterable[int],
        names: Iterable[str],
        values: Iterable[Optional[str]],
        column_names: tuple[str, ...] = COLUMN_NAMES,
    ) -> None:
        values = list(values)
        # Physical order: the clustered key {name, tid, left, right, depth,
        # id, pid}, so clustered probes are contiguous row-id ranges; the
        # trailing input position breaks ties stably.
        names, *integers, order = _sorted_columns(
            zip(names, tid, left, right, depth, id, pid, count()), 8
        )
        intern = {text: text for text in {*names, *values}}
        self.n = n = len(order)
        self.column_names = tuple(column_names)
        (self.tid, self.left, self.right,
         self.depth, self.id, self.pid) = (array("q", column) for column in integers)
        self.names = list(map(intern.__getitem__, names))
        self.values = list(map(intern.__getitem__, _gather(values, order)))

        self.name_bounds = run_bounds(self.names)
        self.name_tid_bounds = run_bounds(zip(self.names, self.tid))

        # Bitmaps: attribute rows are whole name blocks; a row is on the
        # right edge when it ends where its tree's root element ends.
        self.is_attr = is_attr = bytearray(n)
        for name, (lo, hi) in self.name_bounds.items():
            if name.startswith(ATTRIBUTE_PREFIX):
                is_attr[lo:hi] = b"\x01" * (hi - lo)
        roots = map(not_, map(or_, self.pid, is_attr))  # element rows, pid 0
        self.root_right = dict(compress(zip(self.tid, self.right), roots))
        self.right_edge = bytearray(
            map(eq, self.right, map(self.root_right.get, self.tid))
        )

        # The (tid, id) projection: row ids in (tid, id) order.
        tids, ids, perm = _sorted_columns(zip(self.tid, self.id, count()), 3)
        self.tid_id_perm = array("q", perm)
        self._perm_ids = array("q", ids)
        self.tid_bounds = run_bounds(tids)

        # CSR-style children offsets: rows grouped by (tid, pid) in span
        # order, so a node's children (element + attribute rows) are one
        # contiguous slice of a permutation array — the wildcard
        # child/parent steps become direct lookups, not whole-tree scans.
        tids, pids, _lefts, perm = _sorted_columns(
            zip(self.tid, self.pid, self.left, count()), 4
        )
        self.children_perm = array("q", perm)
        self.children_bounds = run_bounds(zip(tids, pids))
        self._by_value: Optional[dict] = None       # built on first value seed
        self._name_stats: dict[Optional[str], NameStats] = {}

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_rows(
        cls, rows: Iterable, column_names: tuple[str, ...] = COLUMN_NAMES
    ) -> "ColumnStore":
        """A row view over the columnar constructor: row tuples (or
        ``Label`` instances) transposed into the eight columns.  Trees
        need no rows: build ``ColumnStore(*label_columns(trees))``."""
        return cls(*_transpose(list(rows), 8), column_names=column_names)

    @staticmethod
    def concat(stores) -> "ColumnStore":
        """One heap store over the rows of tid-ascending, tid-disjoint
        ``stores`` (heap or mapped), equal field for field to
        :meth:`from_rows` over all their rows, built without a sort.

        Labels are assigned per tree and never relabelled (Definition
        4.1), so the clustered order ``{name, tid, left, …}`` of the union
        is each name block of the inputs laid end to end in input order:
        columns are block slices, bounds are shifted, the two
        permutations are remapped through each input's row → new position
        array, and per-name statistics fold (disjoint trees add
        partitions)."""
        stores = list(stores)
        column_names = stores[0].column_names if stores else COLUMN_NAMES
        stores = [store for store in stores if store.n]
        if not stores:
            return ColumnStore.from_rows((), column_names)
        last = None
        for store in stores:
            if last is not None and next(iter(store.tid_bounds)) <= last:
                raise ValueError("concat needs tid-ascending, tid-disjoint stores")
            last = next(reversed(store.tid_bounds))

        columns = tuple(array("q") for _ in range(6))
        names: list = []
        values: list = []
        is_attr, right_edge = bytearray(), bytearray()
        name_bounds: dict = {}
        name_tid_bounds: dict = {}
        moved = [array("q") for _ in stores]  # input row -> output row
        partitions = [
            groupby(store.name_tid_bounds.items(), key=_key_name)
            for store in stores
        ]
        raw = [  # the integer columns as bytes: a block is one slice each
            [memoryview(store.col(position)).cast("B") for position in range(6)]
            for store in stores
        ]
        row = 0
        for name in sorted(set().union(*(store.name_bounds for store in stores))):
            start = row
            for store, views, moves, parts in zip(stores, raw, moved, partitions):
                span = store.name_bounds.get(name)
                if span is None:
                    continue
                lo, hi = span
                for column, view in zip(columns, views):
                    column.frombytes(view[8 * lo:8 * hi])
                values.extend(_string_slice(store.values, lo, hi))
                is_attr += store.is_attr[lo:hi]
                right_edge += store.right_edge[lo:hi]
                _shift_into(name_tid_bounds, next(parts)[1], row - lo)
                moves.extend(range(row, row + hi - lo))
                row += hi - lo
            name_bounds[name] = (start, row)
            names.extend([name] * (row - start))

        tid_id_perm, perm_ids, children_perm = array("q"), array("q"), array("q")
        tid_bounds: dict = {}
        children_bounds: dict = {}
        root_right: dict = {}
        offset = 0
        for store, moves in zip(stores, moved):
            tid_id_perm.extend(map(moves.__getitem__, store.tid_id_perm))
            perm_ids.frombytes(memoryview(store._perm_ids).cast("B"))
            children_perm.extend(map(moves.__getitem__, store.children_perm))
            _shift_into(tid_bounds, store.tid_bounds.items(), offset)
            _shift_into(children_bounds, store.children_bounds.items(), offset)
            root_right.update(store.root_right)
            offset += store.n

        stats: dict = {}
        for name in (None, *name_bounds):
            rows, partitions, largest, shallowest, deepest = zip(*(
                store.name_stats(name) for store in stores
                if name is None or name in store.name_bounds
            ))
            stats[name] = NameStats(
                sum(rows), sum(partitions), max(largest),
                min(shallowest), max(deepest),
            )

        merged = ColumnStore.__new__(ColumnStore)
        merged.n = row
        merged.column_names = column_names
        (merged.tid, merged.left, merged.right,
         merged.depth, merged.id, merged.pid) = columns
        merged.names = names
        merged.values = values
        merged.is_attr = is_attr
        merged.right_edge = right_edge
        merged.root_right = root_right
        merged.name_bounds = name_bounds
        merged.name_tid_bounds = name_tid_bounds
        merged.tid_id_perm = tid_id_perm
        merged.tid_bounds = tid_bounds
        merged._perm_ids = perm_ids
        merged.children_perm = children_perm
        merged.children_bounds = children_bounds
        merged._by_value = None
        merged._name_stats = stats
        return merged

    def children_rows(self, tid: int, pid: int):
        """Rows whose parent is ``(tid, pid)`` in span order (attribute
        rows of the children included, exactly like a filtered tree scan)."""
        lo, hi = self.children_bounds.get((tid, pid), (0, 0))
        return self.children_perm[lo:hi]

    # -- column access -------------------------------------------------------

    def checkpoint(self, injector) -> None:
        """A read-fault checkpoint; heap arrays cannot fail to read."""

    def col(self, position: int):
        """The backing sequence for one column position."""
        return (
            self.tid, self.left, self.right, self.depth,
            self.id, self.pid, self.names, self.values,
        )[position]

    def column_ptr(self, position: int):
        """``(raw pointer, length)`` over one integer column for the
        native kernels — zero-copy for both heap arrays and the mmap
        views of a :class:`MappedColumnStore`, where the C side reads
        page-cache memory directly.  Raises ``TypeError`` for the string
        columns, ``RuntimeError`` when the cffi extension is unavailable,
        and ``ValueError`` once the owning corpus released its views.
        The pointer pins the underlying buffer: drop it before closing a
        mapped corpus, or ``close()`` raises ``BufferError``."""
        from .kernels.api import column_pointer

        return column_pointer(self.col(position), self.n)

    def iter_rows(self) -> Iterator[tuple]:
        """Yield plain row tuples in clustered order."""
        cols = tuple(self.col(position) for position in range(8))
        for row in range(self.n):
            yield tuple(column[row] for column in cols)

    def __len__(self) -> int:
        return self.n

    # -- clustered probes ----------------------------------------------------

    def name_block(self, name: str) -> range:
        """Row ids carrying ``name`` (the clustered name partition)."""
        lo, hi = self.name_bounds.get(name, (0, 0))
        return range(lo, hi)

    def name_tid_block(self, name: str, tid: int) -> tuple[int, int]:
        """The per-tree partition of one name block."""
        return self.name_tid_bounds.get((name, tid), (0, 0))

    def clustered_range(
        self,
        name: str,
        tid: int,
        low: Optional[int],
        high: Optional[int],
        include_low: bool = True,
        include_high: bool = True,
    ) -> range:
        """Rows of ``(name, tid)`` whose ``left`` falls in the bound range —
        two binary searches over the raw ``left`` array."""
        lo, hi = self.name_tid_bounds.get((name, tid), (0, 0))
        if lo == hi:
            return range(0, 0)
        lefts = self.left
        if low is not None:
            lo = (bisect_left if include_low else bisect_right)(lefts, low, lo, hi)
        if high is not None:
            hi = (bisect_right if include_high else bisect_left)(lefts, high, lo, hi)
        return range(lo, hi)

    # -- (tid, id) probes ----------------------------------------------------

    def tid_rows(self, tid: int):
        """All rows of one tree, ordered by ``id`` (an array of row ids)."""
        lo, hi = self.tid_bounds.get(tid, (0, 0))
        return self.tid_id_perm[lo:hi]

    def tid_id_rows(self, tid: int, node_id: int):
        """Rows with the exact ``(tid, id)`` (element + attribute rows)."""
        lo, hi = self.tid_bounds.get(tid, (0, 0))
        if lo == hi:
            return ()
        ids = self._perm_ids
        start = bisect_left(ids, node_id, lo, hi)
        end = bisect_right(ids, node_id, start, hi)
        return self.tid_id_perm[start:end]

    # -- value seeds ---------------------------------------------------------

    @property
    def by_value(self) -> dict:
        """``value -> (tids, row ids)`` over attribute rows, ordered by
        ``(tid, id)`` — the columnar twin of the ``{value, tid, id}``
        index.  Built on first use."""
        if self._by_value is None:
            self._by_value = self._build_by_value()
        return self._by_value

    def _value_keys(self):
        """``(per-row grouping key, key -> value string)`` for the value
        index: heap values are interned strings, their own keys."""
        return self.values, lambda value: value

    def _build_by_value(self) -> dict:
        """One pass over the attribute rows in ``(tid, id)`` order,
        grouped on :meth:`_value_keys` so a mapped store touches each
        distinct string once instead of once per row; the per-row work
        is column gathers, not interpreted lookups."""
        keys, resolve = self._value_keys()
        perm = self.tid_id_perm.tolist()
        rows = list(compress(perm, _gather(bytes(self.is_attr), perm)))
        groups: dict = {}
        for key, row in zip(_gather(keys, rows), rows):
            group = groups.get(key)
            if group is None:
                groups[key] = [row]
            else:
                group.append(row)
        tids = self.tid
        table: dict[str, tuple[array, array]] = {}
        for key, group in groups.items():
            value = resolve(key)
            if value is not None:
                table[value] = (array("q", _gather(tids, group)), array("q", group))
        return table

    def value_rows(self, literal: str, tid: Optional[int] = None):
        """Attribute rows whose value equals ``literal`` (optionally within
        one tree), ordered by ``(tid, id)``."""
        entry = self.by_value.get(literal)
        if entry is None:
            return ()
        tids, rows = entry
        if tid is None:
            return rows
        lo = bisect_left(tids, tid)
        hi = bisect_right(tids, tid, lo)
        return rows[lo:hi]

    def frequency(self, name: Optional[str]) -> int:
        """Rows carrying ``name`` (store size for the wildcard)."""
        if name is None:
            return self.n
        lo, hi = self.name_bounds.get(name, (0, 0))
        return hi - lo

    # -- statistics -----------------------------------------------------------

    def tree_count(self) -> int:
        """Distinct trees in the store."""
        return len(self.tid_bounds)

    def size(self) -> int:
        """Total rows (the catalog-protocol spelling of ``len``)."""
        return self.n

    def name_stats(self, name: Optional[str]) -> NameStats:
        """Per-name cardinality/partition/depth statistics for the join
        cost model; C-level scans of the name block, cached per name
        (``None`` summarizes the whole store)."""
        cached = self._name_stats.get(name)
        if cached is not None:
            return cached
        if name is None:
            lo, hi = 0, self.n
            partitions = len(self.tid_bounds)
            max_partition = max(
                (bounds[1] - bounds[0] for bounds in self.tid_bounds.values()),
                default=0,
            )
        else:
            lo, hi = self.name_bounds.get(name, (0, 0))
            sizes = Counter(self.tid[lo:hi]).values()  # rows per tree
            partitions = len(sizes)
            max_partition = max(sizes, default=0)
        if lo == hi:
            stats = NameStats(0, 0, 0, 0, 0)
        else:
            depths = self.depth[lo:hi]
            stats = NameStats(
                hi - lo, partitions, max_partition, min(depths), max(depths)
            )
        self._name_stats[name] = stats
        return stats

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ColumnStore rows={self.n} names={len(self.name_bounds)}>"


# -- zero-copy adoption of an LPDB0004 segment ---------------------------------


class StringColumn:
    """A lazy string column: an int64 id view over the mapped file plus
    the decoded string table.  Rows resolve on access, so adopting the
    column is O(1) instead of an O(rows) list build; repeated lookups of
    one row return the *same* table entry (interning for free)."""

    __slots__ = ("ids", "table")

    def __init__(self, ids, table: list) -> None:
        self.ids = ids
        self.table = table

    def __getitem__(self, row: int):
        return self.table[self.ids[row]]

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self):
        table = self.table
        return (table[index] for index in self.ids)


class PartitionBounds:
    """The ``(name, tid) -> (row lo, row hi)`` mapping of a mapped store,
    answered from the sidecar's name directory plus two int64 views
    (partition tids and row starts, in clustered order) — a dict lookup
    and one binary search instead of an O(partitions) dict build at open.
    Implements the read surface the executor and the structural joins use
    (``get``/``[]``/``in``)."""

    __slots__ = ("_name_dir", "_tids", "_starts", "_n")

    def __init__(self, name_dir: dict, tids, starts, n: int) -> None:
        self._name_dir = name_dir   # name -> (part lo, part hi, row hi)
        self._tids = tids
        self._starts = starts
        self._n = n

    def _lookup(self, key):
        name, tid = key
        span = self._name_dir.get(name)
        if span is None:
            return None
        part_lo, part_hi, _row_hi = span
        tids = self._tids
        index = bisect_left(tids, tid, part_lo, part_hi)
        if index == part_hi or tids[index] != tid:
            return None
        starts = self._starts
        start = starts[index]
        end = starts[index + 1] if index + 1 < len(starts) else self._n
        return start, end

    def get(self, key, default=None):
        bounds = self._lookup(key)
        return default if bounds is None else bounds

    def __getitem__(self, key):
        bounds = self._lookup(key)
        if bounds is None:
            raise KeyError(key)
        return bounds

    def __contains__(self, key) -> bool:
        return self._lookup(key) is not None

    def items(self):
        """Every ``((name, tid), (row lo, row hi))`` in clustered order."""
        tids, starts = self._tids, self._starts
        ends = [*starts[1:], self._n]
        for name, (lo, hi, _row_hi) in self._name_dir.items():
            yield from zip(
                zip(repeat(name), tids[lo:hi]), zip(starts[lo:hi], ends[lo:hi])
            )


class ChildrenBounds:
    """The ``(tid, pid) -> (slot lo, slot hi)`` mapping over a mapped
    store's children permutation: a per-tree group directory plus two
    int64 views (group pids and slot starts)."""

    __slots__ = ("_tid_dir", "_pids", "_starts")

    def __init__(self, tid_dir: dict, pids, starts) -> None:
        self._tid_dir = tid_dir     # tid -> (group lo, group hi)
        self._pids = pids
        self._starts = starts

    def get(self, key, default=None):
        tid, pid = key
        span = self._tid_dir.get(tid)
        if span is None:
            return default
        group_lo, group_hi = span
        pids = self._pids
        index = bisect_left(pids, pid, group_lo, group_hi)
        if index == group_hi or pids[index] != pid:
            return default
        return self._starts[index], self._starts[index + 1]

    def __getitem__(self, key):
        bounds = self.get(key)
        if bounds is None:
            raise KeyError(key)
        return bounds

    def __contains__(self, key) -> bool:
        return self.get(key) is not None

    def items(self):
        """Every ``((tid, pid), (slot lo, slot hi))`` in ``(tid, pid)``
        order."""
        pids, starts = self._pids, self._starts
        for tid, (lo, hi) in self._tid_dir.items():
            yield from zip(
                zip(repeat(tid), pids[lo:hi]), zip(starts[lo:hi], starts[lo + 1:hi + 1])
            )


class MappedColumnStore(ColumnStore):
    """A :class:`ColumnStore` adopted zero-copy from one segment of an
    ``LPDB0004`` file (:class:`repro.store.MappedSegment`).

    Nothing is decoded, sorted or scanned: the integer columns and the
    derived permutations/bitmaps are ``memoryview``\\ s straight off the
    ``mmap``, the string columns resolve through the sidecar's table
    lazily, the partition/children bounds answer from sidecar directories
    plus binary search, and every :class:`NameStats` the cost model asks
    for was collected at save time — open cost is O(names + trees), not
    O(rows).  Closing the owning :class:`~repro.store.MappedCorpus`
    releases the views; a store used after that raises ``ValueError``."""

    __slots__ = ()

    def __init__(
        self, segment, column_names: tuple[str, ...] = COLUMN_NAMES
    ) -> None:
        self.n = segment.n
        self.column_names = tuple(column_names)
        self.tid = segment.tid
        self.left = segment.left
        self.right = segment.right
        self.depth = segment.depth
        self.id = segment.id
        self.pid = segment.pid
        table = segment.table
        self.names = StringColumn(segment.name_ids, table)
        self.values = StringColumn(segment.value_ids, table)
        self.is_attr = segment.is_attr
        self.right_edge = segment.right_edge
        self.root_right = segment.root_right
        self.tid_id_perm = segment.tid_id_perm
        self._perm_ids = segment.perm_ids
        self.tid_bounds = segment.tid_bounds
        self.children_perm = segment.children_perm
        self.children_bounds = ChildrenBounds(
            segment.child_tid_dir, segment.child_pids, segment.child_starts
        )

        name_bounds: dict[str, tuple[int, int]] = {}
        name_dir: dict[str, tuple[int, int, int]] = {}
        stats: dict[Optional[str], NameStats] = {}
        for name, lo, hi, part_lo, part_hi, collected in segment.name_entries:
            name_bounds[name] = (lo, hi)
            name_dir[name] = (part_lo, part_hi, hi)
            stats[name] = NameStats(*collected)
        self.name_bounds = name_bounds
        self.name_tid_bounds = PartitionBounds(
            name_dir, segment.part_tids, segment.part_starts, self.n
        )
        stats[None] = NameStats(*segment.store_stats)
        self._name_stats = stats
        self._by_value = None

    def _value_keys(self):
        """Group on the interned string ids; ``table[0]`` is ``None``."""
        return self.values.ids, self.values.table.__getitem__

    # -- fault checkpoint ------------------------------------------------------
    #
    # The mapped store is the one physical layer whose reads can fail at
    # query time (the mapping is page-cache memory over a file another
    # process — or a dying disk — may invalidate).  Every physical plan
    # step passes one ``mmap_read_error`` checkpoint when it is bound to
    # this store and one each time it runs, so the serving layer's
    # classify-and-quarantine path can be driven deterministically; the
    # caller resolves ``REPRO_FAULTS`` once per compile/execute, so with
    # it unset a checkpoint is one ``is None`` test per plan step (never
    # per column fetch, never per row).

    def checkpoint(self, injector) -> None:
        maybe_mmap_read_error(injector)
