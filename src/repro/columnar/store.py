"""Column-oriented storage for the label relation.

This module stores the relation ``node(tid, left, right, depth, id, pid,
name, value)`` as parallel arrays rather than row tuples:

* the six integer columns are int64 buffers, physically ordered by the
  paper's clustered key ``{name, tid, left, right, depth, id, pid}`` — so
  every clustered probe is a *contiguous range of row ids*, found by a
  name-directory lookup plus binary searches over the partition tids and
  the raw ``left`` column;
* ``name``/``value`` are :class:`StringColumn`\\ s: int64 ids into one
  string table;
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

One layout, two buffer owners: every store *is* one ``LPDB0004``
segment (:class:`repro.store.MappedSegment` — 17 blobs plus the sidecar
record of directories, string table and collected statistics).  A store
opened from a file adopts ``memoryview``\\ s off the ``mmap``; a store
built in memory (from label columns, :meth:`~ColumnStore.from_rows`,
:meth:`~ColumnStore.concat`) owns the ``array('q')``/``bytearray``
buffers its build laid out, which the file writer writes as they are.
A build is stable lexicographic argsorts, gathers and run-start scans:
the native kernels when ``REPRO_KERNELS`` resolves to them, else their
pure-Python twins here, byte for byte the same.

Row ids index every column; a query binding is a short list of row ids
rather than a concatenation of 8-wide tuples.  The batch executor in
:mod:`repro.columnar.executor` consumes these primitives.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from functools import partial
from itertools import compress, count, repeat
from operator import eq, itemgetter, ne, not_, or_, sub
from typing import Iterable, Optional

from ..faults import maybe_mmap_read_error
from ..labeling.lpath_scheme import ATTRIBUTE_PREFIX
from ..lpath.functions import as_float
from ..store import MappedSegment, MmapSegmentMeta, NameStats
from .kernels.api import active_kernels

#: Column positions, shared with :mod:`repro.plan.ir`.
T, L, R, D, I, P, N, V = range(8)

#: Default column names (the LPath relation; the start/end relation only
#: renames ``left``/``right`` to ``start``/``end`` — positions are equal).
COLUMN_NAMES = ("tid", "left", "right", "depth", "id", "pid", "name", "value")


_NO_STATS = NameStats(0, 0, 0, 0, 0)


def _gather(column, rows) -> tuple:
    """``column[row]`` for every row, in one C-level call."""
    if len(rows) < 2:  # itemgetter needs two keys to return a tuple
        return tuple(column[row] for row in rows)
    return itemgetter(*rows)(column)


def _transpose(rows: list) -> tuple:
    """Label ``rows`` as six int64 columns and the name and value lists,
    one C-level gather per column (``zip(*rows)`` would allocate an
    iterator per row, and on a large heap its collections cost more)."""
    columns = [map(itemgetter(position), rows) for position in range(8)]
    return (*map(partial(array, "q"), columns[:6]), *map(list, columns[6:]))


# -- the build: label columns -> one LPDB0004 segment --------------------------
#
# Three primitives do the O(rows) work; the native kernels implement them
# in C (``repro_argsort``, ``repro_run_starts``, ``repro_gather``) and
# these are their pure-Python twins.


def python_argsort(keys) -> array:
    """Row positions ordered by the ``keys`` columns, ties in position
    order."""
    return array("q", map(itemgetter(-1), sorted(zip(*keys, count()))))


def python_run_starts(keys) -> array:
    """The positions where a run of equal ``keys`` rows starts."""
    rows = list(zip(*keys))
    return array("q", compress(count(), map(ne, [None, *rows], rows)))


def python_take(column, src) -> array:
    """``column`` gathered through the index sequence ``src`` (one
    C-level map; the native backend swaps in a C gather)."""
    return array("q", map(column.__getitem__, src))


def _build_ops() -> tuple:
    """``(argsort, run_starts, take)`` of the resolved kernel backend."""
    kern = active_kernels()
    if kern is None:
        return python_argsort, python_run_starts, python_take
    return kern.argsort, kern.run_starts, kern.take


def _directory(run_starts, keys, end: int) -> list:
    """``(key, run end)`` for every run of equal sorted ``keys``."""
    starts = run_starts([keys])
    return list(zip(map(keys.__getitem__, starts), [*starts[1:], end]))


def _build_segment(tid, left, right, depth, id, pid, names, values) -> MappedSegment:
    """Sort label columns (the integer ones ``array('q')``\\ s, used as
    they are) into the clustered order and lay them out as one segment.
    Names sort by their rank among the distinct names, so the clustered
    key is all int64; each rank is also the name's string id."""
    argsort, run_starts, take = ops = _build_ops()
    distinct = sorted(set(names))
    name_keys = array("q", map(dict(zip(distinct, count(1))).__getitem__, names))
    integers = [tid, left, right, depth, id, pid]
    order = argsort([name_keys, *integers])
    clustered = [take(column, order) for column in integers]
    tid, left, _right, _depth, id, pid = clustered
    return _segment(
        ops, clustered, take(name_keys, order), distinct,
        _gather(values, order),
        argsort([tid, id]), argsort([tid, pid, left]),
    )


def _segment(ops, columns, name_ids, names, values,
             tid_id_perm, children_perm) -> MappedSegment:
    """The segment over clustered ``columns``: ``name_ids`` index the
    sorted distinct ``names`` (from 1), ``values`` are the value strings
    in clustered order, and the two permutations are already sorted; the
    rest — string table, bitmaps, directories, statistics — derives from
    these."""
    _argsort, run_starts, take = ops
    tid, _left, right, depth, ids, pid = columns
    n = len(tid)
    # The 1-based string table: the names (in clustered order, so sorted),
    # then the values in first-occurrence order; id 0 is "no value".
    table = dict.fromkeys(names)
    table.update(dict.fromkeys(values))
    table.pop(None, None)
    strings = list(table)
    string_ids = dict(zip([None, *strings], count()))
    value_ids = array("q", map(string_ids.__getitem__, values))

    name_starts = run_starts([name_ids])
    part_starts = run_starts([name_ids, tid])
    sizes = list(map(sub, [*part_starts[1:], n], part_starts))
    is_attr = bytearray(n)
    names_meta = []
    part_hi = 0
    for sid, name, lo, hi in zip(count(1), names, name_starts, [*name_starts[1:], n]):
        if name.startswith(ATTRIBUTE_PREFIX):
            is_attr[lo:hi] = b"\x01" * (hi - lo)
        part_lo, part_hi = part_hi, bisect_left(part_starts, hi, part_hi)
        depths = depth[lo:hi]
        names_meta.append((
            sid, hi, part_hi, max(sizes[part_lo:part_hi]), min(depths), max(depths),
        ))

    # A row is on the right edge when it ends where its tree's root
    # element (pid 0) ends.
    roots = map(not_, map(or_, pid, is_attr))
    root_right = dict(compress(zip(tid, right), roots))
    right_edge = bytearray(map(eq, right, map(root_right.get, tid)))

    tid_dir = _directory(run_starts, take(tid, tid_id_perm), n)
    child_tids = take(tid, children_perm)
    child_pids = take(pid, children_perm)
    group_starts = run_starts([child_tids, child_pids])
    tree_ends = [hi for _tid, hi in tid_dir]
    store_stats = (
        n, len(tid_dir), max(map(sub, tree_ends, [0, *tree_ends])),
        min(depth), max(depth),
    ) if n else (0, 0, 0, 0, 0)
    child_tid_dir = _directory(
        run_starts, take(child_tids, group_starts), len(group_starts)
    )
    meta = MmapSegmentMeta(
        n, strings, [], sorted(root_right.items()), tid_dir, child_tid_dir,
        store_stats, names_meta,
    )
    return MappedSegment(meta, [
        *columns, name_ids, value_ids,
        tid_id_perm, take(ids, tid_id_perm), children_perm,
        is_attr, right_edge,
        take(tid, part_starts), part_starts,
        take(child_pids, group_starts), group_starts + array("q", [n]),
    ])


class ColumnStore:
    """The label relation as clustered parallel arrays: one adopted
    ``LPDB0004`` segment.

    Build with ``ColumnStore(*label_columns(trees))``, :meth:`from_rows`
    (any iterable of 8-tuples / ``Label`` rows) or :meth:`concat`
    (tid-disjoint stores laid end to end); a compiled ``LPDB0004`` file's
    segments are adopted zero-copy by :meth:`adopt`.
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
        "segment",
        "_perm_ids",
        "_by_value",
        "_seeds",
        "_name_stats",
    )

    def __init__(self, tid: array, left: array, right: array, depth: array,
                 id: array, pid: array, names: list, values: list,
                 column_names: tuple[str, ...] = COLUMN_NAMES) -> None:
        self._adopt(_build_segment(tid, left, right, depth, id, pid, names,
                                   values), column_names)

    # -- constructors --------------------------------------------------------

    @classmethod
    def adopt(
        cls, segment: MappedSegment, column_names: tuple[str, ...] = COLUMN_NAMES
    ) -> "ColumnStore":
        """The store over one segment's buffers, as they are."""
        store = cls.__new__(cls)
        store._adopt(segment, column_names)
        return store

    def _adopt(self, segment: MappedSegment, column_names: tuple[str, ...]) -> None:
        """Nothing is decoded, sorted or scanned: the integer columns and
        the derived permutations/bitmaps are the segment's buffers, the
        string columns resolve through its table lazily, the partition /
        children bounds answer from its directories plus binary search,
        and every :class:`NameStats` was collected at build — adoption is
        O(names + trees), not O(rows)."""
        self.segment = segment
        self.n = segment.n
        self.column_names = tuple(column_names)
        (self.tid, self.left, self.right, self.depth, self.id, self.pid,
         name_ids, value_ids, self.tid_id_perm, self._perm_ids,
         self.children_perm, self.is_attr, self.right_edge,
         part_tids, part_starts, child_pids, child_starts) = segment.buffers
        self.names = StringColumn(name_ids, segment.table)
        self.values = StringColumn(value_ids, segment.table)
        self.root_right = segment.root_right
        self.tid_bounds = segment.tid_bounds
        self.name_bounds = segment.name_bounds
        self.name_tid_bounds = GroupBounds(
            segment.name_dir, part_tids, part_starts, self.n
        )
        self.children_bounds = GroupBounds(
            segment.child_tid_dir, child_pids, child_starts, self.n
        )
        self._name_stats = segment.name_stats
        self._by_value = None
        self._seeds = {}

    @classmethod
    def from_rows(
        cls, rows: Iterable, column_names: tuple[str, ...] = COLUMN_NAMES
    ) -> "ColumnStore":
        """The one rows → store entry point, for hand-written rows and
        the references: row tuples (or ``Label`` instances) transposed
        into the eight columns.  Trees need no rows: build
        ``ColumnStore(*label_columns(trees))``."""
        return cls(*_transpose(list(rows)), column_names=column_names)

    @staticmethod
    def concat(stores) -> "ColumnStore":
        """One store over the rows of tid-ascending, tid-disjoint
        ``stores`` (built or mapped), equal field for field to
        :meth:`from_rows` over all their rows, built without a sort.

        Labels are assigned per tree and never relabelled (Definition
        4.1), so the clustered order ``{name, tid, left, …}`` of the union
        is each name block of the inputs laid end to end in input order,
        and the two permutations are each input's remapped through its
        row → new position array, laid end to end in input order; the
        directories, bitmaps and statistics derive from those."""
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

        ops = _build_ops()
        take = ops[2]
        columns = tuple(array("q") for _ in range(6))
        name_ids = array("q")
        values: list = []
        moved = [array("q") for _ in stores]  # input row -> output row
        raw = [  # the integer columns as bytes: a block is one slice each
            [memoryview(store.col(position)).cast("B") for position in range(6)]
            for store in stores
        ]
        names = sorted(set().union(*(store.name_bounds for store in stores)))
        row = 0
        for sid, name in enumerate(names, 1):
            start = row
            for store, views, moves in zip(stores, raw, moved):
                span = store.name_bounds.get(name)
                if span is None:
                    continue
                lo, hi = span
                for column, view in zip(columns, views):
                    column.frombytes(view[8 * lo:8 * hi])
                strings = store.values
                values += map(strings.table.__getitem__, strings.ids[lo:hi])
                moves.extend(range(row, row + hi - lo))
                row += hi - lo
            name_ids.extend(repeat(sid, row - start))
        tid_id_perm, children_perm = array("q"), array("q")
        for store, moves in zip(stores, moved):
            tid_id_perm += take(moves, store.tid_id_perm)
            children_perm += take(moves, store.children_perm)
        return ColumnStore.adopt(
            _segment(ops, columns, name_ids, names, values,
                     tid_id_perm, children_perm),
            column_names,
        )

    def children_rows(self, tid: int, pid: int):
        """Rows whose parent is ``(tid, pid)`` in span order (attribute
        rows of the children included, exactly like a filtered tree scan)."""
        lo, hi = self.children_bounds.get((tid, pid), (0, 0))
        return self.children_perm[lo:hi]

    # -- column access -------------------------------------------------------

    # The mapped store is the one physical layer whose reads can fail at
    # query time (the mapping is page-cache memory over a file another
    # process — or a dying disk — may invalidate).  Every physical plan
    # step passes one ``mmap_read_error`` checkpoint when it is bound to
    # such a store and one each time it runs, so the serving layer's
    # classify-and-quarantine path can be driven deterministically; the
    # caller resolves ``REPRO_FAULTS`` once per compile/execute, so with
    # it unset a checkpoint is one ``is None`` test per plan step (never
    # per column fetch, never per row).  Heap buffers cannot fail to read.

    def checkpoint(self, injector) -> None:
        if self.segment.mapped:
            maybe_mmap_read_error(injector)

    def col(self, position: int):
        """The backing sequence for one column position."""
        return (
            self.tid, self.left, self.right, self.depth,
            self.id, self.pid, self.names, self.values,
        )[position]

    def column_ptr(self, position: int):
        """``(raw pointer, length)`` over one integer column for the
        native kernels — zero-copy for both heap arrays and the mmap
        views of a mapped store, where the C side reads
        page-cache memory directly.  Raises ``TypeError`` for the string
        columns, ``RuntimeError`` when the cffi extension is unavailable,
        and ``ValueError`` once the owning corpus released its views.
        The pointer pins the underlying buffer: drop it before closing a
        mapped corpus, or ``close()`` raises ``BufferError``."""
        from .kernels.api import column_pointer

        return column_pointer(self.col(position), self.n)

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

    def _build_by_value(self) -> dict:
        """One pass over the attribute rows in ``(tid, id)`` order,
        grouped on the string ids so each distinct string is resolved
        once instead of once per row; the per-row work is column
        gathers, not interpreted lookups."""
        keys, table = self.values.ids, self.values.table
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
        found: dict[str, tuple[array, array]] = {}
        for key, group in groups.items():
            value = table[key]
            if value is not None:
                found[value] = (array("q", _gather(tids, group)), array("q", group))
        return found

    def seed(self, attr: str, literal, name_test: Optional[str]) -> tuple:
        """``(rows, bounds, lefts)`` of ``[@attr = literal]``: the element
        rows (named ``name_test`` unless it is ``None``) by ``(tid,
        left)``, each tree's positions in them as ``(None, tid) -> (lo,
        hi)`` and their ``left`` column.  A string matches a value as
        written, a number (a float) every value ``number()`` reads as it.
        The store keeps an answer that holds rows, so the map never
        outgrows its attribute rows."""
        key = (attr, literal, name_test)
        found = self._seeds.get(key)
        if found is not None:
            return found
        by_value, values = self.by_value, (literal,)
        if not isinstance(literal, str):
            values = [value for value in by_value if as_float(value) == literal]
        names, tids, ids, lefts = self.names, self.tid, self.id, self.left
        rows = sorted((
            element
            for value in values if value in by_value
            for attr_row in by_value[value][1] if names[attr_row] == attr
            for element in self.tid_id_rows(tids[attr_row], ids[attr_row])
            if not self.is_attr[element] and name_test in (None, names[element])
        ), key=lambda row: (tids[row], lefts[row], row))
        bounds: dict = {}
        for position, row in enumerate(rows):
            lo, _hi = bounds.get((None, tids[row]), (position, 0))
            bounds[None, tids[row]] = (lo, position + 1)
        found = (array("q", rows), bounds, python_take(lefts, rows))
        if rows:
            self._seeds[key] = found
        return found

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
        cost model, collected at build (``None`` summarizes the whole
        store)."""
        return self._name_stats.get(name, _NO_STATS)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ColumnStore rows={self.n} names={len(self.name_bounds)}>"


class StringColumn:
    """A lazy string column: an int64 id buffer plus the segment's
    string table.  Rows resolve on access, so adopting the column is O(1)
    instead of an O(rows) list build; repeated lookups of one row return
    the *same* table entry (interning for free)."""

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


class GroupBounds:
    """``(key, sub key) -> (lo, hi)`` over sorted groups: a directory
    ``key -> (first group, end group)``, the groups' sub keys (ascending
    within one key) and their start offsets; a group ends where the next
    one starts, the last one at ``end``.  It answers the ``(name, tid)``
    partitions of the clustered order and the ``(tid, pid)`` groups of
    the children permutation with a dict lookup and one binary search,
    and implements the read surface the executor and the structural
    joins use (``get``/``[]``/``in``/``items``)."""

    __slots__ = ("_directory", "_keys", "_starts", "_end")

    def __init__(self, directory: dict, keys, starts, end: int) -> None:
        self._directory = directory
        self._keys = keys
        self._starts = starts
        self._end = end

    def get(self, key, default=None):
        outer, inner = key
        span = self._directory.get(outer)
        if span is None:
            return default
        lo, hi = span
        keys = self._keys
        index = bisect_left(keys, inner, lo, hi)
        if index == hi or keys[index] != inner:
            return default
        starts = self._starts
        following = index + 1
        return starts[index], (
            starts[following] if following < len(starts) else self._end
        )

    def __getitem__(self, key):
        bounds = self.get(key)
        if bounds is None:
            raise KeyError(key)
        return bounds

    def __contains__(self, key) -> bool:
        return self.get(key) is not None

    def items(self):
        """Every ``((key, sub key), (lo, hi))``, in group order."""
        keys, starts = self._keys, self._starts
        ends = [*starts[1:], self._end]
        for outer, (lo, hi) in self._directory.items():
            yield from zip(
                zip(repeat(outer), keys[lo:hi]), zip(starts[lo:hi], ends[lo:hi])
            )
