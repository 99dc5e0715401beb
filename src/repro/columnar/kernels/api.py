"""Backend dispatch and marshalling for the native columnar kernels.

The public surface the engine integrates against:

* :func:`kernel_mode` / :func:`kernels_backend` — parse and resolve the
  ``REPRO_KERNELS`` environment knob (``auto`` | ``native`` | ``python``,
  default ``auto``).  ``auto`` uses the cffi extension when it imports or
  builds, and silently stays pure-Python otherwise; ``native`` raises
  when the extension is unavailable (so a differential run can never
  silently cross backends); ``python`` never touches the extension.
  The resolved backend participates in the plan-cache key.
* :func:`classify_checks` / :func:`bind_checks` — validate a plan's
  residual conditions for the C side once, by column position, and
  resolve them to one store's buffers per bind.  The native path covers
  exactly the shapes the generated sweep covers (no binding prunes, no
  per-row residuals, no or-self prepend) for all three strategies, with
  every residual condition over fixed-width integer buffers.
* :class:`NativeMergeJoin`, :class:`NativeRangeFilter` — the marshalling
  plans for a merge join and the scan-side filter over a contiguous
  row-id range; ``NativeKernels.take`` / ``.distinct`` — the per-step
  gather through a join's source-index array and a semi-join's
  reduction of surviving ordinals; ``NativeKernels.emit_pairs`` /
  ``.merge_pairs`` — a finished batch's result slot to packed distinct
  sorted ``(tid, id)`` pairs, and the sorted disjoint k-way merge of
  such arrays across segments; ``NativeKernels.encode_pairs`` — such an
  array as the JSON bytes of its pairs, for the serving layer
  (:mod:`repro.columnar.result` holds the pure-Python twins).  The
  executor reaches the others through the bundle its compile resolved
  once (``Knobs.kern``);
* ``NativeKernels.argsort`` / ``.run_starts`` with ``.take`` — the store
  build: the stable lexicographic argsort that puts rows in clustered
  (and ``(tid, id)``, children) order, and the run-start scan that turns
  sorted keys into partition and tree directories
  (:mod:`repro.columnar.store` holds the pure-Python twins).
* :func:`column_pointer` / ``ColumnStore.column_ptr`` — raw
  ``(pointer, length)`` access to a column buffer for the C side.

Lifecycle rule: every ``ffi.from_buffer`` cdata is created per ``run()``
call and dropped before it returns.  Nothing caches a pointer into an
``mmap``-backed view, so ``MappedCorpus.close()`` can always release its
views — a plan run after close fails loudly with ``ValueError`` exactly
like the interpreted path.
"""

from __future__ import annotations

import importlib
import importlib.util
import operator as _operator
import os
import tempfile
import threading
from array import array
from typing import NamedTuple, Optional

KERNELS_ENV = "REPRO_KERNELS"
KERNEL_MODES = ("auto", "native", "python")

#: Comparison opcodes shared with ``repro_check_t.op`` in build.py.
OPCODES = {
    _operator.eq: 0,
    _operator.ne: 1,
    _operator.lt: 2,
    _operator.le: 3,
    _operator.gt: 4,
    _operator.ge: 5,
}

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1


def kernel_mode() -> str:
    """The requested backend mode from the environment.

    Unset or empty means ``auto``; any value outside the fixed mode set
    is a configuration error and raises, so a typo'd override can never
    silently run the wrong backend mid-differential-run (the same
    contract as ``REPRO_FORCE_JOIN``)."""
    mode = os.environ.get(KERNELS_ENV)
    if not mode:
        return "auto"
    if mode in KERNEL_MODES:
        return mode
    from ...lpath.errors import LPathError

    raise LPathError(
        f"invalid {KERNELS_ENV} value {mode!r}; use 'native', 'python' or 'auto'"
    )


# -- loading the extension ----------------------------------------------------

_LOCK = threading.Lock()
_NATIVE: Optional["NativeKernels"] = None
_NATIVE_ERROR: Optional[str] = None
_LOADED = False


def native_kernels() -> Optional["NativeKernels"]:
    """The loaded native kernel bundle, or ``None`` when the extension
    neither imports nor builds (the failure reason is kept for
    :func:`kernel_info`).  First call may compile the extension; the
    outcome is cached for the process either way."""
    global _NATIVE, _NATIVE_ERROR, _LOADED
    if _LOADED:
        return _NATIVE
    with _LOCK:
        if _LOADED:
            return _NATIVE
        try:
            _NATIVE = _load()
        except Exception as exc:  # no compiler, no cffi, broken toolchain
            _NATIVE = None
            _NATIVE_ERROR = f"{type(exc).__name__}: {exc}"
        _LOADED = True
    return _NATIVE


def _load() -> "NativeKernels":
    from .build import KERNEL_ABI, KERNEL_DIGEST

    try:
        from . import _native  # pre-built by setup.py or a prior import
    except ImportError:
        _native = None
    # An artifact left behind by an older checkout has other kernel
    # signatures, or the same ones over other code; rebuild instead of
    # calling it.
    if _native is None or (
        getattr(_native.lib, "REPRO_KERNEL_ABI", 0),
        getattr(_native.lib, "REPRO_KERNEL_DIGEST", 0),
    ) != (KERNEL_ABI, KERNEL_DIGEST):
        _native = _build()
    return NativeKernels(_native.ffi, _native.lib)


def _build():
    """Compile the extension into a temporary directory, load it from
    there, then atomically install the artifact next to this file so
    later imports (and other processes) skip the build.  Loading before
    installing matters when a stale artifact was already imported: the
    interpreter caches extension modules by ``(path, name)``, so the
    fresh build must come from another path to be a fresh module.
    Concurrent builders race safely — each builds its own copy and
    ``os.replace`` is atomic; on a read-only checkout the install is
    skipped (the mapped shared object outlives the file)."""
    from .build import ffibuilder

    package_dir = os.path.dirname(os.path.abspath(__file__))
    with tempfile.TemporaryDirectory(prefix="repro-kernels-") as tmp:
        built = ffibuilder.compile(tmpdir=tmp, verbose=False)
        spec = importlib.util.spec_from_file_location(
            __package__ + "._native", built
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        try:
            os.replace(built, os.path.join(package_dir, os.path.basename(built)))
        except OSError:
            pass
    return module


def kernels_backend() -> str:
    """The resolved backend for this process and environment: ``native``
    or ``python``.  Raises when ``REPRO_KERNELS=native`` but the
    extension is unavailable."""
    mode = kernel_mode()
    if mode == "python":
        return "python"
    if native_kernels() is not None:
        return "native"
    if mode == "native":
        from ...lpath.errors import LPathError

        raise LPathError(
            f"{KERNELS_ENV}=native but the cffi kernels are unavailable"
            f" ({_NATIVE_ERROR})"
        )
    return "python"


def active_kernels() -> Optional["NativeKernels"]:
    """The kernel bundle when the resolved backend is ``native``, else
    ``None`` (raises under a forced-but-unavailable ``native``)."""
    return native_kernels() if kernels_backend() == "native" else None


def kernel_info() -> dict:
    """A non-raising status snapshot for CLI output and bench metadata."""
    try:
        import cffi

        cffi_version = cffi.__version__
    except ImportError:  # pragma: no cover - cffi ships with the toolchain
        cffi_version = None
    mode = kernel_mode()
    available = native_kernels() is not None
    backend = "native" if mode != "python" and available else "python"
    return {
        "mode": mode,
        "backend": backend,
        "native_available": available,
        "error": _NATIVE_ERROR,
        "cffi": cffi_version,
    }


# -- buffer classification ----------------------------------------------------


def buffer_kind(column) -> Optional[str]:
    """``"i64"``/``"u8"`` when ``column`` is a fixed-width integer buffer
    the C side can read directly, else ``None`` (string columns, plain
    lists, and anything else stays on the interpreted path)."""
    if isinstance(column, array):
        return "i64" if column.typecode == "q" and column.itemsize == 8 else None
    if isinstance(column, (bytes, bytearray)):
        return "u8"
    if isinstance(column, memoryview):
        if column.ndim != 1:
            return None
        if column.format in ("q", "l") and column.itemsize == 8:
            return "i64"
        if column.format in ("B", "b") and column.itemsize == 1:
            return "u8"
    return None


class CheckSpec(NamedTuple):
    """One pre-validated residual condition, ready to pack per run."""

    column: object
    column_kind: str            # "i64" | "u8"
    op: int
    rhs_slot: Optional[int]     # None -> payload is an int constant
    payload: object


#: Buffer kind per column *position* (the eight relation columns, then
#: the ``is_attr``/``right_edge`` bitmaps) — the same for every store, so
#: a plan's checks are validated once, not once per segment.
POSITION_KINDS = ("i64",) * 6 + (None, None, "u8", "u8")


def classify_checks(vector, require_const: bool = False):
    """Pre-validate the executor's *unbound* vector-filter tuples
    ``(column position, opfunc, rhs_slot, payload)`` for the C side:
    ``[(column kind, opcode), ...]``, or ``None`` when any condition
    needs the interpreter (string column, exotic operator, string/float
    constant, out-of-range int)."""
    kinds: list[tuple[str, int]] = []
    for position, opf, rhs_slot, payload in vector:
        op = OPCODES.get(opf)
        kind = POSITION_KINDS[position]
        if op is None or kind is None:
            return None
        if rhs_slot is None:
            if not isinstance(payload, int) or not _INT64_MIN <= payload <= _INT64_MAX:
                return None
        elif require_const or POSITION_KINDS[payload] != "i64":
            return None
        kinds.append((kind, op))
    return kinds


def bind_checks(kinds, vector) -> list[CheckSpec]:
    """The :class:`CheckSpec` list for one store: :func:`classify_checks`'
    verdict zipped with the same vector once its positions are resolved
    to that store's columns (``int()`` normalizes a bool constant)."""
    return [
        CheckSpec(column, kind, op, rhs_slot,
                  int(payload) if rhs_slot is None else payload)
        for (kind, op), (column, _opf, rhs_slot, payload) in zip(kinds, vector)
    ]


# -- the loaded bundle --------------------------------------------------------


class NativeKernels:
    """The ffi/lib pair plus the marshalling helpers every native plan
    shares.  One instance per process."""

    __slots__ = ("ffi", "lib", "take", "distinct")

    def __init__(self, ffi, lib) -> None:
        self.ffi = ffi
        self.lib = lib
        self.take = _native_take(self)
        self.distinct = _native_distinct(self)

    def i64(self, column):
        """A read cdata pointer over an int64 buffer (no copy)."""
        return self.ffi.from_buffer("int64_t[]", column)

    def u8(self, column):
        """A read cdata pointer over a byte bitmap (no copy)."""
        return self.ffi.from_buffer("uint8_t[]", column)

    def i64_out(self, column):
        """A writable cdata pointer over an ``array('q')`` output."""
        return self.ffi.from_buffer("int64_t[]", column, require_writable=True)

    def pack_checks(self, specs, batch):
        """Fill a ``repro_check_t[]`` from pre-validated specs.  Returns
        ``(cdata array, keepalive list)`` — the caller must hold the
        keepalive until the C call returns, because the struct pointers
        do not themselves keep the ``from_buffer`` views alive."""
        ffi = self.ffi
        checks = ffi.new("repro_check_t[]", max(1, len(specs)))
        keep = []
        for index, spec in enumerate(specs):
            entry = checks[index]
            if spec.column_kind == "i64":
                view = self.i64(spec.column)
                entry.i64 = view
                entry.u8 = ffi.NULL
            else:
                view = self.u8(spec.column)
                entry.u8 = view
                entry.i64 = ffi.NULL
            keep.append(view)
            entry.op = spec.op
            if spec.rhs_slot is None:
                entry.rhs_arr = ffi.NULL
                entry.rhs_col = ffi.NULL
                entry.rhs_const = spec.payload
            else:
                rhs_arr = self.i64(spec.payload)
                rhs_col = self.i64(batch[spec.rhs_slot])
                entry.rhs_arr = rhs_arr
                entry.rhs_col = rhs_col
                entry.rhs_const = 0
                keep.append(rhs_arr)
                keep.append(rhs_col)
        return checks, keep

    def emit_pairs(self, tids, ids, rows: array) -> array:
        """``(tids[r], ids[r])`` for every row id in ``rows`` as packed
        distinct sorted pairs, in an array the caller owns."""
        count = len(rows)
        out = array("q", bytes(16 * count))
        kept = self.lib.repro_emit_pairs(
            self.i64(tids), self.i64(ids), self.i64(rows), count,
            self.i64_out(out),
        )
        del out[2 * kept:]
        return out

    def merge_pairs(self, parts) -> array:
        """Merge non-empty packed sorted pair arrays into one — the C
        twin of ``heapq.merge`` over the unpacked pairs."""
        counts = array("q", (len(part) // 2 for part in parts))
        views = [self.i64(part) for part in parts]
        out = array("q", bytes(16 * sum(counts)))
        written = self.lib.repro_merge_pairs(
            self.ffi.new("int64_t *[]", views), self.i64(counts), len(parts),
            self.i64_out(out),
        )
        if written < 0:
            raise MemoryError("native pair merge allocation failed")
        return out

    def argsort(self, keys) -> array:
        """Row positions ordered by the int64 ``keys`` columns, ties in
        position order — the C twin of ``sorted`` over ``(key..., row)``
        tuples."""
        out = array("q")
        if self._over_keys(self.lib.repro_argsort, keys, out) < 0:
            raise MemoryError("native argsort allocation failed")
        return out

    def run_starts(self, keys) -> array:
        """The positions where a run of equal ``keys`` rows starts."""
        out = array("q")
        del out[self._over_keys(self.lib.repro_run_starts, keys, out):]
        return out

    def _over_keys(self, kernel, keys, out: array) -> int:
        """``kernel(keys, k, n, out)`` with ``out`` grown to ``n`` rows."""
        count = len(keys[0])
        out.frombytes(bytes(8 * count))
        if not count:
            return 0
        views = [self.i64(key) for key in keys]
        return kernel(
            self.ffi.new("int64_t *[]", views), len(keys), count,
            self.i64_out(out),
        )

    def encode_pairs(self, pairs: array) -> bytes:
        """Packed pairs as the bytes ``json.dumps`` gives the list of
        their ``[tid, id]`` lists."""
        count = len(pairs) // 2
        out = self.ffi.new("char[]", 2 + 46 * count)  # the int64 worst case
        written = self.lib.repro_encode_pairs(self.i64(pairs), count, out)
        return self.ffi.buffer(out, written)[:]


# -- native plan objects ------------------------------------------------------


class NativeMergeJoin:
    """The marshalling recipe for one merge-join shape: everything static
    is resolved at construction; ``pairs`` only wraps buffers and copies
    the (src, cand) result out."""

    __slots__ = (
        "kern", "spec", "check_specs", "store", "seed",
        "name_lo", "name_hi", "key_slot", "key_column", "high_column",
    )

    def __init__(self, kern, spec, check_specs, store, seed=None) -> None:
        self.kern = kern
        self.spec = spec
        self.check_specs = check_specs
        self.store = store
        #: The value seed whose ``rows()`` are the candidate list, or
        #: ``None``: the identity list over the name block's positions.
        self.seed = seed
        self.name_lo, self.name_hi = store.name_bounds.get(spec.name, (0, 0))
        # Span bounds are always the int64 ``left``/``right`` columns.
        self.key_slot, key = spec.low if spec.strategy == "sweep" else spec.high
        self.key_column = store.col(key)
        self.high_column = (
            store.col(spec.high[1])
            if spec.strategy == "sweep" and spec.high is not None else None
        )

    def pairs(self, batch: list, cutoff=None, first_match: bool = False):
        """``(src, cand)``: for every match, the index of its input
        binding and the matched candidate row, as parallel arrays."""
        kern = self.kern
        ffi, lib = kern.ffi, kern.lib
        src_rows, cand_rows = array("q"), array("q")
        count = len(batch[0]) if batch else 0
        if count == 0:
            return src_rows, cand_rows
        spec = self.spec
        store = self.store
        rows, name_lo, name_hi = ffi.NULL, self.name_lo, self.name_hi
        if self.seed is not None:
            seeded = self.seed.rows()
            if not len(seeded):
                return src_rows, cand_rows
            rows, name_lo, name_hi = kern.i64(seeded), 0, len(seeded)
        tids = kern.i64(store.tid)
        lefts = kern.i64(store.left)
        tid_col = kern.i64(batch[spec.tid_slot])
        key_col = kern.i64(batch[self.key_slot])
        key_arr = kern.i64(self.key_column)
        checks, keep = kern.pack_checks(self.check_specs, batch)
        n_checks = len(self.check_specs)
        src_out = ffi.new("int64_t **")
        cand_out = ffi.new("int64_t **")
        max_rows = -1 if cutoff is None else cutoff.max_rows
        truncated = ffi.new("int32_t *")
        first = int(first_match)
        if spec.strategy == "sweep":
            if spec.high is None:
                high_arr = high_col = ffi.NULL
            else:
                high_arr = kern.i64(self.high_column)
                high_col = kern.i64(batch[spec.high[0]])
            matched = lib.repro_sweep_join(
                tids, lefts, rows, name_lo, name_hi,
                tid_col, key_col, count,
                key_arr, int(spec.include_low),
                high_arr, high_col, int(spec.include_high),
                checks, n_checks, first, max_rows, truncated,
                src_out, cand_out,
            )
        elif spec.strategy == "stack":
            rights = kern.i64(store.right)
            matched = lib.repro_stack_join(
                tids, lefts, rights, rows, name_lo, name_hi,
                tid_col, key_col, count,
                key_arr, int(spec.include_high),
                checks, n_checks, first, max_rows, truncated,
                src_out, cand_out,
            )
        else:
            matched = lib.repro_prefix_join(
                tids, lefts, rows, name_lo, name_hi,
                tid_col, key_col, count,
                key_arr, int(spec.include_high),
                checks, n_checks, first, max_rows, truncated,
                src_out, cand_out,
            )
        if matched < 0:
            raise MemoryError("native structural join allocation failed")
        if truncated[0] and cutoff is not None:
            cutoff.hit = True
        src, cand = src_out[0], cand_out[0]
        try:
            if matched:
                src_rows.frombytes(ffi.buffer(src, 8 * matched))
                cand_rows.frombytes(ffi.buffer(cand, 8 * matched))
        finally:
            lib.repro_free(src)
            lib.repro_free(cand)
        del keep
        return src_rows, cand_rows


class NativeRangeFilter:
    """The scan-side vectorized filter over a contiguous row-id range —
    with no checks, the range's row ids materialized in one C pass."""

    __slots__ = ("kern", "check_specs")

    def __init__(self, kern, check_specs) -> None:
        self.kern = kern
        self.check_specs = check_specs

    def run(self, start: int, stop: int):
        kern = self.kern
        if stop <= start:
            return array("q")
        kept = array("q", bytes(8 * (stop - start)))
        checks, keep = kern.pack_checks(self.check_specs, ())
        survivors = kern.lib.repro_filter_range(
            start, stop, checks, len(self.check_specs), kern.i64_out(kept)
        )
        del keep
        del kept[survivors:]
        return kept


def _native_take(kern):
    """The batch-column gather ``out[k] = column[src[k]]`` as one C pass.
    ``src`` is an int64 index buffer (what a native join produced, a
    store's permutation); an interpreted join's index *list* gathers
    through the interpreter."""
    gather, i64, i64_out = kern.lib.repro_gather, kern.i64, kern.i64_out

    def take(column, src):
        if not isinstance(src, (array, memoryview)):
            return array("q", map(column.__getitem__, src))
        count = len(src)
        out = array("q", bytes(8 * count))
        if count:
            gather(i64(column), i64(src), count, i64_out(out))
        return out

    return take


def _native_distinct(kern):
    """The selection-vector reduction — distinct ordinals ascending, or
    their complement in ``range(n)`` — as one C marking pass."""
    ffi, reduce, i64, i64_out = kern.ffi, kern.lib.repro_distinct, kern.i64, kern.i64_out

    def distinct(ordinals, n: int, negated: bool = False):
        out = array("q", bytes(8 * n))
        if n == 0:
            return out
        if not isinstance(ordinals, array):
            ordinals = array("q", ordinals)
        count = len(ordinals)
        written = reduce(
            i64(ordinals) if count else ffi.NULL, count, n, int(negated),
            i64_out(out),
        )
        if written < 0:
            raise MemoryError("native selection reduce allocation failed")
        del out[written:]
        return out

    return distinct


def column_pointer(column, length: int):
    """``(cdata pointer, length)`` over one column buffer for direct C
    consumption (``ColumnStore.column_ptr`` delegates here).  The pointer
    must not outlive the owning store — for an mmap-backed column it pins
    the view until dropped, and ``MappedCorpus.close()`` raises
    ``BufferError`` while such an export exists."""
    kern = native_kernels()
    if kern is None:
        raise RuntimeError(
            f"native kernels are unavailable ({_NATIVE_ERROR})"
        )
    kind = buffer_kind(column)
    if kind is None:
        raise TypeError(
            "column is not a fixed-width integer buffer"
        )
    view = kern.i64(column) if kind == "i64" else kern.u8(column)
    return view, length
