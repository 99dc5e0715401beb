"""Crash-safe live corpora: the ``LPDB0005`` directory layout.

A compiled ``LPDB0004`` file is immutable — compile once,
query forever.  This module adds the write path: a live corpus is a
*directory* whose contents are

``MANIFEST``
    ``LPDB0005`` magic + one block (varint length, varint CRC-32,
    payload) over: generation number, the list of immutable base
    segment files with their row counts, the active WAL file name, the
    next free tree id, and the last recovery action.  The manifest is
    the single source of truth; a file not referenced by it does not
    exist (it is garbage, collected on the next writable open).
``seg-<generation>.lpdb``
    Immutable ``LPDB0004`` base segments, mmap-served exactly like a
    monolithic compiled corpus.  Each compaction writes one; it absorbs
    its newest neighbours while they hold fewer than twice its rows, so
    the directory keeps O(log compactions) of them.
``wal-<generation>.log``
    An append-only write-ahead log: an 8-byte magic then one record per
    acknowledged append, fsync'd **before** the append is acknowledged.
    A record is a ``<u32 length, u32 crc32>`` header over a payload of
    varints: the row count, a string table (count, then length-prefixed
    UTF-8 names and values — tags and words repeat heavily), then per
    row ``tid, left, right, depth, id, pid`` and the 1-based string
    indices of its name and value (0 for none).
``LOCK``
    The exclusive writer lock (``O_EXCL`` + pid, stale locks reclaimed
    when the holder is dead).

Crash consistency rules:

* An append is acknowledged only after its full frame is written *and*
  fsync'd.  Recovery truncates a torn tail (partial frame or CRC
  mismatch) — so acknowledged rows always survive, unacknowledged
  tails always roll back.  A crash *between* fsync and acknowledgement
  leaves a complete, valid record the writer never confirmed: replay is
  therefore at-least-once (``acked ⊆ recovered ⊆ attempted``).
* The manifest is installed via write-temp → fsync → ``os.replace`` →
  fsync(directory) — readers see the old generation or the new one,
  never a mix.
* Compaction writes the new base segment and the rotated WAL under
  their final (generation-stamped) names *before* installing the
  manifest that references them, and unlinks the files it absorbed
  only after.  A crash at any point leaves either the old generation
  (plus unreferenced files, GC'd on open) or the complete new one —
  there is nothing in between to repair.

The crash-oriented fault points (``torn_write``, ``fsync_fail``,
``disk_full``, ``compactor_kill``) and the deterministic
``REPRO_CRASH_POINT`` barriers from :mod:`repro.faults` are threaded
through every durability step; the kill-at-every-barrier matrix in
``tests/integration/test_crash_matrix.py`` drives them.
"""

from __future__ import annotations

import contextlib
import io
import os
import struct
import threading
import time
import zlib
from functools import partial
from itertools import chain, count
from typing import NamedTuple, Optional

from . import faults
from .columnar.store import ColumnStore
from .labeling.lpath_scheme import Label, label_columns
from .store import (
    LIVE_MAGIC,
    InfoFold,
    StoreError,
    _block_header,
    _checked_block,
    _read_sidecar,
    _read_strings,
    _read_varints,
    _varints,
    _write_strings,
    fsync_directory,
    load_labels,
    open_mapped_corpus,
    save_mapped_stores,
)
from .tree.bracket import iter_trees

MANIFEST_NAME = "MANIFEST"
LOCK_NAME = "LOCK"
WAL_MAGIC = b"LPWL0001"
_FRAME = struct.Struct("<II")

#: String-table index meaning "no value" (element rows) in a WAL record.
_NO_VALUE = 0

#: How long a retired engine survives after a swap before it is closed —
#: longer than any sane request, so an in-flight query that resolved the
#: old engine just before an append/compaction finishes cleanly.
ENGINE_GRACE_SECONDS = 30.0


# -- manifest ------------------------------------------------------------------


class LiveManifest(NamedTuple):
    """The decoded ``MANIFEST``: what the directory *is* right now."""

    generation: int
    segments: tuple[tuple[str, int], ...]  # (file name, row count)
    wal: str
    next_tid: int
    last_recovery: str


def _encode_manifest(manifest: LiveManifest) -> bytes:
    payload = io.BytesIO()
    payload.write(_varints((manifest.generation, len(manifest.segments))))
    for name, rows in manifest.segments:
        _write_strings(payload, (name,))
        payload.write(_varints((rows,)))
    _write_strings(payload, (manifest.wal,))
    payload.write(_varints((manifest.next_tid,)))
    _write_strings(payload, (manifest.last_recovery,))
    blob = payload.getvalue()
    return LIVE_MAGIC + _block_header(blob) + blob


def _parse_manifest(data: bytes) -> LiveManifest:
    if not data.startswith(LIVE_MAGIC):
        raise StoreError(
            "not a live corpus manifest (bad magic; expected LPDB0005)"
        )
    payload, end = _checked_block(data, len(LIVE_MAGIC), "manifest")
    if end != len(data):
        raise StoreError(f"{len(data) - end} trailing bytes after manifest")
    (generation, count), offset = _read_varints(payload, 0, 2)
    segments = []
    for _ in range(count):
        (name,), offset = _read_strings(payload, offset, 1)
        (rows,), offset = _read_varints(payload, offset, 1)
        segments.append((name, rows))
    (wal,), offset = _read_strings(payload, offset, 1)
    (next_tid,), offset = _read_varints(payload, offset, 1)
    (recovery,), offset = _read_strings(payload, offset, 1)
    if offset != len(payload):
        raise StoreError("trailing bytes inside the manifest payload")
    return LiveManifest(generation, tuple(segments), wal, next_tid, recovery)


def _read_manifest(root: str) -> tuple[LiveManifest, bytes]:
    path = os.path.join(root, MANIFEST_NAME)
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except FileNotFoundError:
        raise StoreError(
            f"not a live corpus: {root!r} has no {MANIFEST_NAME}"
        ) from None
    return _parse_manifest(data), data


def _barrier(name: str, compactor: bool = False) -> None:
    """Cross one durability barrier: the deterministic kill matrix
    (``REPRO_CRASH_POINT``) and, on compaction barriers, the
    probabilistic ``compactor_kill`` point."""
    faults.crash_point(name)
    if compactor:
        faults.maybe_kill_compactor()


def _install_manifest(
    root: str, manifest: LiveManifest, compactor: bool = False
) -> bytes:
    """Atomically install ``manifest``: write-temp → fsync →
    ``os.replace`` → fsync(dir).  Returns the installed bytes (the
    fingerprint digests them)."""
    blob = _encode_manifest(manifest)
    temp = os.path.join(
        root, f"tmp-manifest-{manifest.generation}-{os.getpid()}"
    )
    try:
        with open(temp, "wb") as handle:
            handle.write(blob)
            handle.flush()
            os.fsync(handle.fileno())
        _barrier("manifest_temp", compactor)
        os.replace(temp, os.path.join(root, MANIFEST_NAME))
    except OSError as error:
        with contextlib.suppress(OSError):
            os.unlink(temp)
        raise StoreError(f"manifest install failed: {error}") from error
    _barrier("manifest_replace", compactor)
    fsync_directory(root)
    _barrier("manifest_dirsync", compactor)
    return blob


# -- WAL -----------------------------------------------------------------------


def _encode_payload(columns) -> tuple[bytes, int]:
    """Encode the eight label columns of a batch
    (:func:`~repro.labeling.lpath_scheme.label_columns`) into one WAL
    record payload; returns ``(blob, count)``.  Strings are numbered in
    order of first use, each row's name before its value."""
    *integers, names, values = columns
    table = dict.fromkeys(chain.from_iterable(zip(names, values)))
    table.pop(None, None)
    ids = {None: _NO_VALUE}
    ids.update(zip(table, count(1)))
    payload = io.BytesIO()
    payload.write(_varints((len(names), len(table))))
    _write_strings(payload, table)
    payload.write(_varints(chain.from_iterable(zip(
        *integers, map(ids.__getitem__, names), map(ids.__getitem__, values),
    ))))
    return payload.getvalue(), len(names)


def _decode_into(payload: bytes, columns) -> None:
    """Append the rows of one WAL record payload to label ``columns``."""
    (rows, table_size), offset = _read_varints(payload, 0, 2)
    strings, offset = _read_strings(payload, offset, table_size)
    fields, offset = _read_varints(payload, offset, 8 * rows)
    if offset != len(payload):
        raise StoreError(f"{len(payload) - offset} trailing bytes after rows")
    name_ids, value_ids = fields[6::8], fields[7::8]
    if rows and (min(name_ids) == _NO_VALUE
                 or max(max(name_ids), max(value_ids)) > table_size):
        raise StoreError("string-table reference out of range")
    table = [None, *strings]  # index 0: no value
    for position in range(6):
        columns[position].extend(fields[position::8])
    columns[6].extend(map(table.__getitem__, name_ids))
    columns[7].extend(map(table.__getitem__, value_ids))


class WalScan(NamedTuple):
    """One pass over a WAL file: the decoded valid prefix (the eight
    label columns) and how many bytes of torn tail follow it."""

    records: int
    columns: tuple
    valid_size: int
    torn_bytes: int


def _scan_wal(path: str) -> WalScan:
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except FileNotFoundError:
        raise StoreError(f"live corpus WAL missing: {path}") from None
    if not data.startswith(WAL_MAGIC):
        raise StoreError(f"bad WAL magic in {path}; expected LPWL0001")
    offset = len(WAL_MAGIC)
    columns = label_columns(())
    records = 0
    while offset < len(data):
        if len(data) - offset < _FRAME.size:
            break  # torn frame header
        length, crc = _FRAME.unpack_from(data, offset)
        end = offset + _FRAME.size + length
        if end > len(data):
            break  # torn payload
        blob = data[offset + _FRAME.size:end]
        if zlib.crc32(blob) != crc:
            break  # torn or bit-rotted payload
        _decode_into(blob, columns)
        records += 1
        offset = end
    return WalScan(records, columns, offset, len(data) - offset)


# -- writer lock ---------------------------------------------------------------


def _lock_holder(path: str) -> Optional[int]:
    try:
        with open(path, "r", encoding="ascii") as handle:
            return int(handle.read().split()[0])
    except (OSError, ValueError, IndexError):
        return None


def acquire_writer_lock(root: str) -> str:
    """Take the exclusive writer lock, reclaiming it once if the
    recorded holder is dead (a crashed writer).  Raises
    :class:`StoreError` when a live holder exists."""
    path = os.path.join(root, LOCK_NAME)
    for attempt in range(2):
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
        except FileExistsError:
            pid = _lock_holder(path)
            alive = False
            if pid is not None:
                try:
                    os.kill(pid, 0)
                    alive = True
                except ProcessLookupError:
                    alive = False
                except PermissionError:
                    alive = True  # exists, owned by someone else
            if not alive and attempt == 0:
                # Stale (holder dead, or it crashed between creating the
                # lock and writing its pid): reclaim once and retry.
                with contextlib.suppress(OSError):
                    os.unlink(path)
                continue
            holder = f"pid {pid}" if pid is not None else "an unknown writer"
            raise StoreError(
                f"live corpus {root!r} is locked by {holder}; a second "
                "writer would interleave WAL records (remove LOCK only if "
                "you know the holder is gone)"
            )
        os.write(fd, f"{os.getpid()}\n".encode("ascii"))
        os.close(fd)
        return path
    raise StoreError(f"could not reclaim stale lock {path}")  # pragma: no cover


def release_writer_lock(path: str) -> None:
    with contextlib.suppress(OSError):
        os.unlink(path)


# -- creation ------------------------------------------------------------------


def _segment_file_name(generation: int) -> str:
    return f"seg-{generation:08d}.lpdb"


def _wal_file_name(generation: int) -> str:
    return f"wal-{generation:08d}.log"


def _write_segment_file(path: str, save) -> int:
    """Write one immutable LPDB0004 base segment under its final name
    with ``save(handle)`` and fsync it.  Safe pre-manifest: until a
    manifest references the name, the file is garbage — a failed write
    removes it, and recovery collects what a crash leaves."""
    try:
        with open(path, "wb") as handle:
            count = save(handle)
            handle.flush()
            os.fsync(handle.fileno())
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(path)
        raise
    return count


def _write_wal_file(path: str, tail: bytes = b"") -> None:
    with open(path, "wb") as handle:
        handle.write(WAL_MAGIC)
        if tail:
            handle.write(tail)
        handle.flush()
        os.fsync(handle.fileno())


def create_live_stores(path: str, stores, next_tid: int) -> int:
    """Create (or re-create) a live corpus directory at ``path`` whose
    base LPDB0004 file holds ``stores`` (one
    :class:`~repro.columnar.ColumnStore` per shard, consumed lazily) and
    whose next appended tree gets ``next_tid``; returns the row count.

    Re-creating over an existing live corpus replaces it
    atomically-enough: the new manifest is installed last, and the old
    generation's files become garbage."""
    os.makedirs(path, exist_ok=True)
    existing = os.listdir(path)
    if existing and not os.path.exists(os.path.join(path, MANIFEST_NAME)):
        raise StoreError(
            f"refusing to create a live corpus in non-empty directory "
            f"{path!r} that is not already a live corpus"
        )
    lock = acquire_writer_lock(path)
    try:
        generation = 1
        if existing:
            with contextlib.suppress(StoreError):
                manifest, _ = _read_manifest(path)
                generation = manifest.generation + 1
        seg_name = _segment_file_name(generation)
        seg_path = os.path.join(path, seg_name)
        count = _write_segment_file(seg_path, partial(save_mapped_stores, stores))
        manifest_segments: tuple[tuple[str, int], ...] = ((seg_name, count),)
        if not count:  # an empty corpus has no base file
            os.unlink(seg_path)
            manifest_segments = ()
        wal_name = _wal_file_name(generation)
        _write_wal_file(os.path.join(path, wal_name))
        fsync_directory(path)
        _install_manifest(
            path,
            LiveManifest(generation, manifest_segments, wal_name, next_tid, ""),
        )
        # Old-generation files (if any) are now garbage; collect them.
        _collect_garbage(path, keep={MANIFEST_NAME, LOCK_NAME, wal_name}
                         | {name for name, _ in manifest_segments})
        fsync_directory(path)
    finally:
        release_writer_lock(lock)
    return count


def _collect_garbage(root: str, keep: set) -> list[str]:
    """Unlink files matching our naming patterns that no manifest
    references.  Foreign files are left alone."""
    removed = []
    for entry in sorted(os.listdir(root)):
        if entry in keep:
            continue
        if (
            entry.startswith("tmp-")
            or entry.startswith(".")  # atomic_write temps
            or (entry.startswith("seg-") and entry.endswith(".lpdb"))
            or (entry.startswith("wal-") and entry.endswith(".log"))
        ):
            with contextlib.suppress(OSError):
                os.unlink(os.path.join(root, entry))
                removed.append(entry)
    return removed


# -- the live corpus -----------------------------------------------------------


class LiveCorpus:
    """An open ``LPDB0005`` directory.

    Writable opens hold the exclusive writer lock for their lifetime and
    run recovery first (truncate torn WAL tails, collect unreferenced
    files, record what was done in the manifest).  Read-only opens take
    no lock, mutate nothing, and simply ignore a torn tail.

    All mutation is serialized on an internal lock; reads of the delta
    snapshot go through :meth:`snapshot` so engine builds never race an
    append."""

    def __init__(self, root: str, writable: bool = True) -> None:
        self.root = os.path.abspath(root)
        self.writable = writable
        self._lock = threading.RLock()
        self._closed = False
        self._poisoned: Optional[str] = None
        self._lock_path: Optional[str] = None
        self._wal_handle = None
        if not os.path.isdir(self.root):
            raise StoreError(f"not a live corpus directory: {root!r}")
        if writable:
            self._lock_path = acquire_writer_lock(self.root)
        try:
            self.manifest, self._manifest_bytes = _read_manifest(self.root)
            self._load_wal(
                self._recover() if writable else _scan_wal(self.wal_path)
            )
            if writable:
                self._wal_handle = open(self.wal_path, "r+b")
                self._wal_handle.seek(self._wal_size)
        except BaseException:
            if self._lock_path is not None:
                release_writer_lock(self._lock_path)
            raise
        self._refresh_fingerprint()

    # -- open-time recovery ----------------------------------------------------

    def _recover(self) -> WalScan:
        """Repair the directory for writing and return the scan of its
        WAL, the one decode of it this open makes."""
        actions = []
        wal_path = os.path.join(self.root, self.manifest.wal)
        if not os.path.exists(wal_path):
            # The manifest's directory fsync makes the WAL entry durable
            # before the manifest references it; a missing WAL should be
            # impossible, but an empty one beats refusing to open.
            _write_wal_file(wal_path)
            actions.append(f"recreated missing WAL {self.manifest.wal}")
        scan = _scan_wal(wal_path)
        if scan.torn_bytes:
            with open(wal_path, "r+b") as handle:
                handle.truncate(scan.valid_size)
                handle.flush()
                os.fsync(handle.fileno())
            actions.append(
                f"truncated {scan.torn_bytes} torn byte(s) from "
                f"{self.manifest.wal}"
            )
        keep = {MANIFEST_NAME, LOCK_NAME, self.manifest.wal}
        keep.update(name for name, _ in self.manifest.segments)
        for entry in _collect_garbage(self.root, keep):
            actions.append(f"removed orphan {entry}")
        if actions:
            fsync_directory(self.root)
            recovered = self.manifest._replace(
                generation=self.manifest.generation + 1,
                last_recovery="; ".join(actions),
            )
            self._manifest_bytes = _install_manifest(self.root, recovered)
            self.manifest = recovered
        return scan

    def _load_wal(self, scan: WalScan) -> None:
        self._wal_size = scan.valid_size
        self._wal_records = scan.records
        self._delta = scan.columns
        self._next_tid = max(
            self.manifest.next_tid, max(scan.columns[0], default=-1) + 1
        )

    # -- cheap accessors -------------------------------------------------------

    @property
    def wal_path(self) -> str:
        return os.path.join(self.root, self.manifest.wal)

    @property
    def generation(self) -> int:
        return self.manifest.generation

    @property
    def next_tid(self) -> int:
        return self._next_tid

    @property
    def base_rows(self) -> int:
        return sum(rows for _, rows in self.manifest.segments)

    @property
    def delta_row_count(self) -> int:
        with self._lock:
            return len(self._delta[0])

    @property
    def wal_records(self) -> int:
        return self._wal_records

    @property
    def fingerprint(self) -> str:
        return self._fingerprint

    def _refresh_fingerprint(self) -> None:
        digest = zlib.crc32(self._manifest_bytes)
        self._fingerprint = (
            f"lpdb0005-{self.manifest.generation}-{self._wal_size}"
            f"-{digest:08x}"
        )

    def base_segment_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.manifest.segments)

    def snapshot(self, after: int = 0) -> tuple[tuple[str, ...], tuple]:
        """A consistent (base segment names, copy of the delta's label
        columns from row ``after`` on) pair for engine builds.  A
        position is only meaningful while the names stay what they were
        when it was taken: a compaction restarts the delta."""
        with self._lock:
            return self.base_segment_names(), tuple(
                column[after:] for column in self._delta
            )

    def verify_on_disk(self) -> tuple[bool, Optional[str]]:
        """Does the directory on disk still match this open handle?
        Under the writer lock nothing else may write, so a mismatch is
        real corruption (or an operator bypassing the lock)."""
        with self._lock:
            if self._poisoned is not None:
                return False, f"store is poisoned: {self._poisoned}"
            try:
                disk = live_fingerprint(self.root)
            except (StoreError, OSError) as error:
                return False, str(error)
            if disk != self._fingerprint:
                return False, (
                    f"on-disk state {disk} diverged from the writer's view "
                    f"{self._fingerprint} despite the writer lock"
                )
            return True, None

    # -- append ----------------------------------------------------------------

    def _ensure_writable(self) -> None:
        if self._closed:
            raise StoreError("live corpus is closed")
        if not self.writable:
            raise StoreError(
                f"live corpus {self.root!r} was opened read-only"
            )
        if self._poisoned is not None:
            raise StoreError(
                f"live corpus is poisoned ({self._poisoned}); reopen the "
                "store to run recovery"
            )

    def append_columns(self, columns) -> int:
        """Durably append one batch of label columns (the eight of
        :func:`~repro.labeling.lpath_scheme.label_columns`); returns the
        row count acknowledged.  The batch's tids must all be >=
        :attr:`next_tid` (segments must stay tid-disjoint for the sorted
        merge)."""
        tids = columns[0]
        if not tids:
            raise StoreError("append needs at least one row")
        with self._lock:
            self._ensure_writable()
            low = min(tids)
            if low < self._next_tid:
                raise StoreError(
                    f"appended tids must start at or above next_tid "
                    f"{self._next_tid} (got {low}); overlapping tids would "
                    "break the disjoint segment merge"
                )
            blob, rows = _encode_payload(columns)
            frame = _FRAME.pack(len(blob), zlib.crc32(blob)) + blob
            handle = self._wal_handle
            start = self._wal_size
            try:
                faults.maybe_disk_full()
                if faults.maybe_torn_write():
                    handle.write(frame[: max(1, len(frame) // 2)])
                    handle.flush()
                    self._poisoned = "torn WAL write (torn_write)"
                    raise StoreError(
                        "append failed: torn write before the durability "
                        "barrier; rows were NOT acknowledged — reopen the "
                        "store to truncate the torn tail"
                    )
                handle.write(frame)
                handle.flush()
                faults.crash_point("wal_write")
                faults.maybe_fsync_fail()
                os.fsync(handle.fileno())
                faults.crash_point("wal_fsync")
            except OSError as error:
                self._rollback(start)
                raise StoreError(
                    f"append failed before acknowledgement "
                    f"({error}); rows were NOT acknowledged"
                ) from error
            # -- acknowledged: the frame is durable --------------------
            self._wal_size = start + len(frame)
            self._wal_records += 1
            for column, added in zip(self._delta, columns):
                column.extend(added)
            self._next_tid = max(tids) + 1
            self._refresh_fingerprint()
            return rows

    def _rollback(self, size: int) -> None:
        """Remove unacknowledged bytes after a failed append so the
        in-memory view and the file agree again."""
        try:
            handle = self._wal_handle
            handle.flush()
            handle.truncate(size)
            handle.seek(size)
            os.fsync(handle.fileno())
        except OSError as error:
            self._poisoned = f"rollback of an unacknowledged append failed: {error}"

    def append_trees(self, text: str) -> dict:
        """Parse bracketed ``text`` and durably append every tree,
        assigning fresh tids from :attr:`next_tid`.  Returns a summary
        dict (trees/rows/first tid/next tid)."""
        with self._lock:
            self._ensure_writable()
            trees = list(iter_trees(text, start_tid=self._next_tid))
            if not trees:
                raise StoreError("no trees in append input")
            first_tid = trees[0].tid
            rows = self.append_columns(label_columns(trees))
            return {
                "trees": len(trees),
                "rows": rows,
                "first_tid": first_tid,
                "next_tid": self._next_tid,
                "generation": self.manifest.generation,
                "wal_records": self._wal_records,
            }

    # -- compaction ------------------------------------------------------------

    def compact(self, delta=None) -> dict:
        """Fold the accumulated delta into a fresh immutable LPDB0004
        base segment and rotate the WAL, installing the result as a new
        manifest generation.

        ``delta`` is ``(base segment names, column stores)``: stores
        already built over the first delta rows, oldest first (the
        manager's tiers), used as they are while the names still match;
        the rows they do not cover get one store of their own.  The new
        file absorbs its newest neighbour while that neighbour holds
        fewer than twice its rows (the tier rule, applied to base files),
        so k equal compactions leave O(log k) files.  Absorbing is a
        :meth:`~repro.columnar.ColumnStore.concat` — nothing is re-sorted
        — and one manifest install replaces the absorbed files, which are
        unlinked after it.  One compaction runs at a time (the manager
        serializes them).

        The expensive segment build runs outside the corpus lock, so
        appends (and of course reads) proceed during it; rows appended
        mid-compaction have their raw WAL frames copied into the rotated
        WAL at cut-over.  Every durability barrier is a crash point —
        a kill anywhere leaves either the old complete generation or the
        new one."""
        started = time.monotonic()
        with self._lock:
            self._ensure_writable()
            if not self._delta[0]:
                return {
                    "compacted_rows": 0,
                    "generation": self.manifest.generation,
                    "remaining_delta_rows": 0,
                    "seconds": 0.0,
                }
            files = self.manifest.segments
            names, stores = delta if delta is not None else ((), [])
            stores = list(stores) if names == self.base_segment_names() else []
            covered = sum(map(len, stores))
            rest = tuple(column[covered:] for column in self._delta)
            frozen = len(self._delta[0])
            cut, cut_records = self._wal_size, self._wal_records
            generation = self.manifest.generation + 1
        # -- heavy phase, off-lock: build the new base segment ---------
        if rest[0]:
            stores.append(ColumnStore(*rest))
        absorbed, mapped = [], []
        try:
            rows = frozen
            for name, count in reversed(files):
                if count >= 2 * rows:
                    break
                corpus = open_mapped_corpus(os.path.join(self.root, name))
                if len(corpus.segments) != 1:  # sharded: its tids interleave
                    corpus.close()
                    break
                mapped.insert(0, corpus)
                absorbed.insert(0, name)
                rows += count
            inputs = [ColumnStore.adopt(corpus.segments[0]) for corpus in mapped]
            inputs += stores
            merged = inputs[0] if len(inputs) == 1 else ColumnStore.concat(inputs)
        finally:
            for corpus in mapped:
                corpus.close()
        seg_name = _segment_file_name(generation)
        seg_path = os.path.join(self.root, seg_name)
        try:
            count = _write_segment_file(
                seg_path, partial(save_mapped_stores, [merged])
            )
        except OSError as error:
            raise StoreError(f"compaction segment write failed: {error}") from error
        _barrier("compact_segment", compactor=True)
        # -- cut-over, under the lock ----------------------------------
        with self._lock:
            self._ensure_writable()
            old_wal_path = self.wal_path
            with open(old_wal_path, "rb") as handle:
                handle.seek(cut)
                tail = handle.read(self._wal_size - cut)
            wal_name = _wal_file_name(generation)
            try:
                _write_wal_file(os.path.join(self.root, wal_name), tail)
                fsync_directory(self.root)
            except OSError as error:
                raise StoreError(
                    f"compaction WAL rotation failed: {error}"
                ) from error
            _barrier("compact_wal", compactor=True)
            manifest = LiveManifest(
                generation,
                files[:len(files) - len(absorbed)] + ((seg_name, count),),
                wal_name,
                self._next_tid,
                self.manifest.last_recovery,
            )
            self._manifest_bytes = _install_manifest(
                self.root, manifest, compactor=True
            )
            self.manifest = manifest
            self._wal_handle.close()
            self._wal_handle = open(self.wal_path, "r+b")
            self._wal_handle.seek(0, os.SEEK_END)
            self._wal_size = self._wal_handle.tell()
            self._delta = tuple(column[frozen:] for column in self._delta)
            remaining = len(self._delta[0])
            # The rotated WAL holds the frames acknowledged since the cut.
            self._wal_records -= cut_records
            self._refresh_fingerprint()
        for path in [old_wal_path] + [
            os.path.join(self.root, name) for name in absorbed
        ]:
            with contextlib.suppress(OSError):
                os.unlink(path)
        _barrier("compact_gc", compactor=True)
        fsync_directory(self.root)
        return {
            "compacted_rows": frozen,
            "generation": generation,
            "segment": seg_name,
            "segment_rows": count,
            "absorbed": absorbed,
            "remaining_delta_rows": remaining,
            "seconds": time.monotonic() - started,
        }

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if self._wal_handle is not None:
                with contextlib.suppress(OSError):
                    self._wal_handle.close()
                self._wal_handle = None
            if self._lock_path is not None:
                release_writer_lock(self._lock_path)
                self._lock_path = None

    def __enter__(self) -> "LiveCorpus":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# -- path-level helpers (store.py dispatches here) -----------------------------


def live_fingerprint(path: str) -> str:
    """O(1) identity for a live directory: generation + WAL size + a CRC
    of the manifest bytes.  Changes on every acknowledged append (the
    WAL grows) and every installed generation (the manifest changes);
    stable across copies and re-opens."""
    manifest, data = _read_manifest(path)
    try:
        wal_size = os.path.getsize(os.path.join(path, manifest.wal))
    except OSError:
        wal_size = len(WAL_MAGIC)
    return (
        f"lpdb0005-{manifest.generation}-{wal_size}-{zlib.crc32(data):08x}"
    )


def live_info(path: str, top: int = 10) -> dict:
    """The :func:`repro.store.corpus_info` shape plus the live extras:
    generation, WAL record/row counts, delta vs base split, the last
    recovery action and any torn tail visible to this (read-only)
    scan.  The delta counts as one more segment (as does an empty
    corpus's, which has no base file): its statistics are those of the
    store built over it, folded like a base file's sidecar."""
    manifest, manifest_bytes = _read_manifest(path)
    fold = InfoFold()
    total_bytes = len(manifest_bytes)
    for name, _rows in manifest.segments:
        file_path = os.path.join(path, name)
        total_bytes += os.path.getsize(file_path)
        fold.add_segments(_read_sidecar(file_path).segments)
    base_segments, base_rows = fold.segments, fold.rows
    wal_path = os.path.join(path, manifest.wal)
    scan = _scan_wal(wal_path)
    total_bytes += os.path.getsize(wal_path)
    tids = scan.columns[0]
    if tids or not base_segments:
        fold.add_segments([ColumnStore(*scan.columns).segment.meta])
    info = fold.summary(path, total_bytes, LIVE_MAGIC.decode("ascii"), top)
    info.update(
        generation=manifest.generation,
        base_segments=len(manifest.segments),
        base_rows=base_rows,
        delta_rows=len(tids),
        wal_records=scan.records,
        wal_bytes=scan.valid_size,
        wal_torn_bytes=scan.torn_bytes,
        next_tid=max(manifest.next_tid, max(tids, default=-1) + 1),
        last_recovery=manifest.last_recovery or None,
    )
    return info


def load_live_labels(path: str) -> list[Label]:
    """Materialize every row of a live corpus: base segments in file
    order, then the WAL delta — the monolithic-equivalence loaders
    (``repro.store.load_corpus_labels``) dispatch here."""
    manifest, _ = _read_manifest(path)
    rows: list[Label] = []
    for name, _count in manifest.segments:
        with open(os.path.join(path, name), "rb") as handle:
            rows.extend(load_labels(handle))
    delta = _scan_wal(os.path.join(path, manifest.wal)).columns
    rows.extend(map(Label, *delta))
    return rows


# -- engine integration --------------------------------------------------------


def _segment(store, index: int, kind: str):
    """One queryable shard: the store, its compiler and its columnar
    runtime, built once and then shared by every snapshot engine."""
    from .lpath.compiler import PlanCompiler
    from .plan.segmented import Segment

    compiler = PlanCompiler(store)
    compiler.columnar_runtime  # built here, not raced for by first queries
    return Segment(index, compiler, len(store), kind)


def _expired(retired: list, now: float) -> list:
    """Remove and return the objects of a ``(retired at, object)`` list
    whose grace period is over.  Entries are appended in time order, so
    they are a prefix: O(expired) work, not a walk of every engine the
    last :data:`ENGINE_GRACE_SECONDS` retired."""
    count = 0
    for retired_at, _ in retired:
        if now - retired_at < ENGINE_GRACE_SECONDS:
            break
        count += 1
    expired = [item for _, item in retired[:count]]
    del retired[:count]
    return expired


class _LiveSegments:
    """The physical state behind a live corpus's snapshot engines, kept
    across snapshots because almost none of it changes between them.

    *Base files* are immutable: each is mapped once and each of its
    shards gets one :class:`~repro.plan.segmented.Segment` (store,
    compiler, runtime) for as long as the manifest lists the file — so
    the lazily built value index, projections, statistics and kernel
    column pointers of a base shard are built once, not once per append.
    A file a compaction absorbed stays mapped for
    :data:`ENGINE_GRACE_SECONDS` more, like the engines retired with it,
    so an in-flight query on one of those never reads a closed view.

    The *delta* is a list of immutable in-memory tiers, oldest first.
    Every batch of new WAL rows becomes a tier of its own, then absorbs
    its older neighbour for as long as that neighbour holds less than
    twice its rows (binary-counter style): tiers at least halve from
    one to the next, so there are O(log delta) of them.  Only the new
    batch is sorted (``ColumnStore(*columns)``);
    absorbing is a :meth:`~repro.columnar.ColumnStore.concat`, and every
    tier the merge did not reach is reused as is.  A compaction folds
    the tiers' stores into a new base file (:meth:`delta`); what the WAL
    still holds afterwards restarts the tiers."""

    def __init__(self, corpus: LiveCorpus) -> None:
        self.corpus = corpus
        self.segments: list = []   # what the latest snapshot serves
        self.reused = 0            # segments handed to a second snapshot
        self._files: dict = {}     # base file name -> (MappedCorpus, Segments)
        self._retired: list = []   # (retired at, MappedCorpus) absorbed files
        self._base_names: tuple[str, ...] = ()
        self._tiers: list = []     # delta Segments, oldest first

    @property
    def base_segments(self) -> int:
        return len(self._base_names)

    @property
    def delta_segments(self) -> int:
        return len(self._tiers)

    def delta(self) -> tuple[tuple[str, ...], list]:
        """``(base file names, tier stores)``: what
        :meth:`LiveCorpus.compact` folds instead of re-sorting rows."""
        return self._base_names, [
            tier.compiler.column_store for tier in self._tiers
        ]

    def advance(self) -> list:
        """Catch up with the corpus; returns the segment list of the new
        snapshot (base shards in manifest order, then the delta tiers).
        Costs O(new WAL rows) amortized, plus one file open per base
        file not seen before."""
        covered = sum(tier.size for tier in self._tiers)
        names, fresh = self.corpus.snapshot(after=covered)
        if names != self._base_names:
            # Compacted since the last snapshot: the delta restarted.
            names, fresh = self.corpus.snapshot()
            self._tiers = []
            self._base_names = names
            retired_at = time.monotonic()
            for name in [name for name in self._files if name not in names]:
                self._retired.append((retired_at, self._files.pop(name)[0]))
        base = []
        for name in names:
            entry = self._files.get(name)
            if entry is None:
                mapped = open_mapped_corpus(
                    os.path.join(self.corpus.root, name)
                )
                self._files[name] = entry = (mapped, [])
                for shard in mapped.segments:
                    entry[1].append(_segment(
                        ColumnStore.adopt(shard),
                        len(base) + len(entry[1]), "base",
                    ))
            base.extend(entry[1])
        if fresh[0] or not (base or self._tiers):
            stores = [ColumnStore(*fresh)]
            rows = len(fresh[0])
            keep = len(self._tiers)
            while keep and self._tiers[keep - 1].size < 2 * rows:
                keep -= 1
                stores.insert(0, self._tiers[keep].compiler.column_store)
                rows += self._tiers[keep].size
            store = stores[0] if len(stores) == 1 else ColumnStore.concat(stores)
            self._tiers[keep:] = [_segment(store, len(base) + keep, "delta")]
        previous = {id(segment) for segment in self.segments}
        self.segments = base + self._tiers
        self.reused += sum(
            id(segment) in previous for segment in self.segments
        )
        return self.segments

    def reap(self, now: float) -> None:
        """Unmap the absorbed files whose grace period is over."""
        for mapped in _expired(self._retired, now):
            with contextlib.suppress(Exception):
                mapped.close()

    def close(self) -> None:
        """Unmap the base files (every engine over them is dead after
        this) and close the corpus."""
        mappings = [mapped for mapped, _ in self._files.values()]
        mappings += [mapped for _, mapped in self._retired]
        for mapped in mappings:
            with contextlib.suppress(Exception):
                mapped.close()
        self._files.clear()
        self._retired = []
        self.segments = []
        self._tiers = []
        self.corpus.close()


def open_live_engine(path: str, plan_cache_size: int = 128):
    """Open a live corpus as a *snapshot* engine: base segments mmap'd
    zero-copy, the WAL replayed into one in-memory delta segment,
    results merged through the ordinary sorted disjoint segment merge.

    The snapshot does not see later appends — re-open (or use
    :class:`LiveEngineManager`, which the daemon does) to follow the
    log."""
    from .lpath.engine import LPathEngine
    from .plan.cache import PlanCache

    state = _LiveSegments(LiveCorpus(path, writable=False))
    try:
        engine = LPathEngine.from_segments(
            state.advance(), PlanCache(plan_cache_size)
        )
    except BaseException:
        state.close()
        raise
    engine._mapped = state  # engine.close() unmaps and closes the corpus
    return engine


# -- serving: an engine that follows the log -----------------------------------


class LiveEngineManager:
    """Owns a writable :class:`LiveCorpus` plus the engine serving it,
    swapping in a new snapshot engine after every append/compaction
    (read-your-writes) while retired engines linger for a grace period
    so in-flight queries finish on the snapshot they resolved.

    A swap costs O(rows appended), not O(corpus): the engines are thin
    shells over state this manager keeps (:class:`_LiveSegments`) —
    base-file segments and untouched delta tiers are the *same objects*
    in consecutive engines, and the incoming engine starts from the
    plans the outgoing one compiled or ran
    (:meth:`~repro.plan.cache.PlanCache.carry`); each is rebased onto
    the new segment list on its first hit, physical-compiling only the
    segments that are new.  A plan that sat unused through a whole
    snapshot is dropped instead, so a carried plan never pins delta
    tiers older than the retired engine's.

    The mapped base files are owned *here*, not by any engine
    (``engine._mapped`` stays ``None`` for swapped engines), so a swap
    never unmaps pages a retired engine still reads."""

    def __init__(
        self,
        path: str,
        writable: bool = True,
        plan_cache_size: int = 128,
        compact_rows: int = 0,
        compact_interval: float = 0.25,
    ) -> None:
        from .plan.cache import PlanCache

        self.corpus = LiveCorpus(path, writable=writable)
        self._lock = threading.RLock()
        self._compact_lock = threading.Lock()
        self._state = _LiveSegments(self.corpus)
        self._retired: list[tuple[float, object]] = []
        self.appends = 0
        self.compactions = 0
        self.compacting = False
        self.last_compaction: Optional[dict] = None
        self.plans_carried = 0
        self._plans_rebased = 0  # by engines already retired
        self.compact_rows = int(compact_rows)
        self._compact_interval = compact_interval
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self.engine = None
        try:
            self.engine = self._build(PlanCache(plan_cache_size))
        except BaseException:
            self._state.close()
            raise
        if self.compact_rows > 0 and writable:
            self._thread = threading.Thread(
                target=self._compactor_loop,
                name="live-compactor",
                daemon=True,
            )
            self._thread.start()

    # -- engine builds ---------------------------------------------------------

    def _build(self, plan_cache):
        from .lpath.engine import LPathEngine

        return LPathEngine.from_segments(self._state.advance(), plan_cache)

    def _swap(self) -> None:
        """Serve the current snapshot from a new engine that shares every
        unchanged segment and carries the live plans of the old one,
        which is retired (closed after the grace period)."""
        with self._lock:
            old = self.engine
            current = old._compiler.segments
            plans = old.plan_cache.carry(
                lambda plan: plan.segments is current
            )
            self.engine = self._build(plans)
            self.plans_carried += len(plans)
            self._plans_rebased += old.plan_cache.rebased
            self._retired.append((time.monotonic(), old))
            self._reap()

    def _reap(self) -> None:
        """Close the retired engines, and unmap the absorbed base files,
        whose grace period is over."""
        now = time.monotonic()
        with self._lock:
            for engine in _expired(self._retired, now):
                with contextlib.suppress(Exception):
                    engine.close()
            self._state.reap(now)

    def fingerprint(self) -> str:
        return self.corpus.fingerprint

    # -- mutations -------------------------------------------------------------

    def append_trees(self, text: str) -> dict:
        with self._lock:
            result = self.corpus.append_trees(text)
            self._swap()
            self.appends += 1
            result["fingerprint"] = self.corpus.fingerprint
            return result

    def compact(self) -> dict:
        """Run one compaction (no-op when the delta is empty).  Only one
        compaction runs at a time; a second caller gets a skipped
        status instead of queueing."""
        if not self._compact_lock.acquire(blocking=False):
            return {"skipped": "compaction already running"}
        try:
            self.compacting = True
            try:
                # Appends swap under this lock, so the tiers cover every
                # acknowledged row: the compaction folds them as built.
                with self._lock:
                    delta = self._state.delta()
                status = self.corpus.compact(delta)
            finally:
                self.compacting = False
            if status.get("compacted_rows"):
                with self._lock:
                    self._swap()
                    self.compactions += 1
            self.last_compaction = status
            return status
        finally:
            self._compact_lock.release()

    def _compactor_loop(self) -> None:
        while not self._stop.wait(self._compact_interval):
            self._reap()
            try:
                if self.corpus.delta_row_count >= self.compact_rows:
                    self.compact()
            except StoreError as error:
                self.last_compaction = {"error": str(error)}

    # -- observability ---------------------------------------------------------

    def status(self) -> dict:
        self._reap()
        with self._lock:
            return {
                "generation": self.corpus.generation,
                "base_rows": self.corpus.base_rows,
                "delta_rows": self.corpus.delta_row_count,
                "wal_records": self.corpus.wal_records,
                "next_tid": self.corpus.next_tid,
                "appends": self.appends,
                "compactions": self.compactions,
                "compacting": self.compacting,
                "auto_compact_rows": self.compact_rows or None,
                "last_compaction": self.last_compaction,
                "last_recovery": self.corpus.manifest.last_recovery or None,
                "retired_engines": len(self._retired),
                "base_segments": self._state.base_segments,
                "delta_segments": self._state.delta_segments,
                "segments_reused": self._state.reused,
                "plans_carried": self.plans_carried,
                "plans_rebased": self._plans_rebased + (
                    self.engine.plan_cache.rebased
                    if self.engine is not None else 0
                ),
            }

    def verify(self) -> tuple[bool, Optional[str]]:
        return self.corpus.verify_on_disk()

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        with self._lock:
            engines = [engine for _, engine in self._retired]
            self._retired = []
            if self.engine is not None:
                self._plans_rebased += self.engine.plan_cache.rebased
                engines.append(self.engine)
                self.engine = None
            for engine in engines:
                with contextlib.suppress(Exception):
                    engine.close()
            self._state.close()
