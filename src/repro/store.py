"""Compiled-corpus storage: persist label relations to a binary file.

TGrep2 queries a "binary file representation of the data"; the analogous
artifact for the LPath engine is the labeled relation itself.  This module
writes ``node(tid, left, right, depth, id, pid, name, value)`` rows to a
binary file so an engine can start without re-parsing and re-labeling
the treebank.  Two on-disk revisions exist:

* ``LPDB0004`` — the *zero-copy* file layout: a small varint sidecar
  (string table, per-name directory with collected ``NameStats``,
  per-tree directories, blob offsets — everything O(segments + names +
  trees)) followed by an 8-aligned data region holding each segment's
  columns as raw native-endian int64 blobs *in clustered order*, plus
  the derived structures (``(tid, id)`` and children permutations,
  attribute/edge bitmaps, per-``(name, tid)`` partition bounds) — the
  very buffers a built :class:`~repro.columnar.ColumnStore` holds, so a
  save writes them as they are.  Segments partition the corpus by tree
  (``tid``): each is a self-contained shard one store adopts and queries.
  Opening the file (:func:`open_mapped_corpus`) ``mmap``\\ s it and
  adopts ``memoryview``\\ s straight off the map — no per-row decode, no
  sort, no statistics scan;
* ``LPDB0005`` — the *live* layout (:mod:`repro.live`): a **directory**
  of immutable base ``LPDB0004`` segment files, an append-only
  write-ahead log of row batches (length+CRC-framed, fsync'd before
  acknowledgement), and a generation-numbered manifest installed
  atomically (write-temp → fsync → ``os.replace`` → fsync(dir)).  The
  path-level helpers here (:func:`corpus_format`, :func:`corpus_info`,
  :func:`store_fingerprint`, ...) dispatch directories to that module.

The row-encoded revisions ``LPDB0001``–``LPDB0003`` are retired: every
reader names them (:data:`RETIRED_REVISIONS`) and refuses them with
:class:`StoreError`; re-compiling the treebank writes ``LPDB0004``.

Every *file* write goes through :func:`atomic_write`: the bytes land in
a same-directory temp file, are fsync'd, and only then atomically
renamed over the destination — a crash mid-save can leave a stray temp
file but can never truncate a previously good store.

Readers verify the magic, the sidecar's length and CRC-32, the declared
file size and every blob offset/length, so truncation and metadata
corruption fail loudly with :class:`StoreError` instead of decoding to
garbage.  The column blobs themselves are trusted after those checks —
re-checksumming gigabytes of columns on every open would defeat the
O(1) cold start.
"""

from __future__ import annotations

import contextlib
import io
import mmap as _mmap_module
import os
import shutil
import sys
import tempfile
import zlib
from dataclasses import dataclass, replace
from functools import partial
from itertools import chain
from operator import attrgetter
from typing import BinaryIO, Iterable, Iterator, NamedTuple, Optional, Sequence

from .labeling.lpath_scheme import Label
from .tree.node import collector_paused

MMAP_MAGIC = b"LPDB0004"
#: The live *directory* layout's manifest magic (:mod:`repro.live`).
LIVE_MAGIC = b"LPDB0005"
LIVE_FORMAT = "lpdb0005"
#: The retired row-encoded revisions, by magic, with what each one was.
#: Every reader refuses them (:func:`_check_magic`).
RETIRED_REVISIONS = {
    b"LPDB0001": "unchecksummed varint rows",
    b"LPDB0002": "checksummed varint rows",
    b"LPDB0003": "segmented varint rows",
}
#: The two labelings a store's columns can hold: Definition 4.1 (the
#: default) and the start/end labels of Section 5.4's XPath comparator.
#: An LPDB0004 sidecar marks a start/end file with :data:`_START_END_FLAG`.
LPATH_LABELS, START_END_LABELS = "lpath-4.1", "start-end"


class StoreError(ValueError):
    """Raised for unreadable or corrupt corpus files."""


class RetiredRevisionError(StoreError):
    """Raised for a file of a retired revision (:data:`RETIRED_REVISIONS`)."""


def _check_magic(magic: bytes) -> None:
    """Raise :class:`StoreError` unless ``magic`` is the ``LPDB0004``
    file magic; a retired revision's error names it and the way out."""
    if magic == MMAP_MAGIC:
        return
    retired = RETIRED_REVISIONS.get(magic)
    if retired is not None:
        raise RetiredRevisionError(
            f"{magic.decode('ascii')} ({retired}) is a retired store "
            "revision this version no longer reads; re-run `repro compile` "
            "from the treebank to write LPDB0004"
        )
    raise StoreError(
        "not a compiled corpus file (bad magic; expected LPDB0004, or an "
        "LPDB0005 directory)"
    )


def fsync_directory(path: str) -> None:
    """fsync a directory so a just-renamed/created entry is durable.

    Best-effort on platforms whose directory handles refuse ``fsync``
    (the rename itself is still atomic there)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    finally:
        os.close(fd)


@contextlib.contextmanager
def atomic_write(path: str) -> Iterator[BinaryIO]:
    """Write ``path`` crash-safely: temp file in the same directory,
    flush + fsync, then ``os.replace`` over the destination and fsync
    the directory.

    A crash (or an exception — the temp file is removed) at any point
    before the rename leaves the previous contents of ``path``
    untouched; after the rename the new contents are complete.  There is
    no window in which ``path`` is truncated or half-written, which is
    what makes re-saving over a live store safe."""
    absolute = os.path.abspath(path)
    directory = os.path.dirname(absolute)
    temp = os.path.join(
        directory, f".{os.path.basename(absolute)}.tmp-{os.getpid()}"
    )
    handle = open(temp, "wb")
    try:
        yield handle
        handle.flush()
        os.fsync(handle.fileno())
    except BaseException:
        handle.close()
        with contextlib.suppress(OSError):
            os.unlink(temp)
        raise
    handle.close()
    os.replace(temp, absolute)
    fsync_directory(directory)


def _varints(values) -> bytes:
    """``values`` as concatenated varints, encoded in one loop."""
    out = bytearray()
    append = out.append
    for value in values:
        if value < 0:
            raise StoreError(f"cannot encode negative value {value}")
        while value > 0x7F:
            append(value & 0x7F | 0x80)
            value >>= 7
        append(value)
    return bytes(out)


def _write_varint(out: BinaryIO, value: int) -> None:
    out.write(_varints((value,)))


def _write_strings(out: BinaryIO, strings) -> None:
    """A string table: each entry's UTF-8 length, then its bytes."""
    for text in strings:
        encoded = text.encode("utf-8")
        out.write(_varints((len(encoded),)))
        out.write(encoded)


def _read_varints(data, offset: int, count: int) -> tuple[list, int]:
    """``count`` varints from ``offset`` of ``data``, decoded in one loop
    (no call per varint); returns them and the offset past them."""
    values: list[int] = []
    append = values.append
    size = len(data)
    for _ in range(count):
        if offset >= size:
            raise StoreError("truncated varint")
        byte = data[offset]
        offset += 1
        if byte < 0x80:
            append(byte)
            continue
        value, shift = byte & 0x7F, 7
        while True:
            if offset >= size:
                raise StoreError("truncated varint")
            if shift > 63:
                raise StoreError("varint out of range")
            byte = data[offset]
            offset += 1
            value |= (byte & 0x7F) << shift
            if byte < 0x80:
                break
            shift += 7
        # No legitimate field exceeds a signed 64-bit value; anything
        # larger is corruption (and would otherwise overflow the column
        # arrays).
        if value >= 1 << 63:
            raise StoreError("varint out of range")
        append(value)
    return values, offset


def _read_varint(data, offset: int) -> tuple[int, int]:
    (value,), offset = _read_varints(data, offset, 1)
    return value, offset


def _read_strings(data, offset: int, count: int) -> tuple[list, int]:
    """``count`` string-table entries from ``offset`` of ``data`` (the
    :func:`_write_strings` layout) in one loop; returns them and the
    offset past them."""
    strings: list[str] = []
    size = len(data)
    try:
        for _ in range(count):
            if offset < size and data[offset] < 0x80:  # a one-byte length
                end = offset + 1 + data[offset]
                offset += 1
            else:
                length, offset = _read_varint(data, offset)
                end = offset + length
            if end > size:
                raise StoreError("truncated string table")
            strings.append(data[offset:end].decode("utf-8"))
            offset = end
    except UnicodeDecodeError:
        raise StoreError("undecodable string-table entry") from None
    return strings, offset


def _block_header(blob: bytes) -> bytes:
    """The varint length + CRC-32 header :func:`_checked_block` verifies."""
    return _varints((len(blob), zlib.crc32(blob)))


def _checked_block(data, offset: int, what: str) -> tuple[bytes, int]:
    """Verify the length + CRC-32 block (the ``what``) at ``offset`` of
    ``data``; returns its payload and the offset past it."""
    (length, expected_crc), offset = _read_varints(data, offset, 2)
    end = offset + length
    if end > len(data):
        raise StoreError(
            f"{what} length mismatch: header says {length}, "
            f"file has {len(data) - offset}"
        )
    payload = bytes(data[offset:end])
    if zlib.crc32(payload) != expected_crc:
        raise StoreError(f"checksum mismatch: the {what} is corrupt")
    return payload, end


def partition_by_tid(items: Sequence, segments: int, tid_of) -> list[list]:
    """Deal ``items`` (``tid_of`` reads an item's tree id) into
    ``segments`` disjoint shards — the one sharding rule.

    Trees stay whole (every item of one ``tid`` lands in the same shard);
    distinct tids are dealt round-robin in sorted order, so the split is
    deterministic and balanced for the common case of similar tree sizes.
    Shards may be empty when there are fewer trees than segments.
    """
    if segments < 1:
        raise StoreError(f"segment count must be >= 1, got {segments}")
    assignment = {
        tid: index % segments
        for index, tid in enumerate(sorted(set(map(tid_of, items))))
    }
    shards: list[list] = [[] for _ in range(segments)]
    for item in items:
        shards[assignment[tid_of(item)]].append(item)
    return shards


def tree_stores(trees: Sequence, segments: int) -> Iterator:
    """One :class:`~repro.columnar.ColumnStore` per shard of ``trees``
    (:func:`partition_by_tid`), labelled straight into columns
    (:func:`~repro.labeling.lpath_scheme.label_columns`); built lazily,
    so :func:`save_mapped_stores` holds one shard's store at a time."""
    from .columnar.store import ColumnStore
    from .labeling.lpath_scheme import label_columns

    shards = partition_by_tid(trees, segments, attrgetter("tid"))
    return (ColumnStore(*label_columns(shard)) for shard in shards)


# -- file helpers -------------------------------------------------------------


def save_corpus(
    trees: Iterable, path: str, segments: int = 1,
    format: Optional[str] = None,
) -> int:
    """Label a corpus of trees and save it; returns the row count.

    ``segments > 1`` shards the corpus by tree.  ``format`` is
    ``"lpdb0004"`` (the default: one zero-copy file, written through
    :func:`atomic_write`, so a crash mid-save never destroys a previously
    good store at ``path``) or ``"lpdb0005"`` (a live *directory*, via
    :mod:`repro.live`)."""
    format = "lpdb0004" if format is None else format.lower()
    if format not in ("lpdb0004", LIVE_FORMAT):
        raise StoreError(
            f"unknown store format {format!r}; choose lpdb0004 or lpdb0005"
        )
    trees = list(trees)
    stores = tree_stores(trees, segments)
    with collector_paused():
        if format == LIVE_FORMAT:
            from .live import create_live_stores

            next_tid = max((tree.tid for tree in trees), default=-1) + 1
            return create_live_stores(path, stores, next_tid)
        with atomic_write(path) as handle:
            return save_mapped_stores(stores, handle)


def load_corpus_labels(path: str) -> list[Label]:
    """Load label rows from a compiled corpus file (for a live
    directory: every base segment's rows plus the WAL delta)."""
    if os.path.isdir(path):
        from .live import load_live_labels

        return load_live_labels(path)
    with open(path, "rb") as handle:
        return load_labels(handle)


def corpus_format(path: str) -> str:
    """The on-disk revision, from the magic alone: ``"LPDB0004"`` for a
    compiled corpus file, ``"LPDB0005"`` for a live directory (read off
    its manifest).  Anything else raises :class:`StoreError` — a retired
    revision by name (:data:`RETIRED_REVISIONS`)."""
    if os.path.isdir(path):
        from .live import MANIFEST_NAME

        try:
            with open(os.path.join(path, MANIFEST_NAME), "rb") as handle:
                magic = handle.read(len(LIVE_MAGIC))
        except OSError:
            raise StoreError(
                f"not a live corpus: {path!r} has no readable {MANIFEST_NAME}"
            ) from None
        if magic != LIVE_MAGIC:
            raise StoreError(
                f"bad manifest magic in {path!r}; expected LPDB0005"
            )
        return LIVE_MAGIC.decode("ascii")
    with open(path, "rb") as handle:
        _check_magic(handle.read(len(MMAP_MAGIC)))
    return MMAP_MAGIC.decode("ascii")


def is_compiled_corpus(path: str) -> bool:
    """Cheap sniff: does :func:`corpus_format` accept ``path``?  A file of
    a retired revision raises its :class:`RetiredRevisionError` instead
    of answering ``False``, so no caller mistakes it for a treebank."""
    try:
        corpus_format(path)
    except RetiredRevisionError:
        raise
    except (StoreError, OSError):
        return False
    return True


#: How much of a store file the fingerprint reads: the whole header region
#: (the entire LPDB0004 sidecar, which itself checksums all metadata, sits
#: inside the first 64 KiB for any realistic corpus) plus a tail window, so
#: both a metadata edit and a truncation/append change the digest.
_FINGERPRINT_HEAD = 64 * 1024
_FINGERPRINT_TAIL = 4 * 1024


def store_fingerprint(path: str) -> str:
    """A cheap, content-derived identity for a compiled corpus file.

    The serving layer keys its result cache on this value, so it must
    change whenever the store's bytes change and must *not* change when
    the same file is copied, re-opened or served from another path.  It
    digests the format magic, the file size and a CRC-32 over the head
    and tail windows — O(1) in the corpus size, in keeping with the
    zero-copy open — rather than hashing gigabytes of column blobs; the
    head window covers the whole sidecar, so any re-save reshuffles it.
    Live directories digest their manifest bytes plus the WAL size, so
    every acknowledged append and every installed generation changes the
    fingerprint (read-your-writes for the serving result cache).
    Raises :class:`StoreError` for files without the LPDB0004 magic."""
    if os.path.isdir(path):
        from .live import live_fingerprint

        return live_fingerprint(path)
    revision = corpus_format(path)  # validates the magic
    size = os.path.getsize(path)
    with open(path, "rb") as handle:
        digest = zlib.crc32(handle.read(_FINGERPRINT_HEAD))
        if size > _FINGERPRINT_HEAD:
            handle.seek(max(_FINGERPRINT_HEAD, size - _FINGERPRINT_TAIL))
            digest = zlib.crc32(handle.read(), digest)
    return f"{revision.lower()}-{size}-{digest:08x}"


# -- the LPDB0004 zero-copy layout ---------------------------------------------
#
# magic | sidecar block (varint length + CRC-32 + payload) | pad to 8 | data
#
# The sidecar holds everything small (string table, directories, blob
# offsets); the data region holds the per-segment columns and derived
# permutations as raw native-endian int64 blobs, every blob starting on an
# 8-byte boundary so a ``memoryview.cast("q")`` adopts it in place.  Blob
# order per segment (offsets are relative to the data region):

#: 8n-byte int64 blobs, in clustered row order.
_INT64_BLOBS = (
    "tid", "left", "right", "depth", "id", "pid",
    "name_ids", "value_ids",           # string-table references per row
    "tid_id_perm", "perm_ids",         # the (tid, id) projection
    "children_perm",                   # the CSR children permutation
)
#: n-byte bitmap blobs.
_BYTE_BLOBS = ("is_attr", "right_edge")
#: Variable-length int64 blobs: per-(name, tid) partition bounds (P
#: entries each) and CSR children groups (G and G+1 entries).
_AUX_BLOBS = ("part_tids", "part_starts", "child_pids", "child_starts")
_BLOB_NAMES = _INT64_BLOBS + _BYTE_BLOBS + _AUX_BLOBS
_BLOB_COUNT = len(_BLOB_NAMES)


def _align8(value: int) -> int:
    return (value + 7) & ~7


@dataclass
class MmapSegmentMeta:
    """The sidecar record for one segment (round-trippable: parse →
    mutate → :func:`_encode_mmap_sidecar` is how corruption tests craft
    precisely broken files)."""

    n: int
    strings: list          # 1-based string table (index 0 means "no value")
    blobs: list            # (offset, length) per blob, `_BLOB_COUNT` entries
    root_right: list       # (tid, root right edge) pairs
    tid_dir: list          # (tid, slot hi) over tid_id_perm; lo chains
    child_tid_dir: list    # (tid, group hi) over the children groups
    store_stats: tuple     # (rows, partitions, max_partition, min/max depth)
    names: list            # (string id, row hi, partition hi,
                           #  max_partition, min_depth, max_depth); chained


@dataclass
class MmapHeader:
    """The parsed LPDB0004 sidecar."""

    byteorder: str
    data_length: int
    segments: list
    scheme: str = LPATH_LABELS


#: The sidecar's first byte: bit 0 is the byte order (set: big-endian),
#: bit 1 marks start/end labels.  A Definition 4.1 little-endian file
#: keeps the byte 0; a build that knew only the byte order reads a tagged
#: file as big-endian and refuses it as a foreign byte order.
_BIG_ENDIAN_FLAG, _START_END_FLAG = 1, 2


def _encode_mmap_sidecar(header: MmapHeader) -> bytes:
    out = io.BytesIO()
    out.write(bytes((
        (header.byteorder == "big") * _BIG_ENDIAN_FLAG
        | (header.scheme == START_END_LABELS) * _START_END_FLAG,
    )))
    out.write(_varints((header.data_length, len(header.segments))))
    for meta in header.segments:
        if len(meta.blobs) != _BLOB_COUNT:
            raise StoreError(
                f"segment declares {len(meta.blobs)} blobs, "
                f"expected {_BLOB_COUNT}"
            )
        out.write(_varints((meta.n, len(meta.strings))))
        _write_strings(out, meta.strings)
        values = [*chain.from_iterable(meta.blobs)]
        for pairs in (meta.root_right, meta.tid_dir, meta.child_tid_dir):
            values.append(len(pairs))
            values += chain.from_iterable(pairs)
        values += (*meta.store_stats, len(meta.names))
        values += chain.from_iterable(meta.names)
        out.write(_varints(values))
    return out.getvalue()


def _pairs(values: list) -> list:
    return list(zip(values[::2], values[1::2]))


def _parse_mmap_sidecar(payload: bytes) -> MmapHeader:
    """Decode the sidecar: each run of varints (the blob table, a
    directory, the name entries) is one :func:`_read_varints` loop, and
    the string table one loop of its own."""
    if not payload:
        raise StoreError("empty LPDB0004 sidecar")
    flags = payload[0]
    if flags & ~(_BIG_ENDIAN_FLAG | _START_END_FLAG):
        raise StoreError(f"unknown LPDB0004 sidecar flags {flags:#04x}")
    byteorder = "big" if flags & _BIG_ENDIAN_FLAG else "little"
    scheme = START_END_LABELS if flags & _START_END_FLAG else LPATH_LABELS
    (data_length, segment_count), offset = _read_varints(payload, 1, 2)
    segments = []
    for _ in range(segment_count):
        (n, table_size), offset = _read_varints(payload, offset, 2)
        strings, offset = _read_strings(payload, offset, table_size)
        blobs, offset = _read_varints(payload, offset, 2 * _BLOB_COUNT)
        directories = []
        for _ in range(3):
            (pairs,), offset = _read_varints(payload, offset, 1)
            values, offset = _read_varints(payload, offset, 2 * pairs)
            directories.append(_pairs(values))
        stats, offset = _read_varints(payload, offset, 6)
        values, offset = _read_varints(payload, offset, 6 * stats.pop())
        segments.append(MmapSegmentMeta(
            n, strings, _pairs(blobs), *directories, tuple(stats),
            list(zip(*[iter(values)] * 6)),
        ))
    if offset != len(payload):
        raise StoreError(
            f"{len(payload) - offset} trailing bytes in the LPDB0004 sidecar"
        )
    return MmapHeader(byteorder, data_length, segments, scheme)


def save_mapped_stores(stores: Iterable, stream: BinaryIO) -> int:
    """Write :class:`~repro.columnar.ColumnStore`\\ s, one per segment, in
    the ``LPDB0004`` layout; returns rows written.  A store's buffers
    already are the segment's blobs (clustered columns, projections,
    bitmaps, partition bounds; statistics in the sidecar record), so
    *opening* the file needs none of that work.  One segment is held
    at a time: ``stores`` is consumed lazily, each store's buffers go as
    they are to an anonymous spill file beside ``stream.name`` (in the
    temp directory for a nameless stream) and the store is dropped before
    the next is requested.  The magic, sidecar and padding follow the
    last segment, then the spill is copied in after them.  The sidecar
    records the stores' label scheme; they must all hold the same one."""
    name = getattr(stream, "name", None)
    directory = (os.path.dirname(name) or ".") if isinstance(name, str) else None
    schemes: set = set()
    with tempfile.TemporaryFile(dir=directory) as spill:
        metas = list(map(partial(_spill_segment, spill, schemes), stores))
        if len(schemes) > 1:
            raise StoreError(f"segments mix label schemes {sorted(schemes)}")
        header = MmapHeader(sys.byteorder, spill.tell(), metas, *schemes)
        sidecar = _encode_mmap_sidecar(header)
        prefix = MMAP_MAGIC + _block_header(sidecar) + sidecar
        stream.write(prefix + b"\x00" * (_align8(len(prefix)) - len(prefix)))
        spill.seek(0)
        shutil.copyfileobj(spill, stream)
    return sum(meta.n for meta in metas)


def _spill_segment(spill: BinaryIO, schemes: set, store) -> MmapSegmentMeta:
    """Append one store's buffers to ``spill``, each padded to 8 bytes,
    add its label scheme to ``schemes`` and return its segment record
    with their offsets.  Called through ``map``, so nothing holds the
    store once it returns."""
    schemes.add(store.scheme)
    segment = store.segment
    meta = replace(segment.meta, blobs=[])
    for buffer in segment.buffers:
        length = memoryview(buffer).nbytes
        meta.blobs.append((spill.tell(), length))
        spill.write(buffer)
        spill.write(b"\x00" * (_align8(length) - length))
    return meta


class NameStats(NamedTuple):
    """Collected statistics for one name partition, feeding the
    optimizer's join cost model (:mod:`repro.plan.optimizer` /
    :mod:`repro.columnar.structural`)."""

    rows: int            # rows carrying the name across the corpus
    partitions: int      # distinct (name, tid) partitions
    max_partition: int   # rows in the largest per-tree partition
    min_depth: int       # shallowest occurrence (0 when absent)
    max_depth: int       # deepest occurrence (0 when absent)


class MappedSegment:
    """One ``LPDB0004`` segment: its sidecar record (``meta``) with the
    directories decoded, and its 17 blob ``buffers`` — ``memoryview``\\ s
    cast to int64 over an opened file's ``mmap`` (``mapped``), or the
    arrays a store build laid out.  ``table`` is the 1-based string
    table with ``table[0] is None``; ``name_dir`` maps a name to its
    partitions' range, ``child_tid_dir`` a tree to its children groups'
    range; ``name_stats[None]`` summarizes the segment."""

    __slots__ = (
        "n", "meta", "buffers", "mapped", "table", "root_right", "tid_bounds",
        "child_tid_dir", "name_bounds", "name_dir", "name_stats",
    ) + _BLOB_NAMES

    def __init__(self, meta: MmapSegmentMeta, buffers: list,
                 mapped: bool = False) -> None:
        for attr, buffer in zip(_BLOB_NAMES, buffers):
            setattr(self, attr, buffer)
        n = meta.n
        partitions = meta.names[-1][2] if meta.names else 0
        groups = meta.child_tid_dir[-1][1] if meta.child_tid_dir else 0
        self.n = n
        self.meta = meta
        self.buffers = buffers
        self.mapped = mapped
        self.table = table = [None] + meta.strings
        self.root_right = dict(meta.root_right)
        self.tid_bounds = _chained(meta.tid_dir, n, "(tid, id) directory", True)
        self.child_tid_dir = _chained(meta.child_tid_dir, groups, "children directory")

        self.name_bounds, self.name_dir = {}, {}
        self.name_stats = {None: NameStats(*meta.store_stats)}
        row_lo = part_lo = 0
        for sid, row_hi, part_hi, max_partition, min_depth, max_depth in meta.names:
            if not 1 <= sid <= len(meta.strings):
                raise StoreError("name directory references a bad string id")
            if not (row_lo < row_hi <= n and part_lo < part_hi <= partitions):
                raise StoreError("corrupt name directory")
            name = table[sid]
            self.name_bounds[name] = (row_lo, row_hi)
            self.name_dir[name] = (part_lo, part_hi)
            self.name_stats[name] = NameStats(
                row_hi - row_lo, part_hi - part_lo,
                max_partition, min_depth, max_depth,
            )
            row_lo, part_lo = row_hi, part_hi
        if row_lo != n or part_lo != partitions:
            raise StoreError("corrupt name directory")


def _chained(pairs: list, end: int, what: str, full: bool = False) -> dict:
    """``key -> (lo, hi)`` from ``(key, hi)`` pairs whose ``lo`` is the
    previous ``hi`` (from 0), each within ``end`` — and, when ``full``,
    the last reaching it."""
    bounds = {}
    lo = 0
    for key, hi in pairs:
        if not lo <= hi <= end:
            raise StoreError(f"corrupt {what}")
        bounds[key] = (lo, hi)
        lo = hi
    if full and lo != end:
        raise StoreError(f"corrupt {what}")
    return bounds


def _segment_views(meta: MmapSegmentMeta, region, views: list) -> list:
    """One segment's blob views over the data ``region``, each checked
    for alignment, declared length and bounds; every view is appended to
    ``views`` too."""
    n = meta.n
    partitions = meta.names[-1][2] if meta.names else 0
    groups = meta.child_tid_dir[-1][1] if meta.child_tid_dir else 0
    expected = (
        [8 * n] * len(_INT64_BLOBS) + [n] * len(_BYTE_BLOBS)
        + [8 * partitions, 8 * partitions, 8 * groups, 8 * (groups + 1)]
    )
    buffers = []
    for attr, (offset, length), want in zip(_BLOB_NAMES, meta.blobs, expected):
        if offset % 8:
            raise StoreError(
                f"misaligned column blob {attr!r} at offset {offset}"
            )
        if length != want:
            raise StoreError(
                f"column blob {attr!r} declares {length} bytes, "
                f"expected {want}"
            )
        if offset + length > len(region):
            raise StoreError(
                f"column blob {attr!r} overruns the data region"
            )
        view = region[offset:offset + length]
        if attr not in _BYTE_BLOBS:
            view = view.cast("q")
        views.append(view)
        buffers.append(view)
    return buffers


class MappedCorpus:
    """An opened ``LPDB0004`` file: the ``mmap``, its label ``scheme``, its
    segments, and every view handed out.  :meth:`close` releases the
    views (queries through them then raise) and unmaps the file;
    idempotent."""

    def __init__(self, path, scheme, segments, views, mapping=None,
                 handle=None):
        self.path = path
        self.scheme = scheme
        self.segments = segments
        self._views = views
        self._mapping = mapping
        self._handle = handle

    def close(self) -> None:
        for view in self._views:
            view.release()
        self._views = []
        if self._mapping is not None:
            self._mapping.close()
            self._mapping = None
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "MappedCorpus":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _read_header(buffer) -> tuple[MmapHeader, int]:
    """Verify the magic and the sidecar block at the front of ``buffer``
    (bytes, an ``mmap`` or a ``memoryview``); returns the parsed sidecar
    and the offset just past it."""
    _check_magic(bytes(buffer[:len(MMAP_MAGIC)]))
    sidecar, end = _checked_block(buffer, len(MMAP_MAGIC), "sidecar")
    return _parse_mmap_sidecar(sidecar), end


def _parse_mapped(buffer, views: list) -> tuple[str, list[MappedSegment]]:
    """Parse an ``LPDB0004`` buffer (bytes or an ``mmap``) into its label
    scheme and its segments; every created view is appended to ``views``
    so a caller owning an mmap can release them all on close (or on a
    parse failure)."""
    base = memoryview(buffer)
    views.append(base)
    header, end = _read_header(base)
    if header.byteorder != sys.byteorder:
        raise StoreError(
            f"foreign byte order: file is {header.byteorder}-endian, "
            f"host is {sys.byteorder}-endian"
        )
    region_start = _align8(end)
    if len(base) != region_start + header.data_length:
        raise StoreError(
            f"file size mismatch: expected {region_start + header.data_length}"
            f" bytes, found {len(base)} (truncated or trailing bytes)"
        )
    region = base[region_start:]
    views.append(region)
    return header.scheme, [
        MappedSegment(meta, _segment_views(meta, region, views), mapped=True)
        for meta in header.segments
    ]


def _map_file(handle: BinaryIO):
    """A read-only ``mmap`` of an open file (empty files cannot be mapped)."""
    try:
        return _mmap_module.mmap(
            handle.fileno(), 0, access=_mmap_module.ACCESS_READ
        )
    except ValueError:
        raise StoreError("not a compiled corpus file (empty)") from None


def open_mapped_corpus(path: str) -> MappedCorpus:
    """``mmap`` an ``LPDB0004`` file and adopt its segments zero-copy.

    Verifies the magic, the sidecar checksum, the declared file size and
    every blob's offset/length/alignment — O(segments + names + trees)
    work total, independent of the row count.  The returned corpus owns
    the map; :meth:`MappedCorpus.close` invalidates all views."""
    handle = open(path, "rb")
    views: list = []
    mapping = None
    try:
        mapping = _map_file(handle)
        scheme, segments = _parse_mapped(mapping, views)
    except BaseException:
        for view in views:
            view.release()
        if mapping is not None:
            mapping.close()
        handle.close()
        raise
    return MappedCorpus(path, scheme, segments, views, mapping, handle)


def _read_sidecar(path: str) -> MmapHeader:
    """Read and verify just the sidecar of an ``LPDB0004`` file — no
    column data is touched."""
    with open(path, "rb") as handle, _map_file(handle) as mapping:
        return _read_header(mapping)[0]


def load_labels(stream: BinaryIO) -> list[Label]:
    """Read the Definition 4.1 label rows of an ``LPDB0004`` stream,
    segment by segment in clustered order.  Unlike the zero-copy open,
    every string-table reference is checked; a file of start/end labels
    is refused, as its columns are no :class:`Label` rows."""
    scheme, segments = _parse_mapped(stream.read(), [])
    if scheme != LPATH_LABELS:
        raise StoreError(
            f"the file holds {scheme} labels, not Definition 4.1 "
            f"({LPATH_LABELS}) label rows"
        )
    rows: list[Label] = []
    for segment in segments:
        table, size = segment.table, len(segment.table)
        name_ids, value_ids = segment.name_ids, segment.value_ids
        tid, left, right = segment.tid, segment.left, segment.right
        depth, node_id, pid = segment.depth, segment.id, segment.pid
        for row in range(segment.n):
            name_id, value_id = name_ids[row], value_ids[row]
            if not 1 <= name_id < size or not 0 <= value_id < size:
                raise StoreError("string-table reference out of range")
            rows.append(Label(
                tid[row], left[row], right[row], depth[row],
                node_id[row], pid[row], table[name_id], table[value_id],
            ))
    return rows


# -- store inspection ----------------------------------------------------------


class InfoFold:
    """Corpus totals and per-name statistics, folded over the segment
    records of a store — LPDB0004 sidecars, and the segment a live WAL
    delta builds — into the :func:`corpus_info` summary.  Per name: rows,
    partitions (distinct trees), largest partition, min and max depth."""

    def __init__(self, scheme: str = LPATH_LABELS) -> None:
        self.scheme = scheme
        self.segments = self.rows = self.trees = 0
        self.names: dict[str, list] = {}

    def add_segments(self, metas: Iterable[MmapSegmentMeta]) -> None:
        """Segments, from the statistics collected at their build."""
        for meta in metas:
            self.segments += 1
            self.rows += meta.n
            self.trees += len(meta.tid_dir)
            row_lo = part_lo = 0
            for sid, row_hi, part_hi, max_part, min_d, max_d in meta.names:
                entry = self.names.setdefault(
                    meta.strings[sid - 1], [0, 0, max_part, min_d, max_d]
                )
                entry[0] += row_hi - row_lo
                entry[1] += part_hi - part_lo
                entry[2] = max(entry[2], max_part)
                entry[3] = min(entry[3], min_d)
                entry[4] = max(entry[4], max_d)
                row_lo, part_lo = row_hi, part_hi

    def summary(self, path: str, size: int, revision: str, top: int) -> dict:
        ranked = sorted(self.names.items(), key=lambda item: (-item[1][0], item[0]))
        return {
            "path": path,
            "bytes": size,
            "format": revision,
            "scheme": self.scheme,
            "segments": self.segments,
            "rows": self.rows,
            "trees": self.trees,
            "distinct_names": len(self.names),
            "top_names": [(name, tuple(stats)) for name, stats in ranked[:top]],
        }


def corpus_info(path: str, top: int = 10) -> dict:
    """Summarize a compiled corpus: revision, segment/row/tree counts and
    the top-``top`` per-name statistics by row count.

    For ``LPDB0004`` everything comes from the sidecar, the label scheme
    included — no column (let alone value) data is read.  Live
    directories (Definition 4.1 labels only) add their manifest
    generation, WAL record/row counts, delta vs base row split and last
    recovery action (:func:`repro.live.live_info`)."""
    if os.path.isdir(path):
        from .live import live_info

        return live_info(path, top=top)
    header = _read_sidecar(path)
    fold = InfoFold(header.scheme)
    fold.add_segments(header.segments)
    return fold.summary(
        path, os.path.getsize(path), MMAP_MAGIC.decode("ascii"), top
    )
