"""Compiled-corpus storage: persist label relations to a binary file.

TGrep2 queries a "binary file representation of the data"; the analogous
artifact for the LPath engine is the labeled relation itself.  This module
writes ``node(tid, left, right, depth, id, pid, name, value)`` rows to a
compact binary file so an engine can start without re-parsing and
re-labeling the treebank.  Four on-disk revisions exist:

* ``LPDB0001`` — magic + payload, no checksum (read-only legacy);
* ``LPDB0002`` — magic + payload length + CRC-32 + payload, where the
  payload is a row count, a string table (interned names and values —
  tags and words repeat heavily), then rows of seven varint-packed
  integers plus two string-table references;
* ``LPDB0003`` — the *segmented* format: magic + a manifest (segment
  count) followed by one block per segment, each block carrying its own
  length + CRC-32 header over an ``LPDB0002``-shaped payload.  Segments
  partition the corpus by tree (``tid``), so every block is a
  self-contained shard that one :class:`repro.columnar.ColumnStore` can
  adopt independently and query in parallel;
* ``LPDB0004`` — the *zero-copy* layout: a small varint sidecar (string
  table, per-name directory with collected ``NameStats``, per-tree
  directories, blob offsets — everything O(segments + names + trees))
  followed by an 8-aligned data region holding each segment's columns as
  raw native-endian int64 blobs *in clustered order*, plus the derived
  structures a :class:`~repro.columnar.ColumnStore` otherwise builds at
  load time (``(tid, id)`` and children permutations, attribute/edge
  bitmaps, per-``(name, tid)`` partition bounds).  Opening the file
  (:func:`open_mapped_corpus`) ``mmap``\\ s it and adopts ``memoryview``\\ s
  straight off the map — no per-row decode, no sort, no statistics scan;
* ``LPDB0005`` — the *live* layout (:mod:`repro.live`): a **directory**
  of immutable base ``LPDB0004`` segment files, an append-only
  write-ahead log of row batches (length+CRC-framed, fsync'd before
  acknowledgement), and a generation-numbered manifest installed
  atomically (write-temp → fsync → ``os.replace`` → fsync(dir)).  The
  path-level helpers here (:func:`corpus_format`, :func:`corpus_info`,
  :func:`store_fingerprint`, ...) dispatch directories to that module.

Every *file* write goes through :func:`atomic_write`: the bytes land in
a same-directory temp file, are fsync'd, and only then atomically
renamed over the destination — a crash mid-save can leave a stray temp
file but can never truncate a previously good store.

Every revision is self-contained and versioned; the loaders verify the
magic, the declared lengths and the checksums, so truncation and bit
corruption fail loudly with :class:`StoreError` instead of decoding to
garbage.  (``LPDB0004`` checksums its sidecar and validates every blob
offset/length against the file size; the column blobs themselves are
trusted after those checks — re-checksumming gigabytes of columns on
every open would defeat the O(1) cold start.)

Loaders share one payload parser: :func:`load_labels` materializes
``Label`` rows for the row-oriented engine, :func:`load_label_columns`
fills parallel arrays directly — the shape
:class:`repro.columnar.ColumnStore` adopts without ever building a
per-row object — and :func:`load_segment_columns` keeps the shards of an
``LPDB0003``/``LPDB0004`` file apart (older single-store files load as
one segment).
"""

from __future__ import annotations

import contextlib
import io
import mmap as _mmap_module
import os
import sys
import zlib
from array import array
from dataclasses import dataclass, field
from typing import BinaryIO, Iterable, Iterator, Optional, Sequence

from .labeling.lpath_scheme import Label

MAGIC = b"LPDB0002"
LEGACY_MAGIC = b"LPDB0001"
SEGMENTED_MAGIC = b"LPDB0003"
MMAP_MAGIC = b"LPDB0004"
#: The live *directory* layout's manifest magic (:mod:`repro.live`).
LIVE_MAGIC = b"LPDB0005"

#: ``save_labels(format=...)`` spellings, newest last (``lpdb0005`` is a
#: directory layout, valid for :func:`save_corpus` but not for the
#: stream-oriented :func:`save_labels`).
FORMATS = ("lpdb0002", "lpdb0003", "lpdb0004")
LIVE_FORMAT = "lpdb0005"
#: String-table index meaning "no value" (element rows).
_NO_VALUE = 0


class StoreError(ValueError):
    """Raised for unreadable or corrupt corpus files."""


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


def _write_varint(out: BinaryIO, value: int) -> None:
    if value < 0:
        raise StoreError(f"cannot encode negative value {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.write(bytes((byte | 0x80,)))
        else:
            out.write(bytes((byte,)))
            return


def _read_varint(data: bytes, offset: int) -> tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if offset >= len(data):
            raise StoreError("truncated varint")
        if shift > 63:
            raise StoreError("varint out of range")
        byte = data[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            # No legitimate field exceeds a signed 64-bit value; anything
            # larger is corruption (and would otherwise overflow the
            # column arrays).
            if result >= 1 << 63:
                raise StoreError("varint out of range")
            return result, offset
        shift += 7


def _encode_payload(rows: Iterable) -> tuple[bytes, int]:
    """Encode rows into one LPDB payload blob; returns ``(blob, count)``."""
    strings: dict[str, int] = {}

    def intern(text: str) -> int:
        index = strings.get(text)
        if index is None:
            index = len(strings) + 1  # 0 is reserved for "no value"
            strings[text] = index
        return index

    body = io.BytesIO()
    count = 0
    for row in rows:
        tid, left, right, depth, node_id, pid, name, value = row
        _write_varint(body, tid)
        _write_varint(body, left)
        _write_varint(body, right)
        _write_varint(body, depth)
        _write_varint(body, node_id)
        _write_varint(body, pid)
        _write_varint(body, intern(name))
        _write_varint(body, _NO_VALUE if value is None else intern(value))
        count += 1

    payload = io.BytesIO()
    _write_varint(payload, count)
    _write_varint(payload, len(strings))
    for text in strings:  # insertion order == index order
        encoded = text.encode("utf-8")
        _write_varint(payload, len(encoded))
        payload.write(encoded)
    payload.write(body.getvalue())
    return payload.getvalue(), count


def _write_block(stream: BinaryIO, blob: bytes) -> None:
    """One length + CRC-32 header followed by the payload bytes."""
    header = io.BytesIO()
    _write_varint(header, len(blob))
    _write_varint(header, zlib.crc32(blob))
    stream.write(header.getvalue())
    stream.write(blob)


def partition_rows_by_tid(rows: Sequence, segments: int) -> list[list]:
    """Deal the trees of a label relation into ``segments`` disjoint shards.

    Trees stay whole (every row of one ``tid`` lands in the same shard);
    distinct tids are dealt round-robin in sorted order, so the split is
    deterministic and balanced for the common case of similar tree sizes.
    Shards may be empty when there are fewer trees than segments.
    """
    if segments < 1:
        raise StoreError(f"segment count must be >= 1, got {segments}")
    assignment = {
        tid: index % segments
        for index, tid in enumerate(sorted({row[0] for row in rows}))
    }
    shards: list[list] = [[] for _ in range(segments)]
    for row in rows:
        shards[assignment[row[0]]].append(row)
    return shards


def save_segments(
    segment_rows: Sequence[Sequence[Label]], stream: BinaryIO
) -> int:
    """Write an ``LPDB0003`` segmented corpus; returns total rows written.

    The caller controls the sharding — each element of ``segment_rows``
    becomes one block.  Use :func:`partition_rows_by_tid` for the standard
    tid-partitioned split (required for parallel query execution to return
    distinct results; this function does not re-check it).
    """
    stream.write(SEGMENTED_MAGIC)
    header = io.BytesIO()
    _write_varint(header, len(segment_rows))
    stream.write(header.getvalue())
    total = 0
    for rows in segment_rows:
        blob, count = _encode_payload(rows)
        _write_block(stream, blob)
        total += count
    return total


def save_labels(
    rows: Sequence[Label], stream: BinaryIO, checksum: bool = True,
    segments: int = 1, format: Optional[str] = None,
) -> int:
    """Write label rows; returns the number of rows written.

    ``format`` pins the on-disk revision (``"lpdb0002"``, ``"lpdb0003"``
    or the zero-copy ``"lpdb0004"``); the default (``None``) keeps the
    historical behavior — ``segments > 1`` writes the ``LPDB0003``
    segmented layout with the corpus partitioned by tree
    (:func:`partition_rows_by_tid`), one segment writes ``LPDB0002``.
    ``checksum=False`` writes the legacy ``LPDB0001`` layout (no length or
    CRC header) — kept for round-trip tests against old files; it has no
    segmented or pinned-format variant.
    """
    if segments < 1:
        raise StoreError(f"segment count must be >= 1, got {segments}")
    if format is not None:
        format = format.lower()
        if format not in FORMATS:
            raise StoreError(
                f"unknown store format {format!r}; choose from {FORMATS}"
            )
        if not checksum:
            raise StoreError("pinned formats always carry checksums")
        if format == "lpdb0004":
            return save_mapped(rows, stream, segments=segments)
        if format == "lpdb0003":
            return save_segments(partition_rows_by_tid(rows, segments), stream)
        if segments > 1:
            raise StoreError("lpdb0002 is a single-store layout; use "
                             "lpdb0003/lpdb0004 for segmented corpora")
    if segments > 1:
        if not checksum:
            raise StoreError("the segmented layout always carries checksums")
        return save_segments(partition_rows_by_tid(rows, segments), stream)
    blob, count = _encode_payload(rows)
    if not checksum:
        stream.write(LEGACY_MAGIC)
        stream.write(blob)
        return count
    stream.write(MAGIC)
    _write_block(stream, blob)
    return count


# -- parsing (shared by both loaders) -----------------------------------------


def _checked_block(data: bytes, offset: int) -> tuple[bytes, int]:
    """Verify one length + CRC-32 block at ``offset``; returns the payload
    bytes and the offset past the block."""
    length, offset = _read_varint(data, offset)
    expected_crc, offset = _read_varint(data, offset)
    end = offset + length
    if end > len(data):
        raise StoreError(
            f"payload length mismatch: header says {length}, "
            f"file has {len(data) - offset}"
        )
    payload = data[offset:end]
    if zlib.crc32(payload) != expected_crc:
        raise StoreError("checksum mismatch: the file is corrupt")
    return payload, end


def _segment_payloads(data: bytes) -> list[bytes]:
    """Verify magics/lengths/CRCs and return one payload per segment.

    Single-store revisions (``LPDB0001``/``LPDB0002``) come back as one
    segment, so every caller sees the same shape regardless of the on-disk
    format generation.
    """
    if data.startswith(LEGACY_MAGIC):
        return [data[len(LEGACY_MAGIC):]]
    if data.startswith(MAGIC):
        payload, end = _checked_block(data, len(MAGIC))
        if end != len(data):
            raise StoreError(f"{len(data) - end} trailing bytes after payload")
        return [payload]
    if data.startswith(SEGMENTED_MAGIC):
        count, offset = _read_varint(data, len(SEGMENTED_MAGIC))
        payloads: list[bytes] = []
        for _ in range(count):
            payload, offset = _checked_block(data, offset)
            payloads.append(payload)
        if offset != len(data):
            raise StoreError(
                f"{len(data) - offset} trailing bytes after the last segment"
            )
        return payloads
    raise StoreError(
        "not a compiled corpus file (bad magic; expected LPDB0002/LPDB0003)"
    )


def _parse_string_table(payload: bytes) -> tuple[int, list[str], int]:
    """``(row count, string table, row-data offset)`` from the payload."""
    count, offset = _read_varint(payload, 0)
    table_size, offset = _read_varint(payload, offset)
    table: list[str] = [""]  # index 0: no value
    for _ in range(table_size):
        length, offset = _read_varint(payload, offset)
        end = offset + length
        if end > len(payload):
            raise StoreError("truncated string table")
        try:
            table.append(payload[offset:end].decode("utf-8"))
        except UnicodeDecodeError:
            raise StoreError("undecodable string-table entry") from None
        offset = end
    return count, table, offset


def load_labels(stream: BinaryIO) -> list[Label]:
    """Read label rows written by :func:`save_labels` (any revision;
    segmented files concatenate their shards in segment order; mapped
    files come back in clustered order)."""
    data = stream.read()
    rows: list[Label] = []
    if data.startswith(MMAP_MAGIC):
        for segment in _parse_mapped(data, []):
            _mapped_labels_into(segment, rows)
        return rows
    for payload in _segment_payloads(data):
        _decode_labels_into(payload, rows)
    return rows


def _decode_labels_into(payload: bytes, rows: list[Label]) -> None:
    count, table, offset = _parse_string_table(payload)
    for _ in range(count):
        tid, offset = _read_varint(payload, offset)
        left, offset = _read_varint(payload, offset)
        right, offset = _read_varint(payload, offset)
        depth, offset = _read_varint(payload, offset)
        node_id, offset = _read_varint(payload, offset)
        pid, offset = _read_varint(payload, offset)
        name_index, offset = _read_varint(payload, offset)
        value_index, offset = _read_varint(payload, offset)
        try:
            name = table[name_index]
            value = None if value_index == _NO_VALUE else table[value_index]
        except IndexError:
            raise StoreError("string-table reference out of range") from None
        rows.append(Label(tid, left, right, depth, node_id, pid, name, value))
    if offset != len(payload):
        raise StoreError(f"{len(payload) - offset} trailing bytes after rows")


@dataclass
class LabelColumns:
    """The label relation as parallel columns (no per-row objects)."""

    tid: array = field(default_factory=lambda: array("q"))
    left: array = field(default_factory=lambda: array("q"))
    right: array = field(default_factory=lambda: array("q"))
    depth: array = field(default_factory=lambda: array("q"))
    id: array = field(default_factory=lambda: array("q"))
    pid: array = field(default_factory=lambda: array("q"))
    names: list[str] = field(default_factory=list)
    values: list[Optional[str]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.tid)


def load_label_columns(stream: BinaryIO) -> LabelColumns:
    """Read a compiled corpus straight into parallel columns.

    Decodes the same byte layout as :func:`load_labels` but appends each
    field to its column array — no :class:`Label` (or any other per-row
    object) is ever created, which is what makes cold columnar-engine
    startup linear in the file size with tiny constant factors.  Segmented
    files merge their shards into one bundle; use
    :func:`load_segment_columns` to keep them apart.
    """
    data = stream.read()
    columns = LabelColumns()
    if data.startswith(MMAP_MAGIC):
        for segment in _parse_mapped(data, []):
            _mapped_columns_into(segment, columns)
        return columns
    for payload in _segment_payloads(data):
        _decode_columns_into(payload, columns)
    return columns


def load_segment_columns(stream: BinaryIO) -> list[LabelColumns]:
    """Read a compiled corpus as one column bundle *per segment*.

    The shard structure of an ``LPDB0003`` file survives loading — each
    bundle feeds one :class:`repro.columnar.ColumnStore`, which is what a
    segmented engine fans queries out over.  Single-store revisions load
    as one segment, so callers need no format-generation switch.
    """
    data = stream.read()
    segments: list[LabelColumns] = []
    if data.startswith(MMAP_MAGIC):
        for segment in _parse_mapped(data, []):
            columns = LabelColumns()
            _mapped_columns_into(segment, columns)
            segments.append(columns)
        return segments
    for payload in _segment_payloads(data):
        columns = LabelColumns()
        _decode_columns_into(payload, columns)
        segments.append(columns)
    return segments


def _decode_columns_into(payload: bytes, columns: LabelColumns) -> None:
    count, table, offset = _parse_string_table(payload)
    ints = (columns.tid, columns.left, columns.right,
            columns.depth, columns.id, columns.pid)
    names, values = columns.names, columns.values
    read = _read_varint
    for _ in range(count):
        for column in ints:
            value, offset = read(payload, offset)
            column.append(value)
        name_index, offset = read(payload, offset)
        value_index, offset = read(payload, offset)
        try:
            names.append(table[name_index])
            values.append(None if value_index == _NO_VALUE else table[value_index])
        except IndexError:
            raise StoreError("string-table reference out of range") from None
    if offset != len(payload):
        raise StoreError(f"{len(payload) - offset} trailing bytes after rows")


def partition_columns(columns: LabelColumns, segments: int) -> list[LabelColumns]:
    """Shard one column bundle by tree, mirroring
    :func:`partition_rows_by_tid` (same deterministic round-robin deal
    over sorted tids), without materializing row objects."""
    if segments < 1:
        raise StoreError(f"segment count must be >= 1, got {segments}")
    assignment = {
        tid: index % segments
        for index, tid in enumerate(sorted(set(columns.tid)))
    }
    shards = [LabelColumns() for _ in range(segments)]
    ints = ("tid", "left", "right", "depth", "id", "pid")
    for row in range(len(columns)):
        shard = shards[assignment[columns.tid[row]]]
        for name in ints:
            getattr(shard, name).append(getattr(columns, name)[row])
        shard.names.append(columns.names[row])
        shard.values.append(columns.values[row])
    return shards


# -- file helpers -------------------------------------------------------------


def save_corpus(
    trees: Iterable, path: str, segments: int = 1,
    format: Optional[str] = None,
) -> int:
    """Label a corpus of trees and save it; returns the row count.

    ``segments > 1`` writes a segmented layout, sharded by tree;
    ``format`` pins the on-disk revision (see :func:`save_labels`;
    ``"lpdb0005"`` creates a live *directory* via :mod:`repro.live`).
    File formats are written through :func:`atomic_write`, so a crash
    mid-save never destroys a previously good store at ``path``."""
    from .labeling.lpath_scheme import label_corpus

    rows = list(label_corpus(trees))
    if format is not None and format.lower() == LIVE_FORMAT:
        from .live import create_live_corpus

        create_live_corpus(path, rows, segments=segments)
        return len(rows)
    with atomic_write(path) as handle:
        return save_labels(rows, handle, segments=segments, format=format)


def load_corpus_labels(path: str) -> list[Label]:
    """Load label rows from a compiled corpus file (for a live
    directory: every base segment's rows plus the WAL delta)."""
    if os.path.isdir(path):
        from .live import load_live_labels

        return load_live_labels(path)
    with open(path, "rb") as handle:
        return load_labels(handle)


def load_corpus_columns(path: str) -> LabelColumns:
    """Load a compiled corpus file straight into parallel columns."""
    with open(path, "rb") as handle:
        return load_label_columns(handle)


def load_corpus_segments(path: str) -> list[LabelColumns]:
    """Load a compiled corpus file as per-segment column bundles."""
    with open(path, "rb") as handle:
        return load_segment_columns(handle)


def corpus_format(path: str) -> str:
    """The on-disk revision name (``"LPDB0001"`` .. ``"LPDB0005"``), from
    the magic alone (for the live directory layout, from its manifest's
    magic)."""
    if os.path.isdir(path):
        from .live import live_corpus_format

        return live_corpus_format(path)
    with open(path, "rb") as handle:
        magic = handle.read(len(MAGIC))
    if magic in (MAGIC, LEGACY_MAGIC, SEGMENTED_MAGIC, MMAP_MAGIC):
        return magic.decode("ascii")
    raise StoreError(
        "not a compiled corpus file (bad magic; expected LPDB0002/LPDB0003/"
        "LPDB0004, or an LPDB0005 directory)"
    )


def corpus_segment_count(path: str) -> int:
    """How many segments the file declares (1 for single-store formats;
    for live directories, base segments plus the in-memory delta when
    the WAL holds rows), from the header alone — no column payload is
    read or verified."""
    if os.path.isdir(path):
        from .live import live_segment_count

        return live_segment_count(path)
    with open(path, "rb") as handle:
        head = handle.read(len(SEGMENTED_MAGIC) + 10)
        if head.startswith((MAGIC, LEGACY_MAGIC)):
            return 1
        if head.startswith(SEGMENTED_MAGIC):
            count, _ = _read_varint(head, len(SEGMENTED_MAGIC))
            return count
        if head.startswith(MMAP_MAGIC):
            return len(_read_mmap_sidecar(handle, head).segments)
    raise StoreError(
        "not a compiled corpus file (bad magic; expected LPDB0002/LPDB0003/"
        "LPDB0004)"
    )


def is_compiled_corpus(path: str) -> bool:
    """Cheap sniff: does the file start with an LPDB magic (or is it a
    live-corpus directory with a manifest)?"""
    try:
        if os.path.isdir(path):
            from .live import MANIFEST_NAME

            with open(os.path.join(path, MANIFEST_NAME), "rb") as handle:
                return handle.read(len(LIVE_MAGIC)) == LIVE_MAGIC
        with open(path, "rb") as handle:
            magic = handle.read(len(MAGIC))
            return magic in (MAGIC, LEGACY_MAGIC, SEGMENTED_MAGIC, MMAP_MAGIC)
    except OSError:
        return False


#: How much of a store file the fingerprint reads: the whole header region
#: (every revision keeps its length/CRC headers — for LPDB0004 the entire
#: sidecar, which itself checksums all metadata — inside the first 64 KiB
#: for any realistic corpus) plus a tail window, so both a metadata edit
#: and a truncation/append change the digest.
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
    head window covers every revision's own length/CRC headers (the
    whole LPDB0004 sidecar), so any re-save reshuffles it.  Live
    directories digest their manifest bytes plus the WAL size, so every
    acknowledged append and every installed generation changes the
    fingerprint (read-your-writes for the serving result cache).
    Raises :class:`StoreError` for files without an LPDB magic."""
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
_BLOB_COUNT = len(_INT64_BLOBS) + len(_BYTE_BLOBS) + len(_AUX_BLOBS)


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


def _encode_mmap_sidecar(header: MmapHeader) -> bytes:
    out = io.BytesIO()
    out.write(b"\x00" if header.byteorder == "little" else b"\x01")
    _write_varint(out, header.data_length)
    _write_varint(out, len(header.segments))
    for meta in header.segments:
        if len(meta.blobs) != _BLOB_COUNT:
            raise StoreError(
                f"segment declares {len(meta.blobs)} blobs, "
                f"expected {_BLOB_COUNT}"
            )
        _write_varint(out, meta.n)
        _write_varint(out, len(meta.strings))
        for text in meta.strings:
            encoded = text.encode("utf-8")
            _write_varint(out, len(encoded))
            out.write(encoded)
        for offset, length in meta.blobs:
            _write_varint(out, offset)
            _write_varint(out, length)
        for pairs in (meta.root_right, meta.tid_dir, meta.child_tid_dir):
            _write_varint(out, len(pairs))
            for first, second in pairs:
                _write_varint(out, first)
                _write_varint(out, second)
        for value in meta.store_stats:
            _write_varint(out, value)
        _write_varint(out, len(meta.names))
        for entry in meta.names:
            for value in entry:
                _write_varint(out, value)
    return out.getvalue()


def _parse_mmap_sidecar(payload: bytes) -> MmapHeader:
    if not payload:
        raise StoreError("empty LPDB0004 sidecar")
    byteorder = "little" if payload[0] == 0 else "big"
    data_length, offset = _read_varint(payload, 1)
    segment_count, offset = _read_varint(payload, offset)
    segments = []
    for _ in range(segment_count):
        n, offset = _read_varint(payload, offset)
        table_size, offset = _read_varint(payload, offset)
        strings: list[str] = []
        for _ in range(table_size):
            length, offset = _read_varint(payload, offset)
            end = offset + length
            if end > len(payload):
                raise StoreError("truncated string table")
            try:
                strings.append(payload[offset:end].decode("utf-8"))
            except UnicodeDecodeError:
                raise StoreError("undecodable string-table entry") from None
            offset = end
        blobs = []
        for _ in range(_BLOB_COUNT):
            blob_offset, offset = _read_varint(payload, offset)
            blob_length, offset = _read_varint(payload, offset)
            blobs.append((blob_offset, blob_length))
        directories = []
        for _ in range(3):
            count, offset = _read_varint(payload, offset)
            pairs = []
            for _ in range(count):
                first, offset = _read_varint(payload, offset)
                second, offset = _read_varint(payload, offset)
                pairs.append((first, second))
            directories.append(pairs)
        stats = []
        for _ in range(5):
            value, offset = _read_varint(payload, offset)
            stats.append(value)
        name_count, offset = _read_varint(payload, offset)
        names = []
        for _ in range(name_count):
            entry = []
            for _ in range(6):
                value, offset = _read_varint(payload, offset)
                entry.append(value)
            names.append(tuple(entry))
        segments.append(MmapSegmentMeta(
            n, strings, blobs, directories[0], directories[1],
            directories[2], tuple(stats), names,
        ))
    if offset != len(payload):
        raise StoreError(
            f"{len(payload) - offset} trailing bytes in the LPDB0004 sidecar"
        )
    return MmapHeader(byteorder, data_length, segments)


def _mapped_segment_parts(store) -> tuple[MmapSegmentMeta, list[bytes]]:
    """``(sidecar record, blob payloads)`` for one built
    :class:`~repro.columnar.ColumnStore` (blob offsets assigned later)."""
    intern: dict[str, int] = {}
    strings: list[str] = []

    def string_id(text: str) -> int:
        index = intern.get(text)
        if index is None:
            strings.append(text)
            index = intern[text] = len(strings)
        return index

    name_ids = array("q", map(string_id, store.names))
    value_ids = array(
        "q",
        (0 if value is None else string_id(value) for value in store.values),
    )

    part_tids, part_starts = array("q"), array("q")
    parts_per_name: dict[str, int] = {}
    for (name, tid), (lo, _hi) in store.name_tid_bounds.items():
        part_tids.append(tid)
        part_starts.append(lo)
        parts_per_name[name] = parts_per_name.get(name, 0) + 1

    names_meta = []
    part_hi = 0
    for name, (_lo, hi) in store.name_bounds.items():
        part_hi += parts_per_name.get(name, 0)
        stats = store.name_stats(name)
        names_meta.append((
            string_id(name), hi, part_hi,
            stats.max_partition, stats.min_depth, stats.max_depth,
        ))

    child_pids, child_starts = array("q"), array("q")
    child_tid_dir: list[tuple[int, int]] = []
    current_tid = None
    groups = 0
    for (tid, _pid), (lo, _hi) in store.children_bounds.items():
        if tid != current_tid:
            if current_tid is not None:
                child_tid_dir.append((current_tid, groups))
            current_tid = tid
        child_pids.append(_pid)
        child_starts.append(lo)
        groups += 1
    if current_tid is not None:
        child_tid_dir.append((current_tid, groups))
    child_starts.append(store.n)

    total = store.name_stats(None)
    meta = MmapSegmentMeta(
        n=store.n,
        strings=strings,
        blobs=[],
        root_right=sorted(store.root_right.items()),
        tid_dir=[(tid, hi) for tid, (_lo, hi) in store.tid_bounds.items()],
        child_tid_dir=child_tid_dir,
        store_stats=(total.rows, total.partitions, total.max_partition,
                     total.min_depth, total.max_depth),
        names=names_meta,
    )
    blobs = [
        store.tid.tobytes(), store.left.tobytes(), store.right.tobytes(),
        store.depth.tobytes(), store.id.tobytes(), store.pid.tobytes(),
        name_ids.tobytes(), value_ids.tobytes(),
        store.tid_id_perm.tobytes(), store._perm_ids.tobytes(),
        store.children_perm.tobytes(),
        bytes(store.is_attr), bytes(store.right_edge),
        part_tids.tobytes(), part_starts.tobytes(),
        child_pids.tobytes(), child_starts.tobytes(),
    ]
    return meta, blobs


def save_mapped(rows: Sequence, stream: BinaryIO, segments: int = 1) -> int:
    """Write the ``LPDB0004`` zero-copy layout; returns rows written.

    Saving is the expensive side on purpose: each shard is run through a
    full :class:`~repro.columnar.ColumnStore` build (clustered sort,
    projections, bitmaps, partition bounds, statistics) and the results
    are serialized, so *opening* the file needs none of that work."""
    from .columnar.store import ColumnStore

    if segments < 1:
        raise StoreError(f"segment count must be >= 1, got {segments}")
    rows = list(rows)
    shards = (
        partition_rows_by_tid(rows, segments) if segments > 1 else [rows]
    )
    return save_mapped_stores(map(ColumnStore.from_rows, shards), stream)


def save_mapped_stores(stores: Iterable, stream: BinaryIO) -> int:
    """Write already-built :class:`~repro.columnar.ColumnStore`\\ s, one
    per segment, in the ``LPDB0004`` layout; returns rows written."""
    metas, payloads = [], []
    offset = rows = 0
    # No loop variable holds a store: each one is freed once serialized.
    for meta, blobs in map(_mapped_segment_parts, stores):
        rows += meta.n
        for blob in blobs:
            meta.blobs.append((offset, len(blob)))
            offset += _align8(len(blob))
        metas.append(meta)
        payloads.append(blobs)
    sidecar = _encode_mmap_sidecar(MmapHeader(sys.byteorder, offset, metas))
    head = io.BytesIO()
    _write_varint(head, len(sidecar))
    _write_varint(head, zlib.crc32(sidecar))
    prefix_length = len(MMAP_MAGIC) + head.getbuffer().nbytes + len(sidecar)
    stream.write(MMAP_MAGIC)
    stream.write(head.getvalue())
    stream.write(sidecar)
    stream.write(b"\x00" * (_align8(prefix_length) - prefix_length))
    for blobs in payloads:
        for blob in blobs:
            stream.write(blob)
            stream.write(b"\x00" * (_align8(len(blob)) - len(blob)))
    return rows


class MappedSegment:
    """One segment of an opened ``LPDB0004`` corpus: directories decoded
    from the sidecar plus zero-copy views over the data region.  The
    integer views are ``memoryview``\\ s cast to int64; ``table`` is the
    1-based string table with ``table[0] is None``."""

    __slots__ = (
        "n", "table", "root_right", "tid_bounds", "child_tid_dir",
        "name_entries", "store_stats",
    ) + _INT64_BLOBS + _BYTE_BLOBS + _AUX_BLOBS

    def __init__(self, meta: MmapSegmentMeta, region, views: list) -> None:
        n = meta.n
        partitions = meta.names[-1][2] if meta.names else 0
        groups = meta.child_tid_dir[-1][1] if meta.child_tid_dir else 0
        expected = (
            [8 * n] * len(_INT64_BLOBS) + [n] * len(_BYTE_BLOBS)
            + [8 * partitions, 8 * partitions, 8 * groups, 8 * (groups + 1)]
        )
        names = _INT64_BLOBS + _BYTE_BLOBS + _AUX_BLOBS
        for attr, (offset, length), want in zip(names, meta.blobs, expected):
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
            setattr(self, attr, view)
        self.n = n
        self.table = [None] + meta.strings
        self.root_right = dict(meta.root_right)
        self.store_stats = meta.store_stats

        tid_bounds: dict[int, tuple[int, int]] = {}
        lo = 0
        for tid, hi in meta.tid_dir:
            if not lo <= hi <= n:
                raise StoreError("corrupt (tid, id) directory")
            tid_bounds[tid] = (lo, hi)
            lo = hi
        if lo != n:
            raise StoreError("corrupt (tid, id) directory")
        self.tid_bounds = tid_bounds

        child_tid_dir: dict[int, tuple[int, int]] = {}
        glo = 0
        for tid, ghi in meta.child_tid_dir:
            if not glo <= ghi <= groups:
                raise StoreError("corrupt children directory")
            child_tid_dir[tid] = (glo, ghi)
            glo = ghi
        self.child_tid_dir = child_tid_dir

        name_entries = []
        row_lo = part_lo = 0
        for sid, row_hi, part_hi, max_partition, min_depth, max_depth in meta.names:
            if not 1 <= sid <= len(meta.strings):
                raise StoreError("name directory references a bad string id")
            if not (row_lo < row_hi <= n and part_lo < part_hi <= partitions):
                raise StoreError("corrupt name directory")
            name_entries.append((
                self.table[sid], row_lo, row_hi, part_lo, part_hi,
                (row_hi - row_lo, part_hi - part_lo,
                 max_partition, min_depth, max_depth),
            ))
            row_lo, part_lo = row_hi, part_hi
        if row_lo != n or part_lo != partitions:
            raise StoreError("corrupt name directory")
        self.name_entries = name_entries


class MappedCorpus:
    """An opened ``LPDB0004`` file: the ``mmap``, its segments, and every
    view handed out.  :meth:`close` releases the views (queries through
    them then raise) and unmaps the file; idempotent."""

    def __init__(self, path, segments, views, mapping=None, handle=None):
        self.path = path
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


def _parse_mapped(buffer, views: list) -> list[MappedSegment]:
    """Parse an ``LPDB0004`` buffer (bytes or an ``mmap``); every created
    view is appended to ``views`` so a caller owning an mmap can release
    them all on close (or on a parse failure)."""
    base = memoryview(buffer)
    views.append(base)
    if len(base) < len(MMAP_MAGIC) or bytes(base[:len(MMAP_MAGIC)]) != MMAP_MAGIC:
        raise StoreError("not an LPDB0004 corpus file (bad magic)")
    sidecar_length, offset = _read_varint(base, len(MMAP_MAGIC))
    expected_crc, offset = _read_varint(base, offset)
    end = offset + sidecar_length
    if end > len(base):
        raise StoreError(
            f"sidecar length mismatch: header says {sidecar_length}, "
            f"file has {len(base) - offset}"
        )
    sidecar = bytes(base[offset:end])
    if zlib.crc32(sidecar) != expected_crc:
        raise StoreError("checksum mismatch: the sidecar is corrupt")
    header = _parse_mmap_sidecar(sidecar)
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
    return [MappedSegment(meta, region, views) for meta in header.segments]


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
        try:
            mapping = _mmap_module.mmap(
                handle.fileno(), 0, access=_mmap_module.ACCESS_READ
            )
        except ValueError:
            raise StoreError("not an LPDB0004 corpus file (empty)") from None
        segments = _parse_mapped(mapping, views)
    except BaseException:
        for view in views:
            view.release()
        if mapping is not None:
            mapping.close()
        handle.close()
        raise
    return MappedCorpus(path, segments, views, mapping, handle)


def _mapped_string_lookup(segment: MappedSegment):
    """A checked ``row -> (name, value)`` reader for the eager loaders
    (the mmap path trusts the data region; the eager decode validates)."""
    table = segment.table
    size = len(table)
    name_ids, value_ids = segment.name_ids, segment.value_ids

    def lookup(row: int) -> tuple[str, Optional[str]]:
        name_id, value_id = name_ids[row], value_ids[row]
        if not 1 <= name_id < size or not 0 <= value_id < size:
            raise StoreError("string-table reference out of range")
        return table[name_id], table[value_id]

    return lookup


def _mapped_labels_into(segment: MappedSegment, rows: list) -> None:
    lookup = _mapped_string_lookup(segment)
    tid, left, right = segment.tid, segment.left, segment.right
    depth, node_id, pid = segment.depth, segment.id, segment.pid
    for row in range(segment.n):
        name, value = lookup(row)
        rows.append(Label(
            tid[row], left[row], right[row], depth[row],
            node_id[row], pid[row], name, value,
        ))


def _mapped_columns_into(segment: MappedSegment, columns: LabelColumns) -> None:
    lookup = _mapped_string_lookup(segment)
    for attr in ("tid", "left", "right", "depth", "id", "pid"):
        getattr(columns, attr).frombytes(getattr(segment, attr).tobytes())
    for row in range(segment.n):
        name, value = lookup(row)
        columns.names.append(name)
        columns.values.append(value)


def _read_mmap_sidecar(handle: BinaryIO, head: bytes) -> MmapHeader:
    """Read and verify just the sidecar of an open ``LPDB0004`` file
    (``head`` is whatever prefix the caller already consumed)."""
    prefix = head + handle.read(max(0, 32 - len(head)))
    sidecar_length, offset = _read_varint(prefix, len(MMAP_MAGIC))
    expected_crc, offset = _read_varint(prefix, offset)
    sidecar = prefix[offset:offset + sidecar_length]
    missing = sidecar_length - len(sidecar)
    if missing > 0:
        sidecar += handle.read(missing)
    if len(sidecar) != sidecar_length:
        raise StoreError(
            f"sidecar length mismatch: header says {sidecar_length}, "
            f"file has {len(sidecar)}"
        )
    if zlib.crc32(sidecar) != expected_crc:
        raise StoreError("checksum mismatch: the sidecar is corrupt")
    return _parse_mmap_sidecar(sidecar)


# -- store inspection ----------------------------------------------------------


def corpus_info(path: str, top: int = 10) -> dict:
    """Summarize a compiled corpus: revision, segment/row/tree counts and
    the top-``top`` per-name statistics by row count.

    For ``LPDB0004`` everything comes from the sidecar — no column (let
    alone value) data is read.  Older revisions have no statistics on
    disk, so their payloads are decoded and scanned.  Live directories
    add their manifest generation, WAL record/row counts, delta vs base
    row split and last recovery action (:func:`repro.live.live_info`)."""
    if os.path.isdir(path):
        from .live import live_info

        return live_info(path, top=top)
    revision = corpus_format(path)
    size = os.path.getsize(path)
    merged: dict[str, list] = {}

    def fold(name: str, rows: int, partitions: int, max_partition: int,
             min_depth: int, max_depth: int) -> None:
        entry = merged.get(name)
        if entry is None:
            merged[name] = [rows, partitions, max_partition,
                            min_depth, max_depth]
        else:
            entry[0] += rows
            entry[1] += partitions
            entry[2] = max(entry[2], max_partition)
            entry[3] = min(entry[3], min_depth)
            entry[4] = max(entry[4], max_depth)

    if revision == MMAP_MAGIC.decode("ascii"):
        with open(path, "rb") as handle:
            header = _read_mmap_sidecar(handle, handle.read(len(MMAP_MAGIC)))
        segments = len(header.segments)
        rows = sum(meta.n for meta in header.segments)
        trees = sum(len(meta.tid_dir) for meta in header.segments)
        for meta in header.segments:
            row_lo = part_lo = 0
            for sid, row_hi, part_hi, max_part, min_d, max_d in meta.names:
                fold(meta.strings[sid - 1], row_hi - row_lo,
                     part_hi - part_lo, max_part, min_d, max_d)
                row_lo, part_lo = row_hi, part_hi
    else:
        shards = load_corpus_segments(path)
        segments = len(shards)
        rows = sum(len(shard) for shard in shards)
        tids: set[int] = set()
        for shard in shards:
            tids.update(shard.tid)
            per_partition: dict[tuple[str, int], int] = {}
            depths: dict[str, tuple[int, int]] = {}
            for row in range(len(shard)):
                name = shard.names[row]
                key = (name, shard.tid[row])
                per_partition[key] = per_partition.get(key, 0) + 1
                depth = shard.depth[row]
                span = depths.get(name)
                depths[name] = (
                    (depth, depth) if span is None
                    else (min(span[0], depth), max(span[1], depth))
                )
            counts: dict[str, list] = {}
            for (name, _tid), count in per_partition.items():
                entry = counts.setdefault(name, [0, 0, 0])
                entry[0] += count
                entry[1] += 1
                entry[2] = max(entry[2], count)
            for name, (total, partitions, max_partition) in counts.items():
                min_depth, max_depth = depths[name]
                fold(name, total, partitions, max_partition,
                     min_depth, max_depth)
        trees = len(tids)

    ranked = sorted(merged.items(), key=lambda item: (-item[1][0], item[0]))
    return {
        "path": path,
        "bytes": size,
        "format": revision,
        "segments": segments,
        "rows": rows,
        "trees": trees,
        "distinct_names": len(merged),
        "top_names": [(name, tuple(stats)) for name, stats in ranked[:top]],
    }
