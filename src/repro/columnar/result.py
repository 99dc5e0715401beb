"""The one result representation, from the last join to the wire.

A query answer is a :class:`ResultBatch`: its distinct ``(tid, id)``
pairs in sorted order, packed into one interleaved int64 ``array('q')``
(``tid0, id0, tid1, id1, ...``) — what the ``repro_emit_pairs`` /
``repro_merge_pairs`` kernels write and the serving layer caches,
digests, pages and — ``repro_encode_pairs`` — sends as JSON bytes
without a pair built.  The executor *emits* one per
segment, a segmented query *merges* them, a page or a top-k is a
*slice*, and ``engine.query()`` hands the batch itself to its caller: a
read-only sequence of ``(tid, id)`` tuples that compares equal to the
list of them (``list(batch)`` when a list is needed).  Tuples only
appear when a caller indexes or iterates.  The kernels' pure-Python
twins live here; both backends return byte-identical arrays.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from itertools import chain
from typing import Iterable, Iterator


def _rows(pairs: array) -> Iterator[tuple[int, int]]:
    flat = iter(pairs)
    return zip(flat, flat)


def _packed(pairs: Iterable[tuple]) -> array:
    return array("q", list(chain.from_iterable(pairs)))


def python_emit_pairs(tids, ids, rows) -> array:
    """``(tids[r], ids[r])`` for every row id in ``rows`` as packed
    distinct sorted pairs.  Sorted first, deduplicated after: a batch
    comes off a scan or a merge join nearly ordered, the adaptive sort's
    best case — a set would scramble it."""
    pairs = sorted(zip(map(tids.__getitem__, rows), map(ids.__getitem__, rows)))
    return _packed(dict.fromkeys(pairs))


def python_merge_pairs(parts) -> array:
    """Merge packed sorted pair arrays into one: the sort finds each
    part as one ascending run and only merges them."""
    return _packed(sorted(chain.from_iterable(map(_rows, parts))))


def python_encode_pairs(pairs: array) -> bytes:
    """Packed pairs as the bytes ``json.dumps`` gives the list of their
    ``[tid, id]`` lists."""
    rows = "], [".join(map("%d, %d".__mod__, _rows(pairs)))
    return (f"[[{rows}]]" if rows else "[]").encode("ascii")


class ResultBatch(Sequence):
    """Distinct sorted ``(tid, id)`` pairs, packed: a read-only sequence
    of tuples, equal to the list of the same tuples.  Immutable by
    convention, and it owns its memory: ``pairs`` is never a view of a
    store, so a batch outlives the engine that produced it."""

    __slots__ = ("pairs",)

    def __init__(self, pairs: array) -> None:
        self.pairs = pairs

    @classmethod
    def frombytes(cls, blob: bytes) -> "ResultBatch":
        pairs = array("q")
        pairs.frombytes(blob)
        return cls(pairs)

    def tobytes(self) -> bytes:
        return self.pairs.tobytes()

    @staticmethod
    def merge(parts: Iterable["ResultBatch"], kern=None) -> "ResultBatch":
        """The sorted union of per-segment batches — segments partition
        the tid space, so no pair repeats — through ``kern``'s k-way
        merge (``None``: the Python twin).  At most one part holding
        anything is no merge at all."""
        held = [part for part in parts if part.pairs]
        if len(held) <= 1:
            return held[0] if held else EMPTY
        merged = python_merge_pairs if kern is None else kern.merge_pairs
        return ResultBatch(merged([part.pairs for part in held]))

    def encode(self, kern=None) -> bytes:
        """``json.dumps([list(pair) for pair in self])`` as bytes, with
        no pair ever built, through ``kern`` (``None``: the Python twin)."""
        encoded = python_encode_pairs if kern is None else kern.encode_pairs
        return encoded(self.pairs)

    def __len__(self) -> int:
        return len(self.pairs) // 2

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return _rows(self.pairs)

    def __getitem__(self, index):
        """Row ``index`` as a tuple (negative counts from the end), or the
        contiguous rows a unit-step slice selects as a batch (a page, a
        top-k)."""
        if isinstance(index, slice):
            start, stop, step = index.indices(len(self))
            if step != 1:
                raise ValueError(
                    "a ResultBatch slices contiguously; take list(batch) "
                    "for a stepped slice"
                )
            return ResultBatch(self.pairs[2 * start:2 * stop])
        row = 2 * range(len(self))[index]
        return self.pairs[row], self.pairs[row + 1]

    def __eq__(self, other) -> bool:
        if isinstance(other, ResultBatch):
            return self.pairs == other.pairs
        if isinstance(other, list):
            return len(other) == len(self) and other == list(self)
        return NotImplemented

    def __repr__(self) -> str:
        return f"ResultBatch({list(self)!r})"


EMPTY = ResultBatch(array("q"))
