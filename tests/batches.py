"""A :class:`~repro.columnar.result.ResultBatch` packed from a list of
pairs, for tests that need a batch no engine emitted."""

from __future__ import annotations

from array import array
from itertools import chain

from repro.columnar.result import ResultBatch


def batch_of(rows) -> ResultBatch:
    """Pack already distinct, sorted ``(tid, id)`` pairs."""
    return ResultBatch(array("q", chain.from_iterable(rows)))
