"""The baseline XPath engine (Section 5.4).

The one plan engine — same clustered column store, same logical-plan
compiler, optimizer and columnar executor from :mod:`repro.plan` — with
labels from the start/end scheme of [11] and queries restricted to the
XPath dialect.  Per the paper: "To compare the performance, we set other
components of both labeling schemes to be the same."
"""

from __future__ import annotations

from operator import attrgetter
from typing import Sequence

from ..columnar.store import ColumnStore
from ..labeling import xpath_scheme
from ..lpath.engine import PlanEngine
from ..plan.schemes import VERTICAL_FRAGMENT, XPathDialect
from ..store import START_END_LABELS, partition_by_tid
from ..tree.node import Tree


def xpath_stores(trees: Sequence[Tree], segments: int) -> list:
    """One start/end-labelled :class:`~repro.columnar.ColumnStore` per
    shard of ``trees``, dealt as :func:`repro.store.tree_stores` deals
    them; save them with :func:`repro.store.save_mapped_stores`, which
    records the scheme in the file."""
    return [
        ColumnStore.from_rows(xpath_scheme.label_corpus(shard), START_END_LABELS)
        for shard in partition_by_tid(trees, segments, attrgetter("tid"))
    ]


class XPathEngine(PlanEngine):
    """Query a corpus with the XPath-expressible fragment of LPath syntax
    (``axes``: the [11] vertical fragment unless given)."""

    def __init__(
        self,
        trees: Sequence[Tree],
        axes: frozenset = VERTICAL_FRAGMENT,
        plan_cache_size: int = 128,
        segments: int = 1,
    ) -> None:
        trees = self._corpus(trees, segments)
        self._install(
            xpath_stores(trees, segments), XPathDialect(axes), plan_cache_size
        )
        self.trees = trees

    @classmethod
    def from_store_mmap(
        cls,
        path: str,
        axes: frozenset = VERTICAL_FRAGMENT,
        plan_cache_size: int = 128,
    ) -> "XPathEngine":
        """Open an ``LPDB0004`` file zero-copy under the XPath dialect; the
        labels the file records answer (start/end from
        :func:`xpath_stores`, Definition 4.1 from ``repro compile``).
        No trees.  :meth:`close` unmaps the file."""
        return cls._open_mapped(path, XPathDialect(axes), plan_cache_size)
