"""The baseline XPath engine (Section 5.4).

Identical machinery to the LPath engine — same clustered column store,
same logical-plan compiler, optimizer and columnar executor from
:mod:`repro.plan` — but labels come from the start/end scheme of [11].
Per the paper: "To compare the performance, we set other components of
both labeling schemes to be the same."
"""

from __future__ import annotations

from functools import partial
from operator import attrgetter
from typing import Sequence, Union

from ..columnar.store import ColumnStore
from ..labeling import xpath_scheme
from ..lpath.ast import Path
from ..lpath.engine import PlanEngine
from ..lpath.errors import LPathError
from ..plan.segmented import validate_segmentation
from ..store import partition_by_tid
from ..tree.node import Tree
from .compiler import VERTICAL_FRAGMENT, XPathPlanCompiler

XNODE_COLUMNS = ("tid", "start", "end", "depth", "id", "pid", "name", "value")

Query = Union[str, Path]


def xpath_stores(trees: Sequence[Tree], segments: int) -> list:
    """One start/end-labelled :class:`~repro.columnar.ColumnStore` per
    shard of ``trees``, dealt as :func:`repro.store.tree_stores` deals
    them; save them with :func:`repro.store.save_mapped_stores`."""
    return [
        ColumnStore.from_rows(xpath_scheme.label_corpus(shard), XNODE_COLUMNS)
        for shard in partition_by_tid(trees, segments, attrgetter("tid"))
    ]


class XPathEngine(PlanEngine):
    """Query a corpus with the XPath-expressible fragment of LPath syntax."""

    def __init__(
        self,
        trees: Sequence[Tree],
        axes: frozenset = VERTICAL_FRAGMENT,
        plan_cache_size: int = 128,
        segments: int = 1,
    ) -> None:
        validate_segmentation(segments)
        trees = list(trees)
        tids = [tree.tid for tree in trees]
        if len(set(tids)) != len(tids):
            raise LPathError("trees must have distinct tids")
        self._install(
            xpath_stores(trees, segments),
            partial(XPathPlanCompiler, axes=axes), plan_cache_size,
        )
        self.trees = trees

    @classmethod
    def from_store_mmap(
        cls,
        path: str,
        axes: frozenset = VERTICAL_FRAGMENT,
        plan_cache_size: int = 128,
    ) -> "XPathEngine":
        """Open an ``LPDB0004`` file of *start/end-labeled* rows zero-copy
        (save one with :func:`repro.store.save_mapped_stores` over
        :func:`xpath_stores`).  No trees.
        :meth:`close` unmaps the file."""
        return cls._open_mapped(
            path, partial(XPathPlanCompiler, axes=axes),
            plan_cache_size, XNODE_COLUMNS,
        )
