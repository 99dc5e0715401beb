"""The baseline XPath engine (Section 5.4).

Identical machinery to the LPath engine — same clustered column store,
same logical-plan compiler, optimizer and columnar executor from
:mod:`repro.plan` — but labels come from the start/end scheme of [11].
Per the paper: "To compare the performance, we set other components of
both labeling schemes to be the same."
"""

from __future__ import annotations

from functools import partial
from typing import Sequence, Union

from ..labeling import xpath_scheme
from ..lpath.ast import Path
from ..lpath.engine import PlanEngine
from ..lpath.errors import LPathError
from ..plan.segmented import validate_segmentation
from ..store import row_stores
from ..tree.node import Tree
from .compiler import VERTICAL_FRAGMENT, XPathPlanCompiler

XNODE_COLUMNS = ("tid", "start", "end", "depth", "id", "pid", "name", "value")

Query = Union[str, Path]


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
        rows = list(xpath_scheme.label_corpus(trees))
        self._install(
            row_stores(rows, segments, XNODE_COLUMNS),
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
        (save one with ``repro.labeling.xpath_scheme.label_corpus`` rows
        and :func:`repro.store.save_mapped`).  No trees.
        :meth:`close` unmaps the file."""
        return cls._open_mapped(
            path, partial(XPathPlanCompiler, axes=axes),
            plan_cache_size, XNODE_COLUMNS,
        )
