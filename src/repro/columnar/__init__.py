"""Columnar backend: parallel-array storage + batch plan execution.

The physical layer for the shared logical IR in :mod:`repro.plan`:
:class:`ColumnStore` holds the label relation as clustered parallel
arrays, :class:`ColumnarRuntime`/:class:`PlanSkeleton` compile optimized
plans once and bind them per store for batch-at-a-time execution over
row ids.  The store itself is the lowerer's statistics catalog (size,
name frequency, per-name :class:`NameStats`).  Every engine runs here.

Hierarchical joins additionally come in a *set-at-a-time* flavor
(:mod:`repro.columnar.structural`): merge-eligible axis steps evaluate as
structural merge joins over the sorted span columns when the optimizer's
statistics-driven cost model picks them (``REPRO_FORCE_JOIN`` forces a
side for differential testing).
"""

from .executor import ColumnarPlan, ColumnarRuntime, PlanSkeleton
from .store import ColumnStore, NameStats, StringColumn
from .structural import MergeJoinStep, MergeSpec, choose_join, merge_spec

__all__ = [
    "ColumnStore",
    "ColumnarPlan",
    "ColumnarRuntime",
    "MergeJoinStep",
    "MergeSpec",
    "NameStats",
    "StringColumn",
    "PlanSkeleton",
    "choose_join",
    "merge_spec",
]
