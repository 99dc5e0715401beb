"""Query compiler for the baseline XPath engine (start/end labeling, [11]).

Shares the whole compilation pipeline with :mod:`repro.lpath.compiler`
through the unified IR in :mod:`repro.plan`: :class:`XPathPlanCompiler`
is :class:`~repro.lpath.compiler.PlanCompiler` with the
:class:`~repro.plan.schemes.StartEndScheme` axis semantics over the
relation ``xnode(tid, start, end, depth, id, pid, name, value)``.  Only
the XPath-expressible axes are supported; the immediate-* axes, subtree
scoping and edge alignment raise
:class:`~repro.lpath.errors.LPathCompileError` — this asymmetry is exactly
what Figure 10 measures (same cost on shared queries, fewer supported
queries).
"""

from __future__ import annotations

from ..lpath.compiler import CompiledQuery, PlanCompiler
from ..plan.schemes import StartEndScheme, VERTICAL_FRAGMENT, XPATH_AXES

__all__ = ["VERTICAL_FRAGMENT", "XPATH_AXES", "XPathCompiledQuery", "XPathPlanCompiler"]


class XPathCompiledQuery(CompiledQuery):
    """Executable plan over the start/end label relation."""


class XPathPlanCompiler(PlanCompiler):
    """Compile the XPath-expressible fragment against one column store of
    start/end labels."""

    dialect = "XPath"
    result_class = XPathCompiledQuery

    def __init__(self, column_store, axes: frozenset = VERTICAL_FRAGMENT) -> None:
        self.axes = axes
        super().__init__(column_store, scheme=StartEndScheme(axes))
