"""LPath: the paper's XPath dialect for linguistic queries.

Public surface:

* :func:`parse` — LPath text to AST,
* :class:`LPathEngine` — load trees, run queries,
* :mod:`repro.lpath.axes` — the Table 1 axis inventory.

The engine compiles through the shared logical IR in :mod:`repro.plan`
(one lowerer/optimizer/executor for both the LPath and XPath engines).
The tree walk and the SQL translation it is checked against live in
:mod:`repro.oracle`.
"""

from . import axes
from .ast import Path, Scope, Step
from .compiler import PlanCompiler
from .engine import LPathEngine, engine_from_bracketed
from .errors import (
    LPathCompileError,
    LPathError,
    LPathEvaluationError,
    LPathSyntaxError,
)
from .parser import parse, parse_relative

__all__ = [
    "LPathCompileError",
    "LPathEngine",
    "LPathError",
    "LPathEvaluationError",
    "LPathSyntaxError",
    "Path",
    "PlanCompiler",
    "Scope",
    "Step",
    "axes",
    "engine_from_bracketed",
    "parse",
    "parse_relative",
]
