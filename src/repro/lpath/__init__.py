"""LPath: the paper's XPath dialect for linguistic queries.

Public surface:

* :func:`parse` — LPath text to AST,
* :class:`LPathEngine` — load trees, run queries on any backend,
* :class:`TreeWalkEvaluator` — the reference evaluator,
* :mod:`repro.lpath.axes` — the Table 1 axis inventory.

The plan backend compiles through the shared logical IR in
:mod:`repro.plan` (one lowerer/optimizer/executor for both the LPath
and XPath engines).
"""

from . import axes
from .ast import Path, Scope, Step
from .compiler import PlanCompiler
from .engine import BACKENDS, LPathEngine, engine_from_bracketed
from .errors import (
    LPathCompileError,
    LPathError,
    LPathEvaluationError,
    LPathSyntaxError,
)
from .parser import parse, parse_relative
from .sql import SQLGenerator
from .treewalk import TreeWalkEvaluator

__all__ = [
    "BACKENDS",
    "LPathCompileError",
    "LPathEngine",
    "LPathError",
    "LPathEvaluationError",
    "LPathSyntaxError",
    "Path",
    "PlanCompiler",
    "SQLGenerator",
    "Scope",
    "Step",
    "TreeWalkEvaluator",
    "axes",
    "engine_from_bracketed",
    "parse",
    "parse_relative",
]
