"""The LPath core function library.

The paper keeps XPath's function library (footnote 1); the subset needed by
linguistic queries and the XPath-rewrite comparisons is implemented here:
``position``, ``last``, ``count``, ``name``, ``true``, ``false`` (plus
``not``, which the parser treats as a boolean connective).
"""

from __future__ import annotations

import re
from typing import NamedTuple, Optional

from .ast import FunctionCall


class FunctionSpec(NamedTuple):
    """Name, arity bounds, and result kind of a library function."""

    name: str
    min_args: int
    max_args: int
    result: str  # "number" | "string" | "boolean"


FUNCTIONS: dict[str, FunctionSpec] = {
    spec.name: spec
    for spec in (
        FunctionSpec("position", 0, 0, "number"),
        FunctionSpec("last", 0, 0, "number"),
        FunctionSpec("count", 1, 1, "number"),
        FunctionSpec("name", 0, 0, "string"),
        FunctionSpec("true", 0, 0, "boolean"),
        FunctionSpec("false", 0, 0, "boolean"),
    )
}


#: A string ``number()`` reads as a number: an optional minus and ASCII
#: digits with at most one point, between whitespace.  Any other string
#: (``inf``, ``nan``, ``1e5``, ``+2``, ``1_000``) is NaN.
_NUMBER = re.compile(r"\s*-?(?:\d+\.?\d*|\.\d+)\s*", re.ASCII)


def as_float(value) -> Optional[float]:
    """``value`` as XPath's ``number()`` reads it; None for NaN."""
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str) and _NUMBER.fullmatch(value):
        return float(value)
    return None


def validate_call(call: FunctionCall) -> Optional[str]:
    """An error message when the call is unknown or has bad arity, else None."""
    spec = FUNCTIONS.get(call.name)
    if spec is None:
        known = ", ".join(sorted(FUNCTIONS))
        return f"unknown function {call.name!r} (library: {known}, plus not(...))"
    if not (spec.min_args <= len(call.args) <= spec.max_args):
        if spec.min_args == spec.max_args:
            want = str(spec.min_args)
        else:
            want = f"{spec.min_args}..{spec.max_args}"
        return f"{call.name}() takes {want} argument(s), got {len(call.args)}"
    return None
