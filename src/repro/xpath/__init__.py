"""Baseline XPath engine over the start/end labeling scheme."""

from .compiler import VERTICAL_FRAGMENT, XPATH_AXES, XPathPlanCompiler
from .engine import XPathEngine

__all__ = [
    "VERTICAL_FRAGMENT",
    "XPATH_AXES",
    "XPathEngine",
    "XPathPlanCompiler",
]
