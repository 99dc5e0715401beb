"""Baseline XPath engine over the start/end labeling scheme."""

from ..plan.schemes import VERTICAL_FRAGMENT, XPATH_AXES
from .engine import XPathEngine

__all__ = ["VERTICAL_FRAGMENT", "XPATH_AXES", "XPathEngine"]
