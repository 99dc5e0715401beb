"""Labeling schemes: the LPath scheme (Definition 4.1) and the XPath baseline."""

from . import xpath_scheme
from .lpath_scheme import (
    ATTRIBUTE_PREFIX,
    COLUMNS,
    Label,
    label_columns,
    label_corpus,
    label_tree,
)

__all__ = [
    "ATTRIBUTE_PREFIX",
    "COLUMNS",
    "Label",
    "label_columns",
    "label_corpus",
    "label_tree",
    "xpath_scheme",
]
