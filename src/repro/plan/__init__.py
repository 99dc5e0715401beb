"""Shared logical-plan layer: one IR, one optimizer, one executor.

Both query dialects (LPath over Definition-4.1 labels, the baseline XPath
engine over start/end labels) lower their ASTs to the algebra in
:mod:`repro.plan.ir`, run the passes in :mod:`repro.plan.optimizer`, and
execute through the columnar executor (:mod:`repro.columnar`).  Engines
keep compiled plans in a :class:`repro.plan.cache.PlanCache`.
"""

from .cache import PlanCache
from .ir import render
from .lower import Lowerer, LoweredQuery, find_attribute_equality
from .optimizer import optimize
from .segmented import (
    Segment,
    SegmentedCatalog,
    SegmentedPlanCompiler,
    SegmentedQuery,
    validate_segmentation,
)
from .schemes import (
    LPathScheme,
    LabelScheme,
    StartEndScheme,
    VERTICAL_FRAGMENT,
    XPATH_AXES,
)

__all__ = [
    "LPathScheme",
    "LabelScheme",
    "LoweredQuery",
    "Lowerer",
    "PlanCache",
    "Segment",
    "SegmentedCatalog",
    "SegmentedPlanCompiler",
    "SegmentedQuery",
    "StartEndScheme",
    "VERTICAL_FRAGMENT",
    "XPATH_AXES",
    "find_attribute_equality",
    "optimize",
    "render",
    "validate_segmentation",
]
