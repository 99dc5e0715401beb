"""The LPath axis inventory (Table 1) and its label-comparison conditions.

This module is the single source of truth shared by the tree-walk
evaluator, the plan compiler and the SQL generator:

* :class:`Axis` enumerates every LPath axis with its abbreviation,
  navigation type, transitive-closure relationships and Core-XPath support
  (reproducing Table 1 of the paper);
* :data:`CONDITIONS` gives, for each axis, the Table 2 label comparisons
  ``x.col <op> context.col`` that decide "x stands in this axis relation
  to the context node".
"""

from __future__ import annotations

import enum
from typing import NamedTuple, Optional


class NavigationType(enum.Enum):
    """Table 1's Type column."""

    VERTICAL = "Vertical"
    HORIZONTAL = "Horizontal"
    SIBLING = "Sibling"
    OTHER = "Other"


class Axis(enum.Enum):
    """Every axis of the LPath language."""

    CHILD = "child"
    DESCENDANT = "descendant"
    DESCENDANT_OR_SELF = "descendant-or-self"
    PARENT = "parent"
    ANCESTOR = "ancestor"
    ANCESTOR_OR_SELF = "ancestor-or-self"
    IMMEDIATE_FOLLOWING = "immediate-following"
    FOLLOWING = "following"
    FOLLOWING_OR_SELF = "following-or-self"
    IMMEDIATE_PRECEDING = "immediate-preceding"
    PRECEDING = "preceding"
    PRECEDING_OR_SELF = "preceding-or-self"
    IMMEDIATE_FOLLOWING_SIBLING = "immediate-following-sibling"
    FOLLOWING_SIBLING = "following-sibling"
    FOLLOWING_SIBLING_OR_SELF = "following-sibling-or-self"
    IMMEDIATE_PRECEDING_SIBLING = "immediate-preceding-sibling"
    PRECEDING_SIBLING = "preceding-sibling"
    PRECEDING_SIBLING_OR_SELF = "preceding-sibling-or-self"
    SELF = "self"
    ATTRIBUTE = "attribute"


class AxisInfo(NamedTuple):
    """One row of Table 1."""

    axis: Axis
    navigation: NavigationType
    abbreviation: Optional[str]
    closure_of: Optional[Axis]          # "Closure" column: this axis is the
                                        # transitive closure of `closure_of`
    core_xpath: bool                    # supported by Core XPath?


#: Table 1 of the paper (or-self variants included, namespace axis omitted,
#: exactly as in the paper's own presentation).
TABLE_1: tuple[AxisInfo, ...] = (
    AxisInfo(Axis.CHILD, NavigationType.VERTICAL, "/", None, True),
    AxisInfo(Axis.DESCENDANT, NavigationType.VERTICAL, "/descendant::", Axis.CHILD, True),
    AxisInfo(Axis.PARENT, NavigationType.VERTICAL, "\\", None, True),
    AxisInfo(Axis.ANCESTOR, NavigationType.VERTICAL, "\\ancestor::", Axis.PARENT, True),
    AxisInfo(Axis.IMMEDIATE_FOLLOWING, NavigationType.HORIZONTAL, "->", None, False),
    AxisInfo(Axis.FOLLOWING, NavigationType.HORIZONTAL, "-->", Axis.IMMEDIATE_FOLLOWING, True),
    AxisInfo(Axis.IMMEDIATE_PRECEDING, NavigationType.HORIZONTAL, "<-", None, False),
    AxisInfo(Axis.PRECEDING, NavigationType.HORIZONTAL, "<--", Axis.IMMEDIATE_PRECEDING, True),
    AxisInfo(Axis.IMMEDIATE_FOLLOWING_SIBLING, NavigationType.SIBLING, "=>", None, False),
    AxisInfo(Axis.FOLLOWING_SIBLING, NavigationType.SIBLING, "==>", Axis.IMMEDIATE_FOLLOWING_SIBLING, True),
    AxisInfo(Axis.IMMEDIATE_PRECEDING_SIBLING, NavigationType.SIBLING, "<=", None, False),
    AxisInfo(Axis.PRECEDING_SIBLING, NavigationType.SIBLING, "<==", Axis.IMMEDIATE_PRECEDING_SIBLING, True),
    AxisInfo(Axis.SELF, NavigationType.OTHER, ".", None, True),
    AxisInfo(Axis.ATTRIBUTE, NavigationType.OTHER, "@", None, True),
)

AXIS_INFO: dict[Axis, AxisInfo] = {info.axis: info for info in TABLE_1}

#: Axis spelled out with ``axisname::`` syntax (XPath compatibility).
NAMED_AXES: dict[str, Axis] = {axis.value: axis for axis in Axis}

#: LPath arrow abbreviations, longest first for maximal-munch lexing.
ARROWS: tuple[tuple[str, Axis], ...] = (
    ("-->", Axis.FOLLOWING),
    ("->", Axis.IMMEDIATE_FOLLOWING),
    ("<--", Axis.PRECEDING),
    ("<==", Axis.PRECEDING_SIBLING),
    ("<=", Axis.IMMEDIATE_PRECEDING_SIBLING),
    ("<-", Axis.IMMEDIATE_PRECEDING),
    ("==>", Axis.FOLLOWING_SIBLING),
    ("=>", Axis.IMMEDIATE_FOLLOWING_SIBLING),
)


class Condition(NamedTuple):
    """One Table 2 comparison: ``x.<column> <op> context.<context_column>``."""

    column: str
    op: str
    context_column: str


#: Table 2: label comparisons deciding each axis (``tid`` equality is
#: implicit everywhere and handled separately by both backends).
CONDITIONS: dict[Axis, tuple[Condition, ...]] = {
    Axis.CHILD: (Condition("pid", "=", "id"),),
    Axis.PARENT: (Condition("id", "=", "pid"),),
    Axis.DESCENDANT: (
        Condition("left", ">=", "left"),
        Condition("right", "<=", "right"),
        Condition("depth", ">", "depth"),
    ),
    Axis.DESCENDANT_OR_SELF: (
        Condition("left", ">=", "left"),
        Condition("right", "<=", "right"),
        Condition("depth", ">=", "depth"),
    ),
    Axis.ANCESTOR: (
        Condition("left", "<=", "left"),
        Condition("right", ">=", "right"),
        Condition("depth", "<", "depth"),
    ),
    Axis.ANCESTOR_OR_SELF: (
        Condition("left", "<=", "left"),
        Condition("right", ">=", "right"),
        Condition("depth", "<=", "depth"),
    ),
    Axis.IMMEDIATE_FOLLOWING: (Condition("left", "=", "right"),),
    Axis.FOLLOWING: (Condition("left", ">=", "right"),),
    Axis.IMMEDIATE_PRECEDING: (Condition("right", "=", "left"),),
    Axis.PRECEDING: (Condition("right", "<=", "left"),),
    Axis.IMMEDIATE_FOLLOWING_SIBLING: (
        Condition("pid", "=", "pid"),
        Condition("left", "=", "right"),
    ),
    Axis.FOLLOWING_SIBLING: (
        Condition("pid", "=", "pid"),
        Condition("left", ">=", "right"),
    ),
    Axis.IMMEDIATE_PRECEDING_SIBLING: (
        Condition("pid", "=", "pid"),
        Condition("right", "=", "left"),
    ),
    Axis.PRECEDING_SIBLING: (
        Condition("pid", "=", "pid"),
        Condition("right", "<=", "left"),
    ),
    Axis.SELF: (Condition("id", "=", "id"),),
    Axis.ATTRIBUTE: (Condition("id", "=", "id"),),
}

#: The or-self horizontal/sibling axes (Section 3: included "so that the
#: axis set contains both primary axes and their transitive closure").
#: They are disjunctive — base-axis conditions OR self — so they live
#: outside the conjunctive Table 2 map; this table names their base axis.
OR_SELF_BASES: dict[Axis, Axis] = {
    Axis.FOLLOWING_OR_SELF: Axis.FOLLOWING,
    Axis.PRECEDING_OR_SELF: Axis.PRECEDING,
    Axis.FOLLOWING_SIBLING_OR_SELF: Axis.FOLLOWING_SIBLING,
    Axis.PRECEDING_SIBLING_OR_SELF: Axis.PRECEDING_SIBLING,
}

#: Axes whose result nodes must be element rows (all but attribute).
ELEMENT_AXES = frozenset(axis for axis in Axis if axis is not Axis.ATTRIBUTE)

#: Reverse axes: document order of results runs backwards, which matters
#: for XPath positional predicates.
REVERSE_AXES = frozenset(
    {
        Axis.PARENT,
        Axis.ANCESTOR,
        Axis.ANCESTOR_OR_SELF,
        Axis.IMMEDIATE_PRECEDING,
        Axis.PRECEDING,
        Axis.PRECEDING_OR_SELF,
        Axis.IMMEDIATE_PRECEDING_SIBLING,
        Axis.PRECEDING_SIBLING,
        Axis.PRECEDING_SIBLING_OR_SELF,
    }
)


def closure_pairs() -> list[tuple[Axis, Axis]]:
    """(primitive, closure) pairs from Table 1: the gap LPath fills."""
    return [
        (info.closure_of, info.axis)
        for info in TABLE_1
        if info.closure_of is not None
    ]
