"""Labeling-scheme adapters: axis semantics for the shared lowerer.

The two engines store different labels in the same 8-column relation
(:data:`repro.plan.ir.COLUMN_NAMES` positions): the LPath Definition-4.1
scheme (shared leaf boundaries, so the immediate-* axes are equality
tests) and the start/end baseline scheme of [11] (strict containment
only).  Everything the shared lowerer must know per scheme lives here:

* which axes an engine supports (:meth:`LabelScheme.validate`),
* the clustered-index probe and residual conditions of a named-test step
  (:meth:`LabelScheme.named_probe`),
* the full Table-2 residuals for probes the index cannot narrow
  (:meth:`LabelScheme.axis_conditions`),
* axis inverses for selectivity-driven join reordering.
"""

from __future__ import annotations

from typing import Optional

from ..lpath.ast import Scope
from ..lpath.axes import Axis, CONDITIONS, OR_SELF_BASES
from ..lpath.errors import LPathCompileError
from .ir import (
    Access,
    AllPred,
    AnyPred,
    CLUSTERED,
    Cmp,
    Col,
    Const,
    IndexProbe,
    IsElement,
    Pred,
    RightEdge,
    D, I, L, N, P, R, T,
)

#: Downward axes whose composition is again a (or-self) descendant step —
#: the precondition for pivoting correlated predicate subplans.
DOWNWARD_AXES = frozenset(
    {Axis.CHILD, Axis.DESCENDANT, Axis.DESCENDANT_OR_SELF}
)

#: Sibling-family axes that support restricted positional predicates.
POSITIONAL_AXES = frozenset(
    {
        Axis.CHILD,
        Axis.FOLLOWING_SIBLING,
        Axis.PRECEDING_SIBLING,
        Axis.IMMEDIATE_FOLLOWING_SIBLING,
        Axis.IMMEDIATE_PRECEDING_SIBLING,
    }
)

#: Every axis XPath can express over start/end labels.
XPATH_AXES = frozenset(
    {
        Axis.CHILD,
        Axis.DESCENDANT,
        Axis.DESCENDANT_OR_SELF,
        Axis.PARENT,
        Axis.ANCESTOR,
        Axis.ANCESTOR_OR_SELF,
        Axis.FOLLOWING,
        Axis.PRECEDING,
        Axis.FOLLOWING_SIBLING,
        Axis.PRECEDING_SIBLING,
        Axis.SELF,
        Axis.ATTRIBUTE,
    }
)

#: The fragment the paper's [11]-based comparator actually implements —
#: "proposed to efficiently evaluate the descendant axis and the child
#: axis by testing label containment".  This is what makes Figure 10 an
#: 11-query comparison (Q3's following axis falls outside it).
VERTICAL_FRAGMENT = frozenset(
    {
        Axis.CHILD,
        Axis.DESCENDANT,
        Axis.DESCENDANT_OR_SELF,
        Axis.PARENT,
        Axis.ANCESTOR,
        Axis.ANCESTOR_OR_SELF,
        Axis.SELF,
        Axis.ATTRIBUTE,
    }
)

_LPATH_INVERSES = {
    Axis.CHILD: Axis.PARENT,
    Axis.PARENT: Axis.CHILD,
    Axis.DESCENDANT: Axis.ANCESTOR,
    Axis.ANCESTOR: Axis.DESCENDANT,
    Axis.DESCENDANT_OR_SELF: Axis.ANCESTOR_OR_SELF,
    Axis.ANCESTOR_OR_SELF: Axis.DESCENDANT_OR_SELF,
    Axis.IMMEDIATE_FOLLOWING: Axis.IMMEDIATE_PRECEDING,
    Axis.IMMEDIATE_PRECEDING: Axis.IMMEDIATE_FOLLOWING,
    Axis.FOLLOWING: Axis.PRECEDING,
    Axis.PRECEDING: Axis.FOLLOWING,
    Axis.FOLLOWING_OR_SELF: Axis.PRECEDING_OR_SELF,
    Axis.PRECEDING_OR_SELF: Axis.FOLLOWING_OR_SELF,
    Axis.IMMEDIATE_FOLLOWING_SIBLING: Axis.IMMEDIATE_PRECEDING_SIBLING,
    Axis.IMMEDIATE_PRECEDING_SIBLING: Axis.IMMEDIATE_FOLLOWING_SIBLING,
    Axis.FOLLOWING_SIBLING: Axis.PRECEDING_SIBLING,
    Axis.PRECEDING_SIBLING: Axis.FOLLOWING_SIBLING,
    Axis.FOLLOWING_SIBLING_OR_SELF: Axis.PRECEDING_SIBLING_OR_SELF,
    Axis.PRECEDING_SIBLING_OR_SELF: Axis.FOLLOWING_SIBLING_OR_SELF,
}

_PRECEDING_AXES = (
    Axis.IMMEDIATE_PRECEDING,
    Axis.PRECEDING,
    Axis.PRECEDING_OR_SELF,
    Axis.IMMEDIATE_PRECEDING_SIBLING,
    Axis.PRECEDING_SIBLING,
    Axis.PRECEDING_SIBLING_OR_SELF,
)

_COLUMN_POSITIONS = {"tid": T, "left": L, "right": R, "depth": D, "id": I, "pid": P}


class LabelScheme:
    """Base adapter; see :class:`LPathScheme` and :class:`StartEndScheme`."""

    name: str = "abstract"
    supports_scopes = False
    supports_alignment = False
    positional_axes: frozenset = frozenset()
    element_string_values = False

    def validate(self, items) -> None:
        """Reject query features this scheme cannot express."""

    def named_probe(
        self,
        axis: Axis,
        name: str,
        ctx: int,
        cand: int,
        scope: Optional[int],
    ) -> tuple[Access, list[Pred]]:
        raise NotImplementedError

    def axis_conditions(self, axis: Axis, ctx: int, cand: int) -> list[Pred]:
        raise NotImplementedError

    def window(self, axis: Axis, ctx: int, scope: Optional[int]) -> tuple:
        """``(low, high, include_low, include_high)``: the range of the
        low span column that holds every ``axis`` candidate of the context
        (within the scope, when there is one) — the bounds of a named
        step's clustered probe and of a value-seeded merge join alike."""
        raise NotImplementedError

    def inverse(self, axis: Axis) -> Optional[Axis]:
        return None

    # -- shared helpers ------------------------------------------------------

    def scope_conditions(self, cand: int, scope: int) -> list[Pred]:
        """Containment of ``cand`` within the ``scope`` node's subtree."""
        return [
            Cmp(Col(scope, L), "<=", Col(cand, L)),
            Cmp(Col(cand, R), "<=", Col(scope, R)),
            Cmp(Col(cand, D), ">=", Col(scope, D)),
        ]

    def alignment_conditions(
        self, left_aligned: bool, right_aligned: bool, cand: int, scope: Optional[int]
    ) -> list[Pred]:
        checks: list[Pred] = []
        if left_aligned:
            if scope is None:
                checks.append(Cmp(Col(cand, L), "=", Const(1)))
            else:
                checks.append(Cmp(Col(cand, L), "=", Col(scope, L)))
        if right_aligned:
            if scope is None:
                checks.append(RightEdge(cand))
            else:
                checks.append(Cmp(Col(cand, R), "=", Col(scope, R)))
        return checks


class LPathScheme(LabelScheme):
    """Definition-4.1 labels: shared leaf boundaries, full axis inventory."""

    name = "lpath-4.1"
    supports_scopes = True
    supports_alignment = True
    positional_axes = POSITIONAL_AXES
    element_string_values = True

    def inverse(self, axis: Axis) -> Optional[Axis]:
        return _LPATH_INVERSES.get(axis)

    def axis_conditions(self, axis: Axis, ctx: int, cand: int) -> list[Pred]:
        base = OR_SELF_BASES.get(axis)
        if base is not None:
            base_checks = self.axis_conditions(base, ctx, cand)
            return [
                AnyPred((Cmp(Col(cand, I), "=", Col(ctx, I)), AllPred(tuple(base_checks))))
            ]
        checks: list[Pred] = []
        for condition in CONDITIONS[axis]:
            checks.append(
                Cmp(
                    Col(cand, _COLUMN_POSITIONS[condition.column]),
                    condition.op,
                    Col(ctx, _COLUMN_POSITIONS[condition.context_column]),
                )
            )
        return checks

    def window(self, axis: Axis, ctx: int, scope: Optional[int]) -> tuple:
        scope_low = None if scope is None else Col(scope, L)
        if axis in (Axis.CHILD, Axis.DESCENDANT, Axis.DESCENDANT_OR_SELF):
            return Col(ctx, L), Col(ctx, R), True, False
        if axis in (Axis.ANCESTOR, Axis.ANCESTOR_OR_SELF):
            return scope_low, Col(ctx, L), True, True
        if axis in (Axis.IMMEDIATE_FOLLOWING, Axis.IMMEDIATE_FOLLOWING_SIBLING):
            return Col(ctx, R), Col(ctx, R), True, True
        if axis is Axis.FOLLOWING_SIBLING:
            return Col(ctx, R), None, True, True
        if axis in (
            Axis.FOLLOWING, Axis.FOLLOWING_OR_SELF, Axis.FOLLOWING_SIBLING_OR_SELF
        ):
            scope_high = None if scope is None else Col(scope, R)
            return Col(ctx, R), scope_high, True, False
        if axis in _PRECEDING_AXES:
            # The paper's physical design has no index leading on
            # ``right``: the preceding axes range over ``left < c.left``
            # and filter on ``right``.
            return scope_low, Col(ctx, L), True, False
        # SELF/ATTRIBUTE/PARENT are handled by the lowerer
        raise LPathCompileError(f"unsupported axis {axis.value}")

    def named_probe(
        self,
        axis: Axis,
        name: str,
        ctx: int,
        cand: int,
        scope: Optional[int],
    ) -> tuple[Access, list[Pred]]:
        eq = (Const(name), Col(ctx, T))
        or_self = axis in OR_SELF_BASES
        access = IndexProbe(
            CLUSTERED, eq, *self.window(axis, ctx, scope),
            self_slot=ctx if or_self else None,
            self_name=name if or_self else None,
        )
        conds: list[Pred] = []
        if axis is Axis.CHILD:
            conds.append(Cmp(Col(cand, P), "=", Col(ctx, I)))
        elif axis is Axis.DESCENDANT:
            conds += [Cmp(Col(cand, R), "<=", Col(ctx, R)), Cmp(Col(cand, D), ">", Col(ctx, D))]
        elif axis is Axis.DESCENDANT_OR_SELF:
            conds += [Cmp(Col(cand, R), "<=", Col(ctx, R)), Cmp(Col(cand, D), ">=", Col(ctx, D))]
        elif axis is Axis.ANCESTOR:
            conds += [Cmp(Col(cand, R), ">=", Col(ctx, R)), Cmp(Col(cand, D), "<", Col(ctx, D))]
        elif axis is Axis.ANCESTOR_OR_SELF:
            conds += [Cmp(Col(cand, R), ">=", Col(ctx, R)), Cmp(Col(cand, D), "<=", Col(ctx, D))]
        elif axis in (Axis.PRECEDING_OR_SELF, Axis.PRECEDING_SIBLING_OR_SELF):
            if axis is Axis.PRECEDING_SIBLING_OR_SELF:
                conds.append(Cmp(Col(cand, P), "=", Col(ctx, P)))
            conds.append(AnyPred(
                (Cmp(Col(cand, R), "<=", Col(ctx, L)), Cmp(Col(cand, I), "=", Col(ctx, I)))
            ))
        elif axis in (Axis.IMMEDIATE_PRECEDING, Axis.IMMEDIATE_PRECEDING_SIBLING):
            if axis is Axis.IMMEDIATE_PRECEDING_SIBLING:
                conds.append(Cmp(Col(cand, P), "=", Col(ctx, P)))
            conds.append(Cmp(Col(cand, R), "=", Col(ctx, L)))
        elif axis is Axis.PRECEDING:
            conds.append(Cmp(Col(cand, R), "<=", Col(ctx, L)))
        elif axis in (
            Axis.IMMEDIATE_FOLLOWING_SIBLING,
            Axis.FOLLOWING_SIBLING,
            Axis.FOLLOWING_SIBLING_OR_SELF,
        ):
            conds.append(Cmp(Col(cand, P), "=", Col(ctx, P)))
        elif axis is Axis.PRECEDING_SIBLING:
            conds += [Cmp(Col(cand, P), "=", Col(ctx, P)), Cmp(Col(cand, R), "<=", Col(ctx, L))]
        return access, conds


class StartEndScheme(LabelScheme):
    """Start/end labels of [11]: strict containment, vertical-first axes."""

    name = "start-end"
    supports_scopes = False
    supports_alignment = False
    positional_axes = frozenset()
    element_string_values = False

    def __init__(self, axes: frozenset = VERTICAL_FRAGMENT) -> None:
        self.axes = axes

    def inverse(self, axis: Axis) -> Optional[Axis]:
        inverse = _LPATH_INVERSES.get(axis)
        if inverse is None or inverse not in self.axes:
            return None
        return inverse

    def validate(self, items) -> None:
        """Reject LPath-only features (Lemma 3.1) and out-of-fragment axes."""
        from .lower import paths_in_predicate

        stack = list(items)
        while stack:
            item = stack.pop()
            if isinstance(item, Scope):
                raise LPathCompileError(
                    "subtree scoping is not expressible in XPath (Lemma 3.1)"
                )
            if item.axis not in self.axes:
                if item.axis in XPATH_AXES:
                    raise LPathCompileError(
                        f"the {item.axis.value} axis is outside the [11] "
                        "translation's vertical fragment"
                    )
                raise LPathCompileError(
                    f"the {item.axis.value} axis is not expressible in XPath "
                    "(Lemma 3.1)"
                )
            if item.left_aligned or item.right_aligned:
                raise LPathCompileError(
                    "edge alignment is not expressible in XPath over descendants"
                )
            for predicate in item.predicates:
                stack.extend(paths_in_predicate(predicate))

    def axis_conditions(self, axis: Axis, ctx: int, cand: int) -> list[Pred]:
        if axis is Axis.CHILD:
            return [Cmp(Col(cand, P), "=", Col(ctx, I))]
        if axis is Axis.DESCENDANT:
            return [Cmp(Col(ctx, L), "<", Col(cand, L)), Cmp(Col(cand, R), "<", Col(ctx, R))]
        if axis is Axis.DESCENDANT_OR_SELF:
            return [Cmp(Col(ctx, L), "<=", Col(cand, L)), Cmp(Col(cand, R), "<=", Col(ctx, R))]
        if axis is Axis.ANCESTOR:
            return [Cmp(Col(cand, L), "<", Col(ctx, L)), Cmp(Col(ctx, R), "<", Col(cand, R))]
        if axis is Axis.ANCESTOR_OR_SELF:
            return [Cmp(Col(cand, L), "<=", Col(ctx, L)), Cmp(Col(ctx, R), "<=", Col(cand, R))]
        if axis is Axis.FOLLOWING:
            return [Cmp(Col(cand, L), ">", Col(ctx, R))]
        if axis is Axis.PRECEDING:
            return [Cmp(Col(cand, R), "<", Col(ctx, L))]
        if axis is Axis.FOLLOWING_SIBLING:
            return [Cmp(Col(cand, P), "=", Col(ctx, P)), Cmp(Col(cand, L), ">", Col(ctx, R))]
        if axis is Axis.PRECEDING_SIBLING:
            return [Cmp(Col(cand, P), "=", Col(ctx, P)), Cmp(Col(cand, R), "<", Col(ctx, L))]
        raise LPathCompileError(f"unsupported axis {axis.value}")

    def window(self, axis: Axis, ctx: int, scope: Optional[int]) -> tuple:
        if axis in (Axis.CHILD, Axis.DESCENDANT, Axis.DESCENDANT_OR_SELF):
            return Col(ctx, L), Col(ctx, R), axis is Axis.DESCENDANT_OR_SELF, False
        if axis in (Axis.ANCESTOR, Axis.ANCESTOR_OR_SELF):
            return None, Col(ctx, L), True, axis is Axis.ANCESTOR_OR_SELF
        if axis in (Axis.FOLLOWING, Axis.FOLLOWING_SIBLING):
            return Col(ctx, R), None, False, True
        if axis in (Axis.PRECEDING, Axis.PRECEDING_SIBLING):
            return None, Col(ctx, L), True, False
        # everything else is rejected by validate() or handled by the lowerer
        raise LPathCompileError(f"unsupported axis {axis.value}")

    def named_probe(
        self,
        axis: Axis,
        name: str,
        ctx: int,
        cand: int,
        scope: Optional[int],
    ) -> tuple[Access, list[Pred]]:
        access = IndexProbe(
            CLUSTERED,
            (Const(name), Col(ctx, T)),
            *self.window(axis, ctx, scope),
        )
        conds: list[Pred] = []
        if axis is Axis.CHILD:
            conds.append(Cmp(Col(cand, P), "=", Col(ctx, I)))
        elif axis is Axis.DESCENDANT:
            conds.append(Cmp(Col(cand, R), "<", Col(ctx, R)))
        elif axis is Axis.DESCENDANT_OR_SELF:
            conds.append(Cmp(Col(cand, R), "<=", Col(ctx, R)))
        elif axis is Axis.ANCESTOR:
            conds.append(Cmp(Col(cand, R), ">", Col(ctx, R)))
        elif axis is Axis.ANCESTOR_OR_SELF:
            conds.append(Cmp(Col(cand, R), ">=", Col(ctx, R)))
        elif axis is Axis.PRECEDING:
            conds.append(Cmp(Col(cand, R), "<", Col(ctx, L)))
        elif axis is Axis.FOLLOWING_SIBLING:
            conds.append(Cmp(Col(cand, P), "=", Col(ctx, P)))
        elif axis is Axis.PRECEDING_SIBLING:
            conds += [Cmp(Col(cand, P), "=", Col(ctx, P)), Cmp(Col(cand, R), "<", Col(ctx, L))]
        return access, conds
