"""Direct (tree-walking) evaluation of LPath queries.

This evaluator defines the reference semantics of the language: it walks
:class:`~repro.tree.Tree` objects using their Definition 4.1 spans, with no
label relation.  The plan and SQLite backends are differential-tested
against it.  It also implements the full XPath positional semantics
(``position()``/``last()`` with reverse-axis ordering), which the SQL
backends only support in restricted forms.

Semantic decisions (shared with the compiler, documented in DESIGN.md):

* the scope node of ``{...}`` is the node matched just before the brace (or
  the predicate's context node); every step inside, including steps in
  nested predicates, stays within the scope subtree;
* edge alignment without an explicit scope aligns to the tree root;
* attribute steps select attribute "rows"; their identity for result
  purposes is the owning element's ``(tid, id)``, as in the label relation.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Union

from ..tree.node import Tree, TreeNode
from ..lpath.ast import (
    AndExpr,
    Comparison,
    FunctionCall,
    Literal,
    NotExpr,
    Number,
    OrExpr,
    Path,
    PathExists,
    PredicateExpr,
    Scope,
    Step,
)
from ..lpath.axes import Axis, REVERSE_AXES
from ..lpath.errors import LPathEvaluationError
from ..lpath.functions import as_float
from ..lpath.parser import parse


class AttributeItem:
    """A selected attribute: the element plus the attribute name."""

    __slots__ = ("node", "name")

    def __init__(self, node: TreeNode, name: str) -> None:
        self.node = node
        self.name = name

    @property
    def value(self) -> str:
        node = self.node  # only a node with a dict has a name besides lex
        return node.word if self.name == "lex" else node.attributes[self.name]


Item = Union[TreeNode, AttributeItem]


def _element(item: Item) -> TreeNode:
    return item.node if isinstance(item, AttributeItem) else item


def string_value(item: Item) -> str:
    """XPath-style string value: attribute value, or the element's words."""
    if isinstance(item, AttributeItem):
        return item.value
    return " ".join(
        leaf.word for leaf in item.leaves() if leaf.word is not None
    )


class TreeWalkEvaluator:
    """Evaluate LPath queries by walking trees directly."""

    def __init__(self, trees: Sequence[Tree]) -> None:
        self.trees = list(trees)

    # -- public API -----------------------------------------------------------

    def query(self, query: Union[str, Path]) -> list[tuple[int, int]]:
        """Distinct ``(tid, id)`` pairs of matched nodes, sorted."""
        return sorted({(tree.tid, _element(item).node_id)
                       for tree, item in self._matches(query)})

    def nodes(self, query: Union[str, Path]) -> list[TreeNode]:
        """Matched element nodes (distinct, document order within tree order)."""
        seen: set[tuple[int, int]] = set()
        result: list[TreeNode] = []
        pairs: list[tuple[int, TreeNode]] = []
        for tree, item in self._matches(query):
            node = _element(item)
            key = (tree.tid, node.node_id)
            if key not in seen:
                seen.add(key)
                pairs.append((tree.tid, node))
        pairs.sort(key=lambda pair: (pair[0], pair[1].node_id))
        for _, node in pairs:
            result.append(node)
        return result

    def count(self, query: Union[str, Path]) -> int:
        """Size of the distinct result set (what the paper's experiments report)."""
        return len(self.query(query))

    # -- evaluation -------------------------------------------------------------

    def _matches(self, query: Union[str, Path]) -> Iterable[tuple[Tree, Item]]:
        path = parse(query) if isinstance(query, str) else query
        for tree in self.trees:
            for item in self._eval_path_from_document(tree, path):
                yield tree, item

    def _eval_path_from_document(self, tree: Tree, path: Path) -> list[Item]:
        items = list(path.items)
        if not items:
            return []
        first = items[0]
        if isinstance(first, Scope):
            raise LPathEvaluationError("an absolute query cannot start with a scope")
        context = self._document_step(tree, first)
        return self._eval_items(tree, items[1:], context, scope=None)

    def _document_step(self, tree: Tree, step: Step) -> list[Item]:
        if step.axis is Axis.DESCENDANT:
            candidates: list[TreeNode] = tree.nodes
        elif step.axis is Axis.CHILD:
            candidates = [tree.root]
        else:
            raise LPathEvaluationError(
                f"a query cannot start with the {step.axis.value} axis"
            )
        return self._filter_step(tree, step, candidates, scope=None, context=None)

    def _eval_items(
        self,
        tree: Tree,
        items: Sequence,
        context: list[Item],
        scope: Optional[TreeNode],
    ) -> list[Item]:
        if not items:
            return context
        head, rest = items[0], items[1:]
        if isinstance(head, Scope):
            if rest:
                raise LPathEvaluationError("steps after a scope are not allowed")
            results: list[Item] = []
            for item in context:
                node = _element(item)
                results.extend(
                    self._eval_items(tree, list(head.body.items), [node], scope=node)
                )
            return results
        results = []
        for item in context:
            results.extend(self._eval_step(tree, head, _element(item), scope))
        return self._eval_items(tree, rest, results, scope)

    # -- single steps -------------------------------------------------------------

    def _eval_step(
        self, tree: Tree, step: Step, context: TreeNode, scope: Optional[TreeNode]
    ) -> list[Item]:
        if step.axis is Axis.ATTRIBUTE:
            candidates = self._attribute_candidates(step, context)
            return self._apply_predicates(tree, step, candidates, scope)
        candidates = self._axis_candidates(tree, step.axis, context)
        return self._filter_step(tree, step, candidates, scope, context)

    def _filter_step(
        self,
        tree: Tree,
        step: Step,
        candidates: Iterable[TreeNode],
        scope: Optional[TreeNode],
        context: Optional[TreeNode],
    ) -> list[Item]:
        kept: list[TreeNode] = []
        scope_left = scope.left if scope is not None else tree.root.left
        scope_right = scope.right if scope is not None else tree.root.right
        for node in candidates:
            if scope is not None and not (
                scope.left <= node.left
                and node.right <= scope.right
                and node.depth >= scope.depth
            ):
                continue
            if not step.test.is_wildcard and node.label != step.test.name:
                continue
            if step.left_aligned and node.left != scope_left:
                continue
            if step.right_aligned and node.right != scope_right:
                continue
            kept.append(node)
        if step.axis in REVERSE_AXES:
            kept.sort(key=lambda node: node.node_id, reverse=True)
        return self._apply_predicates(tree, step, kept, scope)

    def _axis_candidates(
        self, tree: Tree, axis: Axis, c: TreeNode
    ) -> list[TreeNode]:
        if axis is Axis.CHILD:
            return list(c.children)
        if axis is Axis.PARENT:
            return [c.parent] if c.parent is not None else []
        if axis is Axis.DESCENDANT:
            return list(c.descendants())
        if axis is Axis.DESCENDANT_OR_SELF:
            return list(c.preorder())
        if axis is Axis.ANCESTOR:
            return list(c.ancestors())
        if axis is Axis.ANCESTOR_OR_SELF:
            return [c, *c.ancestors()]
        if axis is Axis.SELF:
            return [c]
        nodes = tree.nodes
        if axis is Axis.IMMEDIATE_FOLLOWING:
            return [x for x in nodes if x.left == c.right]
        if axis is Axis.FOLLOWING:
            return [x for x in nodes if x.left >= c.right]
        if axis is Axis.FOLLOWING_OR_SELF:
            return [x for x in nodes if x.left >= c.right or x is c]
        if axis is Axis.IMMEDIATE_PRECEDING:
            return [x for x in nodes if x.right == c.left]
        if axis is Axis.PRECEDING:
            return [x for x in nodes if x.right <= c.left]
        if axis is Axis.PRECEDING_OR_SELF:
            return [x for x in nodes if x.right <= c.left or x is c]
        parent = c.parent
        if parent is None:
            siblings = [c]
        else:
            siblings = parent.children
        if axis is Axis.IMMEDIATE_FOLLOWING_SIBLING:
            return [x for x in siblings if x.left == c.right]
        if axis is Axis.FOLLOWING_SIBLING:
            return [x for x in siblings if x.left >= c.right]
        if axis is Axis.FOLLOWING_SIBLING_OR_SELF:
            return [x for x in siblings if x.left >= c.right or x is c]
        if axis is Axis.IMMEDIATE_PRECEDING_SIBLING:
            return [x for x in siblings if x.right == c.left]
        if axis is Axis.PRECEDING_SIBLING:
            return [x for x in siblings if x.right <= c.left]
        if axis is Axis.PRECEDING_SIBLING_OR_SELF:
            return [x for x in siblings if x.right <= c.left or x is c]
        raise LPathEvaluationError(f"unsupported axis {axis.value}")

    def _attribute_candidates(self, step: Step, context: TreeNode) -> list[Item]:
        name = step.test.name
        return [
            AttributeItem(context, attr) for attr, _ in context.attribute_items()
            if name in ("_", attr)
        ]

    # -- predicates ------------------------------------------------------------------

    def _apply_predicates(
        self,
        tree: Tree,
        step: Step,
        items: list[Item],
        scope: Optional[TreeNode],
    ) -> list[Item]:
        current = items
        for predicate in step.predicates:
            size = len(current)
            current = [
                item
                for position, item in enumerate(current, start=1)
                if self._truth(
                    tree, predicate, item, scope, position=position, size=size
                )
            ]
        return current

    def _truth(
        self,
        tree: Tree,
        expr: PredicateExpr,
        item: Item,
        scope: Optional[TreeNode],
        position: int,
        size: int,
    ) -> bool:
        if isinstance(expr, OrExpr):
            return any(
                self._truth(tree, part, item, scope, position, size)
                for part in expr.parts
            )
        if isinstance(expr, AndExpr):
            return all(
                self._truth(tree, part, item, scope, position, size)
                for part in expr.parts
            )
        if isinstance(expr, NotExpr):
            return not self._truth(tree, expr.part, item, scope, position, size)
        if isinstance(expr, PathExists):
            return bool(self._eval_relative(tree, expr.path, item, scope))
        if isinstance(expr, Comparison):
            return self._compare(tree, expr, item, scope, position, size)
        if isinstance(expr, FunctionCall):
            value = self._call(tree, expr, item, scope, position, size)
            return bool(value)
        if isinstance(expr, (Literal, Number)):
            return bool(
                expr.value if isinstance(expr, Literal) else expr.value
            )
        raise LPathEvaluationError(f"cannot evaluate {type(expr).__name__}")

    def _eval_relative(
        self, tree: Tree, path: Path, item: Item, scope: Optional[TreeNode]
    ) -> list[Item]:
        node = _element(item)
        return self._eval_items(tree, list(path.items), [node], scope)

    def _call(
        self,
        tree: Tree,
        call: FunctionCall,
        item: Item,
        scope: Optional[TreeNode],
        position: int,
        size: int,
    ):
        if call.name == "position":
            return position
        if call.name == "last":
            return size
        if call.name == "count":
            argument = call.args[0]
            if not isinstance(argument, PathExists):
                raise LPathEvaluationError("count() takes a path argument")
            return len(
                {
                    (tree.tid, _element(found).node_id, getattr(found, "name", None))
                    for found in self._eval_relative(tree, argument.path, item, scope)
                }
            )
        if call.name == "name":
            return _element(item).label
        if call.name == "true":
            return True
        if call.name == "false":
            return False
        raise LPathEvaluationError(f"unknown function {call.name!r}")

    def _compare(
        self,
        tree: Tree,
        expr: Comparison,
        item: Item,
        scope: Optional[TreeNode],
        position: int,
        size: int,
    ) -> bool:
        left = self._value_of(tree, expr.left, item, scope, position, size)
        right = self._value_of(tree, expr.right, item, scope, position, size)
        return _compare_values(left, right, expr.op)

    def _value_of(
        self,
        tree: Tree,
        expr: PredicateExpr,
        item: Item,
        scope: Optional[TreeNode],
        position: int,
        size: int,
    ):
        if isinstance(expr, Literal):
            return expr.value
        if isinstance(expr, Number):
            return expr.value
        if isinstance(expr, FunctionCall):
            return self._call(tree, expr, item, scope, position, size)
        if isinstance(expr, PathExists):
            return [
                string_value(found)
                for found in self._eval_relative(tree, expr.path, item, scope)
            ]
        raise LPathEvaluationError(
            f"cannot use {type(expr).__name__} as a comparison operand"
        )


def _compare_values(left, right, op: str) -> bool:
    """XPath 1.0 comparison semantics for the value kinds we produce."""
    if isinstance(left, list) and isinstance(right, list):
        return any(_compare_scalars(a, b, op) for a in left for b in right)
    if isinstance(left, list):
        return any(_compare_scalars(a, right, op) for a in left)
    if isinstance(right, list):
        return any(_compare_scalars(left, b, op) for b in right)
    return _compare_scalars(left, right, op)


def _compare_scalars(left, right, op: str) -> bool:
    if op in ("<", "<=", ">", ">="):
        left_num, right_num = as_float(left), as_float(right)
        if left_num is None or right_num is None:
            return False
        if op == "<":
            return left_num < right_num
        if op == "<=":
            return left_num <= right_num
        if op == ">":
            return left_num > right_num
        return left_num >= right_num
    if isinstance(left, (int, float)) or isinstance(right, (int, float)):
        left_num, right_num = as_float(left), as_float(right)
        if left_num is None or right_num is None:
            equal = False
        else:
            equal = left_num == right_num
    else:
        equal = str(left) == str(right)
    return equal if op == "=" else not equal
