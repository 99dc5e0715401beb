"""LPath-to-SQL translation (the paper's yacc-based translation module).

Generates one SQL statement per query over the Section 5 schema
``node(tid, left, right, depth, id, pid, name, value)``:

* each step becomes a relation alias joined with its context via the
  Table 2 label comparisons;
* predicates become (NOT) EXISTS correlated subqueries;
* subtree scoping and edge alignment become extra comparisons against the
  scope alias (or the tree root for unscoped alignment);
* restricted positional predicates become correlated sibling counts.

The emitted text is executed verbatim by :class:`SQLiteBackend` — the
standard library's SQLite as an *independent executor of the same SQL
text* — and differential-tested against the plan compiler and the
tree-walk evaluator.  ``left``/``right`` are SQL keywords, hence the
quoting throughout.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from ..lpath.ast import (
    AndExpr,
    Comparison,
    FunctionCall,
    Literal,
    NodeTest,
    NotExpr,
    Number,
    OrExpr,
    Path,
    PathExists,
    PredicateExpr,
    Scope,
    Step,
)
from ..lpath.axes import Axis, CONDITIONS, OR_SELF_BASES
from ..lpath.errors import LPathCompileError
from ..lpath.functions import as_float
from ..lpath.parser import parse

_POSITIONAL_AXES = {
    Axis.CHILD,
    Axis.FOLLOWING_SIBLING,
    Axis.PRECEDING_SIBLING,
    Axis.IMMEDIATE_FOLLOWING_SIBLING,
    Axis.IMMEDIATE_PRECEDING_SIBLING,
}


def _quote_string(value: str) -> str:
    return "'" + value.replace("'", "''") + "'"


def _col(alias: str, column: str) -> str:
    return f'{alias}."{column}"'


class SQLGenerator:
    """Stateless front end; each :meth:`generate` call is independent."""

    def __init__(self, table: str = "node") -> None:
        self.table = table

    def generate(self, path: Path) -> str:
        """Translate an absolute LPath query to one SQL statement."""
        state = _State(self.table)
        result_alias = state.compile_items(
            list(path.items), ctx_alias=None, scope_alias=None
        )
        from_clause = ", ".join(
            f'"{self.table}" {alias}' for alias in state.aliases
        )
        where = " AND ".join(state.conditions) if state.conditions else "1=1"
        return (
            f'SELECT DISTINCT {_col(result_alias, "tid")}, {_col(result_alias, "id")}\n'
            f"FROM {from_clause}\n"
            f"WHERE {where}"
        )


class _State:
    """Alias allocation and condition accumulation for one query."""

    def __init__(self, table: str, counter_start: int = 0) -> None:
        self.table = table
        self.aliases: list[str] = []
        self.conditions: list[str] = []
        self.counter = counter_start

    def fresh_alias(self) -> str:
        alias = f"t{self.counter}"
        self.counter += 1
        self.aliases.append(alias)
        return alias

    # -- path compilation ----------------------------------------------------

    def compile_items(
        self,
        items: Sequence,
        ctx_alias: Optional[str],
        scope_alias: Optional[str],
    ) -> str:
        if not items:
            raise LPathCompileError("empty path")
        current = ctx_alias
        index = 0
        while index < len(items):
            item = items[index]
            if isinstance(item, Scope):
                if index != len(items) - 1:
                    raise LPathCompileError("steps after a scope are not allowed")
                if current is None:
                    raise LPathCompileError("a scope needs a context node")
                return self.compile_items(
                    list(item.body.items), ctx_alias=current, scope_alias=current
                )
            step = item
            if step.axis is Axis.SELF:
                if current is None:
                    raise LPathCompileError("a query cannot start with self")
                self._node_test(current, step.test)
                self._alignment(current, step, scope_alias)
                self._predicates(current, step, None, scope_alias, check_positional=True)
                index += 1
                continue
            current = self._join_step(step, current, scope_alias)
            index += 1
        if current is None:
            raise LPathCompileError("query selects nothing")
        return current

    def _join_step(
        self, step: Step, ctx_alias: Optional[str], scope_alias: Optional[str]
    ) -> str:
        alias = self.fresh_alias()
        if ctx_alias is None:
            # First step of an absolute query: context is the document.
            if step.axis is Axis.DESCENDANT:
                pass  # every node is a descendant-or-self of the document
            elif step.axis is Axis.CHILD:
                self.conditions.append(f'{_col(alias, "pid")} = 0')
            else:
                raise LPathCompileError(
                    f"a query cannot start with the {step.axis.value} axis"
                )
        else:
            self.conditions.append(
                f'{_col(alias, "tid")} = {_col(ctx_alias, "tid")}'
            )
            base = OR_SELF_BASES.get(step.axis)
            if base is not None:
                conjuncts = " AND ".join(
                    f'{_col(alias, c.column)} {c.op} {_col(ctx_alias, c.context_column)}'
                    for c in CONDITIONS[base]
                )
                self.conditions.append(
                    f'(({conjuncts}) OR {_col(alias, "id")} = {_col(ctx_alias, "id")})'
                )
            else:
                for condition in CONDITIONS[step.axis]:
                    self.conditions.append(
                        f'{_col(alias, condition.column)} {condition.op} '
                        f'{_col(ctx_alias, condition.context_column)}'
                    )
        if step.axis is Axis.ATTRIBUTE:
            if step.test.is_wildcard:
                self.conditions.append(
                    f'substr({_col(alias, "name")}, 1, 1) = \'@\''
                )
            else:
                self.conditions.append(
                    f'{_col(alias, "name")} = {_quote_string("@" + step.test.name)}'
                )
        else:
            self._node_test(alias, step.test)
        if scope_alias is not None:
            self.conditions.append(
                f'{_col(alias, "left")} >= {_col(scope_alias, "left")}'
            )
            self.conditions.append(
                f'{_col(alias, "right")} <= {_col(scope_alias, "right")}'
            )
            self.conditions.append(
                f'{_col(alias, "depth")} >= {_col(scope_alias, "depth")}'
            )
        self._alignment(alias, step, scope_alias)
        self._predicates(alias, step, ctx_alias, scope_alias, check_positional=False)
        return alias

    def _node_test(self, alias: str, test: NodeTest) -> None:
        if test.is_wildcard:
            self.conditions.append(f'substr({_col(alias, "name")}, 1, 1) <> \'@\'')
        else:
            self.conditions.append(
                f'{_col(alias, "name")} = {_quote_string(test.name)}'
            )

    def _alignment(
        self, alias: str, step: Step, scope_alias: Optional[str]
    ) -> None:
        if step.left_aligned:
            if scope_alias is None:
                self.conditions.append(f'{_col(alias, "left")} = 1')
            else:
                self.conditions.append(
                    f'{_col(alias, "left")} = {_col(scope_alias, "left")}'
                )
        if step.right_aligned:
            if scope_alias is None:
                self.conditions.append(
                    f'{_col(alias, "right")} = ('
                    f'SELECT MAX(r."right") FROM "{self.table}" r '
                    f'WHERE r."tid" = {_col(alias, "tid")})'
                )
            else:
                self.conditions.append(
                    f'{_col(alias, "right")} = {_col(scope_alias, "right")}'
                )

    # -- predicates -------------------------------------------------------------

    def _predicates(
        self,
        alias: str,
        step: Step,
        ctx_alias: Optional[str],
        scope_alias: Optional[str],
        check_positional: bool,
    ) -> None:
        for index, predicate in enumerate(step.predicates):
            if _mentions_position(predicate):
                if check_positional or ctx_alias is None:
                    raise LPathCompileError(
                        "positional predicates are not supported here by the "
                        "SQL translation"
                    )
                if index != 0:
                    raise LPathCompileError(
                        "positional predicates must come first on their step"
                    )
                self.conditions.append(
                    self._positional(predicate, step, alias, ctx_alias)
                )
            else:
                self.conditions.append(
                    self._boolean(predicate, alias, scope_alias)
                )

    def _boolean(
        self, expr: PredicateExpr, ctx_alias: str, scope_alias: Optional[str]
    ) -> str:
        if isinstance(expr, OrExpr):
            return "(" + " OR ".join(
                self._boolean(part, ctx_alias, scope_alias) for part in expr.parts
            ) + ")"
        if isinstance(expr, AndExpr):
            return "(" + " AND ".join(
                self._boolean(part, ctx_alias, scope_alias) for part in expr.parts
            ) + ")"
        if isinstance(expr, NotExpr):
            return "NOT " + self._boolean(expr.part, ctx_alias, scope_alias)
        if isinstance(expr, PathExists):
            return self._exists(expr.path, ctx_alias, scope_alias)
        if isinstance(expr, Comparison):
            return self._comparison(expr, ctx_alias, scope_alias)
        if isinstance(expr, FunctionCall):
            if expr.name == "true":
                return "1=1"
            if expr.name == "false":
                return "1=0"
            raise LPathCompileError(
                f"function {expr.name}() is not usable as a boolean in SQL"
            )
        raise LPathCompileError(f"cannot translate predicate {expr}")

    def _exists(
        self, path: Path, ctx_alias: str, scope_alias: Optional[str]
    ) -> str:
        inner = _State(self.table, counter_start=self.counter + 1000)
        inner.compile_items(list(path.items), ctx_alias=ctx_alias, scope_alias=scope_alias)
        if not inner.aliases:
            # Pure self steps add no relations; the conditions reference the
            # outer alias directly.
            if not inner.conditions:
                return "1=1"
            return "(" + " AND ".join(inner.conditions) + ")"
        from_clause = ", ".join(f'"{self.table}" {alias}' for alias in inner.aliases)
        where = " AND ".join(inner.conditions) if inner.conditions else "1=1"
        return f"EXISTS (SELECT 1 FROM {from_clause} WHERE {where})"

    def _comparison(
        self, expr: Comparison, ctx_alias: str, scope_alias: Optional[str]
    ) -> str:
        left, op, right = expr.left, expr.op, expr.right
        if isinstance(left, FunctionCall) and left.name == "name" and isinstance(right, (Literal, Number)):
            wanted = right.value if isinstance(right, Literal) else str(right.value)
            sql_op = "=" if op == "=" else "<>"
            if op not in ("=", "!="):
                raise LPathCompileError("name() only supports = and !=")
            return f'{_col(ctx_alias, "name")} {sql_op} {_quote_string(wanted)}'
        if isinstance(left, FunctionCall) and left.name == "count":
            return self._count_comparison(left, op, right, ctx_alias, scope_alias)
        if isinstance(right, FunctionCall) and right.name == "count":
            flipped = {"<": ">", ">": "<", "<=": ">=", ">=": "<=", "=": "=", "!=": "!="}
            return self._count_comparison(right, flipped[op], left, ctx_alias, scope_alias)
        if isinstance(left, PathExists) and isinstance(right, (Literal, Number)):
            return self._value_comparison(left.path, op, right, ctx_alias, scope_alias)
        if isinstance(right, PathExists) and isinstance(left, (Literal, Number)):
            flipped = {"<": ">", ">": "<", "<=": ">=", ">=": "<=", "=": "=", "!=": "!="}
            return self._value_comparison(
                right.path, flipped[op], left, ctx_alias, scope_alias
            )
        raise LPathCompileError(f"comparison {expr} is not supported in SQL")

    def _value_comparison(
        self,
        path: Path,
        op: str,
        literal,
        ctx_alias: str,
        scope_alias: Optional[str],
    ) -> str:
        last = path.last_step()
        if not (isinstance(last, Step) and last.axis is Axis.ATTRIBUTE):
            raise LPathCompileError(
                "SQL value comparisons need an attribute-final path "
                "(element string values are only supported by the plan and "
                "tree-walk backends)"
            )
        inner = _State(self.table, counter_start=self.counter + 2000)
        final = inner.compile_items(
            list(path.items), ctx_alias=ctx_alias, scope_alias=scope_alias
        )
        value = _col(final, "value")
        if op in ("<", "<=", ">", ">=") and isinstance(literal, Literal):
            # Ordering reads both sides as number() does: a quoted number
            # is that number, and any other literal is NaN, which no
            # value is less or greater than.
            number = as_float(literal.value)
            literal = Number(number) if number is not None else None
        if literal is None:
            condition = "0"
        elif isinstance(literal, Number):
            # A value that is no number is NaN, against which only != holds;
            # it equals its REAL cast only if SQLite reads all of it as one,
            # and number() reads no sign + and no exponent.
            number = literal.value
            rendered = str(int(number)) if number == int(number) else str(number)
            real = f"CAST({value} AS REAL)"
            numeric = f"{value} = {real} AND {value} NOT GLOB '*[+Ee]*'"
            condition = f"({numeric} AND {real} {_sql_op(op)} {rendered})"
            if op == "!=":
                condition = f"NOT ({numeric} AND {real} = {rendered})"
        else:
            condition = f"{value} {_sql_op(op)} {_quote_string(literal.value)}"
        inner.conditions.append(condition)
        from_clause = ", ".join(f'"{self.table}" {alias}' for alias in inner.aliases)
        where = " AND ".join(inner.conditions)
        return f"EXISTS (SELECT 1 FROM {from_clause} WHERE {where})"

    def _count_comparison(
        self,
        call: FunctionCall,
        op: str,
        other: PredicateExpr,
        ctx_alias: str,
        scope_alias: Optional[str],
    ) -> str:
        argument = call.args[0]
        if not isinstance(argument, PathExists):
            raise LPathCompileError("count() takes a path argument")
        if not isinstance(other, (Number, Literal)):
            raise LPathCompileError("count() comparisons need a numeric operand")
        try:
            target = float(str(other.value))
        except ValueError:
            raise LPathCompileError("count() comparisons need a numeric operand")
        inner = _State(self.table, counter_start=self.counter + 3000)
        final = inner.compile_items(
            list(argument.path.items), ctx_alias=ctx_alias, scope_alias=scope_alias
        )
        from_clause = ", ".join(f'"{self.table}" {alias}' for alias in inner.aliases)
        where = " AND ".join(inner.conditions) if inner.conditions else "1=1"
        rendered = str(int(target)) if target == int(target) else str(target)
        return (
            f"(SELECT COUNT(*) FROM (SELECT DISTINCT {_col(final, 'tid')}, "
            f"{_col(final, 'id')}, {_col(final, 'name')} "
            f"FROM {from_clause} WHERE {where})) {_sql_op(op)} {rendered}"
        )

    # -- positional -----------------------------------------------------------------

    def _positional(
        self, predicate: PredicateExpr, step: Step, alias: str, ctx_alias: str
    ) -> str:
        if step.axis not in _POSITIONAL_AXES:
            raise LPathCompileError(
                f"positional predicates on the {step.axis.value} axis are not "
                "supported by the SQL translation"
            )
        if not isinstance(predicate, Comparison):
            raise LPathCompileError("unsupported positional predicate form")
        left, op, right = predicate.left, predicate.op, predicate.right
        if not (isinstance(left, FunctionCall) and left.name == "position"):
            raise LPathCompileError("positional predicates must test position()")
        z = f"z{self.counter + 4000}"
        if step.test.is_wildcard:
            node_test = f'substr({_col(z, "name")}, 1, 1) <> \'@\''
        else:
            node_test = f'{_col(z, "name")} = {_quote_string(step.test.name)}'
        shared = (
            f'{_col(z, "tid")} = {_col(alias, "tid")} AND '
            f'{_col(z, "pid")} = {_col(alias, "pid")} AND {node_test}'
        )
        if step.axis is Axis.CHILD:
            before = f'{_col(z, "left")} < {_col(alias, "left")}'
        elif step.axis in (Axis.FOLLOWING_SIBLING, Axis.IMMEDIATE_FOLLOWING_SIBLING):
            before = (
                f'{_col(z, "left")} >= {_col(ctx_alias, "right")} AND '
                f'{_col(z, "left")} < {_col(alias, "left")}'
            )
        else:
            before = (
                f'{_col(z, "right")} <= {_col(ctx_alias, "left")} AND '
                f'{_col(z, "right")} > {_col(alias, "right")}'
            )
        if isinstance(right, FunctionCall) and right.name == "last":
            if op != "=":
                raise LPathCompileError("only position()=last() is supported")
            if step.axis in (Axis.PRECEDING_SIBLING, Axis.IMMEDIATE_PRECEDING_SIBLING):
                after = f'{_col(z, "right")} <= {_col(alias, "left")}'
            else:
                after = f'{_col(z, "left")} >= {_col(alias, "right")}'
            return (
                f'NOT EXISTS (SELECT 1 FROM "{self.table}" {z} '
                f"WHERE {shared} AND {after})"
            )
        if not isinstance(right, Number):
            raise LPathCompileError("position() must be compared to a number or last()")
        target = int(right.value) - 1
        return (
            f'(SELECT COUNT(*) FROM "{self.table}" {z} '
            f"WHERE {shared} AND {before}) {_sql_op(op)} {target}"
        )


def _sql_op(op: str) -> str:
    return "<>" if op == "!=" else op


def _mentions_position(expr: PredicateExpr) -> bool:
    if isinstance(expr, (OrExpr, AndExpr)):
        return any(_mentions_position(part) for part in expr.parts)
    if isinstance(expr, NotExpr):
        return _mentions_position(expr.part)
    if isinstance(expr, Comparison):
        return _mentions_position(expr.left) or _mentions_position(expr.right)
    if isinstance(expr, FunctionCall):
        return expr.name in ("position", "last")
    return False


#: The Section 5 label relation and its physical design, as SQLite DDL.
_NODE_COLUMNS = (
    ("tid", "INTEGER"), ("left", "INTEGER"), ("right", "INTEGER"),
    ("depth", "INTEGER"), ("id", "INTEGER"), ("pid", "INTEGER"),
    ("name", "TEXT"), ("value", "TEXT"),
)
_NODE_INDEXES = {
    "idx_clustered": ("name", "tid", "left", "right", "depth", "id", "pid"),
    "idx_tid_value_id": ("tid", "value", "id"),
    "idx_value_tid_id": ("value", "tid", "id"),
    "idx_tid_id": ("tid", "id", "left", "right", "depth", "pid"),
}


def _quote_identifier(name: str) -> str:
    return '"' + name.replace('"', '""') + '"'


class SQLiteBackend:
    """An in-memory SQLite database holding the label relation."""

    def __init__(self, rows, table_name: str = "node") -> None:
        import sqlite3

        self.table = table_name
        self.connection = sqlite3.connect(":memory:")
        table = _quote_identifier(table_name)
        columns = ", ".join(
            f"{_quote_identifier(column)} {kind}" for column, kind in _NODE_COLUMNS
        )
        self.connection.execute(f"CREATE TABLE {table} ({columns})")
        placeholders = ", ".join("?" for _ in _NODE_COLUMNS)
        self.connection.executemany(
            f"INSERT INTO {table} VALUES ({placeholders})", rows
        )
        for index_name, index_columns in _NODE_INDEXES.items():
            body = ", ".join(_quote_identifier(c) for c in index_columns)
            self.connection.execute(f"CREATE INDEX {index_name} ON {table} ({body})")
        self.connection.commit()

    def query(
        self, query: Union[str, Path], limit: Optional[int] = None
    ) -> list[tuple[int, int]]:
        """Distinct, sorted ``(tid, id)`` pairs: the SQL text
        :class:`SQLGenerator` emits for the query, run as it is.
        ``limit=k`` keeps the first k pairs."""
        path = parse(query) if isinstance(query, str) else query
        sql = SQLGenerator(self.table).generate(path)
        return sorted(tuple(row) for row in self.execute(sql))[:limit]

    def execute(self, sql: str, parameters: Sequence = ()) -> list[tuple]:
        """Run a query and fetch all rows."""
        return self.connection.execute(sql, parameters).fetchall()

    def close(self) -> None:
        """Release the connection."""
        self.connection.close()
