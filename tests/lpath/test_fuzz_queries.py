"""Query fuzzing: random LPath ASTs, unparse/parse round trips, and
three-backend differential evaluation on random corpora."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.labeling import label_corpus
from repro.lpath import LPathEngine, parse
from repro.lpath.ast import (
    Comparison,
    Literal,
    NodeTest,
    NotExpr,
    Path,
    PathExists,
    Scope,
    Step,
)
from repro.lpath.axes import Axis
from repro.oracle import SQLiteBackend, TreeWalkEvaluator
from tests.strategies import LABELS, WORDS, corpora

#: Axes safe anywhere in a path (attribute/self handled separately).
_CHAIN_AXES = [
    Axis.CHILD,
    Axis.DESCENDANT,
    Axis.PARENT,
    Axis.ANCESTOR,
    Axis.IMMEDIATE_FOLLOWING,
    Axis.FOLLOWING,
    Axis.FOLLOWING_OR_SELF,
    Axis.IMMEDIATE_PRECEDING,
    Axis.PRECEDING,
    Axis.PRECEDING_OR_SELF,
    Axis.IMMEDIATE_FOLLOWING_SIBLING,
    Axis.FOLLOWING_SIBLING,
    Axis.FOLLOWING_SIBLING_OR_SELF,
    Axis.IMMEDIATE_PRECEDING_SIBLING,
    Axis.PRECEDING_SIBLING,
    Axis.PRECEDING_SIBLING_OR_SELF,
]

node_tests = st.one_of(
    st.sampled_from(LABELS).map(NodeTest),
    st.just(NodeTest("_")),
)


@st.composite
def predicates(draw):
    kind = draw(st.integers(0, 3))
    if kind == 0:
        # [@lex = word]
        attr = Step(Axis.ATTRIBUTE, NodeTest("lex", is_attribute=True))
        return Comparison(
            PathExists(Path((attr,))), "=", Literal(draw(st.sampled_from(WORDS)))
        )
    axis = draw(st.sampled_from(_CHAIN_AXES))
    inner = Step(axis, draw(node_tests))
    exists = PathExists(Path((inner,)))
    if kind == 1:
        return exists
    if kind == 2:
        return NotExpr(exists)
    second = Step(draw(st.sampled_from(_CHAIN_AXES)), draw(node_tests))
    return PathExists(Path((inner, Step(Axis.CHILD, draw(node_tests))))) \
        if draw(st.booleans()) else PathExists(Path((inner, second)))


@st.composite
def steps(draw, first: bool):
    axis = Axis.DESCENDANT if first else draw(st.sampled_from(_CHAIN_AXES))
    if first and draw(st.integers(0, 4)) == 0:
        axis = Axis.CHILD
    preds = tuple(draw(st.lists(predicates(), max_size=2)))
    return Step(
        axis,
        draw(node_tests),
        left_aligned=draw(st.integers(0, 9)) == 0,
        right_aligned=draw(st.integers(0, 9)) == 0,
        predicates=preds,
    )


@st.composite
def queries(draw):
    items = [draw(steps(first=True))]
    for _ in range(draw(st.integers(0, 2))):
        items.append(draw(steps(first=False)))
    if draw(st.integers(0, 3)) == 0:
        scope_body = [draw(steps(first=False))]
        items.append(Scope(Path(tuple(scope_body))))
    return Path(tuple(items), absolute=True)


class TestQueryFuzzing:
    @given(queries())
    @settings(max_examples=150, deadline=None)
    def test_unparse_parse_round_trip(self, path):
        assert parse(str(path)) == path

    @given(corpora(max_trees=2, max_depth=4), st.lists(queries(), min_size=1, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_plan_equals_treewalk(self, trees, paths):
        engine, treewalk = LPathEngine(trees), TreeWalkEvaluator(trees)
        for path in paths:
            assert engine.query(path) == treewalk.query(path), str(path)

    @given(corpora(max_trees=2, max_depth=3), st.lists(queries(), min_size=1, max_size=3))
    @settings(max_examples=20, deadline=None)
    def test_sqlite_agrees(self, trees, paths):
        engine, sqlite = LPathEngine(trees), SQLiteBackend(label_corpus(trees))
        for path in paths:
            assert engine.query(path) == sqlite.query(path), str(path)
