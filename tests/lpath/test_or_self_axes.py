"""Tests for the or-self horizontal and sibling axes (Section 3).

The paper includes ``following-or-self``, ``preceding-or-self``,
``following-sibling-or-self`` and ``preceding-sibling-or-self`` so that
the axis set carries both primitives and their closures.  The engine and
both references must agree, and the or-self axis must equal base-axis ∪ self.
"""

import pytest
from hypothesis import given, settings

from repro.labeling import label_corpus
from repro.lpath import LPathEngine
from repro.oracle import SQLiteBackend, TreeWalkEvaluator
from repro.tree import figure1_tree
from tests.strategies import corpora

OR_SELF_QUERIES = [
    ("//NP/following-or-self::NP", "//NP-->NP", "//NP/self::NP"),
    ("//NP/preceding-or-self::NP", "//NP<--NP", "//NP/self::NP"),
    ("//NP/following-sibling-or-self::NP", "//NP==>NP", "//NP/self::NP"),
    ("//NP/preceding-sibling-or-self::NP", "//NP<==NP", "//NP/self::NP"),
    ("//V/following-or-self::N", "//V-->N", "//V/self::N"),
    ("//Det/preceding-sibling-or-self::_", "//Det<==_", "//Det/self::_"),
]


@pytest.fixture(scope="module")
def engine():
    return LPathEngine([figure1_tree()])


@pytest.fixture(scope="module")
def sqlite(engine):
    return SQLiteBackend(label_corpus(engine.trees))


class TestOrSelfSemantics:
    @pytest.mark.parametrize("or_self, base, self_only", OR_SELF_QUERIES)
    def test_union_identity(self, engine, or_self, base, self_only):
        combined = set(engine.query(base)) | set(engine.query(self_only))
        assert set(engine.query(or_self)) == combined

    @pytest.mark.parametrize("or_self, base, self_only", OR_SELF_QUERIES)
    def test_backends_agree(self, engine, sqlite, or_self, base, self_only):
        plan = engine.query(or_self)
        assert plan == TreeWalkEvaluator(engine.trees).query(or_self)
        assert plan == sqlite.query(or_self)

    def test_root_is_its_own_sibling_or_self(self, engine):
        assert engine.count("/S/following-sibling-or-self::S") == 1

    @given(corpora(max_trees=2, max_depth=4))
    @settings(max_examples=15, deadline=None)
    def test_random_corpora(self, trees):
        engine = LPathEngine(trees)
        for or_self, base, self_only in OR_SELF_QUERIES:
            combined = set(engine.query(base)) | set(engine.query(self_only))
            assert set(engine.query(or_self)) == combined
            assert engine.query(or_self) == TreeWalkEvaluator(trees).query(or_self)


class TestClosureLaws:
    """Table 1's closure column, checked semantically: the closure axis is
    the transitive closure of the primitive."""

    @given(corpora(max_trees=2, max_depth=4))
    @settings(max_examples=15, deadline=None)
    def test_following_is_transitive_closure_of_immediate(self, trees):
        engine = LPathEngine(trees)
        # One application of -> is contained in -->.
        assert set(engine.query("//_->_")) <= set(engine.query("//_-->_"))
        # -> composed with --> stays within -->.
        assert set(engine.query("//_->_-->_")) <= set(engine.query("//_-->_"))

    @given(corpora(max_trees=2, max_depth=4))
    @settings(max_examples=15, deadline=None)
    def test_sibling_closure(self, trees):
        engine = LPathEngine(trees)
        assert set(engine.query("//_=>_")) <= set(engine.query("//_==>_"))
        assert set(engine.query("//_=>_==>_")) <= set(engine.query("//_==>_"))
