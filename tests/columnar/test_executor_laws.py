"""Algebraic laws of the columnar executor's operators.

The batch executor runs a step's ``[...]`` predicates as semi-joins and
``not(...)`` as anti-joins over a selection vector, ``and``/``or`` as
intersections and unions of those vectors, and every result through one
sorted, distinct merge (per segment, then across segments).  Each law
below follows from those operator definitions alone, so it must hold for
any corpus and any query.  Both sides of every law are the executor's own
answers, on one store and on a corpus sharded three ways.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.corpus import generate_corpus
from repro.lpath import LPathEngine
from tests.strategies import _PRED_SEPARATORS, _predicate, corpora, name_tests

CORPUS = generate_corpus("wsj", sentences=60, seed=31)

#: ``(context, predicate)``: path, horizontal, name, count and value
#: predicates.
PREDICATED = [
    ("//NP", "//JJ"),
    ("//NP", "/DT"),
    ("//VP", "//NP/NN"),
    ("//S", "//VB->NP"),
    ("//NP", "->PP"),
    ("//_", "name()=NP"),
    ("//PP", "count(//NP)>1"),
    ("//NN", "@lex=company"),
]

#: ``(context, a, b)`` for the boolean connectives.
CONNECTED = [
    ("//NP", "//JJ", "/DT"),
    ("//VP", "//PP", "/VB"),
    ("//S", "//NP/NN", "//IN"),
    ("//NP", "->VP", "=>_"),
    ("//_", "@lex", "name()=NN"),
]

#: Plain, predicated, horizontal, sibling, scoped and value-seeded chains.
QUERIES = [
    "//NP",
    "//S//NP",
    "//VP/VB->NP",
    "//NP[//JJ]",
    "//NP<=_",
    "//VP{//^VB->NP$}",
    "//PP/IN[@lex=of]",
    "//_[@lex]",
]


@pytest.fixture(scope="module", params=[1, 3], ids=["one-store", "three-segments"])
def engine(request):
    engine = LPathEngine(CORPUS, keep_trees=False, segments=request.param)
    yield engine
    engine.close()


def answer(engine, query: str) -> set:
    return set(engine.query(query))


def test_the_predicate_cases_are_not_vacuous():
    """Every predicate keeps some context nodes and drops others, so the
    partition law below is tested on both sides of each anti-join."""
    engine = LPathEngine(CORPUS, keep_trees=False)
    for context, pred in PREDICATED:
        assert engine.count(f"{context}[{pred}]") > 0, (context, pred)
        assert engine.count(f"{context}[not({pred})]") > 0, (context, pred)
    engine.close()


class TestPredicateLaws:
    @pytest.mark.parametrize("context,pred", PREDICATED)
    def test_semi_and_anti_join_partition_the_context(self, engine, context, pred):
        everything = answer(engine, context)
        kept = answer(engine, f"{context}[{pred}]")
        dropped = answer(engine, f"{context}[not({pred})]")
        assert kept | dropped == everything
        assert not kept & dropped

    @pytest.mark.parametrize("context,pred", PREDICATED)
    def test_double_negation_cancels(self, engine, context, pred):
        assert engine.query(f"{context}[not(not({pred}))]") == engine.query(
            f"{context}[{pred}]"
        )

    @pytest.mark.parametrize("context,pred", PREDICATED)
    def test_a_repeated_predicate_is_idempotent(self, engine, context, pred):
        assert engine.query(f"{context}[{pred}][{pred}]") == engine.query(
            f"{context}[{pred}]"
        )


class TestConnectiveLaws:
    @pytest.mark.parametrize("context,a,b", CONNECTED)
    def test_and_is_intersection(self, engine, context, a, b):
        assert answer(engine, f"{context}[{a} and {b}]") == (
            answer(engine, f"{context}[{a}]") & answer(engine, f"{context}[{b}]")
        )

    @pytest.mark.parametrize("context,a,b", CONNECTED)
    def test_or_is_union(self, engine, context, a, b):
        assert answer(engine, f"{context}[{a} or {b}]") == (
            answer(engine, f"{context}[{a}]") | answer(engine, f"{context}[{b}]")
        )

    @pytest.mark.parametrize("context,a,b", CONNECTED)
    def test_de_morgan(self, engine, context, a, b):
        assert engine.query(f"{context}[not({a} or {b})]") == engine.query(
            f"{context}[not({a}) and not({b})]"
        )


class TestResultLaws:
    @pytest.mark.parametrize("query", QUERIES)
    def test_results_are_sorted_and_distinct(self, engine, query):
        rows = list(engine.query(query))
        assert rows, query
        assert all(a < b for a, b in zip(rows, rows[1:]))

    @pytest.mark.parametrize("query", QUERIES)
    def test_counts_and_aggregates_agree_with_the_rows(self, engine, query):
        n = len(engine.query(query))
        assert engine.count(query) == n
        assert engine.aggregate(query, "count") == {"count": n}
        assert sum(engine.aggregate(query, "count_by_name").values()) == n
        assert sum(engine.aggregate(query, "count_by_depth").values()) == n


@given(corpora(max_trees=3, max_depth=4), name_tests, _predicate(1, _PRED_SEPARATORS))
@settings(max_examples=40, deadline=None)
def test_partition_law_on_random_predicates(trees, name, pred):
    engine = LPathEngine(trees, keep_trees=False)
    everything = answer(engine, f"//{name}")
    kept = answer(engine, f"//{name}[{pred}]")
    dropped = answer(engine, f"//{name}[not({pred})]")
    assert kept | dropped == everything
    assert not kept & dropped
    engine.close()
