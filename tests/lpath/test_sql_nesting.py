"""Stress tests for the SQL generator: deep nesting, alias hygiene, scopes.

The generator allocates alias namespaces per subquery; these tests make
sure deeply nested predicates never shadow an outer correlated alias (a
classic SQL-generation bug) by executing everything on SQLite and
comparing with the other two backends.
"""

import pytest

from repro.labeling import label_corpus
from repro.lpath import LPathEngine, parse
from repro.oracle import SQLGenerator, SQLiteBackend, TreeWalkEvaluator
from repro.tree import figure1_tree, tree_from_spec

NESTED_QUERIES = [
    # predicate in predicate in predicate
    "//S[//NP[//Det[@lex=the]]]",
    "//S[//NP[//N[@lex=dog] and //Det]]",
    # two sibling EXISTS at the same level
    "//NP[//Det][//N]",
    "//S[//NP[//Det]][//VP[//V]]",
    # negation wrapping nested existence
    "//NP[not(//NP[//Det])]",
    "//S[not(//NP[not(//Det)])]",
    # scope inside predicate inside scope-ish chains
    "//S[{//V->NP}]",
    "//VP[{//NP$[//Det]}]",  # RA precedes predicates (Figure 4 grammar)
    # count + nested value test
    "//S[count(//NP[//Det])>1]",
    # or-combination of nested paths
    "//NP[//Det[@lex=a] or //Det[@lex=the]]",
    # chained arrows inside predicates
    "//S[//Det->Adj->N]",
    "//NP[->PP[//NP[//Det[@lex=a]]]]",
]


@pytest.fixture(scope="module")
def trees():
    extra = tree_from_spec(
        ("S",
            ("NP", ("Det", "the"), ("N", "cat")),
            ("VP", ("V", "chased"),
                   ("NP", ("Det", "a"), ("N", "dog")))),
        tid=1,
    )
    return [figure1_tree(tid=0), extra]


@pytest.fixture(scope="module")
def sqlite(trees):
    return SQLiteBackend(label_corpus(trees))


def to_sql(query: str) -> str:
    return SQLGenerator().generate(parse(query))


class TestNestedSQL:
    @pytest.mark.parametrize("query", NESTED_QUERIES)
    def test_three_backends_agree(self, trees, sqlite, query):
        plan = LPathEngine(trees).query(query)
        assert plan == TreeWalkEvaluator(trees).query(query), query
        assert plan == sqlite.query(query), query

    @pytest.mark.parametrize("query", NESTED_QUERIES)
    def test_sql_text_is_well_formed(self, query):
        sql = to_sql(query)
        assert sql.count("(") == sql.count(")")
        assert "SELECT DISTINCT" in sql

    def test_alias_names_unique_within_any_scope(self):
        sql = to_sql("//S[//NP[//Det[@lex=the]]][//VP[//V]]")
        # No alias may be declared twice in one FROM clause.
        for from_clause in _from_clauses(sql):
            aliases = [part.split()[-1] for part in from_clause.split(",")]
            assert len(aliases) == len(set(aliases)), from_clause


def _from_clauses(sql):
    import re

    return re.findall(r"FROM ([^W]+?)WHERE", sql)
