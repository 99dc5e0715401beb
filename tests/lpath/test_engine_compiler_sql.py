"""Tests for the engine facade, the plan compiler, and the SQL generator."""

import pytest

from repro.lpath import (
    LPathCompileError,
    LPathEngine,
    LPathError,
    SQLGenerator,
    engine_from_bracketed,
    parse,
)
from repro.tree import Tree, TreeNode, figure1_tree


@pytest.fixture(scope="module")
def engine():
    return LPathEngine([figure1_tree()])


class TestEngineAPI:
    def test_duplicate_tids_rejected(self):
        with pytest.raises(LPathError):
            LPathEngine([figure1_tree(tid=1), figure1_tree(tid=1)])

    def test_unknown_backend_rejected(self, engine):
        with pytest.raises(LPathError):
            engine.query("//NP", backend="oracle")

    def test_count_matches_query_length(self, engine):
        assert engine.count("//NP") == len(engine.query("//NP"))

    def test_nodes_requires_trees(self):
        engine = LPathEngine([figure1_tree()], keep_trees=False)
        with pytest.raises(LPathError):
            engine.nodes("//NP")
        with pytest.raises(LPathError):
            engine.treewalk

    def test_context_manager_closes_sqlite(self):
        with LPathEngine([figure1_tree()]) as engine:
            engine.query("//NP", backend="sqlite")
        assert engine._sqlite is None

    def test_engine_from_bracketed(self):
        engine = engine_from_bracketed("(S (NP (PRP I)) (VP (VBD ran)))")
        assert engine.count("//VBD") == 1

    def test_accepts_parsed_ast(self, engine):
        path = parse("//NP")
        assert engine.count(path) == 5

    def test_explain_mentions_plan_operators(self, engine):
        text = engine.explain("//VP/V-->N")
        assert "ColumnarJoin" in text
        assert "ColumnarDistinct" in text


class TestClose:
    def test_close_is_idempotent(self):
        engine = LPathEngine([figure1_tree()])
        engine.query("//NP", backend="sqlite")
        engine.close()
        engine.close()
        engine.close()

    def test_close_releases_column_store_and_rows(self):
        engine = LPathEngine([figure1_tree()])
        engine.query("//NP")
        engine.close()
        assert engine._rows is None
        assert engine._compiler is None
        assert len(engine.plan_cache) == 0

    def test_closed_engine_rejects_queries_on_every_backend(self):
        engine = LPathEngine([figure1_tree()])
        engine.close()
        for backend in ("plan", "sqlite", "treewalk"):
            with pytest.raises(LPathError, match="closed"):
                engine.query("//NP", backend=backend)

    def test_closed_engine_is_collectable(self):
        import gc
        import weakref

        engine = LPathEngine([figure1_tree()])
        engine.query("//NP")
        compiler_ref = weakref.ref(engine._compiler)  # owns the column store
        engine.close()
        gc.collect()
        assert compiler_ref() is None

    def test_compiled_plan_survives_close(self):
        engine = LPathEngine(
            [figure1_tree(tid=tid) for tid in range(4)], segments=2
        )
        plan = engine.compile("//NP")
        expected = list(plan.rows())
        engine.close()
        # The cached plan still executes: its per-segment runtimes are
        # self-contained.
        assert list(plan.rows()) == expected


class TestPlanCompiler:
    def test_value_seed_used_for_wildcard_value_query(self, engine):
        text = engine.explain("//_[@lex=saw]")
        assert "value seed" in text

    def test_named_first_step_uses_clustered_name_probe(self, engine):
        text = engine.explain("//NP")
        assert "elements named NP" in text

    def test_positional_must_be_first(self, engine):
        with pytest.raises(LPathCompileError):
            engine.compile("//NP/_[self::N][position()=1]")

    def test_positional_on_descendant_rejected(self, engine):
        with pytest.raises(LPathCompileError):
            engine.compile("//VP//_[last()]")

    def test_first_step_positional_rejected(self, engine):
        with pytest.raises(LPathCompileError):
            engine.compile("//NP[position()=2]")

    def test_root_alignment_without_scope(self, engine):
        # ^/$ without scope align to the tree root edges.
        assert engine.count("//^NP") == 1
        assert engine.count("//NP$") == 1


class TestSQLGenerator:
    def test_sql_quotes_keyword_columns(self, engine):
        sql = engine.to_sql("//V->NP")
        assert '"left"' in sql and '"right"' in sql
        assert 'SELECT DISTINCT' in sql

    def test_immediate_following_is_equality_join(self, engine):
        sql = engine.to_sql("//V->NP")
        assert '."left" = t0."right"' in sql

    def test_scope_emits_containment(self, engine):
        sql = engine.to_sql("//VP{/NP$}")
        assert '"left" >= t0."left"' in sql
        assert '"right" <= t0."right"' in sql
        assert '"right" = t0."right"' in sql  # the $ alignment

    def test_not_exists_for_negation(self, engine):
        sql = engine.to_sql("//NP[not(//Adj)]")
        assert "NOT EXISTS" in sql

    def test_root_alignment_subquery(self, engine):
        sql = engine.to_sql("//NP$")
        assert "SELECT MAX(r.\"right\")" in sql

    def test_value_comparison_quotes_literal(self, engine):
        sql = engine.to_sql("//_[@lex=saw]")
        assert "'saw'" in sql and "'@lex'" in sql

    def test_escapes_quotes_in_literals(self):
        generator = SQLGenerator()
        sql = generator.generate(parse("//_[@lex='o''clock']"))
        assert "o''clock" in sql

    def test_numeric_value_comparison_casts(self, engine):
        sql = engine.to_sql("//_[@lex=1929]")
        assert "CAST" in sql

    def test_element_string_value_unsupported(self, engine):
        with pytest.raises(LPathCompileError):
            engine.to_sql("//NP[. = 'the old man']")

    def test_sql_runs_on_sqlite(self, engine):
        # Every generated statement must be executable as-is.
        for query in ("//V->NP", "//VP{//NP$}", "//NP[not(//Adj)]",
                      "//NP[count(//N)>1]", "//_[name()=VP]"):
            sql = engine.to_sql(query)
            rows = engine.sqlite.execute(sql)
            assert rows == [tuple(pair) for pair in engine.query(query)] or \
                sorted(rows) == engine.query(query)


#: Words number() reads as 2, 0.5 and -2, then words it reads as NaN though
#: Python's float() or SQLite's numeric affinity reads a number in them.
#: They are nodes 2-13 of one flat S.
NUMBER_WORDS = [
    "2", " 2 ", "2.", ".5", "-2",
    "+2", "1e5", "inf", "nan", "1_000", "\u0663", "0x10",
]


@pytest.mark.parametrize("query, expected", [
    pytest.param("//N[@lex=2]", [2, 3, 4], marks=pytest.mark.xfail(
        strict=True, reason="the plan's value seed matches the text '2' only")),
    ("//N[@lex!=2]", [5, 6, 7, 8, 9, 10, 11, 12, 13]),
    ("//N[@lex>0]", [2, 3, 4, 5]),
    ("//N[@lex<0]", [6]),
    ("//N[.>=-2]", [2, 3, 4, 5, 6]),
])
def test_number_reads_words_alike_on_every_backend(query, expected):
    """Every backend reads a word as XPath's ``number()`` does: an
    optional minus and ASCII digits with at most one point."""
    root = TreeNode("S", [TreeNode("N", attributes={"lex": w}) for w in NUMBER_WORDS])
    engine = LPathEngine([Tree(root)])
    want = [(0, node_id) for node_id in expected]
    for backend in ("plan", "sqlite", "treewalk"):
        if backend == "sqlite" and "@" not in query:
            continue  # SQL compares attribute values only
        assert list(engine.query(query, backend=backend)) == want, backend
