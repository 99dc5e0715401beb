"""Tests for the engine facade, the plan compiler, and the SQL generator."""

import sys
import threading

import pytest

from repro.columnar import ColumnStore
from repro.labeling import label_corpus
from repro.lpath import (
    LPathCompileError,
    LPathEngine,
    LPathError,
    engine_from_bracketed,
    parse,
)
from repro.oracle import SQLGenerator, SQLiteBackend, TreeWalkEvaluator
from repro.tree import Tree, TreeNode, figure1_tree


@pytest.fixture(scope="module")
def engine():
    return LPathEngine([figure1_tree()])


def to_sql(query: str) -> str:
    return SQLGenerator().generate(parse(query))


class TestEngineAPI:
    def test_duplicate_tids_rejected(self):
        with pytest.raises(LPathError):
            LPathEngine([figure1_tree(tid=1), figure1_tree(tid=1)])

    def test_count_matches_query_length(self, engine):
        assert engine.count("//NP") == len(engine.query("//NP"))

    def test_nodes_requires_trees(self):
        engine = LPathEngine([figure1_tree()], keep_trees=False)
        with pytest.raises(LPathError):
            engine.nodes("//NP")

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
        engine.query("//NP")
        engine.close()
        engine.close()
        engine.close()

    def test_close_releases_column_store_and_rows(self):
        engine = LPathEngine([figure1_tree()])
        engine.query("//NP")
        engine.close()
        assert engine._by_id is None
        assert engine._compiler is None
        assert len(engine.plan_cache) == 0

    def test_closed_engine_rejects_queries(self):
        engine = LPathEngine([figure1_tree()])
        engine.close()
        for run in (engine.query, engine.count):
            with pytest.raises(LPathError, match="closed"):
                run("//NP")

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
    def test_sql_quotes_keyword_columns(self):
        sql = to_sql("//V->NP")
        assert '"left"' in sql and '"right"' in sql
        assert 'SELECT DISTINCT' in sql

    def test_immediate_following_is_equality_join(self):
        sql = to_sql("//V->NP")
        assert '."left" = t0."right"' in sql

    def test_scope_emits_containment(self):
        sql = to_sql("//VP{/NP$}")
        assert '"left" >= t0."left"' in sql
        assert '"right" <= t0."right"' in sql
        assert '"right" = t0."right"' in sql  # the $ alignment

    def test_not_exists_for_negation(self):
        sql = to_sql("//NP[not(//Adj)]")
        assert "NOT EXISTS" in sql

    def test_root_alignment_subquery(self):
        sql = to_sql("//NP$")
        assert "SELECT MAX(r.\"right\")" in sql

    def test_value_comparison_quotes_literal(self):
        sql = to_sql("//_[@lex=saw]")
        assert "'saw'" in sql and "'@lex'" in sql

    def test_escapes_quotes_in_literals(self):
        generator = SQLGenerator()
        sql = generator.generate(parse("//_[@lex='o''clock']"))
        assert "o''clock" in sql

    def test_numeric_value_comparison_casts(self):
        sql = to_sql("//_[@lex=1929]")
        assert "CAST" in sql

    def test_element_string_value_unsupported(self):
        with pytest.raises(LPathCompileError):
            to_sql("//NP[. = 'the old man']")

    def test_sql_runs_on_sqlite(self, engine):
        # Every generated statement must be executable as-is.
        oracle = SQLiteBackend(label_corpus([figure1_tree()]))
        for query in ("//V->NP", "//VP{//NP$}", "//NP[not(//Adj)]",
                      "//NP[count(//N)>1]", "//_[name()=VP]"):
            rows = oracle.execute(to_sql(query))
            assert sorted(rows) == engine.query(query)


#: Words number() reads as 2, 0.5 and -2, then words it reads as NaN though
#: Python's float() or SQLite's numeric affinity reads a number in them.
#: They are nodes 2-13 of one flat S.
NUMBER_WORDS = [
    "2", " 2 ", "2.", ".5", "-2",
    "+2", "1e5", "inf", "nan", "1_000", "\u0663", "0x10",
]


@pytest.mark.parametrize("query, expected", [
    ("//N[@lex=2]", [2, 3, 4]),
    ("//N[@lex!=2]", [5, 6, 7, 8, 9, 10, 11, 12, 13]),
    ("//N[@lex>0]", [2, 3, 4, 5]),
    ("//N[@lex<0]", [6]),
    ("//N[.>=-2]", [2, 3, 4, 5, 6]),
    ("//N[@lex<\"3\"]", [2, 3, 4, 5, 6]),
    ("//N[@lex>=\"abc\"]", []),
])
def test_number_reads_words_alike_on_every_backend(query, expected):
    """Every backend reads a word as XPath's ``number()`` does: an
    optional minus and ASCII digits with at most one point."""
    root = TreeNode("S", [TreeNode("N", attributes={"lex": w}) for w in NUMBER_WORDS])
    trees = [Tree(root)]
    want = [(0, node_id) for node_id in expected]
    assert list(LPathEngine(trees).query(query)) == want, "plan"
    assert TreeWalkEvaluator(trees).query(query) == want, "treewalk"
    if "@" in query:  # SQL compares attribute values only
        assert SQLiteBackend(label_corpus(trees)).query(query) == want, "sqlite"


@pytest.mark.parametrize("query, count", [
    ("//NP[1=1]", 5),
    ("//NP[1=2]", 0),
    ('//NP["a"!="b"]', 5),
    ('//NP["a"="a"]', 5),
    ('//NP[1<"x"]', 0),
    ('//NP["x"!=1]', 5),
    ('//NP["02"="2"]', 0),
    ('//NP[" 2 "=2]', 5),
    ('//NP["abc"<"abd"]', 0),
    ("//NP[2!=2]", 0),
])
def test_literal_against_literal_folds_as_the_tree_walk_reads_it(query, count):
    """A comparison of two literals is decided at lowering time: text
    against text by ``=``/``!=``, any number or any order as
    ``number()`` (``"x"`` is NaN, ``" 2 "`` is 2) — every NP or none."""
    trees = [figure1_tree()]
    want = TreeWalkEvaluator(trees).query(query)
    assert len(want) == count
    assert list(LPathEngine(trees).query(query)) == want


def flat_tree(tid, words):
    """``S`` over one ``N`` per word: the S is node 1, the words 2, 3, ..."""
    children = [TreeNode("N", attributes={"lex": word}) for word in words]
    return Tree(TreeNode("S", children), tid=tid)


@pytest.mark.parametrize("query", [
    "//N[@lex=2]", "//S//N[@lex=2]", "//S[//N[@lex=2]]", "//S[/_[@lex=2]]",
])
def test_a_number_seed_reads_every_word_number_reads_alike(query):
    """``[@lex=2]`` seeds from every word ``number()`` reads as 2: on a
    first step, on a seeded join and on a seeded predicate join."""
    trees = [
        flat_tree(0, ["2", " 2 ", "02", "2.0", "20", "two"]),
        flat_tree(1, ["dog", "2."]),
    ]
    want = TreeWalkEvaluator(trees).query(query)
    assert {tid for tid, _id in want} == {0, 1}
    assert SQLiteBackend(label_corpus(trees)).query(query) == want
    for segments in (1, 2):
        assert list(LPathEngine(trees, segments=segments).query(query)) == want


def test_a_segment_whose_only_equal_word_is_2_dot_is_bound():
    """Pruning resolves a number seed as execution does: the second of
    two segments holds only ``2.``, the first no word equal to 2."""
    trees = [flat_tree(0, ["dog", "two"]), flat_tree(1, ["dog", "2."])]
    compiled = LPathEngine(trees, segments=2).compile("//N[@lex=2]")
    assert [index for index, _part in compiled.bound] == [1]
    assert list(compiled.rows()) == [(1, 3)]
    assert TreeWalkEvaluator(trees).query("//N[@lex=2]") == [(1, 3)]
    assert "pruned 1 of 2" in compiled.explain()
    assert "ValueSeed(@lex=2 over corpus)" in compiled.explain()


def test_threads_racing_on_a_first_number_seed_both_see_every_word():
    """Two threads resolving the first ``[@lex=2]`` of a fresh store each
    get every word ``number()`` reads as 2, and so does the store's map.
    A long vocabulary and a short switch interval make the threads
    interleave inside the resolution."""
    vocabulary = [f"w{index}" for index in range(2000)]
    rows = list(label_corpus([
        flat_tree(0, ["2", *vocabulary[:1000], "02"]),
        flat_tree(1, [*vocabulary[1000:], "2.", "2.0"]),
    ]))
    want = list(ColumnStore.from_rows(rows).seed("@lex", 2.0, None)[0])
    assert len(want) == 4
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _round in range(5):
            store = ColumnStore.from_rows(rows)
            store.by_value  # built before the race: only the seed is raced for
            barrier, seen = threading.Barrier(2), []

            def resolve():
                barrier.wait()
                seen.append(list(store.seed("@lex", 2.0, None)[0]))

            threads = [threading.Thread(target=resolve) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert seen == [want, want]
            assert list(store._seeds["@lex", 2.0, None][0]) == want
    finally:
        sys.setswitchinterval(interval)
