"""Unit tests for the columnar store and batch executor."""

import pytest
from hypothesis import given, settings

from repro.columnar import ColumnStore
from repro.labeling import label_corpus
from repro.lpath import LPathEngine, LPathError
from repro.oracle import TreeWalkEvaluator
from repro.oracle.treewalk import AttributeItem, string_value
from repro.tree import figure1_tree
from tests.strategies import corpora


def figure1_store() -> ColumnStore:
    return ColumnStore.from_rows(label_corpus([figure1_tree()]))


def assert_string_values_match_treewalk(trees) -> None:
    """The executor's ``@lex``-bisecting string value of every element
    and attribute row equals the tree walker's, which reads the words
    off the tree itself."""
    runtime = LPathEngine(trees)._compiler.columnar_runtime
    store = runtime.store
    by_tid = {tree.tid: tree for tree in trees}
    for row in range(len(store)):
        node = by_tid[store.tid[row]].node_by_id(store.id[row])
        name = store.names[row]
        item = AttributeItem(node, name[1:]) if name.startswith("@") else node
        assert runtime.string_value(row) == string_value(item), (row, name)


class TestColumnStore:
    def test_clustered_order(self):
        store = figure1_store()
        keys = [
            (store.names[row], store.tid[row], store.left[row], store.right[row],
             store.depth[row], store.id[row], store.pid[row])
            for row in range(len(store))
        ]
        assert keys == sorted(keys)

    def test_name_blocks_partition_rows(self):
        store = figure1_store()
        covered = []
        for name, (lo, hi) in store.name_bounds.items():
            covered.extend(range(lo, hi))
            assert all(store.names[row] == name for row in range(lo, hi))
        assert sorted(covered) == list(range(len(store)))

    def test_clustered_range_matches_bruteforce(self):
        store = figure1_store()
        for low, high in ((None, None), (1, 4), (2, None), (None, 3)):
            rows = list(store.clustered_range("NP", 0, low, high))
            expected = [
                row
                for row in range(len(store))
                if store.names[row] == "NP" and store.tid[row] == 0
                and (low is None or store.left[row] >= low)
                and (high is None or store.left[row] <= high)
            ]
            assert rows == expected, (low, high)

    def test_exclusive_bounds(self):
        store = figure1_store()
        inclusive = set(store.clustered_range("NP", 0, 1, 4))
        exclusive = set(store.clustered_range("NP", 0, 1, 4, False, False))
        assert exclusive <= inclusive
        for row in inclusive - exclusive:
            assert store.left[row] in (1, 4)

    def test_tid_rows_sorted_by_id(self):
        store = figure1_store()
        rows = store.tid_rows(0)
        assert len(rows) == len(store)
        ids = [store.id[row] for row in rows]
        assert ids == sorted(ids)
        assert list(store.tid_rows(99)) == []

    def test_tid_id_rows_finds_element_and_attributes(self):
        store = figure1_store()
        for row in range(len(store)):
            matches = store.tid_id_rows(store.tid[row], store.id[row])
            assert row in matches
            assert all(store.id[m] == store.id[row] for m in matches)

    def test_bitmaps(self):
        store = figure1_store()
        for row in range(len(store)):
            assert bool(store.is_attr[row]) == store.names[row].startswith("@")
            assert bool(store.right_edge[row]) == (
                store.right[row] == store.root_right[store.tid[row]]
            )

    def test_value_rows(self):
        """A seed's element rows are resolved once per store, and only a
        literal that holds rows is kept."""
        store = figure1_store()
        rows, bounds, lefts = store.seed("@lex", "saw", None)
        assert len(rows) == 1 and store.names[rows[0]] == "V"
        assert bounds == {(None, 0): (0, 1)}
        assert list(lefts) == [store.left[rows[0]]]
        assert store.seed("@lex", "saw", None)[0] is rows
        assert store.seed("@lex", "saw", "V")[0] == rows
        assert not store.seed("@lex", "saw", "N")[0]
        assert not store.seed("@lex", "no-such-word", None)[0]
        assert not store.seed("@pos", "saw", None)[0]
        assert list(store._seeds) == [("@lex", "saw", None), ("@lex", "saw", "V")]

    def test_string_value_matches_treewalk(self):
        assert_string_values_match_treewalk([figure1_tree()])

    @given(corpora(max_trees=3, max_depth=4))
    @settings(max_examples=25, deadline=None)
    def test_string_value_matches_treewalk_on_random_corpora(self, trees):
        assert_string_values_match_treewalk(trees)

    @given(corpora(max_trees=3, max_depth=4))
    @settings(max_examples=15, deadline=None)
    def test_frequency_matches_rows(self, trees):
        rows = list(label_corpus(trees))
        store = ColumnStore.from_rows(rows)
        assert store.frequency(None) == len(rows)
        for name in {row.name for row in rows}:
            assert store.frequency(name) == sum(1 for row in rows if row.name == name)

    def test_columns_round_trip_rows(self):
        rows = sorted(
            tuple(row) for row in label_corpus([figure1_tree()])
        )
        store = ColumnStore.from_rows(label_corpus([figure1_tree()]))
        columns = [store.col(position) for position in range(8)]
        assert sorted(zip(*columns)) == rows


class TestStoreAsCatalog:
    def test_size_and_frequency(self):
        store = figure1_store()
        assert store.size() == len(store) == store.frequency(None)
        assert store.frequency("NP") == sum(
            1 for name in store.names if name == "NP"
        )


class TestColumnarExecutor:
    def test_rejects_unknown_executor(self):
        LPathEngine([figure1_tree()], executor="columnar")
        with pytest.raises(LPathError, match="only one"):
            LPathEngine([figure1_tree()], executor="volcano")

    @pytest.mark.parametrize("query", [
        "//N[.!=xyzzy]", "//NP/N[.=man]", "//VP/V[.=saw]", "//S//V[.=saw]",
        "//VP/V[.!=saw]", "//NP[not(.=man)]/N", "//V->NP[count(.)=1]",
    ])
    def test_self_value_checks_read_the_candidate(self, query):
        """``.`` in a value or count predicate is the step's own node: a
        subplan with no step of its own still reads its context slot, so
        it runs per candidate, never once against the bindings before it
        (which crashed on a first step and compared the previous step's
        node on later ones)."""
        engine = LPathEngine([figure1_tree()])
        expected = TreeWalkEvaluator(engine.trees).query(query)
        assert engine.query(query) == expected
        assert engine.query(query, pivot=True) == expected

    def test_columnar_explain_mentions_batches(self):
        engine = LPathEngine([figure1_tree()])
        text = engine.explain("//S//NP")
        assert "ColumnarJoin" in text and "ColumnarScan" in text

    def test_compiled_plans_are_reiterable(self):
        engine = LPathEngine([figure1_tree()])
        compiled = engine.compile("//NP")
        assert list(compiled.rows()) == list(compiled.rows())
        assert compiled.count() == len(list(compiled.rows()))
