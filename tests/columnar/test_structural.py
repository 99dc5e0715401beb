"""Unit tests for the set-at-a-time structural join layer.

Covers the IR-shape analysis (:func:`merge_spec`), the statistics surface
(:meth:`ColumnStore.name_stats` and the catalog adapters), the cost-based
choice (:func:`choose_join` + the optimizer annotation), the CSR children
index, and axis-family equivalence of forced merge vs forced probe
execution against the tree-walk oracle."""

from __future__ import annotations

import os

import pytest

from repro.columnar import ColumnStore, NameStats, choose_join, merge_spec
from repro.columnar.structural import FORCE_ENV, PREFIX, STACK, SWEEP
from repro.labeling.lpath_scheme import label_corpus
from repro.lpath import LPathEngine
from repro.oracle import TreeWalkEvaluator
from repro.plan.ir import Join
from repro.plan.segmented import SegmentedCatalog
from repro.tree import iter_trees
from repro.xpath import XPathEngine

CORPUS = """
( (S (NP (Det the) (N dog)) (VP (V saw) (NP (NP (Det a) (Adj old) (N man)) (PP (Prep with) (NP (N today)))))) )
( (S (NP I) (VP (V ran))) )
( (S (NP (Det the) (Adj old) (N man)) (VP (V saw) (NP (N dog)) (ADVP today))) )
( (S (NP (N rice)) (VP (V grows))) )
"""

#: Queries exercising every merge strategy plus the probe-only shapes.
AXIS_QUERIES = [
    "//S//NP",                      # sweep (descendant)
    "//NP/N",                       # sweep (child)
    "//V->NP",                      # sweep (immediate-following equality)
    "//V==>NP",                     # sweep (following-sibling, no high bound)
    "//V-->NP",                     # sweep (following)
    "//Det\\ancestor::S",           # stack (ancestor)
    "//N\\ancestor::NP\\ancestor::S",  # stack chained
    "//V<--NP",                     # prefix (preceding)
    "//NP<==V",                     # prefix (immediate-preceding-sibling)
    "//VP{//NP$}",                  # scoped sweep + alignment
    "//S/_",                        # children-index wildcard child
    "//N\\_",                       # wildcard parent ((tid, id) probe)
    "//S[//NP/N]",                  # two-step semi-join sub-pipeline
    "//S//NP[//Det]",               # sweep with a semi-join selector
    "//NP/N[position()=1]",         # sweep with a positional row check
    "//Det\\ancestor::NP[//Adj]",   # stack with a semi-join selector
    "//V\\ancestor-or-self::V",     # stack with or-self conditions
    "//S//N[@lex=dog]",             # value-seeded sweep
    "//N\\ancestor-or-self::_[@lex=dog]",   # value-seeded stack
    "//V<--_[@lex=dog]",            # value-seeded prefix
    "//VP{//^V[@lex=saw]->NP$}",    # value-seeded, scoped and aligned
    "//S[not(//_[@lex=rice])]",     # value-seeded anti-semi-join
    "//V/following-or-self::N[@lex=dog]",   # or-self seed: probe only
]


@pytest.fixture(scope="module")
def trees():
    return list(iter_trees(CORPUS))


@pytest.fixture(scope="module")
def engine(trees):
    return LPathEngine(trees)


def forced(mode):
    class _Forced:
        def __enter__(self):
            self.previous = os.environ.get(FORCE_ENV)
            os.environ[FORCE_ENV] = mode

        def __exit__(self, *exc):
            if self.previous is None:
                del os.environ[FORCE_ENV]
            else:
                os.environ[FORCE_ENV] = self.previous

    return _Forced()


class TestMergeSpec:
    def _joins(self, engine, query, **kwargs):
        compiled = engine.compile(query, **kwargs)
        from repro.plan.ir import linearize

        return [
            node for node in linearize(compiled.logical) if isinstance(node, Join)
        ]

    def test_descendant_is_sweep(self, engine):
        (join,) = self._joins(engine, "//S//NP")
        spec = merge_spec(join)
        assert spec is not None
        assert spec.strategy == SWEEP
        assert spec.name == "NP"

    def test_ancestor_is_stack(self, engine):
        (join,) = self._joins(engine, "//Det\\ancestor::S")
        spec = merge_spec(join)
        assert spec is not None and spec.strategy == STACK

    def test_preceding_is_prefix(self, engine):
        (join,) = self._joins(engine, "//V<--NP")
        spec = merge_spec(join)
        assert spec is not None and spec.strategy == PREFIX

    def test_following_sibling_is_sweep_without_high(self, engine):
        (join,) = self._joins(engine, "//V==>NP")
        spec = merge_spec(join)
        assert spec is not None and spec.strategy == SWEEP and spec.high is None

    def test_wildcard_and_attribute_joins_are_ineligible(self, engine):
        (join,) = self._joins(engine, "//S/_")
        assert merge_spec(join) is None          # idx_tid_id probe
        (join,) = self._joins(engine, "//N\\_")
        assert merge_spec(join) is None          # (tid, id) parent probe

    def test_value_seeded_joins_take_their_axis_window(self, engine):
        # The candidate side is the seed's row list (no partition name);
        # the window is the one the named step's clustered probe carries.
        for query, named, strategy in [
            ("//S//N[@lex=dog]", "//S//N", SWEEP),
            ("//NP/_[@lex=dog]", "//NP/N", SWEEP),
            ("//V->_[@lex=a]", "//V->N", SWEEP),
            ("//V==>_[@lex=a]", "//V==>N", SWEEP),
            ("//N\\ancestor::_[@lex=dog]", "//N\\ancestor::NP", STACK),
            ("//V<--N[@lex=dog]", "//V<--N", PREFIX),
            ("//V<=N[@lex=dog]", "//V<=N", PREFIX),
            ("//S{//N\\ancestor::_[@lex=x]}", "//S{//N\\ancestor::NP}", SWEEP),
        ]:
            seeded = merge_spec(self._joins(engine, query)[-1])
            plain = merge_spec(self._joins(engine, named)[-1])
            assert seeded.strategy == plain.strategy == strategy, query
            assert seeded.name is None and seeded.self_slot is None
            assert seeded[2:7] == plain[2:7], query   # tid slot, bounds
        # The or-self family is a disjunction: no window, no merge.
        (join,) = self._joins(engine, "//V/following-or-self::N[@lex=dog]")
        assert join.access.window is None and merge_spec(join) is None

    def test_or_self_carries_self_slot(self, engine):
        joins = self._joins(engine, "//V\\ancestor-or-self::V")
        spec = merge_spec(joins[0])
        assert spec is not None and spec.strategy == STACK


class TestStatistics:
    def test_column_store_name_stats(self, trees):
        store = ColumnStore.from_rows(label_corpus(trees))
        stats = store.name_stats("NP")
        assert stats.rows == store.frequency("NP")
        assert stats.partitions == 4          # NP occurs in all four trees
        assert stats.max_partition >= 2
        assert 0 < stats.min_depth <= stats.max_depth
        assert store.name_stats("nope") == NameStats(0, 0, 0, 0, 0)
        assert store.tree_count() == 4

    def test_segmented_catalog_merges_stats(self, trees):
        stores = [
            ColumnStore.from_rows(label_corpus([tree])) for tree in trees
        ]
        merged = SegmentedCatalog(stores)
        whole = ColumnStore.from_rows(label_corpus(trees))
        for name in ("NP", "S", "Det", "nope"):
            expected = whole.name_stats(name)
            got = merged.name_stats(name)
            assert got.rows == expected.rows
            assert got.partitions == expected.partitions
            assert got.min_depth == expected.min_depth
            assert got.max_depth == expected.max_depth
        assert merged.tree_count() == whole.tree_count()

    def test_children_index(self, trees):
        store = ColumnStore.from_rows(label_corpus(trees))
        for tid, pid in {(store.tid[r], store.pid[r]) for r in range(store.n)}:
            expected = sorted(
                r for r in range(store.n)
                if store.tid[r] == tid and store.pid[r] == pid
            )
            assert sorted(store.children_rows(tid, pid)) == expected
        assert list(store.children_rows(99, 1)) == []


class TestCostModel:
    def test_small_inputs_probe_large_inputs_merge(self, trees):
        store = ColumnStore.from_rows(label_corpus(trees))
        assert choose_join(2.0, "NP", store) == "probe"
        assert choose_join(5000.0, "NP", store) == "merge"

    def test_a_seeded_candidate_side_is_sized_from_the_value_index(self, trees):
        from repro.lpath.ast import Literal
        from repro.plan.ir import Col, ValueSeed, T

        store = ColumnStore.from_rows(label_corpus(trees))
        catalog = SegmentedCatalog([store])  # no value index
        for literal in ("dog", "nowhere"):
            seed = ValueSeed("@lex", Literal(literal), None, tid=Col(0, T))
            for stats in (store, catalog):   # exact at a bind, guessed before
                assert choose_join(2.0, seed, stats) == "probe"
                assert choose_join(5000.0, seed, stats) == "merge"

    def test_a_seeded_merge_join_is_annotated_and_rendered(self, engine):
        with forced("merge"):
            plan = engine.explain("//S[//_[@lex=saw]]")
        assert "Join[merge/" in plan and " est_in=" in plan
        assert (
            "StructuralMergeJoin(s1 <- ValueSeed(@lex='saw' over tree s0.tid):"
            " descendant::_ | strategy=sweep kernel="
        ) in plan
        assert plan.rstrip().endswith("row=0 first_match)")
        with forced("probe"):
            plan = engine.explain("//S[//_[@lex=saw]]")
        assert "Join[probe est_in=" in plan
        assert "ColumnarJoin(s1 <- ValueSeed(" in plan

    def test_annotation_recorded_and_rendered(self, engine):
        plan = engine.explain("//S//NP")
        assert "[probe est_in=" in plan or "[merge/" in plan

    def test_cost_model_picks_merge_at_scale(self):
        from repro.corpus.generator import generate_corpus

        engine = LPathEngine(
            list(generate_corpus("wsj", sentences=120, seed=11)),
            keep_trees=False,
        )
        plan = engine.explain("//S//NP")
        assert "[merge/" in plan and " est_in=" in plan
        assert "StructuralMergeJoin" in plan

    def test_force_knob_overrides_choice(self, engine):
        with forced("merge"):
            plan = engine.explain("//S//NP")
            assert "[merge" in plan and "StructuralMergeJoin" in plan
        with forced("probe"):
            plan = engine.explain("//S//NP")
            assert "[probe" in plan and "StructuralMergeJoin" not in plan

    def test_force_knob_keys_the_plan_cache(self, engine):
        plain = engine.compile("//S//V")
        with forced("merge"):
            forced_plan = engine.compile("//S//V")
        assert plain is not forced_plan

    def test_invalid_force_value_rejected(self, engine):
        from repro.lpath.errors import LPathError

        with forced("MERGE"):
            with pytest.raises(LPathError, match="REPRO_FORCE_JOIN"):
                engine.query("//S//NN")
        with forced(""):  # empty means unset, not an error
            assert engine.query("//S//V") is not None


class TestForcedEquivalence:
    @pytest.mark.parametrize("query", AXIS_QUERIES)
    def test_axis_families_agree_with_treewalk(self, engine, trees, query):
        expected = TreeWalkEvaluator(engine.trees).query(query)
        for mode in ("merge", "probe"):
            with forced(mode):
                for pivot in (False, True):
                    got = engine.query(query, pivot=pivot)
                    assert got == expected, (query, mode, pivot)

    @pytest.mark.parametrize("segments", [2, 3])
    def test_segmented_engines_agree(self, trees, segments):
        oracle = TreeWalkEvaluator(trees)
        sharded = LPathEngine(
            trees, keep_trees=False, segments=segments
        )
        for query in AXIS_QUERIES:
            expected = oracle.query(query)
            for mode in ("merge", "probe"):
                with forced(mode):
                    assert sharded.query(query) == expected, (query, mode)

    @pytest.mark.parametrize("kernels", ["python", "native"])
    @pytest.mark.parametrize("mode", ["merge", "probe", None])
    def test_bound_segment_plans_equal_fresh_monolithic_compiles(
        self, trees, monkeypatch, kernels, mode
    ):
        """A segment's plan is the shared skeleton bound to its store; it
        must be the plan a compiler that only knows that one store builds
        from scratch — same flavor per join (decided from the shard's own
        statistics, or forced), same kernel, same selectors, same rows."""
        from repro.columnar.kernels import KERNELS_ENV, native_kernels
        from repro.lpath.compiler import PlanCompiler

        if kernels == "native" and native_kernels() is None:
            pytest.skip("cffi extension unavailable")
        monkeypatch.setenv(KERNELS_ENV, kernels)
        if mode is None:
            monkeypatch.delenv(FORCE_ENV, raising=False)
        else:
            monkeypatch.setenv(FORCE_ENV, mode)
        sharded = LPathEngine(
            trees, keep_trees=False, segments=2
        )
        for query in AXIS_QUERIES:
            compiled = sharded.compile(query)
            for segment, part in zip(compiled.segments, compiled.parts):
                # The shard's own compiler, used monolithically: lowered,
                # optimized and annotated from this shard's catalog alone.
                assert type(segment.compiler) is PlanCompiler
                alone = segment.compiler.compile(query)
                if not any(part is bound for _i, bound in compiled.bound):
                    assert alone.count() == 0, query   # pruned: provably empty
                    continue
                assert part.plan.explain() == alone.plan.explain(), query
                assert list(part.rows()) == list(alone.rows()), query

    def test_xpath_engine_forced_modes_agree(self, trees):
        engine = XPathEngine(trees)
        for query in (
            "//S//NP", "//NP/N", "//Det\\ancestor::S",
            "//S//N[@lex='dog']", "//N\\ancestor::_[@lex='dog']",
            "//S[not(.//N[@lex='dog'])]",
        ):
            expected = engine.query(query)
            for mode in ("merge", "probe"):
                with forced(mode):
                    got = engine.query(query)
                    assert got == expected, (query, mode)


class TestCacheStats:
    def test_engine_cache_stats_counts(self, trees):
        engine = LPathEngine(trees, keep_trees=False)
        engine.query("//NP")
        engine.query("//NP")
        stats = engine.cache_stats()
        assert stats["misses"] == 1 and stats["hits"] == 1
        assert stats["evictions"] == 0 and stats["size"] == 1

    def test_xpath_engine_cache_stats(self, trees):
        engine = XPathEngine(trees)
        engine.query("//NP")
        assert engine.cache_stats()["misses"] == 1
