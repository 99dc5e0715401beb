"""Tests for the shared logical IR, the optimizer passes, and rendering."""

import pytest

from repro.corpus import generate_corpus
from repro.lpath import LPathEngine
from repro.lpath.ast import Literal
from repro.plan.ir import (
    Cmp,
    Col,
    Const,
    Distinct,
    ExistsPred,
    Filter,
    IndexProbe,
    Join,
    Scan,
    TableScan,
    ValueCmpPred,
    ValueSeed,
    linearize,
    pred_slots,
    render,
)
from repro.tree import figure1_tree
from repro.xpath import XPathEngine


@pytest.fixture(scope="module")
def engines():
    trees = [figure1_tree()]
    return LPathEngine(trees), XPathEngine(trees)


@pytest.fixture(scope="module")
def wsj_engines():
    corpus = generate_corpus("wsj", sentences=300, seed=5)
    return LPathEngine(corpus, keep_trees=False), XPathEngine(corpus)


class TestUniformIR:
    def test_both_dialects_render_the_same_node_shapes(self, engines):
        lpath_engine, xpath_engine = engines
        for query in ("//NP", "//S//NP", "//NP/N", "//S[//NP/Det]"):
            lpath_ir = render(lpath_engine.compile(query).logical)
            xpath_ir = render(xpath_engine.compile(query).logical)
            for text in (lpath_ir, xpath_ir):
                assert "Distinct[" in text
                assert "Scan(" in text
            # Same logical operators in the same order, scheme details aside.
            shape = lambda text: [line.strip().split("(")[0] for line in text.splitlines()]
            assert shape(lpath_ir) == shape(xpath_ir)

    def test_explain_contains_logical_and_physical_sections(self, engines):
        lpath_engine, xpath_engine = engines
        for engine in engines:
            text = engine.explain("//S//NP")
            assert "logical plan:" in text
            assert "physical plan:" in text

    def test_linearize_and_slots(self, engines):
        lpath_engine, _ = engines
        logical = lpath_engine.compile("//S//NP/N").logical
        chain = linearize(logical)
        assert isinstance(chain[0], Scan)
        joins = [node for node in chain if isinstance(node, Join)]
        assert [join.slot for join in joins] == [1, 2]
        assert isinstance(chain[-1], Distinct)

    def test_pred_slots(self):
        assert pred_slots(Cmp(Col(1, 2), "<", Col(0, 3))) == {0, 1}
        assert pred_slots(Cmp(Col(2, 6), "=", Const("NP"))) == {2}


class TestPushdown:
    def test_name_predicate_upgrades_table_scan(self, engines):
        lpath_engine, _ = engines
        compiled = lpath_engine.compile("//_[name()=NP]")
        scan = linearize(compiled.logical)[0]
        assert isinstance(scan.access, IndexProbe)
        assert not isinstance(scan.access, TableScan)
        assert "named NP" in scan.label
        assert lpath_engine.query("//_[name()=NP]") == lpath_engine.query("//NP")

    def test_name_predicate_upgrades_wildcard_join_probe(self, engines):
        lpath_engine, _ = engines
        compiled = lpath_engine.compile("//NP/_[name()=N]")
        join = [n for n in linearize(compiled.logical) if isinstance(n, Join)][0]
        assert isinstance(join.access, IndexProbe)
        assert join.access.index != "idx_tid_id"
        assert join.access.eq[0] == Const("N")
        assert lpath_engine.query("//NP/_[name()=N]") == lpath_engine.query("//NP/N")

    def test_first_step_predicates_sink_into_scan(self, engines):
        lpath_engine, _ = engines
        compiled = lpath_engine.compile("//NP[//Det]")
        chain = linearize(compiled.logical)
        # The filter merged into the Scan: no standalone Filter remains.
        assert not any(isinstance(node, Filter) for node in chain)
        scan = chain[0]
        assert any(isinstance(c, ExistsPred) for c in scan.conditions)


class TestJoinReordering:
    def test_xpath_engine_pivots_like_lpath(self, wsj_engines):
        lpath_engine, xpath_engine = wsj_engines
        query = "//S//NP//WHPP"
        expected = lpath_engine.query(query)
        assert xpath_engine.query(query) == expected
        assert xpath_engine.query(query, pivot=True) == expected
        description = xpath_engine.compile(query, pivot=True).description
        assert "pivot" in description

    def test_exists_subplan_pivots_to_rarest_step(self, wsj_engines):
        lpath_engine, _ = wsj_engines
        query = "//S[//NP//WHPP]"
        compiled = lpath_engine.compile(query, pivot=True)
        scan = linearize(compiled.logical)[0]
        exists = [c for c in scan.conditions if isinstance(c, ExistsPred)]
        assert exists, "exists predicate expected on the scan"
        subplan_joins = [
            node for node in linearize(exists[0].subplan) if isinstance(node, Join)
        ]
        # The pivoted subplan seeds at WHPP (the rare tag), then walks up.
        assert "WHPP" in subplan_joins[0].label
        assert subplan_joins[1].axis.value.startswith("ancestor")
        assert lpath_engine.query(query, pivot=True) == lpath_engine.query(query)

    def test_subplan_pivot_preserves_results_across_queries(self, wsj_engines):
        lpath_engine, xpath_engine = wsj_engines
        queries = [
            "//S[//NP//WHPP]",
            "//S[//VP/VB]",
            "//NP[not(//NP//WHPP)]",
            "//S[//NP//WHPP and //VP]",
            "//S[count(//NP//WHPP)>0]",
        ]
        for query in queries:
            assert lpath_engine.query(query, pivot=True) == lpath_engine.query(
                query
            ), query
        for query in queries:
            assert xpath_engine.query(query, pivot=True) == xpath_engine.query(
                query
            ), query

    def test_value_and_count_subplans_are_not_reordered(self, wsj_engines):
        lpath_engine, _ = wsj_engines
        # count()/value comparisons need the original result slot; ensure
        # they still agree under pivot (and are simply left alone).
        for query in ("//S[count(//NP//WHPP)=0]", "//NN[.!=xyzzy]"):
            assert lpath_engine.query(query, pivot=True) == lpath_engine.query(
                query
            ), query


class TestConditionOrdering:
    def test_cheap_conditions_run_before_subplans(self, engines):
        lpath_engine, _ = engines
        compiled = lpath_engine.compile("//S/NP[//Det]")
        join = [n for n in linearize(compiled.logical) if isinstance(n, Join)][0]
        kinds = [isinstance(c, ExistsPred) for c in join.conditions]
        # All exists predicates come after the plain comparisons.
        assert kinds == sorted(kinds)


class TestRedundantResiduals:
    """``prune_redundant``: a scoped step gets its containment residuals
    once from the axis and once from the scope; the optimizer keeps one
    comparison per column."""

    @staticmethod
    def _conditions(engine, query, **kwargs):
        logical = engine.compile(query, **kwargs).logical
        join = [n for n in linearize(logical) if isinstance(n, Join)][-1]
        return [str(c) for c in join.conditions]

    def test_scoped_descendant_checks_three_columns(self, engines):
        lpath_engine, _ = engines
        # Was: right<=, depth>, left<=, right<= (dup), depth>= (implied),
        # right= (implies both right<=).
        assert self._conditions(lpath_engine, "//VP{//NP$}") == [
            "s1.depth > s0.depth",
            "s0.left <= s1.left",
            "s1.right = s0.right",
        ]

    def test_left_alignment_implies_the_scope_bound(self, engines):
        lpath_engine, _ = engines
        assert self._conditions(lpath_engine, "//VP{//^NP}") == [
            "s1.right <= s0.right",
            "s1.depth > s0.depth",
            "s1.left = s0.left",
        ]

    def test_unrelated_scope_bounds_survive(self, engines):
        lpath_engine, _ = engines
        # Nothing here is stronger than the scope's own three bounds.
        assert self._conditions(lpath_engine, "//VP{/V-->N}") == [
            "s0.left <= s2.left",
            "s2.right <= s0.right",
            "s2.depth >= s0.depth",
        ]

    def test_both_dialects_get_the_pass(self, engines):
        lpath_engine, xpath_engine = engines
        assert len(self._conditions(lpath_engine, "//VP{//NP$}")) == 3
        # The start/end scheme emits no duplicates; the pass is a no-op.
        assert self._conditions(xpath_engine, "//S//NP") == [
            "s1.right < s0.right"
        ]

    def test_predicate_subplans_are_pruned_too(self, engines):
        lpath_engine, _ = engines
        logical = lpath_engine.compile("//VP[{//NP$}]").logical
        scan = linearize(logical)[0]
        (exists,) = scan.conditions
        (join,) = [n for n in linearize(exists.subplan) if isinstance(n, Join)]
        assert [str(c) for c in join.conditions] == [
            "s1.depth > s0.depth",
            "s0.left <= s1.left",
            "s1.right = s0.right",
        ]

    def test_value_seed_drops_the_test_it_answers(self, engines):
        lpath_engine, _ = engines
        scan = linearize(lpath_engine.compile("//_[@lex=saw]").logical)[0]
        assert scan.conditions == ()
        # Only the seeding equality goes: a second value test stays.
        scan = linearize(
            lpath_engine.compile("//_[@lex=saw][@lex!=dog]").logical)[0]
        assert [str(c) for c in scan.conditions] == ["value{...} != 'dog'"]

    @staticmethod
    def _seeded_conditions(engine, query):
        """The conditions of every value-seeded join of ``query``'s first
        predicate subplan (or of its main chain), as text."""
        logical = engine.compile(query).logical
        chain = linearize(logical)
        for condition in chain[0].conditions:
            if isinstance(condition, ExistsPred):
                chain = linearize(condition.subplan)
        return [
            [str(c) for c in node.conditions] for node in chain
            if isinstance(node, Join) and isinstance(node.access, ValueSeed)
        ]

    def test_a_scoped_seed_still_drops_the_test_it_answers(self, engines):
        lpath_engine, _ = engines
        # Inside a scope the attribute step repeats the scope's containment
        # beside name = '@lex'; attribute rows share their element's span
        # and depth, and both seeded joins hold that containment (the
        # first one something stronger: depth >).
        what, building = self._seeded_conditions(
            lpath_engine, "//S[{//_[@lex=saw]->_[@lex=dog]}]")
        assert what == [
            "s1.left >= s0.left", "s1.right <= s0.right", "s1.depth > s0.depth",
        ]
        assert building == [
            "s2.left = s1.right", "s0.left <= s2.left",
            "s2.right <= s0.right", "s2.depth >= s0.depth",
        ]
        # It must not fire for another literal, for !=, ...
        (kept,) = self._seeded_conditions(
            lpath_engine, "//S{//_[@lex=saw][@lex=dog]}")
        assert kept[-1] == "value{...} = 'dog'" and len(kept) == 4
        (kept,) = self._seeded_conditions(
            lpath_engine, "//S{//_[@lex=saw][@lex!=saw]}")
        assert kept[-1] == "value{...} != 'saw'" and len(kept) == 4

    def test_a_seed_keeps_a_test_with_any_other_residual(self):
        # ... nor when the attribute step carries a residual that is not
        # the seeded element's own containment: a comparison the node does
        # not hold, or one outside span and depth.
        from repro.lpath.axes import Axis
        from repro.plan.ir import D, I, L, N, P, R, T, Context
        from repro.plan.optimizer import _pruned

        containment = [
            Cmp(Col(0, L), "<=", Col(1, L)),
            Cmp(Col(1, R), "<=", Col(0, R)),
            Cmp(Col(1, D), ">", Col(0, D)),
        ]

        def seeded(extra):
            step = Join(
                Context(1), slot=2,
                access=IndexProbe("idx_tid_id", (Col(1, T), Col(1, I))),
                conditions=(Cmp(Col(2, N), "=", Const("@lex")),) + tuple(extra),
                label="attribute::lex", axis=Axis.ATTRIBUTE, ctx_slot=1,
            )
            test = ValueCmpPred(step, "=", "saw", False)
            node = Join(
                Context(0), slot=1,
                access=ValueSeed("@lex", Literal("saw"), None, tid=Col(0, T)),
                conditions=tuple(containment) + (test,),
                label="descendant::_", axis=Axis.DESCENDANT, ctx_slot=0,
            )
            return test in _pruned(node)

        assert not seeded([])
        assert not seeded([                  # the scope's bounds, re-addressed
            Cmp(Col(0, L), "<=", Col(2, L)),
            Cmp(Col(2, R), "<=", Col(0, R)),
            Cmp(Col(2, D), ">=", Col(0, D)),     # weaker than the node's >
        ])
        assert seeded([Cmp(Col(2, L), "=", Col(0, L))])    # not held
        assert seeded([Cmp(Col(2, D), ">", Col(0, R))])    # another pair
        assert seeded([Cmp(Col(2, P), "=", Col(0, I))])    # not span/depth
        assert seeded([ExistsPred(Context(2))])            # not a comparison
