"""``[...]`` predicates as set-at-a-time semi-joins.

The batch executor compiles every ``exists`` / ``not(exists)`` subplan —
nested to any depth, under ``and``/``or``, on scans, joins and filters —
into a sub-pipeline of its ordinary join steps and reduces the result to
a selection vector (:class:`repro.columnar.executor._SemiJoin`); so do
``count()`` and value comparisons, which reduce the same sub-pipeline
differently, while ``position()`` ranks within the children index.  These
tests pin hand-checked answers on the explain-snapshot corpus across the
whole physical matrix (kernel backend x forced join x store flavor), the
``first_match`` row bound, that no predicate falls back to the per-row
check, and the estimate threading that lets a sub-pipeline pick merge vs.
probe like a main-chain join.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

import pytest

from repro import live, store
from repro.columnar import executor as columnar_executor
from repro.columnar.executor import _JoinStep, _SemiJoin
from repro.columnar.kernels import KERNELS_ENV, native_kernels
from repro.columnar.structural import FORCE_ENV, JoinOutput, MergeJoinStep
from repro.corpus.generator import generate_corpus
from repro.labeling import label_corpus
from repro.lpath import LPathEngine
from repro.oracle import SQLiteBackend, TreeWalkEvaluator
from repro.plan.ir import Join, linearize, subplan_preds
from repro.tree import iter_trees, write_trees

#: The explain-snapshot corpus (tests/plan/test_explain_snapshots.py).
CORPUS = """
( (S (NP (Det the) (N dog)) (VP (V saw) (NP (NP (Det a) (Adj old) (N man)) (PP (Prep with) (NP (N today)))))) )
( (S (NP I) (VP (V ran))) )
( (S (NP (Det the) (Adj old) (N man)) (VP (V saw) (NP (N dog)) (ADVP today))) )
"""

#: (query, hand-checked ``(tid, id)`` answer).  Node ids are preorder
#: positions within each tree; the NPs are 0:2 "the dog", 0:7 "a old man
#: with today", 0:8 "a old man", 0:14 "today", 1:2 "I", 2:2 "the old
#: man", 2:8 "dog".
CASES = [
    # exists / not-exists
    ("//NP[//Det]", [(0, 2), (0, 7), (0, 8), (2, 2)]),
    ("//NP[not(//Det)]", [(0, 14), (1, 2), (2, 8)]),
    ("//S[//NP/N]", [(0, 1), (2, 1)]),
    ("//S[//_]", [(0, 1), (1, 1), (2, 1)]),
    # nested: a predicate on a sub-pipeline step that is not its last
    ("//NP[->PP[//N]]", [(0, 8)]),
    ("//V[->NP[//N]=>ADVP]", [(2, 7)]),
    ("//NP[->PP[//N]=>ADVP]", []),
    # and / or / mixed negation
    ("//NP[//Det and //Adj]", [(0, 7), (0, 8), (2, 2)]),
    ("//NP[//Adj or //PP]", [(0, 7), (0, 8), (2, 2)]),
    ("//NP[not(//Det) and not(//Adj)]", [(0, 14), (1, 2), (2, 8)]),
    ("//NP[not(//Det or //N)]", [(1, 2)]),
    ("//NP[//PP or not(//Det)]", [(0, 7), (0, 14), (1, 2), (2, 8)]),
    # scoped and edge-aligned sub-pipeline
    ("//VP[{//^V->NP$}]", [(0, 5)]),
    # value seeds (a merge over the seed's row list, or the per-binding
    # probe behind its tree prefilter): in predicates, negated — 'ran'
    # lives in the middle tree only, so the other segments sweep an empty
    # list — on the main chain, on every strategy, scoped and aligned
    ("//S[//_[@lex=saw]]", [(0, 1), (2, 1)]),
    ("//NP[//N[@lex=dog]]", [(0, 2), (2, 8)]),
    ("//S[//_[@lex=ran] or //ADVP]", [(1, 1), (2, 1)]),
    ("//S[not(//_[@lex=ran])]", [(0, 1), (2, 1)]),
    ("//S[{//_[@lex=saw]->_[@lex=dog]}]", [(2, 1)]),
    ("//NP/N[@lex=dog]", [(0, 4), (2, 9)]),
    ("//S//_[@lex=dog]", [(0, 4), (2, 9)]),       # never the @lex rows
    ("//S//V[@lex=dog]", []),                     # the name test holds
    ("//V<--N[@lex=dog]", [(0, 4)]),
    ("//Adj<-_[@lex=the]", [(2, 3)]),
    ("//N\\ancestor-or-self::_[@lex=man]", [(0, 11), (2, 5)]),
    ("//NP{//N$[@lex=man]}", [(0, 11), (2, 5)]),
    ("//VP{//^V[@lex=saw]}", [(0, 6), (2, 7)]),
    # a predicate on a join step, mid-chain
    ("//S//NP[not(//PP)]/N", [(0, 4), (0, 11), (0, 15), (2, 5), (2, 9)]),
    ("//VP/NP[//Adj]", [(0, 7)]),
    # predicates on self steps (sunk into the scan; a Filter inside a
    # sub-pipeline)
    ("//NP/self::_[//Adj]/N", [(0, 11), (2, 5)]),
    ("//NP[self::NP[//Adj]]", [(0, 7), (0, 8), (2, 2)]),
    # mixed with count() and position(), each its own selector
    ("//NP[//N and count(//N)>1]", [(0, 7)]),
    ("//NP[count(//NP[//Adj])>0]", [(0, 7)]),
    ("//VP/_[position()=2][//N]", [(0, 7), (2, 8)]),
    # count() zero-filled: no match counts 0, in either spelling
    ("//NP[count(/N)=0]", [(0, 7), (1, 2)]),
    ("//NP[count(/N)<1]", [(0, 7), (1, 2)]),
    ("//NP[not(count(/N)=0)]", [(0, 2), (0, 8), (0, 14), (2, 2), (2, 8)]),
    # distinct result nodes: N 0:11 is reached through NP 0:8 only once
    ("//NP[count(//NP//N)=2]", [(0, 7)]),
]

#: Comparisons of an element's string value (the emitted SQL has none).
VALUE_CASES = [
    ("//NP[//N=dog]", [(0, 2), (2, 8)]),
    ("//NP[/N!=dog]", [(0, 8), (0, 14), (2, 2)]),
    ("//NP[not(//N=man) and //Det]", [(0, 2)]),
    ("//VP[.='saw dog today']", [(2, 6)]),
    ("//N[.>0]", []),
]

KERNEL_BACKENDS = (
    ("python", "native") if native_kernels() is not None else ("python",)
)
FORCED_JOINS = ("merge", "probe", None)


@contextmanager
def environment(**values):
    """Set (or, for ``None``, unset) environment variables for a block."""
    previous = {name: os.environ.get(name) for name in values}
    for name, value in values.items():
        if value is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = value
    try:
        yield
    finally:
        for name, value in previous.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def physical_matrix():
    for backend in KERNEL_BACKENDS:
        for join in FORCED_JOINS:
            yield backend, join


@pytest.fixture(scope="module")
def trees():
    return list(iter_trees(CORPUS))


@pytest.fixture(scope="module")
def treewalk(trees):
    return TreeWalkEvaluator(trees)


@pytest.fixture(scope="module")
def engines(trees, tmp_path_factory):
    """The corpus behind every store flavor the executor runs over: an
    in-memory ``ColumnStore``, a 2-segment mmap'd ``ColumnStore``,
    and a live directory holding two base trees plus one WAL-appended
    delta tree."""
    root = tmp_path_factory.mktemp("semijoin")
    mapped_path = str(root / "corpus.lpdb")
    store.save_corpus(trees, mapped_path, segments=2)
    live_path = str(root / "live.lpdb")
    store.save_corpus(trees[:2], live_path, format="lpdb0005")
    delta = root / "delta.mrg"
    with open(delta, "w") as out:
        write_trees(trees[2:], out)
    with live.LiveCorpus(live_path) as corpus:
        corpus.append_trees(delta.read_text())
    opened = {
        "column-store": LPathEngine(trees, keep_trees=False),
        "mapped": LPathEngine.open(mapped_path),
        "live base+delta": LPathEngine.open(live_path),
    }
    yield opened
    for engine in opened.values():
        engine.close()


class TestHandCheckedAnswers:
    @pytest.mark.parametrize(
        "query,expected", CASES + VALUE_CASES,
        ids=[q for q, _ in CASES + VALUE_CASES],
    )
    def test_every_physical_variant_gives_the_hand_checked_rows(
        self, engines, treewalk, query, expected
    ):
        assert treewalk.query(query) == expected
        for backend, join in physical_matrix():
            with environment(**{KERNELS_ENV: backend, FORCE_ENV: join}):
                for flavor, engine in engines.items():
                    assert engine.query(query) == expected, (
                        query, flavor, backend, join
                    )

    def test_emitted_sql_agrees_after_the_residual_pruning(self, trees):
        sqlite = SQLiteBackend(label_corpus(trees))
        for query, expected in CASES:
            assert sqlite.query(query) == expected, query


class TestTopKAndBatch:
    PREDICATE_QUERIES = [query for query, _expected in CASES + VALUE_CASES]

    def test_limit_is_a_prefix_of_the_full_answer(self, engines):
        for backend, join in physical_matrix():
            with environment(**{KERNELS_ENV: backend, FORCE_ENV: join}):
                for flavor, engine in engines.items():
                    for query, expected in CASES + VALUE_CASES:
                        for k in (1, 2, 100):
                            assert engine.query(query, limit=k) == expected[:k], (
                                query, k, flavor, backend, join
                            )

    def test_query_batch_equals_unbatched(self, engines):
        # Shared prefixes (the //NP and //S scans, //S//NP) are computed
        # once per batch; a predicate's semi-join runs inside the step
        # that owns it, so sharing must not change a single row.
        entries = self.PREDICATE_QUERIES + [
            {"query": "//NP[//Det]", "limit": 2},
            {"query": "//NP[not(//Det)]", "agg": "count"},
            "//NP", "//S//NP",
        ]
        for backend, join in physical_matrix():
            with environment(**{KERNELS_ENV: backend, FORCE_ENV: join}):
                for flavor, engine in engines.items():
                    batched = engine.query_batch(entries)
                    for entry, got in zip(entries, batched):
                        if isinstance(entry, str):
                            want = engine.query(entry)
                        elif "agg" in entry:
                            want = engine.aggregate(entry["query"], entry["agg"])
                        else:
                            want = engine.query(entry["query"], limit=entry["limit"])
                        assert got == want, (entry, flavor, backend, join)


def _semi_joins(plan):
    """Every ``_SemiJoin`` hanging directly off a compiled plan's steps."""
    return [
        selector for step in plan.steps for selector in step.semi
        if isinstance(selector, _SemiJoin)
    ]


class TestFirstMatch:
    def test_last_step_emits_at_most_one_row_per_binding(self, trees):
        engine = LPathEngine(trees, keep_trees=False)
        for backend, join in physical_matrix():
            with environment(**{KERNELS_ENV: backend, FORCE_ENV: join}):
                plan = engine.compile("//S[//_]").plan
                (semi,) = _semi_joins(plan)
                assert semi.first_match
                (last,) = semi.steps
                seen = []
                real_pairs = last.pairs

                def counting_pairs(batch, cutoff=None, first_match=False):
                    src, cand = real_pairs(batch, cutoff, first_match)
                    seen.append((len(batch[0]), len(src), first_match))
                    return src, cand

                last.pairs = counting_pairs
                try:
                    assert plan.execute() is not None
                finally:
                    del last.pairs
                assert seen == [(3, 3, True)], (backend, join)
                # The same step without the flag fans out: every S has
                # several descendants.
                batch = plan.steps[0].probe([])
                batch = [columnar_executor.array("q", batch)]
                src, _cand = real_pairs(batch)
                assert len(src) > len(batch[0])

    def test_a_last_step_with_its_own_predicate_sees_every_candidate(self, trees):
        # //NP[->PP[//N]]: the PP step must not stop at its first PP
        # before the nested predicate has been applied.
        engine = LPathEngine(trees, keep_trees=False)
        plan = engine.compile("//NP[->PP[//N]]").plan
        (outer,) = _semi_joins(plan)
        assert not outer.first_match
        (inner,) = [s for s in outer.steps[-1].semi if isinstance(s, _SemiJoin)]
        assert inner.first_match


class TestPerRowPaths:
    PURE = [
        "//NP[//Det]", "//NP[not(//Det)]", "//NP[//Det and //Adj]",
        "//NP[//Adj or //PP]", "//NP[not(//Det or //N)]",
        "//V[->NP[//N]=>ADVP]", "//S//NP[not(//PP)]/N", "//VP[{//^V->NP$}]",
        "//S[//_[@lex=saw]]", "//NP[self::NP[//Adj]]",
        # a scoped seed's own @lex test is answered by the seed, not re-read
        "//S[{//_[@lex=saw]->_[@lex=dog]}]", "//NP{//N$[@lex=man]}",
    ]
    #: Predicates that need more than existence, alone, nested, negated
    #: and under and/or.
    COUNTED = [
        "//NP[count(//N)>1]", "//S[count(//NP[//Adj])>0]",
        "//NP[not(count(/N)=0)]", "//NP[//N=dog]", "//NP[/N!=dog or //PP]",
        "//S[//NP[.='the old man']]", "//NP[not(//N=man) and //Det]",
        "//VP/_[position()=2][//N]", "//S/NP[position()=last()]",
        "//VP[/NP[position()=1]]", "//NP==>_[position()!=1]",
    ]

    @pytest.fixture()
    def no_row_runner(self, monkeypatch):
        """The per-row check only ever sees scalar conditions (a self
        step's name test, say): no subplan, no ``position()``."""
        real = columnar_executor._RowSelect.select

        def scalar_only(selector, batch, sel):
            text = str(selector.pred)
            assert "{...}" not in text and "position(" not in text, (
                f"_RowSelect.select reached for {text}")
            return real(selector, batch, sel)

        monkeypatch.setattr(columnar_executor._RowSelect, "select", scalar_only)

    def test_exists_predicates_never_reach_the_row_runner(
        self, trees, treewalk, no_row_runner
    ):
        for backend, join in physical_matrix():
            with environment(**{KERNELS_ENV: backend, FORCE_ENV: join}):
                engine = LPathEngine(trees, keep_trees=False)
                for query in self.PURE + self.COUNTED:
                    assert engine.query(query) == treewalk.query(query), query

    def test_count_value_and_position_are_no_row_residuals(self, trees):
        # Each is a selector beside the step's vector filters; no step
        # keeps a per-row residual for it.
        engine = LPathEngine(trees, keep_trees=False)
        for query in self.COUNTED:
            for step in engine.compile(query).plan.steps:
                assert not getattr(step, "row", ()), query
            assert "row=1" not in engine.explain(query), query

    def test_a_row_is_one_node_and_name(self, engines):
        # count() counts distinct result rows per binding: within one
        # store a row is one (tid, id, name), so these are the distinct
        # result nodes the SQL and tree-walk backends count.
        for flavor, engine in engines.items():
            compiler = engine._compiler
            for store in [
                segment.compiler.column_store
                for segment in getattr(compiler, "segments", ())
            ] or [compiler.column_store]:
                keys = set(zip(store.tid, store.id, store.names))
                assert len(keys) == store.n > 0, flavor


def _annotated(engine, query):
    """``query``'s optimized plan with its join annotations, which
    ``explain()`` makes when it is asked."""
    compiled = engine.compile(query)
    compiled.explain()
    return compiled.logical


def _subplan_joins(engine, query):
    """``[(label, physical annotation)]`` of the joins inside the first
    predicate subplan of ``query``'s optimized plan."""
    root = _annotated(engine, query)
    for node in linearize(root):
        for condition in getattr(node, "conditions", ()):
            for pred, _negated in subplan_preds(condition):
                return [
                    (item.label, item.physical, item.est_in)
                    for item in linearize(pred.subplan) if isinstance(item, Join)
                ]
    raise AssertionError(f"{query} has no predicate subplan")


class TestEstimatesCrossThePredicateBoundary:
    @pytest.fixture(scope="class")
    def engine(self):
        return LPathEngine(
            list(generate_corpus("wsj", sentences=300, seed=11)),
            keep_trees=False,
        )

    def test_large_outer_batch_picks_merge(self, engine):
        with environment(**{FORCE_ENV: None}):
            joins = _subplan_joins(engine, "//S[//NP/ADJP]")
            assert [label for label, _p, _e in joins] == [
                "descendant::NP", "child::ADJP",
            ]
            for _label, physical, est_in in joins:
                assert physical.startswith("merge/")
                assert est_in >= engine.compile("//S").count()
            (semi,) = _semi_joins(engine.compile("//S[//NP/ADJP]").plan)
            assert all(isinstance(step, MergeJoinStep) for step in semi.steps)

    def test_a_handful_of_bindings_picks_probe(self, engine):
        with environment(**{FORCE_ENV: None}):
            # A parent step has no structural variant at all ...
            assert _subplan_joins(engine, "//_[@lex=1929][\\NP]") == [
                ("parent::NP", None, None),
            ]
            # ... and a merge-eligible step under a rare tag is costed
            # from the owner's estimate, so it probes.
            rare = min(
                ("WHPP", "UCP", "RRC", "CONJP", "PRN"),
                key=lambda tag: engine.compile(f"//{tag}").count() or 1 << 30,
            )
            ((label, physical, est_in),) = _subplan_joins(
                engine, f"//{rare}[//NP]"
            )
            assert (label, physical) == ("descendant::NP", "probe")
            assert est_in == engine.compile(f"//{rare}").count()
            # The same holds for a value-seeded step: merge-eligible, but
            # a handful of bindings keeps the per-binding probe, while a
            # batch of S nodes merges against the seed's row list.
            ((label, physical, _est),) = _subplan_joins(
                engine, f"//{rare}[//_[@lex=of]]"
            )
            assert (label, physical) == ("descendant::_", "probe")
            ((label, physical, _est),) = _subplan_joins(engine, "//S[//_[@lex=of]]")
            assert physical.startswith("merge/")
            (semi,) = _semi_joins(engine.compile("//S[//_[@lex=of]]").plan)
            assert all(isinstance(step, MergeJoinStep) for step in semi.steps)
            for query in (
                "//_[@lex=1929][\\NP]", f"//{rare}[//NP]", f"//{rare}[//_[@lex=of]]",
            ):
                (semi,) = _semi_joins(engine.compile(query).plan)
                assert all(isinstance(step, _JoinStep) for step in semi.steps)

    def test_annotation_and_physical_compile_agree(self, engine):
        for join in FORCED_JOINS:
            with environment(**{FORCE_ENV: join}):
                for query in ("//S[//NP/ADJP]", "//NP[->PP[//IN]=>VP]", "//WHPP[//NP]"):
                    annotated = [
                        physical for _l, physical, _e in _subplan_joins(engine, query)
                    ]
                    (semi,) = _semi_joins(engine.compile(query).plan)
                    built = [
                        "merge" if isinstance(step, MergeJoinStep) else "probe"
                        for step in semi.steps if isinstance(step, JoinOutput)
                    ]
                    assert [a.split("/")[0] for a in annotated] == built, (query, join)

    def test_count_subplans_are_costed_from_the_owner(self, engine):
        # count() runs over its owner's whole batch, like exists: its
        # joins, and an exists nested inside them, are costed from the
        # owner's estimate — exactly as the same steps on the main chain.
        with environment(**{FORCE_ENV: None}):
            root = _annotated(engine, "//S[count(//NP[//JJ])>2]")
            (count_pred,) = [
                pred for node in linearize(root)
                for condition in getattr(node, "conditions", ())
                for pred, _n in subplan_preds(condition)
            ]
            (np_join,) = [
                item for item in linearize(count_pred.subplan)
                if isinstance(item, Join)
            ]
            assert np_join.est_in == engine.compile("//S").count()
            ((nested, _neg),) = [
                found for condition in np_join.conditions
                for found in subplan_preds(condition)
            ]
            (jj_join,) = [
                item for item in linearize(nested.subplan)
                if isinstance(item, Join)
            ]
            chain = [
                item for item in linearize(_annotated(engine, "//S//NP"))
                if isinstance(item, Join)
            ]
            assert [(j.est_in, j.physical) for j in chain] == [
                (np_join.est_in, np_join.physical)]
            (jj_twin,) = _subplan_joins(engine, "//S//NP[//JJ]")
            assert jj_join.est_in == jj_twin[2] > 1.0
            assert jj_join.physical == jj_twin[1]
            assert jj_join.physical.startswith("merge/")
