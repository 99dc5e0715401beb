"""Per-axis goldens: every Table 1 axis on the paper's Figure 1 tree.

Each case starts from a fixed context node and names the hand-checked
result as ``(label, left, right)`` spans, the way
``tests/lpath/test_figure2.py`` names the paper's Figure 2 answers:

    S 1 10 ── NP 1 2 (I)
           ├─ VP 2 9 ── V 2 3 (saw)
           │         └─ NP 3 9 ── NP 3 6 ── Det 3 4, Adj 4 5, N 5 6
           │                   └─ PP 6 9 ── Prep 6 7
           │                             └─ NP 7 9 ── Det 7 8, N 8 9
           └─ NP 9 10 ── N 9 10 (today)

Every case runs under both physical joins (``REPRO_FORCE_JOIN=merge``
and ``=probe``), both kernel backends and on one and three segments — the
three-segment engine holds three copies of the tree (tids 0-2), so the
expected spans repeat per tid.  ``explain()`` pins which merge strategy
(``sweep``, ``stack``, ``prefix``) and which ``first_match`` step a case
reaches, so a wrong comparison in the merge join's reference loop or in a
kernel fails the test named after its axis.  The positional axes also
carry ``position()`` / ``last()`` goldens, written as node ids, and a
numeric ``!=`` against words that are no number has its own small tree.
The XPath-expressible axes and positions run once more over start/end
labels, in the same modes, with their answers written as node ids (the
spans of that labeling are other numbers).
"""

from __future__ import annotations

import pytest

from repro.columnar.kernels import native_kernels
from repro.columnar.structural import Cutoff, MergeJoinStep
from repro.lpath import LPathEngine
from repro.oracle import TreeWalkEvaluator
from repro.tree import figure1_tree, parse_tree
from repro.xpath import XPATH_AXES, XPathEngine

NATIVE = native_kernels() is not None

#: (axis, query, the axis step as ``explain()`` labels it, its merge
#: strategy — ``None`` where the step is no merge join — and the expected
#: spans).  The or-self steps of the horizontal and sibling axes run the
#: reference loop under both backends.
AXES = [
    ("child", "//VP/NP", "child::NP", "sweep", {("NP", 3, 9)}),
    ("descendant", "//VP//NP", "descendant::NP", "sweep",
     {("NP", 3, 9), ("NP", 3, 6), ("NP", 7, 9)}),
    ("descendant-or-self", "//VP/NP/descendant-or-self::NP",
     "descendant-or-self::NP", "sweep",
     {("NP", 3, 9), ("NP", 3, 6), ("NP", 7, 9)}),
    ("parent", "//PP\\NP", "parent::NP", None, {("NP", 3, 9)}),
    ("ancestor", "//PP/NP/N\\ancestor::NP", "ancestor::NP", "stack",
     {("NP", 7, 9), ("NP", 3, 9)}),
    ("ancestor-or-self", "//PP/NP\\ancestor-or-self::NP",
     "ancestor-or-self::NP", "stack", {("NP", 7, 9), ("NP", 3, 9)}),
    ("immediate-following", "//V->NP", "immediate-following::NP", "sweep",
     {("NP", 3, 9), ("NP", 3, 6)}),
    # The window alone bounds this axis: N 9 10 starts where it ends.
    ("immediate-following-window", "//PP/NP/Det->N", "immediate-following::N",
     "sweep", {("N", 8, 9)}),
    ("following", "//V-->NP", "following::NP", "sweep",
     {("NP", 3, 9), ("NP", 3, 6), ("NP", 7, 9), ("NP", 9, 10)}),
    ("following-or-self", "//PP/NP/following-or-self::NP",
     "following-or-self::NP", "sweep", {("NP", 7, 9), ("NP", 9, 10)}),
    # A context of another name is no "self": PP stays out.
    ("following-or-self-other-name", "//PP/following-or-self::NP",
     "following-or-self::NP", "sweep", {("NP", 9, 10)}),
    ("immediate-preceding", "//PP<-NP", "immediate-preceding::NP", "prefix",
     {("NP", 3, 6)}),
    ("preceding", "//PP<--NP", "preceding::NP", "prefix",
     {("NP", 1, 2), ("NP", 3, 6)}),
    ("preceding-or-self", "//PP/NP/preceding-or-self::NP",
     "preceding-or-self::NP", "prefix",
     {("NP", 1, 2), ("NP", 3, 6), ("NP", 7, 9)}),
    ("immediate-following-sibling", "//Adj=>N",
     "immediate-following-sibling::N", "sweep", {("N", 5, 6)}),
    ("following-sibling", "//VP<=NP==>NP", "following-sibling::NP", "sweep",
     {("NP", 9, 10)}),
    ("following-sibling-or-self", "//VP<=NP/following-sibling-or-self::NP",
     "following-sibling-or-self::NP", "sweep", {("NP", 1, 2), ("NP", 9, 10)}),
    ("immediate-preceding-sibling", "//VP<=NP",
     "immediate-preceding-sibling::NP", "prefix", {("NP", 1, 2)}),
    ("preceding-sibling", "//VP=>NP<==NP", "preceding-sibling::NP", "prefix",
     {("NP", 1, 2)}),
    ("preceding-sibling-or-self", "//VP=>NP/preceding-sibling-or-self::NP",
     "preceding-sibling-or-self::NP", "prefix", {("NP", 1, 2), ("NP", 9, 10)}),
    ("self", "//VP/NP/self::NP", None, None, {("NP", 3, 9)}),
    ("attribute", "//_[@lex=saw]", None, None, {("V", 2, 3)}),
    # Subtree scoping: the VP bounds the axis ({N 9 10} escapes it).
    ("scoped-following", "//VP{/V-->N}", "following::N", "sweep",
     {("N", 5, 6), ("N", 8, 9)}),
    ("scoped-ancestor", "//VP{//N\\ancestor::NP}", "ancestor::NP", "sweep",
     {("NP", 3, 6), ("NP", 7, 9), ("NP", 3, 9)}),
    # Edge alignment, scoped to the context and to the whole tree.
    ("scoped-right-aligned", "//VP{//NP$}", "descendant::NP", "sweep",
     {("NP", 3, 9), ("NP", 7, 9)}),
    ("scoped-left-aligned", "//VP/NP{//^NP}", "descendant::NP", "sweep",
     {("NP", 3, 6)}),
    ("right-aligned", "//S//N$", "descendant::N", "sweep", {("N", 9, 10)}),
    ("left-aligned", "//S//^NP", "descendant::NP", "sweep", {("NP", 1, 2)}),
    # The axis inside [...]: an exists semi-join's first_match step.
    ("descendant-first-match", "//VP[//PP]", "descendant::PP first_match",
     "sweep", {("VP", 2, 9)}),
    ("ancestor-first-match", "//Det[\\ancestor::PP]",
     "ancestor::PP first_match", "stack", {("Det", 7, 8)}),
    ("preceding-first-match", "//NP[<--V]", "preceding::V first_match",
     "prefix", {("NP", 3, 9), ("NP", 3, 6), ("NP", 7, 9), ("NP", 9, 10)}),
]

MODES = [
    pytest.param(
        (force, kernels, segments),
        id=f"{force}-{kernels}-{segments}seg",
        marks=[] if kernels == "python" or NATIVE else pytest.mark.skip(
            reason="cffi extension unavailable"
        ),
    )
    for force in ("merge", "probe")
    for kernels in ("python", "native")
    for segments in (1, 3)
]


@pytest.fixture(scope="module")
def trees():
    return [figure1_tree(tid) for tid in range(3)]


@pytest.fixture(scope="module")
def engines(trees):
    """``{segments: engine}``: one tree on one segment, three on three."""
    return {1: LPathEngine(trees[:1]), 3: LPathEngine(trees, segments=3)}


@pytest.fixture
def mode(monkeypatch, engines, request):
    """``(force, kernels, engine, tids)`` with both knobs set."""
    force, kernels, segments = request.param
    monkeypatch.setenv("REPRO_FORCE_JOIN", force)
    monkeypatch.setenv("REPRO_KERNELS", kernels)
    return force, kernels, engines[segments], range(segments)


def spans(trees, batch) -> list:
    """``(tid, label, left, right)`` of every result pair, in order."""
    return [
        (tid, node.label, node.left, node.right)
        for tid, node in (
            (tid, trees[tid].node_by_id(node_id)) for tid, node_id in batch
        )
    ]


def step_line(explain: str, label: str) -> str:
    """The physical plan line of the step labelled ``label`` (an axis
    step, then `` first_match`` when it must run in that mode)."""
    step, _, flag = label.partition(" ")
    physical = explain.split("physical plan")[1]
    lines = [line for line in physical.splitlines() if f": {step} |" in line]
    assert len(lines) == 1, (label, physical)
    assert flag in lines[0] and ("first_match" in lines[0]) == bool(flag), (
        label, lines[0])
    return lines[0].lstrip()


@pytest.mark.parametrize("mode", MODES, indirect=True)
@pytest.mark.parametrize(
    "query, label, strategy, expected",
    [case[1:] for case in AXES],
    ids=[case[0] for case in AXES],
)
def test_axis_golden(trees, mode, query, label, strategy, expected):
    force, kernels, engine, tids = mode
    got = spans(trees, engine.query(query))
    assert len(got) == len(set(got)), got
    assert set(got) == {(tid, *span) for tid in tids for span in expected}
    if label is None:
        return
    line = step_line(engine.explain(query), label)
    if force == "probe" or strategy is None:
        assert line.startswith("ColumnarJoin("), line
    else:
        assert line.startswith("StructuralMergeJoin("), line
        assert f"strategy={strategy} " in line, line
        if kernels == "python":
            assert "kernel=python" in line, line


#: Figure 1 by node id (preorder, from 1; ``node_by_id`` resolves them):
#:
#:     1 S ── 2 NP (I)
#:         ├─ 3 VP ── 4 V (saw)
#:         │       └─ 5 NP ── 6 NP ── 7 Det, 8 Adj, 9 N
#:         │               └─ 10 PP ── 11 Prep
#:         │                        └─ 12 NP ── 13 Det, 14 N
#:         └─ 15 NP ── 16 N (today)
#:
#: (axis, query, hand-checked node ids) for ``position()=1``,
#: ``position()<=2`` and ``position()=last()`` on every positional axis.
#: A position ranks the candidate among the context's siblings that pass
#: the step's name test: on the child axis all of them, on the following
#: axes those after the context (nearest first), on the preceding axes
#: those before it (nearest first).
POSITIONS = [
    # The children of NP 5 (6, 10), NP 6 (7-9), NP 12 (13, 14), NP 15 (16).
    ("child", "//NP/_[position()=1]", {6, 7, 13, 16}),
    ("child", "//NP/_[position()<=2]", {6, 10, 7, 8, 13, 14, 16}),
    ("child", "//NP/_[position()=last()]", {10, 9, 14, 16}),
    # Only NPs are ranked: NP 15 is the second child of S, the second NP.
    ("child-named", "//S/NP[position()=1]", {2}),
    ("child-named", "//S/NP[position()<=2]", {2, 15}),
    ("child-named", "//S/NP[position()=last()]", {15}),
    # After NP 2: VP 3, NP 15; after NP 6: PP 10.
    ("following-sibling", "//NP==>_[position()=1]", {3, 10}),
    ("following-sibling", "//NP==>_[position()<=2]", {3, 15, 10}),
    ("following-sibling", "//NP==>_[position()=last()]", {15, 10}),
    # Before NP 15: VP 3, NP 2; before NP 12: Prep 11; before NP 5: V 4.
    ("preceding-sibling", "//NP<==_[position()=1]", {3, 11, 4}),
    ("preceding-sibling", "//NP<==_[position()<=2]", {3, 2, 11, 4}),
    ("preceding-sibling", "//NP<==_[position()=last()]", {2, 11, 4}),
    # The one candidate right after each NP, ranked among all after it:
    # VP 3 is first of two, PP 10 first and last.
    ("immediate-following-sibling", "//NP=>_[position()=1]", {3, 10}),
    ("immediate-following-sibling", "//NP=>_[position()<=2]", {3, 10}),
    ("immediate-following-sibling", "//NP=>_[position()=last()]", {10}),
    # VP 3 right before NP 15 (NP 2 before it), Prep 11, V 4.
    ("immediate-preceding-sibling", "//NP<=_[position()=1]", {3, 11, 4}),
    ("immediate-preceding-sibling", "//NP<=_[position()<=2]", {3, 11, 4}),
    ("immediate-preceding-sibling", "//NP<=_[position()=last()]", {11, 4}),
]


@pytest.mark.parametrize("mode", MODES, indirect=True)
@pytest.mark.parametrize(
    "query, expected",
    [case[1:] for case in POSITIONS],
    ids=[f"{axis}-{query.partition('[')[2][:-1]}" for axis, query, _ in POSITIONS],
)
def test_position_golden(mode, query, expected):
    _force, _kernels, engine, tids = mode
    got = list(engine.query(query))
    assert got == sorted((tid, node_id) for tid in tids for node_id in expected)


#: (axis, query, hand-checked node ids) for every axis start/end labels
#: can decide, asked in the XPath dialect.  The sibling axes come without
#: LPath's immediate-sibling steps that :data:`AXES` reaches them through.
START_END_AXES = [
    ("child", "//VP/NP", {5}),
    ("descendant", "//VP//NP", {5, 6, 12}),
    ("descendant-or-self", "//VP/NP/descendant-or-self::NP", {5, 6, 12}),
    ("parent", "//PP\\NP", {5}),
    ("ancestor", "//PP/NP/N\\ancestor::NP", {12, 5}),
    ("ancestor-or-self", "//PP/NP\\ancestor-or-self::NP", {12, 5}),
    ("following", "//V-->NP", {5, 6, 12, 15}),
    ("preceding", "//PP<--NP", {2, 6}),
    ("following-sibling", "//S/NP==>NP", {15}),
    ("preceding-sibling", "//S/NP<==NP", {2}),
    ("self", "//VP/NP/self::NP", {5}),
    ("attribute", "//_[@lex=saw]", {4}),
    ("descendant-first-match", "//VP[//PP]", {3}),
    ("ancestor-first-match", "//Det[\\ancestor::PP]", {13}),
    ("preceding-first-match", "//NP[<--V]", {5, 6, 12, 15}),
]


@pytest.fixture(scope="module")
def start_end_engines(trees):
    """``{segments: engine}`` as ``engines``, over start/end labels."""
    return {
        1: XPathEngine(trees[:1], axes=XPATH_AXES),
        3: XPathEngine(trees, axes=XPATH_AXES, segments=3),
    }


@pytest.mark.parametrize("mode", MODES, indirect=True)
@pytest.mark.parametrize(
    "query, expected",
    [case[1:] for case in START_END_AXES],
    ids=[case[0] for case in START_END_AXES],
)
def test_start_end_axis_golden(mode, start_end_engines, query, expected):
    _force, _kernels, _engine, tids = mode
    engine = start_end_engines[len(tids)]
    got = list(engine.query(query))
    assert got == sorted((tid, node_id) for tid in tids for node_id in expected)


#: The :data:`POSITIONS` cases XPath can ask: start/end labels rank the
#: same siblings, so the node ids are the same.
START_END_POSITIONS = [case for case in POSITIONS if "immediate" not in case[0]]


@pytest.mark.parametrize("mode", MODES, indirect=True)
@pytest.mark.parametrize(
    "query, expected",
    [case[1:] for case in START_END_POSITIONS],
    ids=[f"{axis}-{query.partition('[')[2][:-1]}"
         for axis, query, _ in START_END_POSITIONS],
)
def test_start_end_position_golden(mode, start_end_engines, query, expected):
    _force, _kernels, _engine, tids = mode
    engine = start_end_engines[len(tids)]
    got = list(engine.query(query))
    assert got == sorted((tid, node_id) for tid in tids for node_id in expected)


#: Nodes 1-11 in document order: S, NP, Det (the), N (dog), VP, V (saw),
#: NP, N (2), NP, Det (a), N (3).
NUMBERS = "( (S (NP (Det the) (N dog)) (VP (V saw) (NP (N 2)) (NP (Det a) (N 3)))) )"


@pytest.fixture(scope="module")
def number_engines():
    """``{segments: engine}`` over :data:`NUMBERS`, as ``engines``."""
    trees = [parse_tree(NUMBERS, tid) for tid in range(3)]
    return {1: LPathEngine(trees[:1]), 3: LPathEngine(trees, segments=3)}


@pytest.mark.parametrize("mode", MODES, indirect=True)
@pytest.mark.parametrize("query", ["//N[@lex!=2]", "//N[.!=2]"])
def test_numeric_not_equal_golden(mode, number_engines, query):
    """XPath reads ``dog`` as NaN, and ``NaN != 2`` holds: N 4 (dog) and
    N 11 (3) pass, N 8 (2) does not, as on the tree walk."""
    _force, _kernels, _engine, tids = mode
    engine = number_engines[len(tids)]
    expected = [(tid, node_id) for tid in tids for node_id in (4, 11)]
    assert list(engine.query(query)) == expected
    assert list(TreeWalkEvaluator(engine.trees).query(query)) == expected


#: ``limit=k`` (a top-k ``Cutoff`` on every merge join) over three trees:
#: tid 0's five NPs in document order, then tid 1's first two.
LIMITED = [
    (0, "NP", 1, 2), (0, "NP", 3, 9), (0, "NP", 3, 6), (0, "NP", 7, 9),
    (0, "NP", 9, 10), (1, "NP", 1, 2), (1, "NP", 3, 9),
]


@pytest.mark.parametrize(
    "mode", [m for m in MODES if m.values[0][2] == 3], indirect=True
)
def test_limit_takes_the_first_pairs(trees, mode):
    force, _kernels, engine, _tids = mode
    query = "//S//NP"
    assert spans(trees, engine.query(query, limit=7)) == LIMITED
    explain = engine.explain(query, limit=7)
    assert "TopK[k=7]" in explain
    line = step_line(explain, "descendant::NP")
    joined = "StructuralMergeJoin(" if force == "merge" else "ColumnarJoin("
    assert line.startswith(joined), line


#: One query per merge strategy whose last step matches in every tree.
CUTOFF = {
    "sweep": "//S//NP",
    "stack": "//PP/NP/N\\ancestor::NP",
    "prefix": "//PP<--NP",
    "or-self": "//PP/NP/preceding-or-self::NP",
}


@pytest.mark.parametrize("kernels", [
    "python",
    pytest.param("native", marks=pytest.mark.skipif(
        not NATIVE, reason="cffi extension unavailable")),
])
@pytest.mark.parametrize("query", list(CUTOFF.values()), ids=list(CUTOFF))
def test_cutoff_stops_before_the_next_tree(trees, monkeypatch, kernels, query):
    """A spent ``Cutoff`` ends the join before it starts a new tree, so
    its output covers whole trees and says it was truncated."""
    monkeypatch.setenv("REPRO_FORCE_JOIN", "merge")
    monkeypatch.setenv("REPRO_KERNELS", kernels)
    plan = LPathEngine(trees).compile(query).plan
    batch: list = []
    for step in plan.steps[:-1]:
        batch = step.run(batch)
    step = plan.steps[-1]
    assert isinstance(step, MergeJoinStep)
    tids = plan.runtime.store.tid
    full = list(zip(*step.pairs(batch)))
    first_tree = [(i, j) for i, j in full if tids[j] == tids[full[0][1]]]
    assert 0 < len(first_tree) < len(full)
    cutoff = Cutoff(len(first_tree))
    assert list(zip(*step.pairs(batch, cutoff))) == first_tree
    assert cutoff.hit
    roomy = Cutoff(len(full))
    assert list(zip(*step.pairs(batch, roomy))) == full
    assert not roomy.hit


def by_binding(src, cand) -> dict:
    """``{binding: its candidates in emitted order}``."""
    grouped: dict = {}
    for i, j in zip(src, cand):
        grouped.setdefault(i, []).append(j)
    return grouped


@pytest.mark.parametrize("kernels", [
    "python",
    pytest.param("native", marks=pytest.mark.skipif(
        not NATIVE, reason="cffi extension unavailable")),
])
@pytest.mark.parametrize(
    "query, label",
    [case[1:3] for case in AXES if case[3] and " " not in case[2]],
    ids=[case[0] for case in AXES if case[3] and " " not in case[2]],
)
def test_merge_emits_the_probe_candidates_binding_by_binding(
    trees, monkeypatch, kernels, query, label
):
    """Over one batch, the merge join gives every binding the per-binding
    probe's candidates in the probe's order (the or-self row first)."""
    monkeypatch.setenv("REPRO_KERNELS", kernels)
    engine = LPathEngine(trees)
    steps = {}
    for force in ("merge", "probe"):
        monkeypatch.setenv("REPRO_FORCE_JOIN", force)
        steps[force] = engine.compile(query).plan.steps
    at = [step.label for step in steps["merge"]].index(label)
    batch: list = []
    for step in steps["merge"][:at]:
        batch = step.run(batch)
    merge, probe = steps["merge"][at], steps["probe"][at]
    assert isinstance(merge, MergeJoinStep)
    assert not isinstance(probe, MergeJoinStep)
    assert by_binding(*merge.pairs(batch)) == by_binding(*probe.pairs(batch))
