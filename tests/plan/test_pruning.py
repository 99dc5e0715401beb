"""Statistics-based segment pruning must be invisible in the answers.

``SegmentedPlanCompiler`` does not bind a plan to a segment whose
statistics prove the result empty there: a tag (or attribute row name)
the main chain or a positive ``exists`` needs with zero rows in the
shard, or a value-seed literal its value index does not hold.  Nothing
may be pruned on the strength of a name that only occurs under
``not``/``or``/``count()``/a value comparison, behind an or-self axis or
a wildcard.

One small hand-built corpus, sharded 1/2/3/7 ways and as a live
base + delta-tier layout; for every query the engine's ``(tid, id)`` set
must equal the tree-walk reference's (computed axis by axis from the
trees, never from the labels), and ``explain()`` must report exactly the
number of pruned segments that the trees themselves imply.
"""

from __future__ import annotations

import re

import pytest

from repro import store
from repro.live import LiveEngineManager
from repro.lpath import LPathEngine
from repro.oracle import TreeWalkEvaluator
from repro.tree import iter_trees
from repro.xpath import XPathEngine

TREES = [
    "(S (NP (Det the) (N dog)) (VP (V saw) (NP (NP (Det a) (Adj old) (N man))"
    " (PP (Prep with) (NP (N today))))))",
    "(S (NP I) (VP (V ran)))",
    "(S (NP (Det the) (Adj old) (N man)) (VP (V saw) (NP (N dog)) (ADVP today)))",
    "(S (NP (N cats)) (VP (V sleep)))",
    "(SQ (V did) (NP I) (VP (V run)))",
    "(S (NP (Det a) (N man)) (VP (V ran) (ADVP fast)))",
    "(FRAG (NP (Adj old) (N dog)))",
]
CORPUS = "\n".join(f"( {tree} )" for tree in TREES)

#: ``(query, what a tree must hold for its shard to be kept)`` — a set of
#: tags and words that *all* have to occur somewhere in one shard (not
#: necessarily in one tree: statistics are per shard), or ``None`` when
#: nothing may be pruned.
CASES = [
    # a tag living in exactly one tree / in none
    ("//PP", {"PP"}),
    ("//SQ/VP", {"SQ", "VP"}),
    ("//FRAG//Adj", {"FRAG", "Adj"}),
    ("//S//PP/Prep", {"S", "PP", "Prep"}),
    ("//WHNP", {"WHNP"}),
    ("//S//WHNP", {"S", "WHNP"}),
    # parent / ancestor steps test names in a condition, not in the probe
    ("//Prep\\PP", {"Prep", "PP"}),
    ("//Adj\\ancestor::FRAG", {"Adj", "FRAG"}),
    # positive exists: bare, nested, under and
    ("//NP[//Adj]", {"NP", "Adj"}),
    ("//S[//NP[//PP]]", {"S", "NP", "PP"}),
    ("//VP[//ADVP and //NP]", {"VP", "ADVP", "NP"}),
    ("//NP[->PP[//N]]", {"NP", "PP", "N"}),
    # a word living in exactly one tree / in two / in none
    ("//_[@lex=with]", {"with"}),
    ("//_[@lex=cats]\\N", {"cats", "N"}),
    ("//_[@lex=fast]\\ancestor::VP", {"fast", "VP"}),
    ("//S[//_[@lex=today]]", {"S", "today"}),
    ("//N[@lex=dog]", {"N", "dog"}),
    ("//_[@lex=unicorn]", {"unicorn"}),
    # never prunable: absence can satisfy the predicate
    ("//NP[not(//JJ)]", {"NP"}),
    ("//NP[not(//Det)]", {"NP"}),
    ("//NP[//PP or //Adj]", {"NP"}),
    ("//NP[//WHNP or //N]", {"NP"}),
    ("//S[count(//PP)=0]", {"S"}),
    ("//S[count(//WHNP)=0]/NP", {"S", "NP"}),
    ("//NP[not(//PP) and //N]", {"NP", "N"}),
    # or-self axes: the context row itself can be the match
    ("//PP\\ancestor-or-self::PP", {"PP"}),
    ("//NP/descendant-or-self::NP", {"NP"}),
    # wildcards name nothing
    ("//_", None),
    ("//S/_", {"S"}),
    ("//_[//PP]", {"PP"}),
]


@pytest.fixture(scope="module")
def trees():
    return list(iter_trees(CORPUS))


@pytest.fixture(scope="module")
def treewalk(trees):
    return TreeWalkEvaluator(trees)


def vocabulary(tree) -> set:
    """Every tag and every word of one tree."""
    found = set()
    for node in tree.root.preorder():
        found.add(node.label)
        found.update(node.attributes.values())
    return found


def shards(engine):
    """The tid set of every segment, in segment order."""
    return [
        set(segment.compiler.columnar_runtime.store.tid_bounds)
        for segment in engine._compiler.segments
    ]


def expected_pruned(engine, trees, needs) -> int:
    if needs is None:
        return 0
    by_tid = {tree.tid: vocabulary(tree) for tree in trees}
    pruned = 0
    for tids in shards(engine):
        held = set().union(*(by_tid[tid] for tid in tids)) if tids else set()
        pruned += not needs <= held
    return pruned


def reported_pruned(text: str) -> int:
    found = re.search(r"pruned (\d+) of (\d+)", text)
    return int(found.group(1)) if found else 0


def check(engine, trees, treewalk):
    total = len(engine._compiler.segments)
    for query, needs in CASES:
        want = treewalk.query(query)
        assert engine.query(query) == want, query
        assert engine.count(query) == len(want), query
        assert engine.query(query, limit=2) == want[:2], query
        assert engine.aggregate(query) == {
            "count": len(want)
        }, query
        text = engine.explain(query)
        pruned = expected_pruned(engine, trees, needs)
        assert reported_pruned(text) == pruned, (query, text)
        assert f"x{total} segments" in text
        if pruned == total:
            assert want == [] and "no segment can hold a result" in text
        elif pruned:
            first, _part = engine.compile(query).bound[0]
            assert f"segment {first} shown" in text


@pytest.mark.parametrize("segments", [2, 3, 7])
def test_sharded_engines_prune_soundly(trees, treewalk, segments):
    engine = LPathEngine(trees, keep_trees=False, segments=segments)
    try:
        check(engine, trees, treewalk)
    finally:
        engine.close()


def test_one_segment_never_reports_pruning(trees, treewalk):
    engine = LPathEngine(trees, keep_trees=False)
    for query, _needs in CASES:
        assert engine.query(query) == treewalk.query(query), query
        assert "pruned" not in engine.explain(query)


def test_xpath_dialect_prunes_soundly(trees):
    monolithic = XPathEngine(trees)
    engine = XPathEngine(trees, segments=7)
    for query, pruned in [
        ("//PP", 6), ("//S//PP/Prep", 6), ("//NP[not(//JJ)]", 0),
        ("//S[//NP[//PP]]", 6), ("//NP[//PP or //Adj]", 0),
        # The start/end scheme has no or-self access: its or-self axes
        # probe the named partition inclusively, so the tag is required.
        ("//S[count(//PP)=0]", 2), ("//Adj\\ancestor-or-self::FRAG", 6),
        ("//_[@lex=with]", 6), ("//WHNP", 7),
    ]:
        assert engine.query(query) == monolithic.query(query), query
        assert reported_pruned(engine.explain(query)) == pruned, query


def test_mapped_store_prunes_by_sidecar_statistics(trees, treewalk, tmp_path):
    from repro.store import save_corpus

    path = str(tmp_path / "corpus.lpdb")
    save_corpus(trees, path, segments=7, format="lpdb0004")
    engine = LPathEngine.open(path)
    try:
        check(engine, trees, treewalk)
        text = engine.explain("//_[@lex=dog]")
        assert "pruned 4 of 7" in text  # "dog" lives in trees 0, 2 and 6
    finally:
        engine.close()


def test_live_base_and_delta_tiers_prune_soundly(trees, treewalk, tmp_path):
    """Trees 0-3 in two base shards, 4-5 and then 6 appended: base
    segments plus delta tiers, every plan carried and rebased across the
    swaps — a pruning verdict must survive the carry and a new tier must
    get its own."""
    path = str(tmp_path / "live.lpdb")
    store.save_corpus(trees[:4], path, segments=2, format="lpdb0005")
    manager = LiveEngineManager(path)
    try:
        for batch in ("\n".join(TREES[4:6]), TREES[6]):
            for query, _needs in CASES:
                manager.engine.query(query)     # compiled before the swap
            manager.append_trees(batch)
        engine = manager.engine
        kinds = [segment.kind for segment in engine._compiler.segments]
        assert kinds.count("base") == 2 and kinds.count("delta") >= 1
        check(engine, trees, treewalk)
        assert manager.status()["plans_rebased"] >= len(CASES)
        manager.compact()
        check(manager.engine, trees, treewalk)
    finally:
        manager.close()
