"""The compile-work budget of a cold (never-seen) query — no timing.

A segmented compile does the segment-independent work once (the
``PlanSkeleton``: join shape analysis, condition classification, native
check validation, step signatures) and per segment only *binds* it.
These tests count calls: what is per plan must not grow with the
segment count, what is per plan step per segment (the fault
checkpoints) must stay exactly that, and the environment is read a
fixed handful of times per compile however many steps and segments
there are.
"""

from __future__ import annotations

import builtins
import gc
import os
import weakref

import pytest

import repro.columnar
import repro.live
from repro import faults
from repro.columnar import executor as columnar_executor
from repro.columnar import structural
from repro.columnar.kernels import api as kernels_api
from repro.columnar.store import ColumnStore
from repro.corpus import generate_corpus
from repro.live import LiveEngineManager
from repro.lpath import LPathEngine
from repro.lpath.compiler import PlanCompiler
from repro.store import save_corpus
from repro.tree import parse_tree

QUERIES = [
    "//S//NP/NN",
    "//VP{/VB-->NN}",
    "//NP[->PP[//IN]=>VP]",
    "//S[//NP/ADJP and not(//WHPP)]//VB->NP",
    "//_[@lex=the]\\NP==>VP[//NN]",
]


@pytest.fixture(scope="module")
def trees():
    return list(generate_corpus("wsj", sentences=64, seed=5))


@pytest.fixture(scope="module")
def stores(trees, tmp_path_factory):
    """``{segments: path}`` of the same corpus saved 1-, 2- and 8-way."""
    root = tmp_path_factory.mktemp("budget")
    paths = {}
    for segments in (1, 2, 8):
        paths[segments] = str(root / f"s{segments}.lpdb")
        save_corpus(trees, paths[segments], segments=segments, format="lpdb0004")
    return paths


class Counter:
    """Counting wrappers around module/class attributes, undone on exit."""

    def __init__(self, monkeypatch):
        self.monkeypatch = monkeypatch
        self.calls: dict[str, int] = {}

    def wrap(self, owner, name, label=None):
        label = label or name
        real = getattr(owner, name)
        self.calls[label] = 0

        def counting(*args, **kwargs):
            self.calls[label] += 1
            return real(*args, **kwargs)

        self.monkeypatch.setattr(owner, name, counting)
        return self


def physical_steps(steps) -> int:
    """Steps of a bound pipeline, sub-pipelines of its selectors included."""
    total = 0
    pending = list(steps)
    while pending:
        step = pending.pop()
        if hasattr(step, "steps"):          # a semi-join
            pending.extend(step.steps)
            continue
        if hasattr(step, "parts"):          # and / or
            pending.extend(step.parts)
            continue
        if hasattr(step, "part"):           # not
            pending.append(step.part)
            continue
        if hasattr(step, "run"):
            total += 1
            pending.extend(getattr(step, "selectors", None) or step.semi)
    return total


def cold_compile_counts(path, monkeypatch) -> dict[str, int]:
    engine = LPathEngine.open(path)
    try:
        counter = Counter(monkeypatch)
        # ``merge_spec`` is reached through two names: the executor's
        # import and the optimizer's call-time import.
        counter.wrap(structural, "merge_spec", "merge_spec/optimizer")
        counter.wrap(columnar_executor, "merge_spec", "merge_spec/skeleton")
        counter.wrap(columnar_executor, "_Conditions", "classify")
        counter.wrap(columnar_executor, "_node_signature", "signatures")
        counter.wrap(columnar_executor, "classify_checks")
        counter.wrap(repro.columnar, "PlanSkeleton", "skeletons")
        counter.wrap(PlanCompiler, "compile_physical", "binds")
        for query in QUERIES:
            engine.compile(query)
        return dict(counter.calls)
    finally:
        monkeypatch.undo()
        engine.close()


def test_segment_independent_work_does_not_scale_with_segments(
    stores, monkeypatch
):
    one = cold_compile_counts(stores[1], monkeypatch)
    eight = cold_compile_counts(stores[8], monkeypatch)
    for piece in ("merge_spec/skeleton", "classify", "skeletons"):
        assert eight[piece] == one[piece] > 0, piece
    # The optimizer costs no join: only explain() annotates the IR.
    assert one["merge_spec/optimizer"] == eight["merge_spec/optimizer"] == 0
    # Native checks are validated once per plan under the native backend;
    # the pure-Python backend runs the reference loop and validates none.
    if kernels_api.active_kernels() is None:
        assert one["classify_checks"] == eight["classify_checks"] == 0
    else:
        assert eight["classify_checks"] == one["classify_checks"] > 0
    # Step signatures only exist for batch execution: none at compile.
    assert one["signatures"] == eight["signatures"] == 0
    assert one["skeletons"] == len(QUERIES)
    # What does scale is the bind, and only for segments that can match.
    assert one["binds"] == len(QUERIES)
    assert len(QUERIES) < eight["binds"] <= 8 * len(QUERIES)


def test_checkpoints_are_per_step_per_bound_segment(stores, monkeypatch):
    """Prob 0.0: every checkpoint passes and is counted, none fires."""
    engine = LPathEngine.open(stores[8])
    try:
        for seed, query in enumerate(QUERIES):
            monkeypatch.setenv(faults.FAULTS_ENV, f"mmap_read_error:0.0:{seed}")
            compiled = engine.compile(query)
            parts = [part for _index, part in compiled.bound]
            steps = sum(physical_steps(part.plan.steps) for part in parts)
            assert parts and steps >= len(parts)
            assert faults.fault_counts() == {"mmap_read_error": steps}, query
            compiled.rows()
            main_chain = sum(len(part.plan.steps) for part in parts)
            assert faults.fault_counts() == {
                "mmap_read_error": steps + main_chain
            }, query
    finally:
        engine.close()


def test_fault_env_flipped_mid_process_bites_the_next_query(
    stores, monkeypatch
):
    engine = LPathEngine.open(stores[8])
    try:
        warm = engine.compile("//S//NP")            # bound fault-free
        assert warm.count() > 0
        monkeypatch.setenv(faults.FAULTS_ENV, "mmap_read_error:1.0:3")
        with pytest.raises(OSError, match="injected fault"):
            engine.compile("//S//VP")               # bind-time checkpoint
        with pytest.raises(OSError, match="injected fault"):
            warm.count()                            # run-time checkpoint
        monkeypatch.delenv(faults.FAULTS_ENV)
        assert engine.compile("//S//VP").count() > 0
        assert warm.count() > 0
    finally:
        engine.close()


def test_a_cold_compile_reads_the_environment_four_times_at_most(
    stores, monkeypatch
):
    engine = LPathEngine.open(stores[8])
    try:
        reads = []
        real = os._Environ.__getitem__

        def counting(self, key):
            reads.append(key)
            return real(self, key)

        compiler = engine._compiler
        for query in QUERIES:
            monkeypatch.setattr(os._Environ, "__getitem__", counting)
            del reads[:]
            compiled = compiler.compile(query)
            monkeypatch.undo()
            assert len(reads) <= 4, (query, reads)
            assert sorted(set(reads)) == [
                "REPRO_FAULTS", "REPRO_FORCE_JOIN", "REPRO_KERNELS",
            ]
            bound = len(compiled.bound)
            monkeypatch.setattr(os._Environ, "__getitem__", counting)
            del reads[:]
            compiled.rows()
            monkeypatch.undo()
            # One REPRO_FAULTS read per fan-out and per bound segment.
            assert reads == ["REPRO_FAULTS"] * (1 + bound), (query, reads)
    finally:
        monkeypatch.undo()
        engine.close()


def test_a_cold_compile_executes_no_import_statement(stores, monkeypatch):
    """A function-local ``import`` costs ~1.7 us every time it runs; what
    a compile needs is bound when the module that needs it is imported."""
    engine = LPathEngine.open(stores[2])
    try:
        engine.compile("//S//NP")           # loads the kernels, if any
        imports = []
        real = builtins.__import__

        def counting(name, *args, **kwargs):
            imports.append(name)
            return real(name, *args, **kwargs)

        monkeypatch.setattr(builtins, "__import__", counting)
        compiled = engine.compile("//_[@lex=the]\\NP==>VP[//NN]")
        monkeypatch.undo()
        assert imports == []
        assert len(compiled.bound) == 2
        assert "ValueSeed" in compiled.explain()
    finally:
        monkeypatch.undo()
        engine.close()


def test_rare_word_binds_and_runs_only_where_the_word_lives(trees, stores):
    """The acceptance shape: a word held by 2 of 8 shards."""
    engine = LPathEngine.open(stores[8])
    try:
        shards = [
            segment.compiler.column_store for segment in engine._compiler.segments
        ]
        words = {}
        for index, shard in enumerate(shards):
            for word in shard.by_value:
                words.setdefault(word, set()).add(index)
        word = next(
            w for w, held in sorted(words.items())
            if len(held) == 2 and w.isalpha()
        )
        query = f"//_[@lex={word}]\\ancestor::S"
        compiled = engine.compile(query)
        assert {index for index, _part in compiled.bound} == words[word]
        assert "pruned 6 of 8" in compiled.explain()
        monolithic = LPathEngine(trees, keep_trees=False)
        assert engine.query(query) == monolithic.query(query) != []
    finally:
        engine.close()


def shard_stores(engine) -> list:
    return [segment.compiler.column_store for segment in engine._compiler.segments]


def count_seed_builds(monkeypatch) -> list:
    """The stores that build a candidate list from here on: only a miss
    in a store's seed map reads its value index."""
    builds = []
    real = ColumnStore.by_value

    def by_value(store):
        builds.append(store)
        return real.fget(store)

    monkeypatch.setattr(ColumnStore, "by_value", property(by_value))
    return builds


def test_a_resolved_literal_builds_no_candidate_list_again(stores, monkeypatch):
    engine = LPathEngine.open(stores[8])
    try:
        shards = shard_stores(engine)
        word = next(
            word for word in ("the", "of", "a")
            if all(word in shard.by_value for shard in shards)
        )
        assert engine.query(f"//_[@lex={word}]\\NP")
        entries = [dict(shard._seeds) for shard in shards]
        builds = count_seed_builds(monkeypatch)
        for query in (                  # never seen: every op misses the cache
            f"//_[@lex={word}]\\ancestor::S",
            f"//S[//_[@lex={word}]]",    # a seeded join in a predicate
            f"//VP//_[@lex={word}]",     # a seeded join on the main chain
        ):
            compiled = engine.compile(query)
            assert len(compiled.bound) == 8 and compiled.rows(), query
        assert builds == []
        # The three queries share one candidate list per shard with the first.
        assert [dict(shard._seeds) for shard in shards] == entries
    finally:
        monkeypatch.undo()
        engine.close()


def test_absent_words_add_no_seed_entry(stores, monkeypatch):
    engine = LPathEngine.open(stores[2])
    try:
        shards = shard_stores(engine)
        builds = count_seed_builds(monkeypatch)
        for index in range(20):
            compiled = engine.compile(f"//_[@lex=absent{index}]\\NP")
            assert compiled.bound == [] and compiled.rows() == []
        assert len(builds) == 20 * len(shards)  # each looked up, none kept
        assert [shard._seeds for shard in shards] == [{}, {}]
    finally:
        monkeypatch.undo()
        engine.close()


def test_a_cold_compile_costs_joins_only_in_the_binds(stores, monkeypatch):
    """The optimizer's ``choose_join`` is ``structural.choose_join`` read at
    call time; the bind's is the executor's import.  A cold compile
    reaches only the second; ``explain()`` costs the logical plan."""
    monkeypatch.delenv(structural.FORCE_ENV, raising=False)
    engine = LPathEngine.open(stores[2])
    try:
        counter = Counter(monkeypatch)
        counter.wrap(structural, "choose_join", "explain")
        counter.wrap(columnar_executor, "choose_join", "bind")
        compiled = engine.compile("//NP[->PP[//IN]=>VP]")
        assert counter.calls == {"explain": 0, "bind": 2 * 3}
        text = compiled.explain()
        assert counter.calls == {"explain": 3, "bind": 2 * 3}
        assert text.count(" est_in=") == 3
    finally:
        monkeypatch.undo()
        engine.close()


def test_a_rewritten_corpus_reopens_with_its_own_seeds(tmp_path):
    """A seed map lives and dies with its store: reopening a path whose
    corpus was rewritten answers from the new corpus, however the new
    store objects happen to be allocated."""
    path = str(tmp_path / "rewritten.lpdb")
    query = "//_[@lex=the]\\NP"
    for seed in (1, 2, 3, 4):
        trees = list(generate_corpus("wsj", sentences=20 + seed, seed=seed))
        save_corpus(trees, path, segments=2, format="lpdb0004")
        engine = LPathEngine.open(path)
        try:
            assert engine.query(query) == LPathEngine(trees).query(query)
        finally:
            engine.close()


def test_a_live_append_tier_resolves_its_own_seeds(trees, tmp_path):
    path = str(tmp_path / "live.lpdb")
    save_corpus(trees, path, segments=2, format="lpdb0005")
    manager = LiveEngineManager(path)
    try:
        query = "//_[@lex=seedword]\\NP"
        assert manager.engine.query("//_[@lex=the]\\NP")
        base = shard_stores(manager.engine)
        entries = [dict(shard._seeds) for shard in base]
        assert manager.engine.query(query) == []
        manager.append_trees("(S (NP (N seedword)) (VP (V sat)))")
        engine = manager.engine
        shards = shard_stores(engine)
        assert shards[:2] == base and len(shards) == 3
        assert engine.query(query) == [(len(trees), 2)]
        assert [shard._seeds for shard in base] == entries
        assert list(shards[2]._seeds) == [("@lex", "seedword", None)]
    finally:
        manager.close()


def logical_plan(text: str) -> str:
    return text[text.index("logical plan:"):text.index("physical plan")]


def test_a_carried_plan_lets_a_retired_tier_go(trees, tmp_path, monkeypatch):
    """A plan carried across live-corpus swaps costs its joins against
    the segments it was compiled for when it is first rebased, then
    holds no retired store, and explains with those first estimates."""
    monkeypatch.delenv(structural.FORCE_ENV, raising=False)
    monkeypatch.setattr(repro.live, "ENGINE_GRACE_SECONDS", 0.0)
    path = str(tmp_path / "live.lpdb")
    save_corpus(trees, path, segments=2, format="lpdb0005")
    manager = LiveEngineManager(path)
    query = "//NP[->PP[//IN]=>VP]"
    added = "(S (NP (DT the) (NN dog)) (VP (VBD sat) (PP (IN on) (NP (NN mats)))))"
    try:
        manager.append_trees(added)
        first = manager.engine.query(query)
        tier = weakref.ref(shard_stores(manager.engine)[-1].left)
        manager.append_trees(added)  # its tier absorbs the first one
        assert manager.engine.query(query) == first
        gc.collect()
        assert tier() is None
        manager.compact()
        engine = manager.engine
        assert engine.query(query) == first
        assert engine.plan_cache.rebased == 1
        rebased = logical_plan(engine.explain(query))
        assert rebased.count(" est_in=") == 3
        grown = trees + [parse_tree(added, tid=len(trees))]
        assert rebased == logical_plan(LPathEngine(grown, segments=3).explain(query))
        engine.plan_cache.clear()
        assert rebased != logical_plan(engine.explain(query))
    finally:
        manager.close()


def test_native_checks_are_validated_by_column_position():
    """``classify_checks`` works on column positions, so it never needs a
    store — and an unbound vector of a string column stays interpreted."""
    import operator

    assert kernels_api.classify_checks([(3, operator.gt, 0, 3)]) == [("i64", 4)]
    assert kernels_api.classify_checks([(8, operator.eq, None, 0)]) == [("u8", 0)]
    assert kernels_api.classify_checks([(6, operator.eq, None, "NP")]) is None
    assert kernels_api.classify_checks(
        [(3, operator.gt, 0, 3)], require_const=True
    ) is None
