"""Unit tests for the native cffi kernel layer.

Covers the mode/backend resolution contract (``REPRO_KERNELS``), the
dual-backend byte-identity of every kernel entry point (joins, scans,
k-way merge, output gather), the edge cases the C side must survive
(empty batches, single-node trees, absent names, scan-only plans), the
plan-cache keying on the resolved backend, and the raw
:meth:`ColumnStore.column_ptr` surface including released-view failure.

Every dual-backend test runs even when the extension is unavailable —
it degrades to python-vs-python, keeping the suite green on toolchains
without a C compiler (the ``needs_native`` cases skip instead).
"""

from __future__ import annotations

import heapq
import os
from array import array
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar import ColumnStore
from repro.columnar.kernels import (
    KERNEL_MODES,
    KERNELS_ENV,
    kernel_info,
    kernel_mode,
    kernels_backend,
    native_kernels,
)
from repro.columnar.kernels import api
from repro.columnar.result import ResultBatch
from repro.columnar.structural import FORCE_ENV, Cutoff
from repro.labeling.lpath_scheme import label_corpus
from repro.lpath import LPathEngine
from repro.lpath.errors import LPathError
from repro.oracle import TreeWalkEvaluator
from repro.tree import Tree, TreeNode, iter_trees

NATIVE = native_kernels() is not None

needs_native = pytest.mark.skipif(
    not NATIVE, reason="cffi extension unavailable"
)

#: Both real backends when the extension built, else python twice (the
#: identity checks still run; they just stop being cross-backend).
BACKENDS = ("python", "native") if NATIVE else ("python",)

CORPUS = """
( (S (NP (Det the) (N dog)) (VP (V saw) (NP (NP (Det a) (N man)) (PP (Prep with) (NP (N today)))))) )
( (S (NP I) (VP (V ran))) )
( (S hi) )
( (S (NP (N rice)) (VP (V grows))) )
"""

#: Shapes the kernels must get exactly right: every merge strategy,
#: scan-only plans, absent names (empty batches end to end), residual
#: row checks that force the interpreted fallback, and attribute values.
QUERIES = [
    "//S//NP",                    # sweep
    "//NP/N",                     # sweep (child, bounded)
    "//V==>NP",                   # sweep without a high bound
    "//Det\\ancestor::S",         # stack
    "//V<--NP",                   # prefix
    "//NP",                       # scan only, no join
    "//NOPE",                     # absent name: empty scan batch
    "//NOPE//NP",                 # empty outer batch into a join
    "//S//NOPE",                  # empty partition on the join side
    "//S//NP[//Det]",             # row-level residual (python fallback)
    "//N[@lex=rice]",             # attribute filter
    "//S//N[@lex=dog]",           # value-seeded candidate list: sweep
    "//N\\ancestor-or-self::_[@lex=dog]",   # ... stack
    "//V<--_[@lex=dog]",          # ... prefix
    "//S//N[@lex=zebra]",         # ... empty list
    "//S//_[@lex=dog][count(//Det)=0]",   # ... with a row-level residual
]


@contextmanager
def kernels_env(value):
    """Pin (or clear, with ``None``) the ``REPRO_KERNELS`` override."""
    previous = os.environ.get(KERNELS_ENV)
    if value is None:
        os.environ.pop(KERNELS_ENV, None)
    else:
        os.environ[KERNELS_ENV] = value
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(KERNELS_ENV, None)
        else:
            os.environ[KERNELS_ENV] = previous


@contextmanager
def forced_join(mode):
    previous = os.environ.get(FORCE_ENV)
    os.environ[FORCE_ENV] = mode
    try:
        yield
    finally:
        if previous is None:
            del os.environ[FORCE_ENV]
        else:
            os.environ[FORCE_ENV] = previous


@pytest.fixture(scope="module")
def trees():
    return list(iter_trees(CORPUS))


@pytest.fixture(scope="module")
def engine(trees):
    return LPathEngine(trees)


class TestModeResolution:
    def test_default_and_empty_mean_auto(self):
        with kernels_env(None):
            assert kernel_mode() == "auto"
        with kernels_env(""):
            assert kernel_mode() == "auto"

    def test_explicit_modes_round_trip(self):
        for mode in KERNEL_MODES:
            with kernels_env(mode):
                assert kernel_mode() == mode

    def test_invalid_value_rejected(self):
        with kernels_env("fast"):
            with pytest.raises(LPathError, match=KERNELS_ENV):
                kernel_mode()

    def test_invalid_value_rejected_through_engine(self, engine):
        with kernels_env("turbo"):
            with pytest.raises(LPathError, match=KERNELS_ENV):
                engine.query("//S//NP")

    def test_backend_resolution(self):
        with kernels_env("python"):
            assert kernels_backend() == "python"
        with kernels_env("auto"):
            assert kernels_backend() == ("native" if NATIVE else "python")

    def test_forced_native_raises_when_unavailable(self, monkeypatch):
        monkeypatch.setattr(api, "_NATIVE", None)
        monkeypatch.setattr(api, "_LOADED", True)
        monkeypatch.setattr(api, "_NATIVE_ERROR", "simulated build failure")
        with kernels_env("native"):
            with pytest.raises(LPathError, match="simulated build failure"):
                kernels_backend()
        with kernels_env("auto"):  # auto degrades instead of raising
            assert kernels_backend() == "python"

    def test_kernel_info_never_raises(self):
        info = kernel_info()
        assert set(info) == {
            "mode", "backend", "native_available", "error", "cffi",
        }
        assert info["backend"] in ("native", "python")
        assert info["native_available"] is NATIVE


class TestDualBackendIdentity:
    @pytest.mark.parametrize("query", QUERIES)
    def test_results_identical_across_backends(self, engine, query):
        expected = TreeWalkEvaluator(engine.trees).query(query)
        for backend in BACKENDS:
            with kernels_env(backend):
                for force in (None, "merge", "probe"):
                    if force is None:
                        got = engine.query(query)
                    else:
                        with forced_join(force):
                            got = engine.query(query)
                    assert got == expected, (query, backend, force)

    def test_single_node_trees(self):
        tiny = list(iter_trees("( (S hi) )\n( (X y) )"))
        engine = LPathEngine(tiny)
        for query in ("//S", "//S//NP", "//X\\ancestor::S"):
            expected = TreeWalkEvaluator(engine.trees).query(query)
            for backend in BACKENDS:
                with kernels_env(backend), forced_join("merge"):
                    got = engine.query(query)
                assert got == expected, (query, backend)

    @needs_native
    def test_explain_names_the_backend(self, engine):
        with forced_join("merge"):
            with kernels_env("native"):
                plan = engine.explain("//S//NP")
                assert "[merge/native" in plan and "kernel=native" in plan
            with kernels_env("python"):
                plan = engine.explain("//S//NP")
                assert "[merge/python" in plan and "kernel=python" in plan

    @needs_native
    def test_residual_checks_fall_back_to_python(self, engine):
        # A per-row residual (an ``or`` of column comparisons no vector
        # filter expresses) is outside the native contract; the step must
        # keep the interpreted loop even under native.
        with forced_join("merge"), kernels_env("native"):
            plan = engine.explain("//S//NP[name()=NP or name()=VP]")
            assert "kernel=python" in plan and "row=1" in plan

    @needs_native
    def test_count_value_and_position_keep_the_native_kernel(self, engine):
        # count(), value comparisons and position() are selectors over the
        # step's output, not per-row residuals: the owning step and the
        # sub-pipeline's steps stay on the kernel.
        with forced_join("merge"), kernels_env("native"):
            for query, native in (
                ("//S//NP[count(//Det)>0]", 2),
                ("//S//NP[//N=dog]", 2),
                ("//S/NP[position()=last()]", 1),
            ):
                plan = engine.explain(query)
                assert "kernel=python" not in plan, query
                assert plan.count("kernel=native") == native, query
                assert "row=1" not in plan, query

    @needs_native
    def test_exists_predicates_keep_the_native_kernel(self, engine):
        # An exists predicate is a semi-join over the step's output, not a
        # per-row residual: the owning step and the sub-pipeline's steps
        # all stay on the kernel.
        with forced_join("merge"), kernels_env("native"):
            plan = engine.explain("//S//NP[//Det]")
            assert "kernel=python" not in plan
            assert plan.count("kernel=native") == 2
            assert "first_match" in plan


def _word(label, lex):
    return TreeNode(label, attributes={"lex": lex})


def _seed_corpus():
    """``dog`` wherever a seeded candidate list can go wrong: on an NP
    whose unary chain shares its left edge with the ``N dog`` below it
    (ties, and an *ancestor* holding the literal), after and before a V,
    as an only node, and in two trees of five only; ``cat`` in none."""
    node = TreeNode
    roots = [
        node("S", children=[
            node("NP", attributes={"lex": "dog"}, children=[
                node("NP", children=[_word("N", "dog")]),
            ]),
            node("VP", children=[
                _word("V", "saw"),
                node("NP", children=[_word("Det", "the"), _word("N", "dog")]),
                node("PP", children=[_word("P", "with"), _word("N", "dog")]),
            ]),
        ]),
        node("S", children=[_word("NP", "I"), node("VP", children=[_word("V", "ran")])]),
        node("S", children=[_word("N", "dog")]),
        node("S", children=[
            node("NP", children=[_word("N", "man")]),
            node("VP", children=[_word("V", "saw")]),
        ]),
        _word("N", "dog"),
    ]
    return [Tree(root, tid=tid) for tid, root in enumerate(roots)]


def last_join(engine, query):
    """``(plan, last step, the batch the steps before it produce)``."""
    plan = engine.compile(query).plan
    batch = []
    for step in plan.steps[:-1]:
        batch = step.run(batch)
    return plan, plan.steps[-1], batch


#: ``query -> strategy`` of its last step, a value-seeded join.
SEEDED = {
    "//S//N[@lex=dog]": "sweep",
    "//S//_[@lex=dog]": "sweep",
    "//NP/_[@lex=dog]": "sweep",             # left ties on the unary chain
    "//V->_[@lex=the]": "sweep",
    "//V-->N[@lex=dog]": "sweep",
    "//Det==>_[@lex=dog]": "sweep",          # no high bound
    "//VP{//N$[@lex=dog]}": "sweep",         # scoped and right-aligned
    "//S{//N\\ancestor::_[@lex=dog]}": "sweep",   # a scope bounds the ancestors
    "//N\\ancestor::_[@lex=dog]": "stack",
    "//N\\ancestor-or-self::_[@lex=dog]": "stack",
    "//V<--_[@lex=dog]": "prefix",
    "//P<-N[@lex=dog]": "prefix",
    "//S//_[@lex=cat]": "sweep",             # the literal is nowhere
}


class TestSeededCandidateList:
    """A value-seeded merge join runs the same three kernels over the
    seed's own ``(tid, left)``-sorted row list: python == native pair
    for pair, for every strategy x ``first_match`` x ``Cutoff``."""

    @pytest.fixture(scope="class")
    def seeded(self):
        return LPathEngine(_seed_corpus())

    @pytest.mark.parametrize("query", SEEDED, ids=list(SEEDED))
    def test_pairs_identical_across_backends(self, seeded, query):
        from repro.columnar.structural import Cutoff, MergeJoinStep

        expected = TreeWalkEvaluator(seeded.trees).query(query)
        seen = {}
        for backend in BACKENDS:
            with kernels_env(backend), forced_join("merge"):
                plan, step, batch = last_join(seeded, query)
                assert isinstance(step, MergeJoinStep)
                assert str(step.access).startswith("ValueSeed")
                assert step.spec.strategy == SEEDED[query]
                assert f"kernel={backend}" in step.describe()
                store = plan.runtime.store
                for first_match in (False, True):
                    for budget in (None, 1):
                        cutoff = None if budget is None else Cutoff(budget)
                        src, cand = step.pairs(batch, cutoff, first_match)
                        got = (list(src), list(cand), cutoff and cutoff.hit)
                        if first_match:
                            assert len(set(src)) == len(src)
                        # Element rows holding the literal, never its
                        # attribute rows.
                        assert not any(store.is_attr[row] for row in cand)
                        first = seen.setdefault((first_match, budget), got)
                        assert got == first, (query, backend, first_match, budget)
                assert list(plan.execute()) == expected
            # The per-binding flavor is the oracle: same pair set.
            with kernels_env(backend), forced_join("probe"):
                _plan, probe, batch = last_join(seeded, query)
                assert not isinstance(probe, MergeJoinStep)
                src, cand = probe.pairs(batch)
                full = seen[False, None]
                assert sorted(zip(src, cand)) == sorted(zip(full[0], full[1]))
        assert expected or "cat" in query, "the corpus should exercise this shape"

    def test_limit_is_a_prefix_and_segments_lacking_the_literal_agree(self):
        trees = _seed_corpus()
        reference = TreeWalkEvaluator(trees)
        queries = list(SEEDED) + [
            "//S[not(//N[@lex=dog])]",       # never pruned: empty lists run
            "//S[//_[@lex=dog]-->_[@lex=dog]]",
        ]
        for backend in BACKENDS:
            with kernels_env(backend), forced_join("merge"):
                sharded = LPathEngine(
                    trees, keep_trees=False, segments=5
                )
                for query in queries:
                    full = reference.query(query)
                    assert sharded.query(query) == full, (query, backend)
                    for k in (1, 2):
                        assert sharded.query(query, limit=k) == full[:k]


def _wide_tree(tid):
    """60 x ``VP(VB NP(NP(NN) NP(NN)))`` under one S: name runs long
    enough that reversing one tree's bindings costs the kernels'
    insertion pass more than its 8n-shift budget."""
    node = TreeNode
    return Tree(node("S", children=[
        node("VP", children=[
            _word("VB", f"v{k}"),
            node("NP", children=[
                node("NP", children=[_word("NN", f"n{k}")]),
                node("NP", children=[_word("NN", f"m{k}")]),
            ]),
        ])
        for k in range(60)
    ]), tid=tid)


#: ``query -> strategy`` of its join; residual checks on the first two.
ORDERED = {
    "//NP=>NP": "sweep",             # keyed on right: nested spans disagree
    "//VP/NP": "sweep",              # child: a binding-resolved depth check
    "//NP//NN": "sweep",
    "//NN\\ancestor::NP": "stack",
    "//VB<--NP": "prefix",
}

#: Batch orders a join can be handed.  All but ``budget`` leave the wide
#: tree out; ``budget`` is the arrival order with the wide tree reversed.
ORDERS = ("arrival", "presorted", "shuffled", "reversed", "tids", "budget")

WIDE_TID = 8


def _keys(store, step, batch):
    """Each binding's ``(tid, key)``: what the kernels sort by."""
    spec = step.spec
    key_slot, key = spec.low if spec.strategy == "sweep" else spec.high
    column = store.col(key)
    return list(zip(
        map(store.tid.__getitem__, batch[spec.tid_slot]),
        map(column.__getitem__, batch[key_slot]),
    ))


def _order(keys, order, rng):
    """Binding indexes of the batch, in ``order``."""
    runs = {}
    for i, (tid, _key) in enumerate(keys):
        runs.setdefault(tid, []).append(i)
    wide = runs.pop(WIDE_TID)
    if order == "budget":
        runs[WIDE_TID] = wide[::-1]
    groups = [runs[tid] for tid in sorted(runs)]
    if order == "presorted":
        return sorted((i for run in groups for i in run), key=keys.__getitem__)
    for run in groups:
        if order == "shuffled":
            rng.shuffle(run)
        elif order == "reversed":
            run.reverse()
    if order == "tids":
        rng.shuffle(groups)
    return [i for run in groups for i in run]


def _permuted(batch, perm):
    return [array("q", map(column.__getitem__, perm)) for column in batch]


def _shifts(keys, perm):
    """The records an insertion pass over ``perm`` moves (its inversions:
    ties keep their position order, as the ``idx`` tiebreak does)."""
    ordered = [keys[i] for i in perm]
    return sum(
        ordered[a] > ordered[b]
        for a in range(len(ordered)) for b in range(a + 1, len(ordered))
    )


class TestBindingOrder:
    """Axis by axis, node id by node id: whatever order a batch arrives
    in, the native kernels emit the Python twins' ``(src, cand)`` arrays
    byte for byte — the one-pass insertion sort, and its ``qsort``
    fallback once a tree's disorder spends the 8n budget, order bindings
    exactly as Timsort over ``(tid, key, idx)`` does."""

    @pytest.fixture(scope="class")
    def joins(self):
        """``query -> (binding keys, {backend: (join step, its batch)})``."""
        from repro.corpus import generate_corpus

        trees = (
            generate_corpus("wsj", sentences=WIDE_TID, seed=3)
            + [_wide_tree(WIDE_TID)]
            + generate_corpus("wsj", sentences=8, seed=4, start_tid=WIDE_TID + 1)
        )
        engine = LPathEngine(trees, keep_trees=False)
        joins = {}
        for query, strategy in ORDERED.items():
            steps = {}
            for backend in BACKENDS:
                with kernels_env(backend), forced_join("merge"):
                    plan, step, batch = last_join(engine, query)
                assert step.spec.strategy == strategy
                assert f"kernel={backend}" in step.describe()
                steps[backend] = (step, batch)
            keys = _keys(plan.runtime.store, step, batch)
            joins[query] = keys, steps
            # Every shape matches outside the wide tree; reversed trees
            # stay inside the insertion pass's budget, the reversed wide
            # tree alone out-spends it.
            assert len(step.pairs(_permuted(batch, _order(keys, "arrival", None)))[0])
            for order, over in (("reversed", False), ("budget", True)):
                perm = _order(keys, order, None)
                assert (_shifts(keys, perm) > 8 * len(perm)) is over, (query, order)
        return joins

    @given(
        query=st.sampled_from(sorted(ORDERED)),
        first_match=st.booleans(),
        budget=st.sampled_from([None, 1, 25]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_native_pairs_equal_the_twin_in_any_order(
        self, joins, query, first_match, budget, seed
    ):
        import random

        keys, steps = joins[query]
        for order in ORDERS:
            perm = _order(keys, order, random.Random(seed))
            _step, batch = steps[BACKENDS[0]]
            permuted = _permuted(batch, perm)
            seen = []
            for step, _batch in steps.values():
                cutoff = None if budget is None else Cutoff(budget)
                src, cand = step.pairs(permuted, cutoff, first_match)
                seen.append((
                    array("q", src).tobytes(), array("q", cand).tobytes(),
                    cutoff and cutoff.hit,
                ))
            assert seen[-1] == seen[0], (query, order, first_match, budget)


class TestStaleArtifact:
    @pytest.mark.parametrize("stale", ["abi", "digest"])
    def test_a_stale_artifact_is_rebuilt_not_called(self, monkeypatch, stale):
        """A ``_native`` left by an older checkout lacks kernels, takes
        other argument lists (ABI 5 added the page encoder, ABI 7 the
        store build's argsort and run-start scan) or runs other code
        behind the same ones (ABI 6 sorts bindings in one pass):
        ``_load`` must build a fresh one instead of binding the stale
        functions, whichever of the two stamps differs."""
        import sys
        from types import SimpleNamespace

        from repro.columnar import kernels
        from repro.columnar.kernels.build import KERNEL_ABI, KERNEL_DIGEST

        assert KERNEL_ABI == 7

        def stale_call(*_args):
            raise AssertionError("a stale kernel was called")

        def artifact(abi, digest, call):
            lib = SimpleNamespace(
                REPRO_KERNEL_ABI=abi, REPRO_KERNEL_DIGEST=digest,
                repro_gather=call, repro_distinct=call, repro_sweep_join=call,
            )
            return SimpleNamespace(ffi=SimpleNamespace(), lib=lib)

        if stale == "abi":
            old = artifact(KERNEL_ABI - 1, KERNEL_DIGEST, stale_call)
        else:
            old = artifact(KERNEL_ABI, KERNEL_DIGEST ^ 1, stale_call)
        fresh = artifact(KERNEL_ABI, KERNEL_DIGEST, lambda *_args: 0)
        builds = []
        monkeypatch.setattr(kernels, "_native", old, raising=False)
        monkeypatch.setitem(sys.modules, kernels.__name__ + "._native", old)
        monkeypatch.setattr(api, "_build", lambda: builds.append(1) or fresh)
        loaded = api._load()
        assert builds == [1] and loaded.lib is fresh.lib
        # An artifact of the current ABI and source is used as found.
        monkeypatch.setattr(kernels, "_native", fresh, raising=False)
        monkeypatch.setitem(sys.modules, kernels.__name__ + "._native", fresh)
        assert api._load().lib is fresh.lib and builds == [1]

    @needs_native
    def test_the_loaded_kernels_were_built_from_this_source(self):
        from repro.columnar.kernels.build import KERNEL_ABI, KERNEL_DIGEST

        with kernels_env("native"):
            lib = api.active_kernels().lib
        assert lib.REPRO_KERNEL_ABI == KERNEL_ABI
        assert lib.REPRO_KERNEL_DIGEST == KERNEL_DIGEST


class TestPlanCacheKey:
    def test_kernels_backend_keys_the_plan_cache(self, engine):
        with kernels_env("python"):
            python_plan = engine.compile("//S//V")
        with kernels_env("auto"):
            auto_plan = engine.compile("//S//V")
        if NATIVE:
            # Resolved backends differ, so the cache must miss.
            assert python_plan is not auto_plan
        else:
            # Both resolve to python: one entry serves both spellings.
            assert python_plan is auto_plan


class TestMergePacked:
    @staticmethod
    def _pack(pairs):
        flat = array("q")
        for pair in pairs:
            flat.extend(pair)
        return flat.tobytes()

    def _heap_reference(self, blobs):
        unpacked = []
        for blob in blobs:
            values = array("q")
            values.frombytes(blob)
            unpacked.append(
                [(values[i], values[i + 1]) for i in range(0, len(values), 2)]
            )
        return list(heapq.merge(*unpacked))

    @staticmethod
    def _merge(blobs, mode):
        with kernels_env(mode):
            kern = api.active_kernels()
        return list(ResultBatch.merge(map(ResultBatch.frombytes, blobs), kern))

    @needs_native
    def test_matches_heapq_merge(self):
        blobs = [
            self._pack([(1, 5), (2, 9), (7, 0)]),
            self._pack([(0, 3), (2, 1), (2, 9)]),
            self._pack([]),
            self._pack([(2, 9)]),
        ]
        assert self._merge(blobs, "native") == self._heap_reference(blobs)

    @needs_native
    def test_empty_inputs(self):
        assert self._merge([], "native") == []
        assert self._merge([self._pack([])], "native") == []

    def test_python_backend_merges_with_the_twin(self):
        blobs = [self._pack([(1, 2), (4, 0)]), self._pack([(3, 9)])]
        assert self._merge(blobs, "python") == self._heap_reference(blobs)

    @needs_native
    def test_negative_and_large_values(self):
        blobs = [
            self._pack([(-(1 << 40), 1), (1 << 40, -2)]),
            self._pack([(-(1 << 40), 0)]),
        ]
        assert self._merge(blobs, "native") == self._heap_reference(blobs)


class TestColumnPtr:
    @pytest.fixture(scope="class")
    def store(self, trees):
        return ColumnStore.from_rows(label_corpus(trees))

    @needs_native
    def test_integer_columns_expose_raw_pointers(self, store):
        for position in range(6):  # tid, left, right, depth, id, pid
            pointer, length = store.column_ptr(position)
            assert length == store.n
            column = store.col(position)
            assert [pointer[i] for i in range(length)] == list(column)

    @needs_native
    def test_string_columns_rejected(self, store):
        for position in (6, 7):  # names, values
            with pytest.raises(TypeError):
                store.column_ptr(position)

    def test_unavailable_extension_raises_runtime_error(
        self, store, monkeypatch
    ):
        monkeypatch.setattr(api, "_NATIVE", None)
        monkeypatch.setattr(api, "_LOADED", True)
        monkeypatch.setattr(api, "_NATIVE_ERROR", "no compiler")
        with pytest.raises(RuntimeError, match="no compiler"):
            store.column_ptr(0)

    @needs_native
    def test_released_view_raises_value_error(self):
        view = memoryview(array("q", [1, 2, 3]))
        view.release()
        with pytest.raises(ValueError):
            api.column_pointer(view, 3)

    @needs_native
    def test_mmap_store_views_fail_loudly_after_close(self, trees, tmp_path):
        from repro import store as store_module
        from repro.columnar.store import ColumnStore

        path = str(tmp_path / "corpus.lpdb")
        store_module.save_corpus(trees, path)
        corpus = store_module.open_mapped_corpus(path)
        mapped = ColumnStore.adopt(corpus.segments[0])
        pointer, length = mapped.column_ptr(0)
        assert length == mapped.n
        del pointer  # column_ptr pins the view; release before close
        corpus.close()
        with pytest.raises(ValueError):
            mapped.column_ptr(0)


def _nest(depth, core):
    """``core`` under ``depth`` nested ``Y[@lex=w]`` nodes."""
    for _ in range(depth):
        core = [TreeNode("Y", children=core, attributes={"lex": "w"})]
    return core


def _binding_tree(tid, shape):
    """An S holding ``X`` bindings and, for ``shape = (before, ancestors,
    inside, after, xs)``, ``Y[@lex=w]`` candidates on every side of them:
    leaves before, nested ancestors, children inside each of the ``xs``
    X nodes, leaves after.  All zero is a binding tree whose partition is
    empty."""
    before, ancestors, inside, after, xs = shape
    xs_nodes = [
        TreeNode("X", children=[_word("Y", "w") for _ in range(inside)])
        for _ in range(xs)
    ]
    return Tree(TreeNode("S", children=(
        [_word("Y", "w") for _ in range(before)]
        + _nest(ancestors, xs_nodes)
        + [_word("Y", "w") for _ in range(after)]
    )), tid=tid)


@st.composite
def partition_corpora(draw):
    """Binding trees (those holding an ``X``) with runs of candidate-only
    trees (one ``Y[@lex=w]`` row each, so a run of g trees is g positions
    of the candidate list) before, between and after them: runs of 0, 1,
    2, 3, 2^k - 1, 2^k and 2^k + 1 trees, the edges of the galloping
    probes.  Partitions may be empty, run to the end of the block (no
    trailing run), or be the block's only tree."""
    k = draw(st.integers(2, 5))
    gaps = st.sampled_from([0, 1, 2, 3, 2**k - 1, 2**k, 2**k + 1])
    shapes = st.tuples(
        st.integers(0, 2), st.integers(0, 2), st.integers(0, 2),
        st.integers(0, 2), st.integers(1, 2),
    )
    runs = [draw(gaps)]
    for shape in draw(st.lists(shapes, min_size=1, max_size=4)):
        runs += [shape, draw(gaps)]
    trees = []
    for run in runs:
        if isinstance(run, tuple):
            trees.append(_binding_tree(len(trees), run))
        else:
            trees += [
                Tree(TreeNode("S", children=[_word("Y", "w")]), tid=len(trees) + g)
                for g in range(run)
            ]
    return trees


#: ``axis -> (query, strategy of its join)``, each over a name block and
#: over a value seed's row list.
PARTITION_AXES = {
    "descendant": ("//X//Y", "sweep"),
    "child": ("//X/Y", "sweep"),
    "following": ("//X-->Y", "sweep"),
    "ancestor": ("//X\\ancestor::Y", "stack"),
    "preceding": ("//X<--Y", "prefix"),
    "seeded-descendant": ("//X//_[@lex=w]", "sweep"),
    "seeded-ancestor": ("//X\\ancestor::_[@lex=w]", "stack"),
    "seeded-preceding": ("//X<--_[@lex=w]", "prefix"),
}

#: CI replays the same examples every run; a local run draws fresh ones.
partition_settings = settings(
    max_examples=30, deadline=None, derandomize=bool(os.environ.get("CI")),
)


def _node_pairs(store, batch, src, cand):
    """``(binding (tid, id), candidate (tid, id))`` per emitted pair."""
    rows = batch[0]
    node = lambda row: (store.tid[row], store.id[row])
    return [(node(rows[i]), node(row)) for i, row in zip(src, cand)]


class TestPartitionWalk:
    """Axis by axis, node id by node id: the kernels find each tree's
    partition by galloping from the previous tree's end.  Whatever the
    runs of candidate-only trees between binding trees, the native
    ``(src, cand)`` bytes equal the Python twin's, which reads the store's
    per-tree bounds, under ``first_match``, a ``Cutoff`` and shuffled
    bindings, and the query answers what the tree walker does."""

    @needs_native
    @pytest.mark.parametrize("axis", PARTITION_AXES)
    @partition_settings
    @given(
        trees=partition_corpora(),
        first_match=st.booleans(),
        budget=st.sampled_from([None, 1, 3]),
        seed=st.integers(0, 2**16),
    )
    def test_native_pairs_equal_the_twin(
        self, axis, trees, first_match, budget, seed
    ):
        import random

        from repro.columnar.structural import MergeJoinStep

        query, strategy = PARTITION_AXES[axis]
        engine = LPathEngine(trees)
        steps = {}
        for backend in ("python", "native"):
            with kernels_env(backend), forced_join("merge"):
                plan, step, batch = last_join(engine, query)
                assert isinstance(step, MergeJoinStep)
                assert step.spec.strategy == strategy
                assert f"kernel={backend}" in step.describe()
                steps[backend] = step
                if backend == "native":
                    got = list(plan.execute())
        assert got == list(TreeWalkEvaluator(engine.trees).query(query)), axis
        if not batch:
            return
        perm = list(range(len(batch[0])))
        random.Random(seed).shuffle(perm)
        store = plan.runtime.store
        for order in (None, perm):
            bindings = batch if order is None else _permuted(batch, order)
            seen = {}
            for backend, step in steps.items():
                cutoff = None if budget is None else Cutoff(budget)
                src, cand = step.pairs(bindings, cutoff, first_match)
                seen[backend] = (
                    array("q", src).tobytes(), array("q", cand).tobytes(),
                    cutoff and cutoff.hit,
                    _node_pairs(store, bindings, src, cand),
                )
            assert seen["native"] == seen["python"], (
                axis, first_match, budget, seen["native"][3], seen["python"][3],
            )


#: Values on both sides of every comparison, the int64 extremes included:
#: a sign taken by subtracting them would overflow.
EDGE_VALUES = (
    api._INT64_MIN, api._INT64_MIN + 1, -1, 0, 1,
    api._INT64_MAX - 1, api._INT64_MAX,
)

#: ``repro_check_t.op`` -> the operator it must agree with; 6 is no op.
OPERATORS = {op: opf for opf, op in api.OPCODES.items()}


def _sweep_matches(kern, values, op, rhs):
    """The candidates of ``values`` that one sweep binding keeps under one
    binding-resolved check ``values[j] <op> rhs``: a single tree whose
    partition is every position, no span bound left to cut it."""
    ffi, lib = kern.ffi, kern.lib
    n = len(values)
    zero = array("q", [0])
    checks, keep = kern.pack_checks(
        [api.CheckSpec(values, "i64", op, 0, array("q", [rhs]))], [zero]
    )
    src, cand, truncated = (
        ffi.new("int64_t **"), ffi.new("int64_t **"), ffi.new("int32_t *")
    )
    i64 = kern.i64
    matched = lib.repro_sweep_join(
        i64(array("q", [0] * n)), i64(array("q", range(n))), ffi.NULL, 0, n,
        i64(zero), i64(zero), 1, i64(zero), 1, ffi.NULL, ffi.NULL, 0,
        checks, 1, 0, -1, truncated, src, cand,
    )
    try:
        return list(ffi.unpack(cand[0], matched)) if matched else []
    finally:
        lib.repro_free(src[0])
        lib.repro_free(cand[0])
        del keep


class TestComparisonEdges:
    """Every opcode, and one past them, against values below, equal to and
    above the right-hand side, through the scan filter (an inline
    constant) and a sweep check (a per-binding lookup): ``operator``'s
    answer exactly, and opcode 6 never passes."""

    @needs_native
    @pytest.mark.parametrize("op", range(7))
    def test_compare_agrees_with_operator(self, op):
        kern = native_kernels()
        values = array("q", EDGE_VALUES)
        for rhs in EDGE_VALUES:
            opf = OPERATORS.get(op)
            expected = [
                j for j, v in enumerate(values) if opf is not None and opf(v, rhs)
            ]
            spec = api.CheckSpec(values, "i64", op, None, rhs)
            scanned = api.NativeRangeFilter(kern, [spec]).run(0, len(values))
            assert list(scanned) == expected, (op, rhs)
            assert _sweep_matches(kern, values, op, rhs) == expected, (op, rhs)
