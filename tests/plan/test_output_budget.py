"""The output-path work budget of a large answer — no timing.

Beside :mod:`test_compile_budget`: that one counts what a cold compile
does, this one what happens between the last join and the caller for a
5 000-row answer on two segments.  The answer travels as packed
``ResultBatch``\\ es all the way to the caller, so: nothing builds
per-row tuples (``query()`` and ``query_batch()`` return the batch, not
a list), each non-empty segment costs one emit call, the merge runs once
— and not at all when at most one segment holds anything — and the
environment is read exactly where it was before (the ``REPRO_FAULTS``
checkpoints); the kernel bundle comes from the bind's ``Knobs``.  Runs
under whichever ``REPRO_KERNELS`` backend is active (CI runs both).
"""

from __future__ import annotations

import os

import pytest

from repro.columnar import executor as columnar_executor
from repro.columnar import result
from repro.columnar.kernels.api import NativeKernels, kernels_backend
from repro.columnar.result import ResultBatch
from repro.corpus import generate_corpus
from repro.lpath import LPathEngine
from repro.store import save_corpus

BIG = "//_"          # every element: > 5 000 rows on this corpus


@pytest.fixture(scope="module")
def store_path(tmp_path_factory):
    trees = list(generate_corpus("wsj", sentences=320, seed=5))
    path = str(tmp_path_factory.mktemp("output") / "s2.lpdb")
    save_corpus(trees, path, segments=2, format="lpdb0004")
    return path


@pytest.fixture()
def engine(store_path):
    with LPathEngine.open(store_path) as opened:
        yield opened


@pytest.fixture()
def calls(monkeypatch):
    """``{"emit": n, "merge": n}`` over the active backend's kernels
    (patched before any plan is bound, so every bind sees the counters),
    with the old per-row tuple gather rigged to fail the test."""
    counts = {"emit": 0, "merge": 0}

    def counting(real, label):
        def call(*args, **kwargs):
            counts[label] += 1
            return real(*args, **kwargs)
        return call

    if kernels_backend() == "native":
        targets = [(NativeKernels, "emit_pairs", "emit"),
                   (NativeKernels, "merge_pairs", "merge")]
    else:
        targets = [(columnar_executor, "python_emit_pairs", "emit"),
                   (result, "python_merge_pairs", "merge")]
    for owner, name, label in targets:
        monkeypatch.setattr(owner, name, counting(getattr(owner, name), label))

    def no_tuple_gather(*args, **kwargs):
        raise AssertionError("the per-row tuple gather is back")

    monkeypatch.setattr(
        columnar_executor.ColumnarPlan, "_gather", no_tuple_gather,
        raising=False,
    )
    return counts


def test_one_emit_per_segment_and_one_merge(engine, calls):
    compiled = engine.compile(BIG)
    assert len(compiled.bound) == 2
    batch = compiled.rows()
    assert isinstance(batch, ResultBatch) and len(batch) >= 5_000
    assert calls == {"emit": 2, "merge": 1}
    # count() and a page reuse the same path: one more emit per segment,
    # no merge for a count, no kernel call at all for a slice.
    assert compiled.count() == len(batch)
    assert calls == {"emit": 4, "merge": 1}
    assert len(batch[1_000:2_000]) == 1_000
    assert calls == {"emit": 4, "merge": 1}
    rows = engine.query(BIG)
    assert type(rows) is ResultBatch and rows == batch
    assert calls == {"emit": 6, "merge": 2}


def test_no_merge_when_at_most_one_segment_holds_rows(engine, calls):
    shards = [
        segment.compiler.column_store for segment in engine._compiler.segments
    ]
    word = next(
        w for w in sorted(shards[0].by_value)
        if w.isalpha() and w not in shards[1].by_value
    )
    found = engine.compile(f"//_[@lex={word}]").rows()
    assert len(found) > 0
    assert calls == {"emit": 1, "merge": 0}
    # Both segments are bound and run, but nothing reaches the end.
    empty = engine.compile("//NP[//NP//NP//NP//NP//NP//NP]")
    assert len(empty.bound) == 2 and len(empty.rows()) == 0
    assert calls == {"emit": 1, "merge": 0}


def test_top_k_goes_through_the_same_emit_and_merge(engine, calls):
    batch = engine.compile("//S//NP", limit=5).rows()
    # Each segment emits its first tree chunk(s) and stops; the merge of
    # the two five-row batches is cut at five.
    assert 2 <= calls["emit"] <= 4 and calls["merge"] == 1
    assert len(batch) == 5
    assert list(batch) == engine.query("//S//NP")[:5]


@pytest.fixture(scope="module")
def xpath_store_path(tmp_path_factory):
    from repro.store import save_mapped_stores
    from repro.xpath.engine import xpath_stores

    trees = list(generate_corpus("wsj", sentences=80, seed=5))
    path = str(tmp_path_factory.mktemp("output") / "x2.lpdb")
    with open(path, "wb") as stream:
        save_mapped_stores(xpath_stores(trees, 2), stream)
    return path


@pytest.mark.parametrize("backend", ["python", "native"])
def test_no_tuple_is_built_at_the_api_boundary(
    store_path, xpath_store_path, backend, monkeypatch
):
    """``query()`` and ``query_batch()`` hand back the packed batch: with
    the batch's tuple iterator rigged to fail, both engines still answer
    on a segmented mmap store."""
    from repro.columnar.kernels import native_kernels
    from repro.xpath import XPathEngine

    if backend == "native" and native_kernels() is None:
        pytest.skip("native kernels unavailable")
    monkeypatch.setenv("REPRO_KERNELS", backend)

    def no_tuples(self):
        raise AssertionError("a result was unpacked into tuples")

    monkeypatch.setattr(ResultBatch, "__iter__", no_tuples)
    with LPathEngine.open(store_path) as engine:
        assert len(engine._compiler.segments) == 2
        assert len(engine.query(BIG)) >= 5_000
        assert len(engine.query("//S//NP", limit=5)) == 5
        batch = engine.query_batch([BIG, "//S//NP", {"query": BIG, "limit": 3}])
        assert [len(result) for result in batch[1:]] == [
            engine.count("//S//NP"), 3]
    with XPathEngine.from_store_mmap(xpath_store_path) as engine:
        assert len(engine._compiler.segments) == 2
        assert len(engine.query("//NP")) == engine.count("//NP") > 0
        assert len(engine.query_batch(["//NP", "//S//NP"])[1]) > 0


def test_the_output_path_reads_no_environment_of_its_own(
    engine, calls, monkeypatch
):
    compiled = engine.compile(BIG)
    bound = len(compiled.bound)
    reads = []
    real = os._Environ.__getitem__

    def counting(self, key):
        reads.append(key)
        return real(self, key)

    monkeypatch.setattr(os._Environ, "__getitem__", counting)
    batch = compiled.rows()
    page = list(batch[:1_000])
    monkeypatch.setattr(os._Environ, "__getitem__", real)
    assert len(page) == 1_000
    # One REPRO_FAULTS read per fan-out and per bound segment, as before
    # the batch existed; emit, merge and slicing add none.
    assert reads == ["REPRO_FAULTS"] * (1 + bound)


# -- the row-loop budget of the Fig. 6(c) suite ------------------------------

#: ``len(engine.query(q))`` for the 23 queries on this corpus (pinned:
#: the generator is seeded).
FIG_6C_COUNTS = [
    30, 326, 489, 467, 181, 348, 90, 32, 569, 1, 0, 0,
    1, 1, 2, 0, 1, 3, 6, 9, 1, 6, 5,
]

#: What the cost model may hand to the per-binding probe join: the
#: one or two bindings of a rare-tag step (Q16, Q17), never a batch.
HANDFUL = 4


def assert_no_per_binding_loop(engine, monkeypatch, cases) -> None:
    """Warm, then for each ``(name, text, expected count)``: no per-row
    check (a ``_RowSelect``) and no per-binding value-seed probe runs, and
    the per-binding candidate filters run for a rare tag's handful of
    bindings at most.  A regression names the query that fell back."""
    for _name, text, _expected in cases:   # warm: plans bound, seeds built
        engine.query(text)

    def refuse(name):
        def call(*_args, **_kwargs):
            raise AssertionError(f"{name} reached: a per-binding loop is back")
        return call

    per_binding = {"_first_passing": 0, "_apply_filters": 0}

    def counting(name):
        real = getattr(columnar_executor, name)

        def call(*args, **kwargs):
            per_binding[name] += 1
            return real(*args, **kwargs)
        return call

    monkeypatch.setattr(
        columnar_executor._RowSelect, "select", refuse("_RowSelect.select"))
    monkeypatch.setattr(
        columnar_executor._ValueSeedProbe, "__call__",
        refuse("_ValueSeedProbe.__call__"))
    for name in per_binding:
        monkeypatch.setattr(columnar_executor, name, counting(name))
    for name, text, expected in cases:
        per_binding.update(_first_passing=0, _apply_filters=0)
        assert len(engine.query(text)) == expected, f"{name} {text}"
        assert sum(per_binding.values()) <= HANDFUL, (
            f"{name} {text} filtered candidates per binding: {per_binding}"
        )


def test_the_fig_6c_suite_runs_no_per_binding_loop(engine, monkeypatch):
    """Every large batch of the 23 queries, the value-seeded predicate
    joins of Q1, Q10 and Q11 included, goes through a structural merge
    join, and every scan materializes without a filter pass."""
    from repro.bench import QUERY_SET

    assert_no_per_binding_loop(engine, monkeypatch, [
        (f"Q{number}", query.lpath, expected)
        for number, (query, expected) in enumerate(
            zip(QUERY_SET, FIG_6C_COUNTS), 1)
    ])


#: ``count()``, value comparisons and ``position()`` beside their
#: ``exists`` twins, with ``len(engine.query(q))`` on this corpus (pinned).
PREDICATE_COUNTS = [
    ("count=0", "//VP[count(/NP)=0]", 150),
    ("count<1", "//VP[count(/NP)<1]", 150),
    ("not exists", "//VP[not(/NP)]", 150),
    ("count>0", "//NP[count(//DT)>0]", 562),
    ("exists", "//NP[//DT]", 562),
    ("value=", "//NP[/NN=company]", 83),
    ("value seed", "//NP[/NN[@lex=company]]", 83),
    ("value>", "//CD[.>1000]", 5),
    ("position", "//NP/_[position()=last()]", 798),
]


def test_predicates_run_no_per_binding_loop(engine, monkeypatch):
    """``count()``, value comparisons and ``position()`` run set-at-a-time
    like the ``exists`` twins beside them: as selectors over their
    step's whole output, never a per-row check."""
    assert_no_per_binding_loop(engine, monkeypatch, PREDICATE_COUNTS)
