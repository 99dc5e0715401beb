"""The packed result representation, from emit to page.

``ResultBatch`` is the only thing that travels from the executor to the
wire, so everything a list of tuples used to guarantee is pinned here on
the packed form: the native ``emit``/``merge`` kernels equal their
pure-Python twins equal the obvious ``sorted(set(...))`` /
``heapq.merge`` references — id by id, over duplicate-heavy, pre-sorted,
empty and single-part inputs — the native JSON encoder equals its twin
equals ``json.dumps`` over the whole int64 range and stays inside its
buffer, slices tile the full answer, bytes round trip, the integrity
digest sees every single-id flip, a batch outlives the mmap it was
gathered from, and top-k / ``query_batch`` / the aggregates agree with
the plain query.  ``engine.query()`` returns the batch itself, so its
sequence contract — length, iteration, truth, indexing, unit-step
slices, equality with the list in both directions — is checked pair by
pair against that list, and its lifetime across ``close()`` and a live
engine swap.  ``REPRO_FUZZ_EXAMPLES`` scales
the hypothesis examples (the nightly job runs it at 400).
"""

from __future__ import annotations

import heapq
import json
import os
from array import array
from collections import Counter
from collections.abc import Sequence

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from repro import store
from repro.columnar.kernels import native_kernels
from repro.columnar.result import (
    EMPTY,
    ResultBatch,
    python_emit_pairs,
    python_encode_pairs,
    python_merge_pairs,
)
from repro.corpus import generate_corpus
from repro.lpath import LPathEngine
from repro.oracle import TreeWalkEvaluator
from repro.serve.cache import rows_digest
from tests.batches import batch_of

FUZZ_EXAMPLES = int(os.environ.get("REPRO_FUZZ_EXAMPLES", "25"))
NATIVE = native_kernels()

#: ``(name, emit, merge)`` per available backend.
BACKENDS = [("python", python_emit_pairs, python_merge_pairs)]
if NATIVE is not None:
    BACKENDS.append(("native", NATIVE.emit_pairs, NATIVE.merge_pairs))

values = st.integers(min_value=-(1 << 62), max_value=1 << 62)
small = st.integers(min_value=0, max_value=6)   # collisions on purpose


@st.composite
def columns_and_rows(draw):
    """``(tids, ids, rows)``: two store columns and a result slot's row
    ids over them — few distinct values, so duplicates dominate; sorted
    on a coin flip, so the already-ordered path runs too."""
    size = draw(st.integers(min_value=1, max_value=40))
    cell = draw(st.sampled_from([small, values]))
    tids = draw(st.lists(cell, min_size=size, max_size=size))
    ids = draw(st.lists(cell, min_size=size, max_size=size))
    rows = draw(st.lists(st.integers(0, size - 1), max_size=120))
    if draw(st.booleans()):
        rows.sort(key=lambda row: (tids[row], ids[row]))
    return array("q", tids), array("q", ids), array("q", rows)


def pairs_of(packed: array) -> list[tuple[int, int]]:
    return [(packed[i], packed[i + 1]) for i in range(0, len(packed), 2)]


class TestEmit:
    @given(columns_and_rows())
    @settings(max_examples=4 * FUZZ_EXAMPLES, deadline=None)
    def test_every_backend_equals_sorted_set(self, drawn):
        tids, ids, rows = drawn
        expected = sorted({(tids[row], ids[row]) for row in rows})
        for name, emit, _merge in BACKENDS:
            got = emit(tids, ids, rows)
            assert isinstance(got, array) and got.typecode == "q", name
            assert pairs_of(got) == expected, name

    @pytest.mark.parametrize("size", [5_000, 40_000])
    def test_reversed_input_takes_the_general_sort(self, size):
        # Far from ordered: the native insertion pass gives up and the
        # general sort finishes; same answer as the twin.
        tids = array("q", range(size))
        ids = array("q", (7 * n % 11 for n in range(size)))
        rows = array("q", reversed(range(size)))
        expected = python_emit_pairs(tids, ids, rows)
        assert pairs_of(expected) == [(n, 7 * n % 11) for n in range(size)]
        for name, emit, _merge in BACKENDS:
            assert emit(tids, ids, rows) == expected, name


class TestMerge:
    @given(st.lists(st.lists(st.tuples(small | values, small | values),
                             max_size=30), min_size=2, max_size=5))
    @settings(max_examples=4 * FUZZ_EXAMPLES, deadline=None)
    def test_every_backend_equals_heapq_merge(self, drawn):
        parts = [sorted(part) for part in drawn]
        expected = list(heapq.merge(*parts))
        batches = [batch_of(part) for part in parts]
        held = [batch.pairs for batch in batches if batch.pairs]
        for name, _emit, merge in BACKENDS:
            if held:  # the kernels themselves only ever see non-empty parts
                assert pairs_of(merge(held)) == expected, name
            kern = NATIVE if name == "native" else None
            assert list(ResultBatch.merge(batches, kern)) == expected, name

    def test_at_most_one_non_empty_part_is_not_merged(self):
        only = batch_of([(1, 2), (3, 4)])
        assert ResultBatch.merge([EMPTY, only, batch_of([])]) is only
        assert ResultBatch.merge([only]) is only
        assert len(ResultBatch.merge([])) == 0
        assert len(ResultBatch.merge([EMPTY, EMPTY])) == 0


INT64_MIN, INT64_MAX = -(1 << 63), (1 << 63) - 1
int64 = st.integers(INT64_MIN, INT64_MAX) | st.sampled_from(
    [0, -1, INT64_MAX, -INT64_MAX, INT64_MIN])


class TestEncode:
    @given(st.lists(st.tuples(int64, int64), max_size=40))
    @example([])
    @example([(3, 14)])
    @example([(3, 14), (3, 27)])
    @example([(-7, -1), (INT64_MIN, INT64_MAX), (-INT64_MAX, INT64_MIN)])
    @settings(max_examples=4 * FUZZ_EXAMPLES, deadline=None)
    def test_every_backend_equals_json_dumps(self, rows):
        batch = batch_of(rows)
        expected = json.dumps([list(pair) for pair in rows]).encode()
        assert python_encode_pairs(batch.pairs) == expected
        assert batch.encode() == expected
        if NATIVE is not None:
            assert NATIVE.encode_pairs(batch.pairs) == expected
            assert batch.encode(NATIVE) == expected

    @pytest.mark.skipif(NATIVE is None, reason="native kernels unavailable")
    @pytest.mark.parametrize("count", [0, 1, 2, 257])
    def test_the_kernel_stays_inside_its_buffer(self, count):
        # Every value at its widest: 20 characters, twice a pair.
        pairs = array("q", [INT64_MIN] * (2 * count))
        room = 2 + 46 * count
        out = bytearray(b"\xaa" * (room + 64))
        written = NATIVE.lib.repro_encode_pairs(
            NATIVE.i64(pairs), count,
            NATIVE.ffi.from_buffer("char[]", out, require_writable=True),
        )
        assert written == max(2, 46 * count) <= room
        assert bytes(out[:written]) == python_encode_pairs(pairs)
        assert out[written:] == b"\xaa" * (room + 64 - written)


class TestBatchSurface:
    @given(st.lists(st.tuples(values, values), max_size=60, unique=True),
           st.integers(min_value=1, max_value=17))
    @settings(max_examples=2 * FUZZ_EXAMPLES, deadline=None)
    def test_pages_tile_the_full_list(self, rows, page):
        rows.sort()
        batch = batch_of(rows)
        assert len(batch) == len(rows) and list(batch) == rows
        tiled = []
        for offset in range(0, len(rows) + page, page):
            window = batch[offset:offset + page]
            assert list(window) == rows[offset:offset + page]
            tiled.extend(window)
        assert tiled == rows
        assert list(batch[:3]) == rows[:3]              # a top-k
        assert list(batch[len(rows) + 5:]) == []        # past the end

    @given(st.lists(st.tuples(values, values), max_size=40))
    @settings(max_examples=FUZZ_EXAMPLES, deadline=None)
    def test_bytes_round_trip(self, rows):
        batch = batch_of(rows)
        blob = batch.tobytes()
        assert len(blob) == 16 * len(rows)
        assert ResultBatch.frombytes(blob) == batch
        assert list(ResultBatch.frombytes(blob)) == rows

    @given(st.lists(st.tuples(values, values), min_size=1, max_size=40),
           st.data())
    @settings(max_examples=2 * FUZZ_EXAMPLES, deadline=None)
    def test_digest_sees_every_single_id_flip(self, rows, data):
        batch = batch_of(rows)
        digest = rows_digest(batch)
        assert rows_digest(batch_of(rows)) == digest
        position = data.draw(st.integers(0, 2 * len(rows) - 1))
        flipped = array("q", batch.pairs)
        flipped[position] = -1 - flipped[position]
        assert rows_digest(ResultBatch(flipped)) != digest
        assert rows_digest(batch) == digest             # the copy was flipped


@pytest.fixture(scope="module")
def trees():
    return list(generate_corpus("wsj", sentences=60, seed=9))


@pytest.fixture(scope="module")
def store_path(trees, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("batch") / "c.lpdb")
    store.save_corpus(trees, path, segments=2, format="lpdb0004")
    return path


QUERIES = ["//NP", "//S//VP//NN", "//NP[not(//JJ)]", "//VB->NP", "//NOPE"]


class TestThroughTheEngine:
    def test_a_batch_owns_its_memory(self, trees, store_path):
        """Results stay readable after the mmap they were gathered from
        is gone, and holding them never blocks ``close()``."""
        oracle = TreeWalkEvaluator(trees)
        engine = LPathEngine.open(store_path)
        held = {query: engine.compile(query).rows() for query in QUERIES}
        limited = engine.compile("//NP", limit=7).rows()
        engine.close()                                  # no BufferError
        for query, batch in held.items():
            assert isinstance(batch, ResultBatch)
            assert list(batch) == oracle.query(query)
        assert list(limited) == oracle.query("//NP")[:7]

    def test_backends_return_byte_identical_batches(
        self, store_path, monkeypatch
    ):
        blobs = {}
        for backend in ("python",) + (("native",) if NATIVE else ()):
            monkeypatch.setenv("REPRO_KERNELS", backend)
            with LPathEngine.open(store_path) as engine:
                blobs[backend] = [
                    engine.compile(query).rows().tobytes() for query in QUERIES
                ]
        assert len(set(map(tuple, blobs.values()))) == 1

    @pytest.mark.parametrize("segments", [1, 3])
    def test_top_k_batch_and_aggregates_agree_with_query(self, trees, segments):
        oracle = TreeWalkEvaluator(trees)
        engine = LPathEngine(
            trees, keep_trees=False, segments=segments
        )
        for query in QUERIES:
            full = oracle.query(query)
            assert engine.query(query) == full
            assert engine.count(query) == len(full)
            for k in (0, 1, 5, len(full) + 3):
                assert engine.query(query, limit=k) == full[:k]
            nodes = oracle.nodes(query)
            assert engine.aggregate(query, "count_by_name") == dict(
                Counter(node.label for node in nodes))
            assert engine.aggregate(query, "count_by_depth") == dict(
                Counter(node.depth for node in nodes))
        entries = QUERIES + [
            {"query": "//NP", "limit": 4}, {"query": "//NP", "agg": "count"},
        ]
        results = engine.query_batch(entries)
        assert results[:len(QUERIES)] == [engine.query(q) for q in QUERIES]
        assert results[-2] == engine.query("//NP", limit=4)
        assert results[-1] == {"count": engine.count("//NP")}
        assert all(
            isinstance(row, tuple) for rows in results[:-1] for row in rows
        )


sorted_pairs = st.lists(
    st.tuples(small | values, small | values), max_size=40, unique=True
).map(sorted)
bounds = st.none() | st.integers(min_value=-50, max_value=50)


class TestBatchContract:
    """The public result type, pair by pair against the list it stands
    for: whatever a caller does with ``engine.query(q)`` it may do with
    the list of the same tuples and get the same answer — or, for a
    stepped slice, a clear refusal instead of a wrong one."""

    @given(sorted_pairs, st.data())
    @settings(max_examples=4 * FUZZ_EXAMPLES, deadline=None)
    def test_a_batch_behaves_as_its_list(self, rows, data):
        batch = batch_of(rows)
        assert isinstance(batch, Sequence)
        assert len(batch) == len(rows) and bool(batch) is bool(rows)
        assert list(batch) == rows and list(reversed(batch)) == rows[::-1]
        for index in range(-len(rows), len(rows)):
            assert batch[index] == rows[index]
            assert type(batch[index]) is tuple
        for index in (len(rows), -len(rows) - 1):
            with pytest.raises(IndexError):
                batch[index]
        start, stop = data.draw(bounds), data.draw(bounds)
        for step in (None, 1):
            window = batch[start:stop:step]
            assert type(window) is ResultBatch
            assert window == rows[start:stop] and rows[start:stop] == window
        if rows:
            assert rows[0] in batch and batch.index(rows[-1]) == len(rows) - 1

    @given(sorted_pairs, st.sampled_from([2, 3, -1, -2]))
    @settings(max_examples=FUZZ_EXAMPLES, deadline=None)
    def test_a_stepped_slice_is_refused_not_wrong(self, rows, step):
        batch = batch_of(rows)
        with pytest.raises(ValueError, match=r"list\(batch\)"):
            batch[::step]
        assert list(batch)[::step] == rows[::step]

    @given(sorted_pairs)
    @settings(max_examples=2 * FUZZ_EXAMPLES, deadline=None)
    def test_equality_with_a_list_in_both_directions(self, rows):
        batch = batch_of(rows)
        assert batch == rows and rows == batch
        assert not batch != rows and not rows != batch
        assert batch == batch_of(rows)
        longer = rows + [(1 << 62, 1 << 62)]
        assert batch != longer and longer != batch
        if rows:
            assert batch != rows[1:] and rows[:-1] != batch
            assert batch != [list(pair) for pair in rows]  # lists, not tuples
        assert batch != tuple(rows)

    def test_unhashable_with_a_readable_repr(self):
        batch = batch_of([(1, 2), (3, 4)])
        with pytest.raises(TypeError):
            hash(batch)
        assert repr(batch) == "ResultBatch([(1, 2), (3, 4)])"
        assert repr(EMPTY) == "ResultBatch([])"


class TestBatchLifetime:
    def test_query_results_outlive_a_closed_mmap_engine(self, trees, store_path):
        oracle = TreeWalkEvaluator(trees)
        engine = LPathEngine.open(store_path)
        assert len(engine._compiler.segments) == 2
        held = {query: engine.query(query) for query in QUERIES}
        engine.close()
        for query, batch in held.items():
            assert batch == oracle.query(query)

    def test_a_live_result_outlives_the_engine_swap(self, trees, tmp_path):
        from repro.live import LiveEngineManager
        from repro.tree.bracket import format_tree

        path = str(tmp_path / "live.lpdb")
        store.save_corpus(trees[:30], path, format="lpdb0005")
        manager = LiveEngineManager(path, compact_rows=0)
        try:
            before = manager.engine
            held = before.query("//NP")
            snapshot = list(held)
            manager.append_trees("\n".join(map(format_tree, trees[30:])))
            assert manager.engine is not before
            before.close()                      # as the grace reaper would
            assert held == snapshot and len(held) == len(snapshot)
            assert manager.engine.query("//NP")[:len(held)] == held
        finally:
            manager.close()

    def test_a_duplicated_batch_entry_gets_two_equal_results(self, store_path):
        with LPathEngine.open(store_path) as engine:
            first, second, limited, again = engine.query_batch(
                ["//S//NP", "//S//NP", {"query": "//NP", "limit": 3},
                 {"query": "//NP", "limit": 3}]
            )
            assert first == second == engine.query("//S//NP") and first
            assert limited == again == engine.query("//NP")[:3]
