"""Property-based differential fuzzing across every execution path.

For random corpora and *random queries* (tests/strategies.py generators),
the three LPath execution paths must agree exactly:

    plan == emitted-SQL-on-SQLite == tree-walk

— and so must the zero-copy deployment shapes: the same corpus saved as
a segmented ``LPDB0004`` store and opened mmap-backed, executed both
sequentially and fanned out over a two-thread segment pool (any drift in
the per-segment binds or the packed merge would break byte-identity
here).  The XPath engine must match the LPath
tree-walk on the start/end-expressible fragment, and so must the XPath
dialect over a Definition 4.1 file and the LPath engine opened over a
start/end file.  The plan backend runs
every pair with structural merge joins forced **on** and forced **off**
(the ``REPRO_FORCE_JOIN=merge|probe`` knob), so the set-at-a-time join
layer is differentially verified against the per-binding probe join and
the oracles regardless of what the cost model would pick.  When the cffi
extension built, the forced-merge runs additionally repeat under
``REPRO_KERNELS=python`` and ``=native``, pitting the C hot loops
against the pure-Python loops on the same random pairs.  A disagreement
produces a reproducible failure report carrying the bracketed corpus and
the query, so any falsifying example can be replayed by hand; hypothesis
additionally prints the shrunken example and its seed.

The serving daemon gets the same treatment: rows fetched over HTTP from
a live ``repro serve`` stack (forced through real pagination and the
result cache) must match the in-process mmap engine byte for byte.

``REPRO_FUZZ_EXAMPLES`` scales the number of hypothesis examples (the
nightly CI job raises it well past the default); every example checks
``QUERIES_PER_EXAMPLE`` queries, so the default run covers at least
25 x 8 = 200 fuzzed (corpus, query) pairs.  The four-path test also
draws ``WORD_QUERIES_PER_EXAMPLE`` tests of the words themselves over a
corpus whose leaves are numbers half the time.
"""

from __future__ import annotations

import io
import os
import tempfile
from contextlib import contextmanager

import hypothesis.strategies as st
from hypothesis import given, settings

from repro import store
from repro.columnar import ColumnStore
from repro.columnar.kernels import KERNELS_ENV, native_kernels
from repro.columnar.structural import FORCE_ENV
from repro.labeling import label_corpus
from repro.lpath import LPathEngine
from repro.lpath.errors import LPathCompileError
from repro.oracle import SQLiteBackend, TreeWalkEvaluator
from repro.tree import write_trees
from repro.xpath import XPATH_AXES, XPathEngine
from repro.xpath.engine import xpath_stores
from tests.strategies import corpora, lpath_queries, word_queries, xpath_queries

FUZZ_EXAMPLES = int(os.environ.get("REPRO_FUZZ_EXAMPLES", "25"))
QUERIES_PER_EXAMPLE = 8
WORD_QUERIES_PER_EXAMPLE = 8

#: The kernel-backend axis: every forced-merge fuzz pair additionally
#: runs under both ``REPRO_KERNELS`` values when the cffi extension
#: built, so the native hot loops are differentially verified against
#: the pure-Python ones on the same random inputs.
KERNEL_BACKENDS = (
    ("python", "native") if native_kernels() is not None else ("python",)
)


@contextmanager
def forced_join(mode: str):
    """Pin the physical-join choice for the duration of one query run."""
    previous = os.environ.get(FORCE_ENV)
    os.environ[FORCE_ENV] = mode
    try:
        yield
    finally:
        if previous is None:
            del os.environ[FORCE_ENV]
        else:
            os.environ[FORCE_ENV] = previous


@contextmanager
def forced_kernels(mode: str):
    """Pin the kernel backend for the duration of one query run."""
    previous = os.environ.get(KERNELS_ENV)
    os.environ[KERNELS_ENV] = mode
    try:
        yield
    finally:
        if previous is None:
            del os.environ[KERNELS_ENV]
        else:
            os.environ[KERNELS_ENV] = previous


def _bracketed(trees) -> str:
    out = io.StringIO()
    write_trees(trees, out)
    return out.getvalue()


def _report(trees, query: str, results: dict[str, list]) -> str:
    """A self-contained reproduction blob for one disagreement."""
    lines = [
        "backends disagree!",
        f"query: {query}",
        "corpus (bracketed, one tree per line):",
        _bracketed(trees).rstrip(),
        "results:",
    ]
    for backend, rows in results.items():
        lines.append(f"  {backend:16s} ({len(rows):3d}): {rows}")
    lines.append(
        "replay: save the corpus to a file and run "
        f"`repro query <file> '{query}' --engine <backend>`"
    )
    return "\n".join(lines)


def _assert_agreement(
    trees, engine: LPathEngine, sqlite: SQLiteBackend, query: str,
    extra_engines=None,
) -> None:
    expected = TreeWalkEvaluator(trees).query(query)
    results = {
        "treewalk": expected,
        "columnar": engine.query(query),
        "columnar+pivot": engine.query(query, pivot=True),
    }
    try:
        results["sqlite"] = sqlite.query(query)
    except LPathCompileError as error:
        # The emitted SQL has no element string values; every other
        # query it must answer.
        if "element string values" not in str(error):
            raise
    with forced_join("merge"):
        results["columnar+merge"] = engine.query(query)
        results["columnar+merge+pivot"] = engine.query(
            query, pivot=True
        )
        for backend in KERNEL_BACKENDS:
            with forced_kernels(backend):
                results[f"columnar+merge+{backend}"] = engine.query(
                    query
                )
        # Merge joins over mapped segments too (a seeded step's row list
        # is per segment, and empty where the segment lacks the word);
        # their cost-based plans run with the other extras below.
        if extra_engines and "mmap" in extra_engines:
            results["mmap+merge"] = extra_engines["mmap"].query(query)
    with forced_join("probe"):
        results["columnar+probe"] = engine.query(query)
    for label, extra in (extra_engines or {}).items():
        results[label] = extra.query(query)
    if any(rows != expected for rows in results.values()):
        raise AssertionError(_report(trees, query, results))


def _distinct(queries, count: int):
    """``count`` texts of the ``queries`` strategy, no two alike."""
    return st.lists(queries, min_size=count, max_size=count, unique=True)


@contextmanager
def mmap_engines(trees):
    """The same corpus as a 2-segment LPDB0004 file, opened mmap-backed."""
    handle, path = tempfile.mkstemp(suffix=".lpdb")
    engines = {}
    try:
        with os.fdopen(handle, "wb") as stream:
            store.save_mapped_stores(store.tree_stores(trees, 2), stream)
        engines["mmap"] = LPathEngine.from_store_mmap(path)
        yield engines
    finally:
        for engine in engines.values():
            engine.close()
        os.unlink(path)


class TestLPathDifferentialFuzz:
    @given(data=st.data())
    @settings(max_examples=FUZZ_EXAMPLES, deadline=None)
    def test_four_paths_agree_on_random_queries(self, data):
        trees = data.draw(
            corpora(max_trees=3, max_depth=4, numbers=True), label="corpus"
        )
        engine = LPathEngine(trees)
        sqlite = SQLiteBackend(label_corpus(trees))
        # Each example checks distinct texts: a repeat re-runs a query
        # on the same corpus and spends the budget on nothing new.
        queries = data.draw(_distinct(lpath_queries(), QUERIES_PER_EXAMPLE),
                            label="queries")
        queries += data.draw(
            _distinct(word_queries(), WORD_QUERIES_PER_EXAMPLE),
            label="word queries",
        )
        with mmap_engines(trees) as extra:
            for query in queries:
                _assert_agreement(trees, engine, sqlite, query, extra)


class TestDaemonDifferentialFuzz:
    """The serving stack is just transport: for random corpora and
    random queries, rows fetched over HTTP from a live daemon (with
    pagination forced small, so the client really reassembles pages)
    must be byte-identical to the in-process mmap engine — cold, from
    the result cache, and pivoted."""

    @given(data=st.data())
    @settings(max_examples=max(3, FUZZ_EXAMPLES // 5), deadline=None)
    def test_daemon_matches_in_process_engine(self, data):
        from repro.serve import QueryServer, QueryService, ServeClient

        trees = data.draw(corpora(max_trees=3, max_depth=4), label="corpus")
        handle, path = tempfile.mkstemp(suffix=".lpdb")
        try:
            with os.fdopen(handle, "wb") as stream:
                store.save_mapped_stores(store.tree_stores(trees, 2), stream)
            with LPathEngine.from_store_mmap(path) as engine, \
                    QueryServer(QueryService(path)).start() as server, \
                    ServeClient(server.url) as client:
                for index in range(QUERIES_PER_EXAMPLE):
                    query = data.draw(lpath_queries(), label=f"query {index}")
                    expected = engine.query(query)
                    results = {
                        "daemon": client.query(query, limit=3),
                        "daemon+cached": client.query(query, limit=3),
                        "daemon+pivot": client.query(
                            query, pivot=True, limit=3
                        ),
                    }
                    if any(rows != expected for rows in results.values()):
                        raise AssertionError(
                            _report(trees, query, results)
                        )
                    assert client.count(query) == len(expected)
        finally:
            os.unlink(path)


def _batch_entries(data, prefix: str) -> list:
    """A random batch suite: plain row queries mixed with top-k limits
    and aggregates (the three shapes ``query_batch`` accepts)."""
    from repro.plan.ir import AGGREGATE_OPS

    entries = []
    for index in range(QUERIES_PER_EXAMPLE):
        query = data.draw(lpath_queries(), label=f"{prefix} query {index}")
        kind = data.draw(
            st.sampled_from(("rows", "rows", "limit", "agg")),
            label=f"{prefix} kind {index}",
        )
        if kind == "limit":
            entries.append({
                "query": query,
                "limit": data.draw(
                    st.integers(min_value=0, max_value=5),
                    label=f"{prefix} k {index}",
                ),
            })
        elif kind == "agg":
            entries.append({
                "query": query,
                "agg": data.draw(
                    st.sampled_from(AGGREGATE_OPS),
                    label=f"{prefix} agg {index}",
                ),
            })
        else:
            entries.append(query)
    return entries


def _expected_per_query(engine: LPathEngine, entries) -> list:
    """What each batch member produces standalone, one query at a time."""
    expected = []
    for entry in entries:
        if isinstance(entry, str):
            expected.append([tuple(row) for row in engine.query(entry)])
        elif "agg" in entry:
            expected.append(engine.aggregate(entry["query"], agg=entry["agg"]))
        else:
            expected.append([
                tuple(row)
                for row in engine.query(entry["query"], limit=entry["limit"])
            ])
    return expected


class TestBatchDifferentialFuzz:
    """Shared-scan batching is an optimization, never a semantics
    change: for random suites mixing row queries, top-k limits and
    aggregates, ``query_batch`` must be byte-identical to per-query
    execution — across kernel backends, segmented engines and the HTTP
    daemon."""

    @given(data=st.data())
    @settings(max_examples=max(5, FUZZ_EXAMPLES // 3), deadline=None)
    def test_batch_matches_per_query_execution(self, data):
        trees = data.draw(corpora(max_trees=3, max_depth=4), label="corpus")
        entries = _batch_entries(data, "batch")
        reference = LPathEngine(trees)
        expected = _expected_per_query(reference, entries)
        engines = {
            "columnar": reference,
            "segmented": LPathEngine(trees, segments=2),
        }
        results = {
            name: engine.query_batch(entries)
            for name, engine in engines.items()
        }
        with forced_join("merge"):
            for backend in KERNEL_BACKENDS:
                with forced_kernels(backend):
                    results[f"columnar+merge+{backend}"] = (
                        engines["columnar"].query_batch(entries)
                    )
        for name, batched in results.items():
            for index, (got, want) in enumerate(zip(batched, expected)):
                assert got == want, (
                    f"query_batch[{index}] under {name} diverged from "
                    f"per-query execution\nentry: {entries[index]!r}\n"
                    f"batch:     {got!r}\nper-query: {want!r}\n"
                    f"corpus:\n{_bracketed(trees)}"
                )

    @given(data=st.data())
    @settings(max_examples=max(3, FUZZ_EXAMPLES // 5), deadline=None)
    def test_daemon_batch_matches_in_process(self, data):
        from repro.serve import QueryServer, QueryService, ServeClient

        trees = data.draw(corpora(max_trees=3, max_depth=4), label="corpus")
        entries = _batch_entries(data, "daemon")
        requests = [
            entry if isinstance(entry, str)
            else {
                ("top_k" if key == "limit" else key): value
                for key, value in entry.items()
            }
            for entry in entries
        ]
        handle, path = tempfile.mkstemp(suffix=".lpdb")
        try:
            with os.fdopen(handle, "wb") as stream:
                store.save_mapped_stores(store.tree_stores(trees, 2), stream)
            with LPathEngine.from_store_mmap(path) as engine, \
                    QueryServer(QueryService(path)).start() as server, \
                    ServeClient(server.url) as client:
                expected = _expected_per_query(engine, entries)
                for round_name in ("cold", "cached"):
                    documents = client.query_batch(requests)
                    for index, (document, want) in enumerate(
                        zip(documents, expected)
                    ):
                        if isinstance(want, dict):
                            got = dict(document["aggregate"])
                        else:
                            got = [
                                tuple(pair)
                                for pair in document["matches"]
                            ]
                        assert got == want, (
                            f"/batch[{index}] ({round_name}) diverged\n"
                            f"entry: {entries[index]!r}\n"
                            f"daemon:    {got!r}\nper-query: {want!r}\n"
                            f"corpus:\n{_bracketed(trees)}"
                        )
        finally:
            os.unlink(path)


class TestLiveCorpusDifferentialFuzz:
    """A live (LPDB0005) corpus is a deployment shape, never a
    semantics change: for a random corpus split at a random point into
    a base generation plus WAL-appended deltas, the live engine must
    agree with the monolithic in-memory oracle — before compaction,
    after appends that land *between* queries on a running engine
    manager (snapshot isolation: the pre-append engine keeps answering
    the old corpus), and after compaction.  The recovered label stream
    must additionally be row-identical to the monolithic labeling, so a
    re-save of the live corpus is byte-identical to a direct save."""

    @given(data=st.data())
    @settings(max_examples=max(5, FUZZ_EXAMPLES // 3), deadline=None)
    def test_live_corpus_matches_monolithic(self, data):
        import shutil

        from repro import live
        from repro.tree import iter_trees

        trees = data.draw(corpora(max_trees=4, max_depth=4), label="corpus")
        split = data.draw(
            st.integers(min_value=0, max_value=len(trees)), label="split"
        )
        base_text = "".join(_bracketed([tree]) for tree in trees[:split])
        delta_text = "".join(_bracketed([tree]) for tree in trees[split:])
        reference = TreeWalkEvaluator(trees)
        # Stores canonicalize row order internally, so the recovered
        # stream is compared as a sorted multiset.
        expected_rows = sorted(tuple(row) for row in label_corpus(trees))
        root = tempfile.mkdtemp()
        live_path = os.path.join(root, "live.lpdb")

        def check_against_reference(stage: str) -> None:
            engine = LPathEngine.open(live_path)
            try:
                for index in range(QUERIES_PER_EXAMPLE):
                    query = data.draw(
                        lpath_queries(), label=f"{stage} query {index}"
                    )
                    expected = reference.query(query)
                    results = {
                        "monolithic/treewalk": expected,
                        f"live/{stage}": engine.query(query),
                        f"live/{stage}+pivot": engine.query(
                            query, pivot=True
                        ),
                    }
                    with forced_join("merge"):
                        for backend in KERNEL_BACKENDS:
                            with forced_kernels(backend):
                                results[f"live/{stage}+merge+{backend}"] = (
                                    engine.query(query)
                                )
                    with forced_join("probe"):
                        results[f"live/{stage}+probe"] = engine.query(query)
                    if any(
                        rows != expected for rows in results.values()
                    ):
                        raise AssertionError(_report(trees, query, results))
            finally:
                engine.close()

        try:
            store.save_corpus(iter_trees(base_text), live_path, segments=2,
                              format="lpdb0005")
            if delta_text.strip():
                with live.LiveCorpus(live_path) as corpus:
                    corpus.append_trees(delta_text)
            recovered = sorted(
                tuple(row) for row in store.load_corpus_labels(live_path)
            )
            assert recovered == expected_rows
            check_against_reference("base+delta")

            with live.LiveCorpus(live_path) as corpus:
                corpus.compact()
            recovered = sorted(
                tuple(row) for row in store.load_corpus_labels(live_path)
            )
            assert recovered == expected_rows
            check_against_reference("compacted")

            # Byte-identity: re-saving the live corpus's rows
            # monolithically produces the exact file a direct save of
            # the trees would.
            resave = io.BytesIO()
            store.save_mapped_stores([ColumnStore.from_rows(
                store.load_corpus_labels(live_path)
            )], resave)
            direct = io.BytesIO()
            store.save_mapped_stores(store.tree_stores(trees, 1), direct)
            assert resave.getvalue() == direct.getvalue()
        finally:
            shutil.rmtree(root)

    @given(data=st.data())
    @settings(max_examples=max(3, FUZZ_EXAMPLES // 5), deadline=None)
    def test_append_between_queries_is_snapshot_isolated(self, data):
        import shutil

        from repro import live
        from repro.tree import iter_trees

        trees = data.draw(corpora(max_trees=4, max_depth=4), label="corpus")
        split = data.draw(
            st.integers(min_value=0, max_value=len(trees) - 1),
            label="split",
        )
        base_text = "".join(_bracketed([tree]) for tree in trees[:split])
        delta_text = "".join(_bracketed([tree]) for tree in trees[split:])
        base_reference = LPathEngine(trees[:split])
        full_reference = LPathEngine(trees)
        root = tempfile.mkdtemp()
        live_path = os.path.join(root, "live.lpdb")
        try:
            store.save_corpus(iter_trees(base_text), live_path, segments=2,
                              format="lpdb0005")
            manager = live.LiveEngineManager(live_path)
            try:
                query = data.draw(lpath_queries(), label="query")
                snapshot = manager.engine
                before = snapshot.query(query)
                assert before == base_reference.query(query)
                manager.append_trees(delta_text)
                # The pre-append engine is retired but still answers
                # with its original snapshot; the swapped-in engine
                # sees base + delta.
                assert snapshot.query(query) == before
                assert manager.engine.query(query) == (
                    full_reference.query(query)
                )
            finally:
                manager.close()
        finally:
            shutil.rmtree(root)

    @given(data=st.data())
    @settings(max_examples=max(3, FUZZ_EXAMPLES // 5), deadline=None)
    def test_swapped_engines_run_carried_plans_correctly(self, data):
        """Across append / append / compact / append the manager's
        engine shares segments with its predecessor and starts from its
        plans.  The *same* query texts run before and after every swap —
        so what answers is the carried plan, rebased onto the new
        segment list — and must equal a fresh open of the directory and
        the monolithic oracle, under every kernel backend."""
        import shutil

        from repro import live
        from repro.tree import iter_trees

        chunks = [
            _bracketed(data.draw(
                corpora(max_trees=2, max_depth=4), label=f"chunk {index}"
            ))
            for index in range(4)
        ]
        queries = [
            data.draw(lpath_queries(), label=f"query {index}")
            for index in range(QUERIES_PER_EXAMPLE // 2)
        ]
        root = tempfile.mkdtemp()
        live_path = os.path.join(root, "live.lpdb")
        try:
            store.save_corpus(iter_trees(chunks[0]), live_path, segments=2,
                              format="lpdb0005")
            manager = live.LiveEngineManager(live_path)
            try:
                text = chunks[0]
                steps = [None, chunks[1], chunks[2], "compact", chunks[3]]
                for stage, step in enumerate(steps):
                    if step == "compact":
                        manager.compact()
                    elif step is not None:
                        manager.append_trees(step)
                        text += step
                    trees = list(iter_trees(text))
                    reference = TreeWalkEvaluator(trees)
                    fresh = LPathEngine.open(live_path)
                    try:
                        for query in queries:
                            expected = reference.query(query)
                            results = {
                                "monolithic/treewalk": expected,
                                f"fresh-open/{stage}": fresh.query(query),
                            }
                            for backend in KERNEL_BACKENDS:
                                with forced_kernels(backend):
                                    results[f"swapped/{stage}+{backend}"] = (
                                        manager.engine.query(query)
                                    )
                            if any(
                                rows != expected
                                for rows in results.values()
                            ):
                                raise AssertionError(
                                    _report(trees, query, results)
                                )
                    finally:
                        fresh.close()
                status = manager.status()
                assert status["plans_rebased"] >= (
                    4 * len(set(queries)) * len(KERNEL_BACKENDS)
                )
            finally:
                manager.close()
        finally:
            shutil.rmtree(root)


@contextmanager
def scheme_engines(trees):
    """Each dialect over the other labeling, from 2-segment LPDB0004
    files: the XPath dialect over Definition 4.1 labels, and the engine
    ``LPathEngine.open`` gives over start/end labels."""
    with tempfile.TemporaryDirectory() as scratch:
        lpath_file = os.path.join(scratch, "lpath.lpdb")
        start_end_file = os.path.join(scratch, "start-end.lpdb")
        store.save_corpus(trees, lpath_file, segments=2)
        with open(start_end_file, "wb") as stream:
            store.save_mapped_stores(xpath_stores(trees, 2), stream)
        with XPathEngine.from_store_mmap(lpath_file, axes=XPATH_AXES) as one, \
                LPathEngine.open(start_end_file) as other:
            yield {"xpath/lpath-4.1-file": one, "lpath/start-end-file": other}


class TestXPathDifferentialFuzz:
    @given(data=st.data())
    @settings(max_examples=max(5, FUZZ_EXAMPLES // 3), deadline=None)
    def test_xpath_engine_matches_lpath_on_fragment(self, data):
        trees = data.draw(corpora(max_trees=3, max_depth=4), label="corpus")
        with scheme_engines(trees) as crossed:
            self._check(data, trees, crossed)

    def _check(self, data, trees, crossed):
        lpath_engine = LPathEngine(trees)
        xpath_engine = XPathEngine(trees, axes=XPATH_AXES)
        for index in range(QUERIES_PER_EXAMPLE):
            query = data.draw(xpath_queries(), label=f"query {index}")
            expected = TreeWalkEvaluator(trees).query(query)
            results = {
                "lpath/treewalk": expected,
                "lpath/columnar": lpath_engine.query(query),
                "xpath/columnar": xpath_engine.query(query),
                "xpath/columnar+pivot": xpath_engine.query(
                    query, pivot=True
                ),
            }
            with forced_join("merge"):
                results["xpath/columnar+merge"] = xpath_engine.query(
                    query
                )
                for backend in KERNEL_BACKENDS:
                    with forced_kernels(backend):
                        results[f"xpath/columnar+merge+{backend}"] = (
                            xpath_engine.query(query)
                        )
            with forced_join("probe"):
                results["xpath/columnar+probe"] = xpath_engine.query(
                    query
                )
            for name, engine in crossed.items():
                results[name] = engine.query(query)
                results[name + "+pivot"] = engine.query(query, pivot=True)
            if any(rows != expected for rows in results.values()):
                raise AssertionError(_report(trees, query, results))
