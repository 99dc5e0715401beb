"""Command-line interface: query, generate, translate and inspect treebanks.

Usage (also via ``python -m repro``)::

    repro generate --profile wsj --sentences 1000 --seed 7 -o corpus.mrg
    repro query corpus.mrg '//VB->NP' --count
    repro query corpus.mrg '//VP{//NP$}' --show 3
    repro query corpus.mrg '//S//NP' --limit 10
    repro query corpus.mrg '//NP' --agg count_by_name
    repro query corpus.mrg --batch queries.txt
    repro query corpus.mrg 'NP , VB' --engine tgrep2
    repro sql '//NP[not(//JJ)]'
    repro stats corpus.mrg

The query command reads Penn-bracketed files (one or more trees, optionally
with the Treebank-3 ``( ... )`` wrappers).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence, TextIO

from .baselines.corpussearch import CorpusSearchEngine
from .baselines.tgrep2 import TGrep2Engine
from .corpus import (
    corpus_stats,
    format_stats_table,
    format_top_tags_table,
    generate_corpus,
    top_tags,
)
from .columnar.kernels import KERNEL_MODES, KERNELS_ENV, kernel_info
from .lpath import LPathEngine, parse
from .plan.ir import AGGREGATE_OPS
from .plan.schemes import DIALECTS
from .tree import iter_trees, write_trees
from .xpath import XPathEngine

ENGINES = ("lpath", "tgrep2", "corpussearch", "xpath", "treewalk", "sqlite")


def _load_trees(path: str):
    if path == "-":
        return list(iter_trees(sys.stdin.read()))
    with open(path, "r", encoding="utf-8") as handle:
        return list(iter_trees(handle.read()))


def _command_generate(args: argparse.Namespace, out: TextIO) -> int:
    trees = generate_corpus(args.profile, sentences=args.sentences, seed=args.seed)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            count = write_trees(trees, handle)
        print(f"wrote {count} trees to {args.output}", file=out)
    else:
        write_trees(trees, out)
    return 0


def _print_cache_stats(args: argparse.Namespace, engine, out: TextIO) -> None:
    if not getattr(args, "cache_stats", False):
        return
    info = kernel_info()
    print(
        f"kernels: backend={info['backend']} mode={info['mode']} "
        f"native_available={info['native_available']}",
        file=out,
    )
    stats = engine.cache_stats()
    print(
        "plan cache: "
        + " ".join(f"{key}={stats[key]}" for key in sorted(stats)),
        file=out,
    )


#: Query flags that configure a *local* engine and are meaningless when
#: the engine lives in a daemon on the other side of ``--url``.
_LOCAL_ONLY_QUERY_FLAGS = (
    ("--segments", "segments"), ("--mmap", "mmap"),
    ("--kernels", "kernels"), ("--explain", "explain"),
    ("--cache-stats", "cache_stats"),
)


def _load_batch_entries(path: str) -> list:
    """Parse a ``--batch`` file: one query per line, or a JSON object per
    line (``{"query": ..., "limit"/"agg"/"pivot": ...}``); blank lines
    and ``#`` comments are skipped."""
    import json

    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    entries: list = []
    for number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("{"):
            try:
                entries.append(json.loads(line))
            except json.JSONDecodeError as error:
                raise ValueError(
                    f"{path} line {number}: invalid JSON batch entry: {error}"
                )
        else:
            entries.append(line)
    if not entries:
        raise ValueError(
            f"{path}: no queries (one per line; '#' starts a comment)"
        )
    return entries


def _print_aggregate(result: dict, out: TextIO) -> None:
    for group in sorted(result):
        print(f"{group}\t{result[group]}", file=out)


def _print_batch_results(entries, results, show, out: TextIO) -> None:
    """One block per batch member: aggregates as ``group<TAB>count``
    lines, row sets as a count plus the first ``show`` pairs.  Remote
    results arrive as ``(total, rows)`` — the rows may be just the first
    page of a larger result."""
    for index, (entry, result) in enumerate(zip(entries, results)):
        text = entry["query"] if isinstance(entry, dict) else str(entry)
        if isinstance(result, dict):
            rendered = " ".join(
                f"{group}={result[group]}" for group in sorted(result)
            )
            print(f"[q{index}] {text}: {rendered}", file=out)
            continue
        if isinstance(result, tuple):
            total, rows = result
        else:
            total, rows = len(result), result
        print(f"[q{index}] {text}: {total} match(es)", file=out)
        for tid, node_id in rows[: show or 10]:
            print(f"  tree {tid}\tnode {node_id}", file=out)


def _run_batch_query(args: argparse.Namespace, engine, out: TextIO) -> int:
    """``query --batch``: shared-scan execution of a whole query file."""
    entries = _load_batch_entries(args.batch)
    pivot = getattr(args, "pivot", False)
    if getattr(args, "explain", False):
        print(engine.explain_batch(entries, pivot=pivot), file=out)
        _print_cache_stats(args, engine, out)
        return 0
    results = engine.query_batch(entries, pivot=pivot)
    _print_batch_results(entries, results, args.show, out)
    _print_cache_stats(args, engine, out)
    return 0


def _command_query(args: argparse.Namespace, out: TextIO) -> int:
    if getattr(args, "url", None):
        return _run_remote_query(args, out)
    if args.corpus is None:
        print("error: corpus path required", file=sys.stderr)
        return 1
    if args.query is None and getattr(args, "batch", None) is None:
        print("error: query text required (or --batch FILE)", file=sys.stderr)
        return 1
    kernels = getattr(args, "kernels", None)
    if kernels is None:
        return _run_query(args, out)
    # Scope the override to this query: the CLI may be driven in-process
    # (tests, notebooks), so the ambient environment must come back.
    previous = os.environ.get(KERNELS_ENV)
    os.environ[KERNELS_ENV] = kernels
    try:
        return _run_query(args, out)
    finally:
        if previous is None:
            del os.environ[KERNELS_ENV]
        else:
            os.environ[KERNELS_ENV] = previous


def _run_query(args: argparse.Namespace, out: TextIO) -> int:
    from . import store

    engine_name = args.engine
    if engine_name not in DIALECTS:
        wanted = [
            flag
            for flag, attr in (("--explain", "explain"), ("--cache-stats", "cache_stats"))
            if getattr(args, attr, False)
        ]
        if wanted:
            print(
                f"error: {'/'.join(wanted)} requires --engine lpath or xpath",
                file=sys.stderr,
            )
            return 1
    batch_path = getattr(args, "batch", None)
    limit = getattr(args, "limit", None)
    agg = getattr(args, "agg", None)
    if (
        batch_path is not None or agg is not None
    ) and engine_name not in DIALECTS:
        print(
            "error: --batch/--agg require --engine lpath or xpath",
            file=sys.stderr,
        )
        return 1
    if limit is not None and engine_name not in (
        "lpath", "xpath", "treewalk", "sqlite"
    ):
        print(
            f"error: --limit is not supported by --engine {engine_name}",
            file=sys.stderr,
        )
        return 1
    if agg is not None and (args.count or limit is not None):
        print(
            "error: --agg already returns counts; drop --count/--limit",
            file=sys.stderr,
        )
        return 1
    if limit is not None and args.count:
        print(
            "error: --count with --limit is just min(K, total); drop one",
            file=sys.stderr,
        )
        return 1
    if batch_path is not None and (
        args.query is not None or args.count
        or agg is not None or limit is not None
    ):
        print(
            "error: --batch entries carry their own query/limit/agg; "
            "drop the positional query and --count/--limit/--agg",
            file=sys.stderr,
        )
        return 1
    segments = getattr(args, "segments", None)
    compiled = args.corpus != "-" and store.is_compiled_corpus(args.corpus)
    if compiled and engine_name not in ("lpath", "xpath", "sqlite"):
        print(
            "error: compiled corpora only support --engine lpath/xpath/sqlite",
            file=sys.stderr,
        )
        return 1
    if compiled and segments is not None:
        print(
            "error: a compiled corpus keeps its on-disk segments; drop "
            "--segments (or re-compile with --segments N)",
            file=sys.stderr,
        )
        return 1
    stats_engine = None
    if engine_name == "treewalk":
        from .oracle import TreeWalkEvaluator

        trees = _load_trees(args.corpus)
        matches = TreeWalkEvaluator(trees).query(args.query)[:limit]
    elif engine_name == "sqlite":
        from .labeling import label_corpus
        from .oracle import SQLiteBackend

        if compiled:  # every label row, a live directory's WAL included
            trees, rows = [], store.load_corpus_labels(args.corpus)
        else:
            trees = _load_trees(args.corpus)
            rows = label_corpus(trees)
        oracle = SQLiteBackend(rows)
        try:
            matches = oracle.query(args.query, limit=limit)
        finally:
            oracle.close()
    elif engine_name in DIALECTS:
        if compiled:
            # LPDB0004 adopted zero-copy, answering from the labels the
            # file records; a live directory adds its WAL replayed into
            # an in-memory delta store.  The dialect restricts the query.
            engine = LPathEngine.open(
                args.corpus, dialect=DIALECTS[engine_name]
            )
            trees = []
        else:
            # A treebank: Definition 4.1 labels for LPath, the start/end
            # labels of Section 5.4's comparator for XPath.
            trees = _load_trees(args.corpus)
            engine = (LPathEngine if engine_name == "lpath" else XPathEngine)(
                trees, segments=1 if segments is None else segments
            )
        if batch_path is not None:
            return _run_batch_query(args, engine, out)
        if getattr(args, "explain", False):
            print(
                engine.explain(
                    args.query, pivot=getattr(args, "pivot", False),
                    limit=limit, agg=agg,
                ),
                file=out,
            )
            _print_cache_stats(args, engine, out)
            return 0
        if agg is not None:
            _print_aggregate(
                engine.aggregate(
                    args.query, agg=agg, pivot=getattr(args, "pivot", False)
                ),
                out,
            )
            _print_cache_stats(args, engine, out)
            return 0
        if args.count:
            # Count through the compiled plan: segmented engines add
            # per-segment counts instead of merging every result row.
            print(
                engine.count(args.query, pivot=getattr(args, "pivot", False)),
                file=out,
            )
            _print_cache_stats(args, engine, out)
            return 0
        matches = engine.query(
            args.query, pivot=getattr(args, "pivot", False), limit=limit
        )
        stats_engine = engine
    else:
        trees = _load_trees(args.corpus)
        if engine_name == "tgrep2":
            matches = TGrep2Engine(trees).query(args.query)
        else:
            matches = CorpusSearchEngine(trees).query(args.query)

    if args.count or compiled:
        print(len(matches), file=out)
        if not args.count:
            for tid, node_id in matches[: args.show or 10]:
                print(f"tree {tid}\tnode {node_id}", file=out)
        if stats_engine is not None:
            _print_cache_stats(args, stats_engine, out)
        return 0
    by_tid = {tree.tid: tree for tree in trees}
    shown = 0
    for tid, node_id in matches:
        if args.show is not None and shown >= args.show:
            remaining = len(matches) - shown
            print(f"... and {remaining} more (use --show to adjust)", file=out)
            break
        tree = by_tid[tid]
        node = tree.node_by_id(node_id)
        words = " ".join(
            f"[{leaf.word}]" if node.left <= leaf.left and leaf.right <= node.right
            else (leaf.word or "")
            for leaf in tree.leaves()
        )
        print(f"tree {tid}\t({node.label})\t{words}", file=out)
        shown += 1
    print(f"{len(matches)} match(es)", file=out)
    if stats_engine is not None:
        _print_cache_stats(args, stats_engine, out)
    return 0


def _run_remote_query(args: argparse.Namespace, out: TextIO) -> int:
    """``query --url``: ship the query to a running daemon.

    With ``--url`` the corpus lives on the server, so the command takes
    a single positional — the query text (``repro query --url URL
    '//NP'``); passing a corpus path too is an error.  ``--batch``
    ships the whole file to ``POST /batch`` for shared-scan execution
    server-side."""
    from .serve.client import ServeClient

    if args.query is not None:
        print(
            "error: with --url the corpus lives on the server; pass only "
            "the query text",
            file=sys.stderr,
        )
        return 1
    engine_name = args.engine
    if engine_name not in DIALECTS:
        print(
            "error: --url serves the plan dialects; use --engine lpath "
            "or xpath",
            file=sys.stderr,
        )
        return 1
    wanted = [
        flag for flag, attr in _LOCAL_ONLY_QUERY_FLAGS
        if getattr(args, attr, None) not in (None, False)
    ]
    if wanted:
        print(
            f"error: {'/'.join(wanted)} configures a local engine and "
            "cannot be combined with --url (the daemon chose those at "
            "startup)",
            file=sys.stderr,
        )
        return 1
    pivot = getattr(args, "pivot", False)
    batch_path = getattr(args, "batch", None)
    limit = getattr(args, "limit", None)
    agg = getattr(args, "agg", None)
    if batch_path is not None:
        if args.corpus is not None or args.count or agg is not None \
                or limit is not None:
            print(
                "error: --batch entries carry their own query/limit/agg; "
                "drop the positional query and --count/--limit/--agg",
                file=sys.stderr,
            )
            return 1
        entries = _load_batch_entries(batch_path)
        # The HTTP surface calls the plan's top-k ``top_k`` (``limit``
        # is the page size there).
        requests = [
            entry if isinstance(entry, str)
            else {
                ("top_k" if key == "limit" else key): value
                for key, value in entry.items()
            }
            for entry in entries
        ]
        with ServeClient(args.url) as client:
            documents = client.query_batch(
                requests, dialect=engine_name, pivot=pivot
            )
        results = [
            dict(document["aggregate"]) if document.get("agg")
            else (
                document.get("total", len(document["matches"])),
                [tuple(pair) for pair in document["matches"]],
            )
            for document in documents
        ]
        _print_batch_results(entries, results, args.show, out)
        return 0
    query_text = args.corpus
    if query_text is None:
        print("error: query text required (or --batch FILE)", file=sys.stderr)
        return 1
    if agg is not None and (args.count or limit is not None):
        print(
            "error: --agg already returns counts; drop --count/--limit",
            file=sys.stderr,
        )
        return 1
    if limit is not None and args.count:
        print(
            "error: --count with --limit is just min(K, total); drop one",
            file=sys.stderr,
        )
        return 1
    with ServeClient(args.url) as client:
        if agg is not None:
            _print_aggregate(
                client.aggregate(
                    query_text, agg=agg, dialect=engine_name, pivot=pivot
                ),
                out,
            )
            return 0
        if args.count:
            print(
                client.count(query_text, dialect=engine_name, pivot=pivot),
                file=out,
            )
            return 0
        matches = client.query(
            query_text, dialect=engine_name, pivot=pivot, top_k=limit,
        )
    print(len(matches), file=out)
    for tid, node_id in matches[: args.show or 10]:
        print(f"tree {tid}\tnode {node_id}", file=out)
    return 0


def _command_serve(args: argparse.Namespace, out: TextIO) -> int:
    """Run the query daemon until interrupted (then drain and exit 0).

    Failures never escape as tracebacks: anything wrong with the
    *configuration* (missing or malformed store, bad knob values, a
    malformed ``REPRO_FAULTS`` spec, an unbindable address) is one line
    on stderr and exit 2; a crash of the running daemon is one line and
    exit 1.  ``--verbose`` adds the full traceback before the one-liner
    for debugging."""
    import traceback

    from .faults import FAULTS_ENV, active_injector
    from .lpath.errors import LPathError
    from .serve import QueryServer, QueryService, StoreSpec

    if args.kernels is not None:
        # The daemon owns its process: the override holds for its lifetime.
        os.environ[KERNELS_ENV] = args.kernels
    try:
        active_injector()  # fail a malformed REPRO_FAULTS before binding
        service = QueryService(
            [StoreSpec(path, args.dialect) for path in args.store],
            max_inflight=args.max_inflight,
            max_queue=args.max_queue,
            timeout=args.timeout,
            result_cache_size=args.result_cache,
            compact_rows=args.compact_rows,
        )
        server = QueryServer(
            service, host=args.host, port=args.port, verbose=args.verbose
        )
    except (LPathError, ValueError, OSError) as error:
        if args.verbose:
            traceback.print_exc(file=sys.stderr)
        print(f"serve: configuration error: {error}", file=sys.stderr)
        return 2
    info = kernel_info()
    print(
        f"serving {', '.join(args.store)} [{args.dialect}] on {server.url} "
        f"(kernels={info['backend']}, max_inflight={args.max_inflight})",
        file=out,
    )
    if os.environ.get(FAULTS_ENV):
        print(
            f"fault injection active: {FAULTS_ENV}="
            f"{os.environ[FAULTS_ENV]}",
            file=out,
        )
    out.flush()
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("draining...", file=out)
    except Exception as error:  # noqa: BLE001 — one line, not a traceback
        if args.verbose:
            traceback.print_exc(file=sys.stderr)
        print(
            f"serve: fatal: {type(error).__name__}: {error}", file=sys.stderr
        )
        server.close(drain_timeout=args.drain_timeout)
        return 1
    server.close(drain_timeout=args.drain_timeout)
    return 0


def _command_serve_stats(args: argparse.Namespace, out: TextIO) -> int:
    """Scrape and pretty-print a daemon's ``/stats`` document."""
    import json

    from .serve.client import ServeClient

    with ServeClient(args.url) as client:
        print(json.dumps(client.stats(), indent=2, sort_keys=True), file=out)
    return 0


def _command_sql(args: argparse.Namespace, out: TextIO) -> int:
    from .oracle import SQLGenerator

    generator = SQLGenerator()
    print(generator.generate(parse(args.query)), file=out)
    return 0


def _command_compile(args: argparse.Namespace, out: TextIO) -> int:
    from . import store

    trees = _load_trees(args.corpus)
    segments = getattr(args, "segments", None)
    segments = 1 if segments is None else segments
    rows = store.save_corpus(
        trees, args.output, segments=segments,
        format=getattr(args, "format", None),
    )
    suffix = f" in {segments} segments" if segments > 1 else ""
    revision = store.corpus_format(args.output)
    print(
        f"compiled {len(trees)} trees ({rows} label rows) to "
        f"{args.output}{suffix} [{revision}]",
        file=out,
    )
    return 0


def _command_store_info(args: argparse.Namespace, out: TextIO) -> int:
    from . import store

    info = store.corpus_info(args.path, top=args.top)
    kernels = kernel_info()
    native = (
        "available"
        if kernels["native_available"]
        else f"unavailable ({kernels['error']})"
    )
    print(f"file: {info['path']} ({info['bytes']} bytes)", file=out)
    print(f"format: {info['format']}", file=out)
    print(f"scheme: {info['scheme']}", file=out)
    print(
        f"kernels: backend={kernels['backend']} mode={kernels['mode']} "
        f"native {native}",
        file=out,
    )
    print(f"segments: {info['segments']}", file=out)
    print(f"rows: {info['rows']}", file=out)
    print(f"trees: {info['trees']}", file=out)
    print(f"distinct names: {info['distinct_names']}", file=out)
    if "generation" in info:  # a live (LPDB0005) directory
        print(f"generation: {info['generation']}", file=out)
        print(
            f"base: {info['base_rows']} rows in {info['base_segments']} "
            "segment file(s)",
            file=out,
        )
        print(
            f"delta: {info['delta_rows']} rows in {info['wal_records']} "
            f"WAL record(s) ({info['wal_bytes']} bytes)",
            file=out,
        )
        print(f"next tid: {info['next_tid']}", file=out)
        if info.get("wal_torn_bytes"):
            print(
                f"torn WAL tail: {info['wal_torn_bytes']} byte(s) "
                "(truncated on the next writable open)",
                file=out,
            )
        if info.get("last_recovery"):
            print(f"last recovery: {info['last_recovery']}", file=out)
    if info["top_names"]:
        print(f"top {len(info['top_names'])} names by rows:", file=out)
        width = max(len(name) for name, _stats in info["top_names"])
        header = (
            f"  {'name':<{width}}  {'rows':>8}  {'parts':>7}  "
            f"{'maxpart':>7}  depth"
        )
        print(header, file=out)
        for name, stats in info["top_names"]:
            rows, partitions, max_partition, min_depth, max_depth = stats
            print(
                f"  {name:<{width}}  {rows:>8}  {partitions:>7}  "
                f"{max_partition:>7}  {min_depth}..{max_depth}",
                file=out,
            )
    return 0


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _command_append(args: argparse.Namespace, out: TextIO) -> int:
    """Durably append bracketed trees to a live (LPDB0005) corpus —
    locally (taking the writer lock) or through a running daemon's
    ``POST /append`` (which additionally makes the rows queryable
    immediately on the served engine)."""
    from .store import StoreError

    text = _read_text(args.trees)
    if args.url is not None:
        from .serve.client import ServeClient, ServeClientError

        try:
            with ServeClient(args.url) as client:
                result = client.append(text, store=args.store or None)
        except ServeClientError as error:
            print(f"append: {error}", file=sys.stderr)
            return 1
    else:
        from .live import LiveCorpus

        try:
            with LiveCorpus(args.store) as corpus:
                result = corpus.append_trees(text)
        except StoreError as error:
            print(f"append: {error}", file=sys.stderr)
            return 1
    print(
        f"appended {result['trees']} trees ({result['rows']} label rows) "
        f"at tid {result['first_tid']} "
        f"[generation {result['generation']}, "
        f"{result['wal_records']} WAL records]",
        file=out,
    )
    return 0


def _command_compact(args: argparse.Namespace, out: TextIO) -> int:
    """Fold a live corpus's WAL rows into a fresh immutable base
    segment (a no-op when the delta is empty)."""
    from .live import LiveCorpus
    from .store import StoreError

    try:
        with LiveCorpus(args.store) as corpus:
            result = corpus.compact()
    except StoreError as error:
        print(f"compact: {error}", file=sys.stderr)
        return 1
    if not result["compacted_rows"]:
        print("nothing to compact (empty delta)", file=out)
        return 0
    absorbed = result["absorbed"]
    merged = f"absorbed {len(absorbed)} base file(s), " if absorbed else ""
    print(
        f"compacted {result['compacted_rows']} rows into "
        f"{result['segment']} [generation {result['generation']}, "
        f"{merged}{result['seconds']:.3f}s]",
        file=out,
    )
    return 0


def _command_stats(args: argparse.Namespace, out: TextIO) -> int:
    rows, tags = {}, {}
    for path in args.corpus:
        trees = _load_trees(path)
        rows[path] = corpus_stats(trees)
        tags[path] = top_tags(trees, 10)
    print(format_stats_table(rows), file=out)
    print("", file=out)
    print(format_top_tags_table(tags), file=out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="LPath: an XPath dialect for linguistic queries "
                    "(Bird et al., ICDE 2006 reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser("generate", help="generate a synthetic treebank")
    generate.add_argument("--profile", choices=("wsj", "swb"), default="wsj")
    generate.add_argument("--sentences", type=int, default=1000)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("-o", "--output", help="output file (default stdout)")
    generate.set_defaults(handler=_command_generate)

    query = commands.add_parser("query", help="run a query over a bracketed corpus")
    query.add_argument("corpus", nargs="?", default=None,
                       help="bracketed treebank file ('-' for stdin); with "
                            "--url, the query text itself")
    query.add_argument("query", nargs="?", default=None,
                       help="the query text (omitted with --url or --batch)")
    query.add_argument("--url", default=None, metavar="URL",
                       help="send the query to a running `repro serve` "
                            "daemon instead of loading a corpus "
                            "(e.g. http://127.0.0.1:8411)")
    query.add_argument("--engine", choices=ENGINES, default="lpath")
    query.add_argument("--count", action="store_true", help="print only the result size")
    query.add_argument("--limit", type=int, default=None, metavar="K",
                       help="return only the first K matches in document "
                            "order, with top-k early termination in the "
                            "plan engines (with --url: server-side top-k)")
    query.add_argument("--agg", choices=AGGREGATE_OPS, default=None,
                       help="evaluate an aggregate without materializing "
                            "result rows (lpath and xpath plan engines)")
    query.add_argument("--batch", default=None, metavar="FILE",
                       help="run every query in FILE as one shared-scan "
                            "batch ('-' for stdin; one query per line, or "
                            "JSON objects with query/limit/agg/pivot keys); "
                            "with --explain, print the shared-scan DAG")
    query.add_argument("--show", type=int, default=10,
                       help="matches to display (default 10)")
    query.add_argument("--pivot", action="store_true",
                       help="selectivity-driven join ordering "
                            "(lpath and xpath plan engines)")
    query.add_argument("--segments", type=int, default=None, metavar="N",
                       help="shard a treebank by tree into N independent "
                            "segments (lpath and xpath plan engines; a "
                            "compiled corpus keeps its on-disk segments)")
    query.add_argument("--mmap", action="store_true",
                       help="no-op, still accepted for old scripts: "
                            "compiled corpora always open zero-copy")
    query.add_argument("--kernels", choices=KERNEL_MODES, default=None,
                       help="columnar hot-loop backend: native cffi "
                            "kernels, the pure-Python loops, or pick "
                            "native when the extension builds (default: "
                            "the REPRO_KERNELS environment variable, "
                            "else auto)")
    query.add_argument("--explain", action="store_true",
                       help="print the logical and physical plan (with the "
                            "optimizer's per-join physical choice) instead "
                            "of running the query (lpath and xpath plan "
                            "engines)")
    query.add_argument("--cache-stats", action="store_true",
                       help="print plan-cache hit/miss/eviction counters "
                            "after the query (lpath and xpath plan engines)")
    query.set_defaults(handler=_command_query)

    serve = commands.add_parser(
        "serve",
        help="run a long-lived query daemon over compiled corpora",
    )
    serve.add_argument("store", nargs="+",
                       help="compiled corpus file(s) to serve (LPDB0004 "
                            "files open zero-copy and stay mmap-backed)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8411,
                       help="listen port (0 binds an ephemeral port; "
                            "default 8411)")
    serve.add_argument("--dialect", choices=tuple(DIALECTS),
                       default="lpath",
                       help="the dialect requests must use (default "
                            "lpath); each store answers from the labels "
                            "it records")
    serve.add_argument("--kernels", choices=KERNEL_MODES, default=None,
                       help="columnar hot-loop backend for the daemon's "
                            "lifetime (default: the REPRO_KERNELS "
                            "environment variable, else auto)")
    serve.add_argument("--max-inflight", type=int, default=8, metavar="N",
                       help="queries executing concurrently before "
                            "admission control queues (default 8)")
    serve.add_argument("--max-queue", type=int, default=16, metavar="N",
                       help="queries allowed to wait for a slot before "
                            "the daemon answers 429 (default 16)")
    serve.add_argument("--timeout", type=float, default=30.0, metavar="SEC",
                       help="per-query deadline, queue time included "
                            "(default 30s; requests may lower it via "
                            "timeout_ms)")
    serve.add_argument("--result-cache", type=int, default=256, metavar="N",
                       help="result-cache capacity in entries (0 disables; "
                            "default 256)")
    serve.add_argument("--compact-rows", type=int, default=0, metavar="N",
                       help="live stores only: background-compact the "
                            "WAL delta once it reaches N rows "
                            "(default 0 = never; compact manually with "
                            "'repro compact')")
    serve.add_argument("--drain-timeout", type=float, default=10.0,
                       metavar="SEC",
                       help="how long shutdown waits for in-flight "
                            "queries (default 10s)")
    serve.add_argument("--verbose", action="store_true",
                       help="log one line per request to stderr")
    serve.set_defaults(handler=_command_serve)

    serve_stats = commands.add_parser(
        "serve-stats",
        help="print a running daemon's /stats document (plan cache, "
             "result cache, kernels, per-store config)",
    )
    serve_stats.add_argument("url", help="daemon base url")
    serve_stats.set_defaults(handler=_command_serve_stats)

    sql = commands.add_parser("sql", help="translate an LPath query to SQL")
    sql.add_argument("query")
    sql.set_defaults(handler=_command_sql)

    compile_cmd = commands.add_parser(
        "compile", help="label a bracketed corpus into a binary file"
    )
    compile_cmd.add_argument("corpus", help="bracketed treebank file")
    compile_cmd.add_argument("-o", "--output", required=True)
    compile_cmd.add_argument("--segments", type=int, default=None, metavar="N",
                             help="shard the corpus by tree into N "
                                  "segments (default: one store)")
    compile_cmd.add_argument("--format",
                             choices=("lpdb0004", "lpdb0005"),
                             default="lpdb0004",
                             help="on-disk revision: lpdb0004 (default) "
                                  "writes the zero-copy mmap layout "
                                  "(columns + statistics pre-built, "
                                  "millisecond opens); lpdb0005 writes a "
                                  "live *directory* (WAL-backed, "
                                  "appendable with 'repro append')")
    compile_cmd.set_defaults(handler=_command_compile)

    store_cmd = commands.add_parser(
        "store", help="inspect compiled corpus files"
    )
    store_sub = store_cmd.add_subparsers(dest="store_command", required=True)
    info = store_sub.add_parser(
        "info",
        help="format revision, segment/row/tree counts and top-k name "
             "statistics (LPDB0004: sidecar only — no column data read)",
    )
    info.add_argument("path", help="compiled corpus file")
    info.add_argument("--top", type=int, default=10, metavar="K",
                      help="names to list, ranked by row count (default 10)")
    info.set_defaults(handler=_command_store_info)

    append_cmd = commands.add_parser(
        "append",
        help="durably append bracketed trees to a live (LPDB0005) corpus",
    )
    append_cmd.add_argument("store",
                            help="live corpus directory (or, with --url, "
                                 "the served store path)")
    append_cmd.add_argument("trees",
                            help="bracketed treebank file ('-' for stdin)")
    append_cmd.add_argument("--url", default=None, metavar="URL",
                            help="append through a running daemon's "
                                 "POST /append instead of opening the "
                                 "directory (read-your-writes on the "
                                 "served engine)")
    append_cmd.set_defaults(handler=_command_append)

    compact_cmd = commands.add_parser(
        "compact",
        help="fold a live corpus's WAL delta into a fresh immutable "
             "base segment",
    )
    compact_cmd.add_argument("store", help="live corpus directory")
    compact_cmd.set_defaults(handler=_command_compact)

    stats = commands.add_parser("stats", help="dataset characteristics (Fig 6a/6b)")
    stats.add_argument("corpus", nargs="+")
    stats.set_defaults(handler=_command_stats)

    return parser


def main(argv: Optional[Sequence[str]] = None, out: TextIO = sys.stdout) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args, out)
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except Exception as error:  # surface engine/parse errors cleanly
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
