#!/usr/bin/env python3
"""The LPath system benchmark: one command.

Measure one pass of one workload (what the benchmark driver calls)::

    python3 benchmarks/suite/run.py --workload paper_suite --seed 7 \\
        --seconds 10 --trace 0

prints progress on stderr and, as the last line of stdout, one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` holding every
end-to-end metric (``--trace 0``) or every per-layer metric
(``--trace 1``) that ``BENCHMARK.json`` declares.

Without ``--trace`` the command runs the whole set -- for each workload
an untraced pass, then a traced pass, each in a fresh process -- prints
every metric by name with its unit, and writes the document to ``--out``::

    python3 benchmarks/suite/run.py [--seed N] [--workload NAME] [--out FILE]
    python3 benchmarks/suite/run.py --check-repeat
    python3 benchmarks/suite/run.py --regen-expected
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import harness
from adhoc_lexical import AdhocLexical
from harness import DEFAULT_SEED, FULL, NOT_MEASURED, SMOKE, median, now
from live_append_query import LiveAppendQuery
from paper_suite import PaperSuite
from serve_mixed import ServeMixed
from spans import NO_TRACE, Tracer

WORKLOADS = {
    workload.name: workload
    for workload in (PaperSuite, AdhocLexical, ServeMixed, LiveAppendQuery)
}


def load_contract() -> dict:
    with open(os.path.join(harness.ROOT_DIR, "BENCHMARK.json"),
              encoding="utf-8") as handle:
        return json.load(handle)


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


# -- one pass of one workload, in this process ---------------------------------


def timed_window(workload, seconds: float, tracer=NO_TRACE):
    """Run one window with everything allocated so far -- the oracle's
    trees above all, millions of objects no user's process would hold --
    frozen out of the garbage collector, so that a full collection in the
    middle of the window walks the system's objects and not the
    benchmark's."""
    gc.collect()
    gc.freeze()
    try:
        return workload.run_window(seconds, tracer)
    finally:
        gc.unfreeze()


def end_to_end_pass(cls, sizes, seed: int, seconds: float, work: str) -> dict:
    """Set up ``sizes.setup_repeats`` times (median -> ``setup_s``), then
    one untraced window on the last set-up."""
    setups = []
    workload = None
    try:
        for _ in range(sizes.setup_repeats):
            if workload is not None:
                workload.teardown()
            workload = cls(sizes, seed, work)
            begun = now()
            workload.setup()
            setups.append(now() - begun)
        workload.prepare_checks()
        window = timed_window(workload, seconds)
        workload.verify(window)
        metrics = {
            "setup_s": median(setups),
            "ops_per_s": window.summary()["ops_per_s"],
            "store_bytes_per_node": workload.store_bytes_per_node(),
        }
        workload.close_checks(window)
    finally:
        if workload is not None:
            workload.teardown()
    metrics["peak_rss_mb"] = workload.peak_rss_mb()  # children are reaped now
    return {"window": window, "metrics": metrics, "errors": workload.errors}


def per_layer_pass(cls, sizes, seed: int, seconds: float, work: str) -> dict:
    """One set-up, half the window untraced and half traced (their
    throughput ratio is the tracing overhead), then the probes."""
    tracer = Tracer()
    workload = cls(sizes, seed, work)
    try:
        workload.setup(tracer)
        begun = now()
        workload.prepare_checks()
        oracle_seconds = now() - begun
        plain = timed_window(workload, seconds / 2)
        workload.verify(plain)
        workload.install_spans(tracer)
        try:
            traced = timed_window(workload, seconds / 2, tracer)
            workload.verify(traced)
            metrics = workload.probes(tracer, traced)
        finally:
            tracer.unwrap_all()
        metrics.update(workload.offline_probes())
        metrics["bench.oracle_s"] = oracle_seconds
        metrics["bench.traced_ops"] = float(len(traced.samples))
        untraced = plain.summary()
        metrics["op.p50_ms"] = untraced["p50_ms"]
        metrics["op.p95_ms"] = untraced["p95_ms"]
        metrics["bench.trace_overhead_share"] = (
            1.0 - traced.summary()["ops_per_s"] / untraced["ops_per_s"])
        plain.merge(traced)
        workload.close_checks(plain)
        metrics.update(workload.layer)
    finally:
        workload.teardown()
    return {"window": plain, "metrics": metrics, "errors": workload.errors,
            "tracer": tracer}


def run_pass(name: str, sizes, seed: int, seconds: float, traced: bool,
             out_path: str | None) -> int:
    """Driver entry: run one pass, print the contract line last."""
    contract = load_contract()
    declared = contract["per_layer" if traced else "end_to_end"]
    work = harness.bootstrap()
    cls = WORKLOADS[name]
    try:
        runner = per_layer_pass if traced else end_to_end_pass
        log(f"[{name}] {'traced' if traced else 'untraced'} pass: seed {seed}, "
            f"{sizes.sentences} sentences, {seconds:g} s window")
        result = runner(cls, sizes, seed, seconds, work)
        trace_file = None
        if traced:
            trace_file = os.path.join(harness.WORK_ROOT, f"trace-{name}.json")
            result["tracer"].write(
                trace_file,
                {"workload": name, "seed": seed, "sentences": sizes.sentences})
        provenance = harness.provenance(seed, sizes, seconds)
    finally:
        harness.remove_work(work)
    window, metrics = result["window"], result["metrics"]
    undeclared = sorted(set(metrics) - {entry["name"] for entry in declared})
    if undeclared:
        log(f"error: metrics not declared in BENCHMARK.json: {undeclared}")
        return 3
    log(f"[{name}] {len(window.samples)} ops in {len(window.rounds)} rounds "
        f"of {cls.round_ops}")
    for reason, count in sorted(window.failures.items()):
        log(f"[{name}] FAILED x{count}: {reason}")
    for metric, error in sorted(result["errors"].items()):
        log(f"[{name}] not measured: {metric}: {error}")
    document = {
        "workload": name,
        "traced": traced,
        "correct": window.failed == 0,
        "attempted": window.attempted,
        "failed": window.failed,
        "failures": dict(window.failures),
        "samples": len(window.samples),
        "rounds": len(window.rounds),
        "round_ops": cls.round_ops,
        "trace_file": trace_file,
        # Not bounded, so not in the driver's line of an untraced pass;
        # --check-repeat lists them beside the bounded metrics.
        "window_ms": {key: value for key, value in window.summary().items()
                      if key != "ops_per_s"},
        "metrics": {
            entry["name"]: {"value": metrics.get(entry["name"]),
                            "unit": entry["unit"]}
            for entry in declared
        },
        "probe_errors": result["errors"],
        "provenance": provenance,
    }
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1)
    if not traced and None in metrics.values():
        log("error: an end-to-end metric was not measured")
        return 3
    line = {
        "correct": document["correct"],
        "attempted": document["attempted"],
        "failed": document["failed"],
        "metrics": {
            metric: {"value": NOT_MEASURED if cell["value"] is None
                     else cell["value"], "unit": cell["unit"]}
            for metric, cell in document["metrics"].items()
        },
    }
    print(json.dumps(line), flush=True)
    return 0


# -- the whole set: every pass in a fresh process --------------------------------


def child_pass(name: str, traced: bool, args, out_path: str) -> dict:
    """Run one pass as the driver would and read back its document."""
    command = [
        sys.executable, os.path.abspath(__file__), "--workload", name,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", "1" if traced else "0", "--out", out_path,
    ]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{name} pass exited with code {done.returncode}")
    line = json.loads(done.stdout.splitlines()[-1])
    if set(line) != {"correct", "attempted", "failed", "metrics"}:
        raise SystemExit(f"{name} pass printed a malformed result line")
    with open(out_path, encoding="utf-8") as handle:
        document = json.load(handle)
    os.unlink(out_path)
    return document


def run_set(args, names, traced_too: bool = True) -> dict:
    """Every requested workload: an untraced pass (end-to-end metrics)
    and, unless ``traced_too`` is off, a traced pass (per-layer)."""
    os.makedirs(harness.WORK_ROOT, exist_ok=True)
    passes = [
        (name, traced) for name in names
        for traced in ((False, True) if traced_too else (False,))
    ]

    def one(job):
        name, traced = job
        path = os.path.join(
            harness.WORK_ROOT, f"pass-{os.getpid()}-{name}-{int(traced)}.json")
        return child_pass(name, traced, args, path)

    # Measured runs go one at a time; at smoke size timing means nothing
    # and tier-1's clock does, so smoke passes share the cores.
    with ThreadPoolExecutor(2 if args.smoke else 1) as pool:
        documents = list(pool.map(one, passes))
    result = {"provenance": documents[0]["provenance"], "workloads": {}}
    for (name, traced), document in zip(passes, documents):
        entry = result["workloads"].setdefault(name, {})
        entry["per_layer" if traced else "end_to_end"] = document["metrics"]
        if traced:
            entry["trace_file"] = document["trace_file"]
        else:
            entry["window_ms"] = document["window_ms"]
        checks = entry.setdefault(
            "checks", {"correct": True, "attempted": 0, "failed": 0,
                       "failures": {}, "probe_errors": {}})
        checks["correct"] = checks["correct"] and document["correct"]
        checks["attempted"] += document["attempted"]
        checks["failed"] += document["failed"]
        checks["failures"].update(document["failures"])
        checks["probe_errors"].update(document["probe_errors"])
    return result


#: What each workload is built to stress, checked on the traced pass of
#: the whole-set command: a workload outside its range no longer measures
#: what BENCHMARK.json says it does, and the command exits non-zero.  (A
#: later change that, say, halves compile time may end up here; the
#: benchmark then needs a change of its own, with the baseline re-measured.)
SHAPE_CHECKS = (
    ("adhoc_lexical", "adhoc.compile_share", 0.60, 1.00),
    ("adhoc_lexical", "adhoc.nonempty_share", 0.50, 1.00),
    ("adhoc_lexical", "plan.cache_hit_rate", 0.00, 0.01),
    ("paper_suite", "plan.cache_hit_rate", 0.99, 1.00),
    ("serve_mixed", "serve.result_cache_hit_rate", 0.75, 0.95),
)


def print_set(result: dict) -> int:
    """Print every metric by name with its unit; returns how many shape
    checks the traced passes missed."""
    for name, entry in result["workloads"].items():
        checks = entry["checks"]
        share = checks["failed"] / checks["attempted"]
        print(f"== {name}: {checks['attempted']} attempted, "
              f"{checks['failed']} failed (failed_share {share:.6f})")
        for section in ("end_to_end", "per_layer"):
            for metric, cell in entry.get(section, {}).items():
                value = cell["value"]
                if value is None:
                    why = checks["probe_errors"].get(metric)
                    if why is None:
                        continue  # a layer this workload does not exercise
                    shown = f"not measured ({why})"
                else:
                    shown = f"{value:.6g} {cell['unit']}"
                print(f"  {section:10s} {metric:34s} {shown}")
    missed = 0
    for name, metric, low, high in SHAPE_CHECKS:
        cell = result["workloads"].get(name, {}).get("per_layer", {}).get(metric)
        if cell is None:
            continue  # that workload's traced pass was not asked for
        inside = cell["value"] is not None and low <= cell["value"] <= high
        missed += not inside
        print(f"shape {'ok' if inside else 'MISSED'}: {name} {metric} = "
              f"{cell['value']} (built for {low:g}..{high:g})")
    return missed


#: ``--check-repeat`` compares two sets of this many untraced runs per
#: workload, interleaved (A B A B A B), by their medians -- the way the
#: benchmark driver compares two commits, at a third of its run count.
#: Single runs on this box differ by more than any bound may allow: its
#: slow phases last minutes (README, "How steady the numbers are").
REPEAT_RUNS = 3


def median_of_sets(sets: list[dict]) -> dict:
    """One document holding, per (workload, end-to-end metric), the
    median over ``sets``."""
    result = {"provenance": sets[0]["provenance"], "workloads": {}}
    for name, entry in sets[0]["workloads"].items():
        entries = [one["workloads"][name] for one in sets]
        result["workloads"][name] = {
            "end_to_end": {
                metric: {"unit": cell["unit"], "value": median(
                    one["end_to_end"][metric]["value"] for one in entries)}
                for metric, cell in entry["end_to_end"].items()
            },
            "window_ms": {
                name: median(one["window_ms"][name] for one in entries)
                for name in entry["window_ms"]
            },
            "failed": sum(one["checks"]["failed"] for one in entries),
        }
    return result


def compare(first: dict, second: dict) -> int:
    """Two sets of runs of the same code: print, per (end-to-end metric,
    workload), both medians, their relative gap and the bound; non-zero
    when a gap exceeds its bound in either direction.  Refuses sets that
    were not measured alike."""
    for key in ("kernel_backend", "sizes", "sentences", "window_seconds", "nproc"):
        if first["provenance"].get(key) != second["provenance"].get(key):
            print(f"refusing to compare: {key} differs "
                  f"({first['provenance'].get(key)!r} vs "
                  f"{second['provenance'].get(key)!r})")
            return 2
    contract = {entry["name"]: entry for entry in load_contract()["end_to_end"]}
    exceeded = 0
    print(f"{'workload':20s} {'metric':22s} {'first':>12s} {'second':>12s} "
          f"{'gap':>8s} {'bound':>6s}")
    for name, entry in first["workloads"].items():
        other = second["workloads"][name]
        for metric, cell in entry["end_to_end"].items():
            old, new = cell["value"], other["end_to_end"][metric]["value"]
            gap = (new - old) / old
            over = abs(gap) > contract[metric]["bound"]
            exceeded += over
            print(f"{name:20s} {metric:22s} {old:12.5g} {new:12.5g} "
                  f"{gap:+8.2%} {contract[metric]['bound']:6.0%}"
                  f"{'  EXCEEDED' if over else ''}")
        for metric, old in entry["window_ms"].items():  # demoted: no bound
            new = other["window_ms"][metric]
            print(f"{name:20s} {'op.' + metric:22s} {old:12.5g} {new:12.5g} "
                  f"{(new - old) / old:+8.2%} {'-':>6s}")
        for side, failed in (("first", entry["failed"]), ("second", other["failed"])):
            if failed:
                print(f"{name:20s} {side}: {failed} failed operations")
                exceeded += 1
    return 1 if exceeded else 0


def regen_expected() -> int:
    """Pin the default corpus's treewalk counts in ``expected.json``."""
    import queries as Q
    from workload import EXPECTED_PATH

    work = harness.bootstrap()
    try:
        from repro.corpus.generator import generate_corpus

        trees = generate_corpus("wsj", FULL.sentences, DEFAULT_SEED)
        rows = harness.treewalk_rows(trees, Q.PAPER_QUERIES)
    finally:
        harness.remove_work(work)
    with open(EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump(
            {"seed": DEFAULT_SEED, "sentences": FULL.sentences,
             "source": "TreeWalkEvaluator (backend='treewalk')",
             "counts": {text: len(found) for text, found in rows.items()}},
            handle, indent=1)
        handle.write("\n")
    print(f"wrote {EXPECTED_PATH}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=tuple(WORKLOADS), default=None)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed window per pass (default: run_seconds "
                             "of BENCHMARK.json; 0.4 with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="run ONE pass in this process (needs --workload)")
    parser.add_argument("--out", default=None, metavar="FILE")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny corpus and windows; for the tier-1 test")
    parser.add_argument("--check-repeat", action="store_true",
                        help="run two interleaved sets of untraced runs and "
                             "compare their medians against the bounds")
    parser.add_argument("--regen-expected", action="store_true")
    args = parser.parse_args(argv)
    if args.regen_expected:
        return regen_expected()
    if args.seconds is None:
        args.seconds = 0.4 if args.smoke else float(load_contract()["run_seconds"])
    sizes = SMOKE if args.smoke else FULL
    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace runs one pass and needs --workload")
        return run_pass(args.workload, sizes, args.seed, args.seconds,
                        bool(args.trace), args.out)
    names = [args.workload] if args.workload else list(WORKLOADS)
    if args.check_repeat:
        sets = [run_set(args, names, traced_too=False)
                for _ in range(2 * REPEAT_RUNS)]
        return compare(median_of_sets(sets[0::2]), median_of_sets(sets[1::2]))
    result = run_set(args, names)
    missed = print_set(result)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(result, handle, indent=1)
    correct = all(
        entry["checks"]["correct"] for entry in result["workloads"].values())
    # At smoke size the shapes mean nothing (a 200-sentence corpus).
    return 0 if correct and (args.smoke or not missed) else 1


if __name__ == "__main__":
    sys.exit(main())
