"""Tier-1 smoke test: the whole benchmark set at toy size.

Runs all four workloads, untraced and traced, through the same
per-pass processes the benchmark driver uses (200 sentences, 0.4 s
windows) and checks the contract around the numbers, never the numbers:
every answer right, every declared name emitted and well-formed, nothing
left behind.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

SUITE_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT_DIR = os.path.dirname(os.path.dirname(SUITE_DIR))
WORK_ROOT = os.path.join(SUITE_DIR, ".work")
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def work_directories() -> set[str]:
    """Per-pass directories and documents under the work root (the
    ``trace-<workload>.json`` files are meant to stay)."""
    try:
        return {name for name in os.listdir(WORK_ROOT)
                if not name.startswith("trace-")}
    except FileNotFoundError:
        return set()


def processes_using(path: str) -> set[str]:
    found = set()
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as handle:
                command = handle.read().replace(b"\0", b" ").decode(errors="replace")
        except OSError:
            continue
        if path in command:
            found.add(f"{pid}: {command}")
    return found


def test_suite_smoke(tmp_path):
    out = tmp_path / "smoke.json"
    # Another benchmark run may share the checkout: compare with before.
    stores_before, children_before = work_directories(), processes_using(WORK_ROOT)
    done = subprocess.run(
        [sys.executable, os.path.join(SUITE_DIR, "run.py"), "--smoke",
         "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    result = json.loads(out.read_text())
    with open(os.path.join(ROOT_DIR, "BENCHMARK.json"), encoding="utf-8") as handle:
        contract = json.load(handle)

    declared = {
        section: [entry["name"] for entry in contract[section]]
        for section in ("workloads", "end_to_end", "per_layer")
    }
    assert len(declared["workloads"]) <= 8
    assert len(declared["end_to_end"]) <= 16
    assert len(declared["per_layer"]) <= 128
    for names in declared.values():
        assert all(NAME.match(name) for name in names)
        assert len(set(names)) == len(names)

    assert list(result["workloads"]) == declared["workloads"]
    for name, entry in result["workloads"].items():
        checks = entry["checks"]
        assert checks["failed"] == 0 and checks["correct"], (name, checks)
        assert checks["attempted"] > 0
        assert list(entry["end_to_end"]) == declared["end_to_end"]
        assert list(entry["per_layer"]) == declared["per_layer"]
        for metric, cell in entry["end_to_end"].items():
            assert cell["value"] is not None and cell["value"] > 0, (name, metric)
        assert entry["per_layer"]["bench.trace_overhead_share"]["value"] is not None
        assert os.path.exists(entry["trace_file"])
    live = result["workloads"]["live_append_query"]["per_layer"]
    assert live["live.durable_share"]["value"] == 1.0

    # Nothing survives a run: no daemon child, no temp store.
    assert work_directories() <= stores_before
    assert processes_using(WORK_ROOT) <= children_before
