"""Minimal is a gate: the source may not grow past its recorded ceiling,
``import repro`` may not load more of the package than it does now, and
no module generates code at run time.

``SOURCE_BUDGET.json`` at the repository root holds both.  A change that
deletes code lowers ``src_repro_py_lines`` to its own count; one that has
to grow the source, or to load a module at import time, raises the
number or extends the list in the same diff, where it is seen and argued.
"""

from __future__ import annotations

import ast
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BUDGET = json.loads((ROOT / "SOURCE_BUDGET.json").read_text())

#: Prints the ``repro`` modules a bare ``import repro`` leaves loaded.
LOADED = (
    "import json, sys; sys.path.insert(0, sys.argv[1]); import repro; "
    "print(json.dumps(sorted(m for m in sys.modules "
    "if m.split('.')[0] == 'repro')))"
)


def test_the_source_stays_under_its_line_ceiling():
    lines = sum(  # what `wc -l` counts: newlines
        path.read_bytes().count(b"\n")
        for path in (SRC / "repro").rglob("*.py")
    )
    ceiling = BUDGET["src_repro_py_lines"]
    assert lines <= ceiling, (
        f"src/repro/**/*.py is {lines} lines, over the {ceiling} ceiling in "
        "SOURCE_BUDGET.json: delete code, or raise the ceiling in this "
        "change and say why"
    )


def test_import_repro_loads_no_new_module():
    found = subprocess.run(
        [sys.executable, "-I", "-B", "-c", LOADED, str(SRC)],
        capture_output=True, text=True, check=True,
    )
    loaded = set(json.loads(found.stdout))
    grown = sorted(loaded - set(BUDGET["import_repro_modules"]))
    assert not grown, (
        f"`import repro` now also loads {grown}: import them where they are "
        "used, or add them to SOURCE_BUDGET.json in this change and say why"
    )


def test_no_module_runs_generated_code():
    """Every loop under ``src/repro`` is source a reader can check by eye:
    no call to the ``exec`` or ``eval`` builtins."""
    calls = [
        f"{path.relative_to(SRC)}:{node.lineno} {node.func.id}()"
        for path in sorted((SRC / "repro").rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_bytes(), str(path)))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("exec", "eval")
    ]
    assert not calls, f"generated code under src/repro: {calls}"


def test_only_the_daemon_and_the_compactor_start_threads():
    """A query runs in its caller's thread, segment after segment.  Only
    the daemon (its accept loop and handler pool) and the live compactor
    start threads: ``concurrent.futures`` is imported only under
    ``repro/serve/``, and ``threading.Thread`` is built only in
    ``serve/daemon.py`` and ``live.py``."""
    futures, threads = [], []
    for path in sorted((SRC / "repro").rglob("*.py")):
        where = path.relative_to(SRC / "repro").as_posix()
        for node in ast.walk(ast.parse(path.read_bytes(), str(path))):
            site = f"{where}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module] + [
                    f"{node.module}.{alias.name}" for alias in node.names
                ]
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "Thread"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "threading"
            ):
                names = ["threading.Thread"]
            else:
                continue
            if not where.startswith("serve/") and any(
                name.split(".")[0] == "concurrent" for name in names
            ):
                futures.append(site)
            if where not in ("serve/daemon.py", "live.py") and (
                "threading.Thread" in names
            ):
                threads.append(site)
    assert not futures, f"concurrent.futures outside repro/serve/: {futures}"
    assert not threads, f"threads started outside the daemon: {threads}"
