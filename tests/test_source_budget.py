"""Minimal is a gate: the source may not grow past its recorded ceiling,
``import repro`` loads exactly the modules on record, the references the
engines are checked against stay out of the product, and no module
generates code at run time.

``SOURCE_BUDGET.json`` at the repository root holds the ceiling and the
module list.  A change that deletes code lowers ``src_repro_py_lines`` to
its own count, and one that stops loading a module at import time drops
it from the list; one that has to grow the source, or to load a module
at import time, raises the number or extends the list in the same diff,
where it is seen and argued.
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

#: Prints the ``repro`` modules (and ``sqlite3``, if it is among them) a
#: bare ``import repro`` leaves loaded.
LOADED = (
    "import json, sys; sys.path.insert(0, sys.argv[1]); import repro; "
    "print(json.dumps(sorted(m for m in sys.modules "
    "if m.split('.')[0] in ('repro', 'sqlite3'))))"
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


def _loaded() -> set:
    found = subprocess.run(
        [sys.executable, "-I", "-B", "-c", LOADED, str(SRC)],
        capture_output=True, text=True, check=True,
    )
    return set(json.loads(found.stdout))


def test_import_repro_loads_no_new_module():
    loaded = _loaded() - {"sqlite3"}
    pinned = set(BUDGET["import_repro_modules"])
    grown, gone = sorted(loaded - pinned), sorted(pinned - loaded)
    assert not grown, (
        f"`import repro` now also loads {grown}: import them where they are "
        "used, or add them to SOURCE_BUDGET.json in this change and say why"
    )
    assert not gone, (
        f"`import repro` no longer loads {gone}: drop them from "
        "SOURCE_BUDGET.json in this change"
    )


def _imports(path: Path):
    """``(line, module)`` for every absolute import in ``path`` and every
    relative one resolved against its package (``from . import x`` names
    ``package.x``)."""
    package = ("repro",) + path.relative_to(SRC / "repro").parent.parts
    for node in ast.walk(ast.parse(path.read_bytes(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else ()
            module = ".".join(base + tuple(filter(None, [node.module])))
            yield node.lineno, module
            for alias in node.names:
                yield node.lineno, f"{module}.{alias.name}"


def test_the_references_stay_out_of_the_product():
    """The tree walk and the SQL translation are what the engines are
    checked against, not part of them: only ``repro/__init__.py`` (its
    lazy ``TreeWalkEvaluator``) and ``repro/cli.py`` (``repro sql`` and
    ``query --engine treewalk|sqlite``) import ``repro.oracle``, and
    ``sqlite3`` is imported only under ``repro/oracle/``.  A bare
    ``import repro`` loads neither."""
    oracle, sqlite = set(), set()
    for path in sorted((SRC / "repro").rglob("*.py")):
        where = path.relative_to(SRC / "repro").as_posix()
        if where.startswith("oracle/"):
            continue
        for line, module in _imports(path):
            root = module.split(".")
            if root[:2] == ["repro", "oracle"] and where not in (
                "__init__.py", "cli.py"
            ):
                oracle.add(f"{where}:{line}")
            if root[0] == "sqlite3":
                sqlite.add(f"{where}:{line}")
    assert not oracle, f"repro.oracle imported by the product: {sorted(oracle)}"
    assert not sqlite, f"sqlite3 imported outside repro/oracle/: {sorted(sqlite)}"
    loaded = _loaded()
    assert not [
        m for m in loaded if m == "sqlite3" or m.startswith("repro.oracle")
    ], sorted(loaded)


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
