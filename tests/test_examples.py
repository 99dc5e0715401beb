"""The examples that check the engine against the references run clean:
each asserts that the engine's answers equal the tree walk's or the SQL
translation's, so a non-zero exit is a disagreement or a broken import."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("example", ["quickstart.py", "sql_translation.py"])
def test_example_runs(example, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "examples" / example)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
