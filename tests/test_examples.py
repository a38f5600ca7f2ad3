"""Every script under ``examples/`` runs to completion.

Each example runs in its own interpreter, as a reader would start it
(``python examples/<name>.py``), with ``src/`` on the import path.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXAMPLES = sorted(name for name in os.listdir(os.path.join(ROOT, "examples"))
                  if name.endswith(".py"))


def test_examples_are_found():
    assert len(EXAMPLES) >= 4


@pytest.mark.parametrize("example", EXAMPLES)
def test_example_runs(example):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, os.path.join(ROOT, "examples", example)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert completed.returncode == 0, completed.stdout + completed.stderr
