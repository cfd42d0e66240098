"""``flowerlab.cli`` imports a library module only when a handler runs it.

Each case starts a fresh interpreter, imports the CLI, runs some commands
through ``cli.run`` and reports which of the lazily imported modules are
loaded, so an import left at module level (or a handler that lost its own
import) shows up here."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
LAZY = ("mpmath", "flowerlab.soddy", "flowerlab.geometry", "flowerlab.pythag",
        "flowerlab.discrepancy")

SCRIPT = """
import io, json, sys
import flowerlab.cli
from flowerlab import flowerpoly
for argv in json.loads(sys.argv[1]):
    code = flowerlab.cli.run(argv, io.StringIO(), io.StringIO())
    assert code == 0, (argv, code)
print(json.dumps(sorted(m for m in json.loads(sys.argv[2]) if m in sys.modules)))
"""


def loaded_after(commands) -> set[str]:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(commands), json.dumps(LAZY)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


def test_importing_the_cli_loads_no_lazy_module():
    assert loaded_after([]) == set()


def test_polynomial_commands_load_no_lazy_module():
    commands = [["pn", "--n", "3"], ["cn", "--n", "3"], ["verify", "--n", "3", "--all"]]
    assert loaded_after(commands) == set()


def test_pyth_loads_only_pythag():
    assert loaded_after([["pyth", "--beta", "2", "--bound", "20"]]) == {"flowerlab.pythag"}


@pytest.mark.parametrize("argv", [["discrepancy"], ["flower", "check", *["1"] * 7]],
                         ids=lambda argv: argv[0])
def test_geometry_commands_load_mpmath(argv):
    assert {"flowerlab.geometry", "mpmath"} <= loaded_after([argv])
