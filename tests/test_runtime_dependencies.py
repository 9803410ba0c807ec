"""The package runs without networkx.

networkx is a test extra only (an independent oracle for the graph routines),
so the checker with its extension levels, the multi-witness enumeration and
the corpus self-test must run in an interpreter where importing it fails.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import io
import sys

sys.modules["networkx"] = None  # any import of it now raises ImportError

import repro
from repro.cli import main
from repro.core import DSG, parse_history

h = parse_history("r1(x0) r2(x0) w2(x2) c2 w1(x1) c1 [x0 << x2 << x1]")
report = repro.check(h, extensions=True)
assert str(report.strongest_level) == "PL-CS", report.strongest_level
(cycle,) = DSG(h).find_cycles(lambda e: True)
assert set(cycle.nodes) == {1, 2}
assert main(["corpus"], out=io.StringIO()) == 0
print("ok")
"""


def test_checker_runs_without_networkx():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"
