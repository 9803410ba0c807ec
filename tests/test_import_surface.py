"""What a process imports: each package loads a submodule when one of its
names is first read, so an entry point loads only what it runs.

Every case runs in a fresh interpreter (``sys.modules`` of this one holds
whatever earlier tests imported) and prints the ``repro`` modules it
ended with, or what it found wrong.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

PACKAGES = (
    "repro",
    "repro.core",
    "repro.engine",
    "repro.service",
    "repro.observability",
    "repro.analysis",
    "repro.baseline",
    "repro.checker",
    "repro.workloads",
)

#: Printed by a case as its last line: the ``repro`` modules it loaded.
LOADED = """
import json, sys
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "repro")))
"""


def _run(code: str) -> list:
    done = subprocess.run(
        [sys.executable, "-c", code + LOADED],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_import_repro_loads_only_the_surface():
    assert _run("import repro") == ["repro", "repro._surface"]


def test_the_ladder_loads_no_report_plane():
    loaded = _run(
        "import sys\n"
        "sys.path[:0] = ['benchmarks/ladder']\n"
        "from rungs import RUNGS\n"
    )
    assert "repro.service.stress" in loaded  # not vacuous
    for module in (
        "repro.service.capacity",
        "repro.observability.traceview",
        "repro.observability.windows",
        "repro.engine.mobile",
        "repro.analysis.spectrum",
        "repro.core.ssg",
        "repro.workloads.arrivals",
    ):
        assert module not in loaded


def test_repro_check_loads_only_the_checker():
    loaded = _run(
        "import io\n"
        "from repro.cli import main\n"
        "out = io.StringIO()\n"
        "assert main(['check', 'w1(x1) c1 r2(x1) c2'], out) == 0\n"
        "assert 'strongest level: PL-3' in out.getvalue()\n"
    )
    assert "repro.checker.checker" in loaded
    for package in ("service", "observability", "engine", "workloads", "analysis"):
        assert not [m for m in loaded if m.split(".")[:2] == ["repro", package]]


#: Checks every package's surface; with ``modules_first`` it imports every defining
#: submodule before reading a name (a submodule named like its export,
#: ``repro.core.timeline``, must not shadow it).
SURFACE = """
import importlib
modules_first = {modules_first}
problems = []
for name in {packages}:
    package = importlib.import_module(name)
    table = package._exports
    if modules_first:
        for source in table.values():
            importlib.import_module(source, name)
    listed = dir(package)
    for export, source in table.items():
        held = getattr(importlib.import_module(source, name), export)
        if getattr(package, export) is not held:
            problems.append(f"{{name}}.{{export}} is not {{source}}'s")
        if export not in listed:
            problems.append(f"dir({{name}}) misses {{export}}")
    if package.__all__[: len(table)] != list(table):
        problems.append(f"{{name}}.__all__ is not its table")
assert not problems, problems
"""


@pytest.mark.parametrize("modules_first", (False, True))
def test_every_export_resolves_to_its_defining_module(modules_first):
    _run(SURFACE.format(modules_first=modules_first, packages=PACKAGES))


def test_star_import_binds_every_name():
    _run(
        "import repro\n"
        "namespace = {}\n"
        "exec('from repro import *', namespace)\n"
        "assert len(repro.__all__) == 57, len(repro.__all__)\n"
        "missing = [n for n in repro.__all__ if n not in namespace]\n"
        "assert not missing, missing\n"
        "assert namespace['__version__'] == repro.__version__\n"
    )


def test_submodules_resolve_as_attributes():
    _run(
        "import repro\n"
        "assert repro.core.history.History is repro.History\n"
        "assert repro.observability.traceview.percentile is "
        "repro.observability.percentiles.percentile\n"
        "assert callable(repro.core.timeline)  # the export, not the module\n"
        "try:\n"
        "    repro.core.no_such_name\n"
        "except AttributeError as exc:\n"
        "    assert 'no_such_name' in str(exc)\n"
        "else:\n"
        "    raise AssertionError('no AttributeError')\n"
    )
