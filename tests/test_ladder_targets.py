"""Tier-1 guard for the ladder benchmark's contact surface.

``benchmarks/ladder/spans.py`` wraps named callables of ``src/`` at class
level and ``rungs.py`` imports the public names the rungs drive.  Both are
frozen files a refactor may not edit, and ``pytest benchmarks/ladder`` is
not tier-1 — so without this module a moved class is first noticed by the
benchmark run.  The checks read the ladder files; they change none.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import sys
from pathlib import Path
from types import FunctionType

import pytest

LADDER = Path(__file__).resolve().parents[1] / "benchmarks" / "ladder"


def _load_spans():
    spec = importlib.util.spec_from_file_location(
        "_ladder_spans", LADDER / "spans.py"
    )
    module = importlib.util.module_from_spec(spec)
    # ``@dataclass`` resolves annotations through ``sys.modules``.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


TARGETS = _load_spans().TARGETS


@pytest.mark.parametrize(
    "module_name, owner_name, attr",
    [
        (module_name, owner_name, attr)
        for _layer, module_name, owner_name, attrs in TARGETS
        for attr in attrs
    ],
)
def test_target_is_a_plain_function_on_its_owner(module_name, owner_name, attr):
    """What ``SpanLog.installed`` asserts before it patches anything."""
    module = importlib.import_module(module_name)
    owner = module if owner_name is None else getattr(module, owner_name)
    assert isinstance(vars(owner).get(attr), FunctionType), (
        f"{module_name}.{owner_name or ''}.{attr} is not a plain function "
        "defined on that owner: the ladder benchmark cannot wrap it"
    )


def _repro_imports(path: Path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    yield alias.name, None
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if (node.module or "").split(".")[0] == "repro":
                for alias in node.names:
                    yield node.module, alias.name


@pytest.mark.parametrize(
    "module_name, name", sorted(set(_repro_imports(LADDER / "rungs.py")), key=str)
)
def test_rungs_imports_resolve(module_name, name):
    module = importlib.import_module(module_name)
    assert name is None or hasattr(module, name), f"{module_name}.{name}"
