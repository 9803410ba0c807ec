"""The package layering: the lower layers never import the upper ones.

``repro.core`` (the paper's definitions), ``repro.engine`` (the schedulers
that emit histories) and ``repro.checker`` sit below ``repro.service`` and
``repro.observability``.  A module-level import the other way makes the
lower layer load the upper one, and any cycle between them a matter of
import order.  An import inside a function runs only when it is called and
is not scanned.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, Tuple

import repro

ROOT = Path(repro.__file__).parent
LOWER = ("core", "engine", "checker")
UPPER = ("repro.service", "repro.observability")


def _module_level_imports(tree: ast.Module) -> Iterator[ast.stmt]:
    """Import statements run when the module loads: its body, including
    ``if``/``try`` blocks there, but no function or class body."""
    stack = list(tree.body)
    while stack:
        node = stack.pop(0)
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, (ast.If, ast.Try)):
            for block in ("body", "orelse", "finalbody", "handlers"):
                stack.extend(getattr(node, block, ()))
        elif isinstance(node, ast.ExceptHandler):
            stack.extend(node.body)


def _targets(path: Path, node: ast.stmt) -> Iterator[str]:
    """The absolute module names an import statement loads."""
    if isinstance(node, ast.Import):
        yield from (alias.name for alias in node.names)
        return
    if node.level:
        # The package a module (or an ``__init__``) sits in.
        package = path.relative_to(ROOT.parent).parts[:-1]
        base = package[: len(package) - node.level + 1]
        name = ".".join(base + ((node.module,) if node.module else ()))
    else:
        name = node.module or ""
    yield name
    # ``from . import service`` names the upper package through an alias.
    yield from (f"{name}.{alias.name}" for alias in node.names)


def upward_imports() -> Iterator[Tuple[str, int, str]]:
    for layer in LOWER:
        for path in sorted((ROOT / layer).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in _module_level_imports(tree):
                for target in _targets(path, node):
                    if any(
                        target == upper or target.startswith(upper + ".")
                        for upper in UPPER
                    ):
                        where = path.relative_to(ROOT.parent).as_posix()
                        yield where, node.lineno, target
                        break


def test_lower_layers_import_no_upper_layer_at_module_level():
    assert list(upward_imports()) == []
