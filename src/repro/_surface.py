"""Lazy package surfaces: a package names its exports, and a name's
submodule is imported only when the name is first read (PEP 562).

Each package ``__init__`` states its exports once, as a table from name to
the submodule that defines it (relative to the package)::

    __all__ = exports(__name__, {"History": ".history", ...})

``__all__`` is the table's names in order; ``from package import *`` and
``dir(package)`` list them all.  Reading a name imports its submodule and
caches the name in the package's globals, so later reads are plain
attribute lookups.  A name that no table row holds is tried as a submodule
(``repro.core.history`` after ``import repro``).

A submodule named like one of its package's exports (``repro.core.timeline``
defines ``timeline``) would be bound over that export by the import system
when it is imported directly; the package keeps the export instead, as an
eager ``from .timeline import timeline`` used to.
"""

from __future__ import annotations

import sys
from importlib import import_module
from types import ModuleType
from typing import Any, Dict, List

__all__ = ["exports"]


class _Package(ModuleType):
    """A package module whose exported names outrank same-named submodules."""

    def __setattr__(self, name: str, value: Any) -> None:
        if (
            isinstance(value, ModuleType)
            and value.__name__ == f"{self.__name__}.{name}"
            and name in self.__dict__.get("_exports", ())
        ):
            value = getattr(value, name)
        super().__setattr__(name, value)


def exports(package: str, table: Dict[str, str]) -> List[str]:
    """Give ``package`` (whose ``__init__`` is running) the lazy surface
    of ``table`` (name -> defining submodule); returns its ``__all__``."""
    module = sys.modules[package]
    namespace = module.__dict__

    def __getattr__(name: str) -> Any:
        source = table.get(name)
        if source is not None:
            value = namespace[name] = getattr(import_module(source, package), name)
            return value
        if not name.startswith("__"):
            try:
                return import_module(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__() -> List[str]:
        return sorted({*namespace, *table})

    namespace.update(_exports=table, __getattr__=__getattr__, __dir__=__dir__)
    module.__class__ = _Package
    return list(table)
