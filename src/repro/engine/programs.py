"""Transaction programs: the step DSL executed by the simulator.

A :class:`Program` is a named list of :class:`Step` objects plus an optional
isolation level.  Steps are *retry-safe primitives*: each step either
completes (emitting its events) or raises
:class:`~repro.exceptions.WouldBlock` before emitting anything, so the
simulator can re-run the same step after the blocker releases.  Composite
operations expand into further primitive steps at run time (``Select`` is a
predicate read that expands into one ``Read`` per matched tuple).

``Read``, ``Select``'s item reads, ``Delete`` and a ``Write`` of a constant
do nothing before their lock request, so while a refusal stands the
simulator skips their blocked retries (``Step._lock_first``).  Every other
step is re-run in full: ``Insert`` draws a fresh object id on each attempt,
``Conditional``, ``Compute`` and a ``Write`` of a callable run user code,
and the predicate steps are not skipped.

Step values may be constants or callables over the program's register file
(a plain dict threaded through the run), so programs can compute with what
they read::

    transfer = Program("transfer", [
        Read("x", into="x"),
        Read("y", into="y"),
        Write("x", lambda regs: regs["x"] - 10),
        Write("y", lambda regs: regs["y"] + 10),
    ])
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from ..core.levels import IsolationLevel
from ..core.predicates import Predicate
from .database import TransactionHandle

__all__ = [
    "Step",
    "Read",
    "Write",
    "Increment",
    "Insert",
    "Delete",
    "PredicateReadStep",
    "Select",
    "Count",
    "UpdateWhere",
    "DeleteWhere",
    "Compute",
    "Conditional",
    "Program",
]

Value = Union[Any, Callable[[Dict[str, Any]], Any]]


def _resolve(value: Value, regs: Dict[str, Any]) -> Any:
    return value(regs) if callable(value) else value


class Step:
    """One retry-safe primitive operation of a program."""

    #: Whether a retry of this step does nothing before its lock request:
    #: no user code runs and nothing is allocated.  Only such a step's
    #: blocked retry may be skipped while its refusal stands (see
    #: :mod:`repro.engine.simulator`).
    _lock_first = False

    def run(
        self, txn: TransactionHandle, regs: Dict[str, Any]
    ) -> Optional[List["Step"]]:
        """Execute; optionally return extra steps to run immediately after."""
        raise NotImplementedError


@dataclass(frozen=True)
class Read(Step):
    """Item read, optionally storing the value into a register; ``cursor``
    marks it a cursor read (PL-CS experiments); ``for_update`` is the SQL
    ``SELECT ... FOR UPDATE`` hint for read-modify-write sequences."""

    obj: str
    into: Optional[str] = None
    cursor: bool = False
    for_update: bool = False

    _lock_first = True

    def run(self, txn, regs):
        value = txn.read(self.obj, cursor=self.cursor, for_update=self.for_update)
        if self.into is not None:
            regs[self.into] = value
        return None


@dataclass(frozen=True)
class Write(Step):
    obj: str
    value: Value

    @property
    def _lock_first(self) -> bool:
        return not callable(self.value)

    def run(self, txn, regs):
        txn.write(self.obj, _resolve(self.value, regs))
        return None


def Increment(obj: str, delta: Value = 1, *, reg: Optional[str] = None) -> List[Step]:
    """Read-modify-write expansion (two primitive steps).  Returns the step
    list to splice into a program."""
    tmp = reg or f"_inc_{obj}"
    return [
        Read(obj, into=tmp, for_update=True),
        Write(obj, lambda regs, _t=tmp, _d=delta: (regs[_t] or 0) + _resolve(_d, regs)),
    ]


@dataclass(frozen=True)
class Insert(Step):
    """Insert a fresh tuple into ``relation``; the new object id is stored
    into ``into`` if given."""

    relation: str
    value: Value
    into: Optional[str] = None

    def run(self, txn, regs):
        obj = txn.insert(self.relation, _resolve(self.value, regs))
        if self.into is not None:
            regs[self.into] = obj
        return None


@dataclass(frozen=True)
class Delete(Step):
    obj: str

    _lock_first = True

    def run(self, txn, regs):
        txn.delete(self.obj)
        return None


@dataclass(frozen=True)
class PredicateReadStep(Step):
    """Raw predicate read; stores ``{obj: value}`` of the matches into
    ``into`` without item reads (COUNT-style)."""

    predicate: Predicate
    into: Optional[str] = None

    def run(self, txn, regs):
        result = txn.predicate_read(self.predicate)
        if self.into is not None:
            regs[self.into] = result.values()
        return None


@dataclass(frozen=True)
class Count(Step):
    predicate: Predicate
    into: str

    def run(self, txn, regs):
        regs[self.into] = len(txn.predicate_read(self.predicate))
        return None


@dataclass(frozen=True)
class Select(Step):
    """Predicate read, then item reads of every matched tuple.  The read
    values accumulate into ``regs[into]`` (a dict)."""

    predicate: Predicate
    into: str = "selected"

    def run(self, txn, regs):
        result = txn.predicate_read(self.predicate)
        regs[self.into] = {}
        return [_CapturedRead(obj, self.into) for obj, _v in result.matched]


@dataclass(frozen=True)
class _CapturedRead(Step):
    """Item read that records its value into a dict register (Select
    expansion)."""

    obj: str
    bucket: str

    _lock_first = True

    def run(self, txn, regs):
        regs.setdefault(self.bucket, {})[self.obj] = txn.read(self.obj)
        return None


@dataclass(frozen=True)
class UpdateWhere(Step):
    """Predicate-based modification: predicate read, then one write per
    matched tuple with ``fn(old_value)`` (Section 4.3.2)."""

    predicate: Predicate
    fn: Callable[[Any], Any]

    def run(self, txn, regs):
        result = txn.predicate_read(self.predicate)
        fn = self.fn
        return [
            Write(obj, lambda regs, _old=value: fn(_old))
            for obj, value in result.matched
        ]


@dataclass(frozen=True)
class DeleteWhere(Step):
    predicate: Predicate

    def run(self, txn, regs):
        result = txn.predicate_read(self.predicate)
        return [Delete(obj) for obj, _v in result.matched]


@dataclass(frozen=True)
class Conditional(Step):
    """Run ``step`` only when ``condition(regs)`` holds — the DSL's `IF`.

    The condition is evaluated when the step is reached, so it can depend on
    anything earlier steps put in the registers (e.g. "insert the order only
    if the item read back as active")."""

    condition: Callable[[Dict[str, Any]], bool]
    step: "Step"

    def run(self, txn, regs):
        if self.condition(regs):
            return self.step.run(txn, regs)
        return None


@dataclass(frozen=True)
class Compute(Step):
    """Pure register computation (no database operation)."""

    fn: Callable[[Dict[str, Any]], None]

    def run(self, txn, regs):
        self.fn(regs)
        return None


@dataclass
class Program:
    """A named transaction program."""

    name: str
    steps: Sequence[Step]
    level: Optional[IsolationLevel] = None

    def __post_init__(self) -> None:
        flattened: List[Step] = []
        for step in self.steps:
            if isinstance(step, list):
                flattened.extend(step)  # Increment() returns a step list
            else:
                flattened.append(step)
        self.steps = tuple(flattened)

    def __len__(self) -> int:
        return len(self.steps)
