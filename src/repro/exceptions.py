"""Exception hierarchy for the ``repro`` package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while still
being able to distinguish the individual failure modes.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "HistoryError",
    "MalformedHistoryError",
    "VersionOrderError",
    "ParseError",
    "PredicateError",
    "EngineError",
    "TransactionAborted",
    "DeadlockError",
    "ValidationFailure",
    "WriteConflict",
    "InvalidOperation",
    "WorkloadError",
]


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class HistoryError(ReproError):
    """Base class for errors concerning transaction histories."""


class MalformedHistoryError(HistoryError):
    """The history violates one of the well-formedness constraints of
    Section 4.2 of the paper (e.g. a read of a version before its write,
    a transaction with two commit events, or a read of an unborn version).
    """


class VersionOrderError(HistoryError):
    """The version order part of a history is inconsistent (e.g. it orders a
    version of an aborted transaction, repeats a version, places a dead
    version before a visible one, or omits an installed version).
    """


class ParseError(HistoryError):
    """The textual history notation could not be parsed."""

    def __init__(self, message: str, token: str | None = None, position: int | None = None):
        self.token = token
        self.position = position
        if token is not None:
            message = f"{message} (token {token!r}"
            if position is not None:
                message += f" at index {position}"
            message += ")"
        super().__init__(message)


class PredicateError(ReproError):
    """A predicate was applied to an object or version it cannot evaluate."""


class EngineError(ReproError):
    """Base class for errors raised by the transactional engine."""


class TransactionAborted(EngineError):
    """Raised inside a transaction program when the scheduler aborts the
    transaction (deadlock victim, failed OCC validation, first-committer-wins
    conflict, ...).  The ``reason`` attribute carries a short machine-readable
    cause such as ``"deadlock"`` or ``"occ-validation"``.
    """

    def __init__(self, tid: int, reason: str):
        self.tid = tid
        self.reason = reason
        super().__init__(f"transaction T{tid} aborted: {reason}")


class DeadlockError(TransactionAborted):
    """A deadlock victim abort."""

    def __init__(self, tid: int):
        super().__init__(tid, "deadlock")


class ValidationFailure(TransactionAborted):
    """An optimistic transaction failed backward validation at commit."""

    def __init__(self, tid: int, conflicting_tid: int):
        self.conflicting_tid = conflicting_tid
        super().__init__(tid, f"occ-validation against T{conflicting_tid}")


class WriteConflict(TransactionAborted):
    """A snapshot-isolation transaction lost a first-committer-wins race."""

    def __init__(self, tid: int, obj: str, conflicting_tid: int):
        self.obj = obj
        self.conflicting_tid = conflicting_tid
        super().__init__(tid, f"first-committer-wins on {obj} against T{conflicting_tid}")


class WouldBlock(EngineError):
    """A (locking) scheduler cannot grant the lock an operation needs right
    now.  The simulator catches this, records the holders as wait edges, and
    retries the operation whenever the program is scheduled again; direct
    callers driving transactions by hand see it raised with the holders
    listed.
    """

    def __init__(self, tid: int, resource: str, holders):
        # No ``super().__init__(message)``: schedulers raise this on every
        # lock conflict and the simulator and the service catch it without
        # reading the text, so the message is formatted on demand.
        self.tid = tid
        self.resource = resource
        self.holders = frozenset(holders)

    @property
    def args(self):
        pretty = ", ".join(f"T{t}" for t in sorted(self.holders))
        return (
            f"T{self.tid} must wait for {self.resource} "
            f"held by {pretty or 'nobody'}",
        )

    def __str__(self) -> str:
        return self.args[0]

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.args[0]!r})"


class InvalidOperation(EngineError):
    """An operation was issued against a transaction in the wrong state
    (e.g. reading after commit, or committing twice, or writing an object
    after deleting it)."""


class WorkloadError(ReproError):
    """A workload generator was configured inconsistently."""
