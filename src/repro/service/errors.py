"""Client-visible service errors.

These mirror engine conditions across the unreliable boundary: the engine's
:class:`~repro.exceptions.TransactionAborted` becomes
:class:`ServiceAborted` in the client, a service that keeps turning the
request away (admission shedding, shard-map churn, a lagging replica) ends
in :class:`ServiceUnavailable`, and unanswered requests — a lock wait that
outlasts the liveness deadline on every attempt included — end in
:class:`RequestTimeout`.
"""

from __future__ import annotations

from ..exceptions import ReproError

__all__ = [
    "ServiceError",
    "ServiceAborted",
    "ServiceUnavailable",
    "RequestTimeout",
]


class ServiceError(ReproError):
    """Base class for client/server service-layer errors."""


class ServiceAborted(ServiceError):
    """The server aborted the transaction (validation failure, deadlock
    victim, first-committer loss, or a crash that killed it)."""

    def __init__(self, reason: str = "aborted"):
        super().__init__(reason)
        self.reason = reason


class ServiceUnavailable(ServiceError):
    """Shed, moved or lagging replies outlasted the retry policy."""


class RequestTimeout(ServiceError):
    """No reply within the retry policy's attempts — the outcome of the
    last request is unknown to the client (it may have applied)."""
