"""Session vectors: per-key watermarks of a client's observed state.

One abstraction serves the replicated cluster's session guarantees
(:mod:`repro.service.routing`, :mod:`repro.service.replication`) and the
mobile engine's disconnected operation (:mod:`repro.engine.mobile`).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

__all__ = ["SessionVector"]


class SessionVector:
    """A per-key watermark vector (key → replication-log offset).

    The client-side half of the session-guarantee protocol: ``observe``
    folds in offsets learned from replies, ``covers`` asks whether an
    offered offset satisfies the recorded floor.  Keys are opaque —
    shard indices for the cluster, a server name for the mobile engine.
    """

    __slots__ = ("offsets",)

    def __init__(self, offsets: Optional[Dict[Any, int]] = None) -> None:
        self.offsets: Dict[Any, int] = dict(offsets or {})

    def get(self, key: Any) -> int:
        """The floor recorded for ``key`` (0 when nothing observed)."""
        return self.offsets.get(key, 0)

    def observe(self, key: Any, offset: int) -> bool:
        """Fold in one observed offset; returns True if the floor rose."""
        if offset > self.offsets.get(key, 0):
            self.offsets[key] = offset
            return True
        return False

    def merge(self, other: "SessionVector | Dict[Any, int]") -> None:
        items = other.offsets if isinstance(other, SessionVector) else other
        for key, offset in items.items():
            self.observe(key, offset)

    def covers(self, key: Any, offset: int) -> bool:
        """Whether state at ``offset`` is at least as fresh as the floor."""
        return offset >= self.get(key)

    def copy(self) -> "SessionVector":
        return SessionVector(self.offsets)

    def as_dict(self) -> Dict[Any, int]:
        return dict(self.offsets)

    def __repr__(self) -> str:
        inner = ",".join(f"{k}:{v}" for k, v in sorted(self.offsets.items()))
        return f"<SessionVector {inner or 'empty'}>"
