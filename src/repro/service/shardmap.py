"""The versioned shard map: which shard owns which slice of the keyspace.

Keys hash to a fixed ring of *slots* (a stable CRC-32, so placement is
deterministic across runs and processes); each slot is owned by exactly one
shard endpoint.  The map is *versioned*: every reconfiguration — migrating
a slot to another shard, or replacing a shard's endpoint wholesale — bumps
``version``, and servers answer ``moved`` (with the current owner) to
operations addressed to keys they no longer own, so clients holding a stale
map re-route instead of corrupting placement.

The map is consulted in process (it is the cluster's config service, not a
network participant): lookups draw no randomness and send no messages, so a
single-shard cluster is byte-for-byte identical to the plain single-server
stack.
"""

from __future__ import annotations

import zlib
from typing import Dict, List, Sequence, Tuple

__all__ = ["ShardMap"]


def _slot_hash(key: str) -> int:
    """Stable key hash (CRC-32; Python's ``hash`` is salted per process)."""
    return zlib.crc32(key.encode("utf-8"))


class ShardMap:
    """Versioned slot → shard-endpoint assignment."""

    def __init__(self, shards: Sequence[str], *, slots: int = 16) -> None:
        if not shards:
            raise ValueError("a shard map needs at least one shard")
        if slots < len(shards):
            raise ValueError("need at least one slot per shard")
        #: Owner endpoint name per slot (round-robin initial assignment).
        self.assignment: List[str] = [
            shards[i % len(shards)] for i in range(slots)
        ]
        self.version = 1
        #: Reconfiguration log: ``(version, description)`` pairs.
        self.changes: List[Tuple[int, str]] = []

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------

    @property
    def slots(self) -> int:
        return len(self.assignment)

    @property
    def shards(self) -> Tuple[str, ...]:
        """The distinct shard endpoints currently owning slots, in first-
        appearance order."""
        seen: Dict[str, None] = {}
        for name in self.assignment:
            seen.setdefault(name)
        return tuple(seen)

    def slot_of(self, key: str) -> int:
        return _slot_hash(key) % len(self.assignment)

    def owner(self, key: str) -> str:
        """The endpoint currently owning ``key``."""
        return self.assignment[self.slot_of(key)]

    def owns(self, shard: str, key: str) -> bool:
        return self.owner(key) == shard

    # ------------------------------------------------------------------
    # reconfiguration
    # ------------------------------------------------------------------

    def migrate(self, slot: int, to: str) -> int:
        """Reassign one slot; returns the new map version."""
        if not (0 <= slot < len(self.assignment)):
            raise ValueError(f"slot {slot} out of range")
        src = self.assignment[slot]
        self.assignment[slot] = to
        self.version += 1
        self.changes.append(
            (self.version, f"migrate slot {slot}: {src} -> {to}")
        )
        return self.version

    def replace(self, old: str, new: str) -> int:
        """Rename a shard endpoint everywhere it appears (a retired process
        replaced by one recovered from the same log); returns the new map
        version."""
        if old not in self.assignment:
            raise ValueError(f"{old!r} owns no slots")
        self.assignment = [
            new if name == old else name for name in self.assignment
        ]
        self.version += 1
        self.changes.append((self.version, f"replace {old} -> {new}"))
        return self.version

    def __repr__(self) -> str:
        return (
            f"<ShardMap v{self.version} slots={len(self.assignment)} "
            f"shards={list(self.shards)}>"
        )
