"""Multi-version storage substrate for the engine.

The store keeps every committed version of every object together with the
sequence number of the commit that installed it, which is what the
multi-version schedulers need: snapshot isolation reads "the latest version
committed before my begin", read-committed MVCC reads "the latest committed
version right now", and the OCC validator asks "which objects changed since
commit number N".

Objects are namespaced by relation (``"emp:3"`` lives in relation ``emp``);
the store tracks each relation's object universe so predicate reads can
build complete version sets.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Set, Tuple

from ..core.objects import Version, relation_of

__all__ = ["StoredVersion", "MultiVersionStore"]


class StoredVersion(NamedTuple):
    """One committed version: identity, value, liveness, and the global
    commit sequence number that installed it."""

    version: Version
    value: Any
    dead: bool
    commit_seq: int

    @property
    def obj(self) -> str:
        return self.version.obj


class MultiVersionStore:
    """All committed versions, per object, in install (version) order."""

    def __init__(self) -> None:
        self._chains: Dict[str, List[StoredVersion]] = {}
        self._relations: Dict[str, Set[str]] = {}
        self._commit_seq = 0
        self._metrics = None
        self._scheduler = ""
        #: The ``version_chain_len`` series, bound at the first install.
        self._chain_len = None

    def instrument(self, *, metrics=None, scheduler: str = "") -> None:
        """Observe per-object version-chain lengths
        (``version_chain_len{scheduler}``) at each install."""
        self._metrics = metrics
        self._scheduler = scheduler
        self._chain_len = None

    # ------------------------------------------------------------------
    # registration and installs
    # ------------------------------------------------------------------

    @property
    def commit_seq(self) -> int:
        """The number of commits installed so far (snapshot handle)."""
        return self._commit_seq

    def register(self, obj: str) -> None:
        """Make ``obj`` part of its relation's universe (inserts register
        before committing so concurrent predicate reads can select the
        unborn version explicitly)."""
        if obj in self._chains:
            return
        self._relations.setdefault(relation_of(obj), set()).add(obj)
        self._chains[obj] = []

    def install(
        self, writes: Iterable[Tuple[Version, Any, bool]]
    ) -> int:
        """Install one committed transaction's final versions atomically;
        returns the commit sequence number used."""
        self._commit_seq += 1
        seq = self._commit_seq
        for version, value, dead in writes:
            self.register(version.obj)
            chain = self._chains[version.obj]
            chain.append(StoredVersion(version, value, dead, seq))
            if self._metrics is not None:
                if self._chain_len is None:
                    self._chain_len = self._metrics.histogram(
                        "version_chain_len",
                        "committed version-chain length at install",
                    ).labels(scheduler=self._scheduler)
                self._chain_len.observe(len(chain))
        return seq

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------

    def chain(self, obj: str) -> Tuple[StoredVersion, ...]:
        return tuple(self._chains.get(obj, ()))

    def objects(self) -> Tuple[str, ...]:
        """Every object ever registered/installed, in insertion order
        (shard migration enumerates the source store through this)."""
        return tuple(self._chains)

    def latest(self, obj: str) -> Optional[StoredVersion]:
        """The latest committed version of ``obj`` (dead versions
        included — callers check ``.dead``); ``None`` if never written."""
        chain = self._chains.get(obj)
        return chain[-1] if chain else None

    def at_snapshot(self, obj: str, snapshot_seq: int) -> Optional[StoredVersion]:
        """The latest version committed at or before ``snapshot_seq``."""
        chain = self._chains.get(obj)
        if not chain:
            return None
        for stored in reversed(chain):
            if stored.commit_seq <= snapshot_seq:
                return stored
        return None

    def changed_since(self, obj: str, seq: int) -> bool:
        """Whether any version of ``obj`` committed after sequence ``seq``."""
        chain = self._chains.get(obj)
        return bool(chain) and chain[-1].commit_seq > seq

    def objects_in(self, relation: str) -> Tuple[str, ...]:
        """The known universe of the relation, sorted for determinism."""
        return tuple(sorted(self._relations.get(relation, ())))

    def relations(self) -> Tuple[str, ...]:
        return tuple(sorted(self._relations))
