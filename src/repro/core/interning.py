"""Dense-int interning for the array-backed hot path.

CPython's per-object costs — attribute dictionaries, isinstance dispatch,
dataclass ``__hash__`` recomputing a tuple hash per dict probe — dominate
phenomenon checking long before the graph algorithms do.  This module maps
the checker's identities onto dense integers once, so every hot structure
downstream (version chains, conflict-edge keys, event logs) is a list
indexed by int or a dict keyed by int:

* :class:`Interner` — bidirectional ids for objects and versions.  A
  :class:`~repro.core.objects.Version` is hashed exactly once, at intern
  time; afterwards its object, writer and sequence number are parallel
  list lookups (``ver_obj``/``ver_tid``/``ver_seq``).
* :class:`EventLog` — a history's events as rows: parallel lists of
  ``(kind code, tid, version id, flag)`` plus a side list of values, and
  the tables a history derives from its events, kept as rows are appended.
  The engine's recorder writes one; :class:`~repro.core.history.History`
  adopts it, and builds event objects from its rows only on demand.

Ids are allocated in first-appearance order, so iterating ``objects`` or
``versions`` is deterministic: it is the order a scan of the events meets
them.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence

from ..exceptions import VersionOrderError
from .events import Abort, Begin, Commit, Event, PredicateRead, Read, Write
from .objects import INIT_TID, Version
from .predicates import Predicate, VersionSet

__all__ = [
    "Interner",
    "EventLog",
    "K_BEGIN",
    "K_READ",
    "K_WRITE",
    "K_PREAD",
    "K_COMMIT",
    "K_ABORT",
]

#: Event kind codes of :class:`EventLog` (dense, branch-friendly).
K_BEGIN, K_READ, K_WRITE, K_PREAD, K_COMMIT, K_ABORT = range(6)

_KIND_OF_TYPE = {
    Begin: K_BEGIN,
    Read: K_READ,
    Write: K_WRITE,
    PredicateRead: K_PREAD,
    Commit: K_COMMIT,
    Abort: K_ABORT,
}


def _kind_by_base(event: Event) -> int:
    """The kind code of an event whose exact type ``_KIND_OF_TYPE`` misses
    (a subclassed event): its base class's, else ``K_BEGIN`` (ignored)."""
    for base, code in _KIND_OF_TYPE.items():
        if isinstance(event, base):
            return code
    return K_BEGIN


class Interner:
    """Dense-int ids for objects and versions, allocated on first use."""

    __slots__ = (
        "obj_id",
        "objects",
        "version_id",
        "versions",
        "ver_obj",
        "ver_tid",
        "ver_seq",
    )

    def __init__(self) -> None:
        self.obj_id: Dict[str, int] = {}
        #: oid -> object name (first-appearance order).
        self.objects: List[str] = []
        self.version_id: Dict[Version, int] = {}
        #: vid -> the interned :class:`Version` (for materialisation).
        self.versions: List[Version] = []
        #: vid -> object id / writer tid / sequence number.
        self.ver_obj: List[int] = []
        self.ver_tid: List[int] = []
        self.ver_seq: List[int] = []

    def intern_object(self, obj: str) -> int:
        oid = self.obj_id.setdefault(obj, len(self.objects))
        if oid == len(self.objects):
            self.objects.append(obj)
        return oid

    def intern_version(self, version: Version) -> int:
        # One probe (one hash of the version) whether it is new or not.
        vid = self.version_id.setdefault(version, len(self.versions))
        if vid == len(self.versions):
            self.versions.append(version)
            obj = version.obj
            oid = self.obj_id.setdefault(obj, len(self.objects))
            if oid == len(self.objects):
                self.objects.append(obj)
            self.ver_obj.append(oid)
            self.ver_tid.append(version.tid)
            self.ver_seq.append(version.seq)
        return vid

    def copy(self) -> "Interner":
        inn = Interner.__new__(Interner)
        for name in self.__slots__:
            setattr(inn, name, getattr(self, name).copy())
        return inn

    def __len__(self) -> int:
        return len(self.versions)


class EventLog:
    """A history's events as rows, and the tables their appends keep.

    Parallel lists, one entry per event: ``kind`` (the ``K_*`` code),
    ``tid``, ``vid`` (the interned version for reads/writes, ``-1``
    otherwise), ``flag`` (``cursor`` for reads, ``dead`` for writes) and
    ``extra`` (the value of a read or write, the level of a begin, and
    ``(predicate, vset, version ids)`` of a predicate read, whose vset
    objects are interned before its versions so the interner holds the
    history's object universe in first-appearance order).

    Each append also keeps what a history derives from its events: the
    commit and abort orders, the row of every version's last write (in
    first-write order) and the versions observed before any write of them
    (the setup-version candidates).  The engine's recorder appends rows one
    operation at a time; ``EventLog(events)`` appends one row per event
    object.

    Event objects are built from rows only when asked for (:meth:`events`),
    once each; the objects a log was built from are kept as they are.
    """

    def __init__(self, events: Iterable[Event] = ()) -> None:
        self.interner = Interner()
        self.kind: List[int] = []
        self.tid: List[int] = []
        self.vid: List[int] = []
        self.flag: List[bool] = []
        self.extra: List[Any] = []
        #: Tids in the order of their commit / abort events.
        self.commits: List[int] = []
        self.aborts: List[int] = []
        #: vid -> the row of its last write, in first-write order.
        self.last_write: Dict[int, int] = {}
        #: Versions read or selected before any write of them, in
        #: first-appearance order.
        self.observed: Dict[int, None] = {}
        #: How many interned objects the rows mention, once a supplied
        #: version order has interned more (``None``: all of them).
        self.universe: Optional[int] = None
        #: The event objects of rows ``0 .. len - 1``.
        self._events: List[Event] = []
        for event in events:
            self.append(event)

    # ------------------------------------------------------------------
    # appends
    # ------------------------------------------------------------------

    def append(self, event: Event) -> None:
        """Append an event object's row; the object is kept as the row's
        (where every earlier row has its object)."""
        if len(self._events) == len(self.kind):
            self._events.append(event)
        k = _KIND_OF_TYPE.get(type(event))
        if k is None:
            k = _kind_by_base(event)
        if k == K_READ:
            self.read(event.tid, event.version, event.value, event.cursor)
        elif k == K_WRITE:
            self.write(event.tid, event.version, event.value, event.dead)
        elif k == K_COMMIT:
            self.commit(event.tid)
        elif k == K_PREAD:
            self.predicate_read(event.tid, event.predicate, event.vset)
        elif k == K_ABORT:
            self.abort(event.tid)
        else:
            self.begin(event.tid, getattr(event, "level", None))

    # Reads and writes, most of an engine history's rows, append theirs in
    # place; the rarer kinds go through one helper.
    def _row(self, kind: int, tid: int, vid: int, flag: bool, extra: Any) -> None:
        self.kind.append(kind)
        self.tid.append(tid)
        self.vid.append(vid)
        self.flag.append(flag)
        self.extra.append(extra)

    def begin(self, tid: int, level: Optional[object] = None) -> None:
        self._row(K_BEGIN, tid, -1, False, level)

    def read(self, tid: int, version: Version, value: Any = None, cursor: bool = False) -> None:
        vid = self.interner.version_id.get(version)
        if vid is None:
            vid = self.interner.intern_version(version)
        if vid not in self.last_write:
            self.observed[vid] = None
        self.kind.append(K_READ)
        self.tid.append(tid)
        self.vid.append(vid)
        self.flag.append(cursor)
        self.extra.append(value)

    def write(self, tid: int, version: Version, value: Any = None, dead: bool = False) -> None:
        if version.tid != tid or (dead and value is not None):
            Write(tid, version, value=value, dead=dead)  # raises what is wrong
        vid = self.interner.intern_version(version)
        self.last_write[vid] = len(self.kind)
        self.kind.append(K_WRITE)
        self.tid.append(tid)
        self.vid.append(vid)
        self.flag.append(dead)
        self.extra.append(value)

    def predicate_read(self, tid: int, predicate: Predicate, vset: VersionSet) -> None:
        for obj in vset.objects():
            self.interner.intern_object(obj)
        vids = tuple(map(self.interner.intern_version, vset.versions()))
        for vid in vids:
            if vid not in self.last_write:
                self.observed[vid] = None
        self._row(K_PREAD, tid, -1, False, (predicate, vset, vids))

    def commit(self, tid: int) -> None:
        self.commits.append(tid)
        self._row(K_COMMIT, tid, -1, False, None)

    def abort(self, tid: int) -> None:
        self.aborts.append(tid)
        self._row(K_ABORT, tid, -1, False, None)

    def complete(self) -> None:
        """Append an abort for every transaction without a commit or abort,
        in order of first appearance (Section 4.2's completion rule)."""
        finished = {*self.commits, *self.aborts}
        for tid in dict.fromkeys(self.tid):
            if tid not in finished:
                self.abort(tid)

    def intern_order(
        self, order: Mapping[str, Sequence[Version]]
    ) -> Dict[str, List[int]]:
        """A supplied version order as chains of version ids, the unborn
        versions left out.  A version no row mentions is interned here,
        after the rows' objects (:attr:`universe` keeps their count)."""
        inn = self.interner
        if self.universe is None:
            self.universe = len(inn.objects)
        chains: Dict[str, List[int]] = {}
        for obj, versions in order.items():
            chain: List[int] = []
            for v in versions:
                if v.tid == INIT_TID:
                    continue  # the unborn version is implicit
                if v.obj != obj:
                    raise VersionOrderError(
                        f"version order for {obj!r} contains version of {v.obj!r}"
                    )
                chain.append(inn.intern_version(v))
            chains[obj] = chain
        return chains

    def copy(self) -> "EventLog":
        """An independent log of the same rows and tables (what a history
        adopts from a log that keeps growing)."""
        log = EventLog.__new__(EventLog)
        for name, value in vars(self).items():
            setattr(log, name, value if name == "universe" else value.copy())
        return log

    # ------------------------------------------------------------------
    # event objects
    # ------------------------------------------------------------------

    def event(self, i: int) -> Event:
        """Row ``i``'s event object: the kept one, else a new one."""
        if i < len(self._events):
            return self._events[i]
        k, tid, extra = self.kind[i], self.tid[i], self.extra[i]
        if k == K_READ or k == K_WRITE:
            version = self.interner.versions[self.vid[i]]
            return (Read if k == K_READ else Write)(tid, version, extra, self.flag[i])
        if k == K_PREAD:
            return PredicateRead(tid, extra[0], extra[1])
        if k == K_BEGIN:
            return Begin(tid, extra)
        return (Commit if k == K_COMMIT else Abort)(tid)

    def keep(self, event: Event) -> Event:
        """Keep ``event``, built by the caller from the operation the last
        row records, as that row's object (where every earlier row has its
        object; else they and the last are built from the rows)."""
        built = self._events
        if len(built) != len(self.kind) - 1:
            return self.events()[-1]
        built.append(event)
        return event

    def events(self) -> List[Event]:
        """Every row's event object, each built once and kept."""
        built, event = self._events, self.event
        for i in range(len(built), len(self.kind)):
            built.append(event(i))
        return built

    def __len__(self) -> int:
        return len(self.kind)
