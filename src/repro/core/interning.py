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
* :class:`EventLog` — an array-of-struct mirror of an event sequence:
  parallel lists of ``(kind code, tid, version id, flag)`` that let one
  linear pass replace the per-event ``isinstance`` chains in
  :class:`~repro.core.history.History`'s index builders.

Ids are allocated in first-appearance order, so iterating ``objects`` or
``versions`` is deterministic: it is the order a scan of the events meets
them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .events import Abort, Begin, Commit, Event, PredicateRead, Read, Write
from .objects import Version

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
        oid = self.obj_id.get(obj)
        if oid is None:
            oid = self.obj_id[obj] = len(self.objects)
            self.objects.append(obj)
        return oid

    def intern_version(self, version: Version) -> int:
        vid = self.version_id.get(version)
        if vid is None:
            vid = self.version_id[version] = len(self.versions)
            self.versions.append(version)
            self.ver_obj.append(self.intern_object(version.obj))
            self.ver_tid.append(version.tid)
            self.ver_seq.append(version.seq)
        return vid

    def __len__(self) -> int:
        return len(self.versions)


class EventLog:
    """Array-of-struct mirror of one event sequence.

    Parallel lists, one entry per event: ``kind`` (the ``K_*`` code),
    ``tid``, ``vid`` (the interned version for reads/writes, ``-1``
    otherwise) and ``flag`` (``cursor`` for reads, ``dead`` for writes).
    Predicate reads keep their version sets as objects — they are rare and
    structurally rich — but their vset objects are interned so the log
    covers the history's whole object universe in first-appearance order.
    """

    __slots__ = ("interner", "kind", "tid", "vid", "flag")

    def __init__(self, events: Tuple[Event, ...], interner: Optional[Interner] = None) -> None:
        self.interner = interner if interner is not None else Interner()
        n = len(events)
        self.kind: List[int] = [0] * n
        self.tid: List[int] = [0] * n
        self.vid: List[int] = [-1] * n
        self.flag: List[bool] = [False] * n
        kinds, tids, vids, flags = self.kind, self.tid, self.vid, self.flag
        intern_version = self.interner.intern_version
        intern_object = self.interner.intern_object
        kind_of = _KIND_OF_TYPE
        for i, ev in enumerate(events):
            k = kind_of.get(type(ev))
            if k is None:
                k = _kind_by_base(ev)
            kinds[i] = k
            tids[i] = ev.tid
            if k == K_READ:
                vids[i] = intern_version(ev.version)
                flags[i] = ev.cursor
            elif k == K_WRITE:
                vids[i] = intern_version(ev.version)
                flags[i] = ev.dead
            elif k == K_PREAD:
                # Objects before versions, so the interner's object order is
                # the first-appearance order of vset.objects().
                for obj in ev.vset.objects():
                    intern_object(obj)
                for v in ev.vset.versions():
                    intern_version(v)

    def __len__(self) -> int:
        return len(self.kind)
