"""The reference history loader: Section 4.2 in as many passes as it has rules.

``repro.core.history.History`` builds its version order and checks
E1–E7/V1–V2 in one sweep each over the interned event log.  This module is
what those sweeps replaced, kept the way it was written from the paper: plain
event objects, one ``isinstance`` pass per rule, list scans, and a version-
order check that asks every object about every committed transaction.  It is
slow on purpose and knows nothing of ``EventLog`` or ``Interner``.

:class:`ReferenceHistory` computes the version order and the tables the
rules read; :func:`reference_validate` raises what ``validate_history`` must
raise — same class, same message, and for a history that breaks several rules
the same one: structure, reads, own writes, numbering, dead usage, version
order, and within one of those the first violation in event order.
``tests/test_validation_differential.py`` holds the two against each other.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.core.events import (
    Abort,
    Begin,
    Commit,
    Event,
    PredicateRead,
    Read,
    Write,
)
from repro.core.objects import INIT_TID, Version, VersionKind
from repro.exceptions import MalformedHistoryError, VersionOrderError


class ReferenceHistory:
    """``(events, version_order)`` and the tables Section 4.2 is stated over,
    each computed by its own scan of the events."""

    def __init__(
        self,
        events: Iterable[Event],
        version_order: Optional[Mapping[str, Sequence[Version]]] = None,
        *,
        auto_complete: bool = False,
    ):
        evs = tuple(events)
        if auto_complete:
            finished = {ev.tid for ev in evs if isinstance(ev, (Commit, Abort))}
            seen = dict.fromkeys(ev.tid for ev in evs)
            evs += tuple(Abort(tid) for tid in seen if tid not in finished)
        self.events: Tuple[Event, ...] = evs
        self.committed = frozenset(ev.tid for ev in evs if isinstance(ev, Commit))
        self.aborted = frozenset(ev.tid for ev in evs if isinstance(ev, Abort))
        self.writes: Dict[Version, Write] = {
            ev.version: ev for ev in evs if isinstance(ev, Write)
        }
        self._final_seq: Dict[Tuple[str, int], int] = {}
        for v in self.writes:
            key = (v.obj, v.tid)
            if v.seq > self._final_seq.get(key, 0):
                self._final_seq[key] = v.seq
        self.version_order = self._build_order(version_order)
        self.installed = frozenset(
            v for chain in self.version_order.values() for v in chain
        )
        self.setup_versions = frozenset(
            v for v in self.installed if not v.is_unborn and v not in self.writes
        )

    def _build_order(self, supplied) -> Dict[str, Tuple[Version, ...]]:
        order: Dict[str, List[Version]] = {}
        if supplied is not None:
            for obj, chain_vs in supplied.items():
                chain: List[Version] = []
                for v in chain_vs:
                    if v.is_unborn:
                        continue  # the unborn version is implicit
                    if v.obj != obj:
                        raise VersionOrderError(
                            f"version order for {obj!r} contains version of {v.obj!r}"
                        )
                    chain.append(v)
                order[obj] = chain
        supplied_objs = frozenset(supplied) if supplied is not None else frozenset()
        # Without a supplied chain: the committed transactions' final writes,
        # in event order.
        for ev in self.events:
            if isinstance(ev, Write) and ev.tid in self.committed:
                v = ev.version
                if v.obj not in supplied_objs and self.is_final(v):
                    order.setdefault(v.obj, []).append(v)
        # Every object mentioned gets an entry; versions read (or selected
        # by a version set) that no event writes are the implicit initial
        # state and go right after the unborn version.
        setup: Dict[str, List[Version]] = {}

        def note(v: Version) -> None:
            chain = order.setdefault(v.obj, [])
            if (
                v.tid != INIT_TID
                and v not in self.writes
                and v not in chain
                and v not in setup.get(v.obj, ())
            ):
                setup.setdefault(v.obj, []).append(v)

        for ev in self.events:
            if isinstance(ev, Read):
                note(ev.version)
            elif isinstance(ev, Write):
                order.setdefault(ev.version.obj, [])
            elif isinstance(ev, PredicateRead):
                for v in ev.vset.versions():
                    note(v)
        return {
            obj: (Version.unborn(obj),) + tuple(setup.get(obj, ())) + tuple(chain)
            for obj, chain in order.items()
        }

    def final_version(self, obj: str, tid: int) -> Optional[Version]:
        seq = self._final_seq.get((obj, tid))
        return None if seq is None else Version(obj, tid, seq)

    def is_final(self, version: Version) -> bool:
        return self._final_seq.get((version.obj, version.tid)) == version.seq

    def kind_of(self, version: Version) -> VersionKind:
        if version.is_unborn:
            return VersionKind.UNBORN
        write = self.writes.get(version)
        if write is None:
            if version in self.installed:
                return VersionKind.VISIBLE  # setup versions are visible
            raise MalformedHistoryError(
                f"version {version} was never written in this history"
            )
        return VersionKind.DEAD if write.dead else VersionKind.VISIBLE


def reference_validate(history: ReferenceHistory) -> None:
    """Validate all Section 4.2 constraints; raise on the first violation."""
    _check_event_structure(history)
    _check_reads(history)
    _check_read_own_writes(history)
    _check_write_numbering(history)
    _check_dead_usage(history)
    _check_version_order(history)


# ----------------------------------------------------------------------
# event constraints
# ----------------------------------------------------------------------


def _check_event_structure(history: ReferenceHistory) -> None:
    finished: Set[int] = set()
    started: Set[int] = set()
    seen: Set[int] = set()
    for ev in history.events:
        if ev.tid in finished:
            raise MalformedHistoryError(
                f"E1: event {ev} follows T{ev.tid}'s commit/abort"
            )
        if isinstance(ev, Begin):
            if ev.tid in seen:
                raise MalformedHistoryError(
                    f"E2: begin of T{ev.tid} is not its first event"
                )
            if ev.tid in started:
                raise MalformedHistoryError(f"E2: duplicate begin for T{ev.tid}")
            started.add(ev.tid)
        if isinstance(ev, (Commit, Abort)):
            finished.add(ev.tid)
        seen.add(ev.tid)
    unfinished = seen - finished
    if unfinished:
        pretty = ", ".join(f"T{t}" for t in sorted(unfinished))
        raise MalformedHistoryError(
            f"E1: history is not complete — {pretty} never commit or abort "
            "(pass auto_complete=True to append aborts)"
        )


def _check_reads(history: ReferenceHistory) -> None:
    written: Set[Version] = set()
    setup_ok = history.setup_versions
    for ev in history.events:
        if isinstance(ev, Write):
            written.add(ev.version)
            continue
        if isinstance(ev, Read):
            v = ev.version
            if v.is_unborn:
                raise MalformedHistoryError(f"E5: read of unborn version at {ev}")
            if v not in written:
                if v not in setup_ok:
                    raise MalformedHistoryError(
                        f"E3: {ev} reads version {v} before it is written"
                    )
                if v.tid in history.aborted:
                    raise MalformedHistoryError(
                        f"E3: {ev} reads setup version {v} attributed to an "
                        "aborted transaction"
                    )
            elif history.kind_of(v) is VersionKind.DEAD:
                raise MalformedHistoryError(f"E5: read of dead version at {ev}")
        elif isinstance(ev, PredicateRead):
            for v in ev.vset.versions():
                if v.is_unborn or v in setup_ok:
                    continue
                if v not in written:
                    raise MalformedHistoryError(
                        f"E3: version set of {ev} selects {v} before it is written"
                    )


def _check_read_own_writes(history: ReferenceHistory) -> None:
    # Last own write per (tid, obj) as the scan proceeds.
    last_own: Dict[Tuple[int, str], Version] = {}
    for ev in history.events:
        if isinstance(ev, Write):
            last_own[(ev.tid, ev.version.obj)] = ev.version
        elif isinstance(ev, Read):
            own = last_own.get((ev.tid, ev.version.obj))
            if own is not None and ev.version != own:
                raise MalformedHistoryError(
                    f"E4: {ev} must observe the transaction's own last write {own}"
                )


def _check_write_numbering(history: ReferenceHistory) -> None:
    counters: Dict[Tuple[int, str], int] = {}
    for ev in history.events:
        if not isinstance(ev, Write):
            continue
        key = (ev.tid, ev.version.obj)
        expected = counters.get(key, 0) + 1
        if ev.version.seq != expected:
            raise MalformedHistoryError(
                f"E6: {ev} has sequence {ev.version.seq}, expected {expected} "
                f"(T{ev.tid}'s writes to {ev.version.obj!r} must be numbered in order)"
            )
        counters[key] = expected


def _check_dead_usage(history: ReferenceHistory) -> None:
    deleted: Set[Tuple[int, str]] = set()
    for ev in history.events:
        if isinstance(ev, Write):
            key = (ev.tid, ev.version.obj)
            if key in deleted:
                raise MalformedHistoryError(
                    f"E7: {ev} operates on {ev.version.obj!r} after T{ev.tid} deleted it"
                )
            if ev.dead:
                deleted.add(key)
        elif isinstance(ev, Read):
            if (ev.tid, ev.version.obj) in deleted:
                raise MalformedHistoryError(
                    f"E7: {ev} reads {ev.version.obj!r} after T{ev.tid} deleted it"
                )


# ----------------------------------------------------------------------
# version-order constraints
# ----------------------------------------------------------------------


def _check_version_order(history: ReferenceHistory) -> None:
    setup = history.setup_versions
    for obj, chain in history.version_order.items():
        assert chain[0].is_unborn  # by construction
        seen: Set[Version] = set()
        dead_seen = False
        for v in chain[1:]:
            if v in seen:
                raise VersionOrderError(f"V2: duplicate version {v} in order of {obj!r}")
            seen.add(v)
            if v in setup:
                if v.tid in history.aborted:
                    raise VersionOrderError(
                        f"V2: setup version {v} attributed to aborted T{v.tid}"
                    )
                kind = VersionKind.VISIBLE
            else:
                write = history.writes.get(v)
                if write is None:
                    raise VersionOrderError(
                        f"V2: version order of {obj!r} contains {v}, which is "
                        "never written"
                    )
                if v.tid not in history.committed:
                    raise VersionOrderError(
                        f"V2: version order of {obj!r} contains {v} of an "
                        "uncommitted or aborted transaction"
                    )
                if not history.is_final(v):
                    raise VersionOrderError(
                        f"V2: version order of {obj!r} contains intermediate "
                        f"version {v}; only final versions are installed"
                    )
                kind = VersionKind.DEAD if write.dead else VersionKind.VISIBLE
            if dead_seen:
                raise VersionOrderError(
                    f"V1: version order of {obj!r} places {v} after a dead version"
                )
            if kind is VersionKind.DEAD:
                dead_seen = True
        # every committed final write must be installed
        for tid in history.committed:
            final = history.final_version(obj, tid)
            if final is not None and final not in seen:
                raise VersionOrderError(
                    f"V2: committed version {final} missing from version order of {obj!r}"
                )
