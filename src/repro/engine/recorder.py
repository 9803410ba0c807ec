"""History recording for the engine.

Every scheduler narrates its execution through a :class:`HistoryRecorder`,
and the recorder is exactly its :class:`~repro.core.interning.EventLog`:
each operation appends one row (kind code, tid, version id, flag; the value
or level beside it), and each commit's row carries what the commit
installed.  The log keeps, as rows arrive, the tables a history derives
from its events (commit order, aborts, each version's last write).  Every
reader reads those rows: :meth:`HistoryRecorder.history` hands a copy of
the log and its install chains to :class:`~repro.core.history.History`,
which validates it without interning or sweeping the events again; a
monitor's replay and a replica's shipped entries are the rows as event
objects, each built once, when something first asks for it.

This is the bridge that makes the paper's thesis testable: locking, OCC and
MVCC executions all reduce to the same history formalism.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Dict, List, Optional

from ..core.events import Abort, Begin, Commit, Event, PredicateRead, Read, Write
from ..core.history import History
from ..core.interning import K_COMMIT, EventLog
from ..core.objects import Version
from ..core.predicates import Predicate, VersionSet

__all__ = ["HistoryRecorder"]


class HistoryRecorder:
    """An execution as one event log, with its version (install) order.

    A commit's row carries its installs, ``(finals, keys, vids)``: the
    versions it installed, their install keys (both by object, in name
    order) and their version ids in the same order.  They are stored there
    only; the install order, a history's version chains, a monitor's replay
    and the entries a replica is shipped are all read off the rows.

    An optional *monitor* — any object with the
    :meth:`~repro.core.incremental.IncrementalAnalysis.add` protocol,
    typically an :class:`~repro.core.incremental.IncrementalAnalysis` — can
    observe the execution online: every recorded event is forwarded as it
    happens, commits with their install positions, so phenomena can be
    detected *while the workload runs* rather than after materialising the
    full history.
    """

    def __init__(self, monitor: Optional[object] = None) -> None:
        #: The execution as rows (see :attr:`events` for event objects).
        self._log = EventLog()
        self._install_counter = 0
        #: Offset added to every install key.  Normally 0; a sharded cluster
        #: bumps the destination recorder's base when an object migrates in,
        #: so the object's future install keys sort after every key its old
        #: shard ever issued (per-object version order stays monotone even
        #: though keys come from different recorders' index spaces).
        self.position_base = 0
        self.monitor = monitor
        # Per-event-type bound counters, populated by instrument(); None
        # keeps every emission at exactly one extra `is not None` check.
        self._ev_counters: Optional[Dict[str, object]] = None

    @property
    def events(self) -> List[Event]:
        """The recorded events as objects (built from the rows on first
        use, once each)."""
        return self._log.events()

    def instrument(
        self, *, metrics: Optional[object] = None, scheduler: str = ""
    ) -> None:
        """Count every recorded event into ``metrics`` as
        ``history_events_total{type=...,scheduler=...}`` (begins, commits
        and aborts included — the engine's begin/commit/abort totals).
        The label set is bound once here so the per-event cost when
        enabled is a single dict add."""
        if metrics is None:
            self._ev_counters = None
            return
        counter = metrics.counter(
            "history_events_total", "history events recorded by type"
        )
        self._ev_counters = {
            kind: counter.labels(type=kind, scheduler=scheduler)
            for kind in ("begin", "read", "write", "predicate_read", "commit", "abort")
        }

    def attach_monitor(self, monitor: object) -> None:
        """Attach an online monitor mid-execution, replaying everything
        recorded so far (commits replay with their original install
        positions, so the monitor's version order matches ours)."""
        for ev, finals, keys in self._shipped():
            if finals is None:
                monitor.add(ev)
            else:
                monitor.add(ev, finals=finals, positions=keys)
        self.monitor = monitor

    # ------------------------------------------------------------------
    # replication
    # ------------------------------------------------------------------

    def _shipped(self, start: int = 0) -> List[tuple]:
        """Rows ``start ..`` as replication entries ``(event, finals,
        keys)``, ``finals``/``keys`` None but for a commit: what a backup
        is shipped and :meth:`apply_entry` appends."""
        log = self._log
        events, kind, extra = log.events(), log.kind, log.extra
        return [
            (events[i], extra[i][0], extra[i][1])
            if kind[i] == K_COMMIT
            else (events[i], None, None)
            for i in range(start, len(kind))
        ]

    def apply_entry(self, entry: tuple) -> None:
        """Append one shipped replication entry's row: the event verbatim,
        and for a commit its installs under the *primary's* install keys,
        so the install order is a prefix-exact copy of the primary's (a
        promoted backup keeps issuing keys that sort consistently after
        :meth:`rebase`)."""
        ev, finals, keys = entry
        log = self._log
        if finals is None:
            log.append(ev)
            return
        intern = log.interner.intern_version
        log.commit(ev.tid, (finals, keys, [intern(finals[obj]) for obj in keys]))
        log.keep(ev)

    def rebase(self, counter: int, base: int) -> None:
        """Rebase the install-key space onto another recorder's (used at
        backup promotion: the promoted log must hand out future keys that
        sort after every key the retired primary ever issued)."""
        self._install_counter = max(self._install_counter, counter)
        self.position_base = max(self.position_base, base)

    # ------------------------------------------------------------------
    # event emission
    # ------------------------------------------------------------------

    def begin(self, tid: int, level: Optional[object] = None) -> None:
        self._log.begin(tid, level)
        if self._ev_counters is not None:
            self._ev_counters["begin"].inc()
        if self.monitor is not None:
            self.monitor.add(self._log.keep(Begin(tid, level)))

    def read(self, tid: int, version: Version, value: Any = None, *, cursor: bool = False) -> None:
        self._log.read(tid, version, value, cursor)
        if self._ev_counters is not None:
            self._ev_counters["read"].inc()
        if self.monitor is not None:
            self.monitor.add(self._log.keep(Read(tid, version, value, cursor)))

    def write(self, tid: int, version: Version, value: Any = None, *, dead: bool = False) -> None:
        self._log.write(tid, version, value, dead)
        if self._ev_counters is not None:
            self._ev_counters["write"].inc()
        if self.monitor is not None:
            self.monitor.add(self._log.keep(Write(tid, version, value, dead)))

    def predicate_read(
        self, tid: int, predicate: Predicate, vset: VersionSet
    ) -> None:
        self._log.predicate_read(tid, predicate, vset)
        if self._ev_counters is not None:
            self._ev_counters["predicate_read"].inc()
        if self.monitor is not None:
            self.monitor.add(self._log.keep(PredicateRead(tid, predicate, vset)))

    def commit(
        self,
        tid: int,
        finals: Dict[str, Version],
        positions: Optional[Dict[str, int]] = None,
    ) -> None:
        """Emit the commit event and install the transaction's final
        versions.

        By default versions are installed in commit order (multi-version
        schedulers choose that order).  ``positions`` overrides the sort key
        per object — the single-version locking scheduler passes the write
        *event* index so that in-place overwrites order versions by when the
        write actually happened (which matters at Degree 0, where short
        write locks let writes of concurrent transactions interleave).
        """
        installed: Dict[str, Version] = {}
        keys: Dict[str, int] = {}
        vids: List[int] = []
        intern = self._log.interner.intern_version
        version_id = self._log.interner.version_id
        for obj in sorted(finals):
            self._install_counter += 1
            key = self._install_counter if positions is None else positions[obj]
            keys[obj] = key + self.position_base
            installed[obj] = version = finals[obj]
            vid = version_id.get(version)
            if vid is None:
                vid = intern(version)
            vids.append(vid)
        self._log.commit(tid, (installed, keys, vids))
        if self._ev_counters is not None:
            self._ev_counters["commit"].inc()
        if self.monitor is not None:
            self.monitor.add(
                self._log.keep(Commit(tid)), finals=installed, positions=keys
            )

    def _chains(self) -> Dict[str, List[int]]:
        """obj -> the version ids its commits installed, in install-key
        order (read off the commit rows)."""
        by_obj: Dict[str, List[tuple]] = {}
        for k, extra in zip(self._log.kind, self._log.extra):
            if k == K_COMMIT:
                for (obj, key), vid in zip(extra[1].items(), extra[2]):
                    by_obj.setdefault(obj, []).append((key, vid))
        return {
            obj: [vid for _key, vid in sorted(entries, key=_KEY)]
            for obj, entries in by_obj.items()
        }

    @property
    def install_order(self) -> Dict[str, List[Version]]:
        """The version order installed so far (sorted by install key)."""
        versions = self._log.interner.versions
        return {
            obj: [versions[vid] for vid in chain]
            for obj, chain in self._chains().items()
        }

    def abort(self, tid: int) -> None:
        self._log.abort(tid)
        if self._ev_counters is not None:
            self._ev_counters["abort"].inc()
        if self.monitor is not None:
            self.monitor.add(self._log.keep(Abort(tid)))

    # ------------------------------------------------------------------
    # materialisation
    # ------------------------------------------------------------------

    def history(
        self,
        *,
        default_level: Optional[object] = None,
        validate: bool = True,
    ) -> History:
        """The execution as a validated history.  Unfinished transactions
        (programs cut off by a step budget) are completed with aborts, the
        paper's completion rule.  The history adopts a copy of the log: the
        recorder may go on recording."""
        return History._of_log(
            self._log.copy(), self._chains(), default_level, validate
        )

    def __len__(self) -> int:
        return len(self._log.kind)


#: Install entries sort by their key.
_KEY = itemgetter(0)
