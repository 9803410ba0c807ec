"""History recording for the engine.

Every scheduler narrates its execution through a :class:`HistoryRecorder`:
each operation appends one row to the recorder's
:class:`~repro.core.interning.EventLog` (kind code, tid, version id, flag;
the value or level beside it), and each commit appends the transaction's
final versions to the per-object install order.  The log keeps, as rows
arrive, the tables a history derives from its events (commit order, aborts,
each version's last write).  At the end, :meth:`HistoryRecorder.history`
hands a copy of that log and the install order to
:class:`~repro.core.history.History`, which validates it without interning
or sweeping the events again; event objects are built from the rows only
when something asks for them.

This is the bridge that makes the paper's thesis testable: locking, OCC and
MVCC executions all reduce to the same history formalism.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Dict, Iterator, List, Optional

from ..core.events import Abort, Begin, Commit, Event, PredicateRead, Read, Write
from ..core.history import History
from ..core.interning import K_COMMIT, EventLog
from ..core.objects import Version
from ..core.predicates import Predicate, VersionSet

__all__ = ["HistoryRecorder"]


class HistoryRecorder:
    """Accumulates events and the version (install) order of an execution.

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
        #: obj -> ``(install key, version, version id)`` per installed version.
        self._install: Dict[str, List[tuple]] = {}
        self._install_counter = 0
        #: Offset added to every install key.  Normally 0; a sharded cluster
        #: bumps the destination recorder's base when an object migrates in,
        #: so the object's future install keys sort after every key its old
        #: shard ever issued (per-object version order stays monotone even
        #: though keys come from different recorders' index spaces).
        self.position_base = 0
        self.monitor = monitor
        #: Replication log: one ``(event, finals, keys)`` entry per event
        #: (``finals``/``keys`` are None except for commits, where they
        #: carry the installed versions and their base-adjusted install
        #: keys).  None until :meth:`enable_replication` — unreplicated
        #: recorders pay nothing.
        self.repl_log: Optional[List[tuple]] = None
        #: Trailing ``repl_log`` entries applied by :meth:`apply_entry`
        #: whose rows wait for a reader (a backup's copy is read when it is
        #: promoted, so until then it appends no rows).
        self._unrowed = 0
        # Per-event-type bound counters, populated by instrument(); None
        # keeps every emission at exactly one extra `is not None` check.
        self._ev_counters: Optional[Dict[str, object]] = None

    @property
    def events(self) -> List[Event]:
        """The recorded events as objects (built from the rows on first
        use, once each)."""
        return self._rows().events()

    def _rows(self) -> EventLog:
        """The log, with a row for every entry applied so far."""
        if self._unrowed:
            pending = self.repl_log[len(self.repl_log) - self._unrowed:]
            self._unrowed = 0
            for entry in pending:
                self._row_entry(*entry)
        return self._log

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
        for ev, finals, positions in self._entries():
            if finals is None:
                monitor.add(ev)
            else:
                monitor.add(ev, finals=finals, positions=positions)
        self.monitor = monitor

    def _entries(self) -> Iterator[tuple]:
        """Everything recorded so far as replication-log entries ``(event,
        finals, keys)``: a commit regains its installed versions and their
        install keys from the install order."""
        self._rows()
        keyed: Dict[int, Dict[str, tuple]] = {}
        for obj, entries in self._install.items():
            for key, version, _vid in entries:
                keyed.setdefault(version.tid, {})[obj] = (key, version)
        for ev, k in zip(self.events, self._log.kind):
            if k == K_COMMIT:
                slot = keyed.get(ev.tid, {})
                yield (
                    ev,
                    {obj: v for obj, (_k, v) in slot.items()},
                    {obj: k for obj, (k, _v) in slot.items()},
                )
            else:
                yield ev, None, None

    # ------------------------------------------------------------------
    # replication log
    # ------------------------------------------------------------------

    def enable_replication(self) -> None:
        """Start keeping a shippable replication log, backfilled for
        everything already recorded (the entries :meth:`attach_monitor`
        replays)."""
        if self.repl_log is None:
            self.repl_log = list(self._entries())

    def apply_entry(self, entry: tuple) -> None:
        """Append one shipped replication-log entry: the event verbatim,
        and for commits the installed versions under the *primary's*
        install keys, so a backup's install order is a prefix-exact copy
        of the primary's (a promoted backup keeps issuing keys that sort
        consistently after :meth:`rebase`).  With a replication log the
        entry's row waits there until something reads the rows."""
        ev, finals, keys = entry
        if self.repl_log is not None:
            self.repl_log.append(entry)
            self._unrowed += 1
        else:
            self._row_entry(ev, finals, keys)
        if self.monitor is not None:
            if finals is not None:
                self.monitor.add(ev, finals=dict(finals), positions=dict(keys))
            else:
                self.monitor.add(ev)

    def _row_entry(self, ev: Event, finals, keys) -> None:
        self._log.append(ev)
        if finals is not None:
            intern = self._log.interner.intern_version
            for obj in sorted(finals):
                version = finals[obj]
                self._install.setdefault(obj, []).append(
                    (keys[obj], version, intern(version))
                )

    def rebase(self, counter: int, base: int) -> None:
        """Rebase the install-key space onto another recorder's (used at
        backup promotion: the promoted log must hand out future keys that
        sort after every key the retired primary ever issued)."""
        self._install_counter = max(self._install_counter, counter)
        self.position_base = max(self.position_base, base)

    # ------------------------------------------------------------------
    # event emission
    # ------------------------------------------------------------------

    def _observed(self, ev: Event, finals=None, keys=None) -> None:
        """Hand the event just recorded to the replication log and the
        monitor, and keep it as its row's object: built once for all
        three."""
        ev = self._log.keep(ev)
        if self.repl_log is not None:
            self.repl_log.append(
                (ev, None, None) if finals is None else (ev, dict(finals), dict(keys))
            )
        if self.monitor is not None:
            if finals is None:
                self.monitor.add(ev)
            else:
                self.monitor.add(ev, finals=dict(finals), positions=keys)

    def begin(self, tid: int, level: Optional[object] = None) -> None:
        self._log.begin(tid, level)
        if self._ev_counters is not None:
            self._ev_counters["begin"].inc()
        if self.repl_log is not None or self.monitor is not None:
            self._observed(Begin(tid, level))

    def read(self, tid: int, version: Version, value: Any = None, *, cursor: bool = False) -> None:
        self._log.read(tid, version, value, cursor)
        if self._ev_counters is not None:
            self._ev_counters["read"].inc()
        if self.repl_log is not None or self.monitor is not None:
            self._observed(Read(tid, version, value, cursor))

    def write(self, tid: int, version: Version, value: Any = None, *, dead: bool = False) -> None:
        self._log.write(tid, version, value, dead)
        if self._ev_counters is not None:
            self._ev_counters["write"].inc()
        if self.repl_log is not None or self.monitor is not None:
            self._observed(Write(tid, version, value, dead))

    def predicate_read(
        self, tid: int, predicate: Predicate, vset: VersionSet
    ) -> None:
        self._log.predicate_read(tid, predicate, vset)
        if self._ev_counters is not None:
            self._ev_counters["predicate_read"].inc()
        if self.repl_log is not None or self.monitor is not None:
            self._observed(PredicateRead(tid, predicate, vset))

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
        keys: Dict[str, int] = {}
        intern = self._log.interner.intern_version
        version_id = self._log.interner.version_id
        for obj in sorted(finals):
            self._install_counter += 1
            key = self._install_counter if positions is None else positions[obj]
            key += self.position_base
            keys[obj] = key
            version = finals[obj]
            vid = version_id.get(version)
            if vid is None:
                vid = intern(version)
            self._install.setdefault(obj, []).append((key, version, vid))
        self._log.commit(tid)
        if self._ev_counters is not None:
            self._ev_counters["commit"].inc()
        if self.repl_log is not None or self.monitor is not None:
            self._observed(Commit(tid), finals, keys)

    @property
    def install_order(self) -> Dict[str, List[Version]]:
        """The version order installed so far (sorted by install key)."""
        self._rows()
        return {
            obj: [e[1] for e in sorted(entries, key=_KEY)]
            for obj, entries in self._install.items()
        }

    def abort(self, tid: int) -> None:
        self._log.abort(tid)
        if self._ev_counters is not None:
            self._ev_counters["abort"].inc()
        if self.repl_log is not None or self.monitor is not None:
            self._observed(Abort(tid))

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
        log = self._rows().copy()
        chains = {
            obj: [e[2] for e in sorted(entries, key=_KEY)]
            for obj, entries in self._install.items()
        }
        return History._of_log(log, chains, default_level, validate)

    def __len__(self) -> int:
        return len(self._log.kind) + self._unrowed


#: Install entries sort by their key.
_KEY = itemgetter(0)
