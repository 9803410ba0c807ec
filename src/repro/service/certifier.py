"""Folding N shard logs into the one history the paper's tests judge.

The fold is stated once, in :meth:`GlobalCertifier.feed`, and both of its
users run it: online, every shard's recorder (and every backup's read
recorder) feeds one certifier whose sink is the live
:class:`~repro.core.incremental.IncrementalAnalysis` (live certification);
in batch, :func:`merge_history` feeds the finished logs, in recording-tick
order, to a certifier whose sink collects one validated
:class:`~repro.core.history.History` (the authoritative end-of-run pass).
Its rules, the same for every transaction:

* a begin is kept at its first copy;
* a transaction's end, commit or abort alike, is emitted once, when as many
  copies of it have arrived as the transaction has participants (at once
  with one participant or none); a commit carries the union of its copies'
  finals and positions, and copies of both kinds are a 2PC atomicity
  violation;
* an operation of a transaction whose abort was already emitted is dropped
  (a crash aborted it while a backup or another shard still served it).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Set, Tuple

from ..core.events import Abort, Begin, Commit
from ..core.history import History

__all__ = ["GlobalCertifier", "merge_history"]


class GlobalCertifier:
    """Merges the per-shard event streams into one stream for ``analysis``
    (anything with :meth:`~repro.core.incremental.IncrementalAnalysis.add`'s
    signature).

    Objects are partitioned, so the streams never contend on an object and
    operations forward as they come, until their transaction's abort has
    been forwarded.  A cross-shard transaction records one end per
    participant; the certifier buffers the copies and forwards a *single*
    end once every participant has applied, so the analysis sees each
    transaction finish exactly once, atomically.  Single-participant ends
    pass straight through, which is what makes a ``shards=1`` cluster feed
    the analysis the byte-identical stream a single server would.
    """

    def __init__(
        self, analysis, participants_of: Callable[[int], Tuple[int, ...]]
    ) -> None:
        self.analysis = analysis
        #: gid -> shard indices the transaction runs at.
        self.participants_of = participants_of
        self._begun: Set[int] = set()
        #: gid -> [end copies seen, their kind, merged finals, merged positions]
        self._parts: Dict[int, list] = {}
        #: gid -> the kind (Commit or Abort) of the end emitted for it.
        self._ended: Dict[int, type] = {}

    def add(self, event, *, finals=None, positions=None) -> None:
        """The monitor protocol: every shard's recorder (and every backup's
        read recorder) has the one certifier as its monitor."""
        self.feed(event, finals, positions)

    def feed(self, event, finals, positions) -> None:
        tid, kind = event.tid, type(event)
        if kind is Begin:
            if tid not in self._begun:
                self._begun.add(tid)
                self.analysis.add(event)
        elif kind is Commit or kind is Abort:
            ended = self._ended.get(tid)
            if ended is None:
                n = len(self.participants_of(tid))
                if n > 1:
                    acc = self._parts.setdefault(tid, [0, kind, {}, {}])
                    if acc[1] is not kind:
                        _split(tid)
                    acc[0] += 1
                    if finals:
                        acc[2].update(finals)
                    if positions:
                        acc[3].update(positions)
                    if acc[0] < n:
                        return
                    del self._parts[tid]
                    finals, positions = acc[2], acc[3]
                self._ended[tid] = kind
                self.analysis.add(event, finals=finals, positions=positions)
            elif ended is not kind:
                _split(tid)
        elif self._ended.get(tid) is not Abort:
            self.analysis.add(event)


def _split(tid: int) -> None:
    raise ValueError(
        f"T{tid} both committed and aborted across shards "
        "(2PC atomicity violation)"
    )


class _Events(list):
    """A fold sink that keeps the events (a history needs no finals)."""

    def add(self, event, finals=None, positions=None) -> None:
        self.append(event)


def merge_history(
    slots: Sequence,
    participants_of: Callable[[int], Tuple[int, ...]],
    *,
    now: int,
    validate: bool = True,
) -> History:
    """The execution of ``slots`` (one :class:`~repro.service.shard.
    ShardSlot` per shard) as *one* Adya history.

    Per-shard durable logs and the backups' served reads merge on the
    network tick each event was recorded at (ties broken by shard index,
    then log position; an event without a noted tick counts as recorded
    ``now``) and run through the fold (:meth:`GlobalCertifier.feed`).
    Version orders concatenate per object from the shards' commit rows,
    read in the same pass as their events — install keys are globally
    monotone per object (see ``HistoryRecorder.position_base``), so a plain
    sort reconstructs the true install order even across migrations.  With
    one shard and no replica reads this is exactly the shard's own history,
    byte for byte.
    """
    replicas = [r for slot in slots for r in slot.replicas]
    replica_reads = [
        (r.read_ticks[li], len(slots) + fi, li, ev)
        for fi, r in enumerate(replicas)
        for li, ev in enumerate(r.reads.events)
    ]
    if len(slots) == 1 and not replica_reads:
        return slots[0].primary.recorder.history(validate=validate)
    entries = []
    installs: Dict[str, List[tuple]] = {}
    for slot in slots:
        ticks = slot.event_ticks
        for li, (ev, finals, keys) in enumerate(slot.primary.recorder._shipped()):
            tick = ticks[li] if li < len(ticks) else now
            entries.append((tick, slot.index, li, ev))
            if finals is not None:
                for obj, key in keys.items():
                    installs.setdefault(obj, []).append((key, finals[obj]))
    # Replica-served reads merge with their true version provenance at
    # the tick they were served — the lagging-snapshot observations the
    # global analysis certifies the core levels over (PL-SI needs the
    # batch checker).
    entries.extend(replica_reads)
    # (tick, shard, position) is unique: the sort never compares events.
    entries.sort()
    events = _Events()
    feed = GlobalCertifier(events, participants_of).feed
    for _tick, _si, _li, ev in entries:
        feed(ev, None, None)
    order = {
        obj: [e[1] for e in sorted(ents, key=lambda e: e[0])]
        for obj, ents in installs.items()
    }
    return History(events, order, auto_complete=True, validate=validate)
