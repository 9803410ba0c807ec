"""Folding N shard logs into the one history the paper's tests judge.

The fold exists twice, with the same rules — a transaction begins once, and
a cross-shard transaction finishes once, when its last participant has
applied: online, :class:`GlobalCertifier` merges the shards' event streams
into one :class:`~repro.core.incremental.IncrementalAnalysis` as they are
recorded (live certification); in batch, :func:`merge_history` merges the
finished logs into one validated :class:`~repro.core.history.History` (the
authoritative end-of-run pass).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Set, Tuple

from ..core.events import Abort, Begin, Commit, PredicateRead, Read, Write
from ..core.history import History

__all__ = ["GlobalCertifier", "merge_history"]


class GlobalCertifier:
    """Merges the per-shard event streams into one online analysis.

    Reads, writes and predicate reads forward immediately (objects are
    partitioned, so streams never contend on an object).  Begins dedup to
    the first shard's copy; aborts likewise.  A cross-shard commit emits
    one Commit event per participant recorder — the certifier buffers the
    parts and forwards a *single* merged commit (union finals/positions)
    once every participant has applied, so the analysis sees each
    transaction commit exactly once, atomically.  Single-participant
    commits pass straight through, which is what makes a ``shards=1``
    cluster feed the analysis the byte-identical stream a single server
    would.
    """

    def __init__(
        self, analysis, participants_of: Callable[[int], Tuple[int, ...]]
    ) -> None:
        self.analysis = analysis
        #: gid -> shard indices the transaction runs at.
        self.participants_of = participants_of
        self._begun: Set[int] = set()
        self._aborted: Set[int] = set()
        #: gid -> [parts seen, merged finals, merged positions]
        self._parts: Dict[int, list] = {}

    def add(self, event, *, finals=None, positions=None) -> None:
        """The monitor protocol: every shard's recorder (and every backup's
        read recorder) has the one certifier as its monitor."""
        self.feed(event, finals, positions)

    def feed(self, event, finals, positions) -> None:
        a = self.analysis
        if isinstance(event, (Begin, Abort)):
            seen = self._begun if isinstance(event, Begin) else self._aborted
            if event.tid not in seen:
                seen.add(event.tid)
                a.add(event)
            return
        if isinstance(event, Commit):
            gid = event.tid
            participants = self.participants_of(gid)
            if len(participants) <= 1:
                a.add(event, finals=finals, positions=positions)
                return
            acc = self._parts.setdefault(gid, [0, {}, {}])
            acc[0] += 1
            if finals:
                acc[1].update(finals)
            if positions:
                acc[2].update(positions)
            if acc[0] >= len(participants):
                del self._parts[gid]
                a.add(event, finals=acc[1], positions=acc[2])
            return
        if (
            isinstance(event, (Read, Write, PredicateRead))
            and event.tid in self._aborted
        ):
            # A straggler operation at one shard after another shard already
            # aborted the transaction (e.g. a home-shard crash): the online
            # analysis has sealed the transaction, so drop it — it can never
            # commit, and the merged batch history still carries the event.
            return
        a.add(event)


def merge_history(slots: Sequence, *, now: int, validate: bool = True) -> History:
    """The execution of ``slots`` (one :class:`~repro.service.shard.
    ShardSlot` per shard) as *one* Adya history.

    Per-shard durable logs merge on the network tick each event was
    recorded at (ties broken by shard index, then log position; an event
    without a noted tick counts as recorded ``now``).  Begins dedup to the
    first copy; a cross-shard transaction's final event keeps its *last*
    copy (the commit/abort is globally complete only once every
    participant applied).  Version orders concatenate per object — install
    keys are globally monotone per object (see
    ``HistoryRecorder.position_base``), so a plain sort reconstructs the
    true install order even across migrations.  With one shard this is
    exactly the shard's own history, byte for byte.
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
    for slot in slots:
        ticks = slot.event_ticks
        for li, ev in enumerate(slot.primary.recorder.events):
            tick = ticks[li] if li < len(ticks) else now
            entries.append((tick, slot.index, li, ev))
    # Replica-served reads merge with their true version provenance at
    # the tick they were served — the lagging-snapshot observations the
    # global analysis certifies PL-SI / session levels over.
    entries.extend(replica_reads)
    entries.sort(key=lambda e: (e[0], e[1], e[2]))
    final: Dict[int, object] = {}  # tid -> the last copy of its final event
    for _tick, _si, _li, ev in entries:
        if isinstance(ev, (Commit, Abort)):
            seen = final.get(ev.tid)
            if seen is not None and type(seen) is not type(ev):
                raise ValueError(
                    f"T{ev.tid} both committed and aborted across shards "
                    "(2PC atomicity violation)"
                )
            final[ev.tid] = ev
    events = []
    begun: Set[int] = set()
    for _tick, _si, _li, ev in entries:
        if isinstance(ev, Begin):
            if ev.tid in begun:
                continue
            begun.add(ev.tid)
        elif isinstance(ev, (Commit, Abort)) and final[ev.tid] is not ev:
            continue
        events.append(ev)
    chains: Dict[str, List[tuple]] = {}
    for slot in slots:
        for obj, ents in slot.primary.recorder._install.items():
            chains.setdefault(obj, []).extend(ents)
    order = {
        obj: [v for _k, v in sorted(ents, key=lambda e: e[0])]
        for obj, ents in chains.items()
    }
    return History(events, order, auto_complete=True, validate=validate)
