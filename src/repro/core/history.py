"""Transaction histories (paper Section 4.2).

A :class:`History` is the pair the paper calls ``H``:

* a sequence of :mod:`events <repro.core.events>` — one linearization of the
  paper's partial order ``E``; and
* a *version order* ``<<`` — for each object, a total order over the
  committed versions of that object.

The version order is deliberately independent of event order: a version may
be ordered before another even though it was installed later (the paper's
``H_write-order`` example), which is what admits multi-version and optimistic
implementations.

On construction the history is validated against every well-formedness
constraint of Section 4.2 (see :mod:`repro.core.validation`); an invalid
history raises :class:`~repro.exceptions.MalformedHistoryError` or
:class:`~repro.exceptions.VersionOrderError`.  All conflict/phenomenon
analysis assumes a validated history.
"""

from __future__ import annotations

from array import array
from functools import cached_property
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..exceptions import MalformedHistoryError, VersionOrderError
from .events import Abort, Begin, Event, PredicateRead, Read, Write
from .interning import (
    EventLog,
    K_ABORT,
    K_BEGIN,
    K_COMMIT,
    K_PREAD,
    K_READ,
    K_WRITE,
)
from .objects import INIT_TID, Version, VersionKind, relation_of
from .predicates import Predicate
from .validation import validate_history

__all__ = ["History"]


class History:
    """An immutable transaction history ``H = (E, <<)``.

    Parameters
    ----------
    events:
        The event sequence.  Must be *complete*: every transaction mentioned
        has exactly one :class:`Commit` or :class:`Abort` as its last event.
        Pass ``auto_complete=True`` to append aborts for unfinished
        transactions, the completion rule of Section 4.2.
    version_order:
        ``{obj: [v1, v2, ...]}`` listing the committed visible (and at most
        one final dead) versions of each object, *excluding* the unborn
        version, which is prepended automatically.  If ``None``, the order
        defaults to the order of the committed transactions' final write
        events — correct for single-version implementations and for every
        example in the paper that omits an explicit order.
    default_level:
        Isolation level assumed for transactions without a ``Begin`` event
        declaring one (used by mixed-system checks; ``None`` means PL-3).
    validate:
        Whether to run full well-formedness validation (on by default;
        generators that construct histories correct by construction may skip
        it for speed).
    """

    def __init__(
        self,
        events: Iterable[Event],
        version_order: Optional[Mapping[str, Sequence[Version]]] = None,
        *,
        default_level: Optional[object] = None,
        auto_complete: bool = False,
        validate: bool = True,
    ):
        self.events: Tuple[Event, ...] = tuple(events)
        if auto_complete:
            aborts = _missing_aborts(self.log)
            if aborts:
                self.events += aborts
                del self.log  # rebuilt on first use, over the completed events
        self.default_level = default_level
        self._explicit_order = version_order is not None
        # Per-predicate memoization (keyed by predicate identity, holding a
        # reference so the id stays valid): match results per version, match-
        # change results per version, and per-object changer positions.  A
        # history is immutable, so these never need invalidation.
        self._pred_caches: Dict[int, Tuple[object, Dict, Dict, Dict]] = {}
        #: Transactions with a commit / an abort event.
        self.committed: frozenset[int]
        self.aborted: frozenset[int]
        #: The committed transactions in the order of their commit events.
        self._commit_order: List[int]
        #: Every write event indexed by the version it creates.
        self.writes: Dict[Version, Write]
        #: ``(obj, tid)`` -> the largest ``seq`` among ``T_tid``'s writes of
        #: ``obj`` (see :meth:`final_version`).
        self._final_seq: Dict[Tuple[str, int], int]
        #: Versions referenced by reads, version sets or a supplied order
        #: but never written by any event — the paper's implicit initial
        #: database state (e.g. ``x0`` in ``H_phantom``).  They are installed
        #: right after the unborn version and treated as visible versions of
        #: committed transactions.
        self.setup_versions: frozenset[Version]
        self.version_order: Dict[str, Tuple[Version, ...]] = self._build_order(
            version_order
        )
        if validate:
            validate_history(self)

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    @cached_property
    def log(self) -> EventLog:
        """Array-of-struct mirror of the event sequence (built lazily; the
        index builders all read from it)."""
        return EventLog(self.events)

    def _build_order(
        self, supplied: Optional[Mapping[str, Sequence[Version]]]
    ) -> Dict[str, Tuple[Version, ...]]:
        """The version order of every object: the supplied chains, else the
        committed transactions' final writes in event order, each prefixed
        with the unborn version and the object's setup versions.

        One sweep over the flat event log (kind codes and interned ids),
        which also leaves the tables it has in hand on the history:
        :attr:`committed` (and the commit order), :attr:`aborted`,
        :attr:`writes`, :attr:`setup_versions` and the final-write index behind
        :meth:`final_version` / :meth:`is_final` (and :attr:`_nonfinal`).
        """
        log = self.log
        inn = log.interner
        kind, tids, vids = log.kind, log.tid, log.vid
        versions, objects = inn.versions, inn.objects
        ver_obj, ver_tid, ver_seq = inn.ver_obj, inn.ver_tid, inn.ver_seq
        version_id = inn.version_id
        events = self.events
        commits: List[int] = []
        aborts: List[int] = []
        writes: Dict[Version, Write] = {}
        final_seq: Dict[Tuple[str, int], int] = {}
        write_rows: List[int] = []  # the vid of every write, in event order
        # Versions read, or selected by a version set, in first-appearance
        # order: the candidates for setup versions.
        observed: Dict[int, None] = {}
        for i, k in enumerate(kind):
            if k == K_WRITE:
                vid = vids[i]
                writes[versions[vid]] = events[i]
                write_rows.append(vid)
                key = (objects[ver_obj[vid]], ver_tid[vid])
                seq = ver_seq[vid]
                if seq > final_seq.setdefault(key, seq):
                    final_seq[key] = seq
            elif k == K_READ:
                observed[vids[i]] = None
            elif k == K_COMMIT:
                commits.append(tids[i])
            elif k == K_ABORT:
                aborts.append(tids[i])
            elif k == K_PREAD:
                for v in events[i].vset.versions():
                    observed[version_id[v]] = None
        committed = frozenset(commits)
        self.committed = committed
        self._commit_order = commits
        self.aborted = frozenset(aborts)
        self.writes = writes
        self._final_seq = final_seq

        order: Dict[str, List[Version]] = {}
        unwritten: List[Version] = []  # in a supplied chain, written by no event
        if supplied is not None:
            for obj, chain_vs in supplied.items():
                chain: List[Version] = []
                for v in chain_vs:
                    if v.tid == INIT_TID:
                        continue  # the unborn version is implicit
                    if v.obj != obj:
                        raise VersionOrderError(
                            f"version order for {obj!r} contains version of {v.obj!r}"
                        )
                    if v not in writes:
                        unwritten.append(v)
                    chain.append(v)
                order[obj] = chain
        supplied_objs = frozenset(order)
        for vid in write_rows:
            tid = ver_tid[vid]
            if tid in committed:
                obj = objects[ver_obj[vid]]
                if obj not in supplied_objs and ver_seq[vid] == final_seq[(obj, tid)]:
                    order.setdefault(obj, []).append(versions[vid])
        # Every object mentioned anywhere gets an order entry so lookups are
        # uniform (the interner holds them in first-appearance order), and
        # *setup versions* — versions that are read (directly or in a
        # version set) but never written by any event, representing the
        # paper's implicit initial database state (e.g. ``x0`` in
        # ``H_phantom``, or ``y0`` in ``H_pred-read`` where T0 has events but
        # no write of ``y``) — are installed right after the unborn version.
        for obj in objects:
            order.setdefault(obj, [])
        setup: Dict[str, List[Version]] = {}
        in_chain: Dict[str, frozenset[Version]] = {}
        for vid in observed:
            v = versions[vid]
            if ver_tid[vid] == INIT_TID or v in writes:
                continue
            obj = objects[ver_obj[vid]]
            if obj in supplied_objs:  # only a supplied chain can hold it
                placed = in_chain.get(obj)
                if placed is None:
                    placed = in_chain[obj] = frozenset(order[obj])
                if v in placed:
                    continue
            setup.setdefault(obj, []).append(v)
        self.setup_versions = frozenset(unwritten).union(*setup.values())
        return {
            obj: (Version.unborn(obj),) + tuple(setup.get(obj, ())) + tuple(chain)
            for obj, chain in order.items()
        }

    # ------------------------------------------------------------------
    # basic indexes
    # ------------------------------------------------------------------

    @cached_property
    def tids(self) -> Tuple[int, ...]:
        """All application transaction ids, in order of first appearance."""
        return tuple(dict.fromkeys(self.log.tid))

    def final_version(self, obj: str, tid: int) -> Optional[Version]:
        """``x_i``: the last version of ``obj`` written by ``T_tid``, or
        ``None`` if it never wrote ``obj``."""
        seq = self._final_seq.get((obj, tid))
        if seq is None:
            return None
        return Version(obj, tid, seq)

    def is_final(self, version: Version) -> bool:
        """Whether ``version`` is its writer's final modification of the
        object (i.e. ``x_{i:m}`` with maximal ``m``)."""
        return self._final_seq.get((version.obj, version.tid)) == version.seq

    @cached_property
    def _nonfinal(self) -> frozenset[int]:
        """The interned ids of the written versions that are not their
        writer's final modification of the object — :meth:`is_final` of each
        is false, and a committed transaction reading one exhibits G1b.  Every
        other version read is final, unborn or a setup version."""
        log = self.log
        inn = log.interner
        objects, ver_obj, ver_tid, ver_seq = (
            inn.objects, inn.ver_obj, inn.ver_tid, inn.ver_seq,
        )
        final_seq = self._final_seq
        return frozenset(
            vid
            for k, vid in zip(log.kind, log.vid)
            if k == K_WRITE
            and ver_seq[vid] != final_seq[(objects[ver_obj[vid]], ver_tid[vid])]
        )

    @cached_property
    def _rewritten(self) -> frozenset[Tuple[str, int]]:
        """``(obj, tid)`` of every writer with a second write ``x_{i:2}``
        of ``obj`` (the writers whose version labels carry ``.seq``)."""
        return frozenset((v.obj, v.tid) for v in self.writes if v.seq == 2)

    @cached_property
    def installed(self) -> frozenset[Version]:
        """All versions that appear in some object's version order (the
        committed versions, paper Section 4.2)."""
        return frozenset(v for chain in self.version_order.values() for v in chain)

    def order_of(self, obj: str) -> Tuple[Version, ...]:
        """The full version order of ``obj`` including the unborn version."""
        return self.version_order.get(obj, (Version.unborn(obj),))

    @cached_property
    def order_index(self) -> Dict[Version, int]:
        """Position of every installed version within its object's version
        order (unborn version at index 0)."""
        return {
            v: i
            for chain in self.version_order.values()
            for i, v in enumerate(chain)
        }

    def next_installed(self, version: Version) -> Optional[Version]:
        """The version immediately following ``version`` in its object's
        version order, or ``None`` if it is the last (or not installed)."""
        idx = self.order_index.get(version)
        if idx is None:
            return None
        chain = self.order_of(version.obj)
        return chain[idx + 1] if idx + 1 < len(chain) else None

    @cached_property
    def _installed_rows(self) -> Tuple[List[Version], List[int], bytearray, array]:
        """The version orders as flat columns (what the conflict extractors
        read instead of :attr:`order_index` and :meth:`next_installed`).

        ``(versions, tids, last, row_of_vid)``: row ``p`` is one installed
        version, the chains laid end to end in :attr:`version_order`'s
        order, so the version after ``p`` in its chain is row ``p + 1``
        unless ``last[p]``; ``tids[p]`` is its writer and
        ``row_of_vid[vid]`` the row of a version the event log interned
        (``-1``: not installed).
        """
        version_id = self.log.interner.version_id
        versions: List[Version] = []
        tids: List[int] = []
        last = bytearray()
        row_of_vid = array("l", (-1,)) * len(self.log.interner.versions)
        for chain in self.version_order.values():
            row = len(versions)
            versions.extend(chain)
            last.extend(bytes(len(chain) - 1))
            last.append(1)
            for version in chain:
                tids.append(version.tid)
                vid = version_id.get(version)
                if vid is not None:
                    row_of_vid[vid] = row
                row += 1
        return versions, tids, last, row_of_vid

    # ------------------------------------------------------------------
    # version attributes
    # ------------------------------------------------------------------

    @cached_property
    def setup_tids(self) -> frozenset[int]:
        """Transactions that install only setup versions and have no events
        of their own (e.g. T0 in ``H_phantom``, whose DSG caption reads
        "T0 is not shown")."""
        return frozenset(v.tid for v in self.setup_versions) - {
            ev.tid for ev in self.events
        }

    @cached_property
    def committed_all(self) -> frozenset[int]:
        """Committed application transactions plus implicit setup
        transactions; the node set of the DSG."""
        return self.committed | frozenset(
            v.tid for v in self.installed if not v.is_unborn
        ) - self.aborted

    @cached_property
    def _commit_rank(self) -> Dict[int, int]:
        """``tid`` -> the place of its commit event among the commit events
        (the ranks of :meth:`repro.core.dsg.DSG._forward_from`'s
        certificate)."""
        return {tid: at for at, tid in enumerate(self._commit_order)}

    def kind_of(self, version: Version) -> VersionKind:
        """Unborn / visible / dead classification of a version."""
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

    def value_of(self, version: Version) -> Any:
        """The value carried by the version's write; for setup versions with
        no write event, the first value some read observed for it (``None``
        if unrecorded either way)."""
        if version.is_unborn:
            return None
        write = self.writes.get(version)
        if write is not None:
            return write.value
        vid = self.log.interner.version_id.get(version)
        return None if vid is None else self._read_values.get(vid)

    @cached_property
    def _read_values(self) -> Dict[int, Any]:
        """Interned version id -> the first non-``None`` value a read
        observed of it, in event order (:meth:`value_of` of a version no
        event wrote)."""
        vids, events = self.log.vid, self.events
        values: Dict[int, Any] = {}
        for i in self._read_at:
            value = events[i].value
            if value is not None:
                values.setdefault(vids[i], value)
        return values

    def _pred_cache(self, predicate: Predicate) -> Tuple[Dict, Dict, Dict]:
        """The (matches, changes, changers) memo dicts for one predicate.

        Keyed by object identity rather than predicate equality: predicate
        equality is by name only, so two same-named predicates with
        different semantics (e.g. successive ``MembershipPredicate``
        refinements) must not share entries.
        """
        entry = self._pred_caches.get(id(predicate))
        if entry is None or entry[0] is not predicate:
            entry = (predicate, {}, {}, {})
            self._pred_caches[id(predicate)] = entry
        return entry[1], entry[2], entry[3]

    def version_matches(self, predicate: Predicate, version: Version) -> bool:
        """Predicate evaluation with the Section 4.3 guard: unborn and dead
        versions never match.  Setup versions (no write event) are visible
        and evaluated with their observed value.  Results are memoized per
        ``(predicate, version)`` — predicate reads over the same chain
        re-consult the same versions many times."""
        matches, _changes, _changers = self._pred_cache(predicate)
        hit = matches.get(version)
        if hit is not None:
            return hit
        result = self._version_matches_uncached(predicate, version)
        matches[version] = result
        return result

    def _version_matches_uncached(self, predicate: Predicate, version: Version) -> bool:
        if version.is_unborn:
            return False
        write = self.writes.get(version)
        if write is None:
            if version not in self.setup_versions:
                return False
            return predicate.matches(version, self.value_of(version))
        if write.dead:
            return False
        return predicate.matches(version, write.value)

    def changes_matches(self, predicate: Predicate, version: Version) -> bool:
        """Definition 2: whether installing ``version`` changed the matched
        set of ``predicate`` relative to the immediately preceding version in
        the object's version order.  Only meaningful for installed versions.
        Memoized per ``(predicate, version)``.
        """
        _matches, changes, _changers = self._pred_cache(predicate)
        hit = changes.get(version)
        if hit is not None:
            return hit
        chain = self.order_of(version.obj)
        idx = self.order_index.get(version)
        if idx is None:
            raise VersionOrderError(
                f"{version} is not an installed version, cannot test match change"
            )
        if idx == 0:
            result = False  # the unborn version has no predecessor
        else:
            before = self.version_matches(predicate, chain[idx - 1])
            after = self.version_matches(predicate, version)
            result = before != after
        changes[version] = result
        return result

    def predicate_changers(self, predicate: Predicate, obj: str) -> Tuple[int, ...]:
        """Positions ``k >= 1`` in ``obj``'s version order whose version
        *changed the matches* of ``predicate`` (Definition 2), ascending.

        One linear scan per ``(predicate, object)``, memoized; the conflict
        extractors answer "latest changer at or before position i" /
        "changers after position i" with a bisect into this tuple instead of
        rescanning the chain per predicate read.
        """
        _matches, _changes, changers = self._pred_cache(predicate)
        hit = changers.get(obj)
        if hit is not None:
            return hit
        chain = self.order_of(obj)
        positions: List[int] = []
        before = False  # the unborn version never matches
        for k in range(1, len(chain)):
            after = self.version_matches(predicate, chain[k])
            if after != before:
                positions.append(k)
            before = after
        result = tuple(positions)
        changers[obj] = result
        return result

    # ------------------------------------------------------------------
    # predicate version-set completion
    # ------------------------------------------------------------------

    @cached_property
    def objects_by_relation(self) -> Dict[str, Tuple[str, ...]]:
        """Universe of objects per relation, in order of first appearance.

        Conceptually ``T_init`` creates every object that will ever exist
        (Section 4.1); in a finite history the universe is the set of objects
        mentioned anywhere in it.
        """
        seen: Dict[str, Dict[str, None]] = {}
        for obj in self._all_objects:
            seen.setdefault(relation_of(obj), {}).setdefault(obj, None)
        return {rel: tuple(objs) for rel, objs in seen.items()}

    @cached_property
    def _all_objects(self) -> Tuple[str, ...]:
        # The interner allocates object ids in first-appearance order
        # (EventLog interns a predicate read's vset objects before its
        # versions for this reason).
        return tuple(self.log.interner.objects)

    def vset_objects(self, pread: PredicateRead) -> Tuple[str, ...]:
        """All objects conceptually covered by a predicate read's version
        set: every object of the predicate's relations known to the history,
        plus any explicitly selected ones."""
        objs: Dict[str, None] = {}
        for rel in pread.predicate.relations:
            for obj in self.objects_by_relation.get(rel, ()):
                objs.setdefault(obj, None)
        for obj in pread.vset.objects():
            objs.setdefault(obj, None)
        return tuple(objs)

    def vset_version(self, pread: PredicateRead, obj: str) -> Version:
        """The version of ``obj`` selected by the predicate read: the explicit
        entry if present, else the implicit unborn version (the paper shows
        only visible versions in examples; everything else defaults to
        unborn)."""
        explicit = pread.vset.get(obj)
        return explicit if explicit is not None else Version.unborn(obj)

    # ------------------------------------------------------------------
    # event/transaction structure
    # ------------------------------------------------------------------

    @cached_property
    def _event_positions(self) -> Dict[int, Dict[str, int]]:
        pos: Dict[int, Dict[str, int]] = {}
        log = self.log
        for i, (k, t) in enumerate(zip(log.kind, log.tid)):
            slot = pos.get(t)
            if slot is None:
                slot = pos[t] = {"first": i}
            slot["last"] = i
            if k == K_BEGIN:
                slot["begin"] = i
            elif k == K_COMMIT:
                slot["commit"] = i
            elif k == K_ABORT:
                slot["abort"] = i
        return pos

    def begin_index(self, tid: int) -> int:
        """Index of the transaction's start: its ``Begin`` event if present,
        else its first event."""
        slot = self._event_positions[tid]
        return slot.get("begin", slot["first"])

    def commit_index(self, tid: int) -> Optional[int]:
        return self._event_positions.get(tid, {}).get("commit")

    def abort_index(self, tid: int) -> Optional[int]:
        return self._event_positions.get(tid, {}).get("abort")

    def finish_index(self, tid: int) -> Optional[int]:
        """Index of the commit or abort event, ``None`` for ``T_init``."""
        slot = self._event_positions.get(tid, {})
        return slot.get("commit", slot.get("abort"))

    def level_of(self, tid: int):
        """The isolation level declared by the transaction's ``Begin`` event,
        else the history default, else PL-3 (resolved lazily to avoid an
        import cycle with :mod:`repro.core.levels`)."""
        level = self._declared_levels.get(tid)
        if level is not None:
            return level
        if self.default_level is not None:
            return self.default_level
        from .levels import IsolationLevel

        return IsolationLevel.PL_3

    @cached_property
    def _declared_levels(self) -> Dict[int, object]:
        """``tid`` -> the level of its first ``Begin`` event declaring one."""
        levels: Dict[int, object] = {}
        for ev in self.events:
            if isinstance(ev, Begin) and ev.level is not None:
                levels.setdefault(ev.tid, ev.level)
        return levels

    def events_of(self, tid: int) -> Tuple[Event, ...]:
        """The transaction's events, in order (filed once per history)."""
        return self._events_by_tid.get(tid, ())

    @cached_property
    def _events_by_tid(self) -> Dict[int, Tuple[Event, ...]]:
        by_tid: Dict[int, List[Event]] = {}
        for tid, ev in zip(self.log.tid, self.events):
            by_tid.setdefault(tid, []).append(ev)
        return {tid: tuple(evs) for tid, evs in by_tid.items()}

    @cached_property
    def _read_at(self) -> List[int]:
        """The event indexes of the item reads, in order (the rows of
        :attr:`log` the read scans walk)."""
        return [i for i, k in enumerate(self.log.kind) if k == K_READ]

    @cached_property
    def reads(self) -> Tuple[Tuple[int, Read], ...]:
        """All item reads with their event indexes."""
        events = self.events
        return tuple((i, events[i]) for i in self._read_at)

    @cached_property
    def predicate_reads(self) -> Tuple[Tuple[int, PredicateRead], ...]:
        return tuple(
            (i, ev)
            for i, (k, ev) in enumerate(zip(self.log.kind, self.events))
            if k == K_PREAD
        )

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------

    def committed_state(self) -> Dict[str, Any]:
        """The final committed database state: the value of the last visible
        version in each object's version order (deleted and never-born
        objects are omitted)."""
        state: Dict[str, Any] = {}
        for obj, chain in self.version_order.items():
            last = chain[-1]
            if last.is_unborn or self.kind_of(last) is not VersionKind.VISIBLE:
                continue
            state[obj] = self.value_of(last)
        return state

    def __len__(self) -> int:
        return len(self.events)

    def __str__(self) -> str:
        from .formatting import format_history

        return format_history(self)

    def __repr__(self) -> str:
        return f"History({len(self.events)} events, {len(self.tids)} txns)"


def _missing_aborts(log: EventLog) -> Tuple[Abort, ...]:
    """Abort events for the transactions without a final commit/abort, in
    order of first appearance (Section 4.2's completion rule)."""
    finished = {
        t for k, t in zip(log.kind, log.tid) if k == K_COMMIT or k == K_ABORT
    }
    return tuple(Abort(t) for t in dict.fromkeys(log.tid) if t not in finished)
