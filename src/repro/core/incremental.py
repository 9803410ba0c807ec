"""Incremental (online) phenomenon analysis.

:class:`IncrementalAnalysis` consumes history events one at a time and
maintains, between events, everything the batch checker derives from a full
:class:`~repro.core.history.History`:

* per-object version chains (the version order ``<<``), including the
  paper's implicit *setup* versions discovered on first read;
* the three direct-conflict edge sets of Section 4.4 — ``ww``/``wr``/``rw``,
  item and predicate flavours — as the rows of one growing
  :class:`~repro.core.conflicts.EdgeTable`, the batch checker's
  representation, with a key -> row dict for O(1) dedup and cursor-flag
  merge;
* the G1a/G1b witness sets.

G0/G1/G2 queries are then O(1) in the steady state: a
:class:`~repro.core.cycles.ViewChain` holds the same table and, at each
query, reads the rows appended since its last answer itself — appending a
row costs the feed nothing there — finding each cycle phenomenon at the row
that closes it; presence is monotone over a growing history, so a positive
verdict is cached permanently.  The chain certifies a view acyclic the way
the batch checker does, by node ranks in which every edge of the view goes
forward (commit order, ``-1`` for setup installers, fixed when a node
enters the DSG), at one compare per row; a Pearce–Kelly monitor exists only
for a view some edge goes backward in (see :mod:`repro.core.cycles`).
Appending one transaction and re-querying therefore costs amortised O(new
edges), not O(history) — the asymptotic gap ``bench_scaling_incremental``
pins.

Interned hot path
-----------------

All internal state is keyed by dense ints from a per-analysis
:class:`~repro.core.interning.Interner`.  A version is looked up by its
``(obj, tid, seq)`` tuple, one probe per read or write whether it is new
or not, and is never hashed as a :class:`~repro.core.objects.Version` (the
tuple hashes and compares in C); a predicate read keeps its version set
as ``{oid: vid}``, so its commit looks nothing up again.  From then on
chains are lists of version ids, a conflict's dedup key is a 5-int tuple
(the row's depth stands in for its kind), and the per-event work is int
dict/list traffic.  A read or a write
allocates no container of its own: events dispatch on
:data:`~repro.core.interning._KIND_OF_TYPE` (the table
:class:`~repro.core.interning.EventLog` uses), a transaction's final writes
are one ``{oid: vid}`` dict per transaction beside a vid -> write-index
dict, and its reads one flat ``[vid, read, ...]`` list.
:class:`~repro.core.conflicts.Edge` objects are built from rows on demand
(the :attr:`edges` property, and a provenance witness's rows only).

:meth:`add` is the one way in; :meth:`add_all` is ``add`` in a loop,
returning the analysis so a constructor call can be chained.

Edges are *activated* lazily: a conflict materialises only once both
endpoint transactions have committed, mirroring the batch extractors'
restriction to ``committed_all``.  Most chain updates are appends and apply
purely incrementally; the rare structural mutation (a mid-chain insert from
an out-of-order install key or a late-discovered setup version) triggers a
localized rebuild of the affected object's edges only: their rows are
tombstoned and the re-derived edges appended as new rows, so the live rows
keep the order in which their edges were (re-)derived.

Install order
-------------

Batch histories order versions either explicitly or by the default rule
(committed transactions' final write events).  The incremental analysis
supports the same spectrum through install keys:

* ``order_mode="event"`` (default) keys a committed final version by its
  write event's index — exactly the :class:`History` default order;
* ``order_mode="commit"`` keys by a monotone commit counter — the order
  multi-version engines and :func:`~repro.workloads.synthetic_history` use;
* per-commit ``positions`` (as passed by
  :meth:`~repro.engine.recorder.HistoryRecorder.commit`) override the key
  per object;
* ``version_order_hint`` pins the final chain of selected objects outright
  (used when replaying a history whose explicit order is known up front).

``to_history()`` materialises the accumulated events and chains as a
regular :class:`History`, and ``check()`` runs the batch checker over it
when full witness reports are needed; the incremental layer itself answers
presence and level queries without that round trip.
"""

from __future__ import annotations

from bisect import bisect_right
from operator import attrgetter
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .conflicts import DEPTH, RW, WR, WW, Edge, EdgeTable, PredicateDepMode
from .cycles import ViewChain
from .events import Abort, Event, PredicateRead, Read, Write
from .interning import (
    K_ABORT,
    K_COMMIT,
    K_PREAD,
    K_READ,
    K_WRITE,
    _KIND_OF_TYPE,
    Interner,
    _kind_by_base,
)
from .levels import ANSI_CHAIN, IsolationLevel
from .objects import INIT_TID, Version, relation_of
from .phenomena import Phenomenon, PhenomenonReport, Witness
from .predicates import Predicate

__all__ = ["IncrementalAnalysis"]

#: The depth of each edge flavour's rows (:data:`~repro.core.conflicts.DEPTH`):
#: ww, item wr, item rw, predicate wr, predicate rw.  With the predicate id
#: beside it, a depth also tells a row's flavour, so it stands in for the
#: kind in the dedup key.
_WW, _WR, _RW = (DEPTH[kind][0] for kind in (WW, WR, RW))
_PWR, _PRW = DEPTH[WR][1], DEPTH[RW][1]

#: Phenomena the incremental layer answers directly.
CORE_PHENOMENA: Tuple[Phenomenon, ...] = (
    Phenomenon.G0,
    Phenomenon.G1A,
    Phenomenon.G1B,
    Phenomenon.G1C,
    Phenomenon.G1,
    Phenomenon.G2_ITEM,
    Phenomenon.G2,
)

#: The levels :meth:`IncrementalAnalysis.provides` can certify — those
#: proscribing core phenomena only — with their proscribed phenomena.
_CORE_PROSCRIBED: Dict[IsolationLevel, Tuple[Phenomenon, ...]] = {
    level: level.proscribed
    for level in IsolationLevel
    if all(p in CORE_PHENOMENA for p in level.proscribed)
}


class _PreadRec:
    """Mutable record of one predicate read; ``selected`` is its version
    set interned, ``{oid: vid}`` in the set's order."""

    __slots__ = ("tid", "predicate", "selected", "committed")

    def __init__(self, tid: int, predicate: Predicate):
        self.tid = tid
        self.predicate = predicate
        self.selected: Dict[int, int] = {}
        self.committed = False


class IncrementalAnalysis:
    """Online DSG maintenance and G-phenomenon detection.

    Parameters
    ----------
    mode:
        Predicate-read-dependency quantification (as in the batch checker).
    order_mode:
        ``"event"`` or ``"commit"`` — how committed final versions are keyed
        into their object's version order (see the module docstring).
    version_order_hint:
        Optional explicit chains ``{obj: [v1, v2, ...]}``; versions listed
        here install at their hinted position regardless of ``order_mode``.
    watch:
        Phenomena to probe after every consumed event; ``on_phenomenon(ph,
        analysis)`` fires the first time each one becomes present — this is
        the engine's commit-time online monitor hook.
    """

    __slots__ = (
        "_ev_counter",
        "_edge_counter",
        "mode",
        "order_mode",
        "events",
        "committed",
        "aborted",
        "_in",
        "_vids",
        "_hint_by_version",
        "_hint_key",
        "_chains",
        "_unborn_vid",
        "_rel",
        "_setup_count",
        "_install_keys",
        "_pos",
        "_commit_counter",
        "_write_at",
        "_versions_of_tid",
        "_final",
        "_intermediate",
        "_reads_by_version",
        "_reads_of_tid",
        "_preads_of_tid",
        "_preads_by_relation",
        "_preads_by_vset_version",
        "_setup_versions",
        "_setup_value",
        "_objects_by_relation",
        "_rank",
        "_table",
        "_row_of",
        "_edge_keys_by_obj",
        "_keyed_built",
        "_g1a",
        "_g1b",
        "_preds",
        "_pred_ids",
        "_cycles",
        "_present",
        "_match_caches",
        "watch",
        "on_phenomenon",
        "_fired",
        "_looked",
    )

    def __init__(
        self,
        *,
        mode: PredicateDepMode = PredicateDepMode.LATEST,
        order_mode: str = "event",
        version_order_hint: Optional[Mapping[str, Sequence[Version]]] = None,
        watch: Iterable[Phenomenon] = (),
        on_phenomenon: Optional[Callable[[Phenomenon, "IncrementalAnalysis"], None]] = None,
        metrics: Optional[object] = None,
    ):
        if order_mode not in ("event", "commit"):
            raise ValueError(f"unknown order_mode {order_mode!r}")
        # Optional observability sink (see :mod:`repro.observability`):
        # per-event/per-edge counters here, SCC fallbacks in the view chain.
        self._ev_counter = (
            metrics.counter(
                "incremental_events_total", "events consumed by online analyses"
            ).labels()
            if metrics is not None
            else None
        )
        self._edge_counter = (
            metrics.counter(
                "incremental_edges_total", "DSG edges inserted by online analyses"
            ).labels()
            if metrics is not None
            else None
        )
        self.mode = mode
        self.order_mode = order_mode
        self.events: List[Event] = []
        self.committed: Set[int] = set()
        self.aborted: Set[int] = set()
        # Hints are recorded per Version and resolved to a vid lazily when
        # the version is first interned, so hinted-but-never-mentioned
        # objects do not enter the object universe early.
        self._hint_by_version: Dict[Version, int] = {}
        if version_order_hint:
            for chain in version_order_hint.values():
                for i, v in enumerate(chain):
                    if not v.is_unborn:
                        self._hint_by_version[v] = i
        self._hint_key: Dict[int, int] = {}  # vid -> hinted position
        # --- interned identity space -----------------------------------
        # Objects and the vid -> version columns live in ``_in``; versions
        # are looked up by ``(obj, tid, seq)`` in ``_vids``, so
        # ``_in.version_id`` stays empty.
        self._in = Interner()
        self._vids: Dict[Tuple[str, int, int], int] = {}
        # --- chains (all indexed by oid) --------------------------------
        self._chains: List[List[int]] = []  # oid -> [vid, ...], [0] unborn
        self._unborn_vid: List[int] = []
        self._rel: List[str] = []  # oid -> relation
        self._setup_count: List[int] = []
        self._install_keys: List[List[Any]] = []  # committed section keys
        self._pos: Dict[int, int] = {}  # vid -> position in its chain
        self._commit_counter = 0
        # --- events indexes (vid/tid keyed) -----------------------------
        self._write_at: Dict[int, int] = {}  # vid -> index of its write event
        self._versions_of_tid: Dict[int, List[int]] = {}
        #: tid -> {oid: final vid}, objects in first-write order.
        self._final: Dict[int, Dict[int, int]] = {}
        #: Written versions later superseded by the same writer — the G1b
        #: candidates.  A set probe here replaces a tuple-keyed dict probe
        #: in the commit-time read loop; membership is monotone because a
        #: superseded version can never become final again.
        self._intermediate: Set[int] = set()
        self._reads_by_version: Dict[int, List[Read]] = {}
        #: tid -> [vid, read, vid, read, ...]: flat, no pair per read.
        self._reads_of_tid: Dict[int, List[Any]] = {}
        self._preads_of_tid: Dict[int, List[_PreadRec]] = {}
        self._preads_by_relation: Dict[str, List[_PreadRec]] = {}
        self._preads_by_vset_version: Dict[int, List[_PreadRec]] = {}
        self._setup_versions: Set[int] = set()
        self._setup_value: Dict[int, Any] = {}
        self._objects_by_relation: Dict[str, List[str]] = {}
        #: The DSG's nodes, each with the rank fixed when it entered: its
        #: place in commit order, -1 for a setup installer.
        self._rank: Dict[int, int] = {}
        # --- edges and verdict caches ----------------------------------
        self._table = EdgeTable()
        #: (src, dst, depth, vid, pid) -> live row; pid 0 = no predicate.
        self._row_of: Dict[Tuple[int, ...], int] = {}
        # oid -> keys of its chain-dependent rows; built lazily at the first
        # structural repair (append-only runs never pay for it).
        self._edge_keys_by_obj: Dict[int, List[Tuple[int, ...]]] = {}
        self._keyed_built = False
        self._g1a: Set[Tuple[int, int]] = set()  # (reader tid, vid)
        self._g1b: Set[Tuple[int, int]] = set()
        self._preds: List[Optional[Predicate]] = [None]  # pid -> predicate
        self._pred_ids: Dict[Predicate, int] = {}
        # G0/G1c/G2-item/G2 verdicts; reads ``_table`` and ``_rank`` by
        # reference.
        self._cycles = ViewChain(self._table, self._rank, metrics)
        # Phenomena already proven present — permanent (presence over a
        # growing history is monotone), so re-queries are O(1).
        self._present: Set[Phenomenon] = set()
        self._match_caches: Dict[int, Dict[int, bool]] = {}  # pid -> {vid: bool}
        # --- monitoring -------------------------------------------------
        self.watch: Tuple[Phenomenon, ...] = tuple(watch)
        for ph in self.watch:
            if ph not in CORE_PHENOMENA:
                raise ValueError(
                    f"cannot watch {ph}: only core phenomena "
                    "(G0/G1a/G1b/G1c/G1/G2-item/G2) are maintained online"
                )
        self.on_phenomenon = on_phenomenon
        self._fired: Set[Phenomenon] = set()
        #: ``(rows, tombstones, |G1a|, |G1b|)`` at the last look at
        #: ``watch``: every answer is a function of these, so the watched
        #: phenomena are asked again only after one of them moved.
        self._looked: Optional[Tuple[int, int, int, int]] = None

    # ------------------------------------------------------------------
    # interning
    # ------------------------------------------------------------------

    def _register_object(self, obj: str) -> int:
        """Object id, creating the chain structures on first mention."""
        in_ = self._in
        oid = in_.obj_id.get(obj)
        if oid is not None:
            return oid
        oid = in_.intern_object(obj)
        uv = self._vid_of(Version.unborn(obj))
        self._unborn_vid.append(uv)
        self._chains.append([uv])
        self._pos[uv] = 0
        self._setup_count.append(0)
        self._install_keys.append([])
        rel = relation_of(obj)
        self._rel.append(rel)
        self._objects_by_relation.setdefault(rel, []).append(obj)
        return oid

    def _vid_of(self, v: Version) -> int:
        """Version id, interning (and registering the object) on first use.

        One probe of ``_vids``, hit or miss, once the object is known: the
        key is the version's ``(obj, tid, seq)`` tuple, which hashes and
        compares in C, where a :class:`Version` key runs its ``__hash__``
        (and, for an equal instance from another event, ``__eq__``) in
        Python."""
        vids = self._vids
        key = (v.obj, v.tid, v.seq)
        new = len(vids)
        vid = vids.setdefault(key, new)
        if vid != new:
            return vid
        in_ = self._in
        oid = in_.obj_id.get(v.obj)
        if oid is None:
            # A new object's unborn version takes the next id first (and may
            # be ``v`` itself).
            del vids[key]
            self._register_object(v.obj)
            return self._vid_of(v)
        in_.versions.append(v)
        in_.ver_obj.append(oid)
        in_.ver_tid.append(v.tid)
        in_.ver_seq.append(v.seq)
        if self._hint_by_version:
            hint = self._hint_by_version.get(v)
            if hint is not None:
                self._hint_key[vid] = hint
        return vid

    def _pid_of(self, predicate: Optional[Predicate]) -> int:
        if predicate is None:
            return 0
        pid = self._pred_ids.get(predicate)
        if pid is None:
            pid = len(self._preds)
            self._preds.append(predicate)
            self._pred_ids[predicate] = pid
        return pid

    # ------------------------------------------------------------------
    # feeding
    # ------------------------------------------------------------------

    def add(
        self,
        event: Event,
        *,
        finals: Optional[Mapping[str, Version]] = None,
        positions: Optional[Mapping[str, Any]] = None,
    ) -> None:
        """Consume one event.

        ``finals``/``positions`` apply to :class:`Commit` events only and
        mirror :meth:`HistoryRecorder.commit`: the versions to install (by
        default the transaction's final write per object) and their install
        keys (by default per ``order_mode``).
        """
        events = self.events
        events.append(event)
        if self._ev_counter is not None:
            self._ev_counter.inc()
        kind = _KIND_OF_TYPE.get(type(event))
        if kind is None:
            kind = _kind_by_base(event)
        if kind == K_WRITE:
            self._on_write(event, len(events) - 1)
        elif kind == K_READ:
            self._on_read(event)
        elif kind == K_PREAD:
            self._on_pread(event)
        elif kind == K_COMMIT:
            self._on_commit(event.tid, finals, positions)
        elif kind == K_ABORT:
            self._on_abort(event.tid)
        if self.watch and self.on_phenomenon is not None:
            table = self._table
            look = (
                len(table.src), table.tombstones, len(self._g1a), len(self._g1b)
            )
            if look != self._looked:
                self._looked = look
                for ph in self.watch:
                    if ph not in self._fired and self.exhibits(ph):
                        self._fired.add(ph)
                        self.on_phenomenon(ph, self)

    def add_all(self, events: Iterable[Event]) -> "IncrementalAnalysis":
        """``add()`` in a loop; returns the analysis for chaining."""
        for event in events:
            self.add(event)
        return self

    def finish(self) -> None:
        """Section 4.2's completion rule: abort every unfinished
        transaction (mirrors ``History(auto_complete=True)``)."""
        finished = self.committed | self.aborted
        tids = dict.fromkeys(map(attrgetter("tid"), self.events))
        for tid in [tid for tid in tids if tid not in finished]:
            self.add(Abort(tid))

    # ------------------------------------------------------------------
    # event handlers
    # ------------------------------------------------------------------

    def _on_write(self, ev: Write, index: int) -> None:
        in_ = self._in
        vid = self._vid_of(ev.version)
        tid = ev.tid
        self._write_at[vid] = index
        vlist = self._versions_of_tid.get(tid)
        if vlist is None:
            self._versions_of_tid[tid] = [vid]
        else:
            vlist.append(vid)
        if vid in self._setup_versions:
            # A version previously mis-classified as setup (read before its
            # write — invalid per Section 4.2, but stay consistent anyway).
            self._setup_versions.discard(vid)
            self._setup_value.pop(vid, None)
            self._invalidate_matches(vid)
        oid = in_.ver_obj[vid]
        mine = self._final.get(tid)
        if mine is None:
            mine = self._final[tid] = {}
        cur = mine.get(oid)
        if cur is None:
            mine[oid] = vid
        elif in_.ver_seq[vid] > in_.ver_seq[cur]:
            mine[oid] = vid
            self._now_intermediate(cur)
        else:
            self._now_intermediate(vid)

    def _now_intermediate(self, old: int) -> None:
        """``old`` stopped being its writer's final modification; committed
        transactions that observed it are now G1b witnesses."""
        self._intermediate.add(old)
        wtid = self._in.ver_tid[old]
        for read in self._reads_by_version.get(old, ()):
            if read.tid != wtid and read.tid in self.committed:
                self._add_g1b(read.tid, old)
        for rec in self._preads_by_vset_version.get(old, ()):
            if rec.committed and rec.tid != wtid:
                self._add_g1b(rec.tid, old)

    def _on_read(self, ev: Read) -> None:
        in_ = self._in
        vid = self._vid_of(ev.version)
        readers = self._reads_by_version.get(vid)
        if readers is None:
            self._reads_by_version[vid] = [ev]
        else:
            readers.append(ev)
        mine = self._reads_of_tid.get(ev.tid)
        if mine is None:
            self._reads_of_tid[ev.tid] = [vid, ev]
        else:
            mine.append(vid)
            mine.append(ev)
        if vid not in self._write_at and in_.ver_tid[vid] != INIT_TID:
            self._note_possible_setup(vid)
        if (
            ev.value is not None
            and vid in self._setup_versions
            and self._setup_value.get(vid) is None
        ):
            # First observed value of a setup version: predicate matching
            # may change retroactively — repair the object.
            self._setup_value[vid] = ev.value
            self._invalidate_matches(vid)
            self._repair_object(self._in.ver_obj[vid])

    def _on_pread(self, ev: PredicateRead) -> None:
        rec = _PreadRec(ev.tid, ev.predicate)
        self._preads_of_tid.setdefault(ev.tid, []).append(rec)
        for rel in ev.predicate.relations:
            self._preads_by_relation.setdefault(rel, []).append(rec)
        in_ = self._in
        for v in ev.vset.versions():
            vid = self._vid_of(v)
            rec.selected[in_.ver_obj[vid]] = vid
            self._preads_by_vset_version.setdefault(vid, []).append(rec)
            if vid not in self._write_at and in_.ver_tid[vid] != INIT_TID:
                self._note_possible_setup(vid)

    def _on_commit(
        self,
        tid: int,
        finals: Optional[Mapping[str, Version]],
        positions: Optional[Mapping[str, Any]],
    ) -> None:
        rank = self._rank
        rank.setdefault(tid, len(self.committed))
        self.committed.add(tid)
        in_ = self._in
        ver_tid = in_.ver_tid
        ver_obj = in_.ver_obj
        objects = in_.objects
        written = self._versions_of_tid.get(tid, ())
        mine = self._final.get(tid, {})
        hints = self._hint_key
        commit_keyed = self.order_mode == "commit"
        if finals is None and positions is None and not hints and commit_keyed:
            # The dominant shape: the transaction's own final writes, in
            # object-name order, keyed by the commit counter.
            counter = self._commit_counter
            install = self._install
            by_name = sorted(mine, key=objects.__getitem__) if len(mine) > 1 else mine
            for oid in by_name:
                counter += 1
                install(oid, mine[oid], (0, counter))
            self._commit_counter = counter
        else:
            fin: Dict[str, int]
            if finals is None:
                fin = {objects[oid]: vid for oid, vid in mine.items()}
            else:
                fin = {obj: self._vid_of(v) for obj, v in finals.items()}
            for obj in sorted(fin):
                vid = fin[obj]
                oid = ver_obj[vid]
                if positions is not None and obj in positions:
                    key = (0, positions[obj])
                elif hints and vid in hints:
                    key = (-1, hints[vid])
                elif commit_keyed:
                    self._commit_counter += 1
                    key = (0, self._commit_counter)
                else:
                    own = mine.get(oid)
                    key = (
                        0,
                        len(self.events) if own is None else self._write_at[own],
                    )
                self._install(oid, vid, key)
        # Item reads by the newly committed transaction.
        reads = self._reads_of_tid.get(tid)
        if reads:
            aborted = self.aborted
            pos = self._pos
            chains = self._chains
            intermediate = self._intermediate
            add_edge = self._add_edge
            pairs = iter(reads)
            for vid, read in zip(pairs, pairs):
                writer = ver_tid[vid]
                if writer in aborted:
                    self._g1a.add((tid, vid))
                if writer != tid:
                    if vid in intermediate:
                        self._add_g1b(tid, vid)
                    if (
                        writer != INIT_TID
                        and writer in rank
                        and writer not in aborted
                    ):
                        add_edge(writer, tid, _WR, vid, 0, False)
                idx = pos.get(vid)
                if idx is not None:
                    chain = chains[ver_obj[vid]]
                    if idx + 1 < len(chain):
                        nxt = chain[idx + 1]
                        ntid = ver_tid[nxt]
                        if ntid != tid:
                            add_edge(tid, ntid, _RW, nxt, 0, read.cursor)
        # Predicate reads by the newly committed transaction.
        for rec in self._preads_of_tid.get(tid, ()):
            rec.committed = True
            for vid in rec.selected.values():
                if ver_tid[vid] in self.aborted:
                    self._g1a.add((tid, vid))
                if ver_tid[vid] != tid and vid in self._intermediate:
                    self._add_g1b(tid, vid)
            for oid in self._vset_oids(rec):
                self._pread_read_edges(rec, oid)
                self._pread_anti_edges(rec, oid)
        # The new commit as a read-dependency *source*: readers that
        # committed earlier were waiting on this writer.
        if written:
            committed = self.committed
            add_edge = self._add_edge
            for vid in written:
                for read in self._reads_by_version.get(vid, ()):
                    rt = read.tid
                    if rt != tid and rt in committed:
                        add_edge(tid, rt, _WR, vid, 0, False)

    def _on_abort(self, tid: int) -> None:
        self.aborted.add(tid)
        committed = self.committed
        for vid in self._versions_of_tid.get(tid, ()):
            for read in self._reads_by_version.get(vid, ()):
                if read.tid in committed:
                    self._g1a.add((read.tid, vid))
            for rec in self._preads_by_vset_version.get(vid, ()):
                if rec.committed:
                    self._g1a.add((rec.tid, vid))

    # ------------------------------------------------------------------
    # chains
    # ------------------------------------------------------------------

    def _note_possible_setup(self, vid: int) -> None:
        """A read (or version-set selection) of a never-written version is a
        setup version: implicit initial state, installed right after the
        unborn version (cf. ``History._build_order``).  Callers pre-check
        the unborn/written fast path."""
        if vid in self._setup_versions:
            return
        self._setup_versions.add(vid)
        self._setup_value.setdefault(vid, None)
        in_ = self._in
        self._rank.setdefault(in_.ver_tid[vid], -1)
        oid = in_.ver_obj[vid]
        if self._hint_key:
            hint = self._hint_key.get(vid)
            if hint is not None:
                # An explicit order hint may place a setup version anywhere
                # in the chain; honour it instead of the front position.
                self._install(oid, vid, (-1, hint))
                return
        chain = self._chains[oid]
        pos = 1 + self._setup_count[oid]
        self._setup_count[oid] += 1
        if pos == len(chain):
            chain.append(vid)
            self._pos[vid] = pos
            self._append_effects(oid, pos)
        else:
            chain.insert(pos, vid)
            self._repair_object(oid)

    def _install(self, oid: int, vid: int, key: Any) -> None:
        """Install a committed final version with the given sort key."""
        if vid in self._pos:
            return  # already installed (duplicate finals are harmless)
        keys = self._install_keys[oid]
        if not keys or key >= keys[-1]:
            # In-order install (the overwhelmingly common case: commit
            # counters and event indexes are monotone) — pure append.
            at = len(keys)
            keys.append(key)
        else:
            at = bisect_right(keys, key)
            keys.insert(at, key)
        chain = self._chains[oid]
        pos = 1 + self._setup_count[oid] + at
        if pos == len(chain):
            chain.append(vid)
            self._pos[vid] = pos
            self._append_effects(oid, pos)
        else:
            chain.insert(pos, vid)
            self._repair_object(oid)

    def _append_effects(self, oid: int, pos: int) -> None:
        """Edge updates after appending ``chain[pos]`` at the tail."""
        chain = self._chains[oid]
        vid = chain[pos]
        prev = chain[pos - 1]
        in_ = self._in
        ver_tid = in_.ver_tid
        vtid = ver_tid[vid]
        ptid = ver_tid[prev]
        if ptid != INIT_TID and ptid != vtid:
            self._add_edge(ptid, vtid, _WW, vid, 0, False)
        readers = self._reads_by_version.get(prev)
        if readers:
            committed = self.committed
            add_edge = self._add_edge
            for read in readers:
                rt = read.tid
                if rt != vtid and rt in committed:
                    add_edge(rt, vtid, _RW, vid, 0, read.cursor)
        recs = self._preads_by_relation.get(self._rel[oid])
        if recs:
            unborn = self._unborn_vid[oid]
            for rec in recs:
                if not rec.committed:
                    continue
                svid = rec.selected.get(oid)
                if svid is None or ver_tid[svid] == INIT_TID:
                    svid = unborn
                    idx: Optional[int] = 0
                else:
                    idx = self._pos.get(svid)
                if svid == vid:
                    # The selected version itself just installed: the read-
                    # dependency edges of this (pread, object) pair now exist.
                    self._pread_read_edges(rec, oid)
                    continue
                if idx is None:
                    continue  # uninstalled selection yields no edges (yet)
                if (
                    pos > idx
                    and vtid != rec.tid
                    and self._changes_at(chain, pos, rec.predicate)
                ):
                    self._add_edge(
                        rec.tid, vtid, _PRW, vid, self._pid_of(rec.predicate), False
                    )

    def _repair_object(self, oid: int) -> None:
        """Localized rebuild after a structural (non-append) chain change:
        tombstone and re-derive every chain-dependent row of ``oid``."""
        row_of = self._row_of
        if not self._keyed_built:
            self._keyed_built = True
            ver_obj = self._in.ver_obj
            index: Dict[int, List[Tuple[int, ...]]] = {}
            for key in row_of:
                if key[2] != _WR or key[4]:
                    index.setdefault(ver_obj[key[3]], []).append(key)
            self._edge_keys_by_obj = index
        table = self._table
        depth = table.depth
        remove = self._cycles.remove
        keys = self._edge_keys_by_obj.get(oid, ())
        for key in keys:
            row = row_of.pop(key)
            remove(row)
            depth[row] = -1  # a tombstone: in no view
        table.tombstones += len(keys)
        self._edge_keys_by_obj[oid] = []
        chain = self._chains[oid]
        pos_map = self._pos
        for i, vid in enumerate(chain):
            pos_map[vid] = i
        ver_tid = self._in.ver_tid
        committed = self.committed
        add_edge = self._add_edge
        for pos in range(1, len(chain)):
            vid, prev = chain[pos], chain[pos - 1]
            vtid = ver_tid[vid]
            ptid = ver_tid[prev]
            if ptid != INIT_TID and ptid != vtid:
                add_edge(ptid, vtid, _WW, vid, 0, False)
            for read in self._reads_by_version.get(prev, ()):
                rt = read.tid
                if rt in committed and rt != vtid:
                    add_edge(rt, vtid, _RW, vid, 0, read.cursor)
        for rec in self._preads_by_relation.get(self._rel[oid], ()):
            if rec.committed:
                self._pread_read_edges(rec, oid)
                self._pread_anti_edges(rec, oid)

    # ------------------------------------------------------------------
    # predicate machinery
    # ------------------------------------------------------------------

    def _vset_oids(self, rec: _PreadRec) -> Tuple[int, ...]:
        obj_id = self._in.obj_id
        oids: Dict[int, None] = {}
        for rel in rec.predicate.relations:
            for obj in self._objects_by_relation.get(rel, ()):
                oids.setdefault(obj_id[obj], None)
        objects = self._in.objects
        for oid in rec.selected:
            if rec.predicate.covers(objects[oid]):
                oids.setdefault(oid, None)
        return tuple(oids)

    def _match_cache(self, predicate: Predicate) -> Dict[int, bool]:
        pid = self._pid_of(predicate)
        cache = self._match_caches.get(pid)
        if cache is None:
            cache = self._match_caches[pid] = {}
        return cache

    def _invalidate_matches(self, vid: int) -> None:
        for cache in self._match_caches.values():
            cache.pop(vid, None)

    def _version_matches(self, predicate: Predicate, vid: int) -> bool:
        cache = self._match_cache(predicate)
        hit = cache.get(vid)
        if hit is not None:
            return hit
        in_ = self._in
        if in_.ver_tid[vid] == INIT_TID:
            result = False
        else:
            at = self._write_at.get(vid)
            if at is None:
                result = vid in self._setup_versions and predicate.matches(
                    in_.versions[vid], self._setup_value.get(vid)
                )
            else:
                write = self.events[at]
                result = not write.dead and predicate.matches(
                    in_.versions[vid], write.value
                )
        cache[vid] = result
        return result

    def _changes_at(self, chain: List[int], pos: int, predicate: Predicate) -> bool:
        return self._version_matches(predicate, chain[pos]) != self._version_matches(
            predicate, chain[pos - 1]
        )

    def _selected_index(self, rec: _PreadRec, oid: int) -> Optional[int]:
        svid = rec.selected.get(oid)
        if svid is None:
            return 0  # implicit unborn selection
        return self._pos.get(svid)

    def _pread_read_edges(self, rec: _PreadRec, oid: int) -> None:
        idx = self._selected_index(rec, oid)
        if idx is None or idx == 0:
            return
        chain = self._chains[oid]
        changers = [
            k for k in range(1, idx + 1) if self._changes_at(chain, k, rec.predicate)
        ]
        if self.mode is PredicateDepMode.LATEST:
            changers = changers[-1:]
        ver_tid = self._in.ver_tid
        pid = self._pid_of(rec.predicate)
        for k in changers:
            vid = chain[k]
            if ver_tid[vid] != rec.tid:
                self._add_edge(ver_tid[vid], rec.tid, _PWR, vid, pid, False)

    def _pread_anti_edges(self, rec: _PreadRec, oid: int) -> None:
        idx = self._selected_index(rec, oid)
        if idx is None:
            return
        chain = self._chains[oid]
        ver_tid = self._in.ver_tid
        pid = self._pid_of(rec.predicate)
        for k in range(idx + 1, len(chain)):
            vid = chain[k]
            if ver_tid[vid] != rec.tid and self._changes_at(chain, k, rec.predicate):
                self._add_edge(rec.tid, ver_tid[vid], _PRW, vid, pid, False)

    # ------------------------------------------------------------------
    # edge store and verdicts
    # ------------------------------------------------------------------

    def _add_edge(
        self, src: int, dst: int, depth: int, vid: int, pid: int, cursor: bool
    ) -> None:
        """Append the conflict ``src -> dst`` created by ``vid`` as a row of
        ``depth`` (one of the ``_WW`` .. ``_PRW`` flavours), unless it is a
        row already; then only a cursor flag is merged in."""
        key = (src, dst, depth, vid, pid)
        table = self._table
        new = len(table.src)
        row = self._row_of.setdefault(key, new)
        if row == new:
            table.src.append(src)
            table.dst.append(dst)
            table.depth.append(depth)
            table.version.append(self._in.versions[vid])
            if pid:
                table.predicate[row] = self._preds[pid]
            if cursor:
                table.cursor.add(row)
            if self._edge_counter is not None:
                self._edge_counter.inc()
            # Chain-dependent flavours are re-derived on object repair; the
            # per-object key index exists only once a repair has happened.
            if self._keyed_built and (depth != _WR or pid):
                oid = self._in.ver_obj[vid]
                by_obj = self._edge_keys_by_obj.get(oid)
                if by_obj is None:
                    self._edge_keys_by_obj[oid] = [key]
                else:
                    by_obj.append(key)
        elif cursor and row not in table.cursor:
            table.cursor.add(row)
            table._made.pop(row, None)  # built before the merge: stale

    def _add_g1b(self, tid: int, vid: int) -> None:
        if vid in self._setup_versions:
            return  # setup versions are never intermediate
        self._g1b.add((tid, vid))

    @property
    def edges(self) -> List[Edge]:
        """The direct-conflict edges held now: the table's live rows, in the
        order their edges were (re-)derived."""
        edge = self._table.edge
        return [edge(row) for row in self._row_of.values()]

    @property
    def events_consumed(self) -> int:
        """Events fed through :meth:`add` so far (free to read — no
        registry required)."""
        return len(self.events)

    @property
    def edges_inserted(self) -> int:
        """Distinct DSG edges currently held (free to read)."""
        return len(self._row_of)

    # -- public read-side accessors (used by provenance) ----------------

    def latest_version(self, obj: str) -> Optional[Version]:
        """The most recently installed version of ``obj`` in the running
        version order (``None`` while the object has no installed write) —
        what a new transaction reading ``obj`` "now" would observe."""
        oid = self._in.obj_id.get(obj)
        if oid is None:
            return None
        chain = self._chains[oid]
        if len(chain) < 2:  # only the unborn version
            return None
        return self._in.versions[chain[-1]]

    def write_of(self, version: Version) -> Optional[Write]:
        """The write event that created ``version`` (``None`` for setup or
        unknown versions)."""
        at = self._write_at.get(self._vids.get((version.obj, version.tid, version.seq)))
        return None if at is None else self.events[at]

    def reads_of_version(self, version: Version) -> Tuple[Read, ...]:
        """The item reads that observed ``version``."""
        vid = self._vids.get((version.obj, version.tid, version.seq))
        return tuple(self._reads_by_version.get(vid, ()))

    def reads_of_tid(self, tid: int) -> Tuple[Read, ...]:
        """The item reads performed by ``T_tid``."""
        return tuple(self._reads_of_tid.get(tid, ())[1::2])

    def predicates_read_by(self, tid: int) -> Tuple[Predicate, ...]:
        """The predicates ``T_tid`` issued predicate reads for."""
        return tuple(rec.predicate for rec in self._preads_of_tid.get(tid, ()))

    def exhibits(self, phenomenon: Phenomenon) -> bool:
        """Presence of one core phenomenon over the events consumed so far.

        O(1) in the common case: G1a/G1b read their witness sets, the
        cycle phenomena ask the view chain, and any phenomenon
        proven present stays present (growing a history never removes
        events, so presence is monotone) and is answered from a permanent
        cache.
        """
        if phenomenon in self._present:
            return True
        if phenomenon is Phenomenon.G1A:
            present = bool(self._g1a)
        elif phenomenon is Phenomenon.G1B:
            present = bool(self._g1b)
        elif phenomenon is Phenomenon.G1:
            present = (
                self.exhibits(Phenomenon.G1A)
                or self.exhibits(Phenomenon.G1B)
                or self.exhibits(Phenomenon.G1C)
            )
        elif phenomenon in CORE_PHENOMENA:  # G0, G1c, G2-item, G2
            present = self._cycles.present(phenomenon)
        else:
            raise ValueError(
                f"{phenomenon} is not maintained incrementally; materialise "
                "with to_history()/check() for extension phenomena"
            )
        if present:
            self._present.add(phenomenon)
        return present

    def report(self, phenomenon: Phenomenon) -> PhenomenonReport:
        """Presence-only report (no witnesses — those need the batch
        analysis, see :meth:`check`)."""
        present = self.exhibits(phenomenon)
        witnesses: Tuple[Witness, ...] = ()
        versions = self._in.versions
        if phenomenon is Phenomenon.G1A and present:
            pairs = [(tid, versions[vid]) for tid, vid in self._g1a]
            witnesses = tuple(
                Witness(
                    f"committed T{tid} observed {v}, written by aborted T{v.tid}",
                    tid=tid,
                )
                for tid, v in sorted(pairs, key=lambda p: (p[0], str(p[1])))
            )
        if phenomenon is Phenomenon.G1B and present:
            pairs = [(tid, versions[vid]) for tid, vid in self._g1b]
            witnesses = tuple(
                Witness(
                    f"committed T{tid} observed intermediate version "
                    f"{v.label(explicit_seq=True)}",
                    tid=tid,
                )
                for tid, v in sorted(pairs, key=lambda p: (p[0], str(p[1])))
            )
        return PhenomenonReport(phenomenon, present, witnesses)

    def strongest_level(self, levels=None):
        """The strongest of ``levels`` (default: the ANSI chain) the
        history-so-far provides (``None`` when none is, e.g. PL-1 violated
        or ``levels`` empty), matching batch
        :func:`repro.core.levels.classify`."""
        strongest = None
        for level in ANSI_CHAIN if levels is None else levels:
            if not any(self.exhibits(p) for p in level.proscribed):
                if strongest is None or level.implies(strongest):
                    strongest = level
        return strongest

    def provides(self, level) -> bool:
        """Live certification: does the execution so far provide ``level``?

        True iff none of the level's proscribed phenomena is present.  The
        level must proscribe only core phenomena (the ANSI chain PL-1,
        PL-2, PL-2.99, PL-3); extension levels (PL-SI, PL-2+, PL-CS,
        PL-SS) need the batch checker — use :meth:`check`.  This is what
        the service layer calls after every commit to certify committed
        transactions at their declared levels while the workload runs.
        """
        if isinstance(level, str):
            level = IsolationLevel.from_string(level)
        proscribed = _CORE_PROSCRIBED.get(level)
        if proscribed is None:
            p = next(p for p in level.proscribed if p not in CORE_PHENOMENA)
            raise ValueError(
                f"{level} proscribes {p}, which is not maintained "
                "incrementally; use check() for extension levels"
            )
        return not any(self.exhibits(p) for p in proscribed)

    # ------------------------------------------------------------------
    # materialisation
    # ------------------------------------------------------------------

    def to_history(self, *, validate: bool = False):
        """The consumed events and maintained version order as a batch
        :class:`~repro.core.history.History`."""
        from .history import History

        versions = self._in.versions
        objects = self._in.objects
        return History(
            self.events,
            {
                objects[oid]: tuple(versions[vid] for vid in chain[1:])
                for oid, chain in enumerate(self._chains)
            },
            validate=validate,
        )

    def check(self, **kwargs):
        """Full batch analysis (witnesses, extension levels) of the events
        consumed so far; see :func:`repro.check`.  ``mode`` defaults to the
        analysis' own."""
        from ..checker import check as batch_check

        kwargs.setdefault("mode", self.mode)
        return batch_check(self.to_history(), **kwargs)

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:
        return (
            f"IncrementalAnalysis({len(self.events)} events, "
            f"{len(self.committed)} committed, {len(self._row_of)} edges)"
        )
