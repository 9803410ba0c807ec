"""Direct conflicts between transactions (paper Section 4.4, Definitions 2–6).

Three kinds of direct conflict produce the edges of the Direct Serialization
Graph, each with an item flavour and a predicate flavour:

* **write-dependency** (``ww``, Definition 6): ``T_j`` installs the version
  immediately following a version installed by ``T_i``.
* **read-dependency** (``wr``, Definition 3): ``T_j`` reads a version ``T_i``
  installed, or ``T_i`` installed the version that *changed the matches*
  (Definition 2) of a predicate read by ``T_j``.
* **anti-dependency** (``rw``, Definition 5): ``T_j`` installs the next
  version of an object ``T_i`` read, or ``T_j`` *overwrites* (Definition 4) a
  predicate read by ``T_i``.

Only committed transactions conflict (the DSG has only committed nodes);
implicit setup transactions count as committed.  Reads of versions created by
aborted or unfinished transactions yield no edges — phenomena G1a/G1b condemn
those reads directly on the history.

Predicate-read-dependency quantification.  Definition 3's prose ("of all the
transactions that have caused the tuples to match (or not match) ... we use
the *latest* transaction where a change to Vset(P) occurs") and the
``H_pred-read`` example add a single edge per object, from the latest
match-changing version at or before the selected version.  The literal
formula ("``i = k`` or ``x_i << x_k``, and ``x_i`` changes the matches")
quantifies over every such version.  :class:`PredicateDepMode` selects the
reading; the default :attr:`PredicateDepMode.LATEST` follows the example.

The edge table.  There is one extractor, :func:`edge_table`, and it does not
build edges: it fills an :class:`EdgeTable` — parallel columns with one row
per conflict (``src``, ``dst``, view ``depth``, the creating ``version``, and
sparse ``predicate`` / ``cursor`` columns for the rows that have one) — from
the event log's int columns (:attr:`History.log`) and the version orders'
flat form, deduplicating on ``(tid, version id)`` int keys.  The rows come
out in one fixed order — ww, item wr, predicate wr, item rw, predicate rw,
each in history order — which every cycle search downstream visits, so it
is part of the checker's output (``tests/test_checker_golden.py``).  An
:class:`Edge` object is built from a row only when someone asks for one:
:meth:`EdgeTable.edge` for the rows of a witness cycle,
:meth:`EdgeTable.edges` behind ``Analysis.edges`` / ``DSG.edges`` and the
four ``*_dependencies`` functions.  The online checker
(:mod:`repro.core.incremental`) keeps its conflicts in an :class:`EdgeTable`
too, appended one row per new conflict.

The views.  The paper states G0, G1c, G2-item and G2 as cycles over four
nested subsets of the edge set; :data:`FULL`, :data:`ITEM`,
:data:`DEPENDENCY`, :data:`WRITE` and :data:`DEPTH` below are the one
statement of which flavour belongs to which, read by the batch checker
(:mod:`repro.core.dsg`) and the online one (:mod:`repro.core.cycles`).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from itertools import islice
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .events import PredicateRead
from .history import History
from .objects import INIT_TID, Version
from .predicates import Predicate

__all__ = [
    "DepKind",
    "PredicateDepMode",
    "Edge",
    "write_dependencies",
    "read_dependencies",
    "anti_dependencies",
    "all_dependencies",
]


class DepKind(Enum):
    """Edge kinds of Figure 2, plus the start-dependency edges used by the
    start-ordered serialization graph of the Snapshot Isolation extension."""

    WW = "ww"  # directly write-depends
    WR = "wr"  # directly read-depends
    RW = "rw"  # directly anti-depends
    SO = "so"  # start-depends (SSG only; counts as a dependency edge)

    def __str__(self) -> str:
        return self.value


#: Edge kind codes: the row index of :data:`DEPTH`.
WW, WR, RW = 0, 1, 2

#: The nested views of one DSG, largest first; a view's number is its depth::
#:
#:     full  ⊇  item (no predicate rw)  ⊇  dependency (ww + wr)  ⊇  write (ww)
#:      G2        G2-item                    G1c                     G0
FULL, ITEM, DEPENDENCY, WRITE = range(4)

#: ``DEPTH[kind code][predicate?]``: an edge of that flavour belongs to views
#: ``0..depth``.
DEPTH: Tuple[Tuple[int, int], ...] = (
    (WRITE, WRITE),  # ww
    (DEPENDENCY, DEPENDENCY),  # wr, item and predicate
    (ITEM, FULL),  # rw: a predicate anti-dependency is in the full view only
)

#: The conflict kind of a table row, by its depth.
_KIND_AT_DEPTH = (DepKind.RW, DepKind.RW, DepKind.WR, DepKind.WW)


class PredicateDepMode(Enum):
    """Which match-changing transactions a predicate read depends on."""

    #: Only the latest match-changing version at or before the selected one
    #: (the paper's intent; minimal conflicts).
    LATEST = "latest"
    #: Every match-changing version at or before the selected one (the
    #: literal quantifier reading of Definition 3; strictly more edges).
    ALL = "all"


@dataclass(frozen=True, slots=True)
class Edge:
    """One direct conflict ``src --kind--> dst``.

    ``version`` is the version that *creates* the conflict: the version
    installed by ``dst`` for ``ww``/``rw`` edges, and the version read (or
    the match-changing version) for ``wr`` edges.  ``predicate`` is set on
    the predicate flavours; ``cursor`` marks item anti-dependencies whose
    read went through a cursor (used only by the PL-CS extension level).
    """

    src: int
    dst: int
    kind: DepKind
    obj: str = ""
    version: Optional[Version] = None
    predicate: Optional[Predicate] = None
    cursor: bool = False

    @property
    def via_predicate(self) -> bool:
        return self.predicate is not None

    def describe(self) -> str:
        """Human-readable one-line explanation, used in checker reports."""
        if self.kind is DepKind.SO:
            return (
                f"T{self.dst} start-depends on T{self.src}: T{self.src} "
                f"committed before T{self.dst} began"
            )
        if self.kind is DepKind.WW:
            return (
                f"T{self.dst} directly write-depends on T{self.src}: "
                f"T{self.dst} installs {self.version}, the next version of "
                f"{self.obj!r} after T{self.src}'s"
            )
        if self.kind is DepKind.WR:
            if self.via_predicate:
                return (
                    f"T{self.dst} directly predicate-read-depends on T{self.src}: "
                    f"{self.version} changed the matches of T{self.dst}'s read of "
                    f"predicate {self.predicate}"
                )
            return (
                f"T{self.dst} directly item-read-depends on T{self.src}: "
                f"T{self.dst} reads {self.version}"
            )
        if self.via_predicate:
            return (
                f"T{self.dst} directly predicate-anti-depends on T{self.src}: "
                f"T{self.dst} installs {self.version}, overwriting T{self.src}'s "
                f"read of predicate {self.predicate}"
            )
        return (
            f"T{self.dst} directly item-anti-depends on T{self.src}: "
            f"T{self.dst} installs {self.version}, the next version of "
            f"{self.obj!r} after the one T{self.src} read"
        )

    def __str__(self) -> str:
        tag = f"{self.kind}"
        if self.via_predicate:
            tag = f"p{tag}"
        return f"T{self.src} -{tag}-> T{self.dst}"


# ----------------------------------------------------------------------
# the edge table
# ----------------------------------------------------------------------


class EdgeTable:
    """Direct conflicts as parallel columns, one row per edge.

    ``src[r] --> dst[r]`` is a conflict created by ``version[r]`` (see
    :class:`Edge`); ``depth[r]`` is the deepest view the row belongs to
    (:data:`DEPTH`), which for an extracted row also tells its kind.
    ``predicate`` and ``cursor`` are sparse: the rows of the predicate
    flavours, and the item anti-dependency rows with a cursor read behind
    them.  :class:`Edge` objects are built per row on demand and kept, so a
    row is always the same object.  A row with no version is one of the
    SSG's start dependencies (:mod:`repro.core.ssg`).

    The online checker's table grows (:mod:`repro.core.incremental`): it
    appends rows as conflicts appear, and a version-chain repair
    *tombstones* the rows it re-derives — depth ``-1``, in no view.
    """

    __slots__ = (
        "src", "dst", "depth", "version", "predicate", "cursor", "tombstones",
        "_made", "_all",
    )

    def __init__(self) -> None:
        self.src: List[int] = []
        self.dst: List[int] = []
        self.depth: List[int] = []
        self.version: List[Optional[Version]] = []
        self.predicate: Dict[int, Predicate] = {}
        self.cursor: Set[int] = set()
        #: Rows tombstoned so far; an extracted table has none.
        self.tombstones = 0
        self._made: Dict[int, Edge] = {}
        self._all: Optional[List[Edge]] = None

    def __len__(self) -> int:
        return len(self.src)

    def edge(self, row: int) -> Edge:
        """Row ``row`` as an :class:`Edge`."""
        made = self._made.get(row)
        if made is None:
            version = self.version[row]
            if version is None:
                made = Edge(self.src[row], self.dst[row], DepKind.SO)
            else:
                made = Edge(
                    self.src[row],
                    self.dst[row],
                    _KIND_AT_DEPTH[self.depth[row]],
                    version.obj,
                    version,
                    self.predicate.get(row),
                    row in self.cursor,
                )
            self._made[row] = made
        return made

    def edges(self) -> List[Edge]:
        """Every row as an :class:`Edge`, in row order."""
        if self._all is None:
            self._all = [self.edge(row) for row in range(len(self.src))]
        return self._all

    def _close(self, depth: int) -> None:
        """Give the rows appended since the last call their depth."""
        self.depth += [depth] * (len(self.src) - len(self.depth))


def edge_table(
    history: History,
    mode: PredicateDepMode = PredicateDepMode.LATEST,
) -> EdgeTable:
    """Every direct conflict of the history (Figure 2's three rows), as rows."""
    table = EdgeTable()
    _write_rows(table, history)
    _read_rows(table, history, mode)
    _anti_rows(table, history)
    return table


def write_dependencies(history: History) -> List[Edge]:
    """``T_i`` installs ``x_i`` and ``T_j`` installs ``x``'s next version."""
    table = EdgeTable()
    _write_rows(table, history)
    return table.edges()


def read_dependencies(
    history: History,
    mode: PredicateDepMode = PredicateDepMode.LATEST,
) -> List[Edge]:
    """Item and predicate read-dependency edges.

    Item edges cover reads of any version created by another committed
    transaction — including intermediate versions, where information
    genuinely flowed; level classification is unaffected because G1b
    independently condemns intermediate reads wherever read edges matter.
    """
    table = EdgeTable()
    _read_rows(table, history, mode)
    return table.edges()


def anti_dependencies(history: History) -> List[Edge]:
    """Item and predicate anti-dependency edges."""
    table = EdgeTable()
    _anti_rows(table, history)
    return table.edges()


def all_dependencies(
    history: History,
    mode: PredicateDepMode = PredicateDepMode.LATEST,
) -> List[Edge]:
    """Every direct-conflict edge of the history (Figure 2's three rows)."""
    return edge_table(history, mode).edges()


# ----------------------------------------------------------------------
# write dependencies (Definition 6)
# ----------------------------------------------------------------------


def _write_rows(table: EdgeTable, history: History) -> None:
    versions, tids, last, _row_of_vid = history._installed_rows
    src, dst, version = table.src, table.dst, table.version
    # Each installed version beside the one after it; the unborn version
    # heads every chain and nothing else (T_init is not a DSG node).
    rows = zip(tids, islice(tids, 1, None), last, islice(versions, 1, None))
    for prev, nxt, chain_ends, installed in rows:
        if prev != nxt and not chain_ends and prev != INIT_TID:
            src.append(prev)
            dst.append(nxt)
            version.append(installed)
    table._close(WRITE)


# ----------------------------------------------------------------------
# read dependencies (Definitions 2 and 3)
# ----------------------------------------------------------------------


def _read_rows(table: EdgeTable, history: History, mode: PredicateDepMode) -> None:
    committed = history.committed_all
    log = history.log
    tids, vids = log.tid, log.vid
    ver_tid, versions = log.interner.ver_tid, log.interner.versions
    src, dst, version = table.src, table.dst, table.version
    # One edge per (reader, version read); the pair as one int.
    n_versions = len(versions)
    seen: Set[int] = set()
    for i in history._read_at:
        reader = tids[i]
        if reader not in committed:
            continue
        vid = vids[i]
        writer = ver_tid[vid]
        if writer == reader or writer == INIT_TID or writer not in committed:
            continue
        key = reader * n_versions + vid
        if key not in seen:
            seen.add(key)
            src.append(writer)
            dst.append(reader)
            version.append(versions[vid])

    seen_changers: Set[Tuple[int, Version, Predicate]] = set()
    for _i, pread in history.predicate_reads:
        if pread.tid not in committed:
            continue
        for changer in _predicate_read_changers(history, pread, mode):
            key = (pread.tid, changer, pread.predicate)
            if key not in seen_changers:
                seen_changers.add(key)
                table.predicate[len(src)] = pread.predicate
                src.append(changer.tid)
                dst.append(pread.tid)
                version.append(changer)
    table._close(DEPENDENCY)


def _predicate_read_changers(
    history: History, pread: PredicateRead, mode: PredicateDepMode
) -> Iterator[Version]:
    """The versions, installed by other transactions, that changed the
    matches of ``pread`` at or before the version it selected, per object."""
    for obj in history.vset_objects(pread):
        if not pread.predicate.covers(obj):
            continue
        selected = history.vset_version(pread, obj)
        idx = history.order_index.get(selected)
        if idx is None or idx == 0:
            # Unborn selection has no predecessors; an uninstalled selection
            # (version of an aborted/unfinished transaction) yields no edge —
            # G1a/G1b condemn the read itself.
            continue
        # Changer positions <= idx, via the memoized per-(predicate, object)
        # index instead of rescanning the chain per predicate read.
        positions = history.predicate_changers(pread.predicate, obj)
        cut = bisect_right(positions, idx)
        wanted = positions[:cut]
        if mode is PredicateDepMode.LATEST:
            wanted = wanted[-1:]
        chain = history.order_of(obj)
        for k in wanted:
            if chain[k].tid != pread.tid:
                yield chain[k]


# ----------------------------------------------------------------------
# anti-dependencies (Definitions 4 and 5)
# ----------------------------------------------------------------------


def _anti_rows(table: EdgeTable, history: History) -> None:
    committed = history.committed_all
    log = history.log
    tids, vids, cursor_read = log.tid, log.vid, log.flag
    versions, writers, last, row_of_vid = history._installed_rows
    src, dst, version = table.src, table.dst, table.version
    # (reader, row of the installing version), as one int -> table row, so a
    # second read behind the same edge only has its cursor flag merged in.
    n_installed = len(versions)
    seen: Dict[int, int] = {}
    for i in history._read_at:
        reader = tids[i]
        if reader not in committed:
            continue
        at = row_of_vid[vids[i]]
        # Never installed, or still the latest, or overwritten by its reader.
        if at < 0 or last[at] or writers[at + 1] == reader:
            continue
        after = at + 1
        key = reader * n_installed + after
        row = seen.get(key)
        if row is None:
            row = seen[key] = len(src)
            src.append(reader)
            dst.append(writers[after])
            version.append(versions[after])
        if cursor_read[i]:
            # Keep the cursor flag if any contributing read was a cursor read.
            table.cursor.add(row)
    table._close(ITEM)

    seen_overwrites: Set[Tuple[int, Version, Predicate]] = set()
    for _i, pread in history.predicate_reads:
        if pread.tid not in committed:
            continue
        for obj in history.vset_objects(pread):
            if not pread.predicate.covers(obj):
                continue
            selected = history.vset_version(pread, obj)
            idx = history.order_index.get(selected)
            if idx is None:
                continue  # uninstalled selection; see _predicate_read_changers
            chain = history.order_of(obj)
            positions = history.predicate_changers(pread.predicate, obj)
            for k in positions[bisect_right(positions, idx):]:
                later = chain[k]
                key = (pread.tid, later, pread.predicate)
                if later.tid == pread.tid or key in seen_overwrites:
                    continue
                seen_overwrites.add(key)
                table.predicate[len(src)] = pread.predicate
                src.append(pread.tid)
                dst.append(later.tid)
                version.append(later)
    table._close(FULL)
