"""The reference for the definitions: Adya's Sections 4 and 5, transcribed.

Every checker path — batch ``check`` in both predicate modes and with the
extension phenomena, ``IncrementalAnalysis`` in both install orders, the
view chain on bare arcs — is held to this module.  It is written from the
paper, one definition per function, in the style of an axiomatic model: a
history is its events and its version order, the Direct Serialization
Graph is a set of arcs derived from them by Definitions 2–6, and each
phenomenon is a predicate over cycles of that graph.

It is quadratic on purpose: no indices, no caches, no interning, no
search order.  It imports only the event, version and predicate types, so a
fault in the checker's tables, views, certificates or searches cannot hide
here.  Phenomena and levels are named by their strings (``"G2-item"``,
``"PL-2.99"``) and predicate modes by theirs (``"latest"``, ``"all"``).

Readings the paper leaves open, taken as the checker documents them:

* an item read-dependency holds for a read of any version its committed
  writer created, intermediate ones included (G1b condemns those reads);
* G2-item is a cycle of the DSG without predicate anti-dependencies that
  has an item anti-dependency (PL-2.99 permits phantoms);
* a predicate read-dependency under ``"latest"`` is on the latest
  match-changing version at or before the one selected, and none when that
  version is the reader's own;
* G-cursor is a simple cycle (distinct nodes) whose one anti-dependency
  is an item anti-dependency from a cursor read of some ``x`` and which has
  a ww arc on ``x``, as ``core/extensions.py`` states it.

Cycles are found by brute force.  "Some arc of a kind lies on a cycle" is
"its source is reachable from its target", by the reflexive-transitive
closure of the arcs (Warshall's rule) and one look at every arc: a
shortest path back from the target closes a simple cycle through the arc,
so for G0, G1c, G2-item, G2, G-single, G-SIb and G-SS a closed walk and a
simple cycle give the same answer.  G-cursor constrains the whole cycle,
so its cycles are enumerated, every simple cycle of the DSG once.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.core.events import Abort, Begin, Commit, PredicateRead, Read, Write
from repro.core.objects import INIT_TID, Version

#: One arc of the DSG (or SSG): ``kind`` is ``"ww"``, ``"wr"``, ``"rw"`` or
#: ``"so"``; ``predicate`` marks the predicate flavours; ``obj`` is the
#: object the conflict is on; ``cursor`` marks an item anti-dependency whose
#: read went through a cursor.
Arc = namedtuple("Arc", "src dst kind predicate obj cursor", defaults=(False, "", False))

CORE = ("G0", "G1a", "G1b", "G1c", "G1", "G2-item", "G2")
EXTENSIONS = ("G-single", "G-SIa", "G-SIb", "G-SI", "G-cursor", "G-SS")

#: Figure 6, and the extension levels of Adya's thesis.
PROSCRIBED: Dict[str, Tuple[str, ...]] = {
    "PL-1": ("G0",),
    "PL-2": ("G1",),
    "PL-CS": ("G1", "G-cursor"),
    "PL-2+": ("G1", "G-single"),
    "PL-2.99": ("G1", "G2-item"),
    "PL-SI": ("G1", "G-SI"),
    "PL-3": ("G1", "G2"),
    "PL-SS": ("G1", "G-SS"),
}
ANSI_CHAIN = ("PL-1", "PL-2", "PL-2.99", "PL-3")


# ----------------------------------------------------------------------
# Section 4.2: the history
# ----------------------------------------------------------------------


def committed(events) -> set:
    return {ev.tid for ev in events if isinstance(ev, Commit)}


def aborted(events) -> set:
    return {ev.tid for ev in events if isinstance(ev, Abort)}


def written(events) -> List[Version]:
    return [ev.version for ev in events if isinstance(ev, Write)]


def observed(events) -> List[Version]:
    """Every version an item read or a version set names, in event order."""
    out = []
    for ev in events:
        if isinstance(ev, Read):
            out.append(ev.version)
        elif isinstance(ev, PredicateRead):
            out.extend(ev.vset.versions())
    return out


def is_final(events, version: Version) -> bool:
    """``x_{i:m}`` is ``T_i``'s final modification of ``x``: no write of
    ``x`` by ``T_i`` has a larger ``m``."""
    return all(
        not (v.obj == version.obj and v.tid == version.tid and v.seq > version.seq)
        for v in written(events)
    )


def version_order(events, supplied: Optional[Mapping[str, Sequence[Version]]] = None):
    """``<<``, per object, the unborn version first: the supplied chain, else
    the committed transactions' final writes in the order of their write
    events; in both cases preceded by the object's *setup* versions — read
    but written by no event, the initial state — in first-read order."""
    supplied = supplied or {}
    done = committed(events)
    mine = written(events)
    objects = list(dict.fromkeys(
        [v.obj for v in mine] + [v.obj for v in observed(events)]
        + [obj for obj in supplied]
    ))
    order = {}
    for obj in objects:
        if obj in supplied:
            chain = [v for v in supplied[obj] if not v.is_unborn]
        else:
            chain = [
                v for v in mine
                if v.obj == obj and v.tid in done and is_final(events, v)
            ]
        setup = [
            v for v in dict.fromkeys(observed(events))
            if v.obj == obj and not v.is_unborn and v not in mine and v not in chain
        ]
        order[obj] = (Version.unborn(obj), *setup, *chain)
    return order


def nodes(events, order) -> set:
    """The DSG's nodes: the committed transactions, and the implicit setup
    transactions that installed versions without events."""
    installed = {v.tid for chain in order.values() for v in chain if not v.is_unborn}
    return (committed(events) | installed) - aborted(events)


def value_of(events, version: Version):
    """The value of ``version``: its write's, else (a setup version) the
    first one a read observed."""
    for ev in reversed(events):
        if isinstance(ev, Write) and ev.version == version:
            return ev.value
    for ev in events:
        if isinstance(ev, Read) and ev.version == version and ev.value is not None:
            return ev.value
    return None


def matches(events, order, predicate, version: Version) -> bool:
    """Section 4.3: unborn and dead versions never match; a version of no
    write matches only as a setup version."""
    if version.is_unborn:
        return False
    writes = [ev for ev in events if isinstance(ev, Write) and ev.version == version]
    if writes:
        return not writes[-1].dead and predicate.matches(version, writes[-1].value)
    if version not in order.get(version.obj, ()):
        return False
    return predicate.matches(version, value_of(events, version))


def covered(events, pread: PredicateRead) -> List[str]:
    """The objects a predicate read's version set covers: every object of
    its relations the history's events mention."""
    mentioned = dict.fromkeys(
        [v.obj for v in written(events)] + [v.obj for v in observed(events)]
    )
    return [obj for obj in mentioned if pread.predicate.covers(obj)]


def selected(pread: PredicateRead, obj: str) -> Version:
    """The version the read selected: explicit, else the unborn one."""
    return pread.vset.get(obj) or Version.unborn(obj)


# ----------------------------------------------------------------------
# Section 4.4: direct conflicts (Definitions 2-6)
# ----------------------------------------------------------------------


def dependencies(events, order, mode: str = "latest") -> List[Arc]:
    """Every direct conflict between DSG nodes, as arcs (one per distinct
    conflict)."""
    dsg = nodes(events, order)
    arcs: Dict[Arc, None] = {}
    # Definition 6: ww — T_j installs the version right after T_i's.
    for obj, chain in order.items():
        for before, after in zip(chain[1:], chain[2:]):
            if before.tid != after.tid:
                arcs[Arc(before.tid, after.tid, "ww", False, obj)] = None
    for ev in events:
        if ev.tid not in dsg:
            continue
        if isinstance(ev, Read):
            obj, writer = ev.version.obj, ev.version.tid
            # Definition 3, items: T_j reads a version T_i created.
            if writer != ev.tid and writer != INIT_TID and writer in dsg:
                arcs[Arc(writer, ev.tid, "wr", False, obj)] = None
            # Definition 5, items: T_j installs the version after the one
            # T_i read.
            chain = order.get(obj, ())
            if ev.version in chain:
                k = chain.index(ev.version)
                if k + 1 < len(chain) and chain[k + 1].tid != ev.tid:
                    arcs[Arc(ev.tid, chain[k + 1].tid, "rw", False, obj, ev.cursor)] = None
        elif isinstance(ev, PredicateRead):
            for obj in covered(events, ev):
                chain = order[obj]
                if selected(ev, obj) not in chain:
                    continue  # an uninstalled selection: G1a/G1b condemn it
                at = chain.index(selected(ev, obj))
                # Definition 2: installing chain[k] changed the matches.
                matched = [matches(events, order, ev.predicate, v) for v in chain]
                changers = [
                    k for k in range(1, len(chain)) if matched[k] != matched[k - 1]
                ]
                # Definitions 2 and 3: the changers at or before the
                # selection ("latest": the last of them).
                earlier = [k for k in changers if k <= at]
                if mode == "latest":
                    earlier = earlier[-1:]
                for k in earlier:
                    if chain[k].tid != ev.tid:
                        arcs[Arc(chain[k].tid, ev.tid, "wr", True, obj)] = None
                # Definitions 4 and 5: every later changer overwrites the read.
                for k in changers:
                    if k > at and chain[k].tid != ev.tid:
                        arcs[Arc(ev.tid, chain[k].tid, "rw", True, obj)] = None
    return list(arcs)


def event_positions(events) -> Dict[int, Dict[str, int]]:
    """Per transaction, where its events sit in the linearization: its first
    and last events, and its (last) begin, commit and abort events."""
    out = {}
    for tid in dict.fromkeys(ev.tid for ev in events):
        mine = [i for i, ev in enumerate(events) if ev.tid == tid]
        slot = {"first": mine[0], "last": mine[-1]}
        for name, kind in (("begin", Begin), ("commit", Commit), ("abort", Abort)):
            at = [i for i in mine if isinstance(events[i], kind)]
            if at:
                slot[name] = at[-1]
        out[tid] = slot
    return out


def commit_and_start(events, tid: int) -> Tuple[int, int]:
    """A transaction's commit and start as event positions: its ``Begin``
    (else first event) starts it; a setup transaction commits and starts
    before every event, one that never commits commits after all of them."""
    mine = [i for i, ev in enumerate(events) if ev.tid == tid]
    if not mine:
        return -1, -1
    commit = next((i for i in mine if isinstance(events[i], Commit)), len(events))
    start = next((i for i in mine if isinstance(events[i], Begin)), mine[0])
    return commit, start


def starts_before(events, ti: int, tj: int) -> bool:
    return commit_and_start(events, ti)[0] < commit_and_start(events, tj)[1]


def start_dependencies(events, order) -> List[Arc]:
    """The SSG's extra arcs: ``T_i --so--> T_j`` when ``T_i`` commits before
    ``T_j`` starts."""
    dsg = sorted(nodes(events, order))
    return [
        Arc(ti, tj, "so")
        for ti in dsg
        for tj in dsg
        if ti != tj and starts_before(events, ti, tj)
    ]


# ----------------------------------------------------------------------
# cycles, by brute force
# ----------------------------------------------------------------------


def reachable(arcs: Iterable) -> Dict[int, set]:
    """Node -> every node a path of ``arcs`` leads to, itself included: the
    reflexive-transitive closure by Warshall's rule (a path through ``k``
    is a path to ``k`` and one from it)."""
    reach = {}
    for arc in arcs:
        reach.setdefault(arc.src, {arc.src}).add(arc.dst)
        reach.setdefault(arc.dst, {arc.dst})
    for k in reach:
        for i in reach:
            if k in reach[i]:
                reach[i] |= reach[k]
    return reach


def on_cycle(arcs: Iterable, special=lambda arc: True) -> bool:
    """Some arc for which ``special`` holds lies on a cycle of ``arcs``:
    its source is reachable from its target.  ``arcs`` needs only ``src``
    and ``dst``."""
    arcs = list(arcs)
    reach = reachable(arcs)
    return any(special(arc) and arc.src in reach[arc.dst] for arc in arcs)


def is_anti(arc) -> bool:
    return arc.kind == "rw"


def is_dependency(arc) -> bool:
    """ww and wr arcs, and the SSG's start arcs, which count as dependencies."""
    return arc.kind in ("ww", "wr", "so")


#: Section 5's four cycle phenomena, each the arcs its cycles keep and the
#: arcs one of them must contain; largest view first.
CYCLES = {
    "G2": (lambda arc: True, is_anti),
    "G2-item": (lambda arc: not (is_anti(arc) and arc.predicate), is_anti),
    "G1c": (is_dependency, lambda arc: True),
    "G0": (lambda arc: arc.kind == "ww", lambda arc: True),
}


def cycle_phenomena(arcs: Iterable) -> Dict[str, bool]:
    """G0, G1c, G2-item and G2 of a set of DSG arcs."""
    arcs = list(arcs)
    return {
        name: on_cycle([arc for arc in arcs if keep(arc)], special)
        for name, (keep, special) in CYCLES.items()
    }


def simple_cycles(arcs: Iterable) -> List[Tuple]:
    """Every simple cycle of ``arcs`` — a closed path whose nodes are
    distinct — as its arcs, once: from its smallest node."""
    arcs = list(arcs)

    def extend(start, path):
        at = path[-1].dst
        for arc in arcs:
            if arc.src != at:
                continue
            if arc.dst == start:
                yield (*path, arc)
            elif arc.dst > start and all(arc.dst != step.dst for step in path):
                yield from extend(start, path + [arc])

    cycles = []
    for first in arcs:
        if first.dst == first.src:
            cycles.append((first,))
        elif first.dst > first.src:
            cycles.extend(extend(first.src, [first]))
    return cycles


def one_anti_cycle(arcs: Sequence) -> bool:
    """A cycle with exactly one anti-dependency arc: an anti-dependency
    closed by a path of dependency arcs."""
    reach = reachable([arc for arc in arcs if is_dependency(arc)])
    return any(
        is_anti(arc) and arc.src in reach.get(arc.dst, {arc.dst}) for arc in arcs
    )


# ----------------------------------------------------------------------
# Section 5: the phenomena
# ----------------------------------------------------------------------


def g1a(events) -> bool:
    """A committed transaction read (item or version set) a version an
    aborted transaction created."""
    done, gone = committed(events), aborted(events)
    return any(
        ev.tid in done and v.tid in gone
        for ev in events
        if isinstance(ev, (Read, PredicateRead))
        for v in ([ev.version] if isinstance(ev, Read) else ev.vset.versions())
    )


def g1b(events) -> bool:
    """A committed transaction read another's version that is not its
    writer's final modification of the object."""
    done = committed(events)
    mine = written(events)
    return any(
        ev.tid in done and v.tid != ev.tid and v in mine and not is_final(events, v)
        for ev in events
        if isinstance(ev, (Read, PredicateRead))
        for v in ([ev.version] if isinstance(ev, Read) else ev.vset.versions())
    )


def phenomena(
    events,
    supplied: Optional[Mapping[str, Sequence[Version]]] = None,
    mode: str = "latest",
    *,
    extensions: bool = False,
) -> Dict[str, bool]:
    """Which phenomena the history ``(events, <<)`` exhibits: the core ones
    of Section 5, and with ``extensions`` those of the thesis levels."""
    events = list(events)
    order = version_order(events, supplied)
    arcs = dependencies(events, order, mode)
    out = {"G1a": g1a(events), "G1b": g1b(events), **cycle_phenomena(arcs)}
    out["G1"] = out["G1a"] or out["G1b"] or out["G1c"]
    if extensions:
        ssg = arcs + start_dependencies(events, order)
        out["G-single"] = one_anti_cycle(arcs)
        out["G-SIa"] = any(
            is_dependency(arc) and not starts_before(events, arc.src, arc.dst)
            for arc in arcs
        )
        out["G-SIb"] = one_anti_cycle(ssg)
        out["G-SI"] = out["G-SIa"] or out["G-SIb"]
        out["G-SS"] = on_cycle(ssg, lambda arc: arc.kind in ("rw", "so"))
        # A cycle whose one anti-dependency is a cursor read of x, with a
        # write-dependency on x.
        out["G-cursor"] = any(
            anti.cursor
            and not any(is_anti(arc) for arc in cycle if arc is not anti)
            and any(arc.kind == "ww" and arc.obj == anti.obj for arc in cycle)
            for cycle in simple_cycles(arcs)
            for anti in cycle
        )
    return out


def levels(exhibited: Mapping[str, bool]) -> Dict[str, bool]:
    """Which levels the phenomena leave provided (those whose proscribed
    phenomena were all judged)."""
    return {
        level: not any(exhibited[p] for p in proscribed)
        for level, proscribed in PROSCRIBED.items()
        if all(p in exhibited for p in proscribed)
    }
