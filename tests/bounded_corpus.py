"""One bounded-exhaustive corpus of small histories.

Each family names a few transaction programs, an initial state, and how a
read chooses its version; the corpus holds *every* history those produce:
every interleaving of the programs, every version a read may observe, every
match set of a predicate read, and, where the family asks for it, every
order of the committed versions (the default order stands for itself, as
``None``).  Within those bounds there is no missed counterexample, and
``tests/test_reference_agreement.py`` holds every checker path to
:mod:`tests.reference_definitions` on all of it.

Programs are sequences of ``(op, obj)`` steps: ``r`` reads, ``rc`` reads
through a cursor, ``w`` writes, ``p`` reads the predicate ``P`` over
relation ``R`` (objects ``x`` and ``y``), ``c`` commits and ``a`` aborts.  A read chooses its version by one
of two rules:

* ``"latest"`` — the top of the object's in-place stack (the latest write
  of a transaction that has not aborted yet, or the initial version), as a
  single-version engine does;
* ``"any"`` — any version on that stack: stale, dirty and intermediate
  reads alike.

A transaction that wrote the object reads its own last write.  The initial
state is a loader ``T0`` that writes every object and commits first, or,
without one, versions no event writes (setup versions, Section 4.2) of
two implicit transactions ``T8`` and ``T9``.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.events import Abort, Commit, PredicateRead, Read, Write
from repro.core.history import History
from repro.core.objects import Version
from repro.core.predicates import MembershipPredicate, VersionSet

from .reference_definitions import version_order

Program = Tuple[Tuple[str, str], ...]


def program(text: str) -> Program:
    """``"r x, w y, c"`` as steps."""
    steps = []
    for step in text.split(","):
        op, _, obj = step.strip().partition(" ")
        steps.append((op, obj))
    return tuple(steps)


class Family(NamedTuple):
    name: str
    #: One tuple of programs per history shape; transaction ``i + 1`` runs
    #: ``programs[i]``.
    shapes: Tuple[Tuple[Program, ...], ...]
    #: The objects of the initial state.
    objects: Tuple[str, ...] = ("x", "y")
    reads: str = "latest"
    #: ``"loader"`` (T0 writes every object first) or ``"setup"``.
    initial: str = "loader"
    #: Every committed version order, or the default order only.
    orders: bool = True


class Entry(NamedTuple):
    family: Family
    events: Tuple
    #: The supplied version order, ``None`` for the default one.
    order: Optional[Dict[str, Tuple[Version, ...]]]
    history: History


def interleavings(lengths: Sequence[int]) -> Iterator[Tuple[int, ...]]:
    """Every merge of programs of these lengths, as the program index of
    each step in turn."""
    if not any(lengths):
        yield ()
        return
    for i, n in enumerate(lengths):
        if n:
            rest = list(lengths)
            rest[i] -= 1
            for tail in interleavings(rest):
                yield (i, *tail)


#: The implicit initial versions of the setup families.
SETUP = {obj: (Version(obj, 8), Version(obj, 9)) for obj in ("x", "y")}


def _runs(family, shape, picks) -> Iterator[List]:
    """Every event list of one interleaving: one per choice of version at
    each read, and of match set at each predicate read."""
    objects, reads, initial = family.objects, family.reads, family.initial
    start: List = []
    stacks: Dict[str, List[Version]] = {}
    for obj in objects:
        if initial == "loader":
            start.append(Write(0, Version(obj, 0), 0))
            stacks[obj] = [Version(obj, 0)]
        else:
            stacks[obj] = list(SETUP[obj])
    if initial == "loader":
        start.append(Commit(0))

    def step(k, events, stacks, counts, preads):
        if k == len(picks):
            yield from _with_matches(events, preads)
            return
        tid = picks[k] + 1
        op, obj = shape[picks[k]][sum(1 for p in picks[:k] if p == picks[k])]
        if op == "w":
            counts = dict(counts)
            counts[obj, tid] = counts.get((obj, tid), 0) + 1
            version = Version(obj, tid, counts[obj, tid])
            grown = dict(stacks)
            grown[obj] = stacks[obj] + [version]
            yield from step(k + 1, events + [Write(tid, version)], grown, counts, preads)
        elif op in ("c", "a"):
            if op == "a":
                stacks = {o: [v for v in s if v.tid != tid] for o, s in stacks.items()}
            end = Commit(tid) if op == "c" else Abort(tid)
            yield from step(k + 1, events + [end], stacks, counts, preads)
        elif op in ("r", "rc"):
            for version in _choices(stacks, counts, tid, obj, reads):
                read = Read(tid, version, cursor=op == "rc")
                yield from step(k + 1, events + [read], stacks, counts, preads)
        else:  # "p": a version of each object, its match set chosen later
            for picked in itertools.product(
                *(_choices(stacks, counts, tid, o, reads) for o in ("x", "y"))
            ):
                at = len(events)
                yield from step(
                    k + 1, events + [(tid, picked)], stacks, counts, preads + [at]
                )

    yield from step(0, start, stacks, {}, [])


def _choices(stacks, counts, tid, obj, reads) -> List[Version]:
    seq = counts.get((obj, tid))
    if seq:
        return [Version(obj, tid, seq)]
    stack = stacks[obj]
    return stack[-1:] if reads == "latest" else list(dict.fromkeys(stack))


def _with_matches(events, preads) -> Iterator[List]:
    """Resolve each predicate read placeholder ``(tid, versions)``: one
    history per set of matching versions — any subset of the versions the
    history's events name, but for the predicate readers' own."""
    if not preads:
        yield events
        return
    readers = {events[at][0] for at in preads}
    named = list(dict.fromkeys(
        v for ev in events
        for v in (ev[1] if isinstance(ev, tuple) else [getattr(ev, "version", None)])
        if v is not None and v.tid not in readers
    ))
    for size in range(len(named) + 1):
        for matching in itertools.combinations(named, size):
            predicate = MembershipPredicate("P", frozenset(matching))
            yield [
                PredicateRead(ev[0], predicate, VersionSet.of(*ev[1]))
                if isinstance(ev, tuple) else ev
                for ev in events
            ]


def _orders(events) -> Iterator[Optional[Dict[str, Tuple[Version, ...]]]]:
    """The default order (``None``), then every other order of each
    object's committed versions — its committed transactions' final writes
    and the setup versions its reads name."""
    installed = {obj: chain[1:] for obj, chain in version_order(events).items()}
    for chains in itertools.product(
        *(itertools.permutations(chain) for chain in installed.values())
    ):
        order = dict(zip(installed, chains))
        yield None if order == installed else order


def histories(family: Family) -> Iterator[Entry]:
    for shape in family.shapes:
        for picks in interleavings([len(prog) for prog in shape]):
            for events in _runs(family, shape, picks):
                events = tuple(events)
                for order in _orders(events) if family.orders else (None,):
                    yield Entry(family, events, order, History(events, order))


# ----------------------------------------------------------------------
# the families
# ----------------------------------------------------------------------

#: Single-object programs: reads and writes of x, then commit or abort.
X_PROGRAMS = tuple(
    program(text)
    for text in (
        "r x, c", "w x, c", "r x, r x, c", "r x, w x, c", "w x, r x, c",
        "w x, w x, c", "r x, w x, a", "w x, a", "r x, w x, r x, c",
    )
)

#: Two-object programs: write skew on x and on y, a copier, a blind double
#: write, a pure reader and an aborted writer.
XY_PROGRAMS = tuple(
    program(text)
    for text in (
        "r x, r y, w x, c", "r x, r y, w y, c", "r x, w y, c",
        "w x, w y, c", "r x, r y, c", "w x, a",
    )
)


def pairs(programs) -> Tuple[Tuple[Program, ...], ...]:
    return tuple(itertools.product(programs, repeat=2))


FAMILIES = (
    # Two transactions over x, reads of the latest version: every committed
    # version order, beside intermediate versions, aborts and reads of a
    # transaction's own writes.
    Family("x", pairs(X_PROGRAMS), objects=("x",)),
    # Two transactions over x and y, reads of the latest version.
    Family("xy", pairs(XY_PROGRAMS), orders=False),
    # Two writers of x, stale reads: every order of x's three versions.
    Family(
        "orders", pairs((program("w x, c"), program("r x, w x, c"))),
        objects=("x",), reads="any",
    ),
    # Three transactions: a writer of x, a copier x -> y, and a reader of y
    # writing x.
    Family(
        "three",
        ((program("w x, c"), program("r x, w y, c"), program("r y, w x, c")),),
        orders=False,
    ),
    # Two writes of x, committed or aborted, read in between: dirty and
    # intermediate reads.
    Family(
        "dirty",
        tuple(itertools.product(
            (program("w x, w x, c"), program("w x, w x, a"), program("r x, c")),
            repeat=2,
        )),
        objects=("x",), reads="any", orders=False,
    ),
    # A predicate read over R = {x, y}, then a write of y, beside a writer
    # of x: phantoms, read-dependencies through a changed match, and a
    # version set naming an aborted write.
    Family(
        "predicate",
        tuple(
            (program("p, w y, c"), other)
            for other in (
                program("w x, r y, c"), program("r y, w x, c"),
                program("w x, c"), program("w x, a"),
            )
        ),
        orders=False,
    ),
    # Cursor reads of x beside a writer of x: the lost update on a cursor
    # (G-cursor), every committed version order.
    Family(
        "cursor",
        tuple(itertools.product(
            (program("rc x, w x, c"), program("rc x, w y, c")),
            (program("w x, c"), program("rc x, w x, c")),
        )),
        reads="any",
    ),
    # No loader: two readers of x and y choose between the setup versions
    # of two implicit transactions, which their reads order.
    Family(
        "setup", ((program("r x, r y, c"), program("r x, r y, c")),),
        reads="any", initial="setup", orders=False,
    ),
)


#: sha256 of the sorted notation of the ``x`` and ``xy`` families in their
#: default version order, one history per line: the 2,370 histories of the
#: two enumerators these families replaced, pinned equal to their output
#: when both existed.
LEGACY_DIGEST = "f103a691fd8deb809009870a6aea2112acf8b2fa41050e83459b4a27bcc7f5c2"


def legacy_texts(entries) -> List[str]:
    return sorted(
        str(e.history) for e in entries
        if e.family.name in ("x", "xy") and e.order is None
    )


def corpus() -> List[Entry]:
    return [entry for family in FAMILIES for entry in histories(family)]


#: The corpus, built once per process.
CORPUS = corpus()


def interleaved() -> Iterator[Entry]:
    """The corpus with its families taken in turn, so that each family's
    histories come early."""
    by_family = [[e for e in CORPUS if e.family is family] for family in FAMILIES]
    for group in itertools.zip_longest(*by_family):
        yield from (entry for entry in group if entry is not None)
