"""``History(events, order)`` against the reference loader, history by history.

The constructor's one-sweep order builder and validator
(``repro.core.history``, ``repro.core.validation``) must judge exactly as the
multi-pass reference in ``tests/reference_validation.py`` does: both accept
with an equal ``version_order`` (objects in the same order, and the same
``committed`` / ``aborted`` / ``writes`` / final-write / ``setup_versions``
tables), or both raise the same exception class with the same message; with
``validate=False`` the order and the tables are equal whatever the verdict.

The corpus: the paper and anomaly catalogues; ``synthetic_history`` with and
without predicates, aborts, stale reads and an explicit order; the recorder
histories of the 15 ``simulator_golden`` configurations; each of those with
the loader transaction's events removed (what it wrote becomes setup
versions); and seeded single- and double-fault mutants of everything.
"""

from __future__ import annotations

import dataclasses
import functools
import random
from typing import Callable, Dict, List, Optional, Tuple
from unittest import mock

import pytest

from repro.core import parser
from repro.core.canonical import ALL_CANONICAL
from repro.core.events import (
    Abort,
    Begin,
    Commit,
    Event,
    PredicateRead,
    Read,
    Write,
)
from repro.core.history import History
from repro.core.objects import Version
from repro.core.predicates import VersionSet
from repro.exceptions import MalformedHistoryError, VersionOrderError
from repro.workloads import synthetic_history
from repro.workloads.anomalies import ALL_ANOMALIES

from .reference_validation import ReferenceHistory, reference_validate
from .test_simulator_golden import CONFIGS as SIMULATOR_CONFIGS

Order = Optional[Dict[str, List[Version]]]
#: One input of the constructor: ``(events, version_order, auto_complete)``.
Case = Tuple[List[Event], Order, bool]

REJECTIONS = (MalformedHistoryError, VersionOrderError)


# ----------------------------------------------------------------------
# the comparison
# ----------------------------------------------------------------------


def _tables(history) -> tuple:
    """Everything the order builder leaves on a history, key order included."""
    return (
        list(history.version_order.items()),
        list(history.committed),
        list(history.aborted),
        list(history.writes.items()),
        history._final_seq,
        history.setup_versions,
    )


def _rejection(build: Callable[[], object]):
    try:
        return build(), None
    except REJECTIONS as exc:
        return None, (type(exc), str(exc))


def agree(case: Case) -> Optional[str]:
    """Assert that constructor and reference agree on ``case``; return the
    rejection message (``None`` for an accepted history)."""
    events, order, auto_complete = case
    reference, verdict = _rejection(
        lambda: ReferenceHistory(events, order, auto_complete=auto_complete)
    )
    bare, bare_verdict = _rejection(
        lambda: History(events, order, auto_complete=auto_complete, validate=False)
    )
    assert bare_verdict == verdict  # only a chain naming another object
    if reference is not None:
        assert _tables(bare) == _tables(reference)
        _none, verdict = _rejection(lambda: reference_validate(reference))
    full, full_verdict = _rejection(
        lambda: History(events, order, auto_complete=auto_complete)
    )
    assert full_verdict == verdict
    if full is not None:
        assert _tables(full) == _tables(reference)
    return verdict[1] if verdict else None


# ----------------------------------------------------------------------
# base histories
# ----------------------------------------------------------------------


def _as_case(history: History) -> Case:
    """A built history as constructor input: its events and whole chains."""
    return (
        list(history.events),
        {obj: list(chain[1:]) for obj, chain in history.version_order.items()},
        False,
    )


def _parsed(entry) -> Case:
    """What ``parse_history`` hands the constructor for a catalogue entry."""
    captured = {}

    def capture(events, order, *, auto_complete, **_rest):
        captured["case"] = (list(events), order, auto_complete)

    with mock.patch.object(parser, "History", capture):
        parser.parse_history(entry.text, auto_complete=entry.auto_complete)
    return captured["case"]


def _without_loader(case: Case, *, keep_in_chains: bool) -> Case:
    """The same events with T0's removed: every version it wrote turns into
    a setup version, found by the order builder (``keep_in_chains=False``)
    or named by the supplied chains."""
    events, order, auto_complete = case
    events = [ev for ev in events if ev.tid != 0]
    if order is not None and not keep_in_chains:
        order = {
            obj: [v for v in chain if v.tid != 0] for obj, chain in order.items()
        }
    return events, order, auto_complete


SYNTHETIC = {
    "plain": dict(n_txns=60, n_objects=8, seed=11),
    "ladder": dict(
        n_txns=80, n_objects=8, stale_read_fraction=0.5, write_fraction=0.6, seed=12
    ),
    "aborts": dict(n_txns=60, n_objects=6, abort_fraction=0.4, seed=13),
    "predicates": dict(n_txns=40, n_objects=6, predicate_fraction=0.25, seed=14),
    "predicates_stale_aborts": dict(
        n_txns=40,
        n_objects=5,
        predicate_fraction=0.2,
        stale_read_fraction=0.5,
        abort_fraction=0.2,
        write_fraction=0.7,
        ops_per_txn=7,
        seed=15,
    ),
}


def _builders() -> Dict[str, Callable[[], Case]]:
    """How to build each base history, by name (built on first use)."""
    builders: Dict[str, Callable[[], Case]] = {}
    for entry in (*ALL_CANONICAL, *ALL_ANOMALIES):
        builders[f"catalogue/{entry.name}"] = functools.partial(_parsed, entry)
    for name, kwargs in SYNTHETIC.items():
        builders[f"synthetic/{name}"] = lambda kwargs=kwargs: _as_case(
            synthetic_history(**kwargs)
        )
        builders[f"synthetic/{name}/derived-order"] = lambda name=name: (
            base(f"synthetic/{name}")[0],
            None,
            False,
        )
    for name, run in SIMULATOR_CONFIGS.items():
        for seed in (0, 5):
            builders[f"recorder/{name}/{seed}"] = lambda run=run, seed=seed: (
                _as_case(run(seed).history)
            )
    for name in list(builders):
        if not name.startswith("catalogue/"):
            for variant, keep in (("no-loader", False), ("loader-in-chains", True)):
                builders[f"{name}/{variant}"] = lambda name=name, keep=keep: (
                    _without_loader(base(name), keep_in_chains=keep)
                )
    return builders


BASES = _builders()


@functools.lru_cache(maxsize=None)
def base(name: str) -> Case:
    return BASES[name]()


# ----------------------------------------------------------------------
# faults
# ----------------------------------------------------------------------
#
# A fault edits ``events`` and ``order`` in place and returns whether it
# found a place to apply.  None of them promises a malformed history — some
# mutants are still well-formed, and must then be accepted with equal
# orders — but together they reach every rule (asserted below).


def _rows(events, *types) -> List[int]:
    return [i for i, ev in enumerate(events) if isinstance(ev, types)]


def _written(events) -> Dict[Version, int]:
    return {ev.version: i for i, ev in enumerate(events) if isinstance(ev, Write)}


def drop_event(rng, events, order) -> bool:
    del events[rng.randrange(len(events))]
    return True


def duplicate_event(rng, events, order) -> bool:
    i = rng.randrange(len(events))
    events.insert(rng.randrange(i, len(events) + 1), events[i])
    return True


def swap_events(rng, events, order) -> bool:
    if len(events) < 2:
        return False
    i = rng.randrange(len(events) - 1)
    j = i + 1 if rng.random() < 0.5 else rng.randrange(len(events))
    events[i], events[j] = events[j], events[i]
    return True


def bump_seq(rng, events, order) -> bool:
    rows = [i for i in _rows(events, Read, Write) if not events[i].version.is_unborn]
    if not rows:
        return False
    i = rng.choice(rows)
    v = events[i].version
    seq = v.seq + 1 if v.seq == 1 or rng.random() < 0.7 else v.seq - 1
    events[i] = dataclasses.replace(events[i], version=Version(v.obj, v.tid, seq))
    return True


def second_begin(rng, events, order) -> bool:
    tid = events[rng.randrange(len(events))].tid
    events.insert(rng.randrange(len(events) + 1), Begin(tid))
    return True


def event_after_finish(rng, events, order) -> bool:
    finishes = _rows(events, Commit, Abort)
    if not finishes:
        return False
    i = rng.choice(finishes)
    tid = events[i].tid
    earlier = [j for j in range(i) if events[j].tid == tid]
    ev = events.pop(rng.choice(earlier)) if earlier else Commit(tid)
    events.insert(rng.randrange(i, len(events) + 1), ev)
    return True


def kill_a_write(rng, events, order) -> bool:
    """Turn a write into a delete: its readers read a dead version, its
    successors in the order follow one, and its own transaction may go on
    using the object."""
    rows = _rows(events, Write)
    if not rows:
        return False
    i = rng.choice(rows)
    events[i] = Write(events[i].tid, events[i].version, dead=True)
    return True


def read_unborn(rng, events, order) -> bool:
    rows = _rows(events, Read, Write)
    if not rows:
        return False
    obj = events[rng.choice(rows)].version.obj
    i = rng.randrange(len(events))
    events.insert(i, Read(events[i].tid, Version.unborn(obj)))
    return True


def read_unwritten(rng, events, order) -> bool:
    """A read of a version no event writes: a setup version of a fresh
    transaction, of one that has events, or of an aborted one."""
    rows = _rows(events, Read, Write)
    if not rows:
        return False
    obj = events[rng.choice(rows)].version.obj
    aborted = [events[i].tid for i in _rows(events, Abort)]
    if aborted and rng.random() < 0.4:
        writer = rng.choice(aborted)
    elif rng.random() < 0.5:
        writer = events[rng.randrange(len(events))].tid
    else:
        writer = max(ev.tid for ev in events) + 1
    i = rng.randrange(len(events))
    events.insert(i, Read(events[i].tid, Version(obj, writer, 7)))
    return True


def read_before_write(rng, events, order) -> bool:
    written = _written(events)
    rows = [
        i
        for i in _rows(events, Read)
        if written.get(events[i].version, len(events)) < i
    ]
    if not rows:
        return False
    i = rng.choice(rows)
    events.insert(written[events[i].version], events.pop(i))
    return True


def select_before_write(rng, events, order) -> bool:
    """Move a predicate read in front of the write of a version it selects."""
    written = _written(events)
    rows = [
        (i, written[v])
        for i in _rows(events, PredicateRead)
        for v in events[i].vset.versions()
        if written.get(v, len(events)) < i
    ]
    if not rows:
        return False
    i, j = rng.choice(rows)
    events.insert(j, events.pop(i))
    return True


def select_unwritten(rng, events, order) -> bool:
    rows = _rows(events, PredicateRead)
    if not rows:
        return False
    i = rng.choice(rows)
    old = events[i]
    selected = dict(old.vset.selected)
    obj = rng.choice(sorted(selected)) if selected else "fresh"
    writer = rng.choice([old.tid, max(ev.tid for ev in events) + 1])
    selected[obj] = rng.choice([Version.unborn(obj), Version(obj, writer, 9)])
    events[i] = PredicateRead(old.tid, old.predicate, VersionSet(selected))
    return True


def _chains(order) -> List[str]:
    return [obj for obj, chain in (order or {}).items() if chain]


def chain_duplicate(rng, events, order) -> bool:
    if not _chains(order):
        return False
    chain = order[rng.choice(_chains(order))]
    chain.insert(rng.randrange(len(chain) + 1), rng.choice(chain))
    return True


def chain_missing(rng, events, order) -> bool:
    if not _chains(order):
        return False
    chain = order[rng.choice(_chains(order))]
    for _ in range(rng.choice([1, 1, 2, 3])):  # several gaps in one order
        if chain:
            del chain[rng.randrange(len(chain))]
    return True


def chain_swap(rng, events, order) -> bool:
    chains = [obj for obj in _chains(order) if len(order[obj]) > 1]
    if not chains:
        return False
    chain = order[rng.choice(chains)]
    i, j = rng.sample(range(len(chain)), 2)
    chain[i], chain[j] = chain[j], chain[i]
    return True


def chain_intermediate(rng, events, order) -> bool:
    if order is None:
        return False
    rewritten = [v for v in _written(events) if v.seq > 1 and v.obj in order]
    if not rewritten:
        return False
    v = rng.choice(rewritten)
    earlier = Version(v.obj, v.tid, rng.randrange(1, v.seq))
    chain = order[v.obj]
    if v in chain and rng.random() < 0.7:
        chain[chain.index(v)] = earlier
    else:
        chain.insert(rng.randrange(len(chain) + 1), earlier)
    return True


def chain_of_aborted_writer(rng, events, order) -> bool:
    if order is None:
        return False
    aborted = {events[i].tid for i in _rows(events, Abort)}
    theirs = [v for v in _written(events) if v.tid in aborted and v.obj in order]
    if not theirs:
        return False
    v = rng.choice(theirs)
    order[v.obj].insert(rng.randrange(len(order[v.obj]) + 1), v)
    return True


def chain_unwritten(rng, events, order) -> bool:
    """A supplied chain names a version no event writes: a setup version,
    unless it belongs to an aborted transaction."""
    if not order:
        return False
    obj = rng.choice(sorted(order))
    aborted = [events[i].tid for i in _rows(events, Abort)]
    if aborted and rng.random() < 0.5:
        writer = rng.choice(aborted)
    else:
        writer = max(ev.tid for ev in events) + 2
    order[obj].insert(rng.randrange(len(order[obj]) + 1), Version(obj, writer, 3))
    return True


def chain_unborn(rng, events, order) -> bool:
    if not order:
        return False
    obj = rng.choice(sorted(order))
    order[obj].insert(rng.randrange(len(order[obj]) + 1), Version.unborn(obj))
    return True


def chain_of_another_object(rng, events, order) -> bool:
    if len(_chains(order)) < 2:
        return False
    source, target = rng.sample(_chains(order), 2)
    order[target].append(rng.choice(order[source]))
    return True


def chain_dropped(rng, events, order) -> bool:
    """A supplied order that leaves an object out: its chain is derived."""
    if not order:
        return False
    del order[rng.choice(sorted(order))]
    return True


FAULTS = (
    drop_event,
    duplicate_event,
    swap_events,
    bump_seq,
    second_begin,
    event_after_finish,
    kill_a_write,
    read_unborn,
    read_unwritten,
    read_before_write,
    select_before_write,
    select_unwritten,
    chain_duplicate,
    chain_missing,
    chain_swap,
    chain_intermediate,
    chain_of_aborted_writer,
    chain_unwritten,
    chain_unborn,
    chain_of_another_object,
    chain_dropped,
)

#: Mutants per base history: this many with one fault, as many with two.
MUTANTS = 10


def mutants(name: str, case: Case):
    events, order, auto_complete = case
    for k in range(2 * MUTANTS):
        rng = random.Random(f"{name}/{k}")
        mutant_events = list(events)
        mutant_order = (
            None if order is None else {obj: list(c) for obj, c in order.items()}
        )
        applied = []
        wanted = 1 if k < MUTANTS else 2
        for _attempt in range(20):
            fault = rng.choice(FAULTS)
            if mutant_events and fault(rng, mutant_events, mutant_order):
                applied.append(fault.__name__)
                if len(applied) == wanted:
                    break
        # A cut-off history is completed or rejected: both are input.
        complete = auto_complete or rng.random() < 0.25
        yield "+".join(applied), (mutant_events, mutant_order, complete)


# ----------------------------------------------------------------------
# the tests
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", BASES)
def test_base_history_is_accepted_alike(name):
    assert agree(base(name)) is None


#: One phrase per rule (and per way of breaking it) the validator words
#: differently; the mutants together must reach every one.  Three of the
#: reference's messages no history reaches, and the validator leaves them
#: out: E2 "duplicate begin" (a second begin is never a first event), V2
#: "never written" (an unwritten version in an order is a setup version)
#: and E7 on a read (after its own delete a transaction reads the dead
#: version, E5, or some other one, E4 — both reported first).
RULES = (
    "E1: event",
    "E1: history is not complete",
    "E2: begin",
    "before it is written",  # E3, item read
    "E3: version set of",
    "attributed to an aborted transaction",  # E3, setup version
    "E4: ",
    "E5: read of unborn",
    "E5: read of dead",
    "E6: ",
    "E7: ",
    "V1: ",
    "V2: duplicate version",
    "V2: setup version",
    "of an uncommitted or aborted transaction",  # V2
    "contains intermediate version",  # V2
    "V2: committed version",
    "version order for",  # a chain naming another object's version
)


def test_mutants_are_judged_alike_and_reach_every_rule():
    messages: List[str] = []
    for name in BASES:
        for faults, case in mutants(name, base(name)):
            try:
                message = agree(case)
            except AssertionError as exc:
                raise AssertionError(
                    f"{name}: mutant [{faults}] is judged apart"
                ) from exc
            if message is not None:
                messages.append(message)
    for rule in RULES:
        assert any(rule in message for message in messages), rule
    # ... and enough mutants are still well-formed to compare the orders of
    # histories that differ from their base.
    total = 2 * MUTANTS * len(BASES)
    assert total // 4 < len(messages) < total
