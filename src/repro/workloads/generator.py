"""Workload generators: random programs for the engine and direct synthetic
histories for checker-scaling benchmarks.

Two layers:

* :func:`random_programs` builds seeded random transaction programs
  (read/write mixes over a keyspace with optional hot spots, predicate
  operations, inserts and deletes) to drive any scheduler through the
  simulator — this is how the FIG1 and SEC3 experiments produce adversarial
  histories.
* :func:`synthetic_history` manufactures a large well-formed history
  directly (no engine), with knobs for dirty reads and stale (multi-version)
  reads, for benchmarking the checker itself at 10^4–10^5 events.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.events import Abort, Begin, Commit, Event, PredicateRead
from ..core.events import Read as ReadEvent
from ..core.events import Write as WriteEvent
from ..core.history import History
from ..core.levels import IsolationLevel
from ..core.objects import Version
from ..core.predicates import FieldPredicate, FunctionPredicate, VersionSet
from ..exceptions import WorkloadError
from ..engine.programs import (
    Delete,
    Insert,
    Program,
    Read,
    Select,
    Count,
    UpdateWhere,
    Write,
)

__all__ = ["WorkloadConfig", "random_programs", "synthetic_history"]


@dataclass(frozen=True)
class WorkloadConfig:
    """Knobs for :func:`random_programs`.

    ``hot_fraction`` of operations target the first ``hot_keys`` objects,
    modelling contention hot spots (the paper's "high traffic hotspots").
    ``predicate_fraction`` of steps are predicate operations over the
    ``rows`` relation (select / count / predicate update); ``insert_fraction``
    and ``delete_fraction`` add phantoms.  Set the latter three to zero for a
    pure key-value workload.
    """

    n_programs: int = 6
    steps_per_program: int = 4
    n_keys: int = 8
    hot_keys: int = 2
    hot_fraction: float = 0.5
    write_fraction: float = 0.5
    predicate_fraction: float = 0.0
    insert_fraction: float = 0.0
    delete_fraction: float = 0.0
    relation: str = "rows"
    level: Optional[IsolationLevel] = None

    def initial_state(self) -> Dict[str, int]:
        """The matching ``Database.load`` payload: keys ``k0..`` with value
        100, plus ``rows:*`` tuples when predicate operations are enabled."""
        state: Dict[str, int] = {f"k{i}": 100 for i in range(self.n_keys)}
        if self.predicate_fraction or self.insert_fraction or self.delete_fraction:
            for i in range(1, self.n_keys + 1):
                state[f"{self.relation}:{i}"] = {
                    "group": i % 2,
                    "amount": 10 * i,
                }
        return state


def _pick_key(rng: random.Random, cfg: WorkloadConfig) -> str:
    if cfg.hot_keys and rng.random() < cfg.hot_fraction:
        return f"k{rng.randrange(cfg.hot_keys)}"
    return f"k{rng.randrange(cfg.n_keys)}"


def random_programs(
    cfg: WorkloadConfig, seed: int = 0
) -> List[Program]:
    """Seeded random transaction programs per ``cfg``."""
    if not 0 <= cfg.write_fraction <= 1:
        raise WorkloadError("write_fraction must be within [0, 1]")
    rng = random.Random(seed)
    group0 = FieldPredicate(cfg.relation, "group", "==", 0, name="group=0")
    group1 = FieldPredicate(cfg.relation, "group", "==", 1, name="group=1")
    programs: List[Program] = []
    # Preloaded rows not yet handed to a ``Delete`` step.  A deleted object
    # is never written again (its dead version is the last of its order), so
    # across the whole program set each row is deleted at most once; when
    # the rows run out, later delete steps are dropped.
    deletable = iter(range(1, cfg.n_keys + 1))
    for p in range(cfg.n_programs):
        steps: List[object] = []
        for s in range(cfg.steps_per_program):
            roll = rng.random()
            if roll < cfg.predicate_fraction:
                pred = group0 if rng.random() < 0.5 else group1
                kind = rng.randrange(3)
                if kind == 0:
                    steps.append(Select(pred, into=f"sel{s}"))
                elif kind == 1:
                    steps.append(Count(pred, into=f"cnt{s}"))
                else:
                    steps.append(
                        UpdateWhere(
                            pred,
                            lambda row: {**row, "amount": row["amount"] + 1},
                        )
                    )
                continue
            roll -= cfg.predicate_fraction
            if roll < cfg.insert_fraction:
                steps.append(
                    Insert(
                        cfg.relation,
                        {"group": rng.randrange(2), "amount": rng.randrange(100)},
                        into=f"new{s}",
                    )
                )
                continue
            roll -= cfg.insert_fraction
            if roll < cfg.delete_fraction:
                steps.append(f"__delete_one__{s}")  # resolved below
                continue
            key = _pick_key(rng, cfg)
            if rng.random() < cfg.write_fraction:
                reg = f"v{s}"
                steps.append(Read(key, into=reg, for_update=True))
                steps.append(
                    Write(key, lambda regs, _r=reg: (regs[_r] or 0) + 1)
                )
            else:
                steps.append(Read(key, into=f"v{s}"))
        resolved = []
        for step in steps:
            if isinstance(step, str) and step.startswith("__delete_one__"):
                row = next(deletable, None)
                if row is not None:
                    resolved.append(Delete(f"{cfg.relation}:{row}"))
            else:
                resolved.append(step)
        programs.append(Program(f"p{p}", resolved, level=cfg.level))
    return programs


# ----------------------------------------------------------------------
# direct synthetic histories (checker scaling)
# ----------------------------------------------------------------------


def _even_value(version: Version, value) -> bool:
    """Module-level predicate condition (not a lambda) so synthetic
    histories stay picklable for ``check_many``'s process pool."""
    return isinstance(value, int) and value % 2 == 0


def synthetic_history(
    *,
    n_txns: int = 100,
    n_objects: int = 20,
    ops_per_txn: int = 5,
    write_fraction: float = 0.4,
    abort_fraction: float = 0.05,
    stale_read_fraction: float = 0.0,
    predicate_fraction: float = 0.0,
    seed: int = 0,
    validate: bool = True,
) -> History:
    """A large well-formed history built directly, no engine.

    Transactions run concurrently in random interleavings; reads observe the
    latest committed version (or, with probability ``stale_read_fraction``,
    a uniformly random earlier committed version — the multi-version
    flavour), writes buffer and install at commit in commit order.  With
    probability ``predicate_fraction`` an operation is a predicate read
    ("value is even") whose version set selects every object at its latest
    (or stale) committed version — exercising predicate read- and
    anti-dependencies at scale.  The result is well-formed by construction;
    ``validate=True`` double-checks.  Histories are picklable (the predicate
    condition is a module-level function), so they can feed ``check_many``.
    """
    rng = random.Random(seed)
    objects = [f"o{i}" for i in range(n_objects)]
    even = FunctionPredicate("even", _even_value)
    events: List[Event] = []
    order: Dict[str, List[Version]] = {obj: [] for obj in objects}
    committed_chain: Dict[str, List[Tuple[Version, int]]] = {
        obj: [] for obj in objects
    }

    # Loader transaction installs every object so reads always find data.
    loader = 0
    for obj in objects:
        v = Version(obj, loader)
        events.append(WriteEvent(loader, v, value=0))
    events.append(Commit(loader))
    for obj in objects:
        order[obj].append(Version(obj, loader))
        committed_chain[obj].append((Version(obj, loader), 0))

    class _T:
        def __init__(self, tid: int):
            self.tid = tid
            self.remaining = ops_per_txn
            self.writes: Dict[str, int] = {}
            self.values: Dict[str, int] = {}

    active: List[_T] = []
    next_tid = 1
    started = 0
    while started < n_txns or active:
        if started < n_txns and (len(active) < 4 or rng.random() < 0.3):
            txn = _T(next_tid)
            next_tid += 1
            started += 1
            active.append(txn)
            events.append(Begin(txn.tid))
            continue
        # The same draw as ``rng.choice(active)``, keeping the index so a
        # finished transaction leaves the list without a scan for it.
        at = rng.randrange(len(active))
        txn = active[at]
        if txn.remaining <= 0:
            active.pop(at)
            if rng.random() < abort_fraction:
                events.append(Abort(txn.tid))
            else:
                events.append(Commit(txn.tid))
                for obj, count in txn.writes.items():
                    v = Version(obj, txn.tid, count)
                    order[obj].append(v)
                    committed_chain[obj].append((v, txn.values[obj]))
            continue
        txn.remaining -= 1
        if predicate_fraction and rng.random() < predicate_fraction:
            # Predicate read over every object; each selects its latest (or
            # stale) committed version.  The extra rng draws only happen when
            # the knob is on, so seeds reproduce pre-knob histories exactly
            # at predicate_fraction=0.
            selected = {}
            for obj in objects:
                chain = committed_chain[obj]
                if stale_read_fraction and rng.random() < stale_read_fraction:
                    version, _value = rng.choice(chain)
                else:
                    version, _value = chain[-1]
                selected[obj] = version
            events.append(PredicateRead(txn.tid, even, VersionSet(selected)))
            continue
        obj = rng.choice(objects)
        if obj in txn.writes or rng.random() < write_fraction:
            count = txn.writes.get(obj, 0) + 1
            txn.writes[obj] = count
            txn.values[obj] = rng.randrange(1000)
            events.append(
                WriteEvent(txn.tid, Version(obj, txn.tid, count), txn.values[obj])
            )
        else:
            chain = committed_chain[obj]
            if stale_read_fraction and rng.random() < stale_read_fraction:
                version, value = rng.choice(chain)
            else:
                version, value = chain[-1]
            events.append(ReadEvent(txn.tid, version, value))
    return History(events, order, validate=validate)
