"""Deterministic interleaved execution of transaction programs.

The simulator runs a set of :class:`~repro.engine.programs.Program` instances
against one :class:`~repro.engine.database.Database`, interleaving their
steps under a seeded RNG — same seed, same history, bit for bit.  It models
the concurrency a real system gets from threads without any actual threads:

* each scheduling round picks a random unfinished program and runs its next
  step;
* a step that raises :class:`~repro.exceptions.WouldBlock` leaves the
  program *waiting* on the lock holders; waiting programs are retried once
  a holder finishes;
* deadlocks (cycles in the waits-for graph assembled from the ``WouldBlock``
  holders) abort the youngest transaction of the cycle, which restarts with
  a fresh tid if retries remain — so histories genuinely contain the abort
  and the rerun, as a real system's would;
* scheduler-initiated aborts (OCC validation failures, SI first-committer
  losses) likewise restart the program up to ``max_retries`` times.

``Simulator.run`` returns a :class:`SimulationResult` with the history, the
per-program outcomes, and counters the benchmarks report.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set

from ..core.history import History
from ..exceptions import TransactionAborted, WouldBlock
from .database import Database, TransactionHandle
from .programs import Program, Step

__all__ = ["Simulator", "SimulationResult", "ProgramOutcome"]


@dataclass
class ProgramOutcome:
    """How one program fared across its attempts."""

    program: str
    tids: List[int] = field(default_factory=list)
    committed_tid: Optional[int] = None
    aborts: int = 0
    regs: Dict[str, Any] = field(default_factory=dict)

    @property
    def committed(self) -> bool:
        return self.committed_tid is not None


@dataclass
class SimulationResult:
    history: History
    outcomes: List[ProgramOutcome]
    steps_executed: int
    deadlocks: int
    #: The online monitor the run was observed through, if one was attached
    #: (see ``Simulator(monitor=...)``); it has consumed every event.
    monitor: Optional[object] = None
    #: The metrics registry the run accounted into, if one was attached
    #: (see ``Simulator(metrics=...)``): begins/commits/aborts by reason,
    #: lock waits and holds in logical steps, deadlock victims, ...
    metrics: Optional[object] = None

    @property
    def committed_count(self) -> int:
        return sum(1 for o in self.outcomes if o.committed)

    @property
    def abort_count(self) -> int:
        return sum(o.aborts for o in self.outcomes)


class _Run:
    """One program's execution state."""

    def __init__(self, program: Program, index: int):
        self.program = program
        self.index = index
        self.outcome = ProgramOutcome(program.name)
        self.queue: List[Step] = []
        self.regs: Dict[str, Any] = {}
        self.txn: Optional[TransactionHandle] = None
        self.waiting_on: Optional[frozenset[int]] = None
        self.done = False
        self.failed = False
        #: Registry clock when the current lock wait began (observability).
        self.wait_started: Optional[int] = None
        #: Open tracer span for the current attempt (observability).
        self.span: Optional[object] = None

    @property
    def active(self) -> bool:
        return not self.done and not self.failed

    def start(self, db: Database) -> None:
        self.txn = db.begin(self.program.level)
        self.outcome.tids.append(self.txn.tid)
        self.queue = list(self.program.steps)
        self.regs = {}
        self.waiting_on = None


class Simulator:
    """Seeded round-based interleaver."""

    def __init__(
        self,
        db: Database,
        programs: Sequence[Program],
        *,
        seed: int = 0,
        max_retries: int = 20,
        max_steps: int = 100_000,
        monitor: Optional[object] = None,
        metrics: Optional[object] = None,
        tracer: Optional[object] = None,
    ):
        self.db = db
        self.programs = list(programs)
        self.rng = random.Random(seed)
        self.max_retries = max_retries
        self.max_steps = max_steps
        self.deadlocks = 0
        self.monitor = monitor
        # Observability: thread the sinks through the scheduler (and from
        # there the recorder, lock manager and store).  The registry clock
        # ticks once per scheduling round, so every duration metric is in
        # deterministic logical steps.
        self.metrics = metrics
        self.tracer = tracer
        if metrics is not None or tracer is not None:
            db.scheduler.instrument(metrics=metrics, tracer=tracer)
        if monitor is not None:
            # Observe the execution online: the recorder forwards every
            # event (including any already recorded, e.g. the initial load)
            # to the monitor as it happens.
            db.scheduler.recorder.attach_monitor(monitor)

    # ------------------------------------------------------------------

    def run(self) -> SimulationResult:
        metrics = self.metrics
        sched_name = self.db.scheduler.name
        self._run_span = None
        if self.tracer is not None:
            self._run_span = self.tracer.span(
                "simulation.run",
                stack=False,
                scheduler=sched_name,
                programs=[p.name for p in self.programs],
            )
        runs = [_Run(p, i) for i, p in enumerate(self.programs)]
        for run in runs:
            self._start(run)
        steps = 0
        steps_counter = None
        if metrics is not None:
            steps_counter = metrics.counter(
                "sim_steps_total", "scheduling rounds executed"
            ).labels(scheduler=sched_name)
        while steps < self.max_steps:
            candidates = [r for r in runs if r.active]
            if not candidates:
                break
            run = self.rng.choice(candidates)
            steps += 1
            if steps_counter is not None:
                metrics.tick()
                steps_counter.inc()
            self._step(run, runs)
            if all(r.waiting_on is not None for r in runs if r.active):
                # Everyone is blocked but no waits-for cycle was found — the
                # blockers must be committed/aborted already; clear waits and
                # retry (lock tables are re-consulted on the next attempt).
                for r in runs:
                    if r.active:
                        r.waiting_on = None
        # Step budget exhausted: abort whatever is still running so the
        # history is complete.
        for run in runs:
            if run.active and run.txn is not None:
                run.txn.abort()
                run.failed = True
                if run.span is not None:
                    run.span.end(outcome="cut-off")
                    run.span = None
        if self.monitor is not None and hasattr(self.monitor, "finish"):
            # Apply the completion rule so the monitor's verdicts line up
            # with the auto-completed history below.
            self.monitor.finish()
        if self._run_span is not None:
            self._run_span.end(steps=steps, deadlocks=self.deadlocks)
        return SimulationResult(
            self.db.history(),
            [r.outcome for r in runs],
            steps,
            self.deadlocks,
            monitor=self.monitor,
            metrics=metrics,
        )

    # ------------------------------------------------------------------

    def _start(self, run: _Run) -> None:
        """(Re)start a program, opening its per-attempt transaction span."""
        run.start(self.db)
        if self.tracer is not None:
            run.span = self.tracer.span(
                "txn",
                parent=self._run_span,
                stack=False,
                program=run.program.name,
                tid=run.txn.tid,
                attempt=len(run.outcome.tids),
            )

    def _step(self, run: _Run, runs: List["_Run"]) -> None:
        assert run.txn is not None
        metrics = self.metrics
        if metrics is not None and run.waiting_on is not None:
            # A parked program got rescheduled: its blocked operation is
            # about to be retried against the lock tables.
            metrics.counter(
                "wouldblock_retries_total",
                "blocked operations retried after a holder finished",
            ).inc(scheduler=self.db.scheduler.name)
        try:
            if run.queue:
                step = run.queue[0]
                extra = step.run(run.txn, run.regs)
                run.queue.pop(0)
                if extra:
                    run.queue[:0] = list(extra)
                if run.span is not None:
                    run.span.event("op", step=type(step).__name__)
            else:
                run.txn.commit()
                run.outcome.committed_tid = run.txn.tid
                run.outcome.regs = dict(run.regs)
                run.done = True
                if run.span is not None:
                    run.span.end(outcome="committed")
                    run.span = None
            if metrics is not None and run.wait_started is not None:
                metrics.histogram(
                    "lock_wait_steps", "lock wait durations in logical steps"
                ).observe(
                    metrics.clock - run.wait_started,
                    scheduler=self.db.scheduler.name,
                )
            run.wait_started = None
            run.waiting_on = None
        except WouldBlock as block:
            run.waiting_on = block.holders
            if metrics is not None and run.wait_started is None:
                run.wait_started = metrics.clock
                metrics.counter(
                    "wouldblock_waits_total", "operations that entered a lock wait"
                ).inc(scheduler=self.db.scheduler.name)
            if run.span is not None:
                run.span.event(
                    "blocked",
                    resource=block.resource,
                    holders=sorted(block.holders),
                )
            self._resolve_deadlock(run, runs)
        except TransactionAborted as aborted:
            self._handle_abort(run, reason=aborted.reason)

    def _handle_abort(self, run: _Run, reason: str = "aborted") -> None:
        run.outcome.aborts += 1
        run.waiting_on = None
        run.wait_started = None  # the wait ended in an abort, not a grant
        if run.span is not None:
            run.span.end(outcome="aborted", reason=reason)
            run.span = None
        if run.outcome.aborts > self.max_retries:
            run.failed = True
            return
        if self.metrics is not None:
            # Reasons carry per-incident detail ("occ-validation against
            # T5"); label with the leading word to keep cardinality bounded.
            self.metrics.counter(
                "txn_restarts_total", "program restarts after aborts"
            ).inc(
                scheduler=self.db.scheduler.name,
                reason=reason.split(" ", 1)[0] if reason else "aborted",
            )
        self._start(run)

    # ------------------------------------------------------------------

    def _resolve_deadlock(self, blocked: _Run, runs: List["_Run"]) -> None:
        """Abort the *originally* youngest transaction on a waits-for cycle.

        Age is the tid of the program's first attempt, not the current one:
        a restarted victim keeps its seniority, so it cannot be selected
        forever (the naive abort-the-current-youngest rule starves restarts,
        which always re-enter with the largest tid — measured live on
        32-program fleets).
        """
        waits: Dict[int, frozenset[int]] = {}
        by_tid: Dict[int, _Run] = {}
        for r in runs:
            if r.active and r.txn is not None:
                by_tid[r.txn.tid] = r
                if r.waiting_on:
                    waits[r.txn.tid] = r.waiting_on
        cycle = _find_cycle(waits)
        if not cycle:
            return
        candidates = [by_tid[tid] for tid in cycle if tid in by_tid]
        if not candidates:
            return
        victim = max(candidates, key=lambda r: r.outcome.tids[0])
        if victim.txn is None:
            return
        self.deadlocks += 1
        if self.metrics is not None:
            sched = self.db.scheduler.name
            self.metrics.counter(
                "deadlock_victims_total", "transactions aborted to break deadlocks"
            ).inc(scheduler=sched)
            self.metrics.histogram(
                "waits_for_cycle_len", "waits-for cycle lengths at resolution"
            ).observe(len(cycle), scheduler=sched)
            self.metrics.counter(
                "txn_aborts_total", "transaction aborts by reason"
            ).inc(scheduler=sched, reason="deadlock")
        if self.tracer is not None:
            self.tracer.event(
                "deadlock",
                span=self._run_span,
                cycle=list(cycle),
                waits={str(t): sorted(h) for t, h in waits.items()},
                victim=victim.txn.tid,
                victim_program=victim.program.name,
            )
        victim.txn.abort()
        victim.waiting_on = None
        self._handle_abort(victim, reason="deadlock")


def _find_cycle(waits: Dict[int, frozenset[int]]) -> Optional[List[int]]:
    """Nodes of some cycle in the waits-for graph in cycle order, or
    ``None``.  The order lets observers report the actual waits-for loop
    (``cycle[i]`` waits on ``cycle[i+1]``, the last waits on the first)."""
    visiting: Set[int] = set()
    visited: Set[int] = set()
    stack: List[int] = []

    def dfs(node: int) -> Optional[List[int]]:
        visiting.add(node)
        stack.append(node)
        for nxt in waits.get(node, ()):
            if nxt in visiting:
                return stack[stack.index(nxt) :]
            if nxt not in visited:
                found = dfs(nxt)
                if found:
                    return found
        visiting.discard(node)
        visited.add(node)
        stack.pop()
        return None

    for start in list(waits):
        if start not in visited:
            found = dfs(start)
            if found:
                return found
    return None
