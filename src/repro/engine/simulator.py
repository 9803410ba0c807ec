"""Deterministic interleaved execution of transaction programs.

The simulator runs a set of :class:`~repro.engine.programs.Program` instances
against one :class:`~repro.engine.database.Database`, interleaving their
steps under a seeded RNG — same seed, same history, bit for bit.  It models
the concurrency a real system gets from threads without any actual threads:

* each scheduling round picks a random unfinished program and runs its next
  step;
* a step that raises :class:`~repro.exceptions.WouldBlock` leaves the
  program *waiting* on the lock holders, but still a scheduling candidate:
  whenever a later round picks it, the blocked step is retried against the
  lock tables (nothing is parked until a holder finishes — the rounds a
  waiter burns are part of the schedule, and of the seed's history);
* a retry first asks the lock table whether the waiter's refusal still
  stands (:meth:`~repro.engine.locks.LockManager._refusal_stands`: nothing
  the refusal was decided on has changed since).  If it does, the round
  loop does what a retry that blocks again on the same holders does,
  without running the step: nothing while the waits-for graph is known
  acyclic, the deadlock search otherwise.  Only steps that do nothing
  before their lock request are skipped so (``Read``, a ``Select``'s item
  read, ``Delete``, a ``Write`` of a constant; see
  :mod:`repro.engine.programs`), only while
  the wait is recorded and the transaction has not ended (a wounded waiter
  re-runs its step and raises), and only without metrics or a tracer on
  the scheduler, where every retry still counts and emits its block;
* deadlocks (cycles in the waits-for graph assembled from the ``WouldBlock``
  holders) abort the youngest transaction of the cycle, which restarts with
  a fresh tid if retries remain — so histories genuinely contain the abort
  and the rerun, as a real system's would;
* scheduler-initiated aborts (OCC validation failures, SI first-committer
  losses) likewise restart the program up to ``max_retries`` times.

``Simulator.run`` returns a :class:`SimulationResult` with the history, the
per-program outcomes, and counters the benchmarks report.

The loop is event-driven: the candidate list and the count of waiting
programs are updated where a program finishes, blocks or resumes, and the
deadlock search is incremental (:mod:`repro.engine.waits`).  Here the wait
edges are the runs' ``waiting_on``; they vanish when a waiter resumes,
commits, or restarts under a fresh tid (edges into its old tid dead-end),
and the everyone-blocked branch drops every edge, each re-added by a
blocked step that searches.  Unchanged holders mean no search at all, new
holders a walk from the blocked tid alone, and only a walk that comes back
— or a flag lowered by a victim — pays for the full rebuild, in index
order, which alone chooses cycle and victim.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence

from ..core.history import History
from ..exceptions import TransactionAborted, WouldBlock
from .database import Database, TransactionHandle
from .programs import Program, Step
from .waits import WaitsFor

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
        #: Registry clock when the current lock wait began (observability).
        self.wait_started: Optional[int] = None
        #: Open tracer span for the current attempt (observability).
        self.span: Optional[object] = None

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
        #: The lock table a waiter's retry asks first (see ``_step``).  An
        #: instrumented scheduler re-runs every retry, so that each block
        #: still counts and emits its records.
        sched = self.db.scheduler
        self._locks = None
        if sched.metrics is None and sched.tracer is None:
            self._locks = getattr(sched, "locks", None)
        #: Unfinished programs in index order: what ``rng.choice`` draws from.
        candidates = self._candidates = list(runs)
        #: How many of them are waiting (``waiting_on is not None``).
        self._waiting = 0
        #: Live tid -> its unfinished program (the nodes of the waits-for graph).
        self._by_tid: Dict[int, _Run] = {}
        #: The waits-for search (:mod:`repro.engine.waits`).
        self._waits = WaitsFor()
        for run in runs:
            self._start(run)
        steps = 0
        steps_counter = None
        if metrics is not None:
            steps_counter = metrics.counter(
                "sim_steps_total", "scheduling rounds executed"
            ).labels(scheduler=sched_name)
        # Each round draws ``rng.choice(candidates)``, inline: the bits
        # ``Random._randbelow`` takes, redrawn while out of range.
        getrandbits = self.rng.getrandbits
        locks, waits_for = self._locks, self._waits
        while steps < self.max_steps and candidates:
            n = len(candidates)
            k = n.bit_length()
            r = getrandbits(k)
            while r >= n:
                r = getrandbits(k)
            run = candidates[r]
            steps += 1
            if steps_counter is not None:
                metrics.tick()
                steps_counter.inc()
            if (
                run.waiting_on is not None
                and locks is not None
                and run.queue[0]._lock_first  # a waiter's head is its blocked step
                and locks._refusal_stands(run.txn.tid)
            ):
                # The retry would block again on the same holders: do what
                # the ``except WouldBlock`` branch does then, without the
                # step — nothing, while the graph is known acyclic.
                if not waits_for.acyclic:
                    self._resolve_deadlock(run, run.waiting_on)
                continue
            self._step(run)
            if self._waiting == len(candidates):
                # Everyone is blocked but no waits-for cycle was found — the
                # blockers must be committed/aborted already; clear waits and
                # retry (lock tables are re-consulted on the next attempt).
                for r in candidates:
                    r.waiting_on = None
                self._waiting = 0
        # Step budget exhausted: abort whatever is still running so the
        # history is complete.
        for run in candidates:
            run.txn.abort()
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
        self._by_tid[run.txn.tid] = run
        if self.tracer is not None:
            run.span = self.tracer.span(
                "txn",
                parent=self._run_span,
                stack=False,
                program=run.program.name,
                tid=run.txn.tid,
                attempt=len(run.outcome.tids),
            )

    def _retire(self, run: _Run, *, finished: bool) -> None:
        """``run``'s transaction is over: drop its node from the waits-for
        graph (edges into it dead-end from here on) and, when the program
        will not start another, drop the program from the candidates."""
        del self._by_tid[run.txn.tid]
        self._stop_waiting(run)
        if finished:
            self._candidates.remove(run)

    def _stop_waiting(self, run: _Run) -> None:
        if run.waiting_on is not None:
            run.waiting_on = None
            self._waiting -= 1

    def _step(self, run: _Run) -> None:
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
                self._retire(run, finished=True)
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
            self._stop_waiting(run)
        except WouldBlock as block:
            waited_on = run.waiting_on
            if waited_on is None:
                self._waiting += 1
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
            self._resolve_deadlock(run, waited_on)
        except TransactionAborted as aborted:
            self._handle_abort(run, reason=aborted.reason)

    def _handle_abort(self, run: _Run, reason: str = "aborted") -> None:
        run.outcome.aborts += 1
        run.wait_started = None  # the wait ended in an abort, not a grant
        if run.span is not None:
            run.span.end(outcome="aborted", reason=reason)
            run.span = None
        gives_up = run.outcome.aborts > self.max_retries
        self._retire(run, finished=gives_up)
        if gives_up:
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

    def _waits_on(self, tid: int) -> Iterable[int]:
        """The holders ``tid`` waits on; none once its program has finished
        or restarted under a fresh tid."""
        run = self._by_tid.get(tid)
        return (run.waiting_on or ()) if run is not None else ()

    def _resolve_deadlock(
        self, blocked: _Run, waited_on: Optional[frozenset[int]]
    ) -> None:
        """Abort the *originally* youngest transaction on a waits-for cycle
        (:mod:`repro.engine.waits` states the search and the victim rule;
        the seniority key here is the tid of the program's first attempt).

        While the graph is known acyclic a cycle must pass through
        ``blocked``: there is none if it still waits on the holders it had
        before this step (``waited_on``) — asked first, since nearly every
        blocked step ends here — or cannot reach itself.  The graph is
        rebuilt, in index order, and searched in full only otherwise, or
        after a victim.
        """
        waits_for = self._waits
        if (
            waits_for.acyclic and waited_on == blocked.waiting_on
        ) or waits_for.settled(blocked.txn.tid, self._waits_on):
            return
        # Index order, as ``find_cycle`` reports the first cycle it meets.
        waits: Dict[int, frozenset[int]] = {
            r.txn.tid: r.waiting_on for r in self._candidates if r.waiting_on
        }
        by_tid = self._by_tid
        found = waits_for.search(waits, lambda tid: by_tid[tid].outcome.tids[0])
        if found is None:
            return
        cycle, tid = found
        victim = by_tid[tid]
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
        self._handle_abort(victim, reason="deadlock")

