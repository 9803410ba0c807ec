"""Permissiveness analysis: the Section 3 experiment, quantified.

The paper argues that the preventative definitions are "overly restrictive
since they rule out optimistic and multi-version implementations": every
history such implementations emit is *legal* at the requested PL level, yet
the P-phenomena reject many of them.  This module measures that gap.

For a scheduler and workload, :func:`compare` runs ``n_seeds`` simulations
and classifies each emitted history twice — once with the generalized
G-phenomena and once with the preventative P-phenomena — at a target ANSI
level.  The output rates make the paper's qualitative claim quantitative:

* locking schedulers: both checkers accept everything (locking is exactly
  what the P-phenomena describe);
* OCC / SI / MV-RC: the generalized checker accepts everything the scheme
  guarantees, while the preventative checker rejects most runs (any
  concurrent conflicting interleaving trips P0–P2).

The theory also guarantees the inclusion ``preventative-accepted ⊆
generalized-accepted`` at every level; :func:`compare` asserts it on every
run (a live soundness check for both implementations).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence

from ..baseline.preventative import PreventativeAnalysis, preventative_satisfies
from ..core.history import History
from ..core.levels import IsolationLevel, satisfies
from ..core.phenomena import Analysis
from ..engine.database import Database
from ..engine.programs import Program
from ..engine.scheduler import Scheduler
from ..engine.simulator import Simulator

__all__ = ["PermissivenessResult", "compare"]


@dataclass
class PermissivenessResult:
    """Acceptance statistics for one scheduler at one level."""

    scheduler: str
    level: IsolationLevel
    runs: int
    generalized_accepted: int
    preventative_accepted: int
    #: runs accepted by the generalized definitions but rejected by the
    #: preventative ones — the histories the paper says ANSI must not lose.
    gap: int
    example_gap_history: Optional[History] = None

    @property
    def generalized_rate(self) -> float:
        return self.generalized_accepted / self.runs if self.runs else 0.0

    @property
    def preventative_rate(self) -> float:
        return self.preventative_accepted / self.runs if self.runs else 0.0

    def describe(self) -> str:
        return (
            f"{self.scheduler:24} @ {self.level}: generalized "
            f"{self.generalized_accepted}/{self.runs} "
            f"({self.generalized_rate:.0%}), preventative "
            f"{self.preventative_accepted}/{self.runs} "
            f"({self.preventative_rate:.0%}), gap {self.gap}"
        )


def compare(
    scheduler_factory: Callable[[], Scheduler],
    programs_factory: Callable[[int], Sequence[Program]],
    initial_state: Dict[str, object],
    *,
    level: IsolationLevel = IsolationLevel.PL_3,
    n_seeds: int = 20,
    max_retries: int = 20,
) -> PermissivenessResult:
    """Run ``n_seeds`` simulations and compare the two checkers at ``level``.

    ``programs_factory(seed)`` builds the programs for one run, so workloads
    vary per seed.  Raises ``AssertionError`` if some run is
    preventative-accepted but generalized-rejected — that would falsify the
    containment the paper proves.
    """
    gen_ok = 0
    prev_ok = 0
    gap = 0
    example: Optional[History] = None
    scheduler_name = scheduler_factory().name
    for seed in range(n_seeds):
        db = Database(scheduler_factory())
        db.load(initial_state)
        Simulator(
            db, programs_factory(seed), seed=seed, max_retries=max_retries
        ).run()
        history = db.history()
        g = satisfies(history, level, analysis=Analysis(history)).ok
        p = preventative_satisfies(
            history, level, analysis=PreventativeAnalysis(history)
        )
        if p and not g:
            raise AssertionError(
                "containment violated: preventative accepted a history the "
                f"generalized definitions reject (seed {seed})\n{history}"
            )
        gen_ok += g
        prev_ok += p
        if g and not p:
            gap += 1
            if example is None:
                example = history
    return PermissivenessResult(
        scheduler_name, level, n_seeds, gen_ok, prev_ok, gap, example
    )
