"""A mixing-correct optimistic scheduler (paper Section 5.5).

The paper: "an optimistic implementation would attempt to fit each
committing transaction into the serial order based on its own requirements
(for its level) and its obligations to transactions running at higher
levels, and would abort the transaction if this is not possible.  An
optimistic implementation that is mixing-correct is presented in [1]."

This scheduler realizes that design on top of the backward-validation OCC:

* every transaction reads the latest *committed* state and installs its
  writes in commit order — so read- and write-dependency edges always point
  from earlier committer to later committer, and no G1 phenomenon can occur
  for any level;
* validation at commit is scaled to the committer's own level:

  - **PL-1 / PL-2**: no validation — their anti-dependencies are not
    relevant at their level (and not obligatory: an rw edge's relevance
    belongs to its *source*, the reader, which is the committer itself);
  - **PL-2.99**: item read-set validation against concurrently committed
    writers (its item-anti edges must point forward);
  - **PL-3**: item and predicate validation (all its anti edges forward).

Every emitted history is mixing-correct by construction: MSG read/write
edges follow commit order, and the only retained anti edges (sources at
PL-2.99/PL-3) are forced forward by validation.  The property tests check
exactly that over random mixed workloads.
"""

from __future__ import annotations

from ..core.levels import IsolationLevel
from ..core.msg import ansi_projection
from .optimistic import OptimisticScheduler
from .transaction import Transaction

__all__ = ["MixedOptimisticScheduler"]


class MixedOptimisticScheduler(OptimisticScheduler):
    """Backward-validation OCC with per-level validation (Section 5.5)."""

    name = "mixed-optimistic"

    def __init__(self, default_level: IsolationLevel = IsolationLevel.PL_3):
        super().__init__()
        self.default_level = default_level

    def _level_of(self, txn: Transaction) -> IsolationLevel:
        level = txn.level
        if level is None:
            return ansi_projection(self.default_level)
        if not isinstance(level, IsolationLevel):
            level = IsolationLevel.from_string(str(level))
        return ansi_projection(level)

    def _validate(self, txn: Transaction, *, predicates: bool = True) -> None:
        level = self._level_of(txn)
        if not level.implies(IsolationLevel.PL_2_99):
            return  # PL-1 / PL-2: reads-of-committed + commit-order installs suffice
        super()._validate(txn, predicates=level.implies(IsolationLevel.PL_3))
