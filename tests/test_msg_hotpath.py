"""Structural guard for the mixed serialization graph: ``MSG(h)`` is linear.

Counts, not timings, in the style of ``test_checker_hotpath.py``: the calls
``MSG(h)`` makes (Python functions and C builtins, as ``sys.setprofile``
reports them) on the ladder's checker history at two sizes.  The MSG asks
every committed transaction for its level (Section 5.5); when
``History.level_of`` scanned every event per question, 4x the transactions
cost about 16x the calls.
"""

from __future__ import annotations

import sys

from repro.core.msg import MSG
from repro.workloads import synthetic_history

SMALL, LARGE = 500, 2_000  # transactions; 4x the events
#: Linear growth reads 4.0x; anything with a square in it reads 9x or more.
BOUND = 5.0


def _ladder_history(n_txns: int):
    """A fresh history each time, so every index is built inside the count."""
    return synthetic_history(
        n_txns=n_txns,
        n_objects=n_txns // 10,
        ops_per_txn=5,
        stale_read_fraction=0.5,
        write_fraction=0.6,
        seed=1,
        validate=False,
    )


def _calls(history) -> int:
    count = 0

    def profile(_frame, event, _arg):
        nonlocal count
        if event == "call" or event == "c_call":
            count += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        MSG(history)
    finally:
        sys.setprofile(previous)
    return count


def test_msg_calls_grow_with_the_transactions():
    small = _calls(_ladder_history(SMALL))
    large = _calls(_ladder_history(LARGE))
    assert large <= BOUND * small, (
        f"{LARGE // SMALL}x the transactions took {large / small:.2f}x the "
        f"calls ({small} -> {large})"
    )
