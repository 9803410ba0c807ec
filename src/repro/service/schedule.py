"""The deterministic fault schedule a :class:`~repro.service.server.Server`
or a :class:`~repro.service.cluster.Cluster` runs.

**Triggers** are one-shot ``(condition, action)`` pairs over deterministic
counters (commits, prepares sent, entries applied), polled in creation
order — so the trigger list *is* the list of a run's fault points.  **Timed
actions** (a restart, a heal) wait under a key ``(kind, ...)`` for their
tick; arming a key again replaces its entry.  The owner's ``tick()`` fixes
the order of the two: a server fires and then runs what is due (a zero-delay
restart lands in the same step), a cluster runs what is due first.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["FaultSchedule", "Trigger"]


class Trigger:
    """A one-shot ``(condition, action)``, armed while it has a condition."""

    __slots__ = ("condition", "action")

    def __init__(self, condition=None, action=None) -> None:
        self.arm(condition, action)

    def arm(self, condition, action) -> None:
        self.condition: Optional[Callable[[], bool]] = condition
        self.action = action

    def poll(self) -> None:
        """Fire if armed and due.  (An owner polls a trigger itself where
        the fault must land inside a delivery: a backup crashing
        mid-batch.)"""
        condition = self.condition
        if condition is not None and condition():
            self.condition = None
            self.action()


class FaultSchedule:
    """One owner's triggers and timed actions (see the module docstring)."""

    def __init__(self) -> None:
        #: Every trigger of the run, fired or not, in polling order.
        self.triggers: List[Trigger] = []
        self._timed: Dict[tuple, Tuple[int, Callable[[], Any]]] = {}

    def trigger(self, condition=None, action=None) -> Trigger:
        """A new trigger, polled after every earlier one; without a
        condition it holds its place until :meth:`Trigger.arm`."""
        self.triggers.append(Trigger(condition, action))
        return self.triggers[-1]

    def fire(self) -> None:
        for trigger in self.triggers:
            if trigger.condition is not None:  # fired or unarmed: no call
                trigger.poll()

    def at(self, key: tuple, tick: int, action: Callable[[], Any]) -> None:
        self._timed[key] = (tick, action)

    def run_due(self, now: int) -> None:
        """Run and forget the timed actions due by ``now``: kind by kind,
        each kind in the order it was armed."""
        timed = self._timed
        if timed:  # one call per driver step: nothing pending, nothing built
            due = [key for key, (tick, _) in timed.items() if tick <= now]
            for key in sorted(due, key=itemgetter(0)):
                timed.pop(key)[1]()

    def settle(self) -> None:
        """End of run: whatever still waits out its delay happens now, in
        key order.  (Both orders are the ones the hand-written schedules
        had: a trace replays byte for byte.)"""
        for key in sorted(self._timed):
            self._timed.pop(key)[1]()

    @property
    def next_wake(self) -> Optional[int]:
        """The earliest tick a timed action is due at (``None`` without
        one): where an idle driver may jump to."""
        timed = self._timed
        return min(tick for tick, _ in timed.values()) if timed else None
