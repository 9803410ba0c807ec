"""Structural guard for loading a history: ``History(events, order)`` is linear.

Counts, not timings: the number of calls the constructor makes (Python
functions and C builtins, as ``sys.setprofile`` reports them) is exact per
input, so nothing here can flake.  ``test_validation_differential`` pins
*what* the constructor decides; this module pins that the work to decide it
grows with the events and not with their square.

The inputs are the ladder's checker history at two sizes.  Its objects scale
with its transactions (``n_objects = n_txns // 10``), which is what made the
old version-order check — every object asked about every committed
transaction — visible: 10.1x the calls for 4x the events.  A parsed history
of many setup versions does the same for ``History.value_of``, which used to
rescan every read per setup version (from predicate matching and
``committed_state()``).
"""

from __future__ import annotations

import functools
import sys

import pytest

from repro.core.history import History
from repro.core.objects import Version
from repro.core.parser import parse_history
from repro.workloads import synthetic_history

SMALL, LARGE = 1_000, 4_000  # transactions; 4x the events
#: Linear growth reads 4.0x; anything with a square in it reads 9x or more.
BOUND = 5.0


@functools.lru_cache(maxsize=None)
def _ladder_history(n_txns: int):
    history = synthetic_history(
        n_txns=n_txns,
        n_objects=n_txns // 10,
        ops_per_txn=5,
        stale_read_fraction=0.5,
        write_fraction=0.6,
        seed=1,
        validate=False,
    )
    order = {obj: chain[1:] for obj, chain in history.version_order.items()}
    return history.events, order


def _inputs(n_txns: int, *, explicit_order: bool, loader: bool):
    events, order = _ladder_history(n_txns)
    if not loader:
        # Without T0's events every version it wrote is a setup version:
        # the order builder has to find them among the reads.
        events = tuple(ev for ev in events if ev.tid != 0)
        order = {
            obj: tuple(v for v in chain if v.tid != 0) for obj, chain in order.items()
        }
    return events, (order if explicit_order else None)


def _calls(events, order) -> int:
    """Calls made while constructing and validating the history."""
    count = 0

    def profile(_frame, event, _arg):
        nonlocal count
        if event == "call" or event == "c_call":
            count += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        History(events, order)
    finally:
        sys.setprofile(previous)
    return count


def _setup_reads(n_objects: int):
    """A parsed history of ``n_objects`` setup versions (T0 has no events),
    each read three times: without a value, with its index, with -1."""
    reads = " ".join(
        f"r1({{o{k}}}0) r2({{o{k}}}0, {k}) r3({{o{k}}}0, -1)" for k in range(n_objects)
    )
    return parse_history(f"{reads} c1 c2 c3")


def _value_calls(history) -> int:
    """Calls made asking every setup version's value and the final state."""
    count = 0

    def profile(_frame, event, _arg):
        nonlocal count
        if event == "call" or event == "c_call":
            count += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for version in history.setup_versions:
            history.value_of(version)
        history.committed_state()
    finally:
        sys.setprofile(previous)
    return count


def test_setup_values_are_the_first_value_read():
    history = _setup_reads(50)
    assert len(history.setup_versions) == 50
    for version in history.setup_versions:
        assert history.value_of(version) == int(version.obj[1:])
    assert history.committed_state() == {f"o{k}": k for k in range(50)}
    assert history.value_of(Version("o7", 9)) is None  # never read or written


def test_setup_value_calls_grow_with_the_reads_not_their_square():
    small = _value_calls(_setup_reads(SMALL // 4))
    large = _value_calls(_setup_reads(SMALL))
    assert large <= BOUND * small, (
        f"4x the setup versions took {large / small:.2f}x the calls "
        f"({small} -> {large})"
    )


@pytest.mark.parametrize("loader", [True, False], ids=["loader", "setup-versions"])
@pytest.mark.parametrize(
    "explicit_order", [True, False], ids=["explicit-order", "derived-order"]
)
def test_calls_grow_with_the_events_not_their_square(explicit_order, loader):
    small = _calls(*_inputs(SMALL, explicit_order=explicit_order, loader=loader))
    large = _calls(*_inputs(LARGE, explicit_order=explicit_order, loader=loader))
    assert large <= BOUND * small, (
        f"{LARGE // SMALL}x the transactions took {large / small:.2f}x the "
        f"calls ({small} -> {large})"
    )
