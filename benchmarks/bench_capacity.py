"""Capacity-path guard: open-loop load must not tax the service path.

Two pins plus a regenerated table:

* **telemetry-off floor** — the open-loop driver with no telemetry
  attached must stay at the same bounded multiple of direct ``Database``
  calls that ``bench_service_faults`` pins for the closed-loop path.  The
  arrival schedule, tick-waits and admission hooks are bookkeeping around
  the same engine work; if they push the stack past the service baseline,
  the open-loop machinery regressed.
* **telemetry overhead** — attaching a :class:`WindowedTelemetry` (full
  SLO set, sampling on) is observation only; it may cost a bounded
  fraction on top of the telemetry-off run, never a multiple.
* **capacity ladder table** — one tiny sweep, the regenerated table
  recording per-rung completion and shedding (and implicitly that the
  sweep still finds a knee).
"""

from __future__ import annotations

import time

import pytest

from repro.engine import connect
from repro.observability import SLO, WindowedTelemetry
from repro.service import AdmissionConfig, StressConfig, run_capacity, run_stress
from repro.workloads import PoissonArrivals, ZipfianKeys

_KEYS = 8
_RATE = 0.1
_HORIZON = 2000  # ~200 offered transactions at _RATE


def _run_direct(txns: int) -> float:
    best = float("inf")
    for _round in range(3):
        db = connect("locking", initial={f"k{i}": 0 for i in range(_KEYS)})
        start = time.perf_counter()
        for i in range(txns):
            t = db.begin()
            key = f"k{i % _KEYS}"
            t.write(key, t.read(key, for_update=True) + 1)
            t.commit()
        best = min(best, time.perf_counter() - start)
    return best


def _open_loop_config(windows=None) -> StressConfig:
    return StressConfig(
        scheduler="locking",
        clients=4,
        keys=_KEYS,
        ops_per_txn=1,
        seed=11,
        arrivals=PoissonArrivals(rate=_RATE),
        horizon=_HORIZON,
        admission=AdmissionConfig(max_active=8, retry_after=8),
        windows=windows,
    )


def _run_open_loop(windows_factory=None) -> tuple:
    best = float("inf")
    committed = 0
    for _round in range(3):
        windows = windows_factory() if windows_factory is not None else None
        start = time.perf_counter()
        result = run_stress(_open_loop_config(windows=windows))
        best = min(best, time.perf_counter() - start)
        committed = result.committed
    return best, committed


def _full_telemetry() -> WindowedTelemetry:
    return WindowedTelemetry(
        window=500,
        sample_every=100,
        slos=(
            SLO(name="p99", kind="latency", threshold=500, verb="txn"),
            SLO(name="certified", kind="certified_fraction", threshold=0.9),
            SLO(name="queue", kind="queue_depth", threshold=50),
        ),
    )


@pytest.mark.benchguard
def test_open_loop_telemetry_off_at_service_baseline():
    service, committed = _run_open_loop()
    assert committed > 0
    direct = _run_direct(committed)
    # Same ceiling bench_service_faults pins for the closed-loop path:
    # one order of magnitude over direct engine calls, floored for timer
    # noise.  The open-loop extras (schedule claims, tick-waits, admission
    # checks) must disappear into that budget.
    assert service < max(direct * 12, direct + 0.05), (
        f"open-loop telemetry-off run {service * 1000:.1f} ms vs direct "
        f"{direct * 1000:.1f} ms for {committed} txns"
    )


@pytest.mark.benchguard
def test_windowed_telemetry_overhead_bounded():
    bare, _ = _run_open_loop()
    telemetry, _ = _run_open_loop(_full_telemetry)
    # Windowed counters + SLO evaluation are a fraction of the run, not a
    # multiple of it (absolute floor keeps sub-ms noise from tripping it).
    assert telemetry < max(bare * 1.5, bare + 0.05), (
        f"telemetry-on {telemetry * 1000:.1f} ms vs off {bare * 1000:.1f} ms"
    )


def test_capacity_ladder_table(record_table):
    sweep = run_capacity(
        StressConfig(
            clients=4,
            keys=6,
            admission=AdmissionConfig(max_active=3, retry_after=8),
            hot_keys=ZipfianKeys(6, theta=0.9),
        ),
        rates=[0.03, 0.08, 0.16],
        horizon=500,
        seed=11,
        slos=(SLO(name="p99", kind="latency", threshold=400, verb="txn"),),
        window=200,
        sample_every=50,
        trace=False,
    )
    rows = [
        f"{'rate':>6} {'offered':>7} {'committed':>9} {'completion':>10} "
        f"{'shed':>5} {'max queue':>9} {'p99':>6}"
    ]
    for rung in sweep.rungs:
        rows.append(
            f"{rung.rate:6g} {rung.offered:7d} {rung.committed:9d} "
            f"{rung.completion_ratio:10.0%} {rung.shed:5d} "
            f"{rung.max_queue_depth:9d} "
            f"{rung.p99 if rung.p99 is not None else '-':>6}"
        )
    knee = sweep.knee
    rows.append(
        "knee: "
        + (f"rate={knee.rate:g}/tick" if knee is not None else "none")
    )
    assert sum(r.committed for r in sweep.rungs) > 0
    record_table("capacity_ladder", "\n".join(rows))
