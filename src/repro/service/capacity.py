"""Capacity sweeps: an offered-load ladder, the saturation knee, SLO
verdicts and a per-object contention heatmap.

A single open-loop run answers "did the system keep up at rate r"; a
*capacity sweep* answers the operator's real question — "at what offered
load does it stop keeping up, and what breaks first".  :func:`run_capacity`
runs one seeded open-loop stress run per ladder rung (same seed per rung,
rising Poisson rate), each with a fresh :class:`~repro.observability.
windows.WindowedTelemetry` and tracer, then:

* finds the **saturation knee** — the last rung whose completion ratio
  (committed / offered) still clears :data:`KNEE_COMPLETION`; rungs above
  it are past saturation: queues grow, latency percentiles inflate, and
  admission control (when configured) sheds;
* evaluates every :class:`~repro.observability.windows.SLO` per rung with
  latch-on-violation semantics — the verdict table shows which objective
  broke first as load rises;
* builds a per-object **contention heatmap** from each rung's
  :func:`~repro.observability.traceview.contention_summary` — wait ticks
  per key per rung, so hot-key pile-ups are visible as a column of heat.

Everything is deterministic per ``seed``: equal arguments render a
byte-identical capacity report (the capacity tests pin this).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..observability.trace import Tracer
from ..observability.traceview import contention_summary
from ..observability.windows import SLO, WindowedTelemetry
from ..workloads.arrivals import PoissonArrivals
from .config import SchedulerConfig, StressConfig
from .stress import StressResult, run_stress

__all__ = [
    "CapacityResult",
    "CapacityRung",
    "KNEE_COMPLETION",
    "build_capacity_report",
    "find_knee",
    "run_capacity",
]

#: A rung "keeps up" while committed / offered stays at or above this.
KNEE_COMPLETION = 0.9


@dataclass
class CapacityRung:
    """One ladder rung: an open-loop run at one offered rate."""

    rate: float
    offered: int
    committed: int
    aborted: int
    shed: int
    ticks: int
    p50: Optional[int]
    p95: Optional[int]
    p99: Optional[int]
    max_queue_depth: int
    max_certification_lag: int
    #: Worst concurrently in-doubt 2PC transactions (cluster templates
    #: only; ``None`` on single-server sweeps).
    max_in_doubt: Optional[int] = None
    slos: List[Dict[str, Any]] = field(default_factory=list)
    contention: List[Dict[str, Any]] = field(default_factory=list)
    #: The underlying stress result (full artifacts, not serialised).
    stress: Optional[StressResult] = field(repr=False, default=None)

    @property
    def completion_ratio(self) -> float:
        """Committed / offered (1.0 when nothing was offered)."""
        return self.committed / self.offered if self.offered else 1.0

    @property
    def throughput_per_kilotick(self) -> float:
        """Commits per 1000 logical ticks."""
        return 1000.0 * self.committed / self.ticks if self.ticks else 0.0

    @property
    def slos_ok(self) -> bool:
        return all(s["ok"] for s in self.slos)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rate": self.rate,
            "offered": self.offered,
            "committed": self.committed,
            "aborted": self.aborted,
            "shed": self.shed,
            "ticks": self.ticks,
            "completion_ratio": round(self.completion_ratio, 4),
            "throughput_per_kilotick": round(self.throughput_per_kilotick, 3),
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "max_queue_depth": self.max_queue_depth,
            "max_certification_lag": self.max_certification_lag,
            **(
                {"max_in_doubt": self.max_in_doubt}
                if self.max_in_doubt is not None
                else {}
            ),
            "slos_ok": self.slos_ok,
            "slos": self.slos,
        }


@dataclass
class CapacityResult:
    """One sweep: the ladder, plus where it stopped keeping up."""

    seed: int
    horizon: int
    rungs: List[CapacityRung]
    config: Dict[str, Any] = field(default_factory=dict)

    @property
    def knee(self) -> Optional[CapacityRung]:
        index = find_knee(self.rungs)
        return self.rungs[index] if index is not None else None

    @property
    def all_slos_ok(self) -> bool:
        return all(r.slos_ok for r in self.rungs)

    def to_dict(self) -> Dict[str, Any]:
        knee = self.knee
        return {
            "seed": self.seed,
            "horizon": self.horizon,
            "config": self.config,
            "knee_rate": knee.rate if knee is not None else None,
            "ladder": [r.to_dict() for r in self.rungs],
        }


def find_knee(
    rungs: Sequence[CapacityRung], *, completion: float = KNEE_COMPLETION
) -> Optional[int]:
    """Index of the saturation knee: the last rung (ladder order) whose
    completion ratio is still ``>= completion``; ``None`` if even the
    first rung is overloaded."""
    knee = None
    for i, rung in enumerate(rungs):
        if rung.completion_ratio >= completion:
            knee = i
    return knee


def run_capacity(
    template: Optional[StressConfig] = None,
    *,
    rates: Sequence[float],
    horizon: int = 1500,
    seed: int = 0,
    slos: Tuple[SLO, ...] = (),
    window: int = 500,
    sample_every: int = 100,
    trace: bool = True,
) -> CapacityResult:
    """Run the offered-load ladder; see the module docstring.

    ``template`` names the run shape as a :class:`~repro.service.config.
    StressConfig` (scheduler, level, worker pool, key space and skew,
    network, retry, admission, cluster mode), exactly as
    :func:`~repro.service.stress.run_stress` takes it; the sweep replaces
    only the per-rung fields (``arrivals``, ``horizon``, ``seed``,
    ``windows``) on it.

    Each rung is an independent open-loop run at ``PoissonArrivals(rate)``
    over ``horizon`` ticks, with the same ``seed`` — so the sweep as a whole
    is deterministic per seed.  ``trace=False`` skips the per-rung tracer
    (no contention heatmap, much lighter).
    """
    if not rates:
        raise ValueError("rates must name at least one offered load")
    base = template or StressConfig()
    rungs: List[CapacityRung] = []
    for rate in rates:
        tracer = Tracer() if trace else None
        windows = WindowedTelemetry(
            window=window, sample_every=sample_every, slos=slos
        )
        result = run_stress(
            replace(
                base,
                seed=seed,
                arrivals=PoissonArrivals(rate=rate),
                horizon=horizon,
                windows=windows,
            ),
            tracer=tracer,
        )
        rungs.append(
            CapacityRung(
                rate=rate,
                offered=result.offered,
                committed=result.committed,
                aborted=result.client_aborts,
                shed=result.server_counters.get("shed", 0),
                ticks=result.ticks,
                p50=result.latency_percentile(50),
                p95=result.latency_percentile(95),
                p99=result.latency_percentile(99),
                max_queue_depth=windows.max_queue_depth,
                max_certification_lag=windows.max_certification_lag,
                max_in_doubt=(
                    windows.max_in_doubt if windows.in_doubt is not None else None
                ),
                slos=windows.slo_report(),
                contention=contention_summary(tracer.records)
                if tracer is not None
                else [],
                stress=result,
            )
        )
    config = {
        "scheduler": (
            base.scheduler.scheduler
            if isinstance(base.scheduler, SchedulerConfig)
            else base.scheduler
        ),
        "level": str(base.level) if base.level is not None else None,
        "clients": base.clients,
        "keys": base.keys,
        "ops_per_txn": base.ops_per_txn,
        "rates": list(rates),
        "horizon": horizon,
        "seed": seed,
        "zipf_theta": (
            base.hot_keys.theta if base.hot_keys is not None else None
        ),
        "window": window,
        "sample_every": sample_every,
    }
    if base.cluster is not None:
        config["cluster"] = {
            "shards": base.cluster.shards,
            "slots": base.cluster.slots,
        }
    if base.admission is not None:
        config["admission"] = {
            "max_active": base.admission.max_active,
            "retry_after": base.admission.retry_after,
            "certify_every": base.admission.certify_every,
            "on_uncertified": base.admission.on_uncertified,
        }
    return CapacityResult(
        seed=seed, horizon=horizon, rungs=rungs, config=config
    )


#: Rows of the contention heatmap: the hottest objects across all rungs.
HEATMAP_OBJECTS = 8


def build_capacity_report(result: CapacityResult) -> Dict[str, Any]:
    """The JSON-ready capacity section a :class:`~repro.observability.
    traceview.RunReport` embeds: the ladder, the knee, per-rung SLO
    verdicts and the object × rate contention heatmap (the
    :data:`HEATMAP_OBJECTS` hottest objects)."""
    knee = result.knee
    heat = _heatmap(result.rungs)
    return {
        "seed": result.seed,
        "horizon": result.horizon,
        "knee": (
            {
                "rate": knee.rate,
                "throughput_per_kilotick": round(
                    knee.throughput_per_kilotick, 3
                ),
                "completion_ratio": round(knee.completion_ratio, 4),
            }
            if knee is not None
            else None
        ),
        "ladder": [r.to_dict() for r in result.rungs],
        "heatmap": heat,
    }


def _heatmap(rungs: Sequence[CapacityRung]) -> Dict[str, Any]:
    """Object × rate matrix of contention wait ticks, hottest rows first."""
    totals: Dict[str, float] = {}
    per_rung: List[Dict[str, float]] = []
    for rung in rungs:
        waits = {
            row["obj"]: float(row["wait_ticks"]) for row in rung.contention
        }
        per_rung.append(waits)
        for obj, ticks in waits.items():
            totals[obj] = totals.get(obj, 0.0) + ticks
    objects = [
        obj
        for obj, _total in sorted(
            totals.items(), key=lambda kv: (-kv[1], kv[0])
        )[:HEATMAP_OBJECTS]
    ]
    return {
        "rates": [r.rate for r in rungs],
        "objects": objects,
        "wait_ticks": [
            [round(waits.get(obj, 0.0), 1) for waits in per_rung]
            for obj in objects
        ],
    }
