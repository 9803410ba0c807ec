"""Windowed telemetry on the logical clock: sliding stats, gauges, SLOs.

The snapshot-at-end :class:`~repro.observability.metrics.MetricsRegistry`
answers "what happened over the whole run"; a capacity operator needs
"what is happening *right now*" — rolling p99s, queue depths, and SLOs
that trip the moment a window goes bad.  This module provides that layer,
entirely on the **logical tick clock** so every number is deterministic
per seed:

* :class:`WindowedCounter` — event counts over a sliding window
  (arrivals, commits, sheds), with :meth:`~WindowedCounter.rate`;
* :class:`WindowedValues` — value samples over a sliding window with
  rolling :meth:`~WindowedValues.percentile` (p50/p95/p99 per verb);
* :class:`SLO` + :class:`SLOStatus` — declarative objectives
  (``p99 commit latency <= X ticks``, ``certified fraction >= Y``,
  ``queue depth <= Z``) with **latch-on-violation** semantics, like the
  phenomenon monitors: once a window violates the objective the status
  stays violated, recording the first violation tick and the worst value;
* :class:`WindowedTelemetry` — the aggregate a driver feeds: per-verb
  latency windows, commit certification outcomes, shed/arrival counters,
  queue-depth and certification-lag gauges, and a periodic
  :meth:`~WindowedTelemetry.sample` timeline for plots and reports.

Everything here is observational: attaching a :class:`WindowedTelemetry`
to a stress run must not change a single byte of the run's history,
journals or traces (pinned by the capacity tests).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Tuple

from .traceview import percentile, stats_row

__all__ = [
    "WindowedCounter",
    "WindowedValues",
    "SLO",
    "SLOStatus",
    "WindowedTelemetry",
]


class WindowedCounter:
    """Event counts over the trailing ``window`` ticks."""

    __slots__ = ("window", "_events", "_window_total", "total")

    def __init__(self, window: int) -> None:
        if window <= 0:
            raise ValueError("window must be >= 1")
        self.window = window
        self._events: Deque[Tuple[int, int]] = deque()
        self._window_total = 0
        #: Lifetime count (never pruned).
        self.total = 0

    def _prune(self, now: int) -> None:
        horizon = now - self.window
        events = self._events
        while events and events[0][0] <= horizon:
            self._window_total -= events.popleft()[1]

    def inc(self, now: int, amount: int = 1) -> None:
        self._events.append((now, amount))
        self._window_total += amount
        self.total += amount
        self._prune(now)

    def count(self, now: int) -> int:
        """Events inside ``(now - window, now]``."""
        self._prune(now)
        return self._window_total

    def rate(self, now: int) -> float:
        """Events per tick over the trailing window."""
        return self.count(now) / self.window


class WindowedValues:
    """Value samples over the trailing ``window`` ticks, with rolling
    percentiles (used for per-verb latency windows)."""

    __slots__ = ("window", "_samples", "total_count", "total_sum")

    def __init__(self, window: int) -> None:
        if window <= 0:
            raise ValueError("window must be >= 1")
        self.window = window
        self._samples: Deque[Tuple[int, float]] = deque()
        self.total_count = 0
        self.total_sum = 0.0

    def _prune(self, now: int) -> None:
        horizon = now - self.window
        samples = self._samples
        while samples and samples[0][0] <= horizon:
            samples.popleft()

    def observe(self, now: int, value: float) -> None:
        self._samples.append((now, value))
        self.total_count += 1
        self.total_sum += value
        self._prune(now)

    def count(self, now: int) -> int:
        self._prune(now)
        return len(self._samples)

    def values(self, now: int) -> List[float]:
        self._prune(now)
        return [v for _t, v in self._samples]

    def percentile(self, q: float, now: int) -> Optional[float]:
        """Rolling nearest-rank percentile; ``None`` with an empty window."""
        values = self.values(now)
        return percentile(values, q) if values else None

    def stats(self, now: int) -> Dict[str, float]:
        """``{count, p50, p95, p99, mean, max}`` over the window (empty
        window gives ``count=0`` only)."""
        values = sorted(self.values(now))
        return stats_row(values, 50, 95, 99) if values else {"count": 0}


#: SLO kinds and their comparison direction.
_SLO_KINDS = {
    "latency": "<=",  # rolling percentile of a verb's latency window
    "certified_fraction": ">=",  # certified commits / commits in window
    "queue_depth": "<=",  # current backlog gauge
    "certification_lag": "<=",  # current certification-lag gauge
    "in_doubt": "<=",  # cross-shard transactions mid-2PC (cluster runs)
}


@dataclass(frozen=True, kw_only=True)
class SLO:
    """One declarative objective over the windowed telemetry.

    ``kind`` selects the measured quantity:

    * ``"latency"`` — the rolling ``q``-th percentile of ``verb`` latency
      must stay ``<= threshold`` ticks;
    * ``"certified_fraction"`` — certified / committed in the window must
      stay ``>= threshold`` (evaluated only when the window saw commits);
    * ``"queue_depth"`` / ``"certification_lag"`` — the gauge must stay
      ``<= threshold``.
    """

    name: str
    kind: str
    threshold: float
    verb: str = "txn"
    q: float = 99.0

    def __post_init__(self) -> None:
        if self.kind not in _SLO_KINDS:
            raise ValueError(
                f"unknown SLO kind {self.kind!r}; one of {sorted(_SLO_KINDS)}"
            )
        if not (0 <= self.q <= 100):
            raise ValueError("q must be in [0, 100]")

    def describe(self) -> str:
        op = _SLO_KINDS[self.kind]
        if self.kind == "latency":
            measured = f"p{self.q:g} {self.verb} latency"
        else:
            measured = self.kind.replace("_", " ")
        return f"{measured} {op} {self.threshold:g}"


class SLOStatus:
    """Latch-on-violation evaluation state for one :class:`SLO`."""

    __slots__ = ("slo", "violated_at", "worst", "last", "evaluations")

    def __init__(self, slo: SLO) -> None:
        self.slo = slo
        #: Tick of the first violating sample (None while the SLO holds).
        self.violated_at: Optional[int] = None
        #: Worst value observed across all evaluations.
        self.worst: Optional[float] = None
        #: Most recent measured value.
        self.last: Optional[float] = None
        self.evaluations = 0

    @property
    def ok(self) -> bool:
        return self.violated_at is None

    def observe(self, value: Optional[float], now: int) -> None:
        if value is None:  # empty window: nothing to judge
            return
        self.evaluations += 1
        self.last = value
        direction = _SLO_KINDS[self.slo.kind]
        if direction == "<=":
            violated = value > self.slo.threshold
            if self.worst is None or value > self.worst:
                self.worst = value
        else:
            violated = value < self.slo.threshold
            if self.worst is None or value < self.worst:
                self.worst = value
        if violated and self.violated_at is None:
            self.violated_at = now

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.slo.name,
            "objective": self.slo.describe(),
            "ok": self.ok,
            "violated_at": self.violated_at,
            "worst": self.worst,
            "last": self.last,
            "evaluations": self.evaluations,
        }


class WindowedTelemetry:
    """The live telemetry a stress/capacity driver feeds.

    ``window`` is the sliding-window width and ``sample_every`` the
    timeline cadence, both in logical ticks.  The driver calls the
    ``observe_*`` hooks as things happen and :meth:`maybe_sample` from its
    main loop; SLOs are evaluated at sample points against the current
    windows, with latch-on-violation semantics.
    """

    def __init__(
        self,
        *,
        window: int = 500,
        sample_every: int = 100,
        slos: Tuple[SLO, ...] = (),
    ) -> None:
        if sample_every <= 0:
            raise ValueError("sample_every must be >= 1")
        self.window = window
        self.sample_every = sample_every
        self.arrivals = WindowedCounter(window)
        self.commits = WindowedCounter(window)
        self.certified = WindowedCounter(window)
        self.aborts = WindowedCounter(window)
        self.sheds = WindowedCounter(window)
        #: Per-verb latency windows (client-observed ticks); the whole
        #: transaction rides under verb ``"txn"``.
        self.latencies: Dict[str, WindowedValues] = {}
        self.queue_depth = 0
        self.max_queue_depth = 0
        self.certification_lag = 0
        self.max_certification_lag = 0
        #: Cluster gauges (fed only by cluster runs; ``None`` keeps every
        #: single-server artifact — timeline rows, snapshots — unchanged).
        self.in_doubt: Optional[int] = None
        self.max_in_doubt = 0
        self.shard_certification_lag: Optional[Dict[int, int]] = None
        self.max_shard_certification_lag: Dict[int, int] = {}
        self.shard_queue_depth: Optional[Dict[int, int]] = None
        self.max_shard_queue_depth: Dict[int, int] = {}
        self.slo_status: List[SLOStatus] = [SLOStatus(s) for s in slos]
        self.timeline: List[Dict[str, Any]] = []
        self._next_sample = 0

    # -- observation hooks ---------------------------------------------

    def observe_arrival(self, now: int) -> None:
        self.arrivals.inc(now)

    def observe_latency(self, verb: str, ticks: float, now: int) -> None:
        window = self.latencies.get(verb)
        if window is None:
            window = self.latencies[verb] = WindowedValues(self.window)
        window.observe(now, ticks)

    def observe_commit(self, certified: Optional[bool], now: int) -> None:
        self.commits.inc(now)
        if certified is not False:
            self.certified.inc(now)

    def observe_abort(self, now: int) -> None:
        self.aborts.inc(now)

    def observe_shed(self, now: int) -> None:
        self.sheds.inc(now)

    def set_gauges(
        self,
        *,
        queue_depth: Optional[int] = None,
        certification_lag: Optional[int] = None,
    ) -> None:
        if queue_depth is not None:
            self.queue_depth = queue_depth
            self.max_queue_depth = max(self.max_queue_depth, queue_depth)
        if certification_lag is not None:
            self.certification_lag = certification_lag
            self.max_certification_lag = max(
                self.max_certification_lag, certification_lag
            )

    def set_cluster_gauges(
        self,
        *,
        in_doubt: Optional[int] = None,
        shard_certification_lag: Optional[Dict[int, int]] = None,
        shard_queue_depth: Optional[Dict[int, int]] = None,
    ) -> None:
        """Cluster-run gauges: in-flight 2PC count and per-shard backlog
        dicts (shard index → value).  Feeding any of these switches the
        timeline rows and snapshot into cluster mode; single-server runs
        never call this, so their artifacts are byte-identical to before
        this method existed."""
        if in_doubt is not None:
            self.in_doubt = in_doubt
            self.max_in_doubt = max(self.max_in_doubt, in_doubt)
        if shard_certification_lag is not None:
            self.shard_certification_lag = dict(shard_certification_lag)
            for shard, lag in shard_certification_lag.items():
                self.max_shard_certification_lag[shard] = max(
                    self.max_shard_certification_lag.get(shard, 0), lag
                )
        if shard_queue_depth is not None:
            self.shard_queue_depth = dict(shard_queue_depth)
            for shard, depth in shard_queue_depth.items():
                self.max_shard_queue_depth[shard] = max(
                    self.max_shard_queue_depth.get(shard, 0), depth
                )

    # -- rolling views --------------------------------------------------

    def rolling(self, verb: str, now: int) -> Dict[str, float]:
        """Rolling latency stats for one verb (``{"count": 0}`` if unseen)."""
        window = self.latencies.get(verb)
        return window.stats(now) if window is not None else {"count": 0}

    def certified_fraction(self, now: int) -> Optional[float]:
        commits = self.commits.count(now)
        if not commits:
            return None
        return self.certified.count(now) / commits

    # -- sampling & SLO evaluation --------------------------------------

    def _slo_value(self, status: SLOStatus, now: int) -> Optional[float]:
        slo = status.slo
        if slo.kind == "latency":
            window = self.latencies.get(slo.verb)
            return window.percentile(slo.q, now) if window else None
        if slo.kind == "certified_fraction":
            return self.certified_fraction(now)
        if slo.kind == "queue_depth":
            return float(self.queue_depth)
        if slo.kind == "in_doubt":
            return float(self.in_doubt) if self.in_doubt is not None else None
        return float(self.certification_lag)  # certification_lag

    def sample(self, now: int) -> Dict[str, Any]:
        """Record one timeline row and evaluate every SLO at ``now``."""
        row: Dict[str, Any] = {
            "t": now,
            "arrival_rate": self.arrivals.rate(now),
            "commit_rate": self.commits.rate(now),
            "queue_depth": self.queue_depth,
            "certification_lag": self.certification_lag,
            "shed": self.sheds.count(now),
        }
        if self.in_doubt is not None:
            row["in_doubt"] = self.in_doubt
        if self.shard_certification_lag is not None:
            row["shard_certification_lag"] = dict(self.shard_certification_lag)
        if self.shard_queue_depth is not None:
            row["shard_queue_depth"] = dict(self.shard_queue_depth)
        txn = self.rolling("txn", now)
        if txn["count"]:
            row["txn_p50"] = txn["p50"]
            row["txn_p99"] = txn["p99"]
        fraction = self.certified_fraction(now)
        if fraction is not None:
            row["certified_fraction"] = fraction
        for status in self.slo_status:
            status.observe(self._slo_value(status, now), now)
        self.timeline.append(row)
        return row

    def maybe_sample(self, now: int) -> None:
        """Sample when the cadence says so (drivers call this every loop;
        cheap no-op between sample points)."""
        if now >= self._next_sample:
            self.sample(now)
            self._next_sample = now + self.sample_every

    # -- reporting -------------------------------------------------------

    @property
    def all_slos_ok(self) -> bool:
        return all(status.ok for status in self.slo_status)

    def slo_report(self) -> List[Dict[str, Any]]:
        """Per-SLO verdicts as JSON-ready dicts."""
        return [status.to_dict() for status in self.slo_status]

    def snapshot(self, now: int) -> Dict[str, Any]:
        """One JSON-ready summary of everything windowed, as of ``now``."""
        return {
            "now": now,
            "window": self.window,
            "arrivals_total": self.arrivals.total,
            "commits_total": self.commits.total,
            "aborts_total": self.aborts.total,
            "sheds_total": self.sheds.total,
            "max_queue_depth": self.max_queue_depth,
            "max_certification_lag": self.max_certification_lag,
            **(
                {
                    "max_in_doubt": self.max_in_doubt,
                    "max_shard_certification_lag": dict(
                        self.max_shard_certification_lag
                    ),
                    "max_shard_queue_depth": dict(self.max_shard_queue_depth),
                }
                if self.in_doubt is not None
                or self.shard_certification_lag is not None
                else {}
            ),
            "rolling": {
                verb: self.rolling(verb, now) for verb in sorted(self.latencies)
            },
            "slos": self.slo_report(),
        }
