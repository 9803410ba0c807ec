"""Dependency-free metrics: counters, gauges and histograms with labels.

A :class:`MetricsRegistry` is the single sink every instrumented component
shares — the engine schedulers, the recorder, the lock manager, the store,
the incremental monitor and the batch checker all accept an optional
``metrics=`` registry and account their work into it.  The registry is
deliberately tiny and allocation-light:

* instruments are registered once by name (re-registration returns the
  existing instrument, so call sites never coordinate);
* one instrument holds one time series per distinct label combination;
* hot paths — everything observed per message, request, lock or batch —
  bind a labelled series **at first use** (``counter.labels(...)``,
  ``gauge.labels(...)``, ``histogram.labels(...)``), keep the handle, and
  then pay one dict operation per observation: no registry lookup, no
  label-key build.  Binding is lazy on purpose: an instrument is exported
  from the moment it is registered, so a component that registered its
  instruments at construction would export families it never observed.
  Only cold paths (a crash, a deadlock victim, a certification verdict)
  call ``registry.counter(name, help).inc(**labels)`` each time;
* **disabled is free**: components default to ``metrics=None`` and guard
  every emission with an ``is not None`` check — no null objects, no
  indirection, nothing on the hot path (the ladder benchmark's
  ``observability.self_s`` measures this).

The registry also carries the engine's *logical clock* (:attr:`clock`):
the simulator ticks it once per scheduling step, and duration-style
metrics (lock wait/hold times) are measured in those steps — deterministic
under a fixed seed, unlike wall-clock.

Export formats: :meth:`MetricsRegistry.snapshot` (plain dicts, JSON-ready),
:meth:`render_text` (human-readable) and :meth:`render_prometheus`
(Prometheus text exposition, ``# HELP``/``# TYPE`` included).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]

LabelKey = Tuple[Tuple[str, str], ...]

#: Default histogram buckets: a geometric ladder wide enough for logical
#: steps, chain lengths and cycle sizes alike.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000,
)

#: Buckets for wall-clock seconds (checker pass timings).
SECONDS_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class _Instrument:
    """Shared name/help/series bookkeeping."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._series: Dict[LabelKey, Any] = {}

    def series(self) -> Dict[LabelKey, Any]:
        """``label-key -> value`` for every series observed so far."""
        return dict(self._series)


class Counter(_Instrument):
    """Monotonically increasing count, optionally labelled."""

    kind = "counter"

    def inc(self, amount: int = 1, **labels: Any) -> None:
        key = _label_key(labels)
        self._series[key] = self._series.get(key, 0) + amount

    def labels(self, **labels: Any) -> "_BoundCounter":
        """Pre-resolve a label combination for hot loops."""
        return _BoundCounter(self, _label_key(labels))

    def value(self, **labels: Any) -> int:
        """The count for one label combination (0 if never incremented)."""
        return self._series.get(_label_key(labels), 0)

    @property
    def total(self) -> int:
        """Sum across every label combination."""
        return sum(self._series.values())


class _BoundCounter:
    """A counter bound to one label key: one dict op per ``inc``."""

    __slots__ = ("_counter", "_key")

    def __init__(self, counter: Counter, key: LabelKey):
        self._counter = counter
        self._key = key

    def inc(self, amount: int = 1) -> None:
        series = self._counter._series
        series[self._key] = series.get(self._key, 0) + amount


class Gauge(_Instrument):
    """A value that can go up and down (current queue depths, sizes)."""

    kind = "gauge"

    def set(self, value: float, **labels: Any) -> None:
        self._series[_label_key(labels)] = value

    def labels(self, **labels: Any) -> "_BoundGauge":
        """Pre-resolve a label combination for hot loops."""
        return _BoundGauge(self, _label_key(labels))

    def inc(self, amount: float = 1, **labels: Any) -> None:
        key = _label_key(labels)
        self._series[key] = self._series.get(key, 0) + amount

    def dec(self, amount: float = 1, **labels: Any) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: Any) -> float:
        return self._series.get(_label_key(labels), 0)


class _BoundGauge:
    """A gauge bound to one label key: one dict op per ``set``."""

    __slots__ = ("_gauge", "_key")

    def __init__(self, gauge: Gauge, key: LabelKey):
        self._gauge = gauge
        self._key = key

    def set(self, value: float) -> None:
        self._gauge._series[self._key] = value


class _HistogramSeries:
    """count/sum/min/max plus cumulative bucket counts."""

    __slots__ = ("count", "sum", "min", "max", "bucket_counts")

    def __init__(self, n_buckets: int):
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.bucket_counts = [0] * (n_buckets + 1)  # +1 for +Inf

    def observe(self, value: float, buckets: Tuple[float, ...]) -> None:
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        for i, bound in enumerate(buckets):
            if value <= bound:
                self.bucket_counts[i] += 1
                return
        self.bucket_counts[-1] += 1


class Histogram(_Instrument):
    """Distribution of observed values over fixed buckets."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help)
        self.buckets: Tuple[float, ...] = tuple(sorted(buckets))

    def _series_at(self, key: LabelKey) -> _HistogramSeries:
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = _HistogramSeries(len(self.buckets))
        return series

    def observe(self, value: float, **labels: Any) -> None:
        self._series_at(_label_key(labels)).observe(value, self.buckets)

    def labels(self, **labels: Any) -> "_BoundHistogram":
        """Pre-resolve a label combination for hot loops."""
        return _BoundHistogram(self, _label_key(labels))

    def count(self, **labels: Any) -> int:
        series = self._series.get(_label_key(labels))
        return series.count if series else 0

    def sum_of(self, **labels: Any) -> float:
        series = self._series.get(_label_key(labels))
        return series.sum if series else 0.0

    def mean(self, **labels: Any) -> Optional[float]:
        series = self._series.get(_label_key(labels))
        if not series or not series.count:
            return None
        return series.sum / series.count

    def percentile(self, q: float, **labels: Any) -> Optional[float]:
        """Estimate the ``q``-th percentile (``q`` in [0, 100]) from the
        bucket counts by linear interpolation between bucket bounds.

        The target rank is located in the cumulative bucket counts; the
        estimate interpolates between the bucket's lower and upper bound
        by the rank's position inside the bucket, clamped to the observed
        ``min``/``max`` (so a single-sample histogram reports that sample
        at every percentile, and the +Inf bucket reports ``max``).
        Returns ``None`` for an empty (or unobserved) series.
        """
        if not (0 <= q <= 100):
            raise ValueError("q must be in [0, 100]")
        series = self._series.get(_label_key(labels))
        if series is None or not series.count:
            return None
        rank = max(1, -(-series.count * q // 100))  # ceil(count*q/100)
        cumulative = 0
        lower = 0.0
        for bound, bucket_count in zip(self.buckets, series.bucket_counts):
            if bucket_count:
                if cumulative + bucket_count >= rank:
                    fraction = (rank - cumulative) / bucket_count
                    estimate = lower + (bound - lower) * fraction
                    return min(max(estimate, series.min), series.max)
                cumulative += bucket_count
            lower = bound
        return series.max  # rank lands in the +Inf bucket


class _BoundHistogram:
    """A histogram bound to one label key: one dict op per ``observe``
    (the series appears at the first observation, as unbound)."""

    __slots__ = ("_histogram", "_key")

    def __init__(self, histogram: Histogram, key: LabelKey):
        self._histogram = histogram
        self._key = key

    def observe(self, value: float) -> None:
        histogram = self._histogram
        histogram._series_at(self._key).observe(value, histogram.buckets)


class MetricsRegistry:
    """A namespace of instruments plus the engine's logical clock.

    >>> reg = MetricsRegistry()
    >>> reg.counter("txn_commits_total").inc(scheduler="occ")
    >>> reg.counter("txn_commits_total").value(scheduler="occ")
    1
    """

    def __init__(self) -> None:
        self._instruments: Dict[str, _Instrument] = {}
        #: Logical step clock; the simulator ticks it once per scheduling
        #: round so durations are deterministic (same seed, same metrics).
        self.clock = 0

    def tick(self, steps: int = 1) -> int:
        self.clock += steps
        return self.clock

    # -- registration ----------------------------------------------------

    def _register(self, cls, name: str, help: str, **kwargs) -> Any:
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = self._instruments[name] = cls(name, help, **kwargs)
        elif not isinstance(instrument, cls):
            raise ValueError(
                f"metric {name!r} already registered as {instrument.kind}"
            )
        return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        return self._register(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._register(Gauge, name, help)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._register(Histogram, name, help, buckets=buckets)

    def instruments(self) -> List[_Instrument]:
        return [self._instruments[name] for name in sorted(self._instruments)]

    # -- export ----------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Everything observed so far as plain JSON-ready dicts."""
        out: Dict[str, Any] = {}
        for inst in self.instruments():
            series_out = []
            for key, value in sorted(inst._series.items()):
                labels = dict(key)
                if isinstance(inst, Histogram):
                    series_out.append(
                        {
                            "labels": labels,
                            "count": value.count,
                            "sum": value.sum,
                            "min": value.min,
                            "max": value.max,
                            "buckets": {
                                str(b): c
                                for b, c in zip(
                                    list(inst.buckets) + ["+Inf"],
                                    value.bucket_counts,
                                )
                            },
                        }
                    )
                else:
                    series_out.append({"labels": labels, "value": value})
            out[inst.name] = {
                "type": inst.kind,
                "help": inst.help,
                "series": series_out,
            }
        return out

    def render_text(self) -> str:
        """Human-readable dump, one line per series."""
        lines: List[str] = []
        for inst in self.instruments():
            if not inst._series:
                continue
            lines.append(f"{inst.name} ({inst.kind})")
            for key, value in sorted(inst._series.items()):
                label_s = ", ".join(f"{k}={v}" for k, v in key)
                label_s = f"{{{label_s}}}" if label_s else ""
                if isinstance(inst, Histogram):
                    mean = value.sum / value.count if value.count else 0.0
                    labels = dict(key)
                    quantiles = " ".join(
                        f"p{q}={inst.percentile(q, **labels):g}"
                        for q in (50, 95, 99)
                    )
                    lines.append(
                        f"  {label_s or '(all)'}: count={value.count} "
                        f"sum={value.sum:g} min={value.min:g} "
                        f"max={value.max:g} mean={mean:g} {quantiles}"
                    )
                else:
                    lines.append(f"  {label_s or '(all)'}: {value:g}")
        return "\n".join(lines)

    def render_prometheus(self) -> str:
        """Prometheus text exposition format."""
        lines: List[str] = []
        for inst in self.instruments():
            if not inst._series:
                continue
            if inst.help:
                lines.append(f"# HELP {inst.name} {inst.help}")
            lines.append(f"# TYPE {inst.name} {inst.kind}")
            for key, value in sorted(inst._series.items()):
                if isinstance(inst, Histogram):
                    cumulative = 0
                    for bound, count in zip(
                        list(inst.buckets) + ["+Inf"], value.bucket_counts
                    ):
                        cumulative += count
                        bucket_labels = key + (("le", str(bound)),)
                        lines.append(
                            f"{inst.name}_bucket{_prom_labels(bucket_labels)} "
                            f"{cumulative}"
                        )
                    lines.append(
                        f"{inst.name}_sum{_prom_labels(key)} {value.sum:g}"
                    )
                    lines.append(
                        f"{inst.name}_count{_prom_labels(key)} {value.count}"
                    )
                else:
                    lines.append(f"{inst.name}{_prom_labels(key)} {value:g}")
        return "\n".join(lines)


def _prom_labels(key: Iterable[Tuple[str, str]]) -> str:
    items = list(key)
    if not items:
        return ""
    body = ",".join(f'{k}="{_escape(v)}"' for k, v in items)
    return f"{{{body}}}"


def _escape(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")
