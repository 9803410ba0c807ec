"""Nearest-rank percentiles and the ``{count, pXX, mean, max}`` row.

The one summary of a list of values that the stress driver's latency
lines, the SLO windows (:mod:`repro.observability.windows`) and every
report table (:mod:`repro.observability.traceview`) print.
"""

from __future__ import annotations

from typing import Dict, Sequence

__all__ = ["percentile", "stats_row"]


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a non-empty sequence."""
    if not values:
        raise ValueError("percentile of empty sequence")
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))  # ceil(n*q/100), at least 1
    return ordered[min(int(rank), len(ordered)) - 1]


def stats_row(values: Sequence[float], *quantiles: int) -> Dict[str, float]:
    """``{count, p<q>..., mean, max}`` of a non-empty sequence, one
    nearest-rank ``p<q>`` per quantile asked, in that key order."""
    return {
        "count": len(values),
        **{f"p{q}": percentile(values, q) for q in quantiles},
        "mean": sum(values) / len(values),
        "max": max(values),
    }
