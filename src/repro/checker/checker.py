"""The isolation checker: the library's user-facing entry points.

``check`` takes a history — either a :class:`~repro.core.history.History`
or the textual notation — and returns a :class:`CheckReport` with every
phenomenon, per-level verdicts, and the strongest level provided::

    >>> import repro
    >>> repro.check("w1(x1, 2) w2(x2, 5) w2(y2, 5) c2 w1(y1, 8) c1 "
    ...             "[x1 << x2, y2 << y1]").strongest_level is None
    True

``check_level`` answers the single-level question and ``classify`` (from
:mod:`repro.core.levels`) returns just the strongest ANSI level.
"""

from __future__ import annotations

import functools
import os
import time
from typing import Iterable, List, Optional, Sequence, Union

from ..core.conflicts import PredicateDepMode
from ..core.history import History
from ..core.levels import ANSI_CHAIN, IsolationLevel, LevelVerdict, satisfies
from ..core.parser import parse_history
from ..core.phenomena import Analysis
from .report import CheckReport

__all__ = ["check", "check_level", "check_many", "as_history"]

HistoryLike = Union[History, str]


def as_history(history: HistoryLike, *, auto_complete: bool = False) -> History:
    """Coerce textual notation to a validated :class:`History`."""
    if isinstance(history, History):
        return history
    return parse_history(history, auto_complete=auto_complete)


def check(
    history: HistoryLike,
    *,
    levels: Sequence[IsolationLevel] = ANSI_CHAIN,
    extensions: bool = False,
    mode: PredicateDepMode = PredicateDepMode.LATEST,
    auto_complete: bool = False,
    metrics: Optional[object] = None,
    tracer: Optional[object] = None,
) -> CheckReport:
    """Full analysis of a history.

    Parameters
    ----------
    history:
        A :class:`History` or its textual notation.
    levels:
        Levels to test (default: the ANSI chain of Figure 6).
    extensions:
        Also test the thesis extension levels PL-CS, PL-2+, PL-SI and PL-SS.
    mode:
        Predicate-read-dependency quantification.
    auto_complete:
        Append aborts for unfinished transactions before checking
        (Section 4.2's completion; only applies to textual input).
    metrics:
        Optional :class:`~repro.observability.MetricsRegistry`: the check
        accounts edge counts and per-stage durations into it
        (``checker_*`` metrics; see ``docs/observability.md``).
    tracer:
        Optional :class:`~repro.observability.Tracer`: the check runs under
        a ``checker.check`` span with ``checker.extract`` /
        ``checker.phenomenon`` child spans.

    Caching contract
    ----------------
    One :class:`~repro.core.phenomena.Analysis` is built per call and shared
    by every phenomenon detector and per-level verdict: the direct
    conflicts are extracted exactly once, as rows of an edge table
    (``Edge`` objects are built when ``Analysis.edges`` or a witness asks
    for them), the DSG and the SSG of the extension levels are built over
    that shared table, and per-phenomenon reports are memoized.  Checking
    all four ANSI levels therefore costs one extraction plus at most one
    SCC pass per distinct cycle phenomenon — none for a view whose edges
    all go forward in commit order, and G2 and G2-item share theirs when
    no predicate anti-dependency edge exists — not one extraction per
    level.  The
    caches live on the analysis/history pair and histories are immutable,
    so nothing needs invalidation; see ``docs/performance.md`` for the
    full cost model.
    """
    h = as_history(history, auto_complete=auto_complete)
    wanted = list(levels)
    if extensions:
        for extra in (
            IsolationLevel.PL_CS,
            IsolationLevel.PL_2PLUS,
            IsolationLevel.PL_SI,
            IsolationLevel.PL_SS,
        ):
            if extra not in wanted:
                wanted.append(extra)
    span = None
    if tracer is not None:
        span = tracer.span(
            "checker.check",
            events=len(h.events),
            levels=[str(level) for level in wanted],
        )
    started = time.perf_counter()
    analysis = Analysis(h, mode, metrics=metrics, tracer=tracer)
    verdicts = {
        level: satisfies(h, level, analysis=analysis) for level in wanted
    }
    analysis.timings["total"] = time.perf_counter() - started
    if metrics is not None:
        metrics.counter("checker_checks_total", "histories checked").inc()
    report = CheckReport(h, analysis, verdicts, tuple(wanted))
    if span is not None:
        strongest = report.strongest_level
        span.end(strongest=str(strongest) if strongest is not None else None)
    return report


def _check_chunk(
    chunk: Sequence[HistoryLike],
    *,
    levels: Sequence[IsolationLevel],
    extensions: bool,
    mode: PredicateDepMode,
    auto_complete: bool,
) -> List[CheckReport]:
    """Module-level worker so :func:`check_many` can dispatch it to a
    process pool (bound methods and closures do not pickle).  Takes a whole
    *chunk* of histories per task: corpus sweeps are dominated by many small
    histories, and per-task pickling/IPC overhead swamps the per-history
    analysis cost unless histories are shipped in batches."""
    return [
        check(
            h,
            levels=levels,
            extensions=extensions,
            mode=mode,
            auto_complete=auto_complete,
        )
        for h in chunk
    ]


def check_many(
    histories: Iterable[HistoryLike],
    *,
    processes: Optional[int] = None,
    chunksize: Optional[int] = None,
    levels: Sequence[IsolationLevel] = ANSI_CHAIN,
    extensions: bool = False,
    mode: PredicateDepMode = PredicateDepMode.LATEST,
    auto_complete: bool = False,
    metrics: Optional[object] = None,
) -> List[CheckReport]:
    """Check a batch of histories, optionally across worker processes.

    ``processes=None`` picks ``os.cpu_count()`` workers when there is more
    than one history to check; ``processes<=1`` forces the serial path (no
    pool, no pickling).  Reports come back in input order.

    ``chunksize`` controls how many histories travel in one pickled task.
    ``None`` picks a heuristic — enough chunks for ~4 tasks per worker, so
    stragglers rebalance, but no smaller than 1 — which is right for
    uniform corpora; pass an explicit value when history sizes are wildly
    skewed (smaller chunks rebalance better) or tiny and uniform (larger
    chunks cut dispatch overhead further).

    ``metrics`` is honoured on the serial path only: registries are
    in-process objects and do not aggregate across a worker pool, so the
    parallel path checks without instrumentation rather than silently
    accounting a single worker's share.  Pass ``processes=1`` to combine
    batch checking with a registry.

    The parallel path ships each chunk to a worker via pickling, so
    histories must be picklable — in particular
    :class:`~repro.core.predicates.FunctionPredicate` conditions must be
    module-level functions, not lambdas.  Each worker pays the full
    per-history analysis cost; the speedup is in wall-clock across
    histories, which is why this API exists for corpus sweeps
    (``repro check-many``) rather than single-history calls.
    """
    items = list(histories)
    if processes is None:
        processes = os.cpu_count() or 1
    if processes <= 1 or len(items) <= 1:
        return [
            check(
                h,
                levels=levels,
                extensions=extensions,
                mode=mode,
                auto_complete=auto_complete,
                metrics=metrics,
            )
            for h in items
        ]
    from concurrent.futures import ProcessPoolExecutor

    worker = functools.partial(
        _check_chunk,
        levels=tuple(levels),
        extensions=extensions,
        mode=mode,
        auto_complete=auto_complete,
    )
    if chunksize is None:
        chunksize = max(1, len(items) // (processes * 4))
    elif chunksize < 1:
        raise ValueError("chunksize must be >= 1")
    chunks = [items[i : i + chunksize] for i in range(0, len(items), chunksize)]
    reports: List[CheckReport] = []
    with ProcessPoolExecutor(max_workers=processes) as pool:
        for batch in pool.map(worker, chunks):
            reports.extend(batch)
    return reports


def check_level(
    history: HistoryLike,
    level: Union[IsolationLevel, str],
    *,
    mode: PredicateDepMode = PredicateDepMode.LATEST,
    auto_complete: bool = False,
) -> LevelVerdict:
    """Does the history provide one level?  Accepts level names (including
    ANSI aliases such as ``"READ COMMITTED"``)."""
    if isinstance(level, str):
        level = IsolationLevel.from_string(level)
    h = as_history(history, auto_complete=auto_complete)
    return satisfies(h, level, mode=mode)
