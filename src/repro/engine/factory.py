"""The public engine facade: ``repro.connect``.

One call replaces ad-hoc scheduler construction::

    import repro

    db = repro.connect("locking", level="repeatable read")
    db.load({"x": 0})
    t = db.begin()
    t.write("x", t.read("x") + 1)
    t.commit()

``connect`` accepts a scheduler family name (with aliases), normalises the
per-family options into a frozen :class:`SchedulerConfig`, and returns a
ready :class:`~repro.engine.database.Database`.  The config rides on the
database (``db.config``) so higher layers — the simulator, the
:mod:`repro.service` client/server stack, crash recovery — can rebuild an
identical scheduler from it.

``Database(SnapshotIsolationScheduler())`` — a scheduler built by hand — is
equally supported; such a database has ``db.config is None``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, Mapping, Optional

from ..core.levels import IsolationLevel
from .scheduler import Scheduler

__all__ = ["SCHEDULERS", "SchedulerConfig", "connect", "create_scheduler"]


def _make_locking(cfg: "SchedulerConfig") -> Scheduler:
    from .locking import LockingScheduler, profile_for_level

    profile = cfg.profile
    if profile is None and cfg.level is not None:
        profile = profile_for_level(cfg.level).name
    return LockingScheduler(profile or "serializable", deadlock=cfg.deadlock)


def _make_optimistic(cfg: "SchedulerConfig") -> Scheduler:
    from .optimistic import OptimisticScheduler

    return OptimisticScheduler()


def _make_mixed_optimistic(cfg: "SchedulerConfig") -> Scheduler:
    from .mixed_optimistic import MixedOptimisticScheduler

    return MixedOptimisticScheduler(cfg.level or IsolationLevel.PL_3)


def _make_si(cfg: "SchedulerConfig") -> Scheduler:
    from .mvcc import SnapshotIsolationScheduler

    return SnapshotIsolationScheduler()


def _make_mv_rc(cfg: "SchedulerConfig") -> Scheduler:
    from .mvcc import ReadCommittedMVScheduler

    return ReadCommittedMVScheduler()


#: Scheduler families by canonical name.  Aliases map onto these.
SCHEDULERS: Dict[str, Any] = {
    "locking": _make_locking,
    "optimistic": _make_optimistic,
    "mixed-optimistic": _make_mixed_optimistic,
    "snapshot-isolation": _make_si,
    "mv-read-committed": _make_mv_rc,
}

_ALIASES: Dict[str, str] = {
    "2pl": "locking",
    "occ": "optimistic",
    "mixed": "mixed-optimistic",
    "mvcc": "snapshot-isolation",
    "si": "snapshot-isolation",
    "snapshot": "snapshot-isolation",
    "mv-rc": "mv-read-committed",
    "read-committed-mv": "mv-read-committed",
}


def _canonical(name: str) -> str:
    key = name.strip().lower().replace("_", "-").replace(" ", "-")
    key = _ALIASES.get(key, key)
    if key not in SCHEDULERS:
        known = ", ".join(sorted(SCHEDULERS))
        raise KeyError(f"unknown scheduler {name!r} (known: {known})")
    return key


@dataclass(frozen=True, kw_only=True)
class SchedulerConfig:
    """Frozen, keyword-only description of one engine configuration.

    ``build()`` manufactures the scheduler; equal configs build
    behaviourally identical schedulers, which is what crash recovery and
    the reproducibility tests rely on.
    """

    #: Canonical scheduler family name (see :data:`SCHEDULERS`).
    scheduler: str = "locking"
    #: Default isolation level transactions run at (``None`` = the
    #: family's own default; locking maps it to its Figure 1 profile).
    level: Optional[IsolationLevel] = None
    #: Locking only: explicit Figure 1 profile name (overrides ``level``).
    profile: Optional[str] = None
    #: Locking only: ``"detect"`` or ``"wound-wait"``.
    deadlock: str = "detect"
    #: Seed for layers that interleave work on top of this database
    #: (simulator, service); the database itself is deterministic.
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "scheduler", _canonical(self.scheduler))
        if isinstance(self.level, str):
            object.__setattr__(
                self, "level", IsolationLevel.from_string(self.level)
            )
        if self.deadlock not in ("detect", "wound-wait"):
            raise ValueError("deadlock policy must be 'detect' or 'wound-wait'")

    # ------------------------------------------------------------------

    def build(self) -> Scheduler:
        """A fresh scheduler for this config."""
        return SCHEDULERS[self.scheduler](self)

    def with_seed(self, seed: int) -> "SchedulerConfig":
        return replace(self, seed=seed)

    @property
    def declared_level(self) -> Optional[IsolationLevel]:
        """The level transactions of this config are *declared* at (used by
        the service layer's live certification): the configured level, or
        the family's natural guarantee."""
        if self.level is not None:
            return self.level
        return _NATURAL_LEVEL.get(self.scheduler)


#: The level each family's committed histories naturally provide, used as
#: the declared level when the caller does not pick one.  Snapshot
#: isolation declares PL-2 (its strongest *core* guarantee — PL-SI itself
#: needs the G-SI extensions, which the online monitor does not maintain).
_NATURAL_LEVEL: Dict[str, IsolationLevel] = {
    "locking": IsolationLevel.PL_3,
    "optimistic": IsolationLevel.PL_3,
    "mixed-optimistic": IsolationLevel.PL_3,
    "snapshot-isolation": IsolationLevel.PL_2,
    "mv-read-committed": IsolationLevel.PL_2,
}


def create_scheduler(
    spec: str | SchedulerConfig, **overrides: Any
) -> Scheduler:
    """Build a scheduler from a family name (or config), e.g.
    ``create_scheduler("locking", profile="read-committed")``."""
    config = (
        spec
        if isinstance(spec, SchedulerConfig)
        else SchedulerConfig(scheduler=spec, **overrides)
    )
    scheduler = config.build()
    scheduler.config = config
    return scheduler


def connect(
    scheduler: str | SchedulerConfig = "locking",
    *,
    level: Optional[IsolationLevel | str] = None,
    seed: int = 0,
    profile: Optional[str] = None,
    deadlock: str = "detect",
    initial: Optional[Mapping[str, Any]] = None,
    monitor: Optional[object] = None,
    metrics: Optional[object] = None,
    tracer: Optional[object] = None,
):
    """Open a database: the single public engine entry point.

    Parameters
    ----------
    scheduler:
        Family name — ``"locking"``, ``"optimistic"``, ``"mixed-optimistic"``,
        ``"snapshot-isolation"`` (alias ``"mvcc"``/``"si"``),
        ``"mv-read-committed"`` — or a prebuilt :class:`SchedulerConfig`.
    level:
        Default isolation level (locking derives its Figure 1 profile from
        it; mixed OCC validates at it).
    seed:
        Recorded on the config for seeded layers built on top (simulator,
        service); two ``connect`` calls with equal arguments produce
        engines whose executions are bit-identical under the same driver.
    profile / deadlock:
        Locking-family options (explicit Figure 1 profile; deadlock
        handling policy).
    initial:
        Optional initial state, loaded via the T0 loader transaction.
    monitor / metrics / tracer:
        Optional online :class:`~repro.core.incremental.IncrementalAnalysis`
        (attached to the recorder) and observability sinks.
    """
    from .database import Database

    if isinstance(scheduler, SchedulerConfig):
        config = scheduler
        if level is not None or profile is not None or seed:
            config = replace(
                config,
                level=level if level is not None else config.level,
                profile=profile if profile is not None else config.profile,
                seed=seed or config.seed,
            )
    else:
        config = SchedulerConfig(
            scheduler=scheduler,
            level=level,  # type: ignore[arg-type]
            profile=profile,
            deadlock=deadlock,
            seed=seed,
        )
    sched = create_scheduler(config)
    db = Database(sched)
    if metrics is not None or tracer is not None:
        sched.instrument(metrics=metrics, tracer=tracer)
    if monitor is not None:
        sched.recorder.attach_monitor(monitor)
    if initial is not None:
        db.load(initial)
    return db
