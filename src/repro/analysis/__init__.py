"""Analyses built on top of the checker and engine."""

from .._surface import exports

__all__ = exports(__name__, {
    "Op": ".opcheck",
    "OpCheckResult": ".opcheck",
    "check_operations": ".opcheck",
    "PermissivenessResult": ".permissiveness",
    "compare": ".permissiveness",
    "AblationResult": ".spectrum",
    "SpectrumPoint": ".spectrum",
    "contention_spectrum": ".spectrum",
    "predicate_mode_ablation": ".spectrum",
    "generate_report": ".report_gen",
    "RepairResult": ".repair",
    "abort_transactions": ".repair",
    "repair": ".repair",
    "HistoryStats": ".stats",
    "history_stats": ".stats",
})
