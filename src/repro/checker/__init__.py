"""User-facing isolation checker built on the core formalism."""

from .._surface import exports

__all__ = exports(__name__, {
    "as_history": ".checker",
    "check": ".checker",
    "check_level": ".checker",
    "check_many": ".checker",
    "NamedAnomaly": ".naming",
    "name_anomalies": ".naming",
    "name_cycle": ".naming",
    "CheckReport": ".report",
})
