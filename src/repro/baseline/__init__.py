"""Baseline checkers the paper compares against: the preventative P0-P3 of
Berenson et al. and the strict (anomaly) A1-A3 reading of ANSI SQL-92."""

from .._surface import exports

__all__ = exports(__name__, {
    "AnsiAnalysis": ".ansi",
    "AnsiPhenomenon": ".ansi",
    "AnsiReport": ".ansi",
    "ansi_strict_satisfies": ".ansi",
    "PreventativeAnalysis": ".preventative",
    "PreventativePhenomenon": ".preventative",
    "PreventativeReport": ".preventative",
    "preventative_classify": ".preventative",
    "preventative_proscribed": ".preventative",
    "preventative_satisfies": ".preventative",
})
