"""Rendering histories back into the paper's textual notation.

``format_history(parse_history(text))`` re-parses to an equal history (see
the round-trip property tests), so the textual form is a faithful, diffable
serialization of any history — including ones produced by the engine.
"""

from __future__ import annotations

from typing import List

import re

from .events import Abort, Begin, Commit, Event, PredicateRead, Read, Write
from .history import History
from .objects import Version
from .predicates import MembershipPredicate

__all__ = ["format_history", "format_event"]


_BARE_OBJ_RE = re.compile(r"^[A-Za-z_]+$")


def _obj_label(obj: str) -> str:
    """Bare alphabetic names print as-is; anything else (digits, ``:``)
    is braced so the token re-parses unambiguously."""
    return obj if _BARE_OBJ_RE.match(obj) else "{" + obj + "}"


def _version_label(history: History, version: Version) -> str:
    """Label with an explicit ``.seq`` whenever the writer wrote the object
    more than once, so the text is unambiguous on re-parse."""
    obj = _obj_label(version.obj)
    if version.is_unborn:
        return f"{obj}init"
    if version.seq != 1 or (version.obj, version.tid) in history._rewritten:
        return f"{obj}{version.tid}.{version.seq}"
    return f"{obj}{version.tid}"


def format_event(history: History, event: Event) -> str:
    """One event in notation form."""
    if isinstance(event, Commit):
        return f"c{event.tid}"
    if isinstance(event, Abort):
        return f"a{event.tid}"
    if isinstance(event, Begin):
        return f"b{event.tid}@{event.level}" if event.level is not None else f"b{event.tid}"
    if isinstance(event, Write):
        inner = _version_label(history, event.version)
        if event.dead:
            inner += ", dead"
        elif event.value is not None:
            inner += f", {event.value}"
        return f"w{event.tid}({inner})"
    if isinstance(event, PredicateRead):
        specs = []
        for v in event.vset.versions():
            mark = "*" if history.version_matches(event.predicate, v) else ""
            specs.append(_version_label(history, v) + mark)
        return f"r{event.tid}({event.predicate.name}: {', '.join(specs)})"
    if isinstance(event, Read):
        inner = _version_label(history, event.version)
        if event.value is not None:
            inner += f", {event.value}"
        op = "rc" if event.cursor else "r"
        return f"{op}{event.tid}({inner})"
    raise TypeError(f"unknown event type {type(event).__name__}")


def format_history(history: History, *, include_order: bool = True) -> str:
    """The whole history: events, then the version order block, then match
    declaration blocks for predicate matches not expressible inline (matching
    versions that never appear in a version set)."""
    parts = [format_event(history, ev) for ev in history.events]
    text = " ".join(parts)
    if include_order:
        chains: List[str] = []
        for obj, chain in history.version_order.items():
            visible = [v for v in chain if not v.is_unborn]
            if len(visible) > 1 or (visible and visible[0] not in history.writes):
                # Orders that differ from / are not derivable from the event
                # sequence must be written out; single derivable entries are
                # implicit.
                chains.append(
                    " << ".join(_version_label(history, v) for v in visible)
                )
        if chains:
            text += f"  [{', '.join(chains)}]"
        extra_blocks = _match_blocks(history)
        if extra_blocks:
            text += "  " + "  ".join(extra_blocks)
    return text


def _match_blocks(history: History) -> List[str]:
    """``[P matches: ...]`` blocks for matching versions that no version set
    mentions (inline ``*`` marks cover the rest)."""
    blocks = []
    seen = set()
    for _i, pread in history.predicate_reads:
        pred = pread.predicate
        if pred.name in seen or not isinstance(pred, MembershipPredicate):
            continue
        seen.add(pred.name)
        in_vsets = set()
        for _j, other in history.predicate_reads:
            if other.predicate.name == pred.name:
                in_vsets.update(other.vset.versions())
        stray = sorted(pred.matching - in_vsets)
        if stray:
            labels = ", ".join(_version_label(history, v) for v in stray)
            blocks.append(f"[{pred.name} matches: {labels}]")
    return blocks
