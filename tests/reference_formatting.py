"""The reference formatter: a history's notation from its event objects.

``repro.core.formatting.format_history`` renders a history from its event
log's rows, one label per interned version.  This module is what that
replaced, kept the way it reads from the notation: one ``isinstance``
branch per event class, the version-label rule spelled out (a writer's
labels carry ``.seq`` when ``x_{i:2}`` is one of the history's writes), the
version order walked as ``Version`` tuples and the match blocks read from
``PredicateRead`` objects.  It is slow on purpose and knows nothing of
``EventLog`` or ``Interner``.  ``tests/test_formatting.py`` holds the two
against each other.
"""

from __future__ import annotations

import re
from typing import List

from repro.core.events import Abort, Begin, Commit, Event, PredicateRead, Read, Write
from repro.core.objects import Version
from repro.core.predicates import MembershipPredicate


def _obj_label(obj: str) -> str:
    return obj if re.fullmatch(r"[A-Za-z_]+", obj) else "{" + obj + "}"


def reference_label(history, version: Version) -> str:
    obj = _obj_label(version.obj)
    if version.is_unborn:
        return f"{obj}init"
    if version.seq != 1 or Version(version.obj, version.tid, 2) in history.writes:
        return f"{obj}{version.tid}.{version.seq}"
    return f"{obj}{version.tid}"


def reference_event(history, event: Event) -> str:
    if isinstance(event, Commit):
        return f"c{event.tid}"
    if isinstance(event, Abort):
        return f"a{event.tid}"
    if isinstance(event, Begin):
        return f"b{event.tid}@{event.level}" if event.level is not None else f"b{event.tid}"
    if isinstance(event, Write):
        inner = reference_label(history, event.version)
        if event.dead:
            inner += ", dead"
        elif event.value is not None:
            inner += f", {event.value}"
        return f"w{event.tid}({inner})"
    if isinstance(event, PredicateRead):
        specs = []
        for v in event.vset.versions():
            mark = "*" if history.version_matches(event.predicate, v) else ""
            specs.append(reference_label(history, v) + mark)
        return f"r{event.tid}({event.predicate.name}: {', '.join(specs)})"
    if isinstance(event, Read):
        inner = reference_label(history, event.version)
        if event.value is not None:
            inner += f", {event.value}"
        op = "rc" if event.cursor else "r"
        return f"{op}{event.tid}({inner})"
    raise TypeError(f"unknown event type {type(event).__name__}")


def reference_format(history) -> str:
    text = " ".join(reference_event(history, ev) for ev in history.events)
    chains: List[str] = []
    for chain in history.version_order.values():
        visible = [v for v in chain if not v.is_unborn]
        if len(visible) > 1 or (visible and visible[0] not in history.writes):
            chains.append(" << ".join(reference_label(history, v) for v in visible))
    if chains:
        text += f"  [{', '.join(chains)}]"
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
            labels = ", ".join(reference_label(history, v) for v in stray)
            blocks.append(f"[{pred.name} matches: {labels}]")
    if blocks:
        text += "  " + "  ".join(blocks)
    return text
