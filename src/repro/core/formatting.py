"""Rendering histories back into the paper's textual notation.

``format_history(parse_history(text))`` re-parses to an equal history (see
the round-trip property tests), so the textual form is a faithful, diffable
serialization of any history — including ones produced by the engine.

The text is rendered from the history's event log: one token per row, one
label per interned version.  No event object is built for it, so the text
of an engine or service history costs no more than its rows.
"""

from __future__ import annotations

from itertools import compress
from typing import Any, Iterable, List

import re

from .events import Event
from .history import History
from .interning import (
    _KIND_OF_TYPE,
    K_ABORT,
    K_BEGIN,
    K_COMMIT,
    K_PREAD,
    K_READ,
    K_WRITE,
)
from .objects import Version
from .predicates import MembershipPredicate, Predicate

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


def _vset_text(
    history: History,
    predicate: Predicate,
    versions: Iterable[Version],
    labels: Iterable[str],
) -> str:
    """A predicate read's version set, each matching version marked ``*``."""
    matches = history.version_matches
    return ", ".join(
        label + "*" if matches(predicate, v) else label
        for v, label in zip(versions, labels)
    )


def _token(k: int, tid: int, flag: bool, extra: Any, inner: str) -> str:
    """One event in notation form, from its row's kind code, tid, flag
    (cursor read, dead write) and side column (value, begin level,
    predicate read); ``inner`` is the rendered version label, or the
    version set of a predicate read."""
    if k == K_READ:
        if extra is not None:
            inner += f", {extra}"
        return f"rc{tid}({inner})" if flag else f"r{tid}({inner})"
    if k == K_WRITE:
        if flag:
            inner += ", dead"
        elif extra is not None:
            inner += f", {extra}"
        return f"w{tid}({inner})"
    if k == K_COMMIT:
        return f"c{tid}"
    if k == K_ABORT:
        return f"a{tid}"
    if k == K_BEGIN:
        return f"b{tid}" if extra is None else f"b{tid}@{extra}"
    return f"r{tid}({extra[0].name}: {inner})"


def format_event(history: History, event: Event) -> str:
    """One event in notation form."""
    for base, k in _KIND_OF_TYPE.items():
        if isinstance(event, base):
            break
    else:
        raise TypeError(f"unknown event type {type(event).__name__}")
    if k == K_READ or k == K_WRITE:
        flag = event.cursor if k == K_READ else event.dead
        label = _version_label(history, event.version)
        return _token(k, event.tid, flag, event.value, label)
    if k == K_PREAD:
        versions = event.vset.versions()
        labels = [_version_label(history, v) for v in versions]
        inner = _vset_text(history, event.predicate, versions, labels)
        return _token(k, event.tid, False, (event.predicate,), inner)
    return _token(k, event.tid, False, getattr(event, "level", None), "")


def format_history(history: History, *, include_order: bool = True) -> str:
    """The whole history: events, then the version order block, then match
    declaration blocks for predicate matches not expressible inline (matching
    versions that never appear in a version set)."""
    log = history.log
    versions = log.interner.versions
    labels = [_version_label(history, v) for v in versions]
    parts = []
    for k, tid, vid, flag, extra in zip(log.kind, log.tid, log.vid, log.flag, log.extra):
        if vid >= 0:
            inner = labels[vid]
        elif k == K_PREAD:
            vids = extra[2]
            inner = _vset_text(
                history,
                extra[0],
                [versions[v] for v in vids],
                [labels[v] for v in vids],
            )
        else:
            inner = ""
        parts.append(_token(k, tid, flag, extra, inner))
    text = " ".join(parts)
    if include_order:
        last_write = log.last_write
        # Orders that differ from / are not derivable from the event
        # sequence must be written out; single derivable entries are
        # implicit.
        chains = [
            " << ".join([labels[vid] for vid in chain])
            for chain in history._order_vids.values()
            if len(chain) > 1 or (chain and chain[0] not in last_write)
        ]
        if chains:
            text += f"  [{', '.join(chains)}]"
        if K_PREAD in log.kind:
            blocks = _match_blocks(history)
            if blocks:
                text += "  " + "  ".join(blocks)
    return text


def _match_blocks(history: History) -> List[str]:
    """``[P matches: ...]`` blocks for matching versions that no version set
    mentions (inline ``*`` marks cover the rest)."""
    log = history.log
    preads = list(compress(log.extra, map(K_PREAD.__eq__, log.kind)))
    blocks = []
    seen = set()
    for pred, _vset, _vids in preads:
        if pred.name in seen or not isinstance(pred, MembershipPredicate):
            continue
        seen.add(pred.name)
        in_vsets = set()
        for other, vset, _vids in preads:
            if other.name == pred.name:
                in_vsets.update(vset.versions())
        stray = sorted(pred.matching - in_vsets)
        if stray:
            labels = ", ".join(_version_label(history, v) for v in stray)
            blocks.append(f"[{pred.name} matches: {labels}]")
    return blocks
