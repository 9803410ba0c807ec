"""Well-formedness validation for histories (paper Section 4.2).

A :class:`~repro.core.history.History` must satisfy:

**Event constraints**

* E1 — each transaction has exactly one commit or abort event, and it is the
  transaction's last event (Section 4.2: the history is *complete*).
* E2 — a ``Begin`` event, if present, is its transaction's first event.
* E3 — a read ``r_j(x_{i:m})`` is preceded by the write ``w_i(x_{i:m})``
  (unless the version is an implicit *setup version* whose writer has no
  events — the paper's unstated initial-state transactions).  The same holds
  for every non-unborn version selected in a predicate read's version set.
* E4 — read-your-own-writes: if ``w_i(x_{i:m})`` is followed by ``r_i(x_j)``
  with no intervening ``w_i(x_{i:n})``, then ``x_j = x_{i:m}``.
* E5 — item reads only observe *visible* versions (never unborn or dead).
  Version sets may select unborn/dead versions; those are ghost reads.
* E6 — a transaction's successive writes to an object are numbered
  ``1, 2, ...`` in event order (the paper's ``x_{i:1}, x_{i:2}, ...``).
* E7 — after a transaction writes a dead version of ``x`` (deletes it), that
  transaction performs no further operation on ``x`` ("a dead version ...
  cannot be used further").

**Version-order constraints**

* V1 — the order of each object starts with the unborn version (enforced by
  construction) and contains at most one dead version, which must be last.
* V2 — the order contains exactly the *final* versions of the committed
  transactions that wrote the object (one each), plus any setup versions;
  never versions of aborted or unfinished transactions, and never
  intermediate versions.

``validate_history`` raises :class:`~repro.exceptions.MalformedHistoryError`
or :class:`~repro.exceptions.VersionOrderError` with a message naming the
violated rule.

The cost is linear in the history: E1–E7 are one loop over the flat
:class:`~repro.core.interning.EventLog` (kind codes and interned ids, no
event objects unless a message needs one), V1–V2 one walk of the version
orders, both reading the tables the constructor's sweep left on the history.
``tests/reference_validation.py`` keeps the rule-by-rule formulation this
replaced; ``tests/test_validation_differential.py`` holds the two together.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Set

from ..exceptions import MalformedHistoryError, VersionOrderError
from .interning import K_ABORT, K_BEGIN, K_COMMIT, K_READ, K_WRITE
from .objects import Version

if TYPE_CHECKING:  # pragma: no cover
    from .history import History

__all__ = ["validate_history"]


def validate_history(history: "History") -> None:
    """Validate all Section 4.2 constraints; raise on the first violation.

    A history that breaks several constraints reports them in a fixed order:
    transaction structure (E1, E2), then reads (E3, E5), own writes (E4),
    write numbering (E6), dead usage (E7), and last the version order
    (V1, V2) — within one of these, the first violation in event order.
    """
    log = history.log
    versions, writes = log.interner.versions, history.writes
    # The dead versions, by id.  Deletes are rare, so few rows carry the
    # flag; ``writes`` has the last word (as in ``History.kind_of``) should
    # a malformed history write one version twice.
    dead = {
        vid
        for k, vid, flag in zip(log.kind, log.vid, log.flag)
        if flag and k == K_WRITE and writes[versions[vid]].dead
    }
    _check_events(history, dead)
    _check_version_order(history, {versions[vid] for vid in dead})


# ----------------------------------------------------------------------
# event constraints
# ----------------------------------------------------------------------

#: Report order of the event checks a later event can still outrank (a
#: structure violation outranks them all and raises where it is met).
_READS, _OWN_WRITES, _NUMBERING, _DEAD_USAGE, _CLEAN = range(5)


def _check_events(history: "History", dead: Set[int]) -> None:
    """E1–E7 in one loop over the flat event log.

    Per transaction the loop keeps whether it is live and, per object it
    wrote, the row of its last write: that row's version is what an own read
    must observe (E4), its sequence number plus one is what the next write
    must carry (E6), and its dead flag bars any further operation (E7).
    """
    log = history.log
    inn = log.interner
    vids, flags = log.vid, log.flag
    versions, ver_obj, ver_seq = inn.versions, inn.ver_obj, inn.ver_seq
    version_id = inn.version_id
    events = history.events
    setup_ok, aborted = history.setup_versions, history.aborted
    # tid -> {object id: row of the transaction's last write to it} while the
    # transaction is live, None once it has committed or aborted.
    txns: Dict[int, Optional[Dict[int, int]]] = {}
    unseen: Dict[int, int] = {}
    written = bytearray(len(versions))  # by version id: written so far?
    # The violation to report unless a higher-ranked one turns up later.
    rank, message = _CLEAN, ""
    for i, (k, t) in enumerate(zip(log.kind, log.tid)):
        own = txns.get(t, unseen)
        if own is None:
            raise MalformedHistoryError(
                f"E1: event {events[i]} follows T{t}'s commit/abort"
            )
        if k == K_WRITE:
            if own is unseen:
                own = txns[t] = {}
            vid = vids[i]
            written[vid] = 1
            oid = ver_obj[vid]
            last = own.get(oid)
            own[oid] = i
            expected = 1
            if last is not None:
                expected = ver_seq[vids[last]] + 1
                if flags[last] and rank > _DEAD_USAGE:
                    ev = events[i]
                    rank, message = _DEAD_USAGE, (
                        f"E7: {ev} operates on {ev.version.obj!r} after "
                        f"T{t} deleted it"
                    )
            if ver_seq[vid] != expected and rank > _NUMBERING:
                ev = events[i]
                rank, message = _NUMBERING, (
                    f"E6: {ev} has sequence {ev.version.seq}, expected {expected} "
                    f"(T{t}'s writes to {ev.version.obj!r} must be numbered in order)"
                )
        elif k == K_READ:
            if own is unseen:
                own = txns[t] = {}
            vid = vids[i]
            if rank > _READS:
                problem = ""
                if not written[vid]:
                    problem = _unwritten_read(events[i], setup_ok, aborted)
                elif vid in dead:
                    problem = f"E5: read of dead version at {events[i]}"
                if problem:
                    rank, message = _READS, problem
            # E7 needs no check here: a read after the transaction's own
            # delete observes the dead version (E5) or another one (E4).
            last = own.get(ver_obj[vid])
            if last is not None and vids[last] != vid and rank > _OWN_WRITES:
                rank, message = _OWN_WRITES, (
                    f"E4: {events[i]} must observe the transaction's own "
                    f"last write {versions[vids[last]]}"
                )
        elif k == K_COMMIT or k == K_ABORT:
            txns[t] = None
        elif k == K_BEGIN:
            if own is not unseen:
                raise MalformedHistoryError(
                    f"E2: begin of T{t} is not its first event"
                )
            txns[t] = {}
        else:  # a predicate read
            if own is unseen:
                txns[t] = {}
            if rank > _READS:
                for v in events[i].vset.versions():
                    if written[version_id[v]] or v.is_unborn or v in setup_ok:
                        continue
                    rank, message = _READS, (
                        f"E3: version set of {events[i]} selects {v} before "
                        "it is written"
                    )
                    break
    unfinished = sorted(t for t, own in txns.items() if own is not None)
    if unfinished:
        pretty = ", ".join(f"T{t}" for t in unfinished)
        raise MalformedHistoryError(
            f"E1: history is not complete — {pretty} never commit or abort "
            "(pass auto_complete=True to append aborts)"
        )
    if message:
        raise MalformedHistoryError(message)


def _unwritten_read(ev, setup_ok, aborted) -> str:
    """What is wrong with an item read of a version no earlier event wrote
    (empty if nothing is: a setup version of a transaction that did not
    abort)."""
    v = ev.version
    if v.is_unborn:
        return f"E5: read of unborn version at {ev}"
    if v not in setup_ok:
        return f"E3: {ev} reads version {v} before it is written"
    if v.tid in aborted:
        return (
            f"E3: {ev} reads setup version {v} attributed to an "
            "aborted transaction"
        )
    return ""


# ----------------------------------------------------------------------
# version-order constraints
# ----------------------------------------------------------------------


def _check_version_order(history: "History", dead: Set[Version]) -> None:
    setup, aborted = history.setup_versions, history.aborted
    committed = history.committed
    # What each order must hold besides setup versions: per object, the
    # final sequence number of every committed transaction that wrote it.
    finals: Dict[str, Dict[int, int]] = {}
    for (obj, tid), seq in history._final_seq.items():
        if tid in committed:
            finals.setdefault(obj, {})[tid] = seq
    for obj, chain in history.version_order.items():
        assert chain[0].is_unborn  # by construction
        due = finals.get(obj, {})
        seen: Set[Version] = set()
        dead_seen = False
        installed = 0
        for n, v in enumerate(chain[1:], 1):
            seen.add(v)
            if len(seen) < n:
                raise VersionOrderError(f"V2: duplicate version {v} in order of {obj!r}")
            if setup and v in setup:
                if v.tid in aborted:
                    raise VersionOrderError(
                        f"V2: setup version {v} attributed to aborted T{v.tid}"
                    )
            else:
                seq = due.get(v.tid)
                if seq is None:
                    raise VersionOrderError(
                        f"V2: version order of {obj!r} contains {v} of an "
                        "uncommitted or aborted transaction"
                    )
                if seq != v.seq:
                    raise VersionOrderError(
                        f"V2: version order of {obj!r} contains intermediate "
                        f"version {v}; only final versions are installed"
                    )
                installed += 1
            if dead_seen:
                raise VersionOrderError(
                    f"V1: version order of {obj!r} places {v} after a dead version"
                )
            if dead and v in dead:
                dead_seen = True
        # Every committed final write must be installed.  The versions
        # counted above are distinct and each is some due writer's final
        # one, so only an order that holds too few can be missing one.
        if installed < len(due):
            for tid in committed:  # this order picks the one reported
                if tid not in due:
                    continue
                final = Version(obj, tid, due[tid])
                if final not in seen:
                    raise VersionOrderError(
                        f"V2: committed version {final} missing from version order of {obj!r}"
                    )
