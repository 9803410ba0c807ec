"""The fold of N shard logs into one history, online and in batch.

A cluster's shards and backups each record their own events; the live
certification (:class:`~repro.service.certifier.GlobalCertifier` feeding the
run's :class:`~repro.core.incremental.IncrementalAnalysis`) and the merged
end-of-run history (:func:`~repro.service.certifier.merge_history`) both
run those logs through one fold, ``GlobalCertifier.feed``.  This module
pins what that buys:

* a primary crash that aborts a transaction while a backup still serves its
  reads leaves a well-formed history (the paper's rule E1: no event of a
  transaction after its commit or abort), with no read of an aborted
  version (G1a) and the verdict the live analysis reached;
* the online analysis commits the same transactions as the merged history,
  each with the same events, and the merged history holds nothing the
  analysis was not fed;
* copies of one transaction's end that disagree (a commit at one shard, an
  abort at another) raise through either entry point, in either order.
"""

from __future__ import annotations

from collections import Counter
from types import SimpleNamespace
from typing import Dict

import pytest

import repro
from repro.core.events import Abort, Begin, Commit, Read, Write
from repro.core.objects import Version
from repro.core.phenomena import Phenomenon
from repro.service import ClusterConfig, StressConfig, run_stress
from repro.service.certifier import GlobalCertifier, merge_history

from .test_stress_golden import CONFIGS


def _crash_with_replica_reads(shards: int, seed: int):
    # Before the fold was stated once, 33 of the 50 shards=1 seeds and 7
    # (7, 10, 11, 17, 20, 48, 49) of the shards=2 seeds raised E1 here.
    return run_stress(StressConfig(
        seed=seed,
        clients=6,
        txns_per_client=6,
        keys=8,
        ops_per_txn=2,
        level="PL-2",
        read_only_fraction=0.5,
        crash_after_commits=12,
        read_preference="replica",
        cluster=ClusterConfig(shards=shards, replicas=2),
    ))


@pytest.mark.parametrize("seed", range(50))
@pytest.mark.parametrize("shards", (1, 2))
def test_a_crash_abort_with_replica_reads_validates(shards: int, seed: int):
    # run_stress validates the merged history: E1 raises MalformedHistoryError.
    result = _crash_with_replica_reads(shards, seed)
    # A backup never serves a version whose writer the recovered WAL aborts.
    report = repro.check(result.history)
    assert Phenomenon.G1A not in report.exhibited()
    assert result.monitor.strongest_level() == report.strongest_level
    assert not result.cluster.certifier._parts


#: Cluster configs of the stress golden whose online and batch folds see
#: crashes, replica reads, map changes and batched certification.
AGREEMENT = ("cluster_2x2", "cluster_2x1_faults_crash", "cluster_windows", "zero_delays")


def _by_tid(events) -> Dict[int, Counter]:
    out: Dict[int, Counter] = {}
    for ev in events:
        out.setdefault(ev.tid, Counter())[ev] += 1
    return out


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("name", AGREEMENT)
def test_online_and_batch_folds_agree(name: str, seed: int):
    result = CONFIGS[name](seed)
    # ``IncrementalAnalysis.add`` keeps every event it is fed, in order.
    fed, merged = result.monitor.events, result.history.events
    assert result.monitor.committed == set(result.history.committed)
    online, batch = _by_tid(fed), _by_tid(merged)
    for tid in result.history.committed:
        assert online[tid] == batch[tid], tid
    assert not Counter(merged) - Counter(fed)
    assert not result.cluster.certifier._parts


# ----------------------------------------------------------------------
# the fold's rules, by hand
# ----------------------------------------------------------------------


class _Sink:
    """Records what the fold emits, with a commit's merged finals."""

    def __init__(self) -> None:
        self.fed = []

    def add(self, event, *, finals=None, positions=None) -> None:
        self.fed.append((event, finals, positions))


def _one_shard(gid: int):
    return (0,)


def _two_shards(gid: int):
    return (0, 1)


SPLITS = {
    "commit-then-abort": (Commit(1), Abort(1)),
    "abort-then-commit": (Abort(1), Commit(1)),
}


@pytest.mark.parametrize("participants_of", (_one_shard, _two_shards))
@pytest.mark.parametrize("order", SPLITS)
def test_a_split_end_raises_online(order: str, participants_of):
    fold = GlobalCertifier(_Sink(), participants_of)
    first, second = SPLITS[order]
    fold.feed(Begin(1), None, None)
    fold.feed(first, None, None)
    with pytest.raises(ValueError, match="2PC atomicity"):
        fold.feed(second, None, None)


def _slot(index: int, events, ticks):
    entries = [(ev, None, None) for ev in events]
    recorder = SimpleNamespace(_shipped=lambda: entries)
    return SimpleNamespace(
        index=index, replicas=[], event_ticks=list(ticks),
        primary=SimpleNamespace(recorder=recorder),
    )


@pytest.mark.parametrize("order", SPLITS)
def test_a_split_end_raises_in_batch(order: str):
    first, second = SPLITS[order]
    slots = [
        _slot(0, [Begin(1), first], [1, 2]),
        _slot(1, [Begin(1), second], [1, 3]),
    ]
    with pytest.raises(ValueError, match="2PC atomicity"):
        merge_history(slots, _two_shards, now=4)


def test_an_end_is_emitted_once_every_participant_applied():
    sink = _Sink()
    fold = GlobalCertifier(sink, _two_shards)
    for shard in (0, 1):
        fold.feed(Begin(1), None, None)
        fold.feed(Commit(1), {f"x{shard}": shard}, {f"x{shard}": -shard})
    assert [ev for ev, _f, _p in sink.fed] == [Begin(1), Commit(1)]
    assert sink.fed[-1][1:] == ({"x0": 0, "x1": 1}, {"x0": 0, "x1": -1})


def test_an_operation_after_the_emitted_abort_is_dropped():
    slots = [
        _slot(0, [Begin(1), Write(1, Version("x", 1)), Abort(1)], [1, 2, 3]),
        _slot(1, [Begin(1), Abort(1), Read(1, Version("y", 0))], [1, 4, 5]),
    ]
    history = merge_history(slots, _two_shards, now=6)
    assert [str(ev) for ev in history.events] == ["b1", "w1(x1)", "a1"]
