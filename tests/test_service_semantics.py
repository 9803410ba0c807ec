"""What a service run must keep when its message schedule changes.

``test_stress_golden`` pins the bytes of every run; a commit that changes
the schedule on purpose regenerates them, and then the bytes prove nothing.
This module re-runs the same configs x seeds and asserts the properties the
bytes were standing in for — so a regenerated golden file is regenerated
*against something*:

* a closed loop commits everything it offers;
* every commit a client saw acknowledged is in the history and certified at
  its declared level by the final pass;
* the client-observed operations of the unreplicated locking-serializable
  runs admit a strict-serializable order (``StressResult.opcheck()``);
* the merged cluster history validates and 2PC is atomic: a transaction
  committed at one participant is committed at every participant;
* the run ends quiescent: no live transaction, no waits-for edge, no request
  parked at a server, no in-doubt prepare, no 2PC in flight.
"""

from __future__ import annotations

import re
from typing import List

import pytest

from repro.core.events import Commit
from repro.service import server as server_mod
from repro.service import stress as stress_mod

from .test_stress_golden import CONFIGS, SEEDS

#: Open-loop runs serve each arrival once and never retry an abort: they
#: offer more than they commit, and an arrival abandoned last leaves its
#: transaction to the next begin that never comes.
OPEN_LOOP = {"open_loop_windows"}

_BEGIN = re.compile(r" begin\(.*\) -> tid=(\d+) ")
_COMMIT_OK = re.compile(r" commit\(\) -> ok")


def _run(monkeypatch, name: str, seed: int):
    """The run, plus every server that served it (a cluster's current
    primaries, or the one ``Server`` the driver built)."""
    servers: List[server_mod.Server] = []

    class Captured(server_mod.Server):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            servers.append(self)

    monkeypatch.setattr(stress_mod, "Server", Captured)
    result = CONFIGS[name](seed)
    if result.cluster is not None:
        servers = list(result.cluster.shards)
    return result, servers


def _acknowledged_commits(result) -> List[int]:
    """Tids whose ``commit`` a client journalled as ``ok``."""
    tids = []
    for lines in result.journals.values():
        tid = None
        for line in lines:
            begun = _BEGIN.search(line)
            if begun:
                tid = int(begun.group(1))
            elif _COMMIT_OK.search(line):
                tids.append(tid)
    return tids


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", CONFIGS)
def test_semantic_gates(monkeypatch, name: str, seed: int) -> None:
    result, servers = _run(monkeypatch, name, seed)
    closed = name not in OPEN_LOOP

    if closed:
        assert result.committed == result.offered

    acknowledged = _acknowledged_commits(result)
    assert acknowledged and len(set(acknowledged)) == len(acknowledged)
    for tid in acknowledged:
        assert tid in result.history.committed, tid
        assert result.certification[tid][1], tid
    assert result.all_certified

    replicated = "replicas" in result.config.get("cluster", {})
    if not replicated and result.config["level"] == "PL-3":
        verdict = result.opcheck()
        assert verdict.ok, verdict.explain()

    cluster = result.cluster
    if cluster is not None:
        cluster.history(validate=True)  # raises on a commit/abort split
        committed_at = [
            {
                ev.tid
                for ev in slot.primary.recorder.events
                if isinstance(ev, Commit)
            }
            for slot in cluster.shard_slots
        ]
        for gid in set().union(*committed_at) - {0}:
            assert gid in cluster.state.committed, gid
            for index in cluster.participants_of(gid):
                assert gid in committed_at[index], (gid, index)
        assert cluster.coordinator.pending == 0
        assert not any(slot.prepared for slot in cluster.shard_slots)

    assert servers and all(server.up for server in servers)
    for server in servers:
        assert not getattr(server, "_parked", None), server.name
    if closed:
        assert not any(server._live_txns() for server in servers)
    _by_tid, waits = server_mod._waits_for(servers)
    assert waits == {}
