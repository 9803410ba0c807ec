"""The waits-for search that breaks lock-wait cycles, stated once.

Two callers wait on locks and break a cycle of waits by aborting one of its
transactions: the :class:`~repro.engine.simulator.Simulator`, where a blocked
program stays a candidate waiting on its ``WouldBlock`` holders, and the
service's servers, where a blocked request is parked behind its holders
(:func:`repro.service.server.break_deadlock`, over every shard of a
cluster).  Which transaction dies is part of every history the checker
judges, so the search and the victim rule live here; each caller keeps its
own edges, rebuild order, seniority key, metrics and trace records.

The search is incremental.  :class:`WaitsFor` keeps one flag per graph,
``acyclic``: the last full search found no cycle, and no edge has appeared
since without a search following it.  While it holds, edges only vanish (a
waiter resumes, its transaction ends, or it restarts under a fresh tid)
except the out-edges of the waiter that has just blocked, so any new cycle
passes through that waiter, and a walk from it that does not come back
(:func:`reaches_itself`) means there is none and nothing is rebuilt.
Otherwise the caller rebuilds its whole graph, in its own order, and
:meth:`WaitsFor.search` takes the first cycle :func:`find_cycle` meets
there — the rebuild alone decides which cycle is reported.  A victim
lowers the flag (its cycle may have had siblings through the same waiter),
and a full search that finds nothing raises it again.

The victim is the member of that cycle with the largest seniority key: the
youngest.  The two callers age differently:

* the simulator ages a *program* by the tid of its first attempt, so a
  restarted victim keeps its seniority and cannot be chosen forever (the
  naive abort-the-current-youngest rule starves restarts, which always
  re-enter with the largest tid);
* a server ages a *session* by the tid of its first-ever transaction (the
  oldest across the shards it runs at) and never resets it, so a session's
  seniority is a fixed priority for the life of the client.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

__all__ = ["WaitsFor", "find_cycle", "reaches_itself"]


class WaitsFor:
    """The incremental search state of one waits-for graph."""

    __slots__ = ("acyclic",)

    def __init__(self) -> None:
        self.acyclic = True

    def settled(self, waiter: int, waits_on: Callable[[int], Iterable[int]]) -> bool:
        """Whether the graph is known to have no cycle after ``waiter``
        gained its new out-edges: the flag holds and ``waiter`` cannot reach
        itself along ``waits_on``."""
        return self.acyclic and not reaches_itself(waiter, waits_on)

    def search(
        self, graph: Dict[int, Iterable[int]], seniority: Callable[[int], int]
    ) -> Optional[Tuple[List[int], int]]:
        """The first cycle of the rebuilt ``graph`` and its victim, the
        member with the largest ``seniority`` (the first such in cycle
        order), or ``None`` without a cycle."""
        cycle = find_cycle(graph)
        self.acyclic = not cycle
        return (cycle, max(cycle, key=seniority)) if cycle else None


def reaches_itself(waiter: int, waits_on: Callable[[int], Iterable[int]]) -> bool:
    """Whether ``waiter`` can reach its own tid along the edges
    ``waits_on(tid)`` names, followed in place instead of a rebuilt graph.
    A tid that waits on nothing (or has ended) ends its branch of the walk."""
    seen = {waiter}
    stack = [waiter]
    while stack:
        for tid in waits_on(stack.pop()):
            if tid == waiter:
                return True
            if tid not in seen:
                seen.add(tid)
                stack.append(tid)
    return False


def find_cycle(waits: Dict[int, Iterable[int]]) -> Optional[List[int]]:
    """Nodes of some cycle in the waits-for graph in cycle order, or
    ``None``.  The order lets observers report the actual waits-for loop
    (``cycle[i]`` waits on ``cycle[i+1]``, the last waits on the first)."""
    visiting: Set[int] = set()
    visited: Set[int] = set()
    stack: List[int] = []

    def dfs(node: int) -> Optional[List[int]]:
        visiting.add(node)
        stack.append(node)
        for nxt in waits.get(node, ()):
            if nxt in visiting:
                return stack[stack.index(nxt) :]
            if nxt not in visited:
                found = dfs(nxt)
                if found:
                    return found
        visiting.discard(node)
        visited.add(node)
        stack.pop()
        return None

    for start in list(waits):
        if start not in visited:
            found = dfs(start)
            if found:
                return found
    return None
