"""Directed multigraph algorithms over edge *rows*.

Every cycle question the checkers ask is answered here, on an
:class:`Adjacency`: an edge is a row number into two parallel int columns
(``src[row]``, ``dst[row]``), a graph is ``node -> [rows leaving it]``, and
every walk reads ints out of lists.  No edge object is touched: every
caller hands in columns and a row list (:func:`adjacency_of`) — both
checkers and the provenance witness an edge table's, in place, one row list
per view; the MSG its relevant rows — and maps the rows that come back onto
its own edges.

Witnesses come from two routines: :func:`cycle` walks a cycle in the first
component that has one (G0, G1c), :func:`cycle_through` closes the first
given row whose ends share a component with a shortest path back (G2,
G2-item, the MSG).  Every routine visits a node's rows in list order and
the nodes in the order the mapping lists them, so for one edge order there
is one answer: the same components in the same order, the same cycle, the
same path.  Witnesses are pinned byte for byte on that
(``tests/test_checker_golden.py``, ``tests/test_witness_golden.py``).

Multi-witness reports (:meth:`repro.core.dsg.DSG.find_cycles`) enumerate
cycles with :func:`simple_cycles`.  Nothing here knows about histories or
flavours.
"""

from __future__ import annotations

import heapq
from collections import deque
from itertools import chain
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

__all__ = [
    "adjacency_of",
    "strongly_connected_components",
    "component_index",
    "cycle_in_component",
    "cycle",
    "cycle_through",
    "shortest_edge_path",
    "simple_cycles",
    "topological_order",
]


class Adjacency(NamedTuple):
    """A directed multigraph over rows of two int columns."""

    #: ``node -> rows leaving it``, each list in row order; the key order is
    #: the order the searches start from.
    rows: Dict[int, List[int]]
    #: ``src[row]`` / ``dst[row]``: the ends of an edge.  The columns may
    #: hold more rows than the graph uses (a view of a larger table).
    src: Sequence[int]
    dst: Sequence[int]


def adjacency_of(
    rows: Iterable[int], src: Sequence[int], dst: Sequence[int]
) -> Adjacency:
    """The graph of the given rows of the columns, in the order given."""
    leaving: Dict[int, List[int]] = {}
    get = leaving.get
    for row in rows:
        node = src[row]
        out = get(node)
        if out is None:
            leaving[node] = [row]
        else:
            out.append(row)
    return Adjacency(leaving, src, dst)


def strongly_connected_components(
    adj: Adjacency, nodes: Iterable[int] = ()
) -> List[List[int]]:
    """Tarjan's algorithm, iteratively (histories can exceed the recursion
    limit).  Components come out in reverse topological order; singleton
    components are included for every node seen in ``adj`` or ``nodes``.
    Searches start from ``nodes``, then from the sources in ``adj``'s key
    order (every other node is reached from its source)."""
    rows, _src, dst = adj
    index: Dict[int, int] = {}
    lowlink: Dict[int, int] = {}
    on_stack = set()
    stack: List[int] = []
    counter = 0
    components: List[List[int]] = []
    for root in chain(nodes, rows):
        if root in index:
            continue
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        # One frame per node on the DFS path: the node and the iterator over
        # the rows it has not followed yet.
        work = [(root, iter(rows.get(root, ())))]
        while work:
            node, remaining = work[-1]
            for row in remaining:
                nxt = dst[row]
                if nxt not in index:
                    index[nxt] = lowlink[nxt] = counter
                    counter += 1
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(rows.get(nxt, ()))))
                    break
                if nxt in on_stack and index[nxt] < lowlink[node]:
                    lowlink[node] = index[nxt]
            else:
                # node is finished; close its component if it is a root.
                work.pop()
                low = lowlink[node]
                if low == index[node]:
                    comp = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        comp.append(member)
                        if member == node:
                            break
                    components.append(comp)
                if work:
                    parent = work[-1][0]
                    if low < lowlink[parent]:
                        lowlink[parent] = low
    return components


def component_index(
    adj: Adjacency, nodes: Iterable[int] = ()
) -> Dict[int, int]:
    """``node -> component id`` for every node."""
    return {
        node: i
        for i, comp in enumerate(strongly_connected_components(adj, nodes))
        for node in comp
    }


def cycle_in_component(adj: Adjacency, component: Sequence[int]) -> List[int]:
    """A concrete directed cycle inside a strongly connected component with
    at least two nodes, as a chained list of rows."""
    rows, _src, dst = adj
    members = set(component)
    start = component[0]
    # DFS restricted to the component, tracking the path of rows; the first
    # time a node already on the path is reached again, the loop closes.
    path: List[int] = []
    on_path: Dict[int, int] = {start: 0}  # node -> position in path
    nodes_on_path: List[int] = [start]
    work = [iter(rows.get(start, ()))]
    while work:
        for row in work[-1]:
            nxt = dst[row]
            if nxt not in members:
                continue
            if nxt in on_path:
                return path[on_path[nxt] :] + [row]
            on_path[nxt] = len(path) + 1
            path.append(row)
            nodes_on_path.append(nxt)
            work.append(iter(rows.get(nxt, ())))
            break
        else:
            work.pop()
            del on_path[nodes_on_path.pop()]
            if path:
                path.pop()
    raise ValueError("component is not strongly connected")  # pragma: no cover


def cycle(adj: Adjacency, sccs: List[List[int]]) -> Optional[List[int]]:
    """A cycle in the first component of ``sccs`` that has one."""
    for scc in sccs:
        if len(scc) >= 2:
            return cycle_in_component(adj, scc)
    return None


def cycle_through(
    adj: Adjacency, sccs: List[List[int]], special: Iterable[int]
) -> Optional[List[int]]:
    """The first row of ``special`` whose ends share a component of
    ``sccs``, closed into a cycle by a shortest path back."""
    component = {node: i for i, scc in enumerate(sccs) for node in scc}
    _leaving, src, dst = adj
    for row in special:
        a, b = src[row], dst[row]
        if a != b and component[a] == component[b]:
            path = shortest_edge_path(adj, b, a)
            if path is not None:
                return [row, *path]
    return None


def shortest_edge_path(
    adj: Adjacency, src: int, dst: int
) -> Optional[Tuple[int, ...]]:
    """Shortest path from ``src`` to ``dst`` as a tuple of rows (BFS), the
    empty tuple when ``src == dst``, or ``None`` when unreachable."""
    if src == dst:
        return ()
    rows, row_src, row_dst = adj
    parent: Dict[int, int] = {}  # node -> the row it was reached by
    queue = deque((src,))
    seen = {src}
    while queue:
        node = queue.popleft()
        for row in rows.get(node, ()):
            nxt = row_dst[row]
            if nxt in seen:
                continue
            parent[nxt] = row
            if nxt == dst:
                path: List[int] = []
                while nxt != src:
                    row = parent[nxt]
                    path.append(row)
                    nxt = row_src[row]
                return tuple(reversed(path))
            seen.add(nxt)
            queue.append(nxt)
    return None


def simple_cycles(adj: Adjacency) -> Iterator[List[int]]:
    """Every simple cycle of the graph once, as the list of its nodes, lazily
    (Johnson's algorithm, iteratively; parallel rows are one arc): in each
    component, the cycles through its first node, then those through its
    second that avoid the first, and so on."""
    rows, _src, dst = adj
    for component in strongly_connected_components(adj):
        members = set(component)
        succ = {
            node: list(dict.fromkeys(dst[row] for row in rows.get(node, ())))
            for node in component
        }
        for start in component[:-1]:
            blocked = {start}
            #: node -> the blocked nodes released with it (Johnson's ``B``).
            waiting: Dict[int, Set[int]] = {}
            #: Nodes that were on the path when a cycle closed.
            closed: Set[int] = set()
            path = [start]
            work = [iter(succ[start])]
            while work:
                for nxt in work[-1]:
                    if nxt == start:
                        yield path[:]
                        closed.update(path)
                    elif nxt in members and nxt not in blocked:
                        path.append(nxt)
                        work.append(iter(succ[nxt]))
                        blocked.add(nxt)
                        closed.discard(nxt)
                        break
                else:
                    work.pop()
                    node = path.pop()
                    if node in closed:
                        release = [node]
                        while release:
                            freed = release.pop()
                            if freed in blocked:
                                blocked.remove(freed)
                                release.extend(waiting.pop(freed, ()))
                    else:
                        for nxt in succ[node]:
                            waiting.setdefault(nxt, set()).add(node)
            members.discard(start)


def topological_order(adj: Adjacency, nodes: Iterable[int] = ()) -> List[int]:
    """Kahn's algorithm with a min-heap tie-break (smallest node first), so
    the serialization orders printed in reports are deterministic.  Raises
    :class:`ValueError` if the graph has a cycle."""
    rows, _src, dst = adj
    indegree: Dict[int, int] = {n: 0 for n in nodes}
    for src, leaving in rows.items():
        indegree.setdefault(src, 0)
        for row in leaving:
            indegree[dst[row]] = indegree.get(dst[row], 0) + 1
    ready = [n for n, d in indegree.items() if d == 0]
    heapq.heapify(ready)
    out: List[int] = []
    while ready:
        node = heapq.heappop(ready)
        out.append(node)
        for row in rows.get(node, ()):
            indegree[dst[row]] -= 1
            if indegree[dst[row]] == 0:
                heapq.heappush(ready, dst[row])
    if len(out) != len(indegree):
        raise ValueError("graph has a cycle; no topological order exists")
    return out
