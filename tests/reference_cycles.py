"""The reference anti-dependency witness: components first, then a path back.

``repro.core.graph.cycle_through`` finds the first given row ``a -> b``
whose ``b`` reaches ``a`` by searching from each row's ``b`` in turn, and
computes the graph's components only when its searches have followed as
many rows as the graph holds.  This module is what it replaced, kept the way
it was written: Tarjan over the whole graph first, then the first given row
whose ends share a component, closed by a shortest path back — the
breadth-first search it was written with included.
``tests/test_witness_search_differential.py`` holds the two against each
other.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.graph import Adjacency


def reference_cycle_through(
    adj: Adjacency, sccs: List[List[int]], special: Iterable[int]
) -> Optional[List[int]]:
    """The first row of ``special`` whose ends share a component of
    ``sccs``, closed into a cycle by a shortest path back."""
    component = {node: i for i, scc in enumerate(sccs) for node in scc}
    _leaving, src, dst = adj
    for row in special:
        a, b = src[row], dst[row]
        if a != b and component[a] == component[b]:
            path = reference_shortest_path(adj, b, a)
            if path is not None:
                return [row, *path]
    return None


def reference_shortest_path(
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
