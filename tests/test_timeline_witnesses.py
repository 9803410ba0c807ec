"""Tests for timeline rendering and multi-witness cycle enumeration."""

import functools
import random
from itertools import islice

import pytest

from repro.core import DSG, graph, parse_history
from repro.core.conflicts import DepKind
from repro.core.timeline import event_glyph, timeline
from repro.cli import main
import io

from .test_checker_golden import HISTORIES


class TestTimeline:
    def test_rows_per_transaction(self):
        text = timeline(parse_history("w1(x1) r2(x1) c1 c2"))
        lines = text.splitlines()
        assert lines[0].startswith("T1 |")
        assert lines[1].startswith("T2 |")

    def test_columns_align(self):
        text = timeline(parse_history("w1(x1) r2(x1) c1 c2"))
        t1, t2 = text.splitlines()
        # The commit of T1 (column 3) starts at the same offset in both rows.
        assert t1.index("c") > 0
        assert t2.rstrip().endswith("c")

    def test_glyphs(self):
        h = parse_history(
            "b1@PL-2 w1(x1) rc1(x1) w1(y1, dead) r1(P: x1*) c1"
        )
        glyphs = [event_glyph(ev) for ev in h.events]
        assert glyphs == ["b@PL-2", "w(x1)", "rc(x1)", "del(y1)", "r[P]", "c"]

    def test_idle_marker_customisable(self):
        text = timeline(parse_history("w1(x1) c1 w2(y2) c2"), idle="·")
        assert "·" in text

    def test_cli_timeline(self):
        out = io.StringIO()
        status = main(["timeline", "w1(x1) r2(x1) c1 c2"], out=out)
        assert status == 0
        assert out.getvalue().startswith("T1 |")


def _item(edge) -> bool:
    return not edge.via_predicate


def _anti(edge) -> bool:
    return edge.kind is DepKind.RW


def _digraph(nx, edges):
    return nx.DiGraph([(e.src, e.dst) for e in edges])


def _rotated(nodes):
    """A cycle's nodes from its smallest, so two listings compare equal."""
    at = nodes.index(min(nodes))
    return tuple(nodes[at:] + nodes[:at])


@functools.lru_cache(maxsize=None)
def _golden_dsg(name: str) -> DSG:
    return DSG(HISTORIES[name]())


class TestFindCycles:
    def test_multiple_distinct_cycles(self):
        # Two independent lost updates: T1/T2 on x, T3/T4 on y.
        h = parse_history(
            "r1(x0) r2(x0) w2(x2) c2 w1(x1) c1 "
            "r3(y0) r4(y0) w4(y4) c4 w3(y3) c3 "
            "[x0 << x2 << x1, y0 << y4 << y3]"
        )
        dsg = DSG(h)
        cycles = dsg.find_cycles(lambda e: True)
        nodesets = {frozenset(c.nodes) for c in cycles}
        assert frozenset({1, 2}) in nodesets
        assert frozenset({3, 4}) in nodesets

    def test_limit_respected(self):
        h = parse_history(
            "r1(x0) r2(x0) w2(x2) c2 w1(x1) c1 "
            "r3(y0) r4(y0) w4(y4) c4 w3(y3) c3 "
            "[x0 << x2 << x1, y0 << y4 << y3]"
        )
        assert len(DSG(h).find_cycles(lambda e: True, limit=1)) == 1

    def test_special_filter(self):
        h = parse_history(
            "w1(x1) w2(y2) r1(y2) r2(x1) c1 c2"  # wr/wr cycle, no anti
        )
        dsg = DSG(h)
        anti_cycles = dsg.find_cycles(
            lambda e: True, special=lambda e: e.kind is DepKind.RW
        )
        assert anti_cycles == []
        dep_cycles = dsg.find_cycles(lambda e: True)
        assert len(dep_cycles) == 1

    def test_special_edge_preferred_among_parallels(self):
        # T1->T2 has both wr and rw edges; the witness should use the rw
        # edge when asked for anti-containing cycles.
        h = parse_history(
            "r1(x0, 10) w2(x2, 15) c2 r1(x2, 15) c1 [x0 << x2]"
        )
        dsg = DSG(h)
        (cycle,) = dsg.find_cycles(
            lambda e: True, special=lambda e: e.kind is DepKind.RW, limit=1
        )
        assert any(e.kind is DepKind.RW for e in cycle.edges)

    def test_acyclic_graph_yields_nothing(self):
        h = parse_history("w1(x1) c1 r2(x1) c2")
        assert DSG(h).find_cycles(lambda e: True) == []

    # networkx's enumeration is the oracle: the sets must agree, the order is
    # networkx's own and is not compared.

    def test_node_sets_match_networkx(self):
        nx = pytest.importorskip("networkx")
        compared = 0
        for name in HISTORIES:
            dsg = _golden_dsg(name)
            theirs = list(islice(nx.simple_cycles(_digraph(nx, dsg.edges)), 10_000))
            nodesets = {frozenset(nodes) for nodes in theirs}
            if len(theirs) == 10_000 or len(nodesets) >= 5_000:
                continue  # too many to enumerate in a unit test
            mine = dsg.find_cycles(lambda e: True, limit=len(nodesets) + 1)
            assert {frozenset(c.nodes) for c in mine} == nodesets, name
            assert len(mine) == len(nodesets), name
            compared += 1
        assert compared == 57

    def test_every_simple_cycle_once_on_random_graphs(self):
        nx = pytest.importorskip("networkx")
        for seed in range(200):
            rng = random.Random(seed)
            n = rng.randint(2, 8)
            arcs = [
                (a, b)
                for a in range(n)
                for b in range(n)
                if a != b and rng.random() < 0.4
            ]
            arcs += rng.sample(arcs, len(arcs) // 3)  # parallel rows
            rng.shuffle(arcs)
            src, dst = [a for a, _ in arcs], [b for _, b in arcs]
            adj = graph.adjacency_of(range(len(arcs)), src, dst)
            mine = [_rotated(nodes) for nodes in graph.simple_cycles(adj)]
            theirs = [_rotated(nodes) for nodes in nx.simple_cycles(nx.DiGraph(arcs))]
            assert sorted(mine) == sorted(theirs), seed

    @pytest.mark.parametrize("special", [None, _anti], ids=["any", "rw"])
    def test_first_ten_against_networkx(self, special):
        nx = pytest.importorskip("networkx")
        for name in HISTORIES:
            dsg = _golden_dsg(name)
            cycles = dsg.find_cycles(_item, special=special)
            assert len({frozenset(c.nodes) for c in cycles}) == len(cycles), name
            for cycle in cycles:
                assert len(set(cycle.nodes)) == len(cycle), name  # simple
                assert all(map(_item, cycle.edges)), name
                if special is not None:
                    assert any(map(special, cycle.edges)), name
                for e in cycle.edges:
                    parallel = [p for p in dsg.edges_between(e.src, e.dst) if _item(p)]
                    preferred = [p for p in parallel if special and special(p)]
                    assert e == (preferred or parallel)[0], name
            # How many qualifying node sets there are, up to ten.
            kept = [e for e in dsg.edges if _item(e)]
            marked = {(e.src, e.dst) for e in kept if special and special(e)}
            total = set()
            for nodes in nx.simple_cycles(_digraph(nx, kept)):
                arcs = zip(nodes, nodes[1:] + nodes[:1])
                if special is None or not marked.isdisjoint(arcs):
                    total.add(frozenset(nodes))
                    if len(total) == 10:
                        break
            assert len(cycles) == len(total), name
