"""Tests for DSG construction and cycle searches (repro.core.dsg)."""

import pytest

from repro.core import DSG, Analysis, parse_history
from repro.core.conflicts import DepKind
from repro.core.dsg import Cycle, dependency_edge
from repro.core.conflicts import Edge
from repro.core.objects import Version
from repro.core.phenomena import Phenomenon


class TestStructure:
    def test_nodes_are_committed_transactions(self):
        h = parse_history("w1(x1) c1 w2(x2) a2 w3(y3) c3")
        assert DSG(h).nodes == (1, 3)

    def test_setup_transactions_are_nodes(self):
        h = parse_history("r1(x0) c1")
        assert DSG(h).nodes == (0, 1)

    def test_edges_between(self):
        h = parse_history("w1(x1) c1 r2(x1) w2(x2) c2")
        dsg = DSG(h)
        kinds = {e.kind for e in dsg.edges_between(1, 2)}
        assert kinds == {DepKind.WW, DepKind.WR}
        assert dsg.edges_between(2, 1) == []

    def test_edges_of_filters(self):
        h = parse_history("w1(x1) c1 r2(x1) w2(x2) c2")
        dsg = DSG(h)
        assert len(dsg.edges_of(DepKind.WW)) == 1
        assert len(dsg.edges_of(DepKind.WR, via_predicate=True)) == 0

    def test_to_dot_contains_edges(self):
        h = parse_history("w1(x1) c1 r2(x1) c2")
        dot = DSG(h).to_dot()
        assert "T1 -> T2" in dot and "digraph" in dot


class TestAcyclicity:
    def test_serial_history_acyclic(self):
        h = parse_history("w1(x1) c1 r2(x1) w2(x2) c2")
        dsg = DSG(h)
        assert dsg.is_acyclic()
        assert dsg.topological_order() == [1, 2]

    def test_write_cycle_detected(self):
        h = parse_history("w1(x1) w2(x2) w2(y2) c2 w1(y1) c1 [x1 << x2, y2 << y1]")
        dsg = DSG(h)
        assert not dsg.is_acyclic()
        cycle = dsg.find_cycle(lambda e: e.kind is DepKind.WW)
        assert cycle is not None
        assert set(cycle.nodes) == {1, 2}


class TestFindCycle:
    """The searches the reports own: G2 (a cycle through an anti-dependency)
    and G-single (exactly one, closed by dependency edges)."""

    def test_dependency_only_search(self):
        h = parse_history(
            "r1(x0, 5) w1(x1, 1) r2(x1, 1) r2(y0, 5) c2 r1(y0, 5) w1(y1, 9) c1"
        )
        assert DSG(h).find_cycle(dependency_edge) is None  # no G1c
        assert Analysis(h).exhibits(Phenomenon.G2)

    def test_exactly_one_anti(self):
        # Lost update: one rw + one ww.
        h = parse_history(
            "r1(x0, 10) r2(x0, 10) w2(x2, 15) c2 w1(x1, 11) c1 [x0 << x2 << x1]"
        )
        (witness,) = Analysis(h).report(Phenomenon.G_SINGLE).witnesses
        assert witness.cycle.count(DepKind.RW) == 1

    def test_exactly_one_anti_rejects_write_skew(self):
        h = parse_history(
            "r1(x0) r1(y0) r2(x0) r2(y0) w1(x1) w2(y2) c1 c2 [x0 << x1, y0 << y2]"
        )
        analysis = Analysis(h)
        assert not analysis.exhibits(Phenomenon.G_SINGLE)
        # ... though a (two-anti) cycle does exist:
        (witness,) = analysis.report(Phenomenon.G2).witnesses
        assert witness.cycle.count(DepKind.RW) == 2


class TestCycleClass:
    def test_cycle_must_chain(self):
        e1 = Edge(1, 2, DepKind.WW, "x", Version("x", 2))
        e2 = Edge(3, 1, DepKind.WW, "y", Version("y", 1))
        with pytest.raises(ValueError):
            Cycle((e1, e2))

    def test_cycle_describe(self):
        e1 = Edge(1, 2, DepKind.WW, "x", Version("x", 2))
        e2 = Edge(2, 1, DepKind.WW, "y", Version("y", 1))
        c = Cycle((e1, e2))
        assert c.describe() == "T1 -ww-> T2 -ww-> T1"
        assert len(c) == 2
        assert c.count(DepKind.WW) == 2

    def test_empty_cycle_rejected(self):
        with pytest.raises(ValueError):
            Cycle(())


class TestDepends:
    """Definition 8: the transitive dependency relation."""

    def test_direct_dependency(self):
        h = parse_history("w1(x1) c1 r2(x1) c2")
        dsg = DSG(h)
        assert dsg.directly_depends(1, 2)
        assert dsg.depends(1, 2)
        assert not dsg.depends(2, 1)

    def test_transitive_dependency(self):
        h = parse_history("w1(x1) c1 r2(x1) w2(y2) c2 r3(y2) c3")
        dsg = DSG(h)
        assert dsg.depends(1, 3)
        assert not dsg.directly_depends(1, 3)

    def test_anti_edges_are_not_dependencies(self):
        # Only an rw edge from T1 to T2: T2 does not *depend* on T1.
        h = parse_history("r1(x0) c1 w2(x2) c2")
        dsg = DSG(h)
        assert not dsg.depends(1, 2)

    def test_not_reflexive(self):
        h = parse_history("w1(x1) c1")
        assert not DSG(h).depends(1, 1)

    def test_repeated_questions_share_one_adjacency(self):
        """``depends`` and ``is_acyclic`` read the DSG's cached views: a
        hundred questions build the dependency adjacency once and walk it,
        not filter every edge again each (one call per edge per question,
        and as many again to file them)."""
        import sys

        from repro.workloads import synthetic_history

        h = synthetic_history(n_txns=200, n_objects=20, stale_read_fraction=0.5, seed=5)
        dsg = DSG(h)
        calls = builds = 0

        def profile(frame, event, _arg):
            nonlocal calls, builds
            calls += event == "call" or event == "c_call"
            # The adjacency builders, by the names they have had.
            builds += event == "call" and frame.f_code.co_name in (
                "_adjacency", "_filtered", "adjacency", "adjacency_of",
            )

        pairs = [(i, i + 7) for i in range(1, 101)]
        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            answers = [dsg.depends(a, b) for a, b in pairs]
            acyclic = {dsg.is_acyclic() for _ in range(100)}
        finally:
            sys.setprofile(previous)
        assert len(dsg.edges) > 1_000 and True in answers and False in answers
        assert acyclic == {False}
        assert builds == 2  # the dependency view, the full view
        assert calls < 100 * len(dsg.edges)

    def test_paper_pl2_reading(self):
        """Section 5.2 item 3: if T2 depends on T1, T1 cannot depend on T2
        — equivalent to no G1c — checked on a G1c witness."""
        h = parse_history("w1(x1) w2(y2) r1(y2) r2(x1) c1 c2")
        dsg = DSG(h)
        assert dsg.depends(1, 2) and dsg.depends(2, 1)  # the violation
        assert Analysis(h).exhibits(Phenomenon.G1C)
