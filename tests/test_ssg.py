"""Tests for start-ordered serialization graphs (repro.core.ssg)."""

from repro.core import DSG, Analysis, parse_history
from repro.core.conflicts import DepKind
from repro.core.ssg import SSG, start_dependencies, starts_before


class TestStartsBefore:
    def test_commit_before_first_event(self):
        h = parse_history("w1(x1) c1 w2(y2) c2")
        assert starts_before(h, 1, 2)
        assert not starts_before(h, 2, 1)

    def test_overlapping_transactions(self):
        h = parse_history("w1(x1) w2(y2) c1 c2")
        assert not starts_before(h, 1, 2)
        assert not starts_before(h, 2, 1)

    def test_begin_event_used_when_present(self):
        h = parse_history("b2 w1(x1) c1 w2(y2) c2")
        assert not starts_before(h, 1, 2)

    def test_setup_transactions_precede_everything(self):
        h = parse_history("r1(x0) c1")
        assert starts_before(h, 0, 1)
        assert not starts_before(h, 1, 0)


class TestStartDependencies:
    def test_serial_chain(self):
        h = parse_history("w1(x1) c1 w2(y2) c2 w3(z3) c3")
        edges = {(e.src, e.dst) for e in start_dependencies(h)}
        assert edges == {(1, 2), (1, 3), (2, 3)}

    def test_only_committed_transactions(self):
        h = parse_history("w1(x1) c1 w2(y2) a2 w3(z3) c3")
        edges = {(e.src, e.dst) for e in start_dependencies(h)}
        assert edges == {(1, 3)}


class TestSSG:
    def test_contains_dsg_edges_plus_start_edges(self):
        h = parse_history("w1(x1) c1 r2(x1) c2")
        ssg = SSG(h)
        kinds = {e.kind for e in ssg.edges}
        assert DepKind.SO in kinds and DepKind.WR in kinds

    def test_start_edge_lookup(self):
        h = parse_history("w1(x1) c1 r2(x1) c2")
        ssg = SSG(h)
        assert DepKind.SO in {e.kind for e in ssg.edges_between(1, 2)}
        assert ssg.edges_between(2, 1) == []

    def test_start_rows_count_as_dependencies(self):
        h = parse_history("w1(x1) c1 w2(y2) c2")
        assert SSG(h).depends(1, 2)
        assert not DSG(h).depends(1, 2)

    def test_shares_no_rows_with_the_analysis_dsg(self):
        analysis = Analysis(parse_history("w1(x1) c1 r2(x1) c2"))
        assert len(analysis.ssg.table) == len(analysis.dsg.table) + 1
        assert [str(e) for e in analysis.dsg.edges] == ["T1 -wr-> T2"]
