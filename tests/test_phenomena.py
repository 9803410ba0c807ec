"""Tests for phenomena detection G0–G2 (repro.core.phenomena)."""


from repro.core import Analysis, parse_history
from repro.core.phenomena import Phenomenon as G


def analysis(text, **kw):
    return Analysis(parse_history(text, **kw))


class TestG0:
    def test_write_cycle(self):
        a = analysis("w1(x1) w2(x2) w2(y2) c2 w1(y1) c1 [x1 << x2, y2 << y1]")
        assert a.exhibits(G.G0)

    def test_uncommitted_interleaving_allowed(self):
        # The paper's point: PL-1 is more permissive than P0 — concurrent
        # transactions may interleave writes as long as *committed* versions
        # are consistently ordered.
        a = analysis("w1(x1) w2(x2) w2(y2) c2 w1(y1) c1 [x1 << x2, y1 << y2]")
        assert not a.exhibits(G.G0)

    def test_witness_carries_cycle(self):
        a = analysis("w1(x1) w2(x2) w2(y2) c2 w1(y1) c1 [x1 << x2, y2 << y1]")
        report = a.report(G.G0)
        assert report.witnesses[0].cycle is not None


class TestG1a:
    def test_aborted_read(self):
        a = analysis("w1(x1) r2(x1) c2 a1")
        assert a.exhibits(G.G1A)

    def test_reader_must_commit(self):
        a = analysis("w1(x1) r2(x1) a2 a1")
        assert not a.exhibits(G.G1A)

    def test_read_before_abort_still_counts(self):
        a = analysis("w1(x1) r2(x1) a1 c2")
        assert a.exhibits(G.G1A)

    def test_via_version_set(self):
        a = analysis("w1(x1) r2(P: x1) c2 a1")
        assert a.exhibits(G.G1A)

    def test_witness_identifies_reader(self):
        a = analysis("w1(x1) r2(x1) c2 a1")
        assert a.report(G.G1A).witnesses[0].tid == 2

    def test_committed_writer_is_clean(self):
        a = analysis("w1(x1) r2(x1) c1 c2")
        assert not a.exhibits(G.G1A)


class TestG1b:
    def test_intermediate_read(self):
        a = analysis("w1(x1.1) r2(x1.1) c2 w1(x1.2) c1")
        assert a.exhibits(G.G1B)

    def test_final_read_is_clean(self):
        a = analysis("w1(x1.1) w1(x1.2) r2(x1.2) c1 c2")
        assert not a.exhibits(G.G1B)

    def test_own_intermediate_read_is_clean(self):
        a = analysis("w1(x1.1) r1(x1.1) w1(x1.2) c1")
        assert not a.exhibits(G.G1B)

    def test_uncommitted_reader_is_clean(self):
        a = analysis("w1(x1.1) r2(x1.1) a2 w1(x1.2) c1")
        assert not a.exhibits(G.G1B)

    def test_setup_versions_are_not_intermediate(self):
        a = analysis("r1(x0) c1")
        assert not a.exhibits(G.G1B)

    def test_via_version_set(self):
        a = analysis("w1(x1.1) r2(P: x1.1) c2 w1(x1.2) c1")
        assert a.exhibits(G.G1B)


class TestG1c:
    def test_mutual_reads(self):
        a = analysis("w1(x1) w2(y2) r1(y2) r2(x1) c1 c2")
        assert a.exhibits(G.G1C)

    def test_includes_g0(self):
        # G1c subsumes write cycles (the paper notes G1c includes G0).
        a = analysis("w1(x1) w2(x2) w2(y2) c2 w1(y1) c1 [x1 << x2, y2 << y1]")
        assert a.exhibits(G.G1C)

    def test_anti_dependency_cycle_is_not_g1c(self):
        a = analysis(
            "r1(x0, 5) w1(x1, 1) r2(x1, 1) r2(y0, 5) c2 r1(y0, 5) w1(y1, 9) c1"
        )
        assert not a.exhibits(G.G1C)


class TestG1Composite:
    def test_any_part_triggers(self):
        assert analysis("w1(x1) r2(x1) c2 a1").exhibits(G.G1)
        assert analysis("w1(x1.1) r2(x1.1) c2 w1(x1.2) c1").exhibits(G.G1)
        assert analysis("w1(x1) w2(y2) r1(y2) r2(x1) c1 c2").exhibits(G.G1)

    def test_clean_history(self):
        assert not analysis("w1(x1) c1 r2(x1) c2").exhibits(G.G1)


class TestG2:
    def test_single_anti_cycle(self):
        a = analysis("r1(x0, 10) w2(x2, 15) c2 r1(x2, 15) c1 [x0 << x2]")
        assert a.exhibits(G.G2)

    def test_pure_dependency_cycle_is_not_g2(self):
        a = analysis("w1(x1) w2(y2) r1(y2) r2(x1) c1 c2")
        assert not a.exhibits(G.G2)

    def test_acyclic_history_clean(self):
        a = analysis("w1(x1) c1 r2(x1) w2(x2) c2")
        assert not a.exhibits(G.G2)


class TestG2Item:
    def test_item_anti_cycle(self):
        a = analysis(
            "r1(x0) r2(x0) w2(x2) c2 w1(x1) c1 [x0 << x2 << x1]"
        )
        assert a.exhibits(G.G2_ITEM)

    def test_predicate_only_cycle_excluded(self):
        # The phantom: cycle exists only through a predicate-anti edge.
        a = analysis(
            "r1(Dept=Sales: x0*) w2(y2) c2 r1(y2) c1 [Dept=Sales matches: y2]"
        )
        assert not a.exhibits(G.G2_ITEM)
        assert a.exhibits(G.G2)

    def test_shares_g2_witness_without_predicate_anti_edges(self):
        # No predicate anti-dependency edge: the G2 and G2-item filters
        # select the same cycles, so one pass finds one witness for both —
        # in either query order, each under its own wording.
        text = "r1(x0) r2(x0) w2(x2) c2 w1(x1) c1 [x0 << x2 << x1]"
        for first, second in ((G.G2_ITEM, G.G2), (G.G2, G.G2_ITEM)):
            a = analysis(text)
            one, other = a.report(first), a.report(second)
            assert one.witnesses[0].cycle is other.witnesses[0].cycle
            assert "item-anti-dependency" in a.report(G.G2_ITEM).describe()
            assert "item-anti-dependency" not in a.report(G.G2).describe()
            assert {"G2", "G2-item"} <= set(a.timings)

    def test_own_pass_with_predicate_anti_edges(self):
        # A phantom cycle next to an item one: G2-item must avoid the
        # predicate edge, so it cannot borrow G2's witness.
        a = analysis(
            "r1(Dept=Sales: x0*) w2(y2) c2 r1(y2) c1 "
            "r3(z0) r4(z0) w4(z4) c4 w3(z3) c3 "
            "[z0 << z4 << z3] [Dept=Sales matches: y2]"
        )
        assert a.exhibits(G.G2) and a.exhibits(G.G2_ITEM)
        item_cycle = a.report(G.G2_ITEM).witnesses[0].cycle
        assert not any(e.via_predicate for e in item_cycle.edges)


class TestReports:
    def test_report_memoized(self):
        a = analysis("w1(x1) c1")
        assert a.report(G.G0) is a.report(G.G0)

    def test_describe_mentions_phenomenon(self):
        a = analysis("w1(x1) r2(x1) c2 a1")
        assert "G1a" in a.report(G.G1A).describe()
        assert "EXHIBITED" in a.report(G.G1A).describe()

    def test_bool_protocol(self):
        a = analysis("w1(x1) c1")
        assert not a.report(G.G0)
