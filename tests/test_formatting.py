"""Round-trip tests for the notation formatter (repro.core.formatting)."""

import pytest

from repro.core import format_history, formatting, parse_history
from repro.core.canonical import ALL_CANONICAL
from repro.core.objects import Version


def assert_round_trip(history):
    text = format_history(history)
    reparsed = parse_history(text, auto_complete=True)
    assert reparsed.events == history.events
    assert reparsed.version_order == history.version_order


class TestRoundTrip:
    def test_simple(self):
        assert_round_trip(parse_history("w1(x1, 5) r2(x1, 5) c1 c2"))

    def test_multi_write_uses_explicit_seq(self):
        h = parse_history("w1(x1) w1(x1) c1")
        text = format_history(h)
        assert "x1.1" in text and "x1.2" in text
        assert_round_trip(h)

    def test_dead_version(self):
        assert_round_trip(parse_history("w1(x1) c1 w2(x2, dead) c2"))

    def test_predicate_read_with_matches(self):
        assert_round_trip(
            parse_history("w1(x1) w2(y2) c1 c2 r3(P: x1*, y2) c3")
        )

    def test_stray_match_declaration_emitted_as_block(self):
        h = parse_history("w1(x1) w2(y2) c1 c2 r3(P: x1) c3 [P matches: y2]")
        text = format_history(h)
        assert "[P matches: y2]" in text
        assert_round_trip(h)

    def test_explicit_version_order(self):
        h = parse_history("w1(x1) w2(x2) c1 c2 [x2 << x1]")
        assert "x2 << x1" in format_history(h)
        assert_round_trip(h)

    def test_begin_with_level(self):
        assert_round_trip(parse_history("b1@PL-2 w1(x1) c1"))

    def test_cursor_read(self):
        h = parse_history("w1(x1) c1 rc2(x1) c2")
        assert "rc2(x1)" in format_history(h)
        assert_round_trip(h)

    def test_setup_versions_survive(self):
        assert_round_trip(parse_history("r1(x0, 5) w1(x1, 6) c1"))


@pytest.mark.parametrize("canon", ALL_CANONICAL, ids=lambda c: c.name)
def test_every_canonical_history_round_trips(canon):
    assert_round_trip(canon.history)


def test_str_of_history_is_its_notation():
    h = parse_history("w1(x1) c1")
    assert str(h).startswith("w1(x1) c1")


class TestEngineHistoryRoundTrips:
    """Engine histories use namespaced objects and field predicates; the
    textual form must preserve verdicts (predicates become extensional with
    inferred relations)."""

    def engine_history(self):
        from repro.core.predicates import FieldPredicate
        from repro.engine import Database, SnapshotIsolationScheduler

        db = Database(SnapshotIsolationScheduler())
        db.load({"emp:1": {"dept": "Sales", "sal": 1}})
        pred = FieldPredicate("emp", "dept", "==", "Sales")
        t1 = db.begin()
        t1.count(pred)
        t2 = db.begin()
        t2.insert("emp", {"dept": "Sales", "sal": 2})
        t2.commit()
        t1.write("x", 0)
        t1.commit()
        return db.history()

    def test_braced_objects_round_trip(self):
        h = self.engine_history()
        text = format_history(h)
        assert "{emp:1}" in text
        reparsed = parse_history(text, auto_complete=True)
        assert [type(e).__name__ for e in reparsed.events] == [
            type(e).__name__ for e in h.events
        ]

    def test_predicate_relations_inferred(self):
        h = self.engine_history()
        reparsed = parse_history(format_history(h), auto_complete=True)
        _i, pread = reparsed.predicate_reads[0]
        assert pread.predicate.covers("emp:1")
        assert not pread.predicate.covers("x")

    def test_verdicts_survive_text_round_trip(self):
        import repro
        from repro.core.levels import ANSI_CHAIN

        h = self.engine_history()
        reparsed = parse_history(format_history(h), auto_complete=True)
        for level in ANSI_CHAIN:
            assert (
                repro.satisfies(h, level).ok
                == repro.satisfies(reparsed, level).ok
            )


#: Multi-write transactions, ``.seq`` labels (read, ordered, matched),
#: setup versions, dead versions and predicate reads.
LABEL_CASES = (
    "w1(x1) w1(x1) c1 r2(x1.2) c2",
    "r1(x0, 5) w1(x1, 6) w1(x1, 7) w1(x1, 8) c1 r2(x1.3, 8) w2(x2, 9) c2",
    "w1(x1) r2(x1.1) w1(x1) c1 c2",
    "w1(x1) w1(x1) w2(x2) c2 c1 [x1.2 << x2]",
    "w1(x1) w1(x1) w2(y2) w2(y2, dead) c1 c2 r3(P: x1.2*, y2.2) c3",
    "w1(x1) w2(y2) w2(y2) c1 c2 r3(P: x1) c3 [P matches: y2.2]",
    "r1(x0, 1) r1(y0, 2) w2(x2, 3) w2(x2, 4) c2 r1(P: x0*, y0) c1",
)


def _label_corpus():
    from repro.service import StressConfig, run_stress

    yield from (canon.history for canon in ALL_CANONICAL)
    yield from (parse_history(text) for text in LABEL_CASES)
    yield TestEngineHistoryRoundTrips().engine_history()
    yield run_stress(StressConfig(clients=3, txns_per_client=4, keys=4, seed=2)).history


def _definitional_label(history, version):
    """The label rule spelled out: a writer's labels carry ``.seq`` when
    ``x_{i:2}`` is one of the history's writes."""
    obj = formatting._obj_label(version.obj)
    if version.is_unborn:
        return f"{obj}init"
    if Version(version.obj, version.tid, 2) in history.writes or version.seq != 1:
        return f"{obj}{version.tid}.{version.seq}"
    return f"{obj}{version.tid}"


class TestLabelRule:
    def test_text_follows_the_definitional_rule(self, monkeypatch):
        histories = list(_label_corpus())
        texts = [format_history(h) for h in histories]
        assert any(".3" in text for text in texts)
        assert any("matches: y2.2" in text for text in texts)
        monkeypatch.setattr(formatting, "_version_label", _definitional_label)
        assert [format_history(h) for h in histories] == texts

    def test_no_version_is_built_per_label(self, monkeypatch):
        histories = list(_label_corpus())
        for history in histories:
            history.version_order  # built once per history, on first read
        built = []
        new = Version.__new__

        def counted(cls, *args, **kwargs):
            built.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Version, "__new__", counted)
        for history in histories:
            format_history(history)
        assert built == []

    @pytest.mark.parametrize("text", LABEL_CASES)
    def test_label_cases_round_trip(self, text):
        assert_round_trip(parse_history(text))
