"""Round-trip tests for the notation formatter (repro.core.formatting)."""

import collections

import pytest

from repro.core import format_event, format_history, formatting, parse_history
from repro.core.canonical import ALL_CANONICAL
from repro.core.events import Event
from repro.core.history import History
from repro.core.objects import Version

from .reference_formatting import reference_format, reference_label


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


def _engine_corpus():
    """Every family's recorder histories: the simulator and scheduler
    goldens' configurations (Figure 1 profiles, predicates with inserts and
    deletes, mixed levels), seeds 0 and 1."""
    from .test_scheduler_golden import CONFIGS as SCHEDULER_CONFIGS
    from .test_simulator_golden import CONFIGS as SIMULATOR_CONFIGS

    for run in (*SIMULATOR_CONFIGS.values(), *SCHEDULER_CONFIGS.values()):
        for seed in (0, 1):
            yield run(seed).history


def _service_corpus():
    from repro.service import ClusterConfig, StressConfig, run_stress

    for seed in (1, 2):
        yield run_stress(StressConfig(clients=3, txns_per_client=4, keys=4, seed=seed)).history
        yield run_stress(
            StressConfig(
                clients=3, txns_per_client=4, keys=4, seed=seed,
                cluster=ClusterConfig(shards=2, replicas=1),
            )
        ).history


class TestLabelRule:
    def test_text_follows_the_definitional_rule(self, monkeypatch):
        histories = list(_label_corpus())
        texts = [format_history(h) for h in histories]
        assert any(".3" in text for text in texts)
        assert any("matches: y2.2" in text for text in texts)
        monkeypatch.setattr(formatting, "_version_label", reference_label)
        assert [format_history(h) for h in histories] == texts

    def test_rows_render_the_reference_text(self):
        """The row walk renders what the event-object formatter it replaced
        renders, the label rule spelled out there (``.seq`` when
        ``x_{i:2}`` is one of the history's writes)."""
        histories = [*_label_corpus(), *_engine_corpus(), *_service_corpus()]
        texts = [format_history(h) for h in histories]
        assert any(".3" in text for text in texts)
        assert any("matches: y2.2" in text for text in texts)
        assert any("*" in text and "{emp:" in text for text in texts)
        assert len(histories) >= 70
        assert texts == [reference_format(h) for h in histories]

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


#: One history per token kind, its input and the text it renders to:
#: levelled begin, cursor read, dead write, ``.seq`` labels, braced object
#: names, a predicate read with ``*`` marks, a ``[P matches: ...]`` block
#: and the order block.
TOKEN_CASES = (
    ("b1@PL-2 w1(x1, 1) c1", "b1@PL-2 w1(x1, 1) c1"),
    ("w1(x1, 1) c1 rc2(x1, 1) c2", "w1(x1, 1) c1 rc2(x1, 1) c2"),
    ("w1(x1, 1) c1 w2(x2, dead) c2", "w1(x1, 1) c1 w2(x2, dead) c2  [x1 << x2]"),
    ("w1(x1) w1(x1) c1 r2(x1.2) c2", "w1(x1.1) w1(x1.2) c1 r2(x1.2) c2"),
    ("w1({o_1}1, 5) c1 r2({o_1}1, 5) c2", "w1({o_1}1, 5) c1 r2({o_1}1, 5) c2"),
    (
        "w1(x1, 1) w2(y2, 2) c1 c2 r3(P: x1*, y2) c3",
        "w1(x1, 1) w2(y2, 2) c1 c2 r3(P: x1*, y2) c3",
    ),
    (
        "w1(x1) w2(y2) c1 c2 r3(P: x1) c3 [P matches: y2]",
        "w1(x1) w2(y2) c1 c2 r3(P: x1) c3  [P matches: y2]",
    ),
    ("w1(x1) w2(x2) c1 c2 [x2 << x1]", "w1(x1) w2(x2) c1 c2  [x2 << x1]"),
)


class TestTokenKinds:
    @pytest.mark.parametrize("given, expected", TOKEN_CASES)
    def test_literal_text(self, given, expected):
        history = parse_history(given)
        assert format_history(history) == expected
        reparsed = parse_history(expected)
        assert reparsed.events == history.events
        assert reparsed.version_order == history.version_order
        assert format_history(reparsed) == expected

    @pytest.mark.parametrize("given, expected", TOKEN_CASES)
    def test_format_event_renders_each_token(self, given, expected):
        history = parse_history(given)
        events = [format_event(history, event) for event in history.events]
        assert " ".join(events) == expected.split("  ")[0]

    def test_format_event_refuses_an_unknown_event(self):
        with pytest.raises(TypeError, match="unknown event type"):
            format_event(parse_history("w1(x1) c1"), Event(1))


class TestRowRendering:
    """``format_history`` walks the log's rows: formatting an engine or a
    service history builds no event object and reads neither
    ``History.events`` nor ``History.writes``."""

    @staticmethod
    def _refuse_objects(monkeypatch):
        built = collections.Counter()
        post_init = Event.__post_init__

        def counted(event):
            built[type(event).__name__] += 1
            post_init(event)

        def refused(name):
            def get(_history):
                raise AssertionError(f"History.{name} read while formatting")

            return property(get)

        monkeypatch.setattr(Event, "__post_init__", counted)
        # A data descriptor outranks what cached_property left on the
        # instance, so any read of the two fails.
        monkeypatch.setattr(History, "events", refused("events"))
        monkeypatch.setattr(History, "writes", refused("writes"))
        return built

    @pytest.mark.parametrize(
        "family",
        ("locking", "optimistic", "snapshot-isolation", "mixed-optimistic", "mv-read-committed"),
    )
    def test_a_recorder_history_builds_no_event(self, family, monkeypatch):
        from .test_simulator_golden import PREDICATES, _config

        result = _config(family, PREDICATES)(3)
        history = result.history
        expected = reference_format(history)
        assert "(P" in expected or ": " in expected  # predicate reads render
        built = self._refuse_objects(monkeypatch)
        assert format_history(history) == expected
        assert built == {}

    @pytest.mark.parametrize("shards", (0, 2))
    def test_a_stress_history_builds_no_event(self, shards, monkeypatch):
        from repro.service import ClusterConfig, StressConfig, run_stress

        cluster = ClusterConfig(shards=shards, replicas=1) if shards else None
        result = run_stress(
            StressConfig(clients=3, txns_per_client=4, keys=4, seed=5, cluster=cluster)
        )
        built = self._refuse_objects(monkeypatch)
        assert format_history(result.history) == result.history_text
        assert built == {}
