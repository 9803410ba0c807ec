"""The fault-schedule type ``Server`` and ``Cluster`` share: one-shot
triggers in creation order, keyed timed actions, and the two orders the
goldens cannot reach (two restarts due in one step; two pending at the end
of a run)."""

from repro.service.schedule import FaultSchedule


def test_triggers_fire_once_in_creation_order():
    faults, log, level = FaultSchedule(), [], [0]
    faults.trigger(lambda: level[0] >= 2, lambda: log.append("b"))
    held = faults.trigger()  # holds its place until armed
    faults.trigger(lambda: level[0] >= 1, lambda: log.append("c"))
    faults.fire()
    assert log == []
    held.arm(lambda: level[0] >= 2, lambda: log.append("held"))
    level[0] = 1
    faults.fire()
    assert log == ["c"]
    level[0] = 2
    faults.fire()
    faults.fire()
    assert log == ["c", "b", "held"]
    assert [t.condition for t in faults.triggers] == [None, None, None]


def test_a_trigger_can_be_polled_by_its_owner():
    faults, log = FaultSchedule(), []
    trigger = faults.trigger(lambda: True, lambda: log.append("x"))
    trigger.poll()
    trigger.poll()
    faults.fire()
    assert log == ["x"]


def test_timed_actions_run_kind_by_kind_in_arming_order():
    faults, log = FaultSchedule(), []
    faults.at((2,), 5, lambda: log.append("heal"))
    faults.at((0, 2), 7, lambda: log.append("restart 2"))
    faults.at((0, 0), 7, lambda: log.append("restart 0"))
    faults.at((1, 0, 1), 6, lambda: log.append("backup"))
    assert faults.next_wake == 5
    faults.run_due(4)
    assert log == []
    faults.run_due(7)
    assert log == ["restart 2", "restart 0", "backup", "heal"]
    assert faults.next_wake is None


def test_rearming_a_key_replaces_its_entry():
    faults, log = FaultSchedule(), []
    faults.at((2,), 5, lambda: log.append("first"))
    faults.at((2,), 9, lambda: log.append("second"))
    faults.run_due(5)
    assert log == [] and faults.next_wake == 9
    faults.run_due(9)
    assert log == ["second"]


def test_settle_runs_what_is_left_in_key_order():
    faults, log = FaultSchedule(), []
    faults.at((0, 2), 50, lambda: log.append("restart 2"))
    faults.at((2,), 40, lambda: log.append("heal"))
    faults.at((0, 0), 60, lambda: log.append("restart 0"))
    faults.settle()
    assert log == ["restart 0", "restart 2", "heal"]
    assert faults.next_wake is None
