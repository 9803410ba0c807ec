"""Tests for the lock manager (repro.engine.locks)."""

import gc

import pytest

from repro.engine.locks import LockManager, LockMode
from repro.exceptions import WouldBlock


class TestItemLocks:
    def test_shared_reads(self):
        lm = LockManager()
        lm.acquire_item(1, "x", LockMode.READ)
        lm.acquire_item(2, "x", LockMode.READ)  # no conflict

    def test_write_blocks_read(self):
        lm = LockManager()
        lm.acquire_item(1, "x", LockMode.WRITE)
        with pytest.raises(WouldBlock) as exc:
            lm.acquire_item(2, "x", LockMode.READ)
        assert exc.value.holders == {1}

    def test_read_blocks_write(self):
        lm = LockManager()
        lm.acquire_item(1, "x", LockMode.READ)
        with pytest.raises(WouldBlock):
            lm.acquire_item(2, "x", LockMode.WRITE)

    def test_write_blocks_write(self):
        lm = LockManager()
        lm.acquire_item(1, "x", LockMode.WRITE)
        with pytest.raises(WouldBlock):
            lm.acquire_item(2, "x", LockMode.WRITE)

    def test_reacquire_is_idempotent(self):
        lm = LockManager()
        lm.acquire_item(1, "x", LockMode.WRITE)
        lm.acquire_item(1, "x", LockMode.WRITE)
        lm.acquire_item(1, "x", LockMode.READ)  # write covers read
        assert lm.holders_of("x") == {1: LockMode.WRITE}

    def test_upgrade_when_alone(self):
        lm = LockManager()
        lm.acquire_item(1, "x", LockMode.READ)
        lm.acquire_item(1, "x", LockMode.WRITE)
        assert lm.holders_of("x")[1] is LockMode.WRITE

    def test_upgrade_blocked_by_other_reader(self):
        lm = LockManager()
        lm.acquire_item(1, "x", LockMode.READ)
        lm.acquire_item(2, "x", LockMode.READ)
        with pytest.raises(WouldBlock):
            lm.acquire_item(1, "x", LockMode.WRITE)

    def test_release_unblocks(self):
        lm = LockManager()
        lm.acquire_item(1, "x", LockMode.WRITE)
        lm.release_item(1, "x")
        lm.acquire_item(2, "x", LockMode.WRITE)

    def test_short_read_release_preserves_write(self):
        lm = LockManager()
        lm.acquire_item(1, "x", LockMode.WRITE)
        lm.downgrade_or_release_read(1, "x")
        assert lm.holders_of("x")[1] is LockMode.WRITE


class TestRelationLocks:
    def test_relation_lock_blocks_writer(self):
        lm = LockManager()
        lm.acquire_relation(1, "emp")
        with pytest.raises(WouldBlock) as exc:
            lm.acquire_item(2, "emp:1", LockMode.WRITE)
        assert exc.value.holders == {1}

    def test_writer_blocks_relation_lock(self):
        lm = LockManager()
        lm.acquire_item(1, "emp:1", LockMode.WRITE)
        with pytest.raises(WouldBlock):
            lm.acquire_relation(2, "emp")

    def test_own_writes_do_not_block_own_predicate(self):
        lm = LockManager()
        lm.acquire_item(1, "emp:1", LockMode.WRITE)
        lm.acquire_relation(1, "emp")

    def test_relation_locks_are_shared(self):
        lm = LockManager()
        lm.acquire_relation(1, "emp")
        lm.acquire_relation(2, "emp")

    def test_item_reads_unaffected_by_relation_lock(self):
        lm = LockManager()
        lm.acquire_relation(1, "emp")
        lm.acquire_item(2, "emp:1", LockMode.READ)

    def test_release_relation(self):
        lm = LockManager()
        lm.acquire_relation(1, "emp")
        lm.release_relation(1, "emp")
        lm.acquire_item(2, "emp:1", LockMode.WRITE)

    def test_other_relation_untouched(self):
        lm = LockManager()
        lm.acquire_relation(1, "emp")
        lm.acquire_item(2, "dept:1", LockMode.WRITE)


class TestReleaseAll:
    def test_drops_everything(self):
        lm = LockManager()
        lm.acquire_item(1, "x", LockMode.WRITE)
        lm.acquire_item(1, "y", LockMode.READ)
        lm.acquire_relation(1, "emp")
        lm.release_all(1)
        lm.acquire_item(2, "x", LockMode.WRITE)
        lm.acquire_item(2, "y", LockMode.WRITE)
        lm.acquire_relation(2, "emp")

    def test_held_by(self):
        lm = LockManager()
        lm.acquire_item(1, "x", LockMode.WRITE)
        lm.acquire_item(1, "y", LockMode.READ)
        assert set(lm.held_by(1)) == {"x", "y"}

    def test_write_locked_index_maintained(self):
        lm = LockManager()
        lm.acquire_item(1, "emp:1", LockMode.WRITE)
        lm.release_all(1)
        lm.acquire_relation(2, "emp")  # no stale write-lock entry


class TestRefusals:
    """``_refusal_stands``: a refused request would be refused again, on the
    same holders, exactly while nothing it was decided on has changed."""

    def test_stands_until_the_holder_releases(self):
        lm = LockManager()
        lm.acquire_item(1, "x", LockMode.WRITE)
        with pytest.raises(WouldBlock):
            lm.acquire_item(2, "x", LockMode.READ)
        assert lm._refusal_stands(2)
        lm.acquire_item(3, "y", LockMode.WRITE)  # another object
        lm.acquire_relation(3, "emp")  # another relation
        assert lm._refusal_stands(2)
        lm.release_item(1, "x")
        assert not lm._refusal_stands(2)

    def test_a_new_holder_moves_the_stamp(self):
        lm = LockManager()
        lm.acquire_item(1, "x", LockMode.READ)
        with pytest.raises(WouldBlock):
            lm.acquire_item(2, "x", LockMode.WRITE)
        lm.acquire_item(3, "x", LockMode.READ)
        assert not lm._refusal_stands(2)

    def test_write_refusal_watches_predicate_holders(self):
        lm = LockManager()
        lm.acquire_relation(1, "emp")
        with pytest.raises(WouldBlock):
            lm.acquire_item(2, "emp:1", LockMode.WRITE)
        assert lm._refusal_stands(2)
        lm.acquire_relation(3, "emp")
        assert not lm._refusal_stands(2)

    def test_predicate_refusal_watches_write_locks_of_the_relation(self):
        lm = LockManager()
        lm.acquire_item(1, "emp:1", LockMode.WRITE)
        with pytest.raises(WouldBlock):
            lm.acquire_relation(2, "emp")
        lm.acquire_item(3, "emp:2", LockMode.READ)  # not a WRITE lock
        assert lm._refusal_stands(2)
        lm.acquire_item(3, "emp:3", LockMode.WRITE)
        assert not lm._refusal_stands(2)

    def test_regrants_leave_the_stamp(self):
        lm = LockManager()
        lm.acquire_item(1, "x", LockMode.WRITE)
        lm.acquire_relation(1, "emp")
        with pytest.raises(WouldBlock):
            lm.acquire_item(2, "x", LockMode.READ)
        lm.acquire_item(1, "x", LockMode.WRITE)
        lm.acquire_item(1, "x", LockMode.READ)
        lm.acquire_relation(1, "emp")
        assert lm._refusal_stands(2)

    def test_release_all_drops_the_refusal(self):
        lm = LockManager()
        lm.acquire_item(1, "x", LockMode.WRITE)
        with pytest.raises(WouldBlock):
            lm.acquire_item(2, "x", LockMode.READ)
        lm.release_all(2)  # e.g. wounded while it waited
        assert not lm._refusal_stands(2)
        assert not lm._refusal_stands(3)  # never refused

    def test_release_all_visits_only_the_objects_held(self, monkeypatch):
        lm = LockManager()
        for i in range(50):
            lm.acquire_item(1, f"o{i}", LockMode.WRITE)
        lm.acquire_item(2, "z", LockMode.READ)
        released = []
        release = LockManager.release_item

        def counting(self, tid, obj):
            released.append(obj)
            release(self, tid, obj)

        monkeypatch.setattr(LockManager, "release_item", counting)
        lm.release_all(2)
        assert released == ["z"]
        assert lm.held_by(2) == () and len(lm.held_by(1)) == 50

    @pytest.mark.parametrize("kind", ["read", "write", "predicate"])
    def test_a_refusal_leaves_no_garbage(self, kind):
        lm = LockManager()
        lm.acquire_item(1, "emp:1", LockMode.WRITE)
        lm.acquire_item(1, "x", LockMode.WRITE)
        request = {
            "read": lambda: lm.acquire_item(2, "x", LockMode.READ),
            "write": lambda: lm.acquire_item(2, "emp:1", LockMode.WRITE),
            "predicate": lambda: lm.acquire_relation(2, "emp"),
        }[kind]
        gc.collect()
        gc.disable()
        try:
            for _ in range(100):
                try:
                    request()
                except WouldBlock:
                    pass
            # A raised exception kept alive in its own frame (``block =
            # WouldBlock(...); raise block``) would leave a cycle per refusal.
            assert gc.collect() == 0
        finally:
            gc.enable()
