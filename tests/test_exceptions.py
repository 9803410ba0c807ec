"""Tests for the exception hierarchy (repro.exceptions)."""

import pytest

from repro.exceptions import (
    DeadlockError,
    EngineError,
    HistoryError,
    InvalidOperation,
    MalformedHistoryError,
    ParseError,
    PredicateError,
    ReproError,
    TransactionAborted,
    ValidationFailure,
    VersionOrderError,
    WorkloadError,
    WouldBlock,
    WriteConflict,
)


class TestHierarchy:
    def test_everything_is_a_repro_error(self):
        for exc_type in (
            HistoryError,
            MalformedHistoryError,
            VersionOrderError,
            ParseError,
            PredicateError,
            EngineError,
            InvalidOperation,
            WorkloadError,
        ):
            assert issubclass(exc_type, ReproError)

    def test_engine_aborts_are_engine_errors(self):
        for exc_type in (TransactionAborted, DeadlockError, ValidationFailure, WriteConflict):
            assert issubclass(exc_type, EngineError)
            assert issubclass(exc_type, TransactionAborted) or exc_type is TransactionAborted

    def test_history_errors_catchable_together(self):
        with pytest.raises(HistoryError):
            raise MalformedHistoryError("x")
        with pytest.raises(HistoryError):
            raise VersionOrderError("x")
        with pytest.raises(HistoryError):
            raise ParseError("x")


class TestMessages:
    def test_transaction_aborted_carries_reason(self):
        exc = TransactionAborted(3, "deadlock")
        assert exc.tid == 3 and exc.reason == "deadlock"
        assert "T3" in str(exc)

    def test_deadlock_error(self):
        exc = DeadlockError(5)
        assert exc.reason == "deadlock"

    def test_validation_failure_names_conflict(self):
        exc = ValidationFailure(2, 7)
        assert exc.conflicting_tid == 7
        assert "T7" in str(exc)

    def test_write_conflict_names_object(self):
        exc = WriteConflict(2, "x", 7)
        assert exc.obj == "x"
        assert "first-committer-wins" in str(exc)

    def test_would_block_lists_holders(self):
        exc = WouldBlock(2, "write lock on 'x'", {5, 3})
        assert exc.holders == {3, 5}
        assert "T3, T5" in str(exc)

    def test_would_block_message_is_lazy_but_reads_the_same(self):
        # The text is formatted on demand; str/args/repr read exactly as
        # they did when it was built in the constructor.
        message = "T2 must wait for write lock on 'x' held by T3, T5"
        exc = WouldBlock(2, "write lock on 'x'", {5, 3})
        assert str(exc) == message
        assert exc.args == (message,)
        assert repr(exc) == f"WouldBlock({message!r})"
        assert str(WouldBlock(1, "predicate lock on relation 'r'", ())) == (
            "T1 must wait for predicate lock on relation 'r' held by nobody"
        )
        with pytest.raises(WouldBlock, match="held by T3, T5"):
            raise exc

    def test_parse_error_position(self):
        exc = ParseError("bad", token="zzz", position=4)
        assert "zzz" in str(exc) and "4" in str(exc)
