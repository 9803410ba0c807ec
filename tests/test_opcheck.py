"""The operation-interval checker, and its agreement with the DSG.

Unit tests drive :func:`repro.analysis.opcheck.check_operations` on
hand-built interval sets (chains, stale reads, unknown outcomes, disjoint
components, real-time windows).  The integration half pins the two-checker
contract from the replication work:

* **agreement** — every strict-serializable cluster run (strict 2PL at
  the primaries, reads never served by a lagging replica) gets the same
  verdict from both ends of the telescope: ``opcheck().ok`` and the
  online DSG monitor certifying PL-3;
* **divergence, explained** — weak runs serving stale replica reads fail
  opcheck with stale-read witnesses while the DSG (correctly) still
  certifies the declared weak level: isolation levels are properties of
  histories, not of client-visible value sequences.
"""


import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import Op, check_operations
from repro.core import IsolationLevel
from repro.service import (
    ClusterConfig,
    NetworkConfig,
    SessionGuarantees,
    StressConfig,
    run_stress,
)


def op(op_id, invoked, responded, reads=(), writes=(), session="c0",
       tid=None):
    return Op(
        op_id=op_id, session=session, tid=tid or op_id, invoked=invoked,
        responded=responded, reads=tuple(reads), writes=tuple(writes),
    )


class TestUnitIntervals:
    def test_empty_is_ok(self):
        result = check_operations([])
        assert result.ok and result.components == 0

    def test_serial_chain(self):
        ops = [
            op(1, 0, 1, writes=[("x", 1)]),
            op(2, 2, 3, reads=[("x", 1)], writes=[("x", 2)]),
            op(3, 4, 5, reads=[("x", 2)]),
        ]
        result = check_operations(ops, initial={"x": 0})
        assert result.ok
        assert result.windows == 3  # fully sequential: one op per window

    def test_stale_read_fails_with_witness(self):
        ops = [
            op(1, 0, 1, writes=[("x", 1)]),
            op(2, 2, 3, reads=[("x", 0)]),  # x=1 already settled
        ]
        result = check_operations(ops, initial={"x": 0})
        assert not result.ok
        (failure,) = result.failures
        (witness,) = failure["witnesses"]
        assert witness["obj"] == "x"
        assert witness["observed"] == 0
        assert witness["expected"] == 1
        assert "stale read" in result.explain()

    def test_concurrent_ops_commute(self):
        # Overlapping intervals: either order must be tried.
        ops = [
            op(1, 0, 10, writes=[("x", 1)]),
            op(2, 0, 10, reads=[("x", 1)], writes=[("x", 2)]),
            op(3, 11, 12, reads=[("x", 2)]),
        ]
        assert check_operations(ops, initial={"x": 0}).ok

    def test_real_time_order_enforced(self):
        # T2 invoked after T1 responded, so T1 < T2 in every witness
        # order; T2's read of the overwritten value cannot linearize.
        ops = [
            op(1, 0, 1, writes=[("x", 1)]),
            op(2, 5, 6, reads=[("x", 0)], writes=[("x", 7)]),
        ]
        assert not check_operations(ops, initial={"x": 0}).ok
        # The same reads with overlapping intervals are fine (T2 may
        # linearize before T1).
        ops = [
            op(1, 0, 6, writes=[("x", 1)]),
            op(2, 5, 6, reads=[("x", 0)], writes=[("x", 7)]),
        ]
        assert check_operations(ops, initial={"x": 0}).ok

    def test_unknown_outcome_is_optional(self):
        # The write op never got its commit reply; a later read may see
        # either the old or the new value.
        unknown = op(1, 0, None, writes=[("x", 1)])
        sees_new = op(2, 5, 6, reads=[("x", 1)])
        sees_old = op(3, 7, 8, reads=[("x", 0)])
        assert check_operations([unknown, sees_new], initial={"x": 0}).ok
        assert check_operations([unknown, sees_old], initial={"x": 0}).ok
        # But it cannot be both applied and not applied.
        result = check_operations(
            [unknown, sees_new, replace_read(sees_old, 9, 10)],
            initial={"x": 0},
        )
        assert not result.ok

    def test_unknown_read_only_dropped(self):
        result = check_operations(
            [op(1, 0, None, reads=[("x", 99)])], initial={"x": 0}
        )
        assert result.ok and result.ops == 0

    def test_disjoint_components_partition(self):
        ops = [
            op(1, 0, 1, writes=[("x", 1)]),
            op(2, 0, 1, writes=[("y", 1)]),
            op(3, 2, 3, reads=[("x", 1)]),
            op(4, 2, 3, reads=[("y", 1)]),
        ]
        result = check_operations(ops)
        assert result.ok and result.components == 2

    def test_budget_exceeded_raises(self):
        ops = [
            op(i, 0, 100, writes=[("x", i)]) for i in range(1, 9)
        ]
        with pytest.raises(RuntimeError, match="explored states"):
            check_operations(ops, initial={"x": 0}, max_states=10)

    def test_explain_on_success_counts(self):
        text = check_operations(
            [op(1, 0, 1, writes=[("x", 1)])], initial={"x": 0}
        ).explain()
        assert "strict-serializable" in text


def replace_read(o: Op, invoked: int, responded: int) -> Op:
    return Op(
        op_id=o.op_id + 100, session=o.session, tid=(o.tid or 0) + 100,
        invoked=invoked, responded=responded, reads=o.reads, writes=o.writes,
    )


FAULTY = NetworkConfig(drop=0.05, duplicate=0.05, min_delay=1, max_delay=4)


def _strict_config(seed, *, guarantees=None, read_preference="primary"):
    return StressConfig(
        scheduler="locking", clients=4, txns_per_client=8, keys=8,
        ops_per_txn=2, seed=seed, network=FAULTY,
        cluster=ClusterConfig(shards=2, replicas=2),
        read_preference=read_preference,
        session_guarantees=guarantees,
        read_only_fraction=0.5,
    )


class TestAgreementWithDSG:
    """Strict-serializable runs: identical verdicts from both checkers."""

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=12, deadline=None)
    def test_primary_reads_agree(self, seed):
        result = run_stress(_strict_config(seed))
        verdict = result.opcheck()
        assert verdict.ok, verdict.explain()
        assert result.monitor.provides(IsolationLevel.PL_3)
        assert result.strongest_level() == IsolationLevel.PL_3

    @pytest.mark.parametrize("seed", range(4))
    def test_guarded_replica_reads_agree(self, seed):
        """Causal+redirect routes every below-floor read back to the
        primary; on these seeds the result is strict-serializable and
        both checkers say so."""
        result = run_stress(
            _strict_config(
                seed,
                guarantees=SessionGuarantees(causal=True),
                read_preference="replica",
            )
        )
        assert result.session_violations == ()
        if result.strongest_level() == IsolationLevel.PL_3:
            assert result.opcheck().ok


#: Divergence table: weak configurations serving stale replica reads.
#: Each row: declared level, cluster config — every row is a run whose
#: client-visible values admit no witness order while its history
#: certifies at the declared level.
DIVERGENCE_TABLE = [
    pytest.param(
        "PL-2",
        ClusterConfig(
            shards=2, replicas=2, replication_every=12,
            replication_lag=(4, 10),
        ),
        id="pl2-slow-replication",
    ),
    pytest.param(
        "PL-2",
        ClusterConfig(
            shards=2, replicas=2, replication_every=12,
            replication_lag=(4, 10),
            partition_primary_after_commits=(1, 5), heal_after=60,
        ),
        id="pl2-partitioned-primary",
    ),
]


def _first_divergent_run(level, cluster):
    """The row's run on the first seed whose client-visible values admit no
    witness order.  Every seed has replica reads behind their session's
    offset (``session_violations``), but offsets count the shard's whole
    log: the value served is *visibly* stale only if the key itself was
    rewritten in the gap, and whether it was is the schedule's business —
    so the seed is searched for, not pinned; the row then says what such a
    run looks like from both ends."""
    for seed in range(16):
        result = run_stress(StressConfig(
            scheduler="locking", level=level, clients=4, txns_per_client=10,
            keys=4, ops_per_txn=2, seed=seed, network=FAULTY, cluster=cluster,
            read_preference="replica", read_only_fraction=0.5,
        ))
        if not result.opcheck().ok:
            return result
    pytest.fail("no seed in range(16) served a visibly stale replica read")


class TestExplainedDivergence:
    """Weak runs: opcheck fails with witnesses, the DSG still certifies."""

    @pytest.mark.parametrize("level,cluster", DIVERGENCE_TABLE)
    def test_stale_replica_reads_diverge(self, level, cluster):
        result = _first_divergent_run(level, cluster)
        # The DSG end: every commit certified at the declared weak level.
        assert result.all_certified
        # The client end: stale values were really served...
        assert len(result.session_violations) >= 1
        # ...and the operation checker rejects them with explanations.
        verdict = result.opcheck()
        assert not verdict.ok
        witnesses = [
            w for failure in verdict.failures
            for w in failure["witnesses"]
        ]
        assert witnesses, "divergence must carry stale-read witnesses"
        assert "stale read" in verdict.explain()

    def test_divergence_is_deterministic(self):
        config = StressConfig(
            scheduler="locking", level="PL-2", clients=4,
            txns_per_client=10, keys=4, ops_per_txn=2, seed=0,
            network=FAULTY,
            cluster=ClusterConfig(
                shards=2, replicas=2, replication_every=12,
                replication_lag=(4, 10),
            ),
            read_preference="replica", read_only_fraction=0.5,
        )
        a, b = run_stress(config), run_stress(config)
        assert a.ops == b.ops
        assert a.opcheck().explain() == b.opcheck().explain()
