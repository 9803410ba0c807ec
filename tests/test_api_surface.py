"""The public API surface stays coherent: every top-level export is real,
documented in docs/API.md, and listed in ``__all__`` exactly once; the
options and shims earlier releases carried stay removed."""

import inspect
import warnings
from pathlib import Path

import pytest

import repro
import repro.engine.mvcc as mvcc
import repro.service as service
from repro.engine import (
    LockingScheduler,
    MixedOptimisticScheduler,
    OptimisticScheduler,
    ReadCommittedMVScheduler,
    Scheduler,
    SnapshotIsolationScheduler,
)
from repro.observability import (
    to_chrome_trace,
    verb_latencies,
    waterfall,
    write_chrome_trace,
)

API_MD = Path(__file__).resolve().parent.parent / "docs" / "API.md"


class TestTopLevelSurface:
    def test_all_entries_exist(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ lists missing {name}"

    def test_all_has_no_duplicates(self):
        assert len(repro.__all__) == len(set(repro.__all__))

    def test_all_matches_documented_surface(self):
        text = API_MD.read_text(encoding="utf-8")
        missing = [
            name
            for name in repro.__all__
            if name != "__version__" and name not in text
        ]
        assert not missing, (
            f"repro.__all__ names not documented in docs/API.md: {missing}"
        )

    def test_cluster_surface_reexported(self):
        assert repro.connect_cluster is service.connect_cluster
        assert repro.ClusterConfig is service.ClusterConfig
        assert repro.ShardMap is service.ShardMap
        assert repro.StressConfig is service.StressConfig


class TestServiceSurface:
    def test_all_entries_exist(self):
        for name in service.__all__:
            assert hasattr(service, name)

    def test_all_sorted(self):
        assert list(service.__all__) == sorted(service.__all__)

    def test_configs_are_frozen_keyword_only(self):
        for cls in (repro.StressConfig, repro.ClusterConfig):
            cfg = cls()
            with pytest.raises(AttributeError):
                cfg.seed = 1
            with pytest.raises(TypeError):
                cls(1)  # positional args rejected: keyword-only

    def test_removed_options_stay_removed(self):
        with pytest.raises(TypeError):
            repro.History([], array_core=False)
        with pytest.raises(TypeError):
            repro.StressConfig(pipeline=False)
        with pytest.raises(TypeError):
            repro.run_stress(clients=2)
        with pytest.raises(TypeError):
            repro.IncrementalAnalysis(tracer=None)
        with pytest.raises(TypeError):
            repro.IncrementalAnalysis().add_all([], chunk=1)
        with pytest.raises(TypeError):
            repro.ClusterConfig(coordinator="c")
        with pytest.raises(TypeError):
            verb_latencies([], key="verb")
        with pytest.raises(TypeError):
            waterfall([], width=80)
        small = repro.StressConfig(clients=1, txns_per_client=1)
        result = repro.run_stress(small)
        assert "pipeline" not in result.config
        with pytest.raises(TypeError):
            service.build_capacity_report(result, heatmap_objects=4)

    def test_a_run_is_described_by_a_stress_config_only(self):
        run_shape = {
            "scheduler", "level", "clients", "keys", "ops_per_txn",
            "network", "retry", "admission", "zipf_theta",
        }
        capacity = inspect.signature(service.run_capacity).parameters
        assert not run_shape & set(capacity)
        assert list(capacity) == [
            "template", "rates", "horizon", "seed",
            "slos", "window", "sample_every", "trace",
        ]
        assert list(inspect.signature(repro.run_stress).parameters) == [
            "config", "metrics", "tracer", "flight",
        ]
        assert list(inspect.signature(to_chrome_trace).parameters) == ["records"]
        assert list(inspect.signature(write_chrome_trace).parameters) == [
            "records", "path",
        ]

    def test_server_and_cluster_share_the_driver_surface(self):
        for member in ("client", "schedule_crash", "tick", "next_wake", "settle"):
            assert hasattr(service.Server, member), member
            assert hasattr(service.Cluster, member), member

    def test_hand_built_scheduler_is_a_supported_constructor(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            db = repro.Database(LockingScheduler())
        assert db.config is None


class TestEngineSurface:
    def test_schedulers_share_one_read_path(self):
        """Every non-locking family reads, scans, buffers and aborts through
        ``Scheduler``'s own methods; only the visible version and the commit
        differ.  Locking wraps the shared read and scan in its locks."""
        assert not hasattr(mvcc, "_MultiVersionBase")
        for cls in (
            OptimisticScheduler,
            SnapshotIsolationScheduler,
            ReadCommittedMVScheduler,
            MixedOptimisticScheduler,
        ):
            for op in ("read", "write", "predicate_read", "abort"):
                assert getattr(cls, op) is getattr(Scheduler, op), (cls, op)
        assert ReadCommittedMVScheduler._visible is Scheduler._visible
        assert not hasattr(LockingScheduler, "_top")
