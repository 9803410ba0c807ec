"""Cross-commit golden gate for the in-process simulator.

A :class:`repro.engine.Simulator` run is a pure function of its programs,
scheduler and seed: every ``rng.choice`` over the candidate list, every lock
wait, deadlock victim and restart follows from them.  The tests in
``test_simulator.py`` compare a run only with a second run *of the same
commit*; this module pins the digests in ``tests/data/simulator_golden.json``
— history text, per-program outcomes, step and deadlock counts, and with
``metrics=``/``tracer=`` attached the registry exposition and the trace
records — so a commit that changes one scheduling decision fails here even
though it still agrees with itself.

``python tests/test_simulator_golden.py`` regenerates the file (only ever on
a commit whose schedule is the intended one: a perf PR commits its parent's
digests unchanged); ``--print`` prints every digest as JSON, which is how the
hash-seed test reads them back from a subprocess started under another
``PYTHONHASHSEED``.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Any, Callable, Dict, List

import pytest

import repro
from repro.core.formatting import format_history
from repro.core.levels import IsolationLevel
from repro.engine import Database, Simulator, create_scheduler
from repro.engine.locking import PROFILES
from repro.observability import MetricsRegistry, Tracer
from repro.workloads import WorkloadConfig, random_programs

GOLDEN = Path(__file__).parent / "data" / "simulator_golden.json"
SEEDS = range(8)

#: Few keys, most traffic on two of them: lock waits, deadlock victims, OCC
#: validation failures and first-committer losses on every seed.
CONTENDED = WorkloadConfig(
    n_programs=8, steps_per_program=4, n_keys=6, hot_keys=2,
    hot_fraction=0.6, write_fraction=0.5,
)
#: Predicate reads, predicate updates and inserts: phantom locks and waiters
#: with several holders at once.
PREDICATES = WorkloadConfig(
    n_programs=8, steps_per_program=4, n_keys=6, hot_keys=2,
    hot_fraction=0.5, write_fraction=0.5, predicate_fraction=0.3,
    insert_fraction=0.15,
)
#: One wave of the ladder's ``engine_direct`` rung: 32 programs, where
#: several waits-for cycles are open at once.
FLEET = WorkloadConfig(
    n_programs=32, steps_per_program=4, n_keys=64, hot_keys=8,
    hot_fraction=0.2, write_fraction=0.5,
)
MIXED_LEVELS = (IsolationLevel.PL_3, IsolationLevel.PL_2, IsolationLevel.PL_1)


def _config(
    family: str, cfg: WorkloadConfig = CONTENDED, *, levels=(), engine=None, **sim
):
    """One pinned configuration: ``run(seed, **observe)`` builds the programs
    and a fresh ``family`` engine (``engine``: scheduler options) and runs a
    ``Simulator(..., **sim, **observe)`` over them."""

    def run(seed: int, **observe):
        programs = random_programs(cfg, seed=seed)
        for i, program in enumerate(programs):
            if levels:
                program.level = levels[i % len(levels)]
        db = Database(create_scheduler(family, **(engine or {})))
        db.load(cfg.initial_state())
        return Simulator(db, programs, seed=seed, **sim, **observe).run()

    return run


CONFIGS: Dict[str, Callable[..., Any]] = {
    # Figure 1, row by row.
    **{
        f"locking_{name}": _config("locking", engine=dict(profile=name))
        for name in PROFILES
    },
    "locking_predicates": _config("locking", PREDICATES),
    "locking_fleet": _config("locking", FLEET, max_retries=1000),
    "wound_wait": _config("locking", engine=dict(deadlock="wound-wait")),
    "optimistic": _config("optimistic"),
    "snapshot_isolation": _config("snapshot-isolation"),
    "snapshot_isolation_predicates": _config("snapshot-isolation", PREDICATES),
    "mixed_optimistic": _config("mixed-optimistic", levels=MIXED_LEVELS),
    # Programs that give up: one abort is one too many.
    "retries_exhausted": _config("locking", max_retries=0),
    "retries_exhausted_occ": _config("optimistic", max_retries=0),
    # The step budget runs out mid-flight: the cut-off aborts close the history.
    "max_steps_cut_off": _config("locking", max_steps=60),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _canonical(value: Any) -> str:
    return json.dumps(value, sort_keys=True, default=repr)


def _outcomes(result) -> List[Dict[str, Any]]:
    return [
        {
            "program": o.program,
            "tids": o.tids,
            "aborts": o.aborts,
            "committed_tid": o.committed_tid,
            "regs": o.regs,
        }
        for o in result.outcomes
    ]


def _fingerprint(result) -> Dict[str, Any]:
    return {
        "history": _sha(format_history(result.history)),
        "outcomes": _sha(_canonical(_outcomes(result))),
        "steps_executed": result.steps_executed,
        "deadlocks": result.deadlocks,
        "committed": result.committed_count,
        "aborts": result.abort_count,
    }


def digest(
    name: str, seed: int, configs: Dict[str, Callable[..., Any]] = CONFIGS
) -> Dict[str, Any]:
    """The pinned fingerprint of one (config, seed): the bare run, and the
    same run with a registry and a tracer attached (small counters in clear,
    so a mismatch says *what* moved)."""
    run = configs[name]
    metrics = MetricsRegistry()
    # The simulator leaves the tracer on wall-clock time; the registry clock
    # ticks once per scheduling round, so on it whole records are exact.
    tracer = Tracer(clock=lambda: float(metrics.clock))
    observed = run(seed, metrics=metrics, tracer=tracer)
    return {
        "bare": _fingerprint(run(seed)),
        "observed": {
            **_fingerprint(observed),
            "metrics": _sha(metrics.render_prometheus()),
            "trace": _sha("\n".join(_canonical(r) for r in tracer.records)),
            "trace_records": len(tracer.records),
        },
    }


def _golden() -> Dict[str, Dict[str, Any]]:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", CONFIGS)
def test_matches_committed_digest(name: str, seed: int) -> None:
    assert digest(name, seed) == _golden()[name][str(seed)]


def test_golden_file_covers_every_config_and_seed() -> None:
    golden = _golden()
    assert sorted(golden) == sorted(CONFIGS)
    for name in CONFIGS:
        assert sorted(golden[name], key=int) == [str(s) for s in SEEDS]


def test_golden_file_pins_the_paths_it_is_named_for() -> None:
    """A golden that never deadlocks, gives up or gets cut off would pin
    nothing about those branches."""
    golden = _golden()

    def total(name: str, field: str) -> int:
        return sum(run["bare"][field] for run in golden[name].values())

    for name in ("locking_serializable", "locking_fleet", "locking_predicates"):
        assert total(name, "deadlocks") > 0, name
    assert total("wound_wait", "deadlocks") == 0
    assert total("wound_wait", "aborts") > 0
    for name in ("optimistic", "snapshot_isolation", "mixed_optimistic"):
        assert total(name, "aborts") > 0, name
    n = CONTENDED.n_programs * len(SEEDS)
    for name in ("retries_exhausted", "retries_exhausted_occ", "max_steps_cut_off"):
        assert total(name, "committed") < n, name
    assert all(
        run["bare"]["steps_executed"] == 60
        for run in golden["max_steps_cut_off"].values()
    )


@pytest.mark.parametrize("hashseed", ["0", "1", "2"])
def test_digests_do_not_depend_on_the_hash_seed(hashseed: str) -> None:
    """Set iteration order follows ``PYTHONHASHSEED`` wherever a set holds
    strings (lock resources, object names); the waits-for search and the
    lock tables must not let it reach a scheduling decision."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, __file__, "--print"],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == _golden()


#: Seeds on which read-committed's short predicate locks met a deadlock whose
#: cycle order followed the hash seed, while the lock manager kept the
#: write-locked objects of a relation in a ``set`` of strings.
PREDICATE_LOCK_SEEDS = (2, 5, 16)


def _predicate_lock_histories() -> List[str]:
    run = _config("locking", PREDICATES, engine=dict(profile="read-committed"))
    return [format_history(run(seed).history) for seed in PREDICATE_LOCK_SEEDS]


def test_predicate_lock_waits_do_not_depend_on_the_hash_seed() -> None:
    """A predicate lock's blockers are collected over the relation's
    write-locked objects; in string-hash order they reached the waits-for
    search as a differently ordered holder set, and so a different victim."""
    src = str(Path(repro.__file__).resolve().parents[1])
    runs = []
    for hashseed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, __file__, "--print-predicate-locks"],
            env=env, capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        runs.append(json.loads(proc.stdout))
    assert runs[0] == runs[1] == _predicate_lock_histories()


def _digests() -> Dict[str, Dict[str, Any]]:
    return {
        name: {str(seed): digest(name, seed) for seed in SEEDS}
        for name in CONFIGS
    }


def _main(argv) -> int:
    if argv == ["--print"]:
        print(_canonical(_digests()))
        return 0
    if argv == ["--print-predicate-locks"]:
        print(json.dumps(_predicate_lock_histories()))
        return 0
    if argv:
        print(
            f"usage: {sys.argv[0]} [--print | --print-predicate-locks]",
            file=sys.stderr,
        )
        return 2
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(_digests(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
