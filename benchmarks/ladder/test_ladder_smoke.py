"""Smoke test of the ladder benchmark: vocabulary, layer sums, compare.

Run with ``pytest benchmarks/ladder`` (not part of tier-1).  One
``run.py --smoke`` ladder (sizes / 10, one repeat) feeds every test.
"""

from __future__ import annotations

import copy
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("ladder") / "smoke.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seed", "3",
         "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return out, json.loads(out.read_text()), done.stdout


def test_spec_meets_the_contract(spec):
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = (
        [w["name"] for w in spec["workloads"]]
        + [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    )
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 <= metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.fullmatch(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"


def test_vocabulary_matches_both_ways(spec, smoke):
    _path, doc, stdout = smoke
    assert set(doc["workloads"]) == {w["name"] for w in spec["workloads"]}
    for name, row in doc["workloads"].items():
        assert row["correct"], row["failures"]
        for section in ("end_to_end", "per_layer"):
            declared = {m["name"]: m["unit"] for m in spec[section]}
            emitted = {metric: cell["unit"] for metric, cell in row[section].items()}
            assert emitted == declared, (name, section)
            for metric in declared:
                # Printed by name with its unit, not only written to JSON.
                assert re.search(
                    rf"^{name}\s+{re.escape(metric)}\s+\S+ {re.escape(declared[metric])}$",
                    stdout, re.M,
                ), (name, metric)
        for metric, cell in row["end_to_end"].items():
            assert cell["value"] > 0, (name, metric)


def test_layer_self_times_sum_to_the_traced_wall(smoke):
    _path, doc, _stdout = smoke
    for name, row in doc["workloads"].items():
        layers = {
            metric: cell["value"]
            for metric, cell in row["per_layer"].items()
            if metric.endswith(".self_s")
            and metric != "cluster.resolve_deadlock_self_s"
        }
        layers["history"] = row["per_layer"]["history.materialise_s"]["value"]
        wall = row["per_layer"]["bench.traced_wall_s"]["value"]
        assert sum(layers.values()) == pytest.approx(wall, rel=0.02), name
        assert any(layers.values()), name


def test_observability_is_free_when_off(smoke):
    _path, doc, _stdout = smoke
    for name, row in doc["workloads"].items():
        busy = row["per_layer"]["observability.self_s"]["value"]
        assert (busy > 0) == (name == "svc_cluster_traced"), name


def test_compare_accepts_a_a_and_convicts_a_regression(smoke, tmp_path):
    path, doc, _stdout = smoke
    compare = [sys.executable, str(HERE / "compare.py")]
    same = subprocess.run(
        compare + ["--strict", str(path), str(path)], capture_output=True, text=True
    )
    assert same.returncode == 0, same.stdout
    assert "regressed" not in same.stdout and "exact-mismatch" not in same.stdout

    slower = copy.deepcopy(doc)
    cell = slower["workloads"]["svc_single"]["end_to_end"]["events_per_s"]
    for key in ("value", "q1", "q3"):
        cell[key] /= 2
    cell["samples"] = [s / 2 for s in cell["samples"]]
    slower["workloads"]["svc_single"]["per_layer"]["client.poll_calls"]["value"] += 1
    candidate = tmp_path / "slower.json"
    candidate.write_text(json.dumps(slower))
    worse = subprocess.run(
        compare + [str(path), str(candidate)], capture_output=True, text=True
    )
    assert worse.returncode == 1, worse.stdout
    assert re.search(r"svc_single\s+events_per_s.*regressed", worse.stdout)
    assert re.search(r"svc_single\s+client\.poll_calls.*exact-mismatch", worse.stdout)
