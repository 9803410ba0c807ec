"""A version's identity is its ``(obj, tid, seq)`` triple (paper §4.1).

Every dict and set of versions in the checker and the engine is keyed by
that identity, so its hash and its order are output: two processes must
agree on what a version is, a sort must order versions by object, then
writer, then sequence number, and a version must survive a pickle into a
process whose string hashes are salted differently.
"""

from __future__ import annotations

import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core.objects import INIT_TID, Version
from repro.observability import Tracer

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _python(code: str, hash_seed: int, stdin: bytes = b"") -> bytes:
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-c", code],
        input=stdin, env=env, capture_output=True, check=True,
    ).stdout


def _corpus():
    """Versions over a few objects, writers and sequence numbers, the
    unborn ones included."""
    objects = ["x", "y", "emp:3", "emp:10", "a_b"]
    out = [Version.unborn(obj) for obj in objects]
    out += [
        Version(obj, tid, seq)
        for obj in objects for tid in (0, 1, 2, 11) for seq in (1, 2, 3)
    ]
    return out


class TestHash:
    def test_the_hash_is_the_triples(self):
        for v in _corpus():
            assert hash(v) == hash((v.obj, v.tid, v.seq))

    def test_two_hash_seeds_agree_with_their_own_triples(self):
        code = (
            "from repro.core.objects import Version\n"
            "v = Version('emp:3', 4, 2)\n"
            "assert hash(v) == hash(('emp:3', 4, 2))\n"
            "assert hash(Version.unborn('x')) == hash(('x', -1, 0))\n"
            "print(hash(v))\n"
        )
        hashes = {_python(code, seed) for seed in (1, 2)}
        # Salted per process: the check above is not one seed's accident.
        assert len(hashes) == 2

    def test_a_version_equals_its_plain_triple(self):
        # Intended: a version is its (obj, tid, seq) tuple, compared and
        # hashed by the tuple's own slots, in C.  A version and a bare
        # triple are therefore one key of a dict or set.
        assert Version.__hash__ is tuple.__hash__
        assert Version.__eq__ is tuple.__eq__
        v = Version("x", 1, 1)
        assert v == ("x", 1, 1) and ("x", 1, 1) == v
        assert {v: "version"}[("x", 1, 1)] == "version"
        assert Version("x", 1, 2) != ("x", 1, 1)


class TestOrder:
    def test_a_shuffled_corpus_sorts_by_the_triple(self):
        corpus = _corpus()
        for seed in range(5):
            shuffled = corpus[:]
            random.Random(seed).shuffle(shuffled)
            ordered = sorted(shuffled)
            assert ordered == sorted(
                shuffled, key=lambda v: (v.obj, v.tid, v.seq)
            )
            assert [v.label() for v in ordered] == [
                v.label()
                for v in sorted(corpus, key=lambda v: (v.obj, v.tid, v.seq))
            ]

    def test_the_unborn_version_sorts_first_in_its_object(self):
        assert min(Version("x", 0, 1), Version.unborn("x")).is_unborn
        assert Version("x", 2, 1) < Version("x", 2, 2) < Version("x", 3, 1)


class TestChecks:
    def test_an_empty_object_is_refused(self):
        with pytest.raises(ValueError, match="object id must be non-empty"):
            Version("", 1, 1)

    def test_the_unborn_version_has_seq_zero(self):
        with pytest.raises(ValueError, match="unborn version must have seq == 0"):
            Version("x", INIT_TID, 1)

    def test_application_versions_count_from_one(self):
        with pytest.raises(ValueError, match="numbered from 1"):
            Version("x", 1, 0)

    def test_defaults_and_fields(self):
        v = Version("x", 3)
        assert (v.obj, v.tid, v.seq) == ("x", 3, 1)
        assert Version(obj="x", tid=3, seq=1) == v
        assert repr(v) == "Version(x3)" and str(v) == "x3"
        with pytest.raises(AttributeError):
            v.tid = 4


class TestPickle:
    def test_a_round_trip_keeps_identity(self):
        for v in _corpus():
            back = pickle.loads(pickle.dumps(v))
            assert type(back) is Version
            assert back == v and hash(back) == hash(v)
            assert back.label() == v.label()

    def test_a_dict_of_versions_crosses_hash_seeds(self):
        # Written under one salt, read under another: the keys rehash.
        code = (
            "import pickle, sys\n"
            "import repro\n"
            "from repro.core.objects import Version\n"
            "h = repro.parse_history('w1(x1) w1(y1) c1 r2(x1) w2(y2) c2')\n"
            "by = {Version('x', 1, 1): 'x1', Version('emp:3', 2, 2): 'e'}\n"
            "sys.stdout.buffer.write(pickle.dumps((by, h)))\n"
        )
        payload = _python(code, 1)
        by, history = pickle.loads(payload)
        assert by[Version("x", 1, 1)] == "x1"
        assert by[Version("emp:3", 2, 2)] == "e"
        assert history.writes[Version("y", 2, 1)].tid == 2
        assert repro.check(history).explain() == repro.check(
            repro.parse_history("w1(x1) w1(y1) c1 r2(x1) w2(y2) c2")
        ).explain()

    def test_a_check_many_pool_agrees_with_the_serial_path(self):
        histories = [
            repro.parse_history(text)
            for text in (
                "w1(x1) c1 r2(x1) c2",
                "r1(x0) r2(x0) w1(x1) w2(x2) c1 c2",
                "w1(x1) w2(x2) w2(y2) c2 w1(y1) c1",
                "r1(x0, 5) w1(x1, 1) r2(x1, 1) r2(y0, 5) c2 r1(y0, 5) w1(y1, 9) c1",
            )
        ]
        serial = repro.check_many(histories, processes=1)
        pooled = repro.check_many(histories, processes=2)
        assert [r.explain() for r in pooled] == [r.explain() for r in serial]


class TestTraceAttrs:
    def test_a_version_renders_as_its_label(self):
        tracer = Tracer()
        tracer.event(
            "e",
            version=Version("x", 1, 2),
            versions=[Version("y", 2, 1), Version.unborn("z")],
            pair=(Version("emp:3", 4, 1), 1),
            by={Version("x", 1, 1): 3},
        )
        assert tracer.records[0]["attrs"] == {
            "version": "x1.2",
            "versions": ["y2", "zinit"],
            "pair": ["{emp:3}4", 1],
            "by": {"x1": 3},
        }
