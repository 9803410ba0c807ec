"""The raw events a provenance record names behind a predicate edge.

Predicates are equal by name and relations, and the online checker interns
them that way: a predicate edge holds the first equal object it saw, which
need not be the object a later reader's event carries.  The record must
still list that reader's predicate read.
"""

import pytest

from repro.core.events import Commit, PredicateRead, Read, Write
from repro.core.incremental import IncrementalAnalysis
from repro.core.objects import INIT_TID, Version
from repro.core.phenomena import Phenomenon
from repro.core.predicates import FunctionPredicate, VersionSet
from repro.observability.provenance import provenance_record


def _positive(_version, value):
    return value is not None and value > 0


def _events(p_a, p_b):
    """``r1(P_a: x0) c1 w3(x3) w3(y3) c3 r2(P_b: x0) r2(y3) c2``: T3's write
    of x changes P's matches after both predicate reads, and T2 then reads
    T3's y, so T2 -prw-> T3 -wr-> T2 is a G2 cycle."""
    x0 = Version("x", INIT_TID, 0)
    x3, y3 = Version("x", 3), Version("y", 3)
    return [
        PredicateRead(1, p_a, VersionSet.of(x0)),
        Commit(1),
        Write(3, x3, 5),
        Write(3, y3, 6),
        Commit(3),
        PredicateRead(2, p_b, VersionSet.of(x0)),
        Read(2, y3, 6),
        Commit(2),
    ]


@pytest.mark.parametrize("shared", [True, False], ids=["one-object", "equal-objects"])
def test_g2_record_lists_the_readers_predicate_read(shared):
    p_a = FunctionPredicate("P", _positive)
    p_b = p_a if shared else FunctionPredicate("P", _positive)
    assert p_a == p_b
    analysis = IncrementalAnalysis().add_all(_events(p_a, p_b))
    assert analysis.exhibits(Phenomenon.G2)
    record = provenance_record(analysis, Phenomenon.G2)
    assert [edge["kind"] for edge in record["cycle"]] == ["rw", "wr"]
    assert record["cycle"][0]["predicate"] == "P"
    assert [ev["event"] for ev in record["events"]] == [
        "w3(x3, 5)",
        "w3(y3, 6)",
        "r2(P: xinit)",
        "r2(y3, 6)",
    ]
