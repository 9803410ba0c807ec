"""Exhaustive small-scope checking of the metatheory, over the bounded corpus.

Rather than sampling, :mod:`tests.bounded_corpus` holds *every* history of
its families, and the metatheory is asserted on each, of the levels the
definitions (:mod:`tests.reference_definitions`) provide:

* classification is monotone on the ANSI chain;
* :meth:`IsolationLevel.implies` is respected across all levels;
* a G1-free history is PL-3 exactly when the checker's DSG is acyclic;
* two-transaction single-object histories reading the latest committed
  state are *never* G0 (version order follows write order);
* the strict ANSI A-reading accepts whatever the generalized definitions
  accept at PL-2 and above, on that same single-object universe.

Small-scope exhaustiveness complements the random property tests: within
the enumerated universe there are *no* missed counterexamples.  That each
checker path says what the definitions say — and that preventative
acceptance implies generalized acceptance — is
``test_reference_agreement.py``'s business, on the same corpus.
"""

from __future__ import annotations

import hashlib

from repro.baseline import ansi_strict_satisfies
from repro.core import Analysis
from repro.core.events import Abort, PredicateRead, Read, Write
from repro.core.levels import ANSI_CHAIN, IsolationLevel as L, satisfies

from . import reference_definitions as ref
from .bounded_corpus import CORPUS, LEGACY_DIGEST, legacy_texts
from .test_reference_agreement import events_key, reference


def judged(entry):
    """The reference's phenomena and levels of the entry (shared with the
    agreement test, which computes them once per history)."""
    return reference(events_key(entry.events), entry.events, entry.order)


def provided(entry):
    levels = judged(entry)[1]
    return {level: levels[str(level)] for level in L}


def family(name):
    return [entry for entry in CORPUS if entry.family.name == name]


def in_default_order(name):
    return [entry for entry in family(name) if entry.order is None]


def test_corpus_is_substantial():
    assert len(CORPUS) > 8000
    assert len(in_default_order("x")) > 1000 and len(family("xy")) > 1000


def test_corpus_holds_the_two_former_universes():
    texts = legacy_texts(CORPUS)
    assert len(texts) == 2370
    assert hashlib.sha256("\n".join(texts).encode()).hexdigest() == LEGACY_DIGEST


def test_corpus_reaches_past_them():
    assert max(len({ev.tid for ev in e.events} - {0}) for e in CORPUS) == 3
    assert any(
        isinstance(ev, PredicateRead) and set(ev.vset.objects()) == {"x", "y"}
        for e in CORPUS for ev in e.events
    )
    # Every committed version order: x0, x1 and x2 in all six orders.
    orders = {tuple(e.history.version_order["x"]) for e in family("orders")}
    assert len({o for o in orders if len(o) == 4}) == 6
    reads = [
        (e, i, ev) for e in CORPUS for i, ev in enumerate(e.events)
        if isinstance(ev, Read) and ev.version.tid != ev.tid
    ]
    # A read of a version whose writer aborts later, and of one that is not
    # its writer's final modification.
    assert any(
        Abort(ev.version.tid) in e.events[i:] for e, i, ev in reads
    )
    assert any(not ref.is_final(e.events, ev.version) for e, i, ev in reads)
    assert any(ev.cursor for e, i, ev in reads)
    # A supplied version order beside an abort, an intermediate version and
    # a read of the reader's own write.
    supplied = [e for e in CORPUS if e.order is not None]
    assert any(any(isinstance(ev, Abort) for ev in e.events) for e in supplied)
    assert any(
        any(isinstance(ev, Write) and not ref.is_final(e.events, ev.version) for ev in e.events)
        for e in supplied
    )
    assert any(
        any(isinstance(ev, Read) and ev.version.tid == ev.tid for ev in e.events)
        for e in supplied
    )


class TestMetatheoryExhaustively:
    def test_monotone_on_ansi_chain(self):
        for entry in CORPUS:
            oks = provided(entry)
            for weaker, stronger in zip(ANSI_CHAIN, ANSI_CHAIN[1:]):
                assert oks[weaker] or not oks[stronger], str(entry.history)

    def test_implication_lattice(self):
        for entry in CORPUS:
            oks = provided(entry)
            for a in L:
                if not oks[a]:
                    continue
                for b in L:
                    if a.implies(b):
                        assert oks[b], f"{a}->{b} violated by {entry.history}"

    def test_acyclic_iff_pl3_without_g1(self):
        for entry in CORPUS:
            oks = provided(entry)
            if oks[L.PL_2]:
                acyclic = Analysis(entry.history).dsg.is_acyclic()
                assert oks[L.PL_3] == acyclic, str(entry.history)

    def test_single_object_latest_reads_never_g0(self):
        for entry in in_default_order("x"):
            assert not judged(entry)[0]["G0"], str(entry.history)

    def test_ansi_strict_weaker_than_generalized_here(self):
        """Within the single-object universe (latest reads, default order)
        every history the generalized definitions accept at a level, the
        strict A-reading accepts too — A is the weakest of the three."""
        for entry in in_default_order("x"):
            oks = provided(entry)
            for level in (L.PL_2, L.PL_2_99, L.PL_3):
                if oks[level]:
                    assert ansi_strict_satisfies(entry.history, level), str(entry.history)


class TestTwoObjectUniverse:
    def test_write_skew_shapes_found_and_classified(self):
        """Some interleaving of the two skew writers realizes write skew:
        fails PL-3 and PL-2.99 but passes PL-2+ (and no G1)."""
        found = sum(
            1 for entry in family("xy")
            if provided(entry)[L.PL_2PLUS] and not provided(entry)[L.PL_2_99]
        )
        assert found > 0

    def test_repair_certifies_every_history(self):
        from repro.analysis.repair import repair

        # A sample (every 7th) to keep runtime bounded; exhaustive over it.
        for entry in family("xy")[::7]:
            result = repair(entry.history, L.PL_3)
            assert satisfies(result.history, L.PL_3).ok, str(entry.history)
