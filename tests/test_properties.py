"""Property-based tests (hypothesis) on the core formalism."""


from hypothesis import given, settings, strategies as st

import repro
from repro.baseline.preventative import PreventativeAnalysis, preventative_satisfies
from repro.core import DSG, Analysis, format_history, parse_history
from repro.core.conflicts import DepKind, all_dependencies
from repro.core.levels import ANSI_CHAIN, IsolationLevel as L, satisfies
from repro.workloads.generator import synthetic_history

# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------

_PARAMS = {
    "n_txns": st.integers(min_value=1, max_value=25),
    "n_objects": st.integers(min_value=1, max_value=8),
    "ops_per_txn": st.integers(min_value=1, max_value=6),
    "write_fraction": st.floats(min_value=0.0, max_value=1.0),
    "abort_fraction": st.floats(min_value=0.0, max_value=0.5),
    "stale_read_fraction": st.floats(min_value=0.0, max_value=1.0),
    "seed": st.integers(min_value=0, max_value=10_000),
}

history_params = st.fixed_dictionaries(_PARAMS)

#: Histories a single-version system can produce: every read sees the
#: latest committed version, none a stale one.
single_version_params = st.fixed_dictionaries(
    {**_PARAMS, "stale_read_fraction": st.just(0.0)}
)


def make_history(params):
    return synthetic_history(**params)


# ----------------------------------------------------------------------
# generator well-formedness and round trips
# ----------------------------------------------------------------------


@given(history_params)
@settings(max_examples=60, deadline=None)
def test_synthetic_histories_are_well_formed(params):
    make_history(params)  # validate=True raises on violation


@given(history_params)
@settings(max_examples=40, deadline=None)
def test_format_parse_round_trip(params):
    h = make_history(params)
    text = format_history(h)
    reparsed = parse_history(text, auto_complete=True)
    assert reparsed.events == h.events
    assert reparsed.version_order == h.version_order


# ----------------------------------------------------------------------
# structural invariants
# ----------------------------------------------------------------------


@given(history_params)
@settings(max_examples=40, deadline=None)
def test_dsg_nodes_are_committed(params):
    h = make_history(params)
    dsg = DSG(h)
    for edge in dsg.edges:
        assert edge.src in h.committed_all
        assert edge.dst in h.committed_all
        assert edge.src != edge.dst


@given(history_params)
@settings(max_examples=40, deadline=None)
def test_ww_edges_follow_version_order(params):
    h = make_history(params)
    for edge in all_dependencies(h):
        if edge.kind is DepKind.WW:
            chain = h.order_of(edge.obj)
            dst_final = h.final_version(edge.obj, edge.dst) or edge.version
            src_final = h.final_version(edge.obj, edge.src)
            if src_final is not None and dst_final in chain:
                assert chain.index(src_final) < chain.index(dst_final)


@given(history_params)
@settings(max_examples=40, deadline=None)
def test_version_order_invariants(params):
    h = make_history(params)
    for obj, chain in h.version_order.items():
        assert chain[0].is_unborn
        assert len(set(chain)) == len(chain)


# ----------------------------------------------------------------------
# level-theory invariants
# ----------------------------------------------------------------------


@given(history_params)
@settings(max_examples=40, deadline=None)
def test_classification_monotone_on_ansi_chain(params):
    h = make_history(params)
    analysis = Analysis(h)
    oks = [satisfies(h, level, analysis=analysis).ok for level in ANSI_CHAIN]
    for weaker, stronger in zip(oks, oks[1:]):
        assert weaker or not stronger  # stronger ⟹ weaker


@given(history_params)
@settings(max_examples=40, deadline=None)
def test_implication_respected_across_all_levels(params):
    h = make_history(params)
    analysis = Analysis(h)
    levels = list(L)
    oks = {level: satisfies(h, level, analysis=analysis).ok for level in levels}
    for a in levels:
        for b in levels:
            if a.implies(b) and oks[a]:
                assert oks[b], f"{a} provided but implied {b} violated"


@given(single_version_params)
@settings(max_examples=40, deadline=None)
def test_preventative_acceptance_implies_generalized(params):
    """The paper's permissiveness claim, as a property: any history the
    locking-style definitions accept, the generalized definitions accept.
    The claim is about single-version histories (the preventative
    definitions read event order and ignore version numbers), so the
    generator draws no stale reads."""
    h = make_history(params)
    analysis = Analysis(h)
    prev = PreventativeAnalysis(h)
    for level in ANSI_CHAIN:
        if preventative_satisfies(h, level, analysis=prev):
            assert satisfies(h, level, analysis=analysis).ok


def test_a_stale_read_is_outside_the_preventative_domain():
    """Why the property above draws no stale reads: T1 reads ``o1``'s
    initial version after T2 installed ``o1_2``, which no single-version
    system produces.  The preventative check, reading event order only,
    accepts it at PL-3; the generalized check sees T1 -rw-> T2 -ww-> T1."""
    h = synthetic_history(
        n_txns=2, n_objects=2, ops_per_txn=2, write_fraction=0.5,
        abort_fraction=0.0, stale_read_fraction=1.0, seed=653,
    )
    assert format_history(h) == (
        "w0({o0}0, 0) w0({o1}0, 0) c0 b1 b2 w2({o0}2, 282) w2({o1}2, 853) c2 "
        "w1({o0}1, 827) r1({o1}0, 0) c1  "
        "[{o0}0 << {o0}2 << {o0}1, {o1}0 << {o1}2]"
    )
    assert preventative_satisfies(h, L.PL_3)
    verdict = satisfies(h, L.PL_2_99)
    assert not verdict.ok
    assert [r.phenomenon.value for r in verdict.violations] == ["G2-item"]


@given(history_params)
@settings(max_examples=30, deadline=None)
def test_acyclic_dsg_iff_pl3_given_pl2(params):
    """For histories without G1, PL-3 holds exactly when the DSG is
    acyclic."""
    h = make_history(params)
    analysis = Analysis(h)
    if satisfies(h, L.PL_2, analysis=analysis).ok:
        assert satisfies(h, L.PL_3, analysis=analysis).ok == analysis.dsg.is_acyclic()


@given(history_params)
@settings(max_examples=30, deadline=None)
def test_serializable_histories_have_topological_witness(params):
    h = make_history(params)
    rep = repro.check(h)
    if rep.serializable:
        order = rep.analysis.dsg.topological_order()
        position = {tid: i for i, tid in enumerate(order)}
        for edge in rep.analysis.dsg.edges:
            assert position[edge.src] < position[edge.dst]


@given(history_params)
@settings(max_examples=25, deadline=None)
def test_repair_always_reaches_target(params):
    """Repair's contract, property-tested: the result provides the target
    level and never aborts the loader or setup transactions."""
    from repro.analysis.repair import repair

    h = make_history(params)
    result = repair(h, L.PL_3)
    assert satisfies(result.history, L.PL_3).ok
    assert 0 not in result.aborted
    assert not (result.aborted & h.setup_tids)


@given(history_params)
@settings(max_examples=25, deadline=None)
def test_serialize_round_trip_preserves_verdicts(params):
    from repro.core.serialize import dumps, loads

    h = make_history(params)
    restored = loads(dumps(h))
    a1, a2 = Analysis(h), Analysis(restored)
    for level in ANSI_CHAIN:
        assert (
            satisfies(h, level, analysis=a1).ok
            == satisfies(restored, level, analysis=a2).ok
        )
