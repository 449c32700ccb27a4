"""Initial charge, the two transfer families, and the exact identities."""

from __future__ import annotations

from fractions import Fraction

import pytest

from dtargets.config import is_big, is_tough, m_plus
from dtargets.corpus import load_fixture
from dtargets.discharge import (
    BetaTrace,
    GammaTrace,
    RegionClass,
    alpha,
    beta_trace,
    charge_report,
    gamma_trace,
)
from dtargets.errors import IdentityViolation, UnsupportedD
from dtargets.planar import DTarget, region_pair

from conftest import FIXTURES
from gadgets import (
    DECA_BETA2,
    DECA_BETA3,
    DECA_BETA4,
    DECA_BETA5,
    OCTA_GAMMA1_MULT,
    OCTA_GAMMA2_MULT,
    OCTA_GAMMA6_MULT,
    decaprism,
    gear12,
    octa,
    pentaprism,
    prism,
    rule5_wheel,
    two_big_rings,
    walk_targets,
)

HALF = Fraction(1, 2)
ONE = Fraction(1)
ZERO = Fraction(0)


def region_by_vertices(t, vertices):
    (r,) = [r for r in t.graph.faces if r.vertex_set == frozenset(vertices)]
    return r


def _received(trace, receiver, t) -> dict:
    """What each region at the trace's edge receives across it: the value
    on the receiver's side, its negative on the other."""
    return {
        r.id: trace.value if r.id == receiver else -trace.value
        for r in region_pair(t, trace.edge)
    }


# ---------------------------------------------------------------------------
# Initial charge
# ---------------------------------------------------------------------------


def test_alpha_prism():
    t = prism(2, 4)
    for r in t.graph.faces:
        expected = 2 if r.length == 3 else 4
        assert alpha(t, r) == expected


def test_alpha_octahedron():
    t = load_fixture("octahedron")
    assert [alpha(t, r) for r in t.graph.faces] == [2] * 8


def test_alpha_is_locally_computed():
    t = load_fixture("cube")
    for r in t.graph.faces:
        assert alpha(t, r) == 8 - 4 * r.length + sum(t.m(*e) for e in r.edges)


# ---------------------------------------------------------------------------
# Transfers between a big region and a small neighbour
# ---------------------------------------------------------------------------


def test_beta_rule1_door_sends_nothing():
    t = pentaprism(1, 6)
    big_ids = [r.id for r in t.graph.faces if is_big(t, r)]
    assert len(big_ids) == 2  # the two pentagon rims
    trace = beta_trace(t, (0, 1))
    assert trace.rule == 1
    assert trace.value == ZERO
    assert trace.big_region in big_ids


def test_beta_small_small_edges_have_no_rule():
    t = pentaprism(1, 6)
    trace = beta_trace(t, (0, 5))
    assert trace.rule is None
    assert trace.value == ZERO
    assert trace.big_region is None


def test_beta_rule2_two_full_flanks():
    t = decaprism(*DECA_BETA2)
    trace = beta_trace(t, (0, 1))
    assert (trace.rule, trace.value) == (2, ZERO)


def test_beta_rule3_two_and_six_five():
    t = decaprism(*DECA_BETA3)
    trace = beta_trace(t, (0, 1))
    assert (trace.rule, trace.value) == (3, HALF)


def test_beta_rule4_three_and_double_five():
    t = decaprism(*DECA_BETA4)
    trace = beta_trace(t, (0, 1))
    assert (trace.rule, trace.value) == (4, ZERO)


def test_beta_rule5_three_and_single_five():
    t = decaprism(*DECA_BETA5)
    trace = beta_trace(t, (0, 1))
    assert (trace.rule, trace.value) == (5, HALF)


def test_beta_rule6_fallthrough_full_unit():
    t = decaprism(*DECA_BETA5)
    trace = beta_trace(t, (1, 2))
    assert (trace.rule, trace.value) == (6, ONE)
    other = two_big_rings()
    trace = beta_trace(other, (0, 9))
    assert (trace.rule, trace.value) == (6, ONE)
    assert trace.big_region == 1
    assert trace.small_region == 3


def test_beta_rule1_on_door_of_deca():
    t = decaprism(*DECA_BETA5)
    trace = beta_trace(t, (5, 6))
    assert (trace.rule, trace.value) == (1, ZERO)


def test_beta_edge_antisymmetric_view():
    # Beta across (1, 2) as each side sees it, read off the report's trace
    # and rows: the big side receives 1, the small side -1.
    t = decaprism(*DECA_BETA5)
    report = charge_report(t)
    trace = report.beta_traces[t.graph.edges.index((1, 2))]
    assert trace == beta_trace(t, (1, 2))
    assert _received(trace, trace.big_region, t) == {
        trace.big_region: ONE, trace.small_region: -ONE
    }
    sums, rows = _traced_sums(t, report), {rc.region_id: rc for rc in report.regions}
    for r in (trace.big_region, trace.small_region):
        assert rows[r].beta == sums[r][0]


# ---------------------------------------------------------------------------
# Transfers out of tough triangles
# ---------------------------------------------------------------------------


def test_gamma_rule1_full_unit():
    t = octa(OCTA_GAMMA1_MULT)
    trace = gamma_trace(t, (0, 1))
    assert (trace.rule, trace.value) == (1, ONE)


def test_gamma_rule2_half_unit():
    t = octa(OCTA_GAMMA2_MULT)
    trace = gamma_trace(t, (0, 1))
    assert (trace.rule, trace.value) == (2, HALF)


def test_gamma_rule3_blocked_fourth_edge():
    t = gear12()
    trace = gamma_trace(t, (1, 12))
    assert (trace.rule, trace.value) == (3, HALF)
    assert trace.receiver_region == 3
    assert trace.tough_region == 0


def test_gamma_rule4_prism_canonical():
    t = prism(2, 4)
    trace = gamma_trace(t, (0, 1))
    assert (trace.rule, trace.value) == (4, ONE)
    receiver = next(r for r in t.graph.faces if r.id == trace.receiver_region)
    tough = next(r for r in t.graph.faces if r.id == trace.tough_region)
    assert receiver.length == 4
    assert tough.length == 3
    assert is_tough(t, tough)


def test_gamma_rule5_degree_three_corner():
    t = rule5_wheel()
    trace = gamma_trace(t, (0, 2))
    assert (trace.rule, trace.value) == (5, HALF)
    assert trace.receiver_region == 1
    assert trace.tough_region == 0


def test_gamma_rule6_triple_edge():
    t = octa(OCTA_GAMMA6_MULT)
    trace = gamma_trace(t, (0, 1))
    assert (trace.rule, trace.value) == (6, ONE)
    assert trace.receiver_region == 0
    assert trace.tough_region == 2


def test_gamma_rule7_fallthrough_zero():
    t = two_big_rings()
    trace = gamma_trace(t, (9, 18))
    assert (trace.rule, trace.value) == (7, ZERO)
    assert trace.receiver_region == 11
    assert trace.tough_region == 3


def test_gamma_no_rule_without_tough_side():
    t = load_fixture("cube")
    for e in t.graph.edges:
        trace = gamma_trace(t, e)
        assert trace.rule is None
        assert trace.value == ZERO


def test_gamma_edge_antisymmetric_view():
    # Gamma across (0, 1) as each side sees it, read off the report's trace
    # and rows: the receiver gets 1, the tough side -1.
    t = prism(2, 4)
    report = charge_report(t)
    trace = report.gamma_traces[t.graph.edges.index((0, 1))]
    assert trace == gamma_trace(t, (0, 1))
    assert _received(trace, trace.receiver_region, t) == {
        trace.receiver_region: ONE, trace.tough_region: -ONE
    }
    sums, rows = _traced_sums(t, report), {rc.region_id: rc for rc in report.regions}
    for r in (trace.receiver_region, trace.tough_region):
        assert rows[r].gamma == sums[r][1]


# ---------------------------------------------------------------------------
# Near misses: a rule's gadget with one of its conditions broken, so that
# rule must not fire.  The enumerated and walked targets fire none of beta
# rules 2-5 or gamma rules 3 and 5, so these pin their conditions.  The targets
# need not have degree sums d: the rules read multiplicities and doors only.
# ---------------------------------------------------------------------------


def remultiplied(t: DTarget, changes: dict) -> DTarget:
    return DTarget.of(t.graph, t.d, {**dict(t.mult_items), **changes})


# Rim edge (0, 1) of the decagonal prism: its flanks on the big rim are
# (0, 9) and (1, 2).  Each row: gadget, changes, then m(e), the flanks' m+
# seen from the rim, and the rule that fires instead.
BETA_NEAR_MISSES = {
    "rule2_at_m3": (DECA_BETA2, {(0, 1): 3}, (3, 6, 6), (6, ONE)),
    "rule2_with_a_5_flank": (DECA_BETA2, {(1, 2): 4}, (2, 6, 5), (3, HALF)),
    "rule3_at_m3": (DECA_BETA3, {(0, 1): 3}, (3, 5, 6), (5, HALF)),
    "rule3_without_a_5_flank": (DECA_BETA2, {(0, 9): 3}, (2, 4, 6), (6, ONE)),
    "rule3_without_a_6_flank": (DECA_BETA3, {(1, 2): 3}, (2, 5, 4), (6, ONE)),
    "rule4_at_m2": (DECA_BETA4, {(0, 1): 2}, (2, 5, 5), (6, ONE)),
    "rule4_with_one_5_flank": (DECA_BETA4, {(1, 2): 2}, (3, 5, 3), (5, HALF)),
    "rule5_at_m4": (DECA_BETA5, {(0, 1): 4}, (4, 4, 5), (6, ONE)),
    "rule5_without_a_5_flank": (DECA_BETA5, {(1, 2): 2}, (3, 4, 3), (6, ONE)),
}


@pytest.mark.parametrize("name", sorted(BETA_NEAR_MISSES))
def test_beta_near_misses(name):
    gadget, changes, (m, p1, p2), fired = BETA_NEAR_MISSES[name]
    t = remultiplied(decaprism(*gadget), changes)
    trace = beta_trace(t, (0, 1))
    disc = (trace.big_region,)
    assert (t.m(*(0, 1)), m_plus(t, (0, 9), disc), m_plus(t, (1, 2), disc)) == (m, p1, p2)
    assert (trace.rule, trace.value) == fired


# Gamma across (9, 18) of two_big_rings: the tough triangle 0-9-18 has its
# edge x = (0, 9) on the outer rim and y = (0, 18) on the inner rim, and the
# receiver is the square 8-9-18-17.  Setting (8, 9) to 4 gives the receiver
# its multiplicity-4 edge at 9 that rule 3 asks for, and takes the square's
# door away from both rims.
RING_RULE3 = {(9, 18): 1, (0, 9): 3, (8, 9): 4}
RIM_DOORS = {(3, 4): 2, (5, 6): 2, (7, 8): 2, (12, 13): 2, (14, 15): 2, (16, 17): 2}

GAMMA_NEAR_MISSES = {
    # gear12's rule 3 edge (x = (0, 1), y = (0, 12), the receiver's edge
    # (1, 2) at 1) at m(e) = 2, and with m(1, 2) = 3 instead of 4
    "rule3_at_m2": (gear12, (1, 12), {(1, 12): 2}, {1, 13}),
    "rule3_without_a_4_at_x": (gear12, (1, 12), {(1, 2): 3}, {1, 13}),
    # rule 3 needs the region across y small: both rims are big
    "rule3_big_across_y": (two_big_rings, (9, 18), {**RING_RULE3, (0, 18): 1}, {1, 2}),
    # rule 3 needs m(y) = 1: m(y) = 2, the region across y not small either,
    # and m+(x) + m+(y) = 5 keeps rule 1 out
    "rule3_at_my2": (two_big_rings, (9, 18), {**RING_RULE3, (0, 18): 2}, {1, 2}),
    # rule5_wheel's rule 5 edge (the degree-3 corner 0, x = (0, 1), y = (1, 2))
    # at m(e) = 1, and with m(x) = 3 instead of 2
    "rule5_at_m1": (rule5_wheel, (0, 2), {(0, 2): 1}, {3, 9}),
    "rule5_at_mx3": (rule5_wheel, (0, 2), {(0, 1): 3}, {3, 9}),
    # rule 5 needs one end of e where x's far region is small and y's is not
    "rule5_both_rims_big": (
        two_big_rings, (9, 18), {(9, 18): 2, (0, 9): 2, (0, 18): 2}, {1, 2}
    ),
    # both rims small, and the receiver has one door, at 18, so rule 4 fails
    "rule5_both_rims_small": (
        two_big_rings,
        (9, 18),
        {(9, 18): 2, (0, 9): 2, (0, 18): 2, (8, 9): 2, **RIM_DOORS},
        set(),
    ),
    # rule 5 needs a degree-3 corner: the gear's triangle 0-1-12 at m = 2
    # meets the small square 0-12-17-11 across x = (0, 12) and the big rim
    # across y = (0, 1) only at vertex 12, of degree 4
    "rule5_at_a_degree_4_corner": (
        gear12, (1, 12), {(0, 1): 2, (0, 12): 2, (1, 12): 2}, {1, 13}
    ),
}


@pytest.mark.parametrize("name", sorted(GAMMA_NEAR_MISSES))
def test_gamma_near_misses(name):
    build, e, changes, big = GAMMA_NEAR_MISSES[name]
    t = remultiplied(build(), changes)
    assert {r.id for r in t.graph.faces if is_big(t, r)} == big
    trace = gamma_trace(t, e)
    assert (trace.rule, trace.value) == (7, ZERO)


# ---------------------------------------------------------------------------
# Whole-target accounting
# ---------------------------------------------------------------------------


def test_prism_charge_regression():
    report = charge_report(prism(2, 4))
    by_length = {}
    for rc in report.regions:
        by_length.setdefault(rc.length, []).append(rc)
    triangles = by_length[3]
    squares = by_length[4]
    assert [rc.alpha for rc in triangles] == [2, 2]
    assert [rc.alpha for rc in squares] == [4, 4, 4]
    assert [rc.gamma for rc in triangles] == [Fraction(-3), Fraction(-3)]
    assert [rc.gamma for rc in squares] == [Fraction(2), Fraction(2), Fraction(2)]
    assert all(rc.beta == ZERO for rc in report.regions)
    assert sorted(rc.total for rc in report.regions) == [
        Fraction(-1),
        Fraction(-1),
        Fraction(6),
        Fraction(6),
        Fraction(6),
    ]
    assert report.alpha_total == 16
    assert report.beta_total == ZERO
    assert report.gamma_total == ZERO
    assert report.grand_total == 16


def test_octahedron_charge_regression():
    t = load_fixture("octahedron")
    report = charge_report(t)
    assert [rc.total for rc in report.regions] == [Fraction(2)] * 8
    assert all(rc.beta == ZERO and rc.gamma == ZERO for rc in report.regions)
    for rc in report.regions:
        assert rc.region_class is RegionClass.TRIANGLE_TOUGH


GADGETS = {
    "pentaprism16": lambda: pentaprism(1, 6),
    "octa_gamma1": lambda: octa(OCTA_GAMMA1_MULT),
    "octa_gamma2": lambda: octa(OCTA_GAMMA2_MULT),
    "octa_gamma6": lambda: octa(OCTA_GAMMA6_MULT),
    "deca_beta2": lambda: decaprism(*DECA_BETA2),
    "deca_beta3": lambda: decaprism(*DECA_BETA3),
    "deca_beta4": lambda: decaprism(*DECA_BETA4),
    "deca_beta5": lambda: decaprism(*DECA_BETA5),
    "two_big_rings": two_big_rings,
    "gear12": gear12,
    "rule5_wheel": rule5_wheel,
}


@pytest.mark.parametrize("name", sorted(GADGETS))
def test_gadget_identities(name):
    report = charge_report(GADGETS[name]())
    assert report.alpha_total == 16
    assert report.beta_total == ZERO
    assert report.gamma_total == ZERO
    assert report.grand_total == 16


@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_identities(name):
    report = charge_report(load_fixture(name))
    assert report.alpha_total == 16
    assert report.beta_total == ZERO
    assert report.gamma_total == ZERO


def test_positive_regions_cover_the_total():
    positives = [rc for rc in charge_report(prism(2, 4)).regions if rc.total > 0]
    assert sum(rc.total for rc in positives) >= 16


def test_classify_region_enum():
    t = pentaprism(1, 6)
    classes = {rc.region_class for rc in charge_report(t).regions}
    assert RegionClass.BIG in classes
    assert RegionClass.SMALL in classes


def test_charging_requires_d8():
    t = load_fixture("k4")
    six = DTarget.of(t.graph, 6, {e: 2 for e, _ in t.mult_items})
    with pytest.raises(UnsupportedD):
        charge_report(six)


@pytest.mark.parametrize("name", FIXTURES)
def test_charge_report_traces_each_edge_once(name, monkeypatch):
    # Each rule chain, the one beta_trace and gamma_trace share, runs once
    # per edge, in edge order.
    import dtargets.discharge as discharge

    calls: dict[str, list] = {"beta": [], "gamma": []}
    for kind in calls:
        def counted(*args, original=getattr(discharge, f"_{kind}"), seen=calls[kind]):
            seen.append(args[-1][1])  # the edge of its charge program entry
            return original(*args)

        monkeypatch.setattr(discharge, f"_{kind}", counted)
    t = load_fixture(name)
    report = charge_report(t)
    assert calls["beta"] == calls["gamma"] == list(t.graph.edges)
    assert [tr.edge for tr in report.beta_traces] == list(t.graph.edges)
    assert [tr.edge for tr in report.gamma_traces] == list(t.graph.edges)


def _traced_sums(t, report):
    """Each region's beta and gamma, re-summed as Fractions from the traces:
    a trace's value goes to its receiver and comes from the other side."""
    sums = {r.id: [ZERO, ZERO] for r in t.graph.faces}
    for family, traces in enumerate((report.beta_traces, report.gamma_traces)):
        for trace in traces:
            receiver = trace.big_region if family == 0 else trace.receiver_region
            for r in region_pair(t, trace.edge):
                sums[r.id][family] += trace.value if r.id == receiver else -trace.value
    return sums


def test_idle_traces_are_one_record_per_edge_of_a_graph():
    # Where no rule of a family fires, the trace depends on the edge alone:
    # every target on a graph shares the one record of that edge.
    shared, idle = {}, 0
    for t in walk_targets():
        report = charge_report(t)
        for trace_type, traces in (
            (BetaTrace, report.beta_traces),
            (GammaTrace, report.gamma_traces),
        ):
            for trace in traces:
                if trace.rule is None:
                    assert trace == trace_type(trace.edge, None, None, None, Fraction(0))
                    key = id(t.graph), trace_type, trace.edge
                    assert shared.setdefault(key, trace) is trace
                    idle += 1
    assert idle > len(shared) > 0


def test_region_charges_are_the_sums_of_their_traces():
    targets = [load_fixture(name) for name in FIXTURES]
    targets += [build() for build in GADGETS.values()]
    targets += walk_targets()[::10]
    for t in targets:
        report = charge_report(t)
        sums = _traced_sums(t, report)
        for rc in report.regions:
            assert [rc.beta, rc.gamma] == sums[rc.region_id]
            assert isinstance(rc.beta, Fraction) and isinstance(rc.gamma, Fraction)


def test_an_identity_violation_prints_charges_not_half_units(monkeypatch):
    import dtargets.discharge as discharge
    from dtargets.discharge import BetaTrace

    # No big region: both sides give the half away.
    monkeypatch.setattr(
        discharge, "_beta", lambda *args: (BetaTrace(args[-1][1], 3, None, None, HALF), 1)
    )
    with pytest.raises(IdentityViolation, match=r"^beta not antisymmetric .*: -1/2, -1/2$"):
        charge_report(load_fixture("prism"))


def _transfers(monkeypatch, beta_halves: int, gamma_halves: int):
    """Replace both rule chains: across every edge its first region
    receives the given half-units of each family from its second."""
    import dtargets.discharge as discharge
    from dtargets.discharge import BetaTrace, GammaTrace

    def beta(*args):
        _, e, r1, r2, _, _ = args[-1]
        return BetaTrace(e, 6, r1, r2, Fraction(beta_halves, 2)), beta_halves

    def gamma(*args):
        _, e, r1, r2, _, _ = args[-1]
        return GammaTrace(e, 1, r1, r2, Fraction(gamma_halves, 2)), gamma_halves

    monkeypatch.setattr(discharge, "_beta", beta)
    monkeypatch.setattr(discharge, "_gamma", gamma)


def test_both_families_across_one_edge_is_an_identity_violation(monkeypatch):
    # Each family alone is antisymmetric; together they cross the first edge.
    _transfers(monkeypatch, 2, 2)
    t = load_fixture("prism")
    with pytest.raises(IdentityViolation) as raised:
        charge_report(t)
    assert str(raised.value) == f"both transfer families moved charge across {t.graph.edges[0]}"


def test_a_transfer_above_one_prints_charges_not_half_units(monkeypatch):
    _transfers(monkeypatch, 3, 0)
    t = load_fixture("prism")
    first = t.graph.region_pairs[0][0].id
    with pytest.raises(IdentityViolation) as raised:
        charge_report(t)
    assert str(raised.value) == (
        f"transfer across {t.graph.edges[0]} into region {first} exceeds 1: 3/2"
    )
