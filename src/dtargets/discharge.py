"""Region charges and the two transfer rule families.

Every region starts with charge alpha(r) = 8 - 4|C_r| + sum of boundary
multiplicities; these always total exactly 16.  Two antisymmetric transfer
families then move charge across edges without changing the total:

* beta moves charge across each edge separating a big region from a small
  one (the big side receives);
* gamma moves charge across each edge separating a tough triangle from a
  small non-tough region (the non-tough side receives).

Each family is an ordered first-match rule chain, one flat ``if``/``elif``
shared by ``charge_report`` and the public ``beta_trace``/``gamma_trace``;
the matched rule id is recorded so a report can be audited line by line.  A
rule moves 0, 1/2 or 1, carried in half-units: ``charge_report`` checks every
identity on integers and makes ``Fraction``s only for its rows.  The trace of
an edge where no rule of a family fires depends on the edge alone, so those
traces are one graph fact (``planar.fact``), built once per graph and shared
by every target on it; a trace record is built only where a rule fires.

The rules read only the target's multiplicity vector and door table
(``config.door_table``) against the graph's charge program
(``config.charge_program``): each edge's regions and their flanks at its
ends, each region's rim, as edge indices and region ids.  m+ of a flank is
its multiplicity plus the small flag of its far region.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .config import _require_d8, charge_program, door_table, edges_disjoint, is_tough
from .errors import DTargetError, IdentityViolation
from .planar import DTarget, Edge, Region, RotationGraph, fact, norm_edge, region_pair

ZERO = Fraction(0)
HALF = Fraction(1, 2)
ONE = Fraction(1)
_CHARGE = (ZERO, HALF, ONE)  # a rule's transfer, by half-units


class RegionClass(Enum):
    BIG = "big"
    TRIANGLE_TOUGH = "triangle-tough"
    TRIANGLE_NOT_TOUGH = "triangle-not-tough"
    SMALL = "small"


def _region_class(small: bool, length: int, tough: bool) -> RegionClass:
    if not small:
        return RegionClass.BIG
    if length == 3:
        return RegionClass.TRIANGLE_TOUGH if tough else RegionClass.TRIANGLE_NOT_TOUGH
    return RegionClass.SMALL


def alpha(t: DTarget, r: Region) -> int:
    """Initial charge: 8 - 4|C_r| + sum of m over C_r."""
    _require_d8(t)
    return _alpha(t.mult_vector, charge_program(t.graph).rims[r.id])


def _alpha(m, rim) -> int:
    return 8 - 4 * len(rim) + sum([m[i] for i, _ in rim])


# ---------------------------------------------------------------------------
# beta: big <- small transfers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BetaTrace:
    edge: Edge
    rule: int | None
    big_region: int | None
    small_region: int | None
    value: Fraction  # amount received by the big region


def beta_trace(t: DTarget, e: Edge) -> BetaTrace:
    """Which beta rule fires across e, and how much the big side receives."""
    side = _side(t, e)
    return _beta(t.mult_vector, *door_table(t), _idle(t.graph)[0], side)[0]


def _side(t: DTarget, e: Edge) -> tuple:
    """e's entry in the charge program; refuses a non-edge and a bridge."""
    _require_d8(t)
    region_pair(t, e)
    return charge_program(t.graph).sides[t.graph.edge_index[norm_edge(*e)]]


def _beta(m, doors, small, idle, side) -> tuple[BetaTrace, int]:
    """The beta trace across the side's edge and the half-units the big side
    receives; side is the edge's entry in the charge program, and idle the
    graph's traces where no beta rule fires."""
    i, e, r1, r2, flanks1, flanks2 = side
    if small[r1] == small[r2]:
        return idle[i], 0
    big, tiny, flanks = (r2, r1, flanks2) if small[r1] else (r1, r2, flanks1)
    if e in doors[big]:
        return BetaTrace(e, 1, big, tiny, ZERO), 0
    try:
        ((f1, s1),), ((f2, s2),) = flanks
    except ValueError:
        raise DTargetError(f"boundary of region {big} is not a simple cycle at {e}") from None
    me, p1, p2 = m[i], m[f1] + small[s1], m[f2] + small[s2]
    if me == 2 and p1 == p2 == 6:
        rule, halves = 2, 0
    elif me == 2 and {p1, p2} == {6, 5}:
        rule, halves = 3, 1
    elif me == 3 and p1 == p2 == 5:
        rule, halves = 4, 0
    elif me == 3 and (p1 == 5) != (p2 == 5):
        rule, halves = 5, 1
    else:
        rule, halves = 6, 2
    return BetaTrace(e, rule, big, tiny, _CHARGE[halves]), halves


# ---------------------------------------------------------------------------
# gamma: tough triangle -> small non-tough transfers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GammaTrace:
    edge: Edge
    rule: int | None
    receiver_region: int | None
    tough_region: int | None
    value: Fraction  # amount received by the non-tough small region


def gamma_trace(t: DTarget, e: Edge) -> GammaTrace:
    """Which gamma rule fires across e, and how much the receiver gets."""
    side = _side(t, e)
    doors, small = door_table(t)
    tough = {r: is_tough(t, t.graph.faces[r]) for r in side[2:4]}
    idle = _idle(t.graph)[1]
    return _gamma(t.mult_vector, doors, small, tough, t.graph.rotations, idle, side)[0]


def _gamma(m, doors, small, tough, rotations, idle, side) -> tuple[GammaTrace, int]:
    """The gamma trace across the side's edge and the half-units the
    receiver gets; tough is indexed by region id, and idle holds the
    graph's traces where no gamma rule fires."""
    i, e, r1, r2, flanks1, flanks2 = side
    if not (small[r1] and small[r2]) or tough[r1] == tough[r2]:
        return idle[i], 0
    donor, receiver, (((fa, sa),), ((fb, sb),)), (at_a, at_b) = (
        (r1, r2, flanks1, flanks2) if tough[r1] else (r2, r1, flanks2, flanks1)
    )
    # The triangle's edges at e's ends a and b: m, whether the region across
    # is small, and m+.  at_a and at_b: the receiver's other edges at a and b.
    me, ma, mb, qa, qb = m[i], m[fa], m[fb], small[sa], small[sb]
    pa, pb = ma + qa, mb + qb
    if me == 1 and ma >= 2 and mb >= 2 and pa + pb >= 6:
        rule, halves = 1, 2
    elif me == 1 and ((pa >= 4 and mb == 1 and qb) or (pb >= 4 and ma == 1 and qa)):
        rule, halves = 2, 1
    elif me == 1 and (
        (ma == 3 and mb == 1 and qb and [m[f] for f, _ in at_a] == [4])
        or (mb == 3 and ma == 1 and qa and [m[f] for f, _ in at_b] == [4])
    ):
        rule, halves = 3, 1
    elif me == 2 and ma >= 2 and mb >= 2 and pa + pb >= 5 and (
        len(doors[receiver]) > 1
        or any(edges_disjoint(e, d) for d in doors[receiver])
        or (qa and qb and any(m[f] == 4 for f, _ in at_a + at_b))
    ):
        rule, halves = 4, 2
    elif me == 2 and ma == mb == 2 and (
        (len(rotations[e[0]]) == 3 and qa and not qb)
        or (len(rotations[e[1]]) == 3 and qb and not qa)
    ):
        rule, halves = 5, 1
    elif me == 3 and ma == mb == 2:
        rule, halves = 6, 2
    else:
        rule, halves = 7, 0
    return GammaTrace(e, rule, receiver, donor, _CHARGE[halves]), halves


def _idle(graph: RotationGraph) -> tuple[tuple[BetaTrace, ...], tuple[GammaTrace, ...]]:
    """Each edge's beta and gamma traces where no rule fires, by edge index:
    they depend on the edge alone, so they are one graph fact."""
    return fact(graph, "idle traces", _idle_traces)


def _idle_traces(graph: RotationGraph):
    edges = graph.edges
    return (
        tuple([BetaTrace(e, None, None, None, ZERO) for e in edges]),
        tuple([GammaTrace(e, None, None, None, ZERO) for e in edges]),
    )


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegionCharge:
    region_id: int
    region_class: RegionClass
    length: int
    alpha: int
    beta: Fraction
    gamma: Fraction

    @property
    def total(self) -> Fraction:
        return self.alpha + self.beta + self.gamma


@dataclass(frozen=True)
class ChargeReport:
    regions: tuple[RegionCharge, ...]
    beta_traces: tuple[BetaTrace, ...]
    gamma_traces: tuple[GammaTrace, ...]

    @property
    def alpha_total(self) -> int:
        return sum(rc.alpha for rc in self.regions)

    @property
    def beta_total(self) -> Fraction:
        return sum((rc.beta for rc in self.regions), ZERO)

    @property
    def gamma_total(self) -> Fraction:
        return sum((rc.gamma for rc in self.regions), ZERO)

    @property
    def grand_total(self) -> Fraction:
        return sum((rc.total for rc in self.regions), ZERO)


def charge_report(t: DTarget) -> ChargeReport:
    """Full per-region charge accounting with per-edge rule traces.

    Raises IdentityViolation when any of the invariants fail: the alpha
    total is 16, each transfer family is antisymmetric across every edge
    (which alone makes the beta and gamma totals vanish), at most one
    family moves charge across any edge, and no single region sends or
    receives more than 1 across one edge.
    """
    _require_d8(t)
    graph, m = t.graph, t.mult_vector
    program = charge_program(graph)
    _side(t, graph.edges[0])  # a bridge there is refused before the door table
    doors, small = door_table(t)
    faces, rotations = graph.faces, graph.rotations
    tough = [is_tough(t, r) for r in faces]
    idle_beta, idle_gamma = _idle(graph)
    # half-units: twice the charge each region receives
    beta, gamma = [0] * len(faces), [0] * len(faces)
    beta_traces, gamma_traces = [], []

    for side in program.sides:
        _, e, r1, r2 = side[:4]
        if r1 == r2:
            region_pair(t, e)  # refuses the bridge
        bt, hb = _beta(m, doors, small, idle_beta, side)
        gt, hg = _gamma(m, doors, small, tough, rotations, idle_gamma, side)
        beta_traces.append(bt)
        gamma_traces.append(gt)
        if not (hb or hg):
            continue
        b1, b2 = (hb if r == bt.big_region else -hb for r in (r1, r2))
        g1, g2 = (hg if r == gt.receiver_region else -hg for r in (r1, r2))
        for family, x1, x2 in (("beta", b1, b2), ("gamma", g1, g2)):
            if x1 + x2:
                pair = f"{Fraction(x1, 2)}, {Fraction(x2, 2)}"
                raise IdentityViolation(f"{family} not antisymmetric across {e}: {pair}")
        if hb and hg:
            raise IdentityViolation(f"both transfer families moved charge across {e}")
        for r, b, g in ((r1, b1, g1), (r2, b2, g2)):
            if abs(b + g) > 2:
                raise IdentityViolation(
                    f"transfer across {e} into region {r} exceeds 1: {Fraction(b + g, 2)}"
                )
            beta[r] += b
            gamma[r] += g

    regions = tuple(
        RegionCharge(
            region_id=r.id,
            region_class=_region_class(small[r.id], r.length, tough[r.id]),
            length=r.length,
            alpha=_alpha(m, rim),
            beta=_charge(beta[r.id]),
            gamma=_charge(gamma[r.id]),
        )
        for r, rim in zip(faces, program.rims)
    )
    alpha_total = sum(rc.alpha for rc in regions)
    if alpha_total != 16:
        raise IdentityViolation(f"alpha total is {alpha_total}, expected 16")
    return ChargeReport(regions, tuple(beta_traces), tuple(gamma_traces))


def _charge(halves: int) -> Fraction:
    return _CHARGE[halves] if 0 <= halves <= 2 else Fraction(halves, 2)
