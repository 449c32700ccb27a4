"""Region charges and the two transfer rule families.

Every region starts with charge alpha(r) = 8 - 4|C_r| + sum of boundary
multiplicities; these always total exactly 16.  Two antisymmetric transfer
families then move charge across edges without changing the total:

* beta moves charge across each edge separating a big region from a small
  one (the big side receives);
* gamma moves charge across each edge separating a tough triangle from a
  small non-tough region (the non-tough side receives).

Each family is an ordered first-match rule chain; the matched rule id is
recorded so a report can be audited line by line.  A rule moves 0, 1/2 or 1
(``ZERO``, ``HALF``, ``ONE``): ``charge_report`` sums each region's beta and
gamma as integers in half-units, checks every identity on those, and makes
``Fraction``s only for its rows.  Big and small are read from the target's
door table (``config.door_table``).

Region geometry is read one way, shared with ``config``:
``planar.boundary_edges_at`` lists a region's other boundary edges at one end
of an edge, each caller testing their number, and ``config.m_plus`` gives m+
of such an edge with its region as the disc.  Each edge's two regions come
from ``RotationGraph.region_pairs``, looked up once per trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import NamedTuple

from .config import _require_d8, door_table, edges_disjoint, is_big, is_tough, m_plus
from .errors import DTargetError, IdentityViolation
from .planar import (
    DTarget,
    Edge,
    Region,
    boundary_edges_at,
    norm_edge,
    other_region,
    region_pair,
)

ZERO = Fraction(0)
HALF = Fraction(1, 2)
ONE = Fraction(1)


class RegionClass(Enum):
    BIG = "big"
    TRIANGLE_TOUGH = "triangle-tough"
    TRIANGLE_NOT_TOUGH = "triangle-not-tough"
    SMALL = "small"


def classify_region(t: DTarget, r: Region) -> RegionClass:
    if is_big(t, r):
        return RegionClass.BIG
    if r.length == 3:
        return (
            RegionClass.TRIANGLE_TOUGH if is_tough(t, r) else RegionClass.TRIANGLE_NOT_TOUGH
        )
    return RegionClass.SMALL


def alpha(t: DTarget, r: Region) -> int:
    """Initial charge: 8 - 4|C_r| + sum of m over C_r."""
    _require_d8(t)
    return 8 - 4 * r.length + sum(t.mult[e] for e in r.edges)


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
    _require_d8(t)
    e = norm_edge(*e)
    r1, r2 = region_pair(t, e)
    table, small = door_table(t)
    if small[r1.id] == small[r2.id]:
        return BetaTrace(e, None, None, None, ZERO)
    big, tiny = (r2, r1) if small[r1.id] else (r1, r2)
    if e in table[big.id]:
        return BetaTrace(e, 1, big.id, tiny.id, ZERO)
    flanks = [boundary_edges_at(big, e, z) for z in e]
    if any(len(at_z) != 1 for at_z in flanks):
        raise DTargetError(f"boundary of region {big.id} is not a simple cycle at {e}")
    disc = (big.id,)
    p1, p2 = (m_plus(t, f, disc) for (f,) in flanks)
    m = t.mult[e]
    if m == 2 and p1 == p2 == 6:
        rule, value = 2, ZERO
    elif m == 2 and {p1, p2} == {6, 5}:
        rule, value = 3, HALF
    elif m == 3 and p1 == p2 == 5:
        rule, value = 4, ZERO
    elif m == 3 and (p1 == 5) != (p2 == 5):
        rule, value = 5, HALF
    else:
        rule, value = 6, ONE
    return BetaTrace(e, rule, big.id, tiny.id, value)


def beta_edge(t: DTarget, e: Edge, r: Region) -> Fraction:
    """Beta charge received by r across e (negative when r is the small side)."""
    e = norm_edge(*e)
    other_region(t, e, r)  # refuses a region off e
    trace = beta_trace(t, e)
    return trace.value if r.id == trace.big_region else -trace.value


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


class _Flank(NamedTuple):
    """An edge of the tough triangle other than e: its end z on e, its m and
    its m+ (the region across it is small exactly when p > m)."""

    z: int
    m: int
    p: int


def gamma_trace(t: DTarget, e: Edge) -> GammaTrace:
    """Which gamma rule fires across e, and how much the receiver gets."""
    _require_d8(t)
    e = norm_edge(*e)
    r1, r2 = region_pair(t, e)
    table, small = door_table(t)
    if not (small[r1.id] and small[r2.id]):
        return GammaTrace(e, None, None, None, ZERO)
    tough1, tough2 = is_tough(t, r1), is_tough(t, r2)
    if tough1 == tough2:
        return GammaTrace(e, None, None, None, ZERO)
    tough, receiver = (r1, r2) if tough1 else (r2, r1)
    mult, disc = t.mult, (tough.id,)
    fa, fb = (
        _Flank(z, mult[f], m_plus(t, f, disc))
        for z in e
        for f in boundary_edges_at(tough, e, z)
    )
    # Either binding: x is the triangle's edge at one end of e, y its third edge.
    bindings = ((fa, fb), (fb, fa))
    m = mult[e]
    if m == 1 and fa.m >= 2 and fb.m >= 2 and fa.p + fb.p >= 6:
        rule, value = 1, ONE
    elif m == 1 and any(x.p >= 4 and y.m == 1 and y.p > y.m for x, y in bindings):
        rule, value = 2, HALF
    elif m == 1 and any(
        x.m == 3 and y.m == 1 and y.p > y.m
        and [mult[f] for f in boundary_edges_at(receiver, e, x.z)] == [4]
        for x, y in bindings
    ):
        rule, value = 3, HALF
    elif m == 2 and fa.m >= 2 and fb.m >= 2 and fa.p + fb.p >= 5 and (
        len(table[receiver.id]) > 1
        or any(edges_disjoint(e, d) for d in table[receiver.id])
        or (
            any(mult[f] == 4 for z in e for f in boundary_edges_at(receiver, e, z))
            and fa.p > fa.m and fb.p > fb.m
        )
    ):
        rule, value = 4, ONE
    elif m == 2 and fa.m == fb.m == 2 and any(
        len(t.graph.rotations[x.z]) == 3 and x.p > x.m and y.p == y.m
        for x, y in bindings
    ):
        rule, value = 5, HALF
    elif m == 3 and fa.m == fb.m == 2:
        rule, value = 6, ONE
    else:
        rule, value = 7, ZERO
    return GammaTrace(e, rule, receiver.id, tough.id, value)


def gamma_edge(t: DTarget, e: Edge, r: Region) -> Fraction:
    """Gamma charge received by r across e (negative when r is the tough side)."""
    e = norm_edge(*e)
    other_region(t, e, r)  # refuses a region off e
    trace = gamma_trace(t, e)
    return trace.value if r.id == trace.receiver_region else -trace.value


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
    (so beta and gamma totals vanish), at most one family moves charge
    across any edge, and no single region sends or receives more than 1
    across one edge.
    """
    _require_d8(t)
    faces = t.graph.faces
    beta = [0] * len(faces)  # half-units: twice the charge each region receives
    gamma = [0] * len(faces)
    beta_traces: list[BetaTrace] = []
    gamma_traces: list[GammaTrace] = []

    for e, (r1, r2) in zip(t.graph.edges, t.graph.region_pairs):
        bt, gt = beta_trace(t, e), gamma_trace(t, e)
        beta_traces.append(bt)
        gamma_traces.append(gt)
        hb, hg = _halves(bt.value), _halves(gt.value)
        b1, b2 = (hb if r.id == bt.big_region else -hb for r in (r1, r2))
        g1, g2 = (hg if r.id == gt.receiver_region else -hg for r in (r1, r2))
        for family, x1, x2 in (("beta", b1, b2), ("gamma", g1, g2)):
            if x1 + x2:
                pair = f"{Fraction(x1, 2)}, {Fraction(x2, 2)}"
                raise IdentityViolation(f"{family} not antisymmetric across {e}: {pair}")
        if (b1 or b2) and (g1 or g2):
            raise IdentityViolation(f"both transfer families moved charge across {e}")
        for r, b, g in ((r1, b1, g1), (r2, b2, g2)):
            if abs(b + g) > 2:
                raise IdentityViolation(
                    f"transfer across {e} into region {r.id} exceeds 1: {Fraction(b + g, 2)}"
                )
            beta[r.id] += b
            gamma[r.id] += g

    regions = tuple(
        RegionCharge(
            region_id=r.id,
            region_class=classify_region(t, r),
            length=r.length,
            alpha=alpha(t, r),
            beta=Fraction(beta[r.id], 2),
            gamma=Fraction(gamma[r.id], 2),
        )
        for r in faces
    )
    alpha_total = sum(rc.alpha for rc in regions)
    if alpha_total != 16:
        raise IdentityViolation(f"alpha total is {alpha_total}, expected 16")
    for family, halves in (("beta", sum(beta)), ("gamma", sum(gamma))):
        if halves:
            raise IdentityViolation(f"{family} total is {Fraction(halves, 2)}, expected 0")
    return ChargeReport(regions, tuple(beta_traces), tuple(gamma_traces))


def _halves(value: Fraction) -> int:
    """value in half-units; every rule moves a multiple of 1/2."""
    halves, rest = divmod(2 * value.numerator, value.denominator)
    if rest:
        raise IdentityViolation(f"transfer of {value} is not a multiple of 1/2")
    return halves


def positive_regions(t: DTarget) -> list[RegionCharge]:
    """Regions whose final charge is strictly positive."""
    return [rc for rc in charge_report(t).regions if rc.total > 0]
