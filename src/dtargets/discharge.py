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
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .config import _require_d8, door_table, is_big, is_tough, m_plus
from .errors import DTargetError, IdentityViolation
from .planar import DTarget, Edge, Region, norm_edge, other_region, region_pair

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
    return 8 - 4 * r.length + sum(t.m_edge(e) for e in r.edges)


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


def _flanking_edges(r: Region, e: Edge) -> tuple[Edge, Edge]:
    """The two boundary edges of r sharing an end with e, one per end."""
    a, b = e
    at_a = [f for f in r.edges if a in f and f != e]
    at_b = [f for f in r.edges if b in f and f != e]
    if len(at_a) != 1 or len(at_b) != 1:
        raise DTargetError(f"boundary of region {r.id} is not a simple cycle at {e}")
    return at_a[0], at_b[0]


def beta_trace(t: DTarget, e: Edge) -> BetaTrace:
    """Which beta rule fires across e, and how much the big side receives."""
    _require_d8(t)
    e = norm_edge(*e)
    r1, r2 = region_pair(t, e)
    table, small_flag = door_table(t)
    if small_flag[r1.id] == small_flag[r2.id]:
        return BetaTrace(e, None, None, None, ZERO)
    big, small = (r2, r1) if small_flag[r1.id] else (r1, r2)

    if e in table[big.id]:
        return BetaTrace(e, 1, big.id, small.id, ZERO)

    f1, f2 = _flanking_edges(big, e)
    disc = (big.id,)
    p1, p2 = m_plus(t, f1, disc), m_plus(t, f2, disc)
    m = t.m_edge(e)
    if m == 2 and p1 == 6 and p2 == 6:
        return BetaTrace(e, 2, big.id, small.id, ZERO)
    if m == 2 and {p1, p2} == {6, 5}:
        return BetaTrace(e, 3, big.id, small.id, HALF)
    if m == 3 and p1 == 5 and p2 == 5:
        return BetaTrace(e, 4, big.id, small.id, ZERO)
    if m == 3 and (p1 == 5) != (p2 == 5):
        return BetaTrace(e, 5, big.id, small.id, HALF)
    return BetaTrace(e, 6, big.id, small.id, ONE)


def _received(value: Fraction, receiver: int | None, r: Region) -> Fraction:
    """Charge r receives across an edge whose transfer of value goes to the
    region with id receiver; r is one side of that edge."""
    return value if r.id == receiver else -value


def _require_incident(t: DTarget, e: Edge, r: Region) -> None:
    if r.id not in (region.id for region in region_pair(t, e)):
        raise DTargetError(f"region {r.id} is not incident with edge {e}")


def beta_edge(t: DTarget, e: Edge, r: Region) -> Fraction:
    """Beta charge received by r across e (negative when r is the small side)."""
    e = norm_edge(*e)
    _require_incident(t, e, r)
    trace = beta_trace(t, e)
    return _received(trace.value, trace.big_region, r)


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


def _other_triangle_edges(tri: Region, e: Edge) -> tuple[Edge, Edge]:
    rest = sorted(f for f in tri.edges if f != e)
    return rest[0], rest[1]


def _common_vertex(e: Edge, f: Edge) -> int:
    (z,) = set(e) & set(f)
    return z


def gamma_trace(t: DTarget, e: Edge) -> GammaTrace:
    """Which gamma rule fires across e, and how much the receiver gets."""
    _require_d8(t)
    e = norm_edge(*e)
    r1, r2 = region_pair(t, e)
    table, small_flag = door_table(t)
    if not (small_flag[r1.id] and small_flag[r2.id]):
        return GammaTrace(e, None, None, None, ZERO)
    tough1, tough2 = is_tough(t, r1), is_tough(t, r2)
    if tough1 == tough2:
        return GammaTrace(e, None, None, None, ZERO)
    tough, receiver = (r1, r2) if tough1 else (r2, r1)

    e1, e2 = _other_triangle_edges(tough, e)
    disc = (tough.id,)
    m = t.m_edge
    bindings = ((e1, e2), (e2, e1))

    def far_small(f: Edge) -> bool:
        return small_flag[other_region(t, f, tough).id]

    def finish(rule: int, value: Fraction) -> GammaTrace:
        return GammaTrace(e, rule, receiver.id, tough.id, value)

    # rule 1 (symmetric)
    if (
        m(e) == 1
        and m(e1) >= 2
        and m(e2) >= 2
        and m_plus(t, e1, disc) + m_plus(t, e2, disc) >= 6
    ):
        return finish(1, ONE)
    # rule 2 (either binding)
    if m(e) == 1:
        for a, b in bindings:
            if m_plus(t, a, disc) >= 4 and m(b) == 1 and far_small(b):
                return finish(2, HALF)
    # rule 3 (either binding)
    if m(e) == 1:
        for a, b in bindings:
            if m(a) == 3 and m(b) == 1 and far_small(b):
                z = _common_vertex(e, a)
                flank = [f for f in receiver.edges if z in f and f != e]
                if len(flank) == 1 and m(flank[0]) == 4:
                    return finish(3, HALF)
    # rule 4 (symmetric)
    if (
        m(e) == 2
        and m(e1) >= 2
        and m(e2) >= 2
        and m_plus(t, e1, disc) + m_plus(t, e2, disc) >= 5
    ):
        ds = table[receiver.id]
        consecutive = [f for f in receiver.edges if f != e and set(f) & set(e)]
        extra = (
            len(ds) > 1
            or any(not (set(d) & set(e)) for d in ds)
            or (
                any(m(f) == 4 for f in consecutive)
                and far_small(e1)
                and far_small(e2)
            )
        )
        if extra:
            return finish(4, ONE)
    # rule 5 (either binding)
    if m(e) == 2 and m(e1) == 2 and m(e2) == 2:
        for a, b in bindings:
            z = _common_vertex(e, a)
            if (
                len(t.graph.rotations[z]) == 3
                and far_small(a)
                and not far_small(b)
            ):
                return finish(5, HALF)
    # rule 6 (symmetric)
    if m(e) == 3 and m(e1) == 2 and m(e2) == 2:
        return finish(6, ONE)
    return finish(7, ZERO)


def gamma_edge(t: DTarget, e: Edge, r: Region) -> Fraction:
    """Gamma charge received by r across e (negative when r is the tough side)."""
    e = norm_edge(*e)
    _require_incident(t, e, r)
    trace = gamma_trace(t, e)
    return _received(trace.value, trace.receiver_region, r)


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

    for e in t.graph.edges:
        bt, gt = beta_trace(t, e), gamma_trace(t, e)
        beta_traces.append(bt)
        gamma_traces.append(gt)
        r1, r2 = region_pair(t, e)
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
