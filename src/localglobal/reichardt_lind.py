"""Local points and local-global obstructions for quartics ell*Y^2 = Z^4 - p.

The near affine chart is g(y, z) = ell*y^2 - z^4 + p = 0; the far chart
(z = 1/w, y = u/w^2, covering points with |z| > 1) is
h(u, w) = ell*u^2 - 1 + p*w^4 = 0.  Local points at finite places are found
by a breadth-first lifting tree over residues and certified by Hensel's
lemma; real points are found directly.  The zeros mod q come lazily from
`residue_zeros`, which tests each y by Euler's criterion and takes the
fourth roots from square roots, and the children of a zero mod q^d solve
one linear congruence mod q, because a polynomial agrees with its
first-order Taylor expansion modulo q^(d+1) on the box of side q^d.

Two obstruction computations are provided:

* `point_obstruction` evaluates the quaternion class (y, p) at a found
  adelic point and sums the local invariants; the curve has points
  everywhere locally yet the sum is the nonzero class 1/2.
* `forced_section_invariants` computes, at each bad place v, the set of
  invariants forced on *any* local splitting of the fundamental group
  extension: the y-coordinate classes for which ell*y^2 is a norm from
  the degree-4 radical algebra Q_v[t]/(t^4 - p).  If 0 is not in the
  sumset of these forced sets, no global section can exist, regardless
  of whether the curve has rational points.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce

from .exact import (
    CertificateError,
    _least_nonresidue,
    _sqrt_mod_odd_prime,
    factorize,
    is_perfect_square,
    is_probable_prime,
    is_squarefree,
    legendre_symbol,
    primes_up_to,
    record,
    valuation,
)
from .padic import (
    DEFAULT_PRECISION,
    InsufficientPrecision,
    PadicNumber,
    hensel_root,
    is_nth_power,
    padic_root,
)
from .symbols import (
    REAL_PLACE,
    InvariantValue,
    Place,
    as_place,
    hilbert2,
    is_local_norm,
)

__all__ = [
    "TwistParams",
    "CurveEquation",
    "LocalPoint",
    "NoPoint",
    "NoPointError",
    "ObstructionReport",
    "TwistConditions",
    "DensityReport",
    "local_point",
    "residue_zeros",
    "point_obstruction",
    "forced_section_invariants",
    "twist_conditions",
    "twist_search",
    "density_experiment",
    "exhaustive_search",
    "model_smoothness_check",
]


class NoPointError(Exception):
    """Raised when an obstruction computation needs a missing local point."""

    def __init__(self, place: Place, depth: int):
        self.place = place
        self.depth = depth
        super().__init__(f"no local point at {place} (searched depth {depth})")


# ---------------------------------------------------------------- parameters
class TwistParams(record("TwistParams", "ell p")):
    """The twisted quartic ell*Y^2 = Z^4 - p."""

    __slots__ = ()

    def __new__(cls, ell: int, p: int):
        if ell == 0 or not is_squarefree(abs(ell)):
            raise ValueError("ell must be a nonzero squarefree integer")
        if p < 3 or not is_probable_prime(p):
            raise ValueError("p must be an odd prime")
        if p % 2 == 0 or math.gcd(ell, p) != 1:
            raise ValueError("p must be odd and coprime to ell")
        return tuple.__new__(cls, (ell, p))

    @property
    def odd_ell_primes(self) -> tuple[int, ...]:
        return tuple(q for q, _ in factorize(abs(self.ell)).factors if q != 2)

    @property
    def bad_finite_places(self) -> tuple[Place, ...]:
        primes = sorted({2, self.p, *self.odd_ell_primes})
        return tuple(Place.finite(q) for q in primes)

    @property
    def bad_places(self) -> tuple[Place, ...]:
        return self.bad_finite_places + (REAL_PLACE,)


class CurveEquation(record("CurveEquation", "ell p")):
    """The same quartic shape ell*y^2 = z^4 - p without the twist-family
    constraints: p may be any nonzero integer coprime to ell (used for
    composite constants such as the isotrivial-family fibres)."""

    __slots__ = ()

    def __new__(cls, ell: int, p: int):
        if ell == 0 or p == 0 or math.gcd(ell, p) != 1:
            raise ValueError("need nonzero coprime coefficients")
        return tuple.__new__(cls, (ell, p))


# ------------------------------------------------------------- local points
class LocalPoint(record("LocalPoint", "place y z precision chart", defaults=("near",))):
    """A certified local solution; chart 'near' solves ell*y^2 = z^4 - p,
    chart 'far' solves ell*y^2 = 1 - p*z^4 (the substitution z -> 1/z,
    y -> y/z^2), and chart 'real' holds rational approximants."""

    __slots__ = ()


def _chart(tw: TwistParams, chart: str) -> tuple[int, int]:
    """(a, b) with the chart's equation ell*y^2 = a*z^4 + b: (1, -p) near,
    (-p, 1) far."""
    return (1, -tw.p) if chart == "near" else (-tw.p, 1)


def verify_local_point(tw: TwistParams, pt: LocalPoint) -> bool:
    """Check the chart's equation at the point's stated precision; a real
    point lies on the near chart."""
    real = pt.chart == "real"
    a, b = _chart(tw, "near" if real else pt.chart)
    y, z = (Fraction(pt.y), Fraction(pt.z)) if real else (pt.y, pt.z)
    residual = tw.ell * y * y - (a * z * z * z * z + b)
    if real:
        return abs(residual) <= Fraction(1, 2 ** pt.precision)
    return residual.is_zero


class NoPoint(record("NoPoint", "place depth")):
    """Witness that the lifting tree died out at every residue branch."""

    __slots__ = ()


def _residue_valuation(r: int, q: int, k: int) -> int | None:
    """Valuation of an integer residue known mod q^k; None if it could
    exceed the window."""
    return valuation(r, q) if r % q**k else None


def local_point(
    tw: TwistParams,
    v,
    precision: int = 16,
    *,
    allow_y_zero: bool = False,
    variant: int = 0,
) -> LocalPoint | NoPoint:
    """Search for a point of the twist over the completion at v.

    Finite places: breadth-first search over the zeros mod q^d of both
    affine charts, d = 1, 2, ..., in (y, z) order; a branch is closed out
    by Hensel's lemma as soon as d exceeds twice the valuation of one
    partial derivative.  Zeros mod q are drawn lazily and each lifting
    level costs O(q) per live node (see `_chart_search`).  `variant` skips
    that many certified branches first (deterministically different points
    for sampling).  A constant divisible by q^4 is first divided by its
    largest such power (see `_rescaled_point`).  Real place: the least
    z >= 0 with ell*(z^4 - p) > 0, which for ell > 0 and p > 0 is
    floor(p^(1/4)) + 1, and y = sqrt((z^4 - p)/ell) rounded down to a
    dyadic fraction.
    """
    place = as_place(v)
    if place.is_real:
        z = math.isqrt(math.isqrt(tw.p)) + 1 if tw.ell > 0 and tw.p > 0 else 0
        while (z**4 - tw.p) * tw.ell <= 0:
            z += 1
            if z > abs(tw.p) + 2:  # ell < 0 needs small z; ell > 0 large z
                return NoPoint(place, z)
        # y = (sqrt(m) - d)/|ell| with 0 <= d < 1/scale, so ell*y^2 misses
        # z^4 - p by less than 2 sqrt(m)/scale < 2^-precision
        m = tw.ell * (z**4 - tw.p)
        scale = 2 ** (precision + 1 + m.bit_length())
        y = Fraction(math.isqrt(m * scale * scale), abs(tw.ell) * scale)
        return LocalPoint(place, y, Fraction(z), precision, "real")

    q = place.prime
    if tw.p % q**4 == 0:
        k = valuation(tw.p, q) // 4
        return _rescaled_point(tw, q, k, precision, allow_y_zero, variant)
    depth_bound = 2 * valuation(4 * tw.ell * tw.ell * tw.p, q) + 6

    if allow_y_zero and is_nth_power(tw.p, 4, q, max(precision, 12)):
        root = padic_root(PadicNumber.from_int(tw.p, q, precision), 4)
        return LocalPoint(place, PadicNumber.zero(q, precision), root, precision)

    skip = variant
    for chart in ("near", "far"):
        result, skip = _chart_search(tw, q, chart, depth_bound, precision, skip,
                                     allow_y_zero)
        if result is not None:
            return result
    return NoPoint(place, depth_bound)


def _rescaled_point(tw, q, k, precision, allow_y_zero, variant):
    """A point of ell*y^2 = z^4 - p over Q_q when q^(4k) divides p.

    The curve is isomorphic over Q_q to ell*y^2 = z^4 - p/q^(4k), whose
    residue tree stays bounded, while at (0, 0) the tree of the original
    grows by q^2 children a level.  A point of the smaller curve maps back
    as (q^(2k) y, q^k z) on the near chart and as (y, z/q^k) on the far
    chart, and the mapped point is checked against the original equation.
    """
    reduced = CurveEquation(tw.ell, tw.p // q ** (4 * k))
    pt = local_point(reduced, q, precision, allow_y_zero=allow_y_zero, variant=variant)
    if isinstance(pt, NoPoint):
        return pt
    scale = PadicNumber.from_int(q**k, q, precision)
    if pt.chart == "near":
        y, z = pt.y * scale * scale, pt.z * scale
    else:
        y, z = pt.y, pt.z / scale
    mapped = LocalPoint(pt.place, y, z, precision, pt.chart)
    if not verify_local_point(tw, mapped):
        raise CertificateError(f"rescaled point misses {tw} over Q_{q}")
    return mapped


def _chart_search(tw, q, chart, depth_bound, precision, skip, allow_y_zero):
    """BFS one affine chart; returns (LocalPoint | None, remaining skip).

    Depth d holds the zeros of the chart modulo q^d in (y, z) order.  The
    depth-1 zeros are drawn from `residue_zeros` one at a time, and each
    node's children come from the linear congruence of `_lift_children`,
    so a level costs O(q) per node instead of O(q^2).  A branch whose
    working precision cannot show its derivative is not refined: its
    descendants share that derivative's valuation, so none of them can be
    certified either.  If the chart then ends without a point, that
    InsufficientPrecision is raised.  A certified branch that `skip` passes
    by is counted from its residues (`_lifts_to_a_point`), and lifted only
    when they cannot show that it gives a point.
    """
    ell = tw.ell
    a, b = _chart(tw, chart)

    def g(y, z, mod):  # ell*y^2 - a*z^4 - b
        return (ell * y * y - a * pow(z, 4, mod) - b) % mod

    def dz_coeff(z, mod):  # d/dz of -a*z^4
        return -4 * a * pow(z, 3, mod) % mod

    def exact_y_poly(z0):  # ell*y^2 - (a*z0^4 + b), ascending
        return [-(a * z0**4 + b), 0, ell]

    def exact_z_poly(y0):  # -a*z^4 + (ell*y0^2 - b), ascending
        return [ell * y0 * y0 - b, 0, 0, 0, -a]

    short = None  # InsufficientPrecision of an abandoned branch
    frontier = residue_zeros(ell, a, b, q)
    for depth in range(1, depth_bound + 1):
        mod = q**depth
        next_frontier = []
        for y0, z0 in frontier:
            t_y = _residue_valuation(2 * ell * y0, q, depth)
            t_z = _residue_valuation(dz_coeff(z0, mod), q, depth)
            candidates = [t for t in (t_y, t_z) if t is not None]
            t_min = min(candidates) if candidates else None
            if t_min is not None and depth > 2 * t_min:
                if skip > 0 and _lifts_to_a_point(q, y0, z0, t_y, t_z, precision):
                    skip -= 1  # deterministic variant: pass this branch by
                    continue
                try:
                    pt = _certify(
                        tw, q, chart, y0, z0, t_y, t_z, precision, exact_y_poly,
                        exact_z_poly, allow_y_zero,
                    )
                except InsufficientPrecision as exc:
                    short = exc
                    continue
                if pt is not None:
                    if skip > 0:  # y0 = 0: it took the lift to count it
                        skip -= 1
                        continue
                    return pt, 0
                # certified branch rejected (its point would have y = 0):
                # keep refining, nearby branches may carry admissible points
            if depth == depth_bound:
                raise short or InsufficientPrecision(
                    f"lifting tree still alive at depth {depth} over Q_{q}"
                )
            next_frontier += _lift_children(
                y0, z0, g(y0, z0, mod * q) // mod, 2 * ell * y0 % q,
                dz_coeff(z0, q), q, mod,
            )
        if not next_frontier:
            break
        frontier = next_frontier
    if short is not None:
        raise short
    return None, skip


def residue_zeros(ell: int, a: int, b: int, q: int):
    """The zeros (y, z) of ell*y^2 = a*z^4 + b mod the prime q, lazily, in
    (y, z) order.  If q | a, z is free; q = 2 is a scan.  Otherwise
    u = (ell*y^2 - b)/a has the root 0 if u = 0, and if u is a fourth power
    (Euler's criterion) the roots +-z, and +-iz (i^2 = -1) for q = 1 mod 4,
    with z a square root of a square root of u.  That square root is a
    square: both signs are for q = 1 mod 4, and u^((q+1)/4) = z^2 for
    q = 3 mod 4.  For q = 1 mod 4 the least non-residue c is searched once,
    at the first fourth power; it serves every square root and gives
    i = c^((q-1)/4)."""
    if a % q == 0:
        yield from ((y, z) for y in range(q) if (ell * y * y - b) % q == 0 for z in range(q))
        return
    if q == 2:
        yield from ((y, z) for y in (0, 1) for z in (0, 1) if (ell * y - a * z - b) % 2 == 0)
        return
    inv_a = pow(a, -1, q)
    euler = (q - 1) // (4 if q % 4 == 1 else 2)
    c = i = None  # for q = 1 mod 4, found at the first fourth power
    for y in range(q):
        u = (ell * y * y - b) * inv_a % q
        if u == 0:
            yield y, 0
        elif pow(u, euler, q) == 1:
            if q % 4 == 1 and c is None:
                c = _least_nonresidue(q)
                i = pow(c, (q - 1) // 4, q)
            z = _sqrt_mod_odd_prime(_sqrt_mod_odd_prime(u, q, c), q, c)
            roots = [z, q - z]
            if i is not None:
                roots += [z * i % q, q - z * i % q]
            for r in sorted(roots):
                yield y, r


def _lift_children(y0, z0, c0, g_y, g_z, q, step):
    """Zeros mod q*step above the zero (y0, z0) mod step, in (dy, dz) order.

    Taylor's formula is exact for a polynomial: every term of degree >= 2
    in (dy*step, dz*step) is divisible by step^2, hence by q*step, so
    g(y0 + dy*step, z0 + dz*step) = g(y0, z0) + step*(g_y*dy + g_z*dz)
    mod q*step, q = 2 included.  With c0 = g(y0, z0)/step and the partial
    derivatives g_y, g_z reduced mod q, a child is a solution of
    c0 + g_y*dy + g_z*dz = 0 mod q.
    """
    if g_z:
        inv = pow(g_z, -1, q)
        return [(y0 + dy * step, z0 + (-(c0 + g_y * dy) * inv % q) * step)
                for dy in range(q)]
    if g_y:
        y1 = y0 + (-c0 * pow(g_y, -1, q) % q) * step
        return [(y1, z0 + dz * step) for dz in range(q)]
    if c0:
        return []
    return [(y0 + dy * step, z0 + dz * step) for dy in range(q) for dz in range(q)]


def _lift_plan(q, y0, z0, t_y, t_z, precision):
    """(use_y, n, t): `_certify` lifts y if use_y, else z, from its residue
    at working precision n along a derivative of valuation t."""
    use_y = t_y is not None and (t_z is None or t_y <= t_z)
    start, t = (y0, t_y) if use_y else (z0, t_z)
    return use_y, precision + (valuation(start, q) if start else 0), t


def _lifts_to_a_point(q, y0, z0, t_y, t_z, precision) -> bool:
    """Whether `_certify` surely returns a point for the certified node
    (y0, z0) mod q^depth, depth > 2t, read off its residues: y0 != 0 and
    the working precision n exceeds 2t.  The point then has y != 0: a
    lifted z leaves y = y0, and a lifted y agrees with y0 mod
    q^(min(depth, n) - t), above v(y0) <= t = v(2*ell*y0)."""
    if not y0:
        return False
    _, n, t = _lift_plan(q, y0, z0, t_y, t_z, precision)
    return n > 2 * t


def _certify(tw, q, chart, y0, z0, t_y, t_z, precision, exact_y_poly,
             exact_z_poly, allow_y_zero):
    """Turn a Hensel-liftable residue pair into an exact local point.

    The lifted coordinate starts from its integer residue at absolute
    precision `precision` + v_q(start), or `precision` for a zero start:
    the precision `PadicNumber.from_int` would give it.  Hensel's lemma
    needs more than 2t digits for a derivative of valuation t; a working
    precision of at most 2t raises InsufficientPrecision.  A node with
    y0 = 0 lifts z (t_y is None there) and so keeps y = 0: without
    `allow_y_zero` it is refused before the lift.
    """
    use_y, n, t = _lift_plan(q, y0, z0, t_y, t_z, precision)
    if n <= 2 * t:
        raise InsufficientPrecision(
            f"{n} digits over Q_{q} cannot show a derivative of valuation {t}:"
            f" Hensel lifting needs more than {2 * t}"
        )
    if not y0 and not allow_y_zero:
        return None
    if use_y:
        z = PadicNumber.from_int(z0, q, precision)
        y = hensel_root(exact_y_poly(z0), y0, q, n)
    else:
        y = PadicNumber.from_int(y0, q, precision)
        z = hensel_root(exact_z_poly(y0), z0, q, n)
    if y.is_zero and not allow_y_zero:
        return None
    return LocalPoint(Place.finite(q), y, z, precision, chart)


# ----------------------------------------------------------- obstruction
class ObstructionReport(record("ObstructionReport", "contributions total verdict")):
    """contributions: ((Place, frozenset of invariants), ...) in place
    order; total: their sumset; verdict: "obstructed" unless 0 is in it."""

    __slots__ = ()

    def contribution(self, v) -> frozenset:
        place = as_place(v)
        for entry, values in self.contributions:
            if entry == place:
                return values
        return frozenset({InvariantValue.zero()})  # good places

    def as_dict(self) -> dict:
        return {str(place): sorted(str(x) for x in values)
                for place, values in self.contributions}


def _sumset(sets) -> frozenset:
    def pairwise(acc, nxt):
        return frozenset(a + b for a in acc for b in nxt)

    return reduce(pairwise, sets, frozenset({InvariantValue.zero()}))


def _make_report(contributions: dict) -> ObstructionReport:
    ordered = tuple(
        sorted(
            contributions.items(),
            key=lambda item: (item[0].is_real, item[0].prime or 0),
        )
    )
    total = _sumset(values for _, values in ordered)
    verdict = "unobstructed" if InvariantValue.zero() in total else "obstructed"
    return ObstructionReport(ordered, total, verdict)


def point_obstruction(
    tw: TwistParams,
    places=None,
    precision: int = 16,
    variant: int = 0,
) -> ObstructionReport:
    """Sum of local invariants of the class (y, p) at a found adelic point.

    Unsampled places of good reduction contribute 0: the class extends
    over the smooth projective model there, so its evaluation lands in
    the Brauer group of the local integers, which vanishes.
    """
    if places is None:
        places = tw.bad_places
    contributions = {}
    for v in places:
        place = as_place(v)
        pt = local_point(tw, place, precision, variant=variant)
        if isinstance(pt, NoPoint):
            raise NoPointError(place, pt.depth)
        # On the far chart, y_affine = y_far / z_far^2 differs from y_far
        # by a square, so the symbol sees the same class either way.
        _, inv = hilbert2(pt.y, tw.p, place)
        contributions[place] = frozenset({inv})
    return _make_report(contributions)


_UNIT_SQUARE_REPS_2 = (1, 3, 5, 7, 2, 6, 10, 14)


def _square_class_reps(q: int) -> tuple[int, ...]:
    if q == 2:
        return _UNIT_SQUARE_REPS_2
    u = next(r for r in range(2, q) if legendre_symbol(r, q) == -1)
    return (1, u, q, q * u)


def forced_section_invariants(
    tw: TwistParams, precision: int = DEFAULT_PRECISION
) -> ObstructionReport:
    """Invariant sets forced on any collection of local sections.

    At each bad place v the section forces a y-class with ell*y^2 a norm
    from Q_v[t]/(t^4 - p); the possible invariants of (y, p) over such
    classes form S_v.  Away from the bad places, and at the real place
    (p > 0), the set is {0}.  If the sumset misses 0, the fundamental
    group extension admits no section.
    """
    contributions = {}
    for place in tw.bad_finite_places:
        q = place.prime
        values = set()
        for y in _square_class_reps(q):
            try:
                if is_local_norm(tw.ell * y * y, q, 4, tw.p, precision):
                    values.add(hilbert2(y, tw.p, place)[1])
            except InsufficientPrecision as exc:
                raise InsufficientPrecision(
                    f"norm decision at {place} needs more than precision {precision}"
                ) from exc
        contributions[place] = frozenset(values)
    contributions[REAL_PLACE] = frozenset({InvariantValue.zero()})
    return _make_report(contributions)


# ------------------------------------------------------------ twist family
class TwistConditions(record("TwistConditions", (
    "odd_prime_coprime",      # (i)  p odd prime, not among ell's primes
    "quartic_nonresidue",     # (ii) p = 1 mod 4, ell not a 4th power mod p
    "square_mod_ell_primes",  # (iii) p square mod each q | ell, q = 3 mod 4
    "two_adic_solvable",      # (iv) p = 1 mod 8 with a Q_2 point
))):
    __slots__ = ()

    @property
    def all_satisfied(self) -> bool:
        return (
            self.odd_prime_coprime
            and self.quartic_nonresidue
            and self.square_mod_ell_primes
            and self.two_adic_solvable
        )


def twist_conditions(tw: TwistParams) -> TwistConditions:
    """Decide the four arithmetic conditions that make the twist a
    counterexample to the local-global principle with obstructed sections."""
    ell, p = tw.ell, tw.p
    # (i) holds by construction: TwistParams refuses an even or non-prime p
    # and gcd(ell, p) != 1.  The report keeps the field so that it lists
    # all four conditions.
    cond_i = True
    cond_ii = p % 4 == 1 and pow(ell % p, (p - 1) // 4, p) != 1
    cond_iii = all(
        q % 4 == 3 and legendre_symbol(p, q) == 1 for q in tw.odd_ell_primes
    )
    if p % 8 != 1:
        cond_iv = False
    elif ell % 2 == 0 or p % 16 == 1:
        # p = 1 mod 16: y = 0, z = p^(1/4); even ell, p = 9 mod 16:
        # y = 2 gives z^4 = p + 4*ell = 1 mod 16, a 4th power in Q_2.
        cond_iv = True
    else:
        cond_iv = not isinstance(
            local_point(tw, 2, precision=8, allow_y_zero=True), NoPoint
        )
    return TwistConditions(cond_i, cond_ii, cond_iii, cond_iv)


def twist_search(ell: int, p_max: int) -> list[int]:
    """Ascending primes p <= p_max for which the twist passes all four
    conditions and the forced-invariant computation certifies obstruction."""
    if ell == 0 or not is_squarefree(abs(ell)):
        raise ValueError("ell must be squarefree and nonzero")
    out = []
    for p in primes_up_to(p_max):
        if p == 2 or math.gcd(ell, p) != 1:
            continue
        tw = TwistParams(ell, p)
        if not twist_conditions(tw).all_satisfied:
            continue
        if forced_section_invariants(tw).verdict == "obstructed":
            out.append(p)
    return out


class DensityReport(record("DensityReport", "ell p_max valid_count prime_count ratio predicted")):
    __slots__ = ()


def density_experiment(ell: int, p_max: int) -> DensityReport:
    """Empirical density of valid twist primes against the Chebotarev
    prediction 1/2^(n+2) (even ell) resp. 1/2^(n+4) (odd ell), n the
    number of prime factors of ell."""
    if ell == 0 or not is_squarefree(abs(ell)):
        raise ValueError("ell must be squarefree and nonzero")
    factors = factorize(abs(ell)).factors
    if any(q % 4 != 3 for q, _ in factors if q != 2):
        raise ValueError("density prediction needs all odd factors = 3 mod 4")
    n = len(factors)
    predicted = (
        Fraction(1, 2 ** (n + 2)) if ell % 2 == 0 else Fraction(1, 2 ** (n + 4))
    )
    primes = primes_up_to(p_max)
    valid = 0
    for p in primes:
        if p == 2 or math.gcd(ell, p) != 1:
            continue
        if twist_conditions(TwistParams(ell, p)).all_satisfied:
            valid += 1
    return DensityReport(
        ell, p_max, valid, len(primes), Fraction(valid, len(primes)), predicted
    )


# ------------------------------------------------------- global searches
def exhaustive_search(bound: int, ell: int = 2, rhs: int = 17) -> list:
    """Integer solutions of ell*y^2 = z0^4 - rhs*z1^4 with gcd(z0, z1) = 1,
    y != 0, 0 <= z_i <= bound (solutions come in sign families, so
    nonnegative representatives are exhaustive)."""
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    solutions = []
    for z1 in range(bound + 1):
        r = rhs * z1**4
        for z0 in range(bound + 1):
            if math.gcd(z0, z1) != 1:
                continue
            t = z0**4 - r
            if t == 0 or t % ell:
                continue
            y2 = t // ell
            if y2 > 0 and is_perfect_square(y2):
                solutions.append((math.isqrt(y2), z0, z1))
    return solutions


def model_smoothness_check(q: int, tw: TwistParams = TwistParams(2, 17)) -> bool:
    """Smoothness of the projective model (ell*T^2 = A^2 - p*B^2, AB = C^2)
    over F_q at a prime q of good reduction: the 2x4 Jacobian
    [[2*ell*T, -2A, 2p*B, 0], [0, B, A, -2C]] must have rank 2 at every
    F_q-point."""
    if not is_probable_prime(q):
        raise ValueError("q must be prime")
    if (2 * tw.ell * tw.p) % q == 0:
        raise ValueError(f"q = {q} is a place of bad reduction")
    ell, p = tw.ell % q, tw.p % q

    def points():
        for first in range(4):  # index of the first unit coordinate
            fixed = [0] * first + [1]
            for rest in _tuples(q, 3 - first):
                yield tuple(fixed + list(rest))

    for t, a, b, c in points():
        if (ell * t * t - a * a + p * b * b) % q or (a * b - c * c) % q:
            continue
        row1 = (2 * ell * t % q, -2 * a % q, 2 * p * b % q, 0)
        row2 = (0, b % q, a % q, -2 * c % q)
        if not _rank2(row1, row2, q):
            return False
    return True


def _tuples(q: int, length: int):
    if length == 0:
        yield ()
        return
    for head in range(q):
        for tail in _tuples(q, length - 1):
            yield (head, *tail)


def _rank2(row1, row2, q: int) -> bool:
    for i in range(4):
        for j in range(i + 1, 4):
            if (row1[i] * row2[j] - row1[j] * row2[i]) % q:
                return True
    return False
