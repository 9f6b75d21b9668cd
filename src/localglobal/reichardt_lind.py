"""Local points and local-global obstructions for quartics ell*Y^2 = Z^4 - p.

The near affine chart is g(y, z) = ell*y^2 - z^4 + p = 0; the far chart
(z = 1/w, y = u/w^2, covering points with |z| > 1) is
h(u, w) = ell*u^2 - 1 + p*w^4 = 0.  Local points at finite places are found
by a breadth-first lifting tree over residues and certified by Hensel's
lemma, which leaves them as integers that solve the chart modulo q^D at
the search's depth bound D; real points are found directly.  The zeros
mod q come lazily from `residue_zeros`, which tests each y by Euler's
criterion and takes the fourth roots from square roots, and the children
of a zero mod q^d solve one linear congruence mod q, because a polynomial
agrees with its first-order Taylor expansion modulo q^(d+1) on the box of
side q^d.  `local_points` yields the certified points of a place one
branch at a time, so one search serves every sample.

Two obstruction computations are provided:

* `point_obstructions` evaluates the quaternion class (y, p) at sampled
  adelic points, drawn from one search per place, and sums the local
  invariants; the curve has points everywhere locally yet each sum is
  the nonzero class 1/2.
* `forced_section_invariants` computes, at each bad place v, the set of
  invariants forced on *any* local splitting of the fundamental group
  extension: the y-coordinate classes for which ell*y^2 is a norm from
  the degree-4 radical algebra Q_v[t]/(t^4 - p).  If 0 is not in the
  sumset of these forced sets, no global section can exist, regardless
  of whether the curve has rational points.
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction
from functools import partial, reduce
from itertools import islice, product

from .exact import (
    Factorization,
    _least_nonresidue,
    _sqrt_mod_odd_prime,
    factorize,
    is_perfect_square,
    is_probable_prime,
    primes_up_to,
    record,
    valuation,
)
from .padic import InsufficientPrecision, hensel_root
from .symbols import (
    REAL_PLACE,
    InvariantValue,
    Place,
    as_place,
    hilbert2,
    norm_test,
)

__all__ = [
    "TwistParams",
    "LocalPoint",
    "NoPoint",
    "NoPointError",
    "ObstructionReport",
    "TwistConditions",
    "DensityReport",
    "local_point",
    "local_points",
    "residue_zeros",
    "point_obstructions",
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
class TwistParams(record("TwistParams", "ell p ell_factorization", (None,))):
    """The twisted quartic ell*Y^2 = Z^4 - p, with the factorization of
    |ell|, factored here when none is given.  A given factorization must
    multiply to |ell| and have proven primes."""

    __slots__ = ()

    def __new__(cls, ell: int, p: int, ell_factorization: Factorization | None = None):
        if ell == 0:
            raise ValueError("ell must be a nonzero squarefree integer")
        if ell_factorization is None:
            ell_factorization = factorize(abs(ell))
        elif ell_factorization.value != abs(ell) or not all(
            is_probable_prime(q) for q, _ in ell_factorization.factors
        ):
            raise ValueError(f"the factorization given is not one of |ell| = {abs(ell)}")
        if any(e > 1 for _, e in ell_factorization.factors):
            raise ValueError("ell must be a nonzero squarefree integer")
        if p < 3 or not is_probable_prime(p):
            raise ValueError("p must be an odd prime")
        if p % 2 == 0 or math.gcd(ell, p) != 1:
            raise ValueError("p must be odd and coprime to ell")
        return tuple.__new__(cls, (ell, p, ell_factorization))

    @property
    def odd_ell_primes(self) -> tuple[int, ...]:
        return _odd_primes(self.ell_factorization)

    @property
    def bad_finite_places(self) -> tuple[Place, ...]:
        primes = sorted({2, self.p, *self.odd_ell_primes})
        return tuple(Place.finite(q) for q in primes)

    @property
    def bad_places(self) -> tuple[Place, ...]:
        return self.bad_finite_places + (REAL_PLACE,)


# ------------------------------------------------------------- local points
class LocalPoint(record("LocalPoint", "place y z precision chart", defaults=("near",))):
    """A certified local solution; chart 'near' solves ell*y^2 = z^4 - p,
    chart 'far' solves ell*y^2 = 1 - p*z^4 (the substitution z -> 1/z,
    y -> y/z^2), and chart 'real' holds rational approximants.  At a
    finite place q, y and z are integers that solve the chart modulo
    q**precision."""

    __slots__ = ()


def _chart(tw: TwistParams, chart: str) -> tuple[int, int]:
    """(a, b) with the chart's equation ell*y^2 = a*z^4 + b: (1, -p) near,
    (-p, 1) far."""
    return (1, -tw.p) if chart == "near" else (-tw.p, 1)


def verify_local_point(tw: TwistParams, pt: LocalPoint) -> bool:
    """Check the chart's equation at the point's stated precision: modulo
    q**precision at a finite place q, to 2**-precision at the real place,
    where a point lies on the near chart."""
    real = pt.chart == "real"
    a, b = _chart(tw, "near" if real else pt.chart)
    residual = tw.ell * pt.y * pt.y - (a * pt.z**4 + b)
    if real:
        return abs(residual) <= Fraction(1, 2 ** pt.precision)
    return residual % pt.place.prime**pt.precision == 0


class NoPoint(record("NoPoint", "place depth")):
    """Witness that the lifting tree died out at every residue branch."""

    __slots__ = ()


def _residue_valuation(r: int, q: int, k: int) -> int | None:
    """Valuation of an integer residue known mod q^k; None if it could
    exceed the window."""
    return valuation(r, q) if r % q**k else None


# Binary digits of the real place's dyadic y; its symbol reads only signs.
_REAL_PRECISION = 16


def local_points(tw: TwistParams, v):
    """The certified points with y != 0 of the twist over the completion at
    v, lazily, from one search: each node of `_nodes` lifted.

    Finite places: breadth-first search over the zeros mod q^d of the near,
    then the far chart (see `_chart_points`), d = 1, 2, ..., D, with the
    depth bound D = 2 v_q(4 ell^2 p) + 6; a branch is closed out by Hensel's
    lemma once d exceeds twice the valuation t of one partial derivative,
    and its point is lifted at D digits (see `_certify`).  A tree still
    alive at depth D raises InsufficientPrecision once the points before it
    are taken.  Real place: one point, at the least z >= 0 with
    ell*(z^4 - p) > 0, floor(p^(1/4)) + 1 for ell > 0 and 0 for ell < 0,
    and y = sqrt((z^4 - p)/ell) rounded down to a dyadic fraction.
    """
    yield from (node() for node in _nodes(tw, as_place(v)))


def _nodes(tw: TwistParams, place):
    """The certified nodes of `local_points`, lazily: each a call that lifts it."""
    if place.is_real:
        z = math.isqrt(math.isqrt(tw.p)) + 1 if tw.ell > 0 else 0
        # y = (sqrt(m) - d)/|ell| with 0 <= d < 1/scale, so ell*y^2 misses
        # z^4 - p by less than 2 sqrt(m)/scale < 2^-_REAL_PRECISION
        m = tw.ell * (z**4 - tw.p)
        scale = 2 ** (_REAL_PRECISION + 1 + m.bit_length())
        y = Fraction(math.isqrt(m * scale * scale), abs(tw.ell) * scale)
        yield partial(LocalPoint, place, y, Fraction(z), _REAL_PRECISION, "real")
        return
    depth_bound = _depth_bound(tw, place.prime)
    for chart in ("near", "far"):
        yield from _chart_points(tw, place, chart, depth_bound)


def local_point(tw: TwistParams, v) -> LocalPoint | NoPoint:
    """The first of `local_points`, or `NoPoint` if the tree died out."""
    place = as_place(v)
    pt = next(local_points(tw, place), None)
    return NoPoint(place, _depth_bound(tw, place.prime)) if pt is None else pt


def _depth_bound(tw: TwistParams, q: int) -> int:
    return 2 * valuation(4 * tw.ell * tw.ell * tw.p, q) + 6


def _chart_points(tw, place, chart, depth_bound):
    """BFS one affine chart, yielding each certified branch as its `_certify` call.

    Depth d holds the zeros of the chart modulo q^d in (y, z) order.  The
    depth-1 zeros are drawn from `residue_zeros` one at a time, and each
    node's children come from the linear congruence of `_lift_children`,
    so a level costs O(q) per node instead of O(q^2).  A certified node
    with y0 != 0 lifts to a point with y != 0 (see `_certify`).  A
    certified node with y0 = 0 has t_y = None and lifts z, so its point
    keeps y = 0: it is refined instead, since nearby branches may carry
    admissible points.
    """
    ell, q = tw.ell, place.prime
    a, b = _chart(tw, chart)

    def g(y, z, mod):  # ell*y^2 - a*z^4 - b
        return (ell * y * y - a * pow(z, 4, mod) - b) % mod

    def dz_coeff(z, mod):  # d/dz of -a*z^4
        return -4 * a * pow(z, 3, mod) % mod

    def exact_y_poly(z0):  # ell*y^2 - (a*z0^4 + b), ascending
        return [-(a * z0**4 + b), 0, ell]

    def exact_z_poly(y0):  # -a*z^4 + (ell*y0^2 - b), ascending
        return [ell * y0 * y0 - b, 0, 0, 0, -a]

    frontier = residue_zeros(ell, a, b, q)
    for depth in range(1, depth_bound + 1):
        mod = q**depth
        next_frontier = []
        for y0, z0 in frontier:
            t_y = _residue_valuation(2 * ell * y0, q, depth)
            t_z = _residue_valuation(dz_coeff(z0, mod), q, depth)
            candidates = [t for t in (t_y, t_z) if t is not None]
            if y0 and candidates and depth > 2 * min(candidates):
                yield partial(_certify, place, chart, y0, z0, t_y, t_z, depth_bound,
                              exact_y_poly, exact_z_poly)
                continue
            if depth == depth_bound:
                raise InsufficientPrecision(
                    f"lifting tree still alive at depth {depth} over Q_{q}"
                )
            next_frontier += _lift_children(
                y0, z0, g(y0, z0, mod * q) // mod, 2 * ell * y0 % q,
                dz_coeff(z0, q), q, mod,
            )
        if not next_frontier:
            return
        frontier = next_frontier


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


def _certify(place, chart, y0, z0, t_y, t_z, depth_bound, exact_y_poly, exact_z_poly):
    """Lift a node (y0, z0) mod q^d with y0 != 0, certified at depth d > 2t
    along a derivative of valuation t, to an integer local point at the
    search's place q.

    With D = `depth_bound` >= d, the lifted coordinate starts from its
    residue at n = D + v_q(start) working digits (D for a zero start), and
    the other one is its residue, exact.  D digits are enough: n >= D >=
    d > 2t is the digit count Hensel's lemma needs, and the root comes back
    to n - t digits, so the point solves the chart modulo q^D.  A lifted y
    keeps D - t > D/2 >= 3 digits past its valuation, all that `hilbert2`
    reads (3 at q = 2, 1 at odd q); fewer raise InsufficientPrecision.  The
    point has y != 0: a lifted z leaves y = y0, and a lifted y agrees with
    y0 modulo q^(d - t), above v(y0) <= t = v(2*ell*y0).
    """
    q, y, z = place.prime, y0, z0
    if t_y is not None and (t_z is None or t_y <= t_z):
        y, digits = hensel_root(exact_y_poly(z0), y0, q, depth_bound + valuation(y0, q))
        if not y or digits - valuation(y, q) < (3 if q == 2 else 1):
            raise InsufficientPrecision(
                f"the lifted y over Q_{q} has too few digits for its symbol"
            )
    else:
        z, _ = hensel_root(exact_z_poly(y0), z0, q,
                           depth_bound + (valuation(z0, q) if z0 else 0))
    return LocalPoint(place, y, z, depth_bound, chart)


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


def point_obstructions(tw: TwistParams, samples: int, seed: int = 0) -> list[ObstructionReport]:
    """Sums of local invariants of the class (y, p) at `samples` adelic
    points.  Each bad place is searched for its first seed + samples nodes
    (`_nodes`); sample k lifts node (seed + k) mod n of the n found, and no
    other node is lifted.  Only the last `samples` nodes are kept: they are
    the ones read unless the stream ends early and the reads wrap; then, if
    n > samples, a second walk keeps the nodes that are read.  A tree alive
    at the depth bound ends a stream that gave a node, and is
    InsufficientPrecision before one; a place with no node raises
    NoPointError.  Good places contribute 0: the class extends over the
    smooth model there, into the Brauer group of the local integers, which
    vanishes.
    """
    columns = {}
    for place in tw.bad_places:
        window, n = deque(maxlen=samples), 0
        try:
            for n, node in enumerate(islice(_nodes(tw, place), seed + samples), 1):
                window.append(node)
        except InsufficientPrecision:
            if not n:
                raise
        if not n:
            raise NoPointError(place, _depth_bound(tw, place.prime))
        if n < seed + samples:  # the reads wrap around the n nodes
            reads = [(seed + k) % n for k in range(samples)]
            wanted = set(reads)
            stream = window if n <= samples else islice(_nodes(tw, place), n)
            kept = {i: node for i, node in enumerate(stream) if i in wanted}
            window = [kept[i] for i in reads]
        # On the far chart, y_affine = y_far / z_far^2 differs from y_far
        # by a square, so the symbol sees the same class either way.
        columns[place] = [hilbert2(node().y, tw.p, place)[1] for node in window]
    return [_make_report({place: frozenset({column[k]}) for place, column in columns.items()})
            for k in range(samples)]


_UNIT_SQUARE_REPS_2 = (1, 3, 5, 7, 2, 6, 10, 14)


def _square_class_reps(q: int) -> tuple[int, ...]:
    if q == 2:
        return _UNIT_SQUARE_REPS_2
    u = _least_nonresidue(q)
    return (1, u, q, q * u)


def forced_section_invariants(tw: TwistParams) -> ObstructionReport:
    """Invariant sets forced on any collection of local sections.

    At each bad place v the section forces a y-class with ell*y^2 a norm
    from Q_v[t]/(t^4 - p); the possible invariants of (y, p) over such
    classes form S_v.  Away from the bad places, and at the real place
    (p > 0), the set is {0}.  If the sumset misses 0, the fundamental
    group extension admits no section.  Every decision is on integers
    (`norm_test`), so none is inconclusive.
    """
    contributions = {}
    for place in tw.bad_finite_places:
        q = place.prime
        is_norm = norm_test(q, 4, tw.p)
        contributions[place] = frozenset(
            hilbert2(y, tw.p, place)[1] for y in _square_class_reps(q) if is_norm(tw.ell * y * y)
        )
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
        return all(self)


def twist_conditions(tw: TwistParams) -> TwistConditions:
    """Decide the four arithmetic conditions that make the twist a
    counterexample to the local-global principle with obstructed sections."""
    return TwistConditions(*_conditions(tw.ell, tw.odd_ell_primes, tw.p))


def _conditions(ell: int, odd_ell_primes: tuple[int, ...], p: int) -> tuple[bool, ...]:
    """Conditions (i)-(iv), in the fields' order, for an odd prime p coprime
    to ell, whose odd prime factors are `odd_ell_primes`.  Every prime here
    is already proven, so each condition is a rule on integers."""
    # (i) holds by the caller's contract: TwistParams refuses an even or
    # non-prime p and gcd(ell, p) != 1, and the searches sieve p.  The
    # report keeps the field so that it lists all four conditions.
    cond_ii = p % 4 == 1 and pow(ell % p, (p - 1) // 4, p) != 1
    # (iii) by Euler's criterion at each prime q
    cond_iii = all(q % 4 == 3 and pow(p, (q - 1) // 2, q) == 1 for q in odd_ell_primes)
    # (iv) p = 1 mod 16: y = 0, z = p^(1/4).  Even ell, p = 9 mod 16: y = 2
    # gives z^4 = p + 4*ell = 1 mod 16, a 4th power in Q_2.  Odd ell,
    # p = 9 mod 16, by v(z): v(z) = 0 makes v(z^4 - p) = 3 odd, no point;
    # v(z) > 0 needs the unit (z^4 - p)/ell = -p/ell mod 16 to be a square,
    # so ell = 7 mod 8; v(z) < 0 needs ell*(y*w^2)^2 = 1 - p*w^4 = 1 mod 16
    # (w = 1/z), so ell = 1 mod 8.  Then z = 2 resp. w = 2 gives a point.
    cond_iv = p % 8 == 1 and (ell % 2 == 0 or p % 16 == 1 or ell % 8 in (1, 7))
    return True, cond_ii, cond_iii, cond_iv


def _odd_primes(fz: Factorization) -> tuple[int, ...]:
    return tuple(q for q, _ in fz.factors if q != 2)


def _check_ell(ell: int) -> Factorization:
    """The factorization of |ell|, once ell is known nonzero and squarefree."""
    if ell == 0:
        raise ValueError("ell must be squarefree and nonzero")
    fz = factorize(abs(ell))
    if any(e > 1 for _, e in fz.factors):
        raise ValueError("ell must be squarefree and nonzero")
    return fz


def _passing_primes(ell: int, fz: Factorization, primes):
    """The odd p in `primes` coprime to ell whose twists pass all four
    conditions, in the order of `primes`; fz factors |ell|.  `primes` come
    from the sieve, which proves them prime."""
    odd_ell_primes = _odd_primes(fz)
    for p in primes:
        if p != 2 and ell % p and all(_conditions(ell, odd_ell_primes, p)):
            yield p


def twist_search(ell: int, p_max: int) -> list[int]:
    """Ascending primes p <= p_max for which the twist passes all four
    conditions and the forced-invariant computation certifies obstruction."""
    fz = _check_ell(ell)
    return [p for p in _passing_primes(ell, fz, primes_up_to(p_max))
            if forced_section_invariants(TwistParams(ell, p, fz)).verdict == "obstructed"]


class DensityReport(record("DensityReport", "ell p_max valid_count prime_count ratio predicted")):
    __slots__ = ()


def density_experiment(ell: int, p_max: int) -> DensityReport:
    """Empirical density of valid twist primes against the Chebotarev
    prediction, for ell whose odd prime factors are all 3 mod 4.

    With n the number of prime factors of ell, the conditions cut out
    independent events: p = 1 mod 8 (1/4); p a square mod each odd q | ell
    (1/2^k, k of them); then ell is a square mod p (2 is, and each q is by
    reciprocity, p = 1 mod 4), and not a 4th power (1/2).  For even ell
    that is (iv) already (k = n - 1): 1/2^(n+2).  For odd ell (k = n), (iv)
    holds for every p = 1 mod 8 if ell = +-1 mod 8, giving 1/2^(n+3), and
    else only for p = 1 mod 16 (1/2), giving 1/2^(n+4).  ell = +-1 is
    refused: it is a 4th power mod every p = 1 mod 8, so (ii) fails and
    the density is 0.  So is p_max < 2, which leaves no prime to count.
    """
    fz = _check_ell(ell)
    if abs(ell) == 1:
        raise ValueError("ell = +-1 is a 4th power mod every p = 1 mod 8: no twist passes")
    if any(q % 4 != 3 for q in _odd_primes(fz)):
        raise ValueError("density prediction needs all odd factors = 3 mod 4")
    n = len(fz.factors)
    extra = 2 if ell % 2 == 0 else 3 if ell % 8 in (1, 7) else 4
    if p_max < 2:
        raise ValueError(f"max_prime = {p_max} leaves no prime to count; the least is 2")
    primes = primes_up_to(p_max)
    valid = sum(1 for _ in _passing_primes(ell, fz, primes))
    return DensityReport(
        ell, p_max, valid, len(primes), Fraction(valid, len(primes)),
        Fraction(1, 2 ** (n + extra)),
    )


# ------------------------------------------------------- global searches
def exhaustive_search(bound: int, ell: int = 2, rhs: int = 17) -> list:
    """Integer solutions of ell*y^2 = z0^4 - rhs*z1^4 with gcd(z0, z1) = 1,
    y != 0, 0 <= z_i <= bound (solutions come in sign families, so
    nonnegative representatives are exhaustive)."""
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    if ell == 0:
        raise ValueError("ell must be nonzero")
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
    # the points of P^3(F_q), scaled to 1 at their first nonzero coordinate
    points = ((0,) * first + (1,) + rest
              for first in range(4) for rest in product(range(q), repeat=3 - first))
    for t, a, b, c in points:
        if (ell * t * t - a * a + p * b * b) % q or (a * b - c * c) % q:
            continue
        row1 = (2 * ell * t % q, -2 * a % q, 2 * p * b % q, 0)
        row2 = (0, b % q, a % q, -2 * c % q)
        if not _rank2(row1, row2, q):
            return False
    return True


def _rank2(row1, row2, q: int) -> bool:
    return any((row1[i] * row2[j] - row1[j] * row2[i]) % q
               for i in range(4) for j in range(i + 1, 4))
