"""Local images and local-global obstructions for quartics ell*Y^2 = Z^4 - p.

Two obstruction computations are provided, each a closed rule at every
bad place; no lifting tree is searched and no norm group is classified:

* `local_image` gives, at each bad place, the exact set of invariants of
  the quaternion class (y, p) over the local points: the classes of the
  square roots of ell at q = p (`_image_at_p`), checked against one point
  that Hensel's lemma certifies; every class where p is a 4th power in
  Q_q; none at the other odd q | ell; and at q = 2 a rule on the
  valuation of z, ell mod 32 and p mod 16.  For (2, 17) the curve has
  points everywhere locally, yet every sum of one invariant per place is
  the nonzero class 1/2.
* `forced_section_invariants` computes, at each bad place v, the set of
  invariants forced on *any* local splitting of the fundamental group
  extension: the y-coordinate classes for which ell*y^2 is a norm from
  the degree-4 radical algebra Q_v[t]/(t^4 - p).  It reads each set from
  a rule: the image at q = p, {0} or nothing at an odd q | ell, and a
  64-key table at q = 2.  If 0 is not in the sumset of these forced sets,
  no global section can exist, regardless of whether the curve has
  rational points.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from itertools import product

from .exact import (
    CertificateError,
    Factorization,
    _sqrt_mod_odd_prime,
    factorize,
    is_perfect_square,
    is_probable_prime,
    primes_up_to,
    record,
)
from .padic import hensel_root, is_nth_power_unit
from .symbols import (
    REAL_PLACE,
    InvariantValue,
    Place,
    as_place,
    hilbert2_reader,
)

__all__ = [
    "TwistParams",
    "NoPointError",
    "ObstructionReport",
    "TwistConditions",
    "DensityReport",
    "local_image",
    "forced_section_invariants",
    "twist_conditions",
    "density_experiment",
    "exhaustive_search",
    "model_smoothness_check",
]


class NoPointError(Exception):
    """Raised when a bad place has no local point with y != 0; the message
    names the rule that shows it."""

    def __init__(self, place: Place, reason: str):
        self.place = place
        super().__init__(f"no local point at {place}: {reason}")


# ---------------------------------------------------------------- parameters
class TwistParams(record("TwistParams", "ell p ell_factorization")):
    """The twisted quartic ell*Y^2 = Z^4 - p, with the factorization of
    |ell|, factored here when none is given.  A given factorization must
    multiply to |ell| and have proven primes.  p and the primes of |ell|
    are proven here, once, so the bad places are built without a proof;
    `_proven` builds a twist from values its caller has proven."""

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

    @classmethod
    def _proven(cls, ell: int, p: int, ell_factorization: Factorization) -> "TwistParams":
        """The twist of an odd prime p coprime to ell and a squarefree
        factorization of |ell| into primes, all of which the caller has
        already proven."""
        return tuple.__new__(cls, (ell, p, ell_factorization))

    @property
    def odd_ell_primes(self) -> tuple[int, ...]:
        return _odd_primes(self.ell_factorization)

    @property
    def bad_finite_places(self) -> tuple[Place, ...]:
        primes = sorted({2, self.p, *self.odd_ell_primes})
        return tuple(Place._proven(q) for q in primes)

    @property
    def bad_places(self) -> tuple[Place, ...]:
        return self.bad_finite_places + (REAL_PLACE,)


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


_NONE = frozenset()
_ZERO_ONLY = frozenset({InvariantValue.zero()})
_HALF_ONLY = frozenset({InvariantValue.half()})
_BOTH = _ZERO_ONLY | _HALF_ONLY


def _image_at_p(ell: int, p: int) -> frozenset:
    """{inv(r), inv(-r)} for the invariant inv(r) = (r, p)_p = (r/p) of
    the roots r of r^2 = ell mod p, or the empty set if ell is not a
    square mod p.  For p = 3 mod 4, (-1/p) = -1 makes it {0, 1/2}; for
    p = 1 mod 4 both roots give (r/p) = r^((p-1)/2) = ell^((p-1)/4), so no
    root is taken: s = ell^((p-1)/4) mod p is 1 ({0}), -1 ({1/2}) or
    neither, when s^2 = (ell/p) = -1."""
    if p % 4 == 3:
        return _BOTH if pow(ell, (p - 1) // 2, p) == 1 else _NONE
    s = pow(ell, (p - 1) // 4, p)
    return _ZERO_ONLY if s == 1 else _HALF_ONLY if s == p - 1 else _NONE


def local_image(tw: TwistParams, place) -> frozenset:
    """The invariants of (y, p) over the points of X(Q_v) with y != 0, at a
    bad place v, each by a closed rule; an empty image raises NoPointError,
    whose message names the rule.  (A good place gives {0}: the class
    extends over the smooth model there, into the Brauer group of the local
    integers, which vanishes.)

    q = p: v(z) >= 1 gives ell*y^2 an odd valuation, and for v(z) <= 0
    ell*y^2/z^4 is a 1-unit, hence a square, so y lies in the class of
    +-1/r with r^2 = ell mod p: the image is {inv(r), inv(-r)}
    (`_image_at_p`), or empty if ell is not a square mod p.  The rule is
    checked on one point: (y, 1) with ell*y^2 = 1 - p, whose y is certified
    by Hensel's lemma from the simple root y0 = sqrt((1 - p)/ell) mod p, to
    the one digit the symbol of a unit reads.  y0 is found apart from the
    rule, and its invariant must lie in the image, else CertificateError.
    The real place, and q != p with p a 4th power in Q_q: {0}, as p is a
    square, and at q the smooth point (0, p^(1/4)) gives points with
    y != 0.  Other odd q | ell: empty, as v(ell*y^2) is odd and
    v(z^4 - p) even.  q = 2 otherwise: the invariants of `_dyadic_ys`.
    """
    place = as_place(place)
    q, ell, p = place.prime, tw.ell, tw.p
    if q == p:
        image = _image_at_p(ell, p)
        if not image:
            raise NoPointError(place, f"{ell} is not a square mod {p}")
        y0 = _sqrt_mod_odd_prime((1 - p) * pow(ell, -1, p), p)
        y, _ = hensel_root([p - 1, 0, ell], y0, p, 1)
        first = hilbert2_reader(place, p)(y)
        if first not in image:
            raise CertificateError(f"a point over Q_{p} has the invariant {first}, off the rule")
        return image
    if place.is_real or is_nth_power_unit(p, 4, q):
        return _ZERO_ONLY
    if q != 2:
        raise NoPointError(place, f"v({ell}*y^2) is odd and v(z^4 - {p}) even")
    invariant = hilbert2_reader(place, p)
    image = frozenset(invariant(y) for y in _dyadic_ys(ell, p))
    if not image:
        raise NoPointError(place, f"no valuation of z admits {ell}*y^2 = z^4 - {p}")
    return image


def _dyadic_ys(ell: int, p: int) -> list[int]:
    """y-values that carry the invariants of (y, p) over the points of the
    twist over Q_2 with y != 0, for p != 1 mod 16.

    The unit 4th powers of Z_2 are 1 + 16Z_2, and the symbol of a unit y
    reads y mod 4, so each case lists y up to squares and mod 4.
    v(z) < 0: with w = 1/z, ell*(y*w^2)^2 = 1 - p*w^4 = 1 mod 16 is a
    square, so ell = 1 mod 8, and y is +-1.  v(z) > 0: ell*y^2 = z^4 - p =
    -p mod 16, so ell = -p mod 8 (odd), and y is a unit, +-1.  v(z) = 0:
    z^4 - p runs over (1 - p) + 16Z_2.  For p = 3 mod 4, (z^4 - p)/2 is a
    fixed unit mod 8, so ell is even with ell/2 = (1 - p)/2 mod 8, and y is
    +-1.  For p = 5 mod 8, (z^4 - p)/4 is a fixed unit mod 4, so ell is odd
    with ell = (1 - p)/4 mod 4, and y is +-2.  For p = 9 mod 16, (z^4 - p)/8
    is any unit, so ell is even, and y is +-2.
    """
    units = ell % 8 == 1 or (ell + p) % 8 == 0  # v(z) < 0, v(z) > 0
    evens = False
    if p % 4 == 3:
        units = units or (ell % 2 == 0 and (ell // 2 - (1 - p) // 2) % 8 == 0)
    elif p % 8 == 5:
        evens = ell % 2 == 1 and (ell - (1 - p) // 4) % 4 == 0
    else:
        evens = ell % 2 == 0
    return ([1, -1] if units else []) + ([2, -2] if evens else [])


# The forced set at q = 2 for p != 1 mod 8: the p mod 16 whose set is
# {0, 1/2}, keyed by (v_2(ell), the odd part of ell mod 8); every other
# p mod 16 gives the empty set.
_DYADIC_OPEN = {
    (0, 1): frozenset({3, 5, 7, 11, 13, 15}),
    (0, 3): frozenset({5, 13}),
    (0, 5): frozenset({3, 5, 11, 13}),
    (0, 7): frozenset({5, 13}),
    (1, 1): frozenset({15}),
    (1, 3): frozenset({3, 11}),
    (1, 5): frozenset({7}),
    (1, 7): frozenset({3, 11}),
}


def _forced_at_2(ell: int, p: int) -> frozenset:
    """The forced set at q = 2 (`forced_section_invariants`)."""
    if p % 8 == 1:
        return _ZERO_ONLY
    v = 1 - ell % 2  # v_2(ell), as ell is squarefree
    return _BOTH if p % 16 in _DYADIC_OPEN[v, (ell >> v) % 8] else _NONE


def forced_section_invariants(tw: TwistParams) -> ObstructionReport:
    """Invariant sets forced on any collection of local sections.

    At each bad place v the section forces a y-class with ell*y^2 a norm
    from A = Q_v[t]/(t^4 - p); the possible invariants of (y, p) over such
    classes form S_v.  Away from the bad places, and at the real place
    (p > 0), the set is {0}.  If the sumset misses 0, the fundamental
    group extension admits no section.  Each S_v is a rule on integers, so
    none is inconclusive:

    * q = p: A is a totally ramified quartic field (t^4 - p is
      Eisenstein).  For p = 3 mod 4 it is not Galois (it would contain
      the unramified Q_p(i)), and by norm limitation its norm group is that
      of its quadratic subfield Q_p(sqrt(p)): ell*y^2 is a norm iff
      (ell, p)_p = (ell/p) = 1, for every y, so S_p is {0, 1/2} or empty.
      For p = 1 mod 4 it is a Kummer field, whose norm group is the kernel
      of the quartic symbol (x, p)_4, which is ell^((p-1)/4) * (y, p)_p
      mod p at x = ell*y^2: S_p is empty unless ell is a square mod p, else
      the one class with (y, p)_p = ell^((p-1)/4).  Both are the image at
      p, `_image_at_p`.
    * odd q | ell: if p is a 4th power in Q_q, t^4 - p has a linear factor,
      so A has Q_q as a factor and every element is a norm; and (y, p)_q
      is trivial for the square unit p: S_q = {0}.  Otherwise t^4 - p has
      no root mod q, hence no linear or cubic factor over F_q, and by
      Hensel's lemma A is a product of unramified fields of degree 2 or 4,
      whose norms have even valuation; ell*y^2 has odd valuation, so S_q
      is empty.
    * q = 2: A is fixed by the class of p modulo 4th powers, which is
      p mod 16 (the unit 4th powers of Z_2 are 1 + 16Z_2), and whether
      ell*y^2 is a norm by the square class of ell, which is v_2(ell) with
      the odd part of ell mod 8.  So S_2 is a function of those 2 * 4 * 8
      = 64 keys, and the table `_DYADIC_OPEN` is their finite exhaustion
      by the norm test of A and the symbol (y, p)_2 over the 8 square
      classes of y: {0} for p = 1 mod 8 (p is a square there, so every
      invariant is 0, and some class is always a norm), {0, 1/2} on 20
      keys and empty on the others.  The tests check every key against
      that norm test.
    """
    ell, p = tw.ell, tw.p
    contributions = {REAL_PLACE: _ZERO_ONLY}
    for place in tw.bad_finite_places:
        q = place.prime
        if q == p:
            contributions[place] = _image_at_p(ell, p)
        elif q == 2:
            contributions[place] = _forced_at_2(ell, p)
        else:
            contributions[place] = _ZERO_ONLY if is_nth_power_unit(p, 4, q) else _NONE
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
def exhaustive_search(bound: int, ell: int, rhs: int) -> list:
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


def model_smoothness_check(q: int, tw: TwistParams) -> bool:
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
