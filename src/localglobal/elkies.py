"""The isotrivial family 2Y^2 = Z^4 - N(t), N(t) = (1 + 2/(1+t+t^2))^4 + 16.

Every fibre is everywhere locally solvable, yet globally empty: the
quartic-free part N0 of N(t) is a sum A^4 + 16B^4 with A, B odd and
coprime, each odd prime p | N0 is 1 mod 8, and the invariant sum of the
quaternion class (y, N0) over the places with v_p(N0) odd and 2 a quartic
nonresidue mod p is an odd multiple of 1/2.  The parity is certified via
the two-square-style composition identity for the form a^2 + 16b^2 and
the quartic residue symbol of 2, which the obstruction reads off by
Euler's criterion.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property

from .exact import (
    CertificateError,
    Factorization,
    _sqrt_minus_one,
    factorize,
    fourth_root,
    is_perfect_square,
    is_probable_prime,
    quartic_residue_symbol,
    primes_up_to,
    record,
)
from .padic import InsufficientPrecision, PadicNumber, is_nth_power_unit, padic_root
from .reichardt_lind import residue_zeros
from .symbols import InvariantValue

__all__ = [
    "ElkiesFibre",
    "QuarticRep",
    "RepresentationNotFound",
    "NoRepresentation",
    "fibre",
    "rationals_of_height",
    "local_solvability_report",
    "smooth_residue_point",
    "LocalSolvabilityReport",
    "quartic_rep",
    "gauss_criterion_check",
    "norm_identity_check",
    "obstruction_parity",
    "ObstructionParity",
    "family_scan",
    "FamilyScanReport",
]


class RepresentationNotFound(Exception):
    """No decomposition N0 = A^4 + 16B^4 with A, B odd coprime below the
    exhaustive bound; this would falsify the family property."""


class NoRepresentation(Exception):
    """No decomposition p = a^2 + 16b^2; only possible when -1 fails to
    be a fourth power mod p."""


# ------------------------------------------------------------------ fibres
class ElkiesFibre(record("ElkiesFibre", "t N N0 A B")):
    """One member of the family: parameter t (None encodes the fibre at
    infinity), its value N, the fourth-power-free part N0, and the
    canonical decomposition N0 = A^4 + 16B^4, the one with the smallest B.
    `fibre` hands over the factorization of N0 it already has; a fibre
    built without one factors N0 when a report first reads its primes.
    No `__slots__`: the instance dict holds that cached factorization."""

    def __new__(
        cls, t: Fraction | None, N: Fraction, N0: int, A: int, B: int,
        known_factorization: Factorization | None = None,
    ):
        if N0 != A**4 + 16 * B**4:
            raise CertificateError(f"N0 = {N0} != {A}^4 + 16*{B}^4")
        if A % 2 == 0 or B % 2 == 0:
            raise CertificateError(f"A = {A} and B = {B} must be odd")
        if math.gcd(A, B) != 1:
            raise CertificateError(f"A = {A} and B = {B} must be coprime")
        if N0 % 16 != 1:
            raise CertificateError(f"N0 = {N0} is not 1 mod 16")
        self = tuple.__new__(cls, (t, N, N0, A, B))
        if known_factorization is not None:
            if known_factorization.value != N0:
                raise CertificateError(f"the factorization given is not one of N0 = {N0}")
            self.__dict__["factorization"] = known_factorization  # the cached_property's slot
        return self

    @cached_property
    def factorization(self) -> Factorization:
        return factorize(self.N0)


def _b_bound(n0: int) -> int:
    """Search bound for B in N0 = A^4 + 16 B^4: floor((N0/16)^(1/4)) + 2."""
    return math.isqrt(math.isqrt(n0 // 16)) + 2


def _searched_fibre(t, n_val: Fraction, n0: int, factorization=None) -> ElkiesFibre:
    """The fibre with quartic-free part n0, its smallest-B decomposition
    found by trying B = 1, 3, 5, ... up to `_b_bound`."""
    if n0 <= 0 or n0 % 16 != 1:
        raise CertificateError(f"N0 = {n0} is not a positive 1 mod 16")
    for b in range(1, _b_bound(n0) + 1, 2):
        rest = n0 - 16 * b**4
        if rest <= 0:
            break
        a = fourth_root(rest)
        if a is not None and a % 2 == 1 and math.gcd(a, b) == 1:
            return ElkiesFibre(t, n_val, n0, a, b, factorization)
    raise RepresentationNotFound(f"N0 = {n0} is not A^4 + 16B^4 (A, B odd coprime)")


def _two_squares(p: int) -> tuple[int, int]:
    """(x, y) with x^2 + y^2 = p, for a prime p = 1 mod 4: Euclid's
    algorithm on p and a square root of -1 mod p stops at x, the first
    remainder below sqrt(p) (Hermite-Serret)."""
    if p % 4 != 1:
        raise CertificateError(f"{p} is not 1 mod 4")
    a, b = p, _sqrt_minus_one(p)
    while b * b > p:
        a, b = b, a % b
    y = math.isqrt(p - b * b)
    if b * b + y * y != p:
        raise CertificateError(f"{p} is not a sum of two squares")
    return b, y


def _has_smaller_b(fz: Factorization, w: int) -> bool:
    """Is n = fz.value = A^4 + 16B^4 with A, B odd coprime and B < w?

    Such a decomposition is a coprime pair X^2 + Y^2 = n with X = A^2 and
    Y = 4B^2.  In Z[i] every coprime pair is, up to units, the product of
    pi_p^e or its conjugate over the prime powers p^e of n, where
    p = pi_p conj(pi_p) (`_two_squares`); so all 2^k of them are checked.
    """
    reps = [(1, 0)]
    for p, e in fz.factors:
        x, y = _two_squares(p)
        g = (1, 0)
        for _ in range(e):
            g = (g[0] * x - g[1] * y, g[0] * y + g[1] * x)
        reps = [(r * g[0] - s * g[1], r * g[1] + s * g[0]) for r, s in reps] + [
            (r * g[0] + s * g[1], s * g[0] - r * g[1]) for r, s in reps
        ]
    for X, Y in reps:
        X, Y = (abs(X), abs(Y)) if X % 2 else (abs(Y), abs(X))
        b = math.isqrt(Y // 4)
        if Y == 4 * b * b and b % 2 == 1 and b < w and is_perfect_square(X):
            return True
    return False


def fibre(t) -> ElkiesFibre:
    """Construct the fibre at t (a rational, or None/'infinity').

    For t = a/b in lowest terms (a/b = 1/0 at infinity) put
    u = a^2 + ab + 3b^2 and w = a^2 + ab + b^2.  Then 1 + t + t^2 = w/b^2
    and N(t) = (u^4 + 16w^4)/w^4 in lowest terms: w is odd and prime to b,
    and u = w + 2b^2, so gcd(u, w) = 1.  The numerator is factored once.
    If it is fourth-power-free it is N0, decomposed as (A, B) = (u, w)
    unless a decomposition with smaller B exists (`_has_smaller_b`).
    Otherwise N0 and its factorization come from the exponents mod 4, and
    B is found by search.
    """
    if t is None or (isinstance(t, str) and t.lower() in ("infinity", "inf", "oo")):
        t_val, a, b = None, 1, 0
    else:
        t_val = Fraction(t)
        a, b = t_val.numerator, t_val.denominator
    w = a * a + a * b + b * b
    u = w + 2 * b * b
    n = u**4 + 16 * w**4
    n_val = Fraction(n, w**4)
    fz = factorize(n)
    if all(e < 4 for _, e in fz.factors) and not _has_smaller_b(fz, w):
        return ElkiesFibre(t_val, n_val, n, u, w, fz)
    reduced = Factorization(1, tuple((p, e % 4) for p, e in fz.factors if e % 4))
    return _searched_fibre(t_val, n_val, reduced.value, reduced)


def rationals_of_height(h: int) -> list:
    """None (the fibre at infinity) followed by all rationals a/b in
    lowest terms with |a|, b <= h, ordered by (height, value)."""
    values = {Fraction(0)}
    for b in range(1, h + 1):
        for a in range(-h, h + 1):
            if math.gcd(a, b) == 1:
                values.add(Fraction(a, b))
    key = lambda q: (max(abs(q.numerator), q.denominator), q)
    return [None] + sorted(values, key=key)


# ------------------------------------------------- local solvability
class LocalSolvabilityReport(record("LocalSolvabilityReport", (
    "fib",
    "real_solvable",
    "two_adic_solvable",
    "odd_bad_places",        # ((p, solvable), ...) for p | N0
    "good_places_checked",   # the odd good primes q, ascending
    "good_places_solvable",
))):
    __slots__ = ()

    @property
    def everywhere_solvable(self) -> bool:
        return (
            self.real_solvable
            and self.two_adic_solvable
            and all(ok for _, ok in self.odd_bad_places)
            and self.good_places_solvable
        )


def smooth_residue_point(n0: int, q: int) -> tuple[int, int] | None:
    """The first zero (y, z) mod q of 2y^2 = z^4 - n0 in `residue_zeros`
    order with a unit partial derivative (any but (0, 0)), for an odd prime
    q, or None; Hensel's lemma lifts it to a Q_q point (Silverman, AEC,
    V.1.1).  For q not dividing n0 and q >= 7 one exists: the curve is
    smooth of genus one over F_q, so Hasse-Weil gives it at least
    q + 1 - 2 sqrt(q) points, at most two of them at infinity.  For q = 3
    and 5 the tests try every residue of n0.  For q = 1 mod 8 dividing n0,
    2 is a square s^2 mod q, and any y with sy a square makes
    z^4 = 2y^2 = (sy)^2 a fourth power.
    """
    for y, z in residue_zeros(2, 1, -n0, q):
        if y or z:
            return y, z
    return None


def local_solvability_report(
    fib: ElkiesFibre, precision: int = 12, good_prime_bound: int = 50
) -> LocalSolvabilityReport:
    """Certify points of the fibre over R, Q_2, every Q_p with p | N0, and
    Q_q for every odd good prime q <= `good_prime_bound`, with no search.

    R: N0 > 0.  Q_2: N0 = 1 mod 16 is a fourth power in Q_2, so y = 0,
    z = N0^(1/4) is a point; `padic_root` reads the root off a residue mod
    2^(2 v_2(4) + 1), so fewer than 5 digits are InsufficientPrecision.
    Every odd prime, good or bad: `smooth_residue_point`.
    """
    n0 = fib.N0
    real_ok = n0 > 0
    try:
        root = padic_root(PadicNumber.from_int(n0, 2, precision), 4)
    except InsufficientPrecision as exc:
        raise InsufficientPrecision(f"the point y = 0, z = N0^(1/4) over Q_2: {exc}") from exc
    two_ok = pow(root.unit, 4, 2**root.prec) == n0 % 2**root.prec  # N0 odd: a unit root

    odd_entries = []
    for p, _ in fib.factorization.factors:
        if p % 8 != 1:
            raise CertificateError(f"{p} divides N0 = {n0} but is not 1 mod 8")
        odd_entries.append((p, smooth_residue_point(n0, p) is not None))

    good = tuple(q for q in primes_up_to(good_prime_bound) if q != 2 and n0 % q != 0)
    good_ok = all(smooth_residue_point(n0, q) is not None for q in good)
    return LocalSolvabilityReport(fib, real_ok, two_ok, tuple(odd_entries), good, good_ok)


# -------------------------------------------------- quartic representations
class QuarticRep(record("QuarticRep", "p a b")):
    """p = a^2 + 16 b^2 with a odd; the parity of b decides whether 2 is a
    fourth power mod p."""

    __slots__ = ()

    def __new__(cls, p: int, a: int, b: int):
        if a**2 + 16 * b**2 != p:
            raise CertificateError(f"{p} != {a}^2 + 16*{b}^2")
        if a % 2 == 0 or a <= 0 or b <= 0:
            raise CertificateError(f"need a odd, a > 0 and b > 0, got {a}, {b}")
        return tuple.__new__(cls, (p, a, b))

    @property
    def b_even(self) -> bool:
        return self.b % 2 == 0


def quartic_rep(p: int) -> QuarticRep:
    """Smallest-b representation p = a^2 + 16b^2, cross-checked against the
    quartic character: 2 is a fourth power mod p iff b is even."""
    if p % 8 != 1 or not is_probable_prime(p):
        raise ValueError("need a prime p = 1 mod 8")
    for b in range(1, math.isqrt(p // 16) + 1):
        rest = p - 16 * b * b
        if rest > 0 and is_perfect_square(rest):
            a = math.isqrt(rest)
            rep = QuarticRep(p, a, b)
            symbol_plus = quartic_residue_symbol(2, p).exponent == 0
            if symbol_plus != rep.b_even:
                raise ArithmeticError(
                    f"quartic criterion failed at p={p}: b={b}, (2/p)_4 "
                    f"{'+1' if symbol_plus else 'nontrivial'}"
                )
            return rep
    raise NoRepresentation(f"{p} has no representation a^2 + 16b^2")


def gauss_criterion_check(p: int) -> bool:
    """True when the representation parity matches the quartic character
    of 2 at p (raises inside quartic_rep on mismatch)."""
    rep = quartic_rep(p)
    return (quartic_residue_symbol(2, p).exponent == 0) == rep.b_even


def norm_identity_check(a: int, b: int, c: int, d: int) -> bool:
    """Composition law of the form x^2 + 16y^2:
    (a^2+16b^2)(c^2+16d^2) = (ac-16bd)^2 + 16(ad+bc)^2."""
    lhs = (a * a + 16 * b * b) * (c * c + 16 * d * d)
    rhs = (a * c - 16 * b * d) ** 2 + 16 * (a * d + b * c) ** 2
    return lhs == rhs


# ----------------------------------------------------------- obstruction
class ObstructionParity(record("ObstructionParity", "fib contributing_primes count invariant verdict")):
    __slots__ = ()


def obstruction_parity(fib: ElkiesFibre) -> ObstructionParity:
    """Sum of forced local invariants over odd places of the fibre.

    A prime p | N0 contributes 1/2 exactly when v_p(N0) is odd and 2 is
    not a fourth power mod p, that is 2^((p-1)/4) != 1 mod p (Euler's
    criterion; every p | N0 is 1 mod 8); the fibre is obstructed iff the
    number of contributing primes is odd.  For family members the count is odd
    because N0 = A^4 + 16B^4 forces the representation parity b = B^2 = 1
    mod 2 multiplicatively across the factorization.
    """
    contributing = []
    for p, e in fib.factorization.factors:
        if p % 8 != 1:
            raise CertificateError(f"{p} divides N0 = {fib.N0} but is not 1 mod 8")
        if e % 2 == 1 and not is_nth_power_unit(2, 4, p):
            contributing.append(p)
    count = len(contributing)
    invariant = InvariantValue.zero() if count % 2 == 0 else InvariantValue.half()
    verdict = "obstructed" if count % 2 == 1 else "unobstructed"
    return ObstructionParity(fib, tuple(contributing), count, invariant, verdict)


# ------------------------------------------------------------- family scan
class FamilyScanReport(record("FamilyScanReport", "entries")):
    """entries: ((t, ObstructionParity, LocalSolvabilityReport), ...)."""

    __slots__ = ()

    @property
    def fibre_count(self) -> int:
        return len(self.entries)

    @property
    def all_obstructed(self) -> bool:
        return all(par.verdict == "obstructed" for _, par, _ in self.entries)

    @property
    def all_locally_solvable(self) -> bool:
        return all(loc.everywhere_solvable for _, _, loc in self.entries)


def family_scan(ts, precision: int = 12, good_prime_bound: int = 50) -> FamilyScanReport:
    """fibre -> local solvability -> obstruction parity for each t; the
    family claim is that every entry is locally solvable and obstructed."""
    entries = []
    for t in ts:
        fib = fibre(t)
        loc = local_solvability_report(fib, precision, good_prime_bound)
        par = obstruction_parity(fib)
        entries.append((t, par, loc))
    return FamilyScanReport(tuple(entries))
