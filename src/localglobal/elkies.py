"""The isotrivial family 2Y^2 = Z^4 - N(t), N(t) = (1 + 2/(1+t+t^2))^4 + 16.

Every fibre is everywhere locally solvable, yet globally empty: the
quartic-free part N0 of N(t) is a sum A^4 + 16B^4 with A, B odd and
coprime, each odd prime p | N0 is 1 mod 8, and the invariant sum of the
quaternion class (y, N0) over the places with v_p(N0) odd and 2 a quartic
nonresidue mod p is an odd multiple of 1/2.  The parity is certified via
the two-square-style composition identity for the form a^2 + 16b^2 and
the quartic residue symbol of 2, which the obstruction reads off by
Euler's criterion.  Every place is certified locally solvable by rule,
with no search, no prime bound and no p-adic digits.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exact import (
    CertificateError,
    Factorization,
    _sqrt_minus_one,
    factorize,
    is_perfect_square,
    is_probable_prime,
    quartic_residue_symbol,
    record,
)
from .padic import is_nth_power_unit
from .symbols import InvariantValue

__all__ = [
    "ElkiesFibre",
    "QuarticRep",
    "RepresentationNotFound",
    "fibre",
    "rationals_of_height",
    "local_solvability_report",
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
    """N0 is not A^4 + 16B^4 with A, B odd coprime; this would falsify the
    family property."""


# ------------------------------------------------------------------ fibres
class ElkiesFibre(record("ElkiesFibre", "t N N0 A B factorization", (None,))):
    """One member of the family: parameter t (None encodes the fibre at
    infinity), its value N, the fourth-power-free part N0, the canonical
    decomposition N0 = A^4 + 16B^4, the one with the smallest B, and the
    factorization of N0, factored here when none is given.  Every p | N0
    is 1 mod 8: p divides neither A nor 2B, and (A/2B)^4 = -1 mod p, so
    A/2B has order 8 in F_p*."""

    __slots__ = ()

    def __new__(
        cls, t: Fraction | None, N: Fraction, N0: int, A: int, B: int,
        factorization: Factorization | None = None,
    ):
        if N0 != A**4 + 16 * B**4:
            raise CertificateError(f"N0 = {N0} != {A}^4 + 16*{B}^4")
        if A % 2 == 0 or B % 2 == 0:
            raise CertificateError(f"A = {A} and B = {B} must be odd")
        if math.gcd(A, B) != 1:
            raise CertificateError(f"A = {A} and B = {B} must be coprime")
        if N0 % 16 != 1:
            raise CertificateError(f"N0 = {N0} is not 1 mod 16")
        if factorization is None:
            factorization = factorize(N0)
        for p, _ in factorization.factors:
            if p % 8 != 1:
                raise CertificateError(f"the factor {p} of N0 = {N0} is not 1 mod 8")
        if factorization.value != N0:
            raise CertificateError(f"the factorization given is not one of N0 = {N0}")
        return tuple.__new__(cls, (t, N, N0, A, B, factorization))


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


def _coprime_two_squares(fz: Factorization) -> list[tuple[int, int]]:
    """One coprime pair X^2 + Y^2 = n = fz.value (n odd) for each such pair
    up to order and sign: in Z[i], up to units, the product of pi_p^e or its
    conjugate over the p^e || n, p = pi_p conj(pi_p) (`_two_squares`), with
    pi_p^e for the first p, since conjugating the product keeps the pair."""
    reps = [(1, 0)]
    for i, (p, e) in enumerate(fz.factors):
        x, y = _two_squares(p)
        g, h = 1, 0
        for _ in range(e):
            g, h = g * x - h * y, g * y + h * x
        choices = ((g, h), (g, -h)) if i else ((g, h),)
        reps = [(r * u - s * v, r * v + s * u) for r, s in reps for u, v in choices]
    return reps


def _least_b(fz: Factorization) -> tuple[int, int]:
    """(A, B) with n = fz.value = A^4 + 16B^4, A and B odd and coprime, and
    B least, read off the coprime pairs X^2 + Y^2 = n with X = A^2 and
    Y = 4B^2; RepresentationNotFound if there is none."""
    found = []
    for X, Y in _coprime_two_squares(fz):
        X, Y = (abs(X), abs(Y)) if X % 2 else (abs(Y), abs(X))
        b = math.isqrt(Y // 4)
        if Y == 4 * b * b and b % 2 == 1 and is_perfect_square(X):
            found.append((b, math.isqrt(X)))
    if not found:
        raise RepresentationNotFound(f"N0 = {fz.value} is not A^4 + 16B^4 (A, B odd coprime)")
    b, a = min(found)
    return a, b


def fibre(t) -> ElkiesFibre:
    """Construct the fibre at t (a rational, or None/'infinity').

    For t = a/b in lowest terms (a/b = 1/0 at infinity) put
    u = a^2 + ab + 3b^2 and w = a^2 + ab + b^2.  Then 1 + t + t^2 = w/b^2
    and N(t) = (u^4 + 16w^4)/w^4 in lowest terms: w is odd and prime to b,
    and u = w + 2b^2, so gcd(u, w) = 1.  The numerator is factored once;
    N0 and its factorization come from the exponents mod 4, and (A, B) is
    the least-B decomposition of N0 in Z[i] (`_least_b`).
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
    if any(e >= 4 for _, e in fz.factors):
        fz = Factorization(1, tuple((p, e % 4) for p, e in fz.factors if e % 4))
        n = fz.value
    if n % 16 != 1:  # refused before `_least_b` finds no decomposition
        raise CertificateError(f"N0 = {n} is not 1 mod 16")
    return ElkiesFibre(t_val, n_val, n, *_least_b(fz), fz)


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
    "good_places_solvable",  # every odd q not dividing N0
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


def _bad_place_point(fib: ElkiesFibre) -> tuple[int, int]:
    """(2ABc, c) with c = A^2 + 4B^2: a zero mod every p | N0."""
    c = fib.A**2 + 4 * fib.B**2
    return 2 * fib.A * fib.B * c, c


_SMALL_PLACE_ZEROS = {3: {1: (0, 1), 2: (1, 1)}, 5: {1: (0, 1), 2: (2, 0), 3: (1, 0), 4: (1, 1)}}


def local_solvability_report(fib: ElkiesFibre) -> LocalSolvabilityReport:
    """Certify points of the fibre over R, Q_2, every Q_p with p | N0, and
    every Q_q with q odd and prime to N0, with no search.

    R: N0 > 0.  Q_2: `ElkiesFibre` refuses any N0 other than 1 mod 16, a
    fourth power of a unit of Z_2 (`is_nth_power_unit`), so y = 0,
    z = N0^(1/4) is a point.
    Each p | N0: as c^2 - 8A^2B^2 = N0, `_bad_place_point` is a zero of
    2y^2 - z^4 + N0 = N0(1 - c^2) with y a unit mod p: p divides neither A
    nor 2B (they are coprime), nor c, else N0 = -8A^2B^2 mod p.  Each good
    q: Hasse-Weil gives the smooth genus-one curve over F_q at least
    q + 1 - 2 sqrt(q) points, at most two at infinity, so an affine one when
    (q - 1)^2 > 4q, that is q >= 7; for q = 3 and 5, which never divide N0
    (its primes are 1 mod 8), `_SMALL_PLACE_ZEROS` has one for each residue
    of N0, checked here.  Hensel's lemma lifts every zero but the singular
    (0, 0) (Silverman, AEC, V.1.1).
    """
    n0 = fib.N0
    y, z = _bad_place_point(fib)
    g = 2 * y * y - z**4 + n0
    odd_entries = tuple((p, g % p == 0 and y % p != 0) for p, _ in fib.factorization.factors)
    good_ok = all((2 * v * v - w**4 + n0) % q == 0
                  for q, zeros in _SMALL_PLACE_ZEROS.items() for v, w in [zeros[n0 % q]])
    return LocalSolvabilityReport(fib, n0 > 0, is_nth_power_unit(n0, 4, 2), odd_entries, good_ok)


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
    """The representation p = a^2 + 16b^2 (a, b > 0), read off p = x^2 + y^2
    (`_two_squares`, unique up to order and sign): a is the odd one of x
    and y, and b the even one over 4, a multiple of 4 since a^2 = 1 = p
    mod 8.  Cross-checked against the quartic character: 2 is a fourth
    power mod p iff b is even."""
    if p % 8 != 1 or not is_probable_prime(p):
        raise ValueError("need a prime p = 1 mod 8")
    x, y = _two_squares(p)
    a, even = (x, y) if x % 2 else (y, x)
    rep = QuarticRep(p, a, even // 4)
    symbol_plus = quartic_residue_symbol(2, p).exponent == 0
    if symbol_plus != rep.b_even:
        raise ArithmeticError(
            f"quartic criterion failed at p={p}: b={rep.b}, (2/p)_4 "
            f"{'+1' if symbol_plus else 'nontrivial'}"
        )
    return rep


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


def family_scan(ts) -> FamilyScanReport:
    """fibre -> local solvability -> obstruction parity for each t; the
    family claim is that every entry is locally solvable and obstructed."""
    entries = []
    for t in ts:
        fib = fibre(t)
        loc = local_solvability_report(fib)
        entries.append((t, obstruction_parity(fib), loc))
    return FamilyScanReport(tuple(entries))
