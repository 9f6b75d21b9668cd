"""The isotrivial family 2Y^2 = Z^4 - N(t), N(t) = (1 + 2/(1+t+t^2))^4 + 16.

Every fibre is everywhere locally solvable, yet globally empty: each odd
prime p | N0, the quartic-free part of N(t), is 1 mod 8, and the invariant
sum of the quaternion class (y, N0) over the places with v_p(N0) odd and 2
a quartic nonresidue mod p is an odd multiple of 1/2.  `elkies scan` and
`elkies verify` decide a fibre by one certificate on the integers (u, w) of
t, with no search, no p-adic digits and no factoring (`fibre_certificate`):
one gcd certifies every place, and one quartic symbol reads the parity,
which for this family is the theorem itself.  `elkies verify` also factors
N0 and reads the parity prime by prime (Euler's criterion), a second
derivation that must agree, and annotates the fibre with the decomposition
N0 = A^4 + 16B^4 (A, B odd and coprime) with the least B.  Not every N0 has
one: at t = -167/20, 147/20 and 644/423, 17^4 divides the numerator of
N(t), and A and B are None.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exact import CertificateError, Factorization, factorize, is_perfect_square, record
from .padic import is_nth_power_unit
from .symbols import InvariantValue

__all__ = [
    "ElkiesFibre",
    "fibre",
    "uw_of",
    "fibre_certificate",
    "quartic_symbol_of_two",
    "uncertified_rule",
    "obstruction_parity",
    "ObstructionParity",
    "family_scan",
]


# ------------------------------------------------------------------ fibres
class ElkiesFibre(record("ElkiesFibre", "t N N0 A B factorization")):
    """One member of the family: parameter t (None encodes the fibre at
    infinity), its value N, the fourth-power-free part N0, the decomposition
    N0 = A^4 + 16B^4 with the smallest B, or A = B = None where N0 has none,
    and the factorization of N0.  Every p | N0 is 1 mod 8: for t = a/b, p
    divides u^4 + 16w^4 (`_uw`) and not 2w, as gcd(u, w) = 1, so
    (u/2w)^4 = -1 mod p, and u/2w has order 8 in F_p*."""

    __slots__ = ()

    def __new__(
        cls, t: Fraction | None, N: Fraction, N0: int, A: int | None, B: int | None,
        factorization: Factorization,
    ):
        if A is not None or B is not None:
            if A is None or B is None or N0 != A**4 + 16 * B**4:
                raise CertificateError(f"N0 = {N0} != {A}^4 + 16*{B}^4")
            if A % 2 == 0 or B % 2 == 0:
                raise CertificateError(f"A = {A} and B = {B} must be odd")
            if math.gcd(A, B) != 1:
                raise CertificateError(f"A = {A} and B = {B} must be coprime")
        if N0 % 16 != 1:
            raise CertificateError(f"N0 = {N0} is not 1 mod 16")
        for p, _ in factorization.factors:
            if p % 8 != 1:
                raise CertificateError(f"the factor {p} of N0 = {N0} is not 1 mod 8")
        if factorization.value != N0:
            raise CertificateError(f"the factorization given is not one of N0 = {N0}")
        return tuple.__new__(cls, (t, N, N0, A, B, factorization))


def _two_squares(p: int, root: int) -> tuple[int, int]:
    """(x, y) with x^2 + y^2 = p, for a prime p = 1 mod 4 and a square root
    `root` of -1 mod p: Euclid's algorithm on p and the root stops at x,
    the first remainder below sqrt(p) (Hermite-Serret; Brillhart, Math.
    Comp. 26, 1972).  Either root gives the same pair: for r < p/2, Euclid
    on (p, p - r) steps to (p - r, r) and then to (r, p mod r), as Euclid
    on (p, r) does, and p - r > sqrt(p).  The pair is checked: a number
    that is no root of -1 (13 and 4) raises CertificateError or still
    gives p's one pair up to order (13 and 2), never a wrong pair."""
    if p % 4 != 1:
        raise CertificateError(f"{p} is not 1 mod 4")
    a, b = p, root
    while b * b > p:
        a, b = b, a % b
    y = math.isqrt(p - b * b)
    if b * b + y * y != p:
        raise CertificateError(f"Euclid on {p} and {root} finds no x^2 + y^2 = {p}")
    return b, y


def _coprime_two_squares(fz: Factorization, X: int, Y: int) -> list[tuple[int, int]]:
    """One coprime pair x^2 + y^2 = n = fz.value (n odd) for each such pair
    up to order and sign: in Z[i], up to units, the product of pi_p^e or its
    conjugate over the p^e || n, p = pi_p conj(pi_p) (`_two_squares`), with
    pi_p^e for the first p, since conjugating the product keeps the pair.
    X^2 + Y^2 is a multiple of n with Y prime to n, so each p | n reads its
    root of -1 off it: (X/Y)^2 = -1 mod p."""
    reps = [(1, 0)]
    for i, (p, e) in enumerate(fz.factors):
        x, y = _two_squares(p, X * pow(Y, -1, p) % p)
        g, h = 1, 0
        for _ in range(e):
            g, h = g * x - h * y, g * y + h * x
        choices = ((g, h), (g, -h)) if i else ((g, h),)
        reps = [(r * u - s * v, r * v + s * u) for r, s in reps for u, v in choices]
    return reps


def _least_b(fz: Factorization, X: int, Y: int) -> tuple[int | None, int | None]:
    """(A, B) with n = fz.value = A^4 + 16B^4, A and B odd and coprime, and
    B least, read off the coprime pairs x^2 + y^2 = n with x = A^2 and
    y = 4B^2 (`_coprime_two_squares`, its roots of -1 read off the
    representation X^2 + Y^2 of a multiple of n, Y prime to n);
    (None, None) if there is none."""
    found = []
    for x, y in _coprime_two_squares(fz, X, Y):
        x, y = (abs(x), abs(y)) if x % 2 else (abs(y), abs(x))
        b = math.isqrt(y // 4)
        if y == 4 * b * b and b % 2 == 1 and is_perfect_square(x):
            found.append((b, math.isqrt(x)))
    b, a = min(found, default=(None, None))
    return a, b


def _uw(a: int, b: int) -> tuple[int, int]:
    """(u, w) = (a^2 + ab + 3b^2, a^2 + ab + b^2) for t = a/b in lowest terms
    (1/0 at infinity): 1 + t + t^2 = w/b^2, so N(t) = (u^4 + 16w^4)/w^4, in
    lowest terms as w is odd and prime to b, u = w + 2b^2 and gcd(u, w) = 1."""
    w = a * a + a * b + b * b
    return w + 2 * b * b, w


def uw_of(t: Fraction | None) -> tuple[int, int]:
    """`_uw` at t = a/b in lowest terms, or at infinity (t = None, 1/0): the
    one reading of t that `fibre` factors and `fibre_certificate` decides."""
    return _uw(1, 0) if t is None else _uw(t.numerator, t.denominator)


def fibre(t) -> ElkiesFibre:
    """The fibre at t (a rational, or None/'infinity').  The numerator
    u^4 + 16w^4 of N(t) (`uw_of`) is factored once; N0 and its
    factorization come from the exponents mod 4, and (A, B) is the least-B
    decomposition of N0 in Z[i] (`_least_b`), or (None, None).  Each p | N0
    divides u^4 + 16w^4 = (u^2)^2 + (4w^2)^2 and not 4w^2, as
    gcd(u, w) = 1, so u^2 / 4w^2 is a square root of -1 mod p, with no
    search for a non-residue."""
    if t is None or (isinstance(t, str) and t.lower() in ("infinity", "inf", "oo")):
        t = None
    else:
        t = Fraction(t)
    u, w = uw_of(t)
    n = u**4 + 16 * w**4
    n_val = Fraction(n, w**4)
    fz = factorize(n)
    if any(e >= 4 for _, e in fz.factors):
        fz = Factorization(1, tuple((p, e % 4) for p, e in fz.factors if e % 4))
        n = fz.value
    return ElkiesFibre(t, n_val, n, *_least_b(fz, u * u, 4 * w * w), fz)


# ------------------------------------------------- the fibre certificate
def _bad_place_point(u: int, w: int) -> tuple[int, int]:
    """(2uwc, c) with c = u^2 + 4w^2: a zero mod every p | u^4 + 16w^4."""
    c = u * u + 4 * w * w
    return 2 * u * w * c, c


_SMALL_PLACE_ZEROS = {3: {1: (0, 1), 2: (1, 1)}, 5: {1: (0, 1), 2: (2, 0), 3: (1, 0), 4: (1, 1)}}


def _small_places_solvable(n: int) -> bool:
    """The zeros `_SMALL_PLACE_ZEROS` lists at q = 3, 5 (q prime to n), checked."""
    return all((2 * v * v - z**4 + n) % q == 0
               for q, zeros in _SMALL_PLACE_ZEROS.items() for v, z in [zeros[n % q]])


def quartic_symbol_of_two(r: int, s: int) -> int:
    """k with [2/pi]_4 = i^k for pi = r + si primary (r odd, r + s = 1 mod
    4) and primitive, from 2 = -i(1 + i)^2 and the supplementary laws of
    quartic reciprocity (Ireland & Rosen, ch. 9; Lemmermeyer, Reciprocity
    Laws, ch. 6), which add over the primes of pi."""
    if r % 2 == 0 or (r + s) % 4 != 1 or math.gcd(r, s) != 1:
        raise ValueError(f"{r} + {s}i is not primary and primitive")
    return ((r - 1) // 2 + (r - s - s * s - 1) // 2) % 4


def uncertified_rule(u: int, w: int) -> str | None:
    """The first rule of `fibre_certificate` that (u, w) fails, or None."""
    n = u**4 + 16 * w**4
    if n % 16 != 1:
        return f"Q_2: N = {n} is not 1 mod 16"
    y, _ = _bad_place_point(u, w)
    if (g := math.gcd(y, n)) != 1:
        return f"the places p | N: gcd(2uwc, N) = {g}"
    if not _small_places_solvable(n):
        return f"q = 3, 5: the table lists no zero for N = {n}"
    return None


def fibre_certificate(u: int, w: int) -> tuple[bool, int | None]:
    """(locally solvable, k) for 2Y^2 = Z^4 - N, N = u^4 + 16w^4, with no
    search and no factoring; k is None when the rules certify nothing
    (`uncertified_rule` names the one that fails).

    The fibre's N0 differs from N by a fourth power, so the two curves have
    points over the same fields.  R: N > 0, as N = 1 mod 16 and N >= 0.
    Q_2: N = 1 mod 16 is a fourth power of a unit of Z_2
    (`is_nth_power_unit`), so y = 0, z = N^(1/4) is a point.  Each p | N:
    as c^2 - 8u^2w^2 = N, `_bad_place_point` (y, z) = (2uwc, c) is a zero of
    2y^2 - z^4 + N = N(1 - c^2), and gcd(y, N) = 1 makes y a unit mod every
    p | N at once; the same gcd keeps 3 and 5 off N.  Each good q:
    Hasse-Weil gives the smooth genus-one curve over F_q at least
    q + 1 - 2 sqrt(q) points, at most two at infinity, so an affine one when
    (q - 1)^2 > 4q, that is q >= 7; for q = 3 and 5, `_SMALL_PLACE_ZEROS`
    has one for each residue of N, checked here.  Hensel's lemma lifts every
    zero but the singular (0, 0) (Silverman, AEC, V.1.1).

    [2/pi]_4 = i^k for pi = u^2 + 4w^2 i is -1 iff the count of
    `obstruction_parity` is odd: the obstruction is k = 2, forced on the
    family by u^2 = 1 mod 8 and 4w^2 = 4 mod 32."""
    if uncertified_rule(u, w) is None:
        return True, quartic_symbol_of_two(u * u, 4 * w * w)
    return False, None


# ----------------------------------------------------------- obstruction
class ObstructionParity(record("ObstructionParity", "fib contributing_primes count invariant verdict")):
    __slots__ = ()


def obstruction_parity(fib: ElkiesFibre) -> ObstructionParity:
    """Sum of forced local invariants over odd places of the fibre.

    A prime p | N0 contributes 1/2 exactly when v_p(N0) is odd and 2 is
    not a fourth power mod p, that is 2^((p-1)/4) != 1 mod p (Euler's
    criterion; every p | N0 is 1 mod 8); the fibre is obstructed iff the
    number of contributing primes is odd.  This is the factored derivation
    of the parity that `fibre_certificate` reads off one quartic symbol,
    which is multiplicative over the primes of pi.
    """
    contributing = tuple(p for p, e in fib.factorization.factors
                         if e % 2 == 1 and not is_nth_power_unit(2, 4, p))
    count = len(contributing)
    invariant = InvariantValue.zero() if count % 2 == 0 else InvariantValue.half()
    verdict = "obstructed" if count % 2 == 1 else "unobstructed"
    return ObstructionParity(fib, contributing, count, invariant, verdict)


# ------------------------------------------------------------- family scan
def _coprime_pairs(height: int):
    """(1, 0) for infinity, then (a, b) for each t = a/b in lowest terms, b > 0,
    shell by shell: shell n holds the t with max(|a|, b) = n <= height."""
    yield 1, 0
    for n in range(1, height + 1):
        yield from ((a, n) for a in range(-n, n + 1) if math.gcd(a, n) == 1)
        yield from ((e * n, b) for b in range(1, n) if math.gcd(n, b) == 1 for e in (1, -1))


def family_scan(height: int) -> tuple[int, int, int]:
    """(fibres, locally solvable, obstructed) by `fibre_certificate` over
    `_coprime_pairs(height)`; the family claim is that all three are equal."""
    fibres = solvable = obstructed = 0
    for a, b in _coprime_pairs(height):
        local, k = fibre_certificate(*_uw(a, b))
        fibres += 1
        solvable += local
        obstructed += k == 2
    return fibres, solvable, obstructed
