"""Enumerating reference implementations of the closed forms in `padic`,
`symbols` and `reichardt_lind`.

A power-class label is the least member of its coset, found by listing the
whole n-th power subgroup.  Norm membership for an abelian radical extension
lists every class of Q_p*/(Q_p*)**m and samples norms until the generated
subgroup reaches the index predicted by local reciprocity.  Classes are
kept here as plain (valuation mod n, label) pairs built from the oracle's
own labels, so the differential tests compare two independent
computations.  `PadicNumber`, the field Q_p at finite precision, and its
`padic_root` are the reference arithmetic several oracles below compute
in.  The 2s of the biquadratic norm case is a Hensel square root of -d.
The closed forms the library decided forced sections by before its rules
follow, tested against those enumerations: labelled power classes
(`power_class`) and the norm test of Q_p[t]/(t^m - d) (`norm_test`,
`closed_is_local_norm`).  The forced sections of a twist call
`closed_is_local_norm` once per y-class.  The local image of a place,
which the library decides by rule, is read off a complete walk of its
lifting tree: `local_points`, the linear-time search the library ran
before its rules, with its residue zeros from `residue_zeros`, the
children of a node from one linear congruence and each point lifted by
`_certify`.  The point
obstructions are the sampled reading that the exact local images
replaced, keeping every node up to seed + samples.  The twist conditions
are decided on
a fresh `TwistParams` for each prime, with ell factored again and (iii)
by `legendre_symbol`, which proves each prime of ell again; the twist
search and the density count loop over them.  The linear search is
checked against the quadratic one, `quadratic_local_point`: every residue
pair at depth 1 and every one of the q^2 children of each node are tried,
each chart has its own written-out equation, the certified nodes start
the Hensel lift from `PadicNumber` values, a fourth root starts from a
residue of the exact rational, and the real point counts z up from 0.
The linear search's zeros mod q are checked against a table of fourth roots.
The first smooth zero of an Elkies fibre mod q comes from the walk of
`residue_zeros` that certified its odd places before the closed rules.
The good places of an Elkies fibre are swept with the linear search's
`local_point`, one search per prime, on `Quartic`, the plain pair
(ell, p) that composite constants are written in; the
fibre itself is built from N(t) in Fractions with a quartic-free part and
a search for B, its bad places are certified by a Hensel lift, the
obstruction reads the quartic residue symbol of 2, and p = a^2 + 16b^2 is
found by a loop over b.  Its smooth residue
points come from a loop of its own over y, and its local solvability
report from the quadratic search at 2, where a point with y = 0 is
allowed, and the linear search below p = 500.  The family scan
enumerates the rationals of a height in a set of Fractions and builds,
factors and reports every fibre; the quartic symbol [2/pi]_4 is a
product over the factored norm of pi, one Euler criterion per prime.  The
ring formulas are the hand-written products and norms of Q(zeta_3), of
its extension by a cube root of 6 and of the delta-algebra over that,
with the cofactor determinant behind the radical norms.  The generic
modulus ring follows: quotient rings R[x]/(x^n - r(x)) multiplied and
normed through their MODULUS, nested into Q(zeta_3), the tower over it
and K[delta].  The Newton
iteration on `PadicNumber` objects, Miller-Rabin to all thirteen prime
bases up to 41 whatever the size of n, and the factoring with trial
division up to 10**4 follow.  Last come the cube classes of Q_3(zeta_3) read off
Fraction pi-digit expansions, the F_3 nullspace found by trying every
vector, the flat product of the tower as nine Z[zeta_3] pair products,
the K/k norm as closed form and generic determinant on Fraction
coordinates, the search for elements of norm -10 that evaluates
`norm_K_over_k` on every candidate, and the cubic
Hilbert pairing matrix built from sampled norm subgroups of Kummer
extensions.  Then the curve polynomials of the identity suite with
generic K coefficients, the two sides of its identity (c) multiplied out
in full, and the descent-value coefficients computed in the delta-algebra
over them.  Last come the elliptic curves E and E' of the cubic's descent
and the 3-isogeny E' -> E, which no command runs: points are plain pairs
checked against their equations, the square roots mod p come from sympy,
the Q_3 roots from a Newton iteration on residues, and the substitution
identity from `sympy.expand`; and the product formula for the quadratic
Hilbert symbol, summed over the places where it can ramify.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache, partial

import sympy
from sympy.ntheory import nthroot_mod, sqrt_mod

from localglobal import elkies, exact, reichardt_lind, tower
from localglobal.cubic import (
    ONE,
    PI,
    ZETA,
    Eisenstein,
    _rank3,
    _rref3,
    divide_by_pi,
    pi_valuation,
)
from localglobal.exact import (
    CertificateError,
    Factorization,
    FactorizationError,
    _PSI_13,
    _SMALL_WITNESSES,
    _TRIAL_PRIMES,
    _brent_rho,
    _least_nonresidue,
    _miller_rabin_round,
    _sqrt_mod_odd_prime,
    is_probable_prime,
    legendre_symbol,
    primes_up_to,
    quartic_residue_symbol,
    record,
    residue,
    split_prime_power,
    valuation,
)
from localglobal.elkies import ElkiesFibre
from localglobal.padic import (
    InsufficientPrecision,
    NoConvergence,
    hensel_root as padic_hensel_root,
)
from localglobal.reichardt_lind import (
    ObstructionReport,
    TwistConditions,
    TwistParams,
    _make_report,
)
from localglobal.symbols import (
    REAL_PLACE,
    InvariantValue,
    Place,
    _finite_prime,
    _hilbert2_finite,
    _vu,
    as_place,
    hilbert2,
)
from localglobal.tower import GAMMA, KElement

# The digits a PadicNumber was given when none were asked for
DEFAULT_PRECISION = 40

# ell*y^2 = z^4 - p with any nonzero coprime constants: the shape the local
# point searches read, without the prime p and squarefree ell of TwistParams
Quartic = namedtuple("Quartic", "ell p")


# ------------------------------------------------------- p-adic numbers
# The finite-precision field Q_p that the library's 3-adic curve points
# and Hensel lifts were computed in before they moved to int and Fraction
# coordinates; the Newton iteration and the local point search below are
# written in it.  p**v * u with u a unit known modulo p**prec ("prec
# significant digits"); a value whose digits are all zero at the working
# precision only carries the absolute precision at which it vanishes.


class PadicNumber:
    """Immutable p-adic number at finite relative precision."""

    __slots__ = ("p", "v", "unit", "prec", "_zero")

    def __init__(self, p, v, unit, prec, _zero=False):
        if prec <= 0 and not _zero:
            raise InsufficientPrecision(f"no significant digits left (prec={prec})")
        self.p = p
        self._zero = _zero
        if _zero:
            # v holds the absolute precision O(p**v); unit/prec are unused.
            self.v = v
            self.unit = 0
            self.prec = 0
        else:
            unit %= p**prec
            if unit % p == 0:
                raise ValueError("unit part must be a p-adic unit")
            self.v = v
            self.unit = unit
            self.prec = prec

    # ------------------------------------------------------------------ const
    @classmethod
    def zero(cls, p, abs_prec):
        """The class O(p**abs_prec): indistinguishable from 0."""
        return cls(p, abs_prec, 0, 0, _zero=True)

    @classmethod
    def from_fraction(cls, q, p, prec):
        q = Fraction(q)
        if q == 0:
            return cls.zero(p, prec)
        v, u = split_prime_power(q, p)
        return cls(p, v, residue(u, p**prec), prec)

    # ------------------------------------------------------------------ views
    @property
    def is_zero(self) -> bool:
        return self._zero

    @property
    def abs_prec(self) -> int:
        """Absolute precision: the value is known modulo p**abs_prec."""
        return self.v if self._zero else self.v + self.prec

    def valuation(self) -> int:
        if self._zero:
            raise InsufficientPrecision(
                f"value is O({self.p}^{self.v}); valuation undetermined"
            )
        return self.v

    def unit_residue(self, k: int) -> int:
        """The unit part modulo p**k."""
        if self._zero:
            raise InsufficientPrecision("zero at working precision has no unit part")
        if k > self.prec:
            raise InsufficientPrecision(f"only {self.prec} digits known, need {k}")
        return self.unit % self.p**k

    def residue(self, k: int) -> int:
        """The value modulo p**k (requires v >= 0 and enough digits)."""
        if self._zero:
            if self.v >= k:
                return 0
            raise InsufficientPrecision("not enough digits for requested residue")
        if self.v < 0:
            raise ValueError("negative valuation: not a p-adic integer")
        if self.v + self.prec < k:
            raise InsufficientPrecision(f"known mod p^{self.v + self.prec}, need p^{k}")
        return self.unit * self.p**self.v % self.p**k

    def __repr__(self):
        if self._zero:
            return f"O({self.p}^{self.v})"
        show = self.unit % self.p ** min(self.prec, 6)
        return f"{self.p}^{self.v}*{show}... + O({self.p}^{self.abs_prec})"

    # ------------------------------------------------------------- arithmetic
    def _coerce(self, other):
        """An exact other at the digits self carries: its relative
        precision, or the absolute one of a value that vanished."""
        if isinstance(other, PadicNumber):
            if other.p != self.p:
                raise ValueError("mixed primes")
            return other
        if isinstance(other, (int, Fraction)):
            return PadicNumber.from_fraction(
                Fraction(other), self.p, max(self.v, 1) if self._zero else self.prec
            )
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        p = self.p
        cap = min(self.abs_prec, other.abs_prec)
        lo = min(
            (x.v for x in (self, other) if not x._zero), default=cap
        )
        if lo >= cap:
            return PadicNumber.zero(p, cap)
        total = 0
        for x in (self, other):
            if not x._zero:
                total += x.unit * p ** (x.v - lo)
        total %= p ** (cap - lo)
        if total == 0:
            return PadicNumber.zero(p, cap)
        v = valuation(total, p)
        return PadicNumber(p, lo + v, total // p**v, cap - lo - v)

    __radd__ = __add__

    def __neg__(self):
        if self._zero:
            return self
        return PadicNumber(self.p, self.v, (-self.unit) % self.p**self.prec, self.prec)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        p = self.p
        if self._zero or other._zero:
            # v is a lower bound on the product's valuation either way
            return PadicNumber.zero(p, self.v + other.v)
        prec = min(self.prec, other.prec)
        return PadicNumber(p, self.v + other.v, self.unit * other.unit, prec)

    __rmul__ = __mul__

    def inverse(self):
        if self._zero:
            raise ZeroDivisionError("cannot invert a value that vanishes at precision")
        mod = self.p**self.prec
        return PadicNumber(self.p, -self.v, pow(self.unit, -1, mod), self.prec)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other


# ----------------------------------------------------------- n-th power units
# The rule for every n, which the library keeps for n = 4 alone
# (`padic.is_fourth_power_unit`); the power classes below read it.
def _unit_label_digits(p: int, n: int) -> int:
    """Units congruent mod p**k (k = 2 v_p(n) + 1) share their n-th power class."""
    return 2 * valuation(n, p) + 1


def is_nth_power_unit(u: int, n: int, p: int) -> bool:
    """Is the unit u an n-th power in Z_p*?

    Closed criteria: odd p uses u**((p-1)/g) = 1 mod p with g = gcd(n, p-1);
    p = 2 uses u = 1 mod 8 (squares) and u = 1 mod 16 (fourth powers);
    p = 3, n = 3 uses u = +-1 mod 9.  Anything else falls back to exhausting
    the stabilized residue ring p**(2 v_p(n) + 1).
    """
    if u % p == 0:
        raise ValueError("not a unit")
    if p != 2 and n % p != 0:
        g = math.gcd(n, p - 1)
        return pow(u % p, (p - 1) // g, p) == 1
    if p == 2:
        s = valuation(n, 2)  # the odd part of n acts invertibly on Z_2 units
        if s == 0:
            return True
        if s == 1:
            return u % 8 == 1
        if s == 2:
            return u % 16 == 1
    if p == 3 and n == 3:
        return u % 9 in (1, 8)
    mod = p ** _unit_label_digits(p, n)
    return any(r % p and pow(r, n, mod) == u % mod for r in range(1, mod))


def padic_root(x: PadicNumber, n: int) -> PadicNumber:
    """An n-th root by residue search plus Hensel lifting; ValueError if none.

    Newton needs v(r^n - u) > 2 v(n r^(n-1)) = 2 v_p(n), so the start is the
    least unit r with r^n = u mod p**k, k = 2 v_p(n) + 1 (mod 8 for square
    roots at p = 2, mod p for odd p prime to n).  Fewer than k known
    digits cannot show v(f(r)) > 2 v(f'(r)), so they raise
    InsufficientPrecision.
    """
    p = x.p
    if x.is_zero:
        raise InsufficientPrecision("cannot extract a root of a vanished value")
    if x.v % n:
        raise ValueError(f"valuation {x.v} is not divisible by {n}")
    k = _unit_label_digits(p, n)
    mod = p**k
    u = x.unit_residue(k)
    start = next((r for r in range(1, mod) if r % p and pow(r, n, mod) == u), None)
    if start is None:
        raise ValueError(f"unit part is not an {n}-th power")
    root, digits = padic_hensel_root([-x.unit] + [0] * (n - 1) + [1], start, p, x.prec)
    return PadicNumber(p, x.v // n, root, digits)


@lru_cache(maxsize=None)
def coset_labels(p: int, n: int) -> dict:
    """Unit residue mod p**k -> least member of its coset of n-th powers.

    k is the stabilized exponent 2 v_p(n) + 1.  The cosets are listed by
    multiplying the whole n-th power subgroup by each residue in turn.
    """
    mod = p ** _unit_label_digits(p, n)
    powers = {pow(x, n, mod) for x in range(1, mod) if x % p}
    labels = {}
    for r in range(1, mod):
        if r % p and r not in labels:
            for s in powers:
                labels[r * s % mod] = r
    return labels


def coset_label(u: int, n: int, p: int) -> int:
    return coset_labels(p, n)[u % p ** _unit_label_digits(p, n)]


def oracle_class(x, n: int, p: int) -> tuple[int, int]:
    """The class of a nonzero rational in Q_p*/(Q_p*)**n as (v mod n, label)."""
    v, u = split_prime_power(Fraction(x), p)
    mod = p ** _unit_label_digits(p, n)
    unit = u.numerator * pow(u.denominator, -1, mod) % mod
    return v % n, coset_label(unit, n, p)


def is_nth_power(x, n: int, p: int) -> bool:
    return oracle_class(x, n, p) == (0, 1)


def all_power_classes(p: int, n: int) -> frozenset:
    """Every class of Q_p*/(Q_p*)**n (finite: n valuations x unit classes)."""
    return frozenset((v, label) for v in range(n) for label in set(coset_labels(p, n).values()))


def _times(a: tuple, b: tuple, n: int, p: int) -> tuple[int, int]:
    return (a[0] + b[0]) % n, coset_label(a[1] * b[1], n, p)


def _subgroup_closure(gens, n: int, p: int) -> frozenset:
    identity = (0, 1)
    group = {identity}
    frontier = [identity]
    while frontier:
        elem = frontier.pop()
        for g in gens:
            nxt = _times(elem, g, n, p)
            if nxt not in group:
                group.add(nxt)
                frontier.append(nxt)
    return frozenset(group)


@lru_cache(maxsize=None)
def norm_subgroup(p: int, m: int, d: Fraction, expected_index: int) -> frozenset:
    """Image of the norm map of Q_p[x]/(x^m - d) in Q_p*/(Q_p*)**m, grown
    from norms of small elements until its index is the predicted one."""
    everything = all_power_classes(p, m)
    gens: list = []
    group = frozenset({(0, 1)})
    for pool in [(0, 1, -1, 2, -2), (0, 1, -1, 2, -2, 3, -3, 4, 5)]:
        for tup in itertools.product(pool, repeat=m):
            if not any(tup):
                continue
            value = radical_norm(m, d, tup)
            if value == 0:
                continue
            cls = oracle_class(value, m, p)
            if cls in group:
                continue
            gens.append(cls)
            group = _subgroup_closure(gens, m, p)
            index = len(everything) // len(group)
            if index < expected_index:
                raise ArithmeticError(f"norm subgroup of x^{m} - {d} over Q_{p} too large")
            if index == expected_index:
                return group
    raise ArithmeticError(f"norm subgroup of x^{m} - {d} over Q_{p} did not stabilize")


def is_local_norm(x, p: int, m: int, d) -> bool:
    """Norm membership by the enumerating route: sampled norm subgroups for
    the abelian cubic and quartic cases, Hilbert symbols for the quadratic
    ones."""
    x, d = Fraction(x), Fraction(d)
    if is_nth_power(d, m, p):
        return True
    if m == 2:
        return hilbert2(x, d, p)[0] == 1
    minus_one_square = p % 4 == 1
    if m == 3:
        if p % 3 != 1:
            return True
        return oracle_class(x, 3, p) in norm_subgroup(p, 3, d, 3)
    if is_nth_power(d, 2, p):
        if not minus_one_square:
            return True
        s = padic_root(PadicNumber.from_fraction(d, p, DEFAULT_PRECISION), 2)
        return hilbert2(x, rational(s), p)[0] == 1
    if is_nth_power(-4 * d, 4, p):
        return minus_one_square or hilbert2(x, -1, p)[0] == 1
    if minus_one_square or is_nth_power(-d, 2, p):
        return oracle_class(x, 4, p) in norm_subgroup(p, 4, d, 4)
    return hilbert2(x, d, p)[0] == 1


def biquadratic_two_s(d, p: int) -> Fraction:
    """2s with s^2 = -d, the second symbol argument of the biquadratic norm
    case, as `norm_test` built it before `_square_root`:
    a Hensel square root of -d at the default precision, to all its digits."""
    return rational(2 * padic_root(PadicNumber.from_fraction(-d, p, DEFAULT_PRECISION), 2))


def rational(x: PadicNumber) -> Fraction:
    """p**v * u for the nonzero x = p**v * u: the rational that carries every
    digit of x, for the symbols, which read valuations and unit residues
    of ints and Fractions."""
    return x.unit * Fraction(x.p) ** x.v


def residue_of(x: PadicNumber) -> int:
    """The p-adic integer x as an int, modulo p to its absolute precision."""
    return x.residue(x.abs_prec)


def integer_point(pt):
    """A LocalPoint of `local_point` or `certify` with its PadicNumber
    coordinates as the library's integer residues; anything else, the
    library's own points among it, unchanged."""
    if not isinstance(pt, LocalPoint) or not isinstance(pt.y, PadicNumber):
        return pt
    return pt._replace(y=residue_of(pt.y), z=residue_of(pt.z))


def lift_from(coeffs, start: PadicNumber) -> PadicNumber:
    """`padic.hensel_root` from a PadicNumber start, as it was before it
    returned residues: the working digits are the start's absolute
    precision, and the root comes back as a PadicNumber."""
    p, n = start.p, start.abs_prec
    root, digits = padic_hensel_root(coeffs, start.residue(n), p, n)
    if not root:
        return PadicNumber.zero(p, digits)
    v = split_prime_power(root, p)[0]
    return PadicNumber(p, v, root // p**v, digits - v)


# ------------------------------------------------------ closed norm test
# The closed forms that decided the forced sections before their rules:
# power classes labelled by the least member of their coset, and the norm
# test of Q_p[t]/(t^m - d), which classifies the algebra once and then
# reads one Hilbert or tame symbol, or two, or none, per x.  The
# enumerating `is_local_norm` above is the reference they are tested
# against, and they are the reference of the forced-section rules.

def _canonical_unit_label(u: int, n: int, p: int) -> int:
    """Least member of the coset u * (units)**n mod p**k: one label per class.

    Tame case (odd p not dividing n): by Hensel's lemma a unit is an n-th
    power iff it is one mod p, and (Z/p)* is cyclic, so the n-th power units
    are the kernel of the power-residue character r -> r**e mod p with
    e = (p-1)/gcd(n, p-1) (Serre, A Course in Arithmetic, II.3).  The coset
    of u is the fibre of that character over u**e, and the label is the
    least r >= 1 with r**e = u**e mod p: about gcd(n, p-1) candidates are
    tried.  Wild case (p = 2 or p | n): the least unit r mod p**k with
    u / r an n-th power, tested by `is_nth_power_unit` on that small ring.
    """
    if p != 2 and n % p:
        e = (p - 1) // math.gcd(n, p - 1)
        target = pow(u, e, p)
        return next(r for r in range(1, p) if pow(r, e, p) == target)
    mod = p ** _unit_label_digits(p, n)
    return next(
        r for r in range(1, mod)
        if r % p and is_nth_power_unit(u * pow(r, -1, mod) % mod, n, p)
    )


class PowerClass(record("PowerClass", "p n val_mod unit_label")):
    """Class of x in Q_p* / (Q_p*)**n: valuation mod n plus a unit label.

    The label is the least residue in the coset u * (units)**n modulo
    p**(2 v_p(n) + 1), so equal classes compare (and hash) equal; two
    classes multiply componentwise.
    """

    __slots__ = ()

    @property
    def is_nth_power(self) -> bool:
        return self.val_mod == 0 and is_nth_power_unit(self.unit_label, self.n, self.p)

    def __mul__(self, other: "PowerClass") -> "PowerClass":
        if (self.p, self.n) != (other.p, other.n):
            raise ValueError("mixed class groups")
        k = _unit_label_digits(self.p, self.n)
        return power_class_from_parts(
            self.p, self.n, self.val_mod + other.val_mod, self.unit_label * other.unit_label % self.p**k
        )

    def representative(self) -> Fraction:
        """A small rational in this class: p**v times a canonical unit.

        For n = 2 and odd p the label is 1 or the least positive
        non-residue u, so this lands in {1, u, p, u p}; at p = 2 it lands in
        {±1, ±5} * 2**{0,1}.
        """
        u = self.unit_label
        if self.n == 2 and self.p == 2:
            for cand in (1, -1, 5, -5):
                if (u - cand) % 8 == 0:
                    return Fraction(cand * 2**self.val_mod)
        return Fraction(u * self.p**self.val_mod)


def power_class_from_parts(p: int, n: int, v: int, unit: int) -> PowerClass:
    if unit % p == 0:
        raise ValueError("unit part must be prime to p")
    return PowerClass(p, n, v % n, _canonical_unit_label(unit, n, p))


def power_class(x, n: int, p: int) -> PowerClass:
    """Class of the nonzero int or Fraction x in Q_p*/(Q_p*)**n.

    x is read off its valuation and its unit residue mod p**(2 v_p(n) + 1),
    with no p-adic digits.  0 has no class: ValueError.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not is_probable_prime(p):
        raise ValueError(f"{p} is not prime")
    x = x if isinstance(x, int) else Fraction(x)
    if x == 0:
        raise ValueError("nonzero arguments required")
    v, u = split_prime_power(x, p)
    return power_class_from_parts(p, n, v, residue(u, p ** _unit_label_digits(p, n)))


def _nonzero(x):
    """x as an int or a Fraction; ValueError on 0."""
    x = x if isinstance(x, int) else Fraction(x)
    if x == 0:
        raise ValueError("nonzero arguments required")
    return x


def _square_root(a, p: int) -> Fraction:
    """A square root of the square a = p^(2k) u of Q_p, up to sign, to the
    unit residue `_vu` reads: p^k times 1 or 5 as u = 1 or 9 mod 16 at
    p = 2 (5 = -3 mod 8, and 3^2 = 9), times a square root of u mod p at odd p."""
    v, u = split_prime_power(a, p)
    r = (1 if residue(u, 16) == 1 else 5) if p == 2 else _sqrt_mod_odd_prime(residue(u, p), p)
    return r * Fraction(p) ** (v // 2)


def norm_test(p, m: int, d):
    """The test x -> `closed_is_local_norm(x, p, m, d)`.

    p, m and d are checked and the algebra Q_p[t]/(t^m - d) is classified
    here, once (a quartic without 4th roots of unity by the square classes
    of d and -d, `power_class`); the test reads the valuation and a
    residue of x and evaluates one symbol, or two, or none.  An int d stays an int.  p is a
    Place or an int prime (`_finite_prime`).
    """
    d = _nonzero(d)
    p = _finite_prime(p)
    if m not in (2, 3, 4):
        raise ValueError("supported degrees: 2, 3, 4")

    if m != 2 and p % m == 1:
        b, ud = split_prime_power(d, p)
        ud, e = residue(ud, p), (p - 1) // m

        def tame(x) -> bool:
            # The m-th power residue of (-1)**(a b) x**b / d**a, a = v_p(x).
            a, ux = split_prime_power(_nonzero(x), p)
            sign = -1 if a * b % 2 else 1
            return pow(sign * pow(residue(ux, p), b, p) * pow(ud, -a, p), e, p) == 1

        return tame
    # The Hilbert symbols (x, b)_p that must all be 1: (x, d) also for the
    # non-Galois quartic, whose norms are those of Q_p(sqrt(d)); none for
    # m = 3 and for d = s^2, where x^2 -+ s give two quadratic fields whose
    # norm groups differ by the character of -1 and so fill Q_p*.  The sign
    # of s does not matter: (x, -2s) = (x, -1)(x, 2s), and both symbols
    # must be 1.
    bs = (d,)
    if m == 3 or m == 4 and power_class(d, 2, p).is_nth_power:
        bs = ()
    elif m == 4 and power_class(-d, 2, p).is_nth_power:
        bs = (-1, 2 * _square_root(-d, p))
    parts = [_vu(b, p) for b in bs]

    def symbols(x) -> bool:
        va, ua = _vu(_nonzero(x), p)
        return all(_hilbert2_finite(p, va, ua, vb, ub) == 1 for vb, ub in parts)

    return symbols


def closed_is_local_norm(x, p: int, m: int, d) -> bool:
    """Is x a norm from the radical extension of Q_p defined by x^m = d?

    When x^m - d is irreducible this is literal membership in
    N(L*/Q_p) for the degree-m field L.  When it is reducible the algebra
    Q_p[x]/(x^m - d) splits into a product of smaller fields (the
    completions of the global radical field above p) and membership means
    x lies in the product of their norm groups; a linear factor therefore
    makes every x a norm.  Degrees 2, 3, 4 are supported.  `norm_test`
    classifies the algebra once for many x.

    Decision routes, all closed forms:

    * degree 2 and every quadratic subcase: the Hilbert symbol;
    * p = 1 mod m (Kummer: mu_m in Q_p, p odd and prime to m): the algebra
      is a product of copies of Q_p(d^(1/m)), whose norm group is the
      kernel of the tame m-th power symbol (Serre, Local Fields, XIV.3;
      Neukirch, Algebraic Number Theory, V.3);
    * degree 3 otherwise: no cube roots of unity, so the cubic is not
      Galois and its norm map is onto;
    * degree 4 at p = 2 or p = 3 mod 4 with -d = s^2: with a^2 = is the
      other roots are -a and +-s/a, so the Galois group is Z/2 x Z/2, and
      (a + s/a)^2 = 2s makes the algebra Q_p(i, sqrt(2s)) (a product of
      copies of Q_p(i) when +-2s is a square).  Its norm group is the
      intersection of those of Q_p(i) and Q_p(sqrt(2s)): two Hilbert
      symbols.
    """
    x = _nonzero(x)
    return norm_test(p, m, d)(x)


_UNIT_SQUARE_REPS_2 = (1, 3, 5, 7, 2, 6, 10, 14)


def _square_class_reps(q: int) -> tuple[int, ...]:
    if q == 2:
        return _UNIT_SQUARE_REPS_2
    u = _least_nonresidue(q)
    return (1, u, q, q * u)


def forced_set(ell: int, p: int, q: int) -> frozenset:
    """The invariants of (y, p)_q over the square classes of y with ell*y^2
    a norm from Q_q[t]/(t^4 - p), by one `closed_is_local_norm` per class,
    which classifies the algebra again for every class."""
    return frozenset(hilbert2(y, p, q)[1] for y in _square_class_reps(q)
                     if closed_is_local_norm(ell * y * y, q, 4, p))


def forced_section_invariants(tw) -> ObstructionReport:
    """The forced sections with one `forced_set` per bad place.  The total
    is the sumset of the invariants as plain Fractions mod 1, not
    `_make_report`'s table of interned sums."""
    contributions = {place: forced_set(tw.ell, tw.p, place.prime) for place in tw.bad_finite_places}
    contributions[REAL_PLACE] = frozenset({InvariantValue.zero()})
    ordered = tuple(sorted(contributions.items(), key=lambda item: (item[0].is_real, item[0].prime or 0)))
    total = {Fraction(0)}
    for _, values in ordered:
        total = {(s + x.value) % 1 for s in total for x in values}
    verdict = "unobstructed" if 0 in total else "obstructed"
    return ObstructionReport(ordered, frozenset(InvariantValue(s) for s in total), verdict)


# ------------------------------------------------------------ lifting tree
# The linear-time search over the lifting tree that `reichardt_lind` ran
# before every place of a twist had a closed rule, as it was there.


class LocalPoint(record("LocalPoint", "place y z precision chart")):
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
        y, digits = padic_hensel_root(exact_y_poly(z0), y0, q, depth_bound + valuation(y0, q))
        if not y or digits - valuation(y, q) < (3 if q == 2 else 1):
            raise InsufficientPrecision(
                f"the lifted y over Q_{q} has too few digits for its symbol"
            )
    else:
        z, _ = padic_hensel_root(exact_z_poly(y0), z0, q,
                                 depth_bound + (valuation(z0, q) if z0 else 0))
    return LocalPoint(place, y, z, depth_bound, chart)


def point_obstructions(tw, samples: int, seed: int = 0) -> list:
    """The sampled reading that `reichardt_lind.local_image` replaced: the
    first seed + samples nodes of each bad place in one list, sample k
    lifting node (seed + k) mod n of the n found."""
    columns = {}
    for place in tw.bad_places:
        nodes = []
        try:
            for node in itertools.islice(_nodes(tw, place), seed + samples):
                nodes.append(node)
        except InsufficientPrecision:
            if not nodes:
                raise
        if not nodes:
            raise reichardt_lind.NoPointError(
                place, f"the lifting tree died out by depth {_depth_bound(tw, place.prime)}")
        columns[place] = [hilbert2(nodes[(seed + k) % len(nodes)]().y, tw.p, place)[1]
                          for k in range(samples)]
    return [_make_report({place: frozenset({column[k]}) for place, column in columns.items()})
            for k in range(samples)]


def local_image(tw, place) -> tuple[frozenset, bool]:
    """The invariants of (y, p) at every certified point of a complete walk
    of `_nodes` at the place, and whether the walk ended.  A
    tree still alive at the depth bound stops the walk there, and the set
    holds the invariants of the points before it."""
    image = set()
    try:
        for node in _nodes(tw, place):
            image.add(hilbert2(node().y, tw.p, place)[1])
    except InsufficientPrecision:
        return frozenset(image), False
    return frozenset(image), True


def twist_conditions(ell: int, p: int) -> TwistConditions:
    """The four twist conditions on a fresh `TwistParams`, which proves p
    prime, with the primes of ell factored again and (iii) decided by
    `legendre_symbol`, which proves each of them prime again."""
    TwistParams(ell, p)
    odd_ell_primes = [q for q, _ in exact.factorize(abs(ell)).factors if q != 2]
    cond_ii = p % 4 == 1 and pow(ell % p, (p - 1) // 4, p) != 1
    cond_iii = all(q % 4 == 3 and legendre_symbol(p, q) == 1 for q in odd_ell_primes)
    cond_iv = p % 8 == 1 and (ell % 2 == 0 or p % 16 == 1 or ell % 8 in (1, 7))
    return TwistConditions(True, cond_ii, cond_iii, cond_iv)


def passing_twists(ell: int, p_max: int) -> list[int]:
    """The odd primes p <= p_max coprime to ell whose conditions all hold,
    one `twist_conditions` each."""
    return [p for p in primes_up_to(p_max)[1:]
            if math.gcd(ell, p) == 1 and twist_conditions(ell, p).all_satisfied]


def twist_search(ell: int, p_max: int) -> list[int]:
    """The passing primes whose forced sections, on a fresh `TwistParams`
    and one `closed_is_local_norm` per y-class, are obstructed."""
    return [p for p in passing_twists(ell, p_max)
            if forced_section_invariants(TwistParams(ell, p)).verdict == "obstructed"]


def quadratic_local_point(tw, q: int, precision: int = 16, *, allow_y_zero: bool = False,
                          variant: int = 0):
    """`local_point` at a finite place q by the quadratic
    search.  With `allow_y_zero` a point with y = 0 is accepted too: first
    z = p^(1/4) when p is a fourth power, then any branch whose point has
    y = 0.  This is the dyadic search that decided condition (iv) before
    its closed rule."""
    place = Place(q)
    depth_bound = 2 * split_prime_power(4 * tw.ell * tw.ell * tw.p, q)[0] + 6
    if allow_y_zero and power_class(tw.p, 4, q).is_nth_power:
        root = nth_root_padic(tw.p, 4, q, precision)
        return LocalPoint(place, PadicNumber.zero(q, precision), root, precision, "near")
    skip = variant
    for chart in ("near", "far"):
        result, skip = chart_search(tw, q, chart, depth_bound, precision, skip,
                                    allow_y_zero)
        if result is not None:
            return result
    return NoPoint(place, depth_bound)


def real_point_z(tw) -> int | None:
    """The z of `local_point` at the real place, counted up
    from 0 to the first z with ell*(z^4 - p) > 0; None where it gives up."""
    z = 0
    while (z**4 - tw.p) * tw.ell <= 0:
        z += 1
        if z > abs(tw.p) + 2:
            return None
    return z


def nth_root_padic(a, n: int, q: int, precision: int) -> PadicNumber:
    """Hensel n-th root of a unit that is known to be an n-th power, from
    a start residue exact modulo q^k, k = 2 v_q(n) + 1; fewer than k digits
    cannot show the root."""
    target = Fraction(a)
    k = 2 * split_prime_power(n, q)[0] + 1
    if precision < k:
        raise InsufficientPrecision(f"a root of degree {n} over Q_{q}: {precision} digits, need {k}")
    mod = q**k
    residue = target.numerator * pow(target.denominator, -1, mod) % mod
    start = next(
        r for r in range(1, mod) if r % q and pow(r, n, mod) == residue
    )
    coeffs = [-target] + [0] * (n - 1) + [1]
    return lift_from(coeffs, PadicNumber(q, 0, start, precision))


def good_place_sweep(n0: int, good_prime_bound: int) -> tuple:
    """(q, found) for each odd prime q <= good_prime_bound not dividing n0:
    whether `local_point` finds a point of 2y^2 = z^4 - n0
    over Q_q.  This search certified the good places of `elkies verify`
    before `residue_walk_point` did."""
    eq = Quartic(2, n0)
    return tuple(
        (q, not isinstance(local_point(eq, q), NoPoint))
        for q in primes_up_to(good_prime_bound) if q != 2 and n0 % q
    )


class RepresentationNotFound(Exception):
    """N0 is not A^4 + 16B^4 with A, B odd coprime.  The numerator
    u^4 + 16w^4 of N(t) always is; its quartic-free part need not be when a
    fourth power divides it (t = -167/20: 17^4)."""


class LocalSolvabilityReport(record("LocalSolvabilityReport", (
    "fib",
    "real_solvable",
    "two_adic_solvable",
    "odd_bad_places",        # ((p, solvable), ...) for p | N0
    "good_places_solvable",  # every odd q not dividing N0, up to a bound
))):
    """The places of a fibre as `local_solvability_report` certifies them."""

    __slots__ = ()

    @property
    def everywhere_solvable(self) -> bool:
        return (
            self.real_solvable
            and self.two_adic_solvable
            and all(ok for _, ok in self.odd_bad_places)
            and self.good_places_solvable
        )


class QuarticRep(record("QuarticRep", "p a b")):
    """p = a^2 + 16 b^2 with a odd; the parity of b decides whether 2 is a
    fourth power mod p (Gauss)."""

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


def quartic_free_part(q: Fraction) -> tuple[int, Fraction]:
    """Strip fourth powers: return (n0, m) with q * m**4 = n0, n0 a
    fourth-power-free integer of the same sign as q.  `exact.factorize`
    factors the numerator and the denominator."""
    q = Fraction(q)
    if q == 0:
        raise ValueError("expected a nonzero rational")
    n0 = -1 if q < 0 else 1
    m = Fraction(1)
    exps: dict[int, int] = {}
    for p, e in exact.factorize(q.numerator * (1 if q > 0 else -1)).factors:
        exps[p] = exps.get(p, 0) + e
    for p, e in exact.factorize(q.denominator).factors:
        exps[p] = exps.get(p, 0) - e
    for p, e in sorted(exps.items()):
        r = e % 4
        n0 *= p**r
        m *= Fraction(p) ** ((r - e) // 4)
    if q * m**4 != n0:
        raise CertificateError(f"{q} * {m}^4 != {n0}")
    return n0, m


def elkies_fibre(t) -> ElkiesFibre:
    """The fibre at t as `elkies.fibre` built it before the closed form:
    N(t) evaluated in Fractions, N0 its quartic-free part from
    `exact.quartic_free_part` (which factors N's numerator and
    denominator), A and B by `least_b_search`, and the factorization of
    N0, factored again."""
    if t is None or (isinstance(t, str) and t.lower() in ("infinity", "inf", "oo")):
        return quartic_free_fibre(None, Fraction(17))
    t_val = Fraction(t)
    return quartic_free_fibre(t_val, (1 + Fraction(2) / (1 + t_val + t_val * t_val)) ** 4 + 16)


def quartic_free_fibre(t_val, n_val: Fraction) -> ElkiesFibre:
    """The fibre with value n_val, as `elkies_fibre` builds it from N."""
    n0, _ = quartic_free_part(n_val)
    if n0 <= 0 or n0 % 16 != 1:
        raise CertificateError(f"N0 = {n0} is not a positive 1 mod 16")
    return ElkiesFibre(t_val, n_val, n0, *least_b_search(n0), exact.factorize(n0))


def fourth_root(n: int):
    """Exact integer fourth root of n, or None."""
    if n < 0:
        return None
    r = math.isqrt(math.isqrt(n))
    for c in (r - 1, r, r + 1):
        if c >= 0 and c**4 == n:
            return c
    return None


def least_b_search(n0: int) -> tuple[int, int]:
    """(A, B) with n0 = A^4 + 16B^4, A and B odd and coprime, and B least,
    by trying B = 1, 3, 5, ... up to floor((n0/16)^(1/4)) + 2: what
    `elkies.fibre` fell back on before `elkies._least_b` read B off the
    Gaussian integers."""
    bound = math.isqrt(math.isqrt(n0 // 16)) + 2
    for b in range(1, bound + 1, 2):
        rest = n0 - 16 * b**4
        if rest <= 0:
            break
        a = fourth_root(rest)
        if a is not None and a % 2 == 1 and math.gcd(a, b) == 1:
            return a, b
    raise RepresentationNotFound(f"N0 = {n0} is not A^4 + 16B^4 (A, B odd coprime)")


def quartic_rep(p: int) -> QuarticRep:
    """p = a^2 + 16b^2 for a prime p = 1 mod 8 by trying b = 1, 2, 3, ...
    until p - 16b^2 is a square."""
    for b in range(1, math.isqrt(p // 16) + 1):
        a = math.isqrt(p - 16 * b * b)
        if a * a + 16 * b * b == p:
            return QuarticRep(p, a, b)
    raise ValueError(f"{p} has no representation a^2 + 16b^2")


def bad_place_lift(n0: int, p: int, precision: int) -> bool:
    """Whether the first y with n0 + 2y^2 a nonzero fourth power mod p
    gives a fourth root z0 that `padic.hensel_root` lifts to a unit of
    Z_p at `precision` digits: the certificate of a bad place p | n0 in
    `elkies verify` before `residue_walk_point` was."""
    for y in range(p):
        u = (n0 + 2 * y * y) % p
        if u and pow(u, (p - 1) // math.gcd(4, p - 1), p) == 1:
            z0 = nthroot_mod(u, 4, p)
            root, _ = padic_hensel_root([-(n0 + 2 * y * y), 0, 0, 0, 1], z0, p, precision)
            return root % p != 0
    return False


def fourth_root_table_zeros(ell: int, a: int, b: int, q: int) -> list:
    """The zeros (y, z) of ell*y^2 = a*z^4 + b mod q in (y, z) order, read
    off a table of fourth roots mod q filled by one pass over z; when q | a
    the equation leaves z free.  This table was the depth-1 frontier of
    `local_point` before `residue_zeros`."""
    if a % q == 0:
        return [(y, z) for y in range(q) if (ell * y * y - b) % q == 0 for z in range(q)]
    roots = {}
    for z in range(q):
        roots.setdefault(pow(z, 4, q), []).append(z)
    inv_a = pow(a, -1, q)
    return [(y, z) for y in range(q) for z in roots.get((ell * y * y - b) * inv_a % q, ())]


def residue_walk_point(n0: int, q: int) -> tuple[int, int] | None:
    """The first zero (y, z) mod q of 2y^2 = z^4 - n0 in `residue_zeros`
    order with a unit partial derivative (any but (0, 0)), for an odd prime
    q, or None; Hensel's lemma lifts it to a Q_q point.  It certified every
    odd place in `elkies verify` before the closed rules of
    `elkies.fibre_certificate`: the point (2uwc, c) at each p | N0,
    Hasse-Weil at each good q >= 7 and a table for q = 3 and 5."""
    for y, z in residue_zeros(2, 1, -n0, q):
        if y or z:
            return y, z
    return None


def smooth_residue_point(n0: int, q: int) -> tuple[int, int] | None:
    """`residue_walk_point` before it drew from `residue_zeros`:
    for y = 0, 1, ... the zero (y, 0) when n0 + 2y^2 = 0 mod q and y != 0,
    or (y, z) with z a fourth root of the unit n0 + 2y^2; None if no y
    gives one."""
    for y in range(q):
        u = (n0 + 2 * y * y) % q
        if u == 0:
            if y:
                return y, 0
        elif is_nth_power_unit(u, 4, q):
            return y, nthroot_mod(u, 4, q)
    return None


def local_solvability_report(fib: ElkiesFibre, precision: int = 12,
                             good_prime_bound: int = 50) -> LocalSolvabilityReport:
    """The local report of `elkies verify` before its closed rules: the Q_2
    point from the quadratic `local_point` search above with y = 0
    allowed, each place
    p | N0 by `smooth_residue_point` above, confirmed below p = 500 by the
    `local_point` search, and the good places up to `good_prime_bound` by
    `smooth_residue_point`."""
    n0 = fib.N0
    eq = Quartic(2, n0)
    two_ok = not isinstance(quadratic_local_point(eq, 2, precision, allow_y_zero=True), NoPoint)
    odd_entries = []
    for p, _ in fib.factorization.factors:
        if p % 8 != 1:
            raise CertificateError(f"{p} divides N0 = {n0} but is not 1 mod 8")
        solvable = smooth_residue_point(n0, p) is not None
        if solvable and p < 500:
            solvable = not isinstance(local_point(eq, p), NoPoint)
        odd_entries.append((p, solvable))
    good = (q for q in primes_up_to(good_prime_bound) if q != 2 and n0 % q)
    good_ok = all(smooth_residue_point(n0, q) is not None for q in good)
    return LocalSolvabilityReport(fib, n0 > 0, two_ok, tuple(odd_entries), good_ok)


def rationals_of_height(h: int) -> list:
    """None (the fibre at infinity) followed by all rationals a/b in
    lowest terms with |a|, b <= h, ordered by (height, value): what
    `elkies` enumerated, in a set of Fractions, before `_coprime_pairs`."""
    values = {Fraction(0)}
    for b in range(1, h + 1):
        for a in range(-h, h + 1):
            if math.gcd(a, b) == 1:
                values.add(Fraction(a, b))
    key = lambda q: (max(abs(q.numerator), q.denominator), q)
    return [None] + sorted(values, key=key)


def family_scan(ts) -> tuple:
    """((t, ObstructionParity, LocalSolvabilityReport), ...) for each t: the
    per-fibre path of `elkies.family_scan` before `fibre_certificate`,
    which factors N0 (`elkies.fibre`), reads the parity prime by prime and
    certifies the places by `local_solvability_report` above."""
    entries = []
    for t in ts:
        fib = elkies.fibre(t)
        entries.append((t, elkies.obstruction_parity(fib), local_solvability_report(fib)))
    return tuple(entries)


def quartic_symbol_of_two(r: int, s: int) -> int:
    """k with [2/pi]_4 = i^k for pi = r + si primary and primitive, as a
    product over the primes p^e || r^2 + s^2 (`exact.factorize`): the prime
    of Z[i] over p under pi sends i to the root m = -r/s of m^2 = -1 mod p,
    and 2^((p-1)/4) = m^j mod p (Euler's criterion) adds e*j to k."""
    k = 0
    for p, e in exact.factorize(r * r + s * s).factors:
        m = -r * pow(s, -1, p) % p
        value = pow(2, (p - 1) // 4, p)
        k += e * next(j for j in range(4) if pow(m, j, p) == value)
    return k % 4


def contributes(p: int, e: int) -> bool:
    """Does p^e || N0 add 1/2 to the obstruction: e odd and the quartic
    residue symbol (2/p)_4 nontrivial."""
    return e % 2 == 1 and quartic_residue_symbol(2, p).exponent != 0


def chart_search(tw, q, chart, depth_bound, precision, skip, allow_y_zero=False):
    """BFS one affine chart over all q^2 residue pairs and all q^2 children
    of each node; returns (LocalPoint | None, remaining skip)."""
    if chart == "near":
        def g(y, z, mod):
            return (tw.ell * y * y - (pow(z, 4, mod) - tw.p)) % mod

        def dz_coeff(z, mod):
            return -4 * pow(z, 3, mod) % mod

        def exact_y_poly(z0):
            return [tw.p - z0**4, 0, tw.ell]

        def exact_z_poly(y0):
            return [tw.ell * y0 * y0 + tw.p, 0, 0, 0, -1]
    else:
        def g(y, z, mod):
            return (tw.ell * y * y - (1 - tw.p * pow(z, 4, mod))) % mod

        def dz_coeff(z, mod):
            return 4 * tw.p * pow(z, 3, mod) % mod

        def exact_y_poly(z0):
            return [tw.p * z0**4 - 1, 0, tw.ell]

        def exact_z_poly(y0):
            return [1 - tw.ell * y0 * y0, 0, 0, 0, -tw.p]

    frontier = [
        (y, z) for y in range(q) for z in range(q) if g(y, z, q) == 0
    ]
    for depth in range(1, depth_bound + 1):
        mod = q**depth
        next_frontier = []
        for y0, z0 in frontier:
            t_y = _residue_valuation(2 * tw.ell * y0, q, depth)
            t_z = _residue_valuation(dz_coeff(z0, mod), q, depth)
            candidates = [t for t in (t_y, t_z) if t is not None]
            t_min = min(candidates) if candidates else None
            if t_min is not None and depth > 2 * t_min:
                pt = certify(
                    tw, q, chart, y0, z0, t_y, t_z, precision, exact_y_poly,
                    exact_z_poly, allow_y_zero,
                )
                if pt is not None:
                    if skip > 0:
                        skip -= 1
                        continue
                    return pt, 0
            if depth == depth_bound:
                raise InsufficientPrecision(
                    f"lifting tree still alive at depth {depth} over Q_{q}"
                )
            step = mod
            for dy in range(q):
                for dz in range(q):
                    y1, z1 = y0 + dy * step, z0 + dz * step
                    if g(y1, z1, mod * q) == 0:
                        next_frontier.append((y1, z1))
        if not next_frontier:
            return None, skip
        frontier = next_frontier
    return None, skip


def certify(tw, q, chart, y0, z0, t_y, t_z, precision, exact_y_poly,
            exact_z_poly, allow_y_zero=False):
    """`_certify` with both residues wrapped in
    `PadicNumber.from_fraction` before the Hensel lift."""
    place = Place(q)
    use_y = t_y is not None and (t_z is None or t_y <= t_z)
    try:
        if use_y:
            z = PadicNumber.from_fraction(z0, q, precision)
            y = lift_from(exact_y_poly(z0), PadicNumber.from_fraction(y0, q, precision))
        else:
            y = PadicNumber.from_fraction(y0, q, precision)
            z = lift_from(exact_z_poly(y0), PadicNumber.from_fraction(z0, q, precision))
    except InsufficientPrecision:
        return None
    if y.is_zero and not allow_y_zero:
        return None
    return LocalPoint(place, y, z, precision, chart)


# ------------------------------------------------------------ ring formulas
# The hand-written ring arithmetic that the ring classes replaced.
# Elements are plain tuples: Q(zeta_3) as pairs (a, b) of Fractions, the
# tower K = Q(zeta_3)(eps) as triples of pairs, K[delta] as triples of
# K-triples.


def eisenstein_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def eisenstein_mul(x, y):
    """(a + b z)(c + d z) = (ac - bd) + (ad + bc - bd) z, as z^2 = -1 - z."""
    (a, b), (c, d) = x, y
    ac, bd = a * c, b * d
    return (ac - bd, a * d + b * c - bd)


def eisenstein_norm(x):
    a, b = x
    return a * a - a * b + b * b


def eisenstein_inverse(x: Eisenstein) -> Eisenstein:
    """1/x = conj(x)/N(x), conj(a + b z) = (a - b) - b z: the inverse of
    Q(zeta_3) that the library does not keep."""
    a, b = x.coeffs
    n = eisenstein_norm((a, b))
    return Eisenstein(Fraction(a - b) / n, Fraction(-b) / n)


def _scale(n, c):
    return (n * c[0], n * c[1])


def k_add(x, y):
    return tuple(eisenstein_add(a, b) for a, b in zip(x, y))


def k_mul(x, y):
    """(a0 + a1 e + a2 e^2)(b0 + b1 e + b2 e^2) with e^3 = 6, e^4 = 6 e."""
    (a0, a1, a2), (b0, b1, b2) = x, y
    m, s = eisenstein_mul, eisenstein_add
    return (
        s(m(a0, b0), _scale(6, s(m(a1, b2), m(a2, b1)))),
        s(s(m(a0, b1), m(a1, b0)), _scale(6, m(a2, b2))),
        s(s(m(a0, b2), m(a1, b1)), m(a2, b0)),
    )


def k_closed_norm(x):
    """N(c0 + c1 e + c2 e^2) = c0^3 + 6 c1^3 + 36 c2^3 - 18 c0 c1 c2."""
    c0, c1, c2 = x
    m, s = eisenstein_mul, eisenstein_add
    cubes = [m(c, m(c, c)) for c in (c0, c1, c2)]
    total = s(cubes[0], s(_scale(6, cubes[1]), _scale(36, cubes[2])))
    return s(total, _scale(-18, m(c0, m(c1, c2))))


def delta_mul(x, y):
    """Product in K[delta]/(delta^3 - 10): delta^3 = 10, delta^4 = 10 delta."""
    zero = tuple((Fraction(0), Fraction(0)) for _ in range(3))
    raw = [zero] * 5
    for i in range(3):
        for j in range(3):
            raw[i + j] = k_add(raw[i + j], k_mul(x[i], y[j]))
    ten = lambda x: tuple(_scale(10, c) for c in x)  # noqa: E731
    return (k_add(raw[0], ten(raw[3])), k_add(raw[1], ten(raw[4])), raw[2])


def det(mat):
    """Division-free determinant by first-column cofactor expansion."""
    n = len(mat)
    if n == 1:
        return mat[0][0]
    total = None
    for i in range(n):
        minor = [row[1:] for j, row in enumerate(mat) if j != i]
        term = mat[i][0] * det(minor)
        if i % 2:
            term = -term
        total = term if total is None else total + term
    return total


def radical_norm(m: int, d: Fraction, coeffs) -> Fraction:
    """Exact norm of sum(coeffs[j] x^j) in Q[x]/(x^m - d), as a Fraction."""
    col = [Fraction(c) for c in coeffs]
    cols = [col]
    for _ in range(m - 1):
        col = [d * col[-1]] + col[:-1]
        cols.append(col)
    return det([[cols[j][i] for j in range(m)] for i in range(m)])


# ------------------------------------------------ the generic modulus ring
# The quotient rings R[x]/(x^n - r(x)) that `exact.QuotientElement` drove
# by a MODULUS before each ring got its own product: a schoolbook product
# reduced from the top, and the norm as the cofactor determinant of the
# multiplication matrix.  Q(zeta_3), the tower over it and K[delta] are
# built from it nested, one level over the next.


def _quotient_product(a, b, modulus) -> tuple:
    """Product of two coefficient tuples in R[x]/(x^n - r(x)).

    Tuples list coefficients by ascending power of x; `modulus` holds
    r_0, ..., r_(n-1), so x^n = r_0 + r_1 x + ... + r_(n-1) x^(n-1).
    Schoolbook multiplication, then x^(2n-2), ..., x^n are reduced from
    the top.  The coefficients only need + and *.
    """
    n = len(modulus)
    raw = [a[0] * y for y in b]
    for i in range(1, n):
        x = a[i]
        for j in range(n - 1):
            raw[i + j] = raw[i + j] + x * b[j]
        raw.append(x * b[-1])
    for k in range(2 * n - 2, n - 1, -1):
        top = raw.pop()
        for i, r in enumerate(modulus):
            if r == -1:  # as in Q(zeta_3): a subtraction, not a product
                raw[k - n + i] = raw[k - n + i] - top
            elif r:
                raw[k - n + i] = raw[k - n + i] + top * r
    return tuple(raw)


def quotient_norm(coeffs, modulus):
    """Norm of sum(coeffs[i] x^i) from R[x]/(x^n - r(x)) down to R.

    It is the determinant of multiplication by the element in the basis
    1, x, ..., x^(n-1) (Cohen, A Course in Computational Algebraic Number
    Theory, section 4.2), so it is multiplicative by construction.  Column
    j holds x^j times the element: multiplying by x shifts the
    coefficients up and folds the top one back in through r.
    """
    col = list(coeffs)
    cols = [col]
    for _ in range(len(modulus) - 1):
        top = col[-1]
        col = [top * modulus[0]] + [c + top * r if r else c for c, r in zip(col, modulus[1:])]
        cols.append(col)
    return det([list(row) for row in zip(*cols)])


class ModulusElement:
    """An element c_0 + c_1 x + ... + c_(n-1) x^(n-1) of R[x]/(x^n - r(x)).

    A subclass fixes the ring: BASE is the coefficient ring R (Fraction or
    another subclass), MODULUS holds r_0, ..., r_(n-1) as in
    `_quotient_product`, and VARIABLE names x when printing.  Integers,
    Fractions and elements of BASE, or of its own base, act as scalars:
    they add into c_0 and multiply coefficientwise.  Results of arithmetic
    are built by `_make`, which takes the coefficients as they are.
    """

    __slots__ = ("coeffs",)
    BASE = Fraction
    MODULUS: tuple = ()
    VARIABLE = "x"

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        base = cls.BASE
        if base is Fraction:
            cls._coerce = staticmethod(Fraction)
            cls._SCALARS = (int, Fraction)
        else:
            cls._coerce = staticmethod(base.of)
            cls._SCALARS = (base,) + base._SCALARS
        cls._ZEROS = (cls._coerce(0),) * (len(cls.MODULUS) - 1)

    def __init__(self, *coeffs):
        if len(coeffs) != len(self.MODULUS):
            raise ValueError(f"{type(self).__name__} takes {len(self.MODULUS)} coefficients")
        self.coeffs = tuple(map(self._coerce, coeffs))

    @classmethod
    def _make(cls, coeffs: tuple):
        out = object.__new__(cls)
        out.coeffs = coeffs
        return out

    @classmethod
    def of(cls, x):
        """x itself, or the scalar x as an element."""
        if isinstance(x, cls):
            return x
        return cls._make((cls._coerce(x),) + cls._ZEROS)

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def __eq__(self, other):
        if type(other) is type(self):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        if type(other) is type(self):
            return self._make(tuple([s + t for s, t in zip(self.coeffs, other.coeffs)]))
        if isinstance(other, self._SCALARS):
            return self._make((self.coeffs[0] + other,) + self.coeffs[1:])
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return self._make(tuple([-c for c in self.coeffs]))

    def __sub__(self, other):
        if type(other) is type(self):
            return self._make(tuple([s - t for s, t in zip(self.coeffs, other.coeffs)]))
        if isinstance(other, self._SCALARS):
            return self._make((self.coeffs[0] - other,) + self.coeffs[1:])
        return NotImplemented

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if type(other) is type(self):
            return self._make(_quotient_product(self.coeffs, other.coeffs, self.MODULUS))
        if isinstance(other, self._SCALARS):
            return self._make(tuple([c * other for c in self.coeffs]))
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, k: int):
        out, base = None, self
        while k:
            if k & 1:
                out = base if out is None else out * base
            k >>= 1
            if k:
                base = base * base
        return self.of(1) if out is None else out

    def norm(self):
        """Norm down to BASE: the determinant of multiplication by self."""
        return quotient_norm(self.coeffs, self.MODULUS)

    def __repr__(self) -> str:
        return f"{type(self).__name__}{self.coeffs!r}"


class GenericEisenstein(ModulusElement):
    """a + b zeta_3 over Fraction, zeta_3^2 = -1 - zeta_3."""

    __slots__ = ()
    MODULUS = (-1, -1)
    VARIABLE = "zeta3"


class GenericK(ModulusElement):
    """c0 + c1 eps + c2 eps^2 over `GenericEisenstein`, eps^3 = 6."""

    __slots__ = ()
    BASE = GenericEisenstein
    MODULUS = (6, 0, 0)
    VARIABLE = "eps"

    c0 = property(lambda self: self.coeffs[0])

    @property
    def is_cyclo(self) -> bool:
        return not (self.coeffs[1] or self.coeffs[2])


class DeltaPoly(ModulusElement):
    """Elements of K[delta]/(delta^3 - 10) over `GenericK`."""

    __slots__ = ()
    BASE = GenericK
    MODULUS = (10, 0, 0)


def generic(x) -> GenericK:
    """A tower element (KElement, Eisenstein, int or Fraction) as a GenericK;
    a GenericK is returned as it is."""
    if isinstance(x, GenericK):
        return x
    c = KElement.of(x).coeffs
    return GenericK(*(GenericEisenstein(c[i], c[i + 1]) for i in (0, 2, 4)))


def flat(x: GenericK) -> tuple:
    """The six rational coordinates of a GenericK, in the order of
    `KElement.coeffs`."""
    return tuple(v for c in x.coeffs for v in c.coeffs)


def eisenstein(x: GenericEisenstein) -> Eisenstein:
    return Eisenstein(*x.coeffs)


G_ZETA = GenericEisenstein(0, 1)
G_EPS = GenericK(0, 1, 0)
G_GAMMA = generic(GAMMA)


# ------------------------------------------------------- p-adic Newton
# The Newton iteration that `padic.hensel_root` replaced: every step is
# PadicNumber arithmetic, and the returned precision is whatever that
# arithmetic's bookkeeping leaves, which over-claims digits when f'(root)
# is not a unit.


def _poly_eval(coeffs, x: PadicNumber) -> PadicNumber:
    """Horner evaluation; coeffs ascending, entries int/Fraction/PadicNumber."""
    if not coeffs:
        return PadicNumber.zero(x.p, x.abs_prec)
    acc = x._coerce(coeffs[-1])
    for c in reversed(coeffs[:-1]):
        acc = acc * x + c
    return acc


def _poly_derivative(coeffs):
    return [i * c for i, c in enumerate(coeffs)][1:]


def hensel_root(coeffs, start, p=None, prec=DEFAULT_PRECISION, target=None) -> PadicNumber:
    """Newton-lift a simple approximate root of f (ascending coefficients).

    Requires v(f(a)) > 2 v(f'(a)) at the start value a, else NoConvergence.
    With an explicit target, iterates until v(f(x)) >= target and raises
    InsufficientPrecision if the digits run out first.  By default it stops
    once f(x) vanishes at the achievable precision (each Newton division by
    f' costs v(f'(root)) absolute digits, so the full working precision is
    reachable only when the root is simple modulo p).
    """
    if isinstance(start, PadicNumber):
        x = start
        p = x.p
    else:
        if p is None:
            raise ValueError("prime p required when start is not p-adic")
        x = PadicNumber.from_fraction(Fraction(start), p, prec)
    coeffs = [
        c if isinstance(c, PadicNumber) else PadicNumber.from_fraction(Fraction(c), p, prec)
        for c in coeffs
    ]
    dcoeffs = _poly_derivative(coeffs)
    fx = _poly_eval(coeffs, x)
    dfx = _poly_eval(dcoeffs, x)
    if dfx.is_zero:
        raise NoConvergence("derivative vanishes at working precision")
    if not fx.is_zero and fx.valuation() <= 2 * dfx.valuation():
        raise NoConvergence(
            f"v(f(a))={fx.valuation()} <= 2*v(f'(a))={2 * dfx.valuation()}"
        )
    for _ in range(64):
        fx = _poly_eval(coeffs, x)
        reached = fx.v if fx.is_zero else fx.valuation()
        if target is None:
            if fx.is_zero:
                return x
        elif reached >= target:
            return x
        dfx = _poly_eval(dcoeffs, x)
        step = fx / dfx
        if step.is_zero:
            raise InsufficientPrecision("Newton step vanished before reaching target")
        x = x - step
    raise InsufficientPrecision("Newton failed to reach target precision")


# ------------------------------------------------------------ primality
def is_probable_prime_13(n: int) -> bool:
    """`exact.is_probable_prime` before its bases were sized to n: trial
    division by the primes up to 47, then all thirteen prime bases up to 41
    for every n < psi_13 and 40 seeded random rounds from psi_13 on."""
    if n < 2:
        return False
    for p in _TRIAL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    s = split_prime_power(n - 1, 2)[0]
    d = (n - 1) >> s
    if n < _PSI_13:
        witnesses = _SMALL_WITNESSES
    else:
        rng = random.Random(n)
        witnesses = [rng.randrange(2, n - 1) for _ in range(40)]
    return all(_miller_rabin_round(n, a, d, s) for a in witnesses)


# ------------------------------------------------------------ factoring
def factorize(n: int) -> Factorization:
    """Factor a nonzero integer by trial division plus deterministic Brent rho."""
    if n == 0:
        raise ValueError("cannot factor 0")
    sign = -1 if n < 0 else 1
    n = abs(n)
    found: dict[int, int] = {}

    def record(p, e=1):
        found[p] = found.get(p, 0) + e

    for p in _TRIAL_PRIMES:
        while n % p == 0:
            record(p)
            n //= p
    p = 49
    while p * p <= n and p < 10_000:
        while n % p == 0:
            record(p)
            n //= p
        p += 2
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_probable_prime(m):
            record(m)
            continue
        root = math.isqrt(m)
        if root * root == m:
            stack += [root, root]
            continue
        d, _ = _brent_rho(m, math.inf)
        stack += [d, m // d]
    fz = Factorization(sign, tuple(sorted(found.items())))
    if fz.value != sign * math.prod(p**e for p, e in found.items()):
        raise FactorizationError("reconstruction mismatch")
    return fz


# ---------------------------------------------------- cube classes at 3
# The classification that `cubic.express` replaced: a unit is keyed by the
# first five digits of its pi-adic expansion, computed by repeated exact
# division of Fraction coordinates by pi, and the unit part of x is found
# the same way, one power of pi at a time, as `cubic.unit_part` did.


def unit_part(x: Eisenstein) -> tuple[int, Eisenstein]:
    """x = pi^v * u with u a pi-adic unit, dividing by pi v times."""
    v = pi_valuation(x)
    u = x
    if v >= 0:
        for _ in range(v):
            u = divide_by_pi(u)
    else:
        u = u * PI ** (-v)
    return v, u


def _residue_mod3(q: Fraction) -> int:
    if q.denominator % 3 == 0:
        raise ValueError("not 3-integral")
    return q.numerator % 3 * pow(q.denominator % 3, -1, 3) % 3


def pi_digits(x: Eisenstein, count: int) -> tuple[int, ...]:
    """First `count` digits of the pi-adic expansion, digit set {0, 1, 2}.

    Requires x integral at pi (3-integral coordinates).  The residue field
    O/pi is F_3 with zeta_3 mapping to 1, so the digit is a + b mod 3.
    """
    digits = []
    for _ in range(count):
        d = (_residue_mod3(x.a) + _residue_mod3(x.b)) % 3
        digits.append(d)
        x = divide_by_pi(x - Eisenstein.of(d))
    return tuple(digits)


_UNIT_GENERATORS = (ZETA, ONE + PI * PI, ONE + PI * PI * PI)


@lru_cache(maxsize=1)
def cube_residues_mod_pi5() -> tuple[tuple[int, ...], ...]:
    """pi-digit keys (length 5) of cubes of units."""
    seen = set()
    for a in range(27):
        for b in range(27):
            if (a + b) % 3:
                seen.add(pi_digits(Eisenstein(a, b) ** 3, 5))
    return tuple(sorted(seen))


@lru_cache(maxsize=1)
def unit_class_table() -> dict[tuple[int, ...], tuple[int, int, int]]:
    """pi-digit key (mod pi^5) of a unit -> exponents on the three unit
    generators."""
    cube_keys = set(cube_residues_mod_pi5())
    reps_by_key: dict[tuple[int, ...], Eisenstein] = {}
    for a in range(27):
        for b in range(27):
            if (a + b) % 3 == 0:
                continue
            x = Eisenstein(a, b)
            key = pi_digits(x, 5)
            if key in cube_keys and key not in reps_by_key:
                reps_by_key[key] = x
    table: dict[tuple[int, ...], tuple[int, int, int]] = {}
    for e1, e2, e3 in itertools.product(range(3), repeat=3):
        g = _UNIT_GENERATORS[0] ** e1 * _UNIT_GENERATORS[1] ** e2 * _UNIT_GENERATORS[2] ** e3
        for rep in reps_by_key.values():
            table[pi_digits(g * rep, 5)] = (e1, e2, e3)
    return table


def express(x) -> tuple[int, int, int, int]:
    """Coordinates of x in Q_3(zeta_3)*/cubes, basis pi, zeta_3, 1 + pi^2, 1 + pi^3."""
    v, u = unit_part(Eisenstein.of(x))
    return (v % 3,) + unit_class_table()[pi_digits(u, 5)]


def evaluate_F_local(precision: int = 12) -> tuple[int, int, int, int]:
    """`selmer.evaluate_F_local` before its digit rule: the class of the
    descent value at delta mod 3**precision, computed again at precision + 2
    and required to agree, else InsufficientPrecision."""
    coefficients = tower.evaluate_F_symbolic()

    def class_at(k: int):
        delta, _ = padic_hensel_root([-10, 0, 0, 1], 4, 3, k + 6)
        return express(tower.descent_value_at(Fraction(delta % 3**k), coefficients))

    vec = class_at(precision)
    if class_at(precision + 2) != vec:
        raise InsufficientPrecision(
            f"the descent class of the 3-adic point [0 : cbrt(10) : -2] did not"
            f" stabilize: precisions {precision} and {precision + 2} give different classes"
        )
    return vec


# ------------------------------------------ flat Z[zeta_3, eps] product
# The product that `tower._k_product` writes as one straight line over the
# twelve coordinates, here as nine Z[zeta_3] pair products folded back by
# eps^3 = 6.


def pair_product(x: tuple, y: tuple) -> tuple:
    """(a + b zeta_3)(c + d zeta_3) on pairs, zeta_3^2 = -1 - zeta_3."""
    (a, b), (c, d) = x, y
    return a * c - b * d, a * d + b * c - b * d


def k_product_by_pairs(x: tuple, y: tuple) -> tuple:
    """x y on flat 6-tuples: the pair product of each x_i with each y_j
    lands on eps^(i+j), and eps^3 = 6 folds degrees 3 and 4 back into 0
    and 1."""
    xs, ys = (x[0:2], x[2:4], x[4:6]), (y[0:2], y[2:4], y[4:6])
    raw = [[0, 0] for _ in range(5)]
    for i, xi in enumerate(xs):
        for j, yj in enumerate(ys):
            a, b = pair_product(xi, yj)
            raw[i + j][0] += a
            raw[i + j][1] += b
    folded = [(raw[0][0] + 6 * raw[3][0], raw[0][1] + 6 * raw[3][1]),
              (raw[1][0] + 6 * raw[4][0], raw[1][1] + 6 * raw[4][1]), tuple(raw[2])]
    return tuple(v for pair in folded for v in pair)


# ------------------------------------------------------- K/k norms
def norm_K_over_k(x: KElement) -> Eisenstein:
    """The closed-form norm c0^3 + 6 c1^3 + 36 c2^3 - 18 c0 c1 c2 and the
    generic determinant, both on the Fraction coordinates of x in the
    nested ring."""
    g = generic(x)
    c0, c1, c2 = g.coeffs
    closed = c0 * c0 * c0 + 6 * (c1 * c1 * c1) + 36 * (c2 * c2 * c2) - 18 * (c0 * c1 * c2)
    if closed != g.norm():
        raise CertificateError(f"norm evaluations of {x} disagree")
    return eisenstein(closed)


# ------------------------------------------------------- norm -10 search
def gamma_search(bound: int) -> list[KElement]:
    """All elements with coordinates x + y zeta_3, |x|, |y| <= bound, whose
    norm to Q(zeta_3) is -10, by `norm_K_over_k` on every candidate."""
    span = range(-bound, bound + 1)
    found = []
    target = Eisenstein.of(-10)
    for x0, y0, x1, y1, x2, y2 in itertools.product(span, repeat=6):
        cand = KElement(Eisenstein(x0, y0), Eisenstein(x1, y1), Eisenstein(x2, y2))
        if cand.is_zero:
            continue
        if tower.norm_K_over_k(cand) == target:
            found.append(cand)
    return found


def integer_gamma_search(bound: int) -> list[KElement]:
    """The same elements as `gamma_search`, screened on integer pairs: the
    closed form `k_closed_norm` on every triple of pairs (a, b) = a +
    b zeta_3 with |a|, |b| <= bound, each hit certified by
    `tower.norm_K_over_k`."""
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    span = range(-bound, bound + 1)
    pairs = list(itertools.product(span, repeat=2))
    target = Eisenstein.of(-10)
    found = []
    for c in itertools.product(pairs, repeat=3):
        if k_closed_norm(c) == (-10, 0):
            cand = KElement._make(c[0] + c[1] + c[2])
            if tower.norm_K_over_k(cand) != target:
                raise CertificateError(f"integer norm screen accepted {cand}")
            found.append(cand)
    return found


# ------------------------------------------------ F_3 nullspace
# The nullspace that `cubic._nullspace3` reads off the echelon form,
# found here by trying every vector.


def in_span3(rows, vec) -> bool:
    return _rank3(list(rows) + [list(vec)]) == _rank3(rows)


def nullspace3(rows, width: int) -> list[tuple[int, ...]]:
    """Basis of {v in F_3^width : row . v = 0 for all rows}, by trying all
    3^width vectors and keeping each one outside the span so far."""
    basis = []
    for vec in itertools.product(range(3), repeat=width):
        if not any(vec):
            continue
        if all(sum(r * v for r, v in zip(row, vec)) % 3 == 0 for row in rows):
            if not in_span3(basis, vec):
                basis.append(list(vec))
    return [tuple(b) for b in basis]


# ------------------------------------------- cubic pairing from norms
# The construction of the cubic Hilbert pairing that the Steinberg
# relations in `cubic.cube_class_group` replaced: sample norms from each
# Kummer extension k_v(a^{1/3}), take the linear form cutting out the
# index-3 norm subgroup as a row, and fix the row scales by a search over
# (1, 2)^4 constrained by skewness and the norm subgroups of three
# products of generators.  Classes come from the pi-digit `express` above.


class DegenerateExtension(ValueError):
    """Adjoining a cube root of a cube does not give a field extension."""


_SAMPLE_COORDS = (
    Eisenstein.of(0),
    ONE,
    -ONE,
    ZETA,
    -ZETA,
    ONE + ZETA,
    ONE - ZETA,
    Eisenstein.of(2),
    PI,
    ONE + PI,
)


def cube_norm_subgroup(a) -> tuple[tuple[int, ...], ...]:
    """Basis (3 vectors in F_3^4) of the classes of norms from k_v(a^{1/3}).

    Local reciprocity for the cyclic cubic Kummer extension says the norm
    group has index exactly 3; sampling norms
    N(c0 + c1 t + c2 t^2) = c0^3 + a c1^3 + a^2 c2^3 - 3 a c0 c1 c2
    must therefore span a 3-dimensional subspace and no more.
    """
    a = Eisenstein.of(a)
    if express(a) == (0, 0, 0, 0):
        raise DegenerateExtension(f"{a} is a cube in Q_3(zeta_3)")
    basis: list[list[int]] = []
    a2 = a * a
    for c0, c1, c2 in itertools.product(_SAMPLE_COORDS, repeat=3):
        if c0.is_zero and c1.is_zero and c2.is_zero:
            continue
        value = c0**3 + a * c1**3 + a2 * c2**3 - 3 * a * c0 * c1 * c2
        if value.is_zero:
            continue
        vec = express(value)
        if not any(vec) or in_span3(basis, vec):
            continue
        basis.append(list(vec))
        rank = _rank3(basis)
        if rank > 3:
            raise ArithmeticError("norm subgroup exceeds the predicted index 3")
        if rank == 3:
            return tuple(tuple(b) for b in _rref3(basis))
    raise InsufficientPrecision(
        f"norm subgroup of cube root of {a} did not stabilize in the sampling budget"
    )


def _defining_form(x) -> tuple[int, ...]:
    forms = nullspace3(cube_norm_subgroup(x), 4)
    if len(forms) != 1:
        raise CertificateError("norm subgroup must have a unique defining form")
    return forms[0]


@lru_cache(maxsize=1)
def pairing_matrix_from_norms() -> tuple[tuple[int, ...], ...]:
    """The pairing matrix on the basis pi, zeta_3, 1 + pi^2, 1 + pi^3.

    Each row is the defining form of a generator's norm subgroup, up to a
    scalar; skewness and the norm subgroups of pi zeta_3, pi (1 + pi^2)
    and zeta_3 (1 + pi^3) leave two scalings, negatives of each other,
    and the one whose first nonzero entry is 1 is returned.
    """
    generators = (PI,) + _UNIT_GENERATORS
    functionals = [_defining_form(g) for g in generators]
    couplings = []
    for i, j in ((0, 1), (0, 2), (1, 3)):
        w = tuple((a + b) % 3 for a, b in zip(express(generators[i]), express(generators[j])))
        couplings.append((w, _defining_form(generators[i] * generators[j])))
    valid = []
    for lams in itertools.product((1, 2), repeat=4):
        m = [[lams[i] * functionals[i][j] % 3 for j in range(4)] for i in range(4)]
        if any((m[i][j] + m[j][i]) % 3 for i in range(4) for j in range(4)):
            continue
        if all(
            [sum(w[i] * m[i][j] for i in range(4)) % 3 for j in range(4)]
            in (list(form), [2 * f % 3 for f in form])
            for w, form in couplings
        ):
            valid.append(m)
    if len(valid) != 2:
        raise CertificateError("scaling must be unique up to the global sign")
    matrix = next(m for m in valid if next(c for row in m for c in row if c) == 1)
    return tuple(tuple(row) for row in matrix)


# ------------------------------------ curve polynomials over GenericK
# The identity-suite arithmetic that flat Z[zeta_3, eps] coordinates in
# `tower` replaced: coefficients are GenericK elements with Fraction
# coordinates, sigma multiplies by zeta_3 and zeta_3^2, the reduction
# rewrites one monomial at a time from a work list, and the descent-value
# product runs in the delta-algebra over GenericK.


def sigma(x: GenericK) -> GenericK:
    """The automorphism of K/k sending eps to zeta_3 eps."""
    c0, c1, c2 = x.coeffs
    return GenericK._make((c0, G_ZETA * c1, G_ZETA * G_ZETA * c2))


class CurvePolynomial:
    """Polynomial in X, Y, Z with GenericK coefficients; the constructor
    also takes the tower's KElement, Eisenstein, int or Fraction."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        self.terms: dict[tuple[int, int, int], GenericK] = {}
        for mono, coeff in terms.items():
            coeff = generic(coeff)
            if not coeff.is_zero:
                self.terms[tuple(mono)] = coeff

    @classmethod
    def variable(cls, name: str) -> "CurvePolynomial":
        idx = {"X": 0, "Y": 1, "Z": 2}[name]
        mono = tuple(1 if i == idx else 0 for i in range(3))
        return cls({mono: GenericK.of(1)})

    @classmethod
    def constant(cls, value) -> "CurvePolynomial":
        return cls({(0, 0, 0): value})

    def _merge(self, mono, coeff):
        if mono in self.terms:
            coeff = coeff + self.terms[mono]
        if coeff.is_zero:
            self.terms.pop(mono, None)
        else:
            self.terms[mono] = coeff

    def __add__(self, other) -> "CurvePolynomial":
        if not isinstance(other, CurvePolynomial):
            other = CurvePolynomial.constant(other)
        out = CurvePolynomial(self.terms)
        for mono, coeff in other.terms.items():
            out._merge(mono, coeff)
        return out

    def __neg__(self) -> "CurvePolynomial":
        return CurvePolynomial({m: -c for m, c in self.terms.items()})

    __radd__ = __add__

    def __sub__(self, other) -> "CurvePolynomial":
        if not isinstance(other, CurvePolynomial):
            other = CurvePolynomial.constant(other)
        return self + (-other)

    def __mul__(self, other) -> "CurvePolynomial":
        if not isinstance(other, CurvePolynomial):
            other = CurvePolynomial.constant(other)
        out = CurvePolynomial({})
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])
                out._merge(mono, c1 * c2)
        return out

    __rmul__ = __mul__

    def apply_sigma(self) -> "CurvePolynomial":
        return CurvePolynomial({m: sigma(c) for m, c in self.terms.items()})

    def reduce(self) -> "CurvePolynomial":
        """Normal form modulo 3X^3 + 4Y^3 + 5Z^3 (X-exponents below 3)."""
        out = CurvePolynomial({})
        work = list(self.terms.items())
        third = Fraction(1, 3)
        while work:
            (i, j, k), coeff = work.pop()
            if i < 3:
                out._merge((i, j, k), coeff)
                continue
            work.append(((i - 3, j + 3, k), coeff * (-4 * third)))
            work.append(((i - 3, j, k + 3), coeff * (-5 * third)))
        return out

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def evaluate(self, x, y, z) -> GenericK:
        total = GenericK.of(0)
        for (i, j, k), coeff in self.terms.items():
            total = total + coeff * (Fraction(x) ** i * Fraction(y) ** j * Fraction(z) ** k)
        return total


def resolvent_parts():
    """Numerator and denominator of U and the forms P_j, as in `tower`."""
    X = CurvePolynomial.variable("X")
    Y = CurvePolynomial.variable("Y")
    Z = CurvePolynomial.variable("Z")
    forms = [2 * Y + G_ZETA**j * G_EPS * X for j in range(3)]
    num = forms[0] * forms[1] + G_GAMMA * (Z * forms[1]) + (G_GAMMA * sigma(G_GAMMA)) * (Z * Z)
    den = forms[0] * forms[1]
    return num, den, forms, X, Y, Z


def norm_factorization_sides(num, den, forms):
    """Both sides of identity (c), N(U) = (sigma^2(gamma)/gamma) U^3 P0/P2
    cross-multiplied, as full products that are never reduced: the
    products that `tower._identity_sides` reduces as it multiplies.  The
    arguments are those of `resolvent_parts`, on GenericK coefficients."""
    P0, _, P2 = forms
    snum, sden = num.apply_sigma(), den.apply_sigma()
    s2num, s2den = snum.apply_sigma(), sden.apply_sigma()
    lhs = num * snum * s2num * G_GAMMA * (den * den * den) * P2
    rhs = sigma(sigma(G_GAMMA)) * (num * num * num) * P0 * (den * sden * s2den)
    return lhs, rhs


def evaluate_F_symbolic() -> tuple[Eisenstein, Eisenstein, Eisenstein]:
    """The descent-value coefficients from the product of the three
    conjugate quadratics in the delta-algebra over GenericK."""
    conj = [G_GAMMA, sigma(G_GAMMA), sigma(sigma(G_GAMMA))]
    product = DeltaPoly.of(1)
    for i in range(3):
        g_i, g_next = conj[i], conj[(i + 1) % 3]
        product = product * DeltaPoly(g_i * g_next, -g_i, 1)
    if not all(part.is_cyclo for part in product.coeffs):
        raise CertificateError("the norm must have coefficients in Q(zeta_3)")
    if DeltaPoly(0, 0, 1) ** 3 != DeltaPoly.of(100):
        raise CertificateError("delta^6 must reduce to 100")
    return tuple(eisenstein(part.c0 * Fraction(1, 100)) for part in product.coeffs)


# ------------------------------------------- E, E' and the 3-isogeny E' -> E
# The elliptic curves of Selmer's descent for 3X^3 + 4Y^3 + 5Z^3 = 0, which
# no command runs.  A point is a plain pair (a, b), checked against its
# equation where it is made: over F_p a pair of residues in [0, p), over Q or
# Q_3 a pair of ints and Fractions (ints where integral).  None is the point
# at infinity.

CURVES = {"E": -24300, "Eprime": 900}  # b^2 = a^3 + CURVES[curve]
_Q3_DIGITS = 20


def _v3(x) -> int:
    return split_prime_power(x, 3)[0]


def _int_where_integral(c):
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def rational_point(curve: str, a, b) -> tuple:
    """(a, b) on the curve over Q: the equation holds exactly."""
    a, b = _int_where_integral(a), _int_where_integral(b)
    if b * b != a**3 + CURVES[curve]:
        raise ValueError(f"({a}, {b}) is not on {curve} over Q")
    return a, b


def residue_point(curve: str, a, b, p: int) -> tuple:
    """(a, b) on the curve over F_p, as residues; a Fraction is read through
    the inverse of its denominator, a ValueError where p divides it."""
    a, b = (Fraction(c).numerator * pow(Fraction(c).denominator, -1, p) % p for c in (a, b))
    if (b * b - a**3 - CURVES[curve]) % p:
        raise ValueError(f"({a}, {b}) is not on {curve} mod {p}")
    return a, b


def q3_point(curve: str, a, b) -> tuple:
    """(a, b) on the curve over Q_3: a rational pair that Hensel's lemma
    lifts.  With k >= 0 least such that A = 9^k a and B = 27^k b are
    3-integral, G = B^2 - A^3 - 3^(6k) shift must vanish, or have v_3(G)
    above twice the valuation of dG/dB = 2B or of dG/dA = -3A^2."""
    a, b = _int_where_integral(a), _int_where_integral(b)
    k = max([0] + [-(_v3(c) // w) for c, w in ((a, 2), (b, 3)) if c])
    A, B = a * 9**k, b * 27**k
    g = B * B - A**3 - 3 ** (6 * k) * CURVES[curve]
    if g and not any(d and _v3(g) > 2 * _v3(d) for d in (2 * B, 3 * A * A)):
        raise ValueError(f"({a}, {b}) is not on {curve} over Q_3")
    return a, b


def cubic_to_weierstrass(A, B, C, p: int | None = None):
    """The point of E over Q (p None) or F_p that [A : B : C] on the
    norm-side cubic A^3 + B^3 + 60C^3 = 0 maps to: (-180C/(A + B),
    270(A - B)/(A + B)), or None where A + B = 0.  A ValueError if
    [A : B : C] is not on that cubic."""
    reduce = (lambda x: x) if p is None else (lambda x: x % p)
    if not any(map(reduce, (A, B, C))) or reduce(A**3 + B**3 + 60 * C**3):
        raise ValueError(f"[{A} : {B} : {C}] is not on A^3 + B^3 + 60C^3 = 0 over {p or 'Q'}")
    if reduce(A + B) == 0:
        return None
    a, b = Fraction(-180 * C, A + B), Fraction(270 * (A - B), A + B)
    return rational_point("E", a, b) if p is None else residue_point("E", a, b, p)


def isogeny_map(pt, p: int | None = None):
    """The 3-isogeny E' -> E, (u, v) -> ((u^3 + 3600)/u^2, v (u^3 - 7200)/u^3),
    over Q_3 (p None) or F_p.  Both ends are checked on their curves; the
    kernel u = 0 and the point at infinity go to infinity."""
    if pt is None:
        return None
    point = q3_point if p is None else (lambda curve, a, b: residue_point(curve, a, b, p))
    u, v = point("Eprime", *pt)
    if u == 0:
        return None
    return point("E", Fraction(u**3 + 3600, u * u), Fraction(v * (u**3 - 7200), u**3))


def isogeny_identity_check() -> bool:
    """The substitution behind `isogeny_map` in x = u^3:
    (x + 3600)^3 - 24300 x^2 = (x + 900)(x - 7200)^2, so v^2 = x + 900
    forces b^2 = a^3 - 24300."""
    x = sympy.Symbol("x")
    return sympy.expand((x + 3600) ** 3 - 24300 * x**2 - (x + 900) * (x - 7200) ** 2) == 0


def unit_root_3adic(coeffs, start: int) -> tuple[int, int]:
    """(root mod 3^_Q3_DIGITS, _Q3_DIGITS) of the polynomial with 3-integral
    coefficients `coeffs` (constant first) near `start`, where its
    derivative is a 3-adic unit: Newton's iteration on residues."""
    modulus = 3**_Q3_DIGITS
    cs = [Fraction(c).numerator * pow(Fraction(c).denominator, -1, modulus) for c in coeffs]
    x = start
    for _ in range(_Q3_DIGITS):  # Newton doubles the digits of a simple root
        f = sum(c * x**i for i, c in enumerate(cs)) % modulus
        if f == 0:
            return x, _Q3_DIGITS
        x = (x - f * pow(sum(i * c * x ** (i - 1) for i, c in enumerate(cs) if i), -1, modulus)) % modulus
    raise ValueError(f"no simple 3-adic root near {start}")


def isogeny_preimage_Q3(pt):
    """A Q_3 point of E' over the Q_3 point (a, b) of E, or None over None.

    v_3(a) <= 0 (else v_3(b^2) would be odd), so 3600/a^3 lies in 9 Z_3 and
    T^3 - T^2 + 3600/a^3 has a root T = 1 mod 3; then u = T a and
    v = b u^3/(u^3 - 7200).  The image of (u, v) must return b exactly and
    a to v_3(a) + digits(T) digits; CertificateError otherwise."""
    if pt is None:
        return None
    a, b = q3_point("E", *pt)
    if _v3(a) > 0:
        raise ValueError("no affine Q_3-point of E has positive valuation in a")
    t, digits = unit_root_3adic([Fraction(3600) / a**3, 0, -1, 1], 1)
    u = t * a
    pre = q3_point("Eprime", u, Fraction(b * u**3, u**3 - 7200))
    back_a, back_b = isogeny_map(pre)
    if back_b != b or (back_a != a and _v3(back_a - a) < _v3(a) + digits):
        raise CertificateError(f"isogeny round trip drifted at a={a}")
    return pre


def random_E_points_Q3(count: int, seed: int = 0) -> list:
    """Random Q_3 points of E: a = 1 mod 3, divided by 9 one time in four,
    makes a^3 - 24300 = 3^v w with v in {0, -6} and w = 1 mod 9 a square;
    b = 3^(v/2) sqrt(w)."""
    rng = random.Random(seed)
    points = []
    for _ in range(count):
        a = Fraction(1 + 3 * rng.randrange(1, 500), 9 if rng.randrange(4) == 0 else 1)
        v, w = split_prime_power(a**3 - 24300, 3)
        points.append(q3_point("E", a, unit_root_3adic([-w, 0, 1], 1)[0] * Fraction(3) ** (v // 2)))
    return points


def random_curve_points_mod_p(curve: str, p: int, count: int, seed: int = 0) -> list:
    """`count` random affine points of E or E' over F_p, p prime to 30."""
    if p < 7 or 30 % p == 0:
        raise ValueError("need a prime of good reduction (coprime to 30)")
    rng = random.Random(seed)
    points = []
    while len(points) < count:
        u = rng.randrange(p)
        v = sqrt_mod((u**3 + CURVES[curve]) % p, p)
        if v is not None:
            points.append(residue_point(curve, u, v, p))
    return points


def cubic_points_mod_p(p: int) -> list:
    """Every point of A^3 + B^3 + 60C^3 = 0 over F_p, one per line, with
    the first nonzero coordinate 1."""
    lines = [(1, b, c) for b in range(p) for c in range(p)] + [(0, 1, c) for c in range(p)] + [(0, 0, 1)]
    return [(A, B, C) for A, B, C in lines if (A**3 + B**3 + 60 * C**3) % p == 0]


def isogeny_sweep(primes=(7, 11, 13, 17, 19, 23), per_prime: int = 100, seed: int = 0) -> int:
    """The number of random E'(F_p) points pushed through the isogeny, at
    several good primes; each image is checked on E."""
    checked = 0
    for p in primes:
        for pt in random_curve_points_mod_p("Eprime", p, per_prime, seed + p):
            isogeny_map(pt, p)
            checked += 1
    return checked


# ------------------------------------------------------- product formula
def product_formula_check(a, b) -> InvariantValue:
    """The sum of the invariants of (a, b) over 2, the real place and every
    prime of a numerator or denominator, the only places where it can be
    nonzero; reciprocity makes it 0."""
    a, b = Fraction(a), Fraction(b)
    primes = {2} | {q for x in (a, b) for n in (x.numerator, x.denominator) for q in sympy.primefactors(n)}
    total = hilbert2(a, b, REAL_PLACE)[1]
    for p in sorted(primes):
        total = total + hilbert2(a, b, p)[1]
    return total
