"""Local symbols over the completions of Q.

Quadratic Hilbert symbols at every place (closed formulas, no enumeration),
the invariant-value group Q/Z they land in, and exact norm-group membership
for the radical extensions Q_p[x]/(x^m - d).

Norm membership is decided by closed forms only; nothing is sampled.
Quadratic cases use the Hilbert symbol.  Tame Kummer cases (p = 1 mod m,
so mu_m lies in Q_p and p does not divide m) use the tame m-th power
symbol, whose kernel is the norm group of Q_p(d^(1/m)) (Serre, Local
Fields, ch. XIV, section 3; Neukirch, Algebraic Number Theory, V.3).  The
quartic without fourth roots of unity (p = 2, or p = 3 mod 4) with
-d = s^2 is the biquadratic field Q_p(i, sqrt(2s)), whose norm group is
the intersection of two quadratic norm groups: two Hilbert symbols.
"""

from __future__ import annotations

from fractions import Fraction

from .exact import is_probable_prime, legendre_symbol, record, residue, split_prime_power
from .padic import (
    DEFAULT_PRECISION,
    InsufficientPrecision,
    PadicNumber,
    is_nth_power,
    padic_root,
)

__all__ = [
    "Place",
    "REAL_PLACE",
    "InvariantValue",
    "hilbert2",
    "product_formula_check",
    "is_local_norm",
]


# ------------------------------------------------------------------ places
class Place(record("Place", "prime")):
    """A place of Q: a finite prime, or the real (archimedean) place."""

    __slots__ = ()

    def __new__(cls, prime: int | None = None):
        if prime is not None and not is_probable_prime(prime):
            raise ValueError(f"{prime} is not prime")
        return tuple.__new__(cls, (prime,))

    @classmethod
    def finite(cls, p: int) -> "Place":
        return cls(p)

    @classmethod
    def real(cls) -> "Place":
        return cls(None)

    @property
    def is_real(self) -> bool:
        return self.prime is None

    @property
    def is_finite(self) -> bool:
        return self.prime is not None

    def __str__(self) -> str:
        return "infinity" if self.prime is None else str(self.prime)


REAL_PLACE = Place.real()


def as_place(v) -> Place:
    """Coerce an int prime, None/'infinity'/'oo' (real place) or Place."""
    if isinstance(v, Place):
        return v
    if v is None or (isinstance(v, str) and v.lower() in ("infinity", "inf", "oo")):
        return REAL_PLACE
    return Place(int(v))


# --------------------------------------------------------------- invariants
class InvariantValue(record("InvariantValue", "value")):
    """An element of Q/Z represented by its reduced fraction in [0, 1).

    The value 0 means "no local obstruction here"; values with denominator
    2 come from quaternion classes, denominator 3 from cubic classes.
    Addition is modulo 1.
    """

    __slots__ = ()

    def __new__(cls, value):
        reduced = Fraction(value) % 1
        if reduced.denominator not in (1, 2, 3):
            raise ValueError(f"unsupported invariant denominator: {reduced}")
        return tuple.__new__(cls, (reduced,))

    @classmethod
    def zero(cls) -> "InvariantValue":
        return cls(Fraction(0))

    @classmethod
    def half(cls) -> "InvariantValue":
        return cls(Fraction(1, 2))

    @classmethod
    def thirds(cls, k: int) -> "InvariantValue":
        return cls(Fraction(k, 3))

    @property
    def is_zero(self) -> bool:
        return self.value == 0

    def __add__(self, other: "InvariantValue") -> "InvariantValue":
        return InvariantValue(self.value + other.value)

    def __neg__(self) -> "InvariantValue":
        return InvariantValue(-self.value)

    def __str__(self) -> str:
        return str(self.value)


# ------------------------------------------------------- quadratic symbols
def _hilbert2_finite(p: int, va: int, ua: int, vb: int, ub: int) -> int:
    """Quadratic Hilbert symbol at p from valuations and unit residues.

    For odd p the units are needed mod p; at p = 2 they are needed mod 8.
    """
    if p == 2:
        eps_a, eps_b = (ua - 1) // 2 % 2, (ub - 1) // 2 % 2
        omega_a, omega_b = (ua * ua - 1) // 8 % 2, (ub * ub - 1) // 8 % 2
        e = eps_a * eps_b + va * omega_b + vb * omega_a
        return -1 if e % 2 else 1
    sign = 1
    if va % 2 and vb % 2 and (p - 1) // 2 % 2:
        sign = -sign
    if vb % 2:
        sign *= legendre_symbol(ua, p)
    if va % 2:
        sign *= legendre_symbol(ub, p)
    return sign


def _vu(x, p: int) -> tuple[int, int]:
    """Valuation and unit residue (mod 8 at p = 2, mod p otherwise) of x."""
    mod = 8 if p == 2 else p
    if isinstance(x, PadicNumber):
        if x.is_zero:
            raise InsufficientPrecision("symbol of a value that vanishes at precision")
        need = 3 if p == 2 else 1
        if x.prec < need:
            raise InsufficientPrecision("unit residue needs more digits")
        return x.valuation(), x.unit_residue(need) % mod
    v, u = split_prime_power(x, p)
    return v, residue(u, mod)


def hilbert2(a, b, v) -> tuple[int, InvariantValue]:
    """Quadratic Hilbert symbol (a, b)_v as (sign, invariant).

    The sign is +1 iff a is a norm from Q_v(sqrt(b)) (equivalently
    z^2 = a x^2 + b y^2 has a nontrivial Q_v-point); the invariant is 1/2
    exactly when the sign is -1.  Closed formulas at every place: the real
    place is -1 iff both arguments are negative; odd p uses valuations and
    Legendre symbols; p = 2 uses the standard unit formulas mod 8.
    """
    place = as_place(v)
    if place.is_real:
        if isinstance(a, PadicNumber) or isinstance(b, PadicNumber):
            raise ValueError("real place needs exact rational arguments")
        if a == 0 or b == 0:
            raise ValueError("nonzero arguments required")
        sign = -1 if a < 0 and b < 0 else 1
    else:
        p = place.prime
        va, ua = _vu(a, p)
        vb, ub = _vu(b, p)
        sign = _hilbert2_finite(p, va, ua, vb, ub)
    inv = InvariantValue.half() if sign == -1 else InvariantValue.zero()
    return sign, inv


def product_formula_check(a, b) -> InvariantValue:
    """Sum of the invariants of (a, b) over every place where it can ramify.

    The symbol is trivial at odd primes not dividing either argument, so
    the sum runs over 2, the primes dividing the numerators and
    denominators, and the real place.  Reciprocity says the result is 0;
    the exact sum is returned so callers can assert it.
    """
    a, b = Fraction(a), Fraction(b)
    if a == 0 or b == 0:
        raise ValueError("nonzero arguments required")
    from .exact import factorize

    primes = {2}
    for q in (a, b):
        primes.update(factorize(q.numerator).as_dict())
        primes.update(factorize(q.denominator).as_dict())
    total = InvariantValue.zero()
    for p in sorted(primes):
        total = total + hilbert2(a, b, p)[1]
    total = total + hilbert2(a, b, REAL_PLACE)[1]
    return total


# --------------------------------------------------------- norm membership
def _tame_symbol_is_trivial(x: Fraction, d: Fraction, p: int, m: int) -> bool:
    """Is the tame m-th power symbol (x, d)_p trivial (p odd, p = 1 mod m)?

    With a = v_p(x) and b = v_p(d), the symbol is the m-th power residue
    of (-1)**(a b) x**b / d**a mod p; it is trivial exactly when x is a
    norm from Q_p(d^(1/m)).
    """
    a, ux = split_prime_power(x, p)
    b, ud = split_prime_power(d, p)
    sign = -1 if a * b % 2 else 1
    c = sign * pow(residue(ux, p), b, p) * pow(residue(ud, p), -a, p)
    return pow(c, (p - 1) // m, p) == 1


def is_local_norm(x, p: int, m: int, d, precision: int = DEFAULT_PRECISION) -> bool:
    """Is x a norm from the radical extension of Q_p defined by x^m = d?

    When x^m - d is irreducible this is literal membership in
    N(L*/Q_p) for the degree-m field L.  When it is reducible the algebra
    Q_p[x]/(x^m - d) splits into a product of smaller fields (the
    completions of the global radical field above p) and membership means
    x lies in the product of their norm groups; a linear factor therefore
    makes every x a norm.  Degrees 2, 3, 4 are supported.

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
    x = Fraction(x)
    d = Fraction(d)
    if x == 0 or d == 0:
        raise ValueError("nonzero arguments required")
    if not is_probable_prime(p):
        raise ValueError(f"{p} is not prime")
    if m not in (2, 3, 4):
        raise ValueError("supported degrees: 2, 3, 4")

    if m == 2:
        return hilbert2(x, d, p)[0] == 1
    if p % m == 1:
        return _tame_symbol_is_trivial(x, d, p, m)
    if m == 3:
        # No cube roots of unity in Q_p: x^3 - d is not Galois, and its
        # norm map is onto.
        return True

    # m == 4 and -1 is not a square in Q_p.
    if is_nth_power(d, 2, p, precision):
        # d = s^2: the algebra splits as the pair of quadratic fields from
        # x^2 - s and x^2 + s, whose norm groups differ by the nontrivial
        # character attached to -1, so together they fill Q_p*.
        return True
    if is_nth_power(-d, 2, p, precision):
        # d = -s^2: the biquadratic algebra Q_p(i, sqrt(2s)) (see above).
        s = padic_root(PadicNumber.from_fraction(-d, p, precision), 2)
        return hilbert2(x, -1, p)[0] == 1 and hilbert2(x, 2 * s, p)[0] == 1
    # Non-Galois quartic: norms agree with those of the quadratic
    # subfield generated by the square root of d.
    return hilbert2(x, d, p)[0] == 1
