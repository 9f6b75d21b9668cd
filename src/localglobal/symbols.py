"""Local symbols over the completions of Q.

Quadratic Hilbert symbols at every place (closed formulas, no enumeration)
and the invariant-value group Q/Z they land in.

A finite place is a `Place`, whose prime is proven when it is built; every
function here that takes one proves an int prime first, and trusts a Place.
`hilbert2_reader` reads its fixed argument once per place and returns the
symbol for many values.  The norm test of the radical algebras
Q_p[x]/(x^m - d) lives in `tests/oracles.py`, as the reference of the
forced-section rules of `reichardt_lind`.
"""

from __future__ import annotations

from fractions import Fraction

from .exact import is_probable_prime, record, residue, split_prime_power

__all__ = [
    "Place",
    "REAL_PLACE",
    "InvariantValue",
    "hilbert2",
    "hilbert2_reader",
]


# ------------------------------------------------------------------ places
class Place(record("Place", "prime")):
    """A place of Q: a finite prime, or the real (archimedean) place."""

    __slots__ = ()

    def __new__(cls, prime: int | None):
        if prime is not None and not is_probable_prime(prime):
            raise ValueError(f"{prime} is not prime")
        return tuple.__new__(cls, (prime,))

    @classmethod
    def _proven(cls, p: int) -> "Place":
        """The place of a prime that the caller has already proven."""
        return tuple.__new__(cls, (p,))

    @classmethod
    def real(cls) -> "Place":
        return cls(None)

    @property
    def is_real(self) -> bool:
        return self.prime is None

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


def _finite_prime(p) -> int:
    """The prime of a finite place given as a Place, proven when it was
    built, or as an int, proven here."""
    place = p if isinstance(p, Place) else Place(p)
    if place.is_real:
        raise ValueError("a finite place is required")
    return place.prime


# --------------------------------------------------------------- invariants
class InvariantValue(record("InvariantValue", "value")):
    """An element of Q/Z represented by its reduced fraction in [0, 1).

    The value 0 means "no local obstruction here"; values with denominator
    2 come from quaternion classes, denominator 3 from cubic classes.
    Addition is modulo 1.

    The four legal values 0, 1/3, 1/2 and 2/3 are built once, with their
    hashes: construction and + return those instances from tables, and do
    no Fraction arithmetic.
    """

    __slots__ = ()

    def __new__(cls, value):
        if not isinstance(value, (int, Fraction)):
            value = Fraction(value)
        d = value.denominator
        if d > 3:
            raise ValueError(f"unsupported invariant denominator: {value % 1}")
        return _BY_SIXTHS[value.numerator % d * (6 // d)]

    @classmethod
    def zero(cls) -> "InvariantValue":
        return _ZERO

    @classmethod
    def half(cls) -> "InvariantValue":
        return _HALF

    @classmethod
    def thirds(cls, k: int) -> "InvariantValue":
        return _BY_SIXTHS[2 * k % 6]

    @property
    def is_zero(self) -> bool:
        return self is _ZERO

    def __hash__(self):
        return _HASHES[id(self)]

    def __add__(self, other: "InvariantValue") -> "InvariantValue":
        total = _SUMS.get((id(self), id(other)))
        if total is not None:
            return total
        if not isinstance(other, InvariantValue):
            return NotImplemented
        raise ValueError(f"unsupported invariant denominator: {(self.value + other.value) % 1}")

    def __str__(self) -> str:
        return str(self.value)


# The four values k/6, keyed by k; their hashes and sums are
# keyed by the ids of these instances, which are the only ones __new__ makes.
_BY_SIXTHS = {k: tuple.__new__(InvariantValue, (Fraction(k, 6),)) for k in (0, 2, 3, 4)}
_ZERO, _HALF = _BY_SIXTHS[0], _BY_SIXTHS[3]
_HASHES = {id(x): hash((x.value,)) for x in _BY_SIXTHS.values()}
_SUMS = {(id(x), id(y)): _BY_SIXTHS[(j + k) % 6]
         for j, x in _BY_SIXTHS.items() for k, y in _BY_SIXTHS.items() if (j + k) % 6 in _BY_SIXTHS}


# ------------------------------------------------------- quadratic symbols
def _hilbert2_finite(p: int, va: int, ua: int, vb: int, ub: int) -> int:
    """Quadratic Hilbert symbol at the prime p from valuations and unit
    residues.

    For odd p the units are needed mod p, and their Legendre symbols come
    from Euler's criterion; at p = 2 they are needed mod 8.
    """
    if p == 2:
        eps_a, eps_b = (ua - 1) // 2 % 2, (ub - 1) // 2 % 2
        omega_a, omega_b = (ua * ua - 1) // 8 % 2, (ub * ub - 1) // 8 % 2
        e = eps_a * eps_b + va * omega_b + vb * omega_a
        return -1 if e % 2 else 1
    half = (p - 1) // 2
    e = va * vb * half
    if vb % 2 and pow(ua, half, p) != 1:
        e += 1
    if va % 2 and pow(ub, half, p) != 1:
        e += 1
    return -1 if e % 2 else 1


def _vu(x, p: int) -> tuple[int, int]:
    """Valuation and unit residue (mod 8 at p = 2, mod p otherwise) of x."""
    v, u = split_prime_power(x, p)
    return v, residue(u, 8 if p == 2 else p)


def hilbert2_reader(p, b):
    """The map a -> the invariant of (a, b)_p at the finite place p, for
    many a.

    b's valuation and unit residue are read here, once; each a is then
    read and evaluated by `_hilbert2_finite`.  p is a Place or an int prime
    (`_finite_prime`).  A zero a or b raises ValueError.
    """
    p = _finite_prime(p)
    vb, ub = _vu(b, p)

    def invariant(a) -> InvariantValue:
        va, ua = _vu(a, p)
        return _HALF if _hilbert2_finite(p, va, ua, vb, ub) == -1 else _ZERO

    return invariant


def hilbert2(a, b, v) -> tuple[int, InvariantValue]:
    """Quadratic Hilbert symbol (a, b)_v as (sign, invariant).

    The sign is +1 iff a is a norm from Q_v(sqrt(b)) (equivalently
    z^2 = a x^2 + b y^2 has a nontrivial Q_v-point); the invariant is 1/2
    exactly when the sign is -1.  Closed formulas at every place: the real
    place is -1 iff both arguments are negative; odd p uses valuations and
    Legendre symbols; p = 2 uses the standard unit formulas mod 8.  A
    finite place is `hilbert2_reader(v, b)(a)`.
    """
    place = as_place(v)
    if place.is_real:
        if a == 0 or b == 0:
            raise ValueError("nonzero arguments required")
        inv = _HALF if a < 0 and b < 0 else _ZERO
    else:
        inv = hilbert2_reader(place, b)(a)
    return (-1 if inv is _HALF else 1), inv

