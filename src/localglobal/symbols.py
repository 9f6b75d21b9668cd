"""Local symbols over the completions of Q.

Quadratic Hilbert symbols at every place (closed formulas, no enumeration),
the invariant-value group Q/Z they land in, and exact norm-group membership
for the radical extensions Q_p[x]/(x^m - d).

A finite place is a `Place`, whose prime is proven when it is built; every
function here that takes one proves an int prime first, and trusts a Place.
(`padic.power_class`, which classes d for a quartic without 4th roots of
unity, proves its prime again.)  `norm_test` and `hilbert2_reader` read
their fixed argument once per place and return a test for many values.

Norm membership is decided by closed forms only; nothing is sampled.
Quadratic cases use the Hilbert symbol.  Tame Kummer cases (p = 1 mod m,
so mu_m lies in Q_p and p does not divide m) use the tame m-th power
symbol, whose kernel is the norm group of Q_p(d^(1/m)) (Serre, Local
Fields, ch. XIV, section 3; Neukirch, Algebraic Number Theory, V.3).  The
quartic without fourth roots of unity (p = 2, or p = 3 mod 4) with
-d = s^2 is the biquadratic field Q_p(i, sqrt(2s)), whose norm group is
the intersection of two quadratic norm groups: two Hilbert symbols, with
s read off the valuation and a residue of -d (`_square_root`).  On int
and Fraction inputs a norm decision builds no p-adic number and reads no
p-adic digits, so it is never inconclusive.
"""

from __future__ import annotations

from fractions import Fraction

from .exact import _sqrt_mod_odd_prime, is_probable_prime, record, residue, split_prime_power
from .padic import power_class

__all__ = [
    "Place",
    "REAL_PLACE",
    "InvariantValue",
    "hilbert2",
    "hilbert2_reader",
    "product_formula_check",
    "is_local_norm",
    "norm_test",
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
    def _proven(cls, p: int) -> "Place":
        """The place of a prime that the caller has already proven."""
        return tuple.__new__(cls, (p,))

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
    hashes: construction, + and - return those instances from tables, and
    do no Fraction arithmetic.
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

    def __neg__(self) -> "InvariantValue":
        return _NEGATIVES[id(self)]

    def __str__(self) -> str:
        return str(self.value)


# The four values k/6, keyed by k; their hashes, sums and negatives are
# keyed by the ids of these instances, which are the only ones __new__ makes.
_BY_SIXTHS = {k: tuple.__new__(InvariantValue, (Fraction(k, 6),)) for k in (0, 2, 3, 4)}
_ZERO, _HALF = _BY_SIXTHS[0], _BY_SIXTHS[3]
_HASHES = {id(x): hash((x.value,)) for x in _BY_SIXTHS.values()}
_SUMS = {(id(x), id(y)): _BY_SIXTHS[(j + k) % 6]
         for j, x in _BY_SIXTHS.items() for k, y in _BY_SIXTHS.items() if (j + k) % 6 in _BY_SIXTHS}
_NEGATIVES = {id(x): _BY_SIXTHS[-k % 6] for k, x in _BY_SIXTHS.items()}


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
    many a: the Hilbert-symbol counterpart of `norm_test`.

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
    """The test x -> `is_local_norm(x, p, m, d)`.

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


def is_local_norm(x, p: int, m: int, d) -> bool:
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
