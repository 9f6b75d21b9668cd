"""Exact integer and rational arithmetic: primality, factoring, p-adic
valuations and residues mod m, residue symbols, and `QuotientElement`, the
operator shell that the rings Q(zeta_3) (`cubic.Eisenstein`) and
Q(zeta_3, cbrt(6)) (`tower.KElement`) fill in with their own product, with
the one rule for their coordinates: ints where integral, Fractions
otherwise, divided by `_exact_quotient`.

All routines are deterministic.  Primality is proven below psi_13 (about
2**81.5): trial division by the primes up to 47 decides n < 53**2, and
above that Miller-Rabin to the first k prime bases, k sized to n by the
least strong pseudoprimes psi_k (Pomerance, Selfridge & Wagstaff 1980;
Jaeschke 1993; Sorenson & Webster 2017).  Larger inputs use 40 rounds
drawn from an RNG seeded by the input itself, and Pollard rho walks a
fixed schedule of polynomial offsets within a fixed budget of iterations
(`RHO_BUDGET`), past which `factorize` raises `FactoringBudgetExhausted`.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import namedtuple
from fractions import Fraction

# The primes up to 41: a complete witness set for n < psi_13, the least
# strong pseudoprime to all of them (Sorenson & Webster, Math. Comp. 86, 2017).
_SMALL_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI_13 = 3317044064679887385961981
# (psi_k, k): psi_k is the least strong pseudoprime to the first k prime
# bases, so those bases decide every n < psi_k.  psi_2..psi_4: Pomerance,
# Selfridge & Wagstaff, Math. Comp. 35 (1980) and Jaeschke, Math. Comp. 61
# (1993), psi_5..psi_8 from Jaeschke, psi_9..psi_11 from Jiang & Deng,
# Math. Comp. 83 (2014), psi_12 and psi_13 from Sorenson & Webster.
# psi_7 = psi_8 and psi_9 = psi_10 = psi_11, so tiers 7, 9 and 10 add
# nothing, and psi_1 = 2047 lies below 53**2, where trial division decides.
_WITNESS_TIERS = (
    (1373653, 2),
    (25326001, 3),
    (3215031751, 4),
    (2152302898747, 5),
    (3474749660383, 6),
    (341550071728321, 8),
    (3825123056546413051, 11),
    (318665857834031151167461, 12),
    (_PSI_13, 13),
)

_TRIAL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]

# The rho iterations one `factorize` call may spend, over all its cofactors
# and offsets c.  A fixed count, not a time, so that running out is
# reproducible.  2^22 iterations split a cofactor whose least prime has
# about 40 bits, and take a few seconds on 200-bit cofactors.
RHO_BUDGET = 1 << 22


class FactorizationError(Exception):
    """Raised when a factoring invariant is violated (should not happen)."""


class FactoringBudgetExhausted(ArithmeticError):
    """`factorize` spent its `RHO_BUDGET` rho iterations without splitting
    the composite `cofactor`: its factors are unknown, not refuted."""

    def __init__(self, cofactor: int):
        super().__init__(f"the factoring budget of {RHO_BUDGET} rho iterations "
                         f"ran out on the composite cofactor {cofactor}")
        self.cofactor = cofactor


class CertificateError(ArithmeticError):
    """A certificate self-check failed: a computed witness does not satisfy
    the identity it certifies.  Raised, never asserted, so that the check
    survives `python -O`."""


# ----------------------------------------------------------------- records
class Record(tuple):
    """Base of the package's immutable value records: a named tuple that
    behaves as a value of its own class, not as a tuple.  A record equals
    only a record of its own class, hashes as the tuple of its fields,
    refuses assignment, and has none of the tuple's concatenation,
    repetition or ordering.

    A record class subclasses `record(name, fields)` and declares
    `__slots__ = ()`; validation and normalisation go in its `__new__`,
    which hands the fields to `tuple.__new__`.
    """

    __slots__ = ()

    def __eq__(self, other):
        if type(other) is type(self):
            return tuple.__eq__(self, other)
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other):
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    __hash__ = tuple.__hash__

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _no_tuple_operator(self, other):
        return NotImplemented

    __add__ = __mul__ = __rmul__ = _no_tuple_operator

    def _unordered(self, other):
        # raised, not NotImplemented: a plain tuple on the other side would order it
        raise TypeError(f"{type(self).__name__} records are not ordered")

    __lt__ = __le__ = __gt__ = __ge__ = _unordered

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)  # through the validating __new__, also for _replace


def record(name: str, fields, defaults: tuple = ()) -> type:
    """The base of a record class: `Record` over `namedtuple(name, fields)`."""
    return type(name, (Record, namedtuple(name, fields, defaults=defaults)), {"__slots__": ()})


def _miller_rabin_round(n: int, a: int, d: int, s: int) -> bool:
    """One strong-probable-prime test; True means `a` does not witness n composite."""
    a %= n
    if a == 0:
        return True
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_probable_prime(n: int) -> bool:
    """Trial division, then Miller-Rabin with as many bases as n's size needs.

    A True is a proof below psi_13 = 3317044064679887385961981 (about
    2**81.5): n < 53**2 = 2809 with no prime factor up to 47 is prime, and
    above that n < psi_k is decided by the first k prime bases
    (`_WITNESS_TIERS`: 4 bases below psi_4 ~ 2**31.6, 11 below
    psi_11 ~ 2**61.7).  From psi_13 on, which passes all thirteen bases,
    40 seeded random rounds give a probable prime."""
    if n < 2:
        return False
    for p in _TRIAL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    if n < 2809:  # 53**2: a composite this small has a prime factor <= 47
        return True
    s = valuation(n - 1, 2)
    d = (n - 1) >> s
    for psi, k in _WITNESS_TIERS:
        if n < psi:
            witnesses = _SMALL_WITNESSES[:k]
            break
    else:
        rng = random.Random(n)
        witnesses = [rng.randrange(2, n - 1) for _ in range(40)]
    return all(_miller_rabin_round(n, a, d, s) for a in witnesses)


def _brent_rho(n: int, budget: int) -> tuple[int, int]:
    """A nontrivial factor of composite odd n (Brent's form of Pollard rho)
    and the number of iterations x -> x^2 + c it took.

    The polynomial offsets c = 1, 2, 3, ... are tried in order, so the result
    is fully deterministic.  The iterations are counted across all offsets
    and checked against `budget` before each doubling of the walk and after
    each gcd batch, never inside a batch; past it, FactoringBudgetExhausted
    names n.
    """
    if n % 2 == 0:
        return 2, 0
    spent = 0
    for c in range(1, 100):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            spent += r
            if spent > budget:
                raise FactoringBudgetExhausted(n)
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                batch = min(m, r - k)
                for _ in range(batch):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
                spent += batch
                if spent > budget:
                    raise FactoringBudgetExhausted(n)
            r *= 2
        if g == n:  # the batch overshot: walk it again one gcd at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
                spent += 1
        if g != n:
            return g, spent
    raise FactorizationError(f"rho failed on {n}")


class Factorization(record("Factorization", "sign factors")):
    """Signed factorization sign * prod(p**e): `sign` is +-1, `factors` the
    pairs (p, e) with primes strictly ascending."""

    __slots__ = ()

    def __new__(cls, sign: int, factors: tuple):
        if sign not in (-1, 1):
            raise ValueError("sign must be +-1")
        primes = [p for p, _ in factors]
        if primes != sorted(primes) or len(set(primes)) != len(primes):
            raise ValueError("factors must be sorted by distinct primes")
        if any(e < 1 for _, e in factors):
            raise ValueError("exponents must be positive")
        return tuple.__new__(cls, (sign, factors))

    @property
    def value(self) -> int:
        out = self.sign
        for p, e in self.factors:
            out *= p**e
        return out

    def exponent(self, p: int) -> int:
        for q, e in self.factors:
            if q == p:
                return e
        return 0

    def as_dict(self) -> dict[int, int]:
        return dict(self.factors)


def factorize(n: int) -> Factorization:
    """Factor a nonzero integer: trial division by the primes below 50, which
    stops at the first p with p^2 > rest, then a primality test, a
    perfect-square test or a deterministic Brent rho split on each
    remaining cofactor.  The rho splits share `RHO_BUDGET` iterations;
    FactoringBudgetExhausted names the cofactor on which they run out."""
    if n == 0:
        raise ValueError("cannot factor 0")
    sign = -1 if n < 0 else 1
    rest = abs(n)
    found: dict[int, int] = {}

    def count(p, e=1):
        found[p] = found.get(p, 0) + e

    for p in _TRIAL_PRIMES:
        if p * p > rest:  # no prime below p divides rest: it is 1 or a prime
            if rest > 1:
                count(rest)
            rest = 1
            break
        while rest % p == 0:
            count(p)
            rest //= p
    stack = [rest] if rest > 1 else []
    budget = RHO_BUDGET
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_probable_prime(m):
            count(m)
            continue
        root = math.isqrt(m)
        if root * root == m:
            stack += [root, root]
            continue
        d, spent = _brent_rho(m, budget)
        budget -= spent
        stack += [d, m // d]
    fz = Factorization(sign, tuple(sorted(found.items())))
    if fz.value != n:
        raise FactorizationError(f"the factors of {n} multiply to {fz.value}")
    return fz


def valuation(n: int, p: int) -> int:
    """v_p of a nonzero integer; ValueError on 0."""
    if n == 0:
        raise ValueError("valuation of zero")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def residue(q, m: int) -> int:
    """An int or Fraction modulo m: the numerator times the inverse of the
    denominator, in [0, m).  ValueError if the denominator is not
    invertible mod m (q is not integral at a prime dividing m)."""
    if isinstance(q, int):
        return q % m
    return q.numerator * pow(q.denominator, -1, m) % m


def split_prime_power(q, p: int) -> tuple[int, int | Fraction]:
    """Write a nonzero rational q = p**v * u with u a p-adic unit; returns
    (v, u), with u an int when q is one and a Fraction otherwise."""
    if isinstance(q, int) and q:
        v = valuation(q, p)
        return v, q // p**v
    q = Fraction(q)
    if q == 0:
        raise ValueError("nonzero value required")
    num, den = q.numerator, q.denominator
    vn, vd = valuation(num, p), valuation(den, p)
    return vn - vd, Fraction(num // p**vn, den // p**vd) if vn or vd else q


def legendre_symbol(a: int, p: int) -> int:
    """(a/p) for odd prime p: 1 on nonzero squares, -1 on nonsquares, 0 if p | a."""
    if p == 2 or not is_probable_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return -1 if r == p - 1 else 1


def sqrt_mod_prime(a: int, p: int) -> int:
    """A square root of a modulo an odd prime p (Tonelli-Shanks).

    Returns a root in [0, p); raises ValueError on a nonresidue.  p is
    tested for primality once, unless a = 0 mod p; residuosity then uses
    Euler's criterion.
    """
    if a % p and (p == 2 or not is_probable_prime(p)):
        raise ValueError(f"{p} is not an odd prime")
    return _sqrt_mod_odd_prime(a, p)


def _least_nonresidue(p: int) -> int:
    """The least quadratic non-residue mod the odd prime p (Euler's criterion)."""
    c = 2
    while pow(c, (p - 1) // 2, p) != p - 1:
        c += 1
    return c


def _sqrt_minus_one(p: int) -> int:
    """c^((p-1)/4), a square root of -1 mod the prime p = 1 mod 4, c the least non-residue."""
    return pow(_least_nonresidue(p), (p - 1) // 4, p)


def _sqrt_mod_odd_prime(a: int, p: int, nonresidue: int | None = None) -> int:
    """`sqrt_mod_prime` for a p already known to be an odd prime, without
    testing it again.  A caller that holds a quadratic non-residue mod p
    passes it in, and Tonelli-Shanks (p = 1 mod 4) skips its search."""
    a %= p
    if a == 0:
        return 0
    half = (p - 1) // 2
    if pow(a, half, p) != 1:
        raise ValueError(f"{a} is not a square mod {p}")
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    s = valuation(p - 1, 2)
    q = (p - 1) >> s
    m, c = s, pow(nonresidue or _least_nonresidue(p), q, p)
    t, r = pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2, i = t2 * t2 % p, i + 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    if r * r % p != a:
        raise CertificateError(f"{r}^2 != {a} mod {p}")
    return r


def _primitive_root(p: int) -> int:
    """Least positive primitive root mod p."""
    order_factors = [q for q, _ in factorize(p - 1).factors]
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in order_factors):
            return g
    raise ValueError(f"no primitive root found mod {p}")


class QuarticResidue(record("QuarticResidue", "exponent label")):
    """Value of the quartic power residue character of F_p* (p = 1 mod 4).

    `exponent` e in {0,1,2,3} satisfies a**((p-1)/4) = i**e mod p where i is
    the fourth root of unity g**((p-1)/4) for the least primitive root g;
    `label` spells the corresponding element of {+1, +i, -1, -i}.
    """

    __slots__ = ()

    _LABELS = ("+1", "+i", "-1", "-i")

    @property
    def is_plus_one(self) -> bool:
        return self.exponent == 0

    @property
    def sign(self) -> int:
        """+1 or -1 when the value is real; error on +-i."""
        if self.exponent == 0:
            return 1
        if self.exponent == 2:
            return -1
        raise ValueError(f"quartic symbol {self.label} is imaginary")

    def __str__(self):
        return self.label


def quartic_residue_symbol(a: int, p: int) -> QuarticResidue:
    """Quartic residue character a**((p-1)/4) mod p for p = 1 mod 4, p not | a."""
    if p % 4 != 1 or not is_probable_prime(p):
        raise ValueError(f"{p} is not a prime = 1 mod 4")
    if a % p == 0:
        raise ValueError(f"{a} is divisible by {p}")
    r = pow(a % p, (p - 1) // 4, p)
    if r == 1:
        e = 0
    elif r == p - 1:
        e = 2
    else:
        i4 = pow(_primitive_root(p), (p - 1) // 4, p)
        if r == i4:
            e = 1
        elif r == p - i4:
            e = 3
        else:  # pragma: no cover - p prime rules this out
            raise ValueError("value is not a fourth root of unity")
    return QuarticResidue(e, QuarticResidue._LABELS[e])


def is_perfect_square(n: int) -> bool:
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


def primes_up_to(n: int) -> list[int]:
    """Sieve of Eratosthenes; the primes are read out by `compress`, with
    no Python loop over the sieve."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    return list(itertools.compress(range(n + 1), sieve))


# ------------------------------------------------------------ ring elements
def _exact_coordinate(v) -> int | Fraction:
    """v as a ring coordinate: an int when it is integral, else a Fraction
    (a value of another rational type is read through Fraction).  A float
    is a TypeError: 0.1 is not 1/10."""
    if type(v) is not int:
        if type(v) is not Fraction:
            if isinstance(v, float):
                raise TypeError(f"a float is not an exact coordinate: {v!r}")
            v = Fraction(v)
        if v.denominator == 1:
            return v.numerator
    return v


def _exact_coordinates(coeffs) -> tuple:
    """`_exact_coordinate` on each int or Fraction coordinate of a tuple."""
    if Fraction not in map(type, coeffs):
        return tuple(coeffs)
    return tuple([_exact_coordinate(v) for v in coeffs])


def _exact_quotient(n, d) -> int | Fraction:
    """n / d for ints or Fractions, as a coordinate: n // d when d divides
    n, else a Fraction.  (`/` on two ints would give a float.)"""
    if type(n) is int and type(d) is int and not n % d:
        return n // d
    return _exact_coordinate(Fraction(n, d))


class QuotientElement:
    """The operator shell of a ring element stored as a coordinate tuple.

    A subclass fixes the ring: `_product(a, b)` multiplies two coordinate
    tuples, `_scalar(x)` gives the coordinates of a scalar x, and
    `_SCALARS` lists the scalar types.  Integers and Fractions add into
    the first coordinate and multiply coordinatewise; any other scalar is
    embedded by `_scalar` first.  Results of arithmetic are built by
    `_make`, which turns their integral coordinates into ints by
    `_exact_coordinates`, and VARIABLE names the generator when printing.
    """

    __slots__ = ("coeffs",)
    _SCALARS: tuple = (int, Fraction)
    VARIABLE = "x"

    @classmethod
    def _make(cls, coeffs: tuple):
        out = object.__new__(cls)
        out.coeffs = _exact_coordinates(coeffs)
        return out

    @classmethod
    def of(cls, x):
        """x itself, or the scalar x as an element."""
        if isinstance(x, cls):
            return x
        return cls._make(cls._scalar(x))

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
        if isinstance(other, (int, Fraction)):
            return self._make((self.coeffs[0] + other,) + self.coeffs[1:])
        if isinstance(other, self._SCALARS):
            return self + self.of(other)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return self._make(tuple([-c for c in self.coeffs]))

    def __sub__(self, other):
        if type(other) is type(self):
            return self._make(tuple([s - t for s, t in zip(self.coeffs, other.coeffs)]))
        if isinstance(other, (int, Fraction)):
            return self._make((self.coeffs[0] - other,) + self.coeffs[1:])
        if isinstance(other, self._SCALARS):
            return self - self.of(other)
        return NotImplemented

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if type(other) is type(self):
            return self._make(self._product(self.coeffs, other.coeffs))
        if isinstance(other, (int, Fraction)):
            return self._make(tuple([c * other for c in self.coeffs]))
        if isinstance(other, self._SCALARS):
            return self * self.of(other)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** -k
        out, base = None, self
        while k:
            if k & 1:
                out = base if out is None else out * base
            k >>= 1
            if k:
                base = base * base
        return self.of(1) if out is None else out

    def __str__(self) -> str:
        powers = ["", f"*{self.VARIABLE}"] + [f"*{self.VARIABLE}^{i}" for i in range(2, len(self.coeffs))]
        return " + ".join(f"({c}){x}" for c, x in zip(self.coeffs, powers))

    def __repr__(self) -> str:
        return f"{type(self).__name__}{self.coeffs!r}"
