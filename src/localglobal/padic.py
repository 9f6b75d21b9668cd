"""Finite-precision p-adic numbers, Hensel lifting, and n-th power classes.

A nonzero p-adic number is stored as p**v * u with u a unit known modulo
p**prec ("prec significant digits").  A value whose digits are all zero at
the working precision only carries the absolute precision at which it
vanishes; such values poison any query that depends on the unit part.

Hensel lifting does no PadicNumber arithmetic: Newton's method runs on
integer residues modulo p**N, N the absolute precision of the start value,
and a root at which v(f') = t is returned to the N - t digits that Hensel's
lemma proves.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exact import is_probable_prime, record, residue, split_prime_power, valuation

DEFAULT_PRECISION = 40


class InsufficientPrecision(Exception):
    """The requested answer is not determined at the stored precision."""


class NoConvergence(Exception):
    """Newton iteration precondition v(f(a)) > 2 v(f'(a)) fails."""


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
    def from_int(cls, n, p, prec=DEFAULT_PRECISION):
        return cls.from_fraction(Fraction(n), p, prec)

    @classmethod
    def from_fraction(cls, q, p, prec=DEFAULT_PRECISION):
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
        if isinstance(other, PadicNumber):
            if other.p != self.p:
                raise ValueError("mixed primes")
            return other
        if isinstance(other, (int, Fraction)):
            return PadicNumber.from_fraction(
                Fraction(other), self.p, self.prec if not self._zero else DEFAULT_PRECISION
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

    def __pow__(self, k: int):
        if k == 0:
            return PadicNumber(self.p, 0, 1, self.prec if not self._zero else DEFAULT_PRECISION)
        if k < 0:
            return self.inverse() ** (-k)
        if self._zero:
            return PadicNumber.zero(self.p, self.v * k)
        mod = self.p**self.prec
        return PadicNumber(self.p, self.v * k, pow(self.unit, k, mod), self.prec)

    # -------------------------------------------------------------- equality
    def approx_eq(self, other, digits=None) -> bool:
        """Agreement modulo p**digits (absolute); defaults to shared precision."""
        other = self._coerce(other)
        diff = self - other
        if digits is None:
            return diff._zero
        return diff.v >= digits


def _integral_residue(c, p: int, n: int) -> int:
    """c (int, Fraction or PadicNumber) modulo p**n; ValueError if v(c) < 0."""
    if isinstance(c, int):
        return c % p**n
    if isinstance(c, PadicNumber):
        if c.p != p:
            raise ValueError("mixed primes")
        return c.residue(n)
    c = Fraction(c)
    if c.denominator % p == 0:
        raise ValueError(f"{c} is not a {p}-adic integer")
    return residue(c, p**n)


def hensel_root(coeffs, start, p=None, prec=DEFAULT_PRECISION, target=None) -> PadicNumber:
    """Newton-lift a simple approximate root of f (ascending coefficients).

    The working precision N is the absolute precision of the start value
    (`prec` for an int or Fraction start), lowered to that of any
    PadicNumber coefficient; int and Fraction coefficients are exact.  The
    start and the coefficients must be p-adic integers, else ValueError.
    Newton's method runs on integer residues modulo p**N, with no p-adic
    object arithmetic: with t = v(f'(a)) it requires v(f(a)) > 2t, else
    NoConvergence, and iterates x <- x - (f(x)/p**t) * (f'(x)/p**t)**-1
    modulo p**(N-t) until f(x) = 0 mod p**N.  The root is returned at
    absolute precision N - t, which is what Hensel's lemma proves: the
    p-adic root r of f has v(r - x) >= v(f(x)) - t >= N - t.  A `target`
    above N, or f(a) = 0 mod p**N with N <= 2t (which does not show
    v(f(a)) > 2t), raises InsufficientPrecision.
    """
    if isinstance(start, PadicNumber):
        p = start.p
        n = start.abs_prec
    else:
        if p is None:
            raise ValueError("prime p required when start is not p-adic")
        n = prec
    n = min([n] + [c.abs_prec for c in coeffs if isinstance(c, PadicNumber)])
    if n <= 0:
        raise InsufficientPrecision(f"no {p}-adic digits known (N={n})")
    mod = p**n
    f = [_integral_residue(c, p, n) for c in coeffs]
    df = [i * c % mod for i, c in enumerate(f)][1:]

    def value(poly, x):
        acc = 0
        for c in reversed(poly):
            acc = (acc * x + c) % mod
        return acc

    x = _integral_residue(start, p, n)
    fx, dfx = value(f, x), value(df, x)
    if not dfx:
        raise NoConvergence("derivative vanishes at working precision")
    t = valuation(dfx, p)
    if fx and valuation(fx, p) <= 2 * t:
        raise NoConvergence(f"v(f(a))={valuation(fx, p)} <= 2*v(f'(a))={2 * t}")
    if not fx and n <= 2 * t:
        raise InsufficientPrecision(
            f"f(a) = 0 mod {p}^{n} does not show v(f(a)) > 2*v(f'(a))={2 * t}"
        )
    if target is not None and target > n:
        raise InsufficientPrecision(f"target {target} exceeds working precision {n}")
    scale, low = p**t, p ** (n - t)
    for _ in range(64):
        if not fx:
            break
        x = (x - fx // scale * pow(dfx // scale, -1, low)) % low
        fx, dfx = value(f, x), value(df, x)
    else:
        raise InsufficientPrecision("Newton failed to reach working precision")
    x %= low
    if not x:
        return PadicNumber.zero(p, n - t)
    v = valuation(x, p)
    return PadicNumber(p, v, x // p**v, n - t - v)


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
    unit = PadicNumber(p, 0, x.unit, x.prec)
    root = hensel_root([-unit] + [0] * (n - 1) + [1], PadicNumber(p, 0, start, x.prec))
    return PadicNumber(p, root.v + x.v // n, root.unit, root.prec)


# --------------------------------------------------------------------- classes
def _unit_label_digits(p: int, n: int) -> int:
    """Units congruent mod p**k (k = 2 v_p(n) + 1) share their n-th power class."""
    return 2 * valuation(n, p) + 1


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


def power_class(x, n: int, p=None, prec=DEFAULT_PRECISION) -> PowerClass:
    """Class of nonzero x in Q_p*/(Q_p*)**n.

    Accepts an int, Fraction or PadicNumber; a PadicNumber carrying the zero
    flag raises InsufficientPrecision (its class is undetermined).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if isinstance(x, PadicNumber):
        if x.is_zero:
            raise InsufficientPrecision(
                "power class of a value that vanishes at working precision"
            )
        p = x.p
        k = _unit_label_digits(p, n)
        return power_class_from_parts(p, n, x.valuation(), x.unit_residue(k))
    if p is None:
        raise ValueError("prime p required for exact input")
    if not is_probable_prime(p):
        raise ValueError(f"{p} is not prime")
    xa = PadicNumber.from_fraction(Fraction(x), p, prec)
    return power_class(xa, n)


def is_nth_power(x, n: int, p=None, prec=DEFAULT_PRECISION) -> bool:
    return power_class(x, n, p, prec).is_nth_power
