"""Hensel lifting and n-th power classes on integer residues.

Hensel lifting runs Newton's method on integer residues modulo p**N and
returns a root at which v(f') = t as the pair (residue, N - t): the residue
modulo p**(N - t), the digits that Hensel's lemma proves.  A power class is
read off the valuation and a unit residue of an int or Fraction.  Every
p-adic value in the package is such an integer or rational: there is no
p-adic number type.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exact import is_probable_prime, record, residue, split_prime_power, valuation


class InsufficientPrecision(Exception):
    """The requested answer is not determined at the stored precision."""


class NoConvergence(Exception):
    """Newton iteration precondition v(f(a)) > 2 v(f'(a)) fails."""


def _integral_residue(c, p: int, n: int) -> int:
    """c (int or Fraction) modulo p**n; ValueError if v(c) < 0."""
    if isinstance(c, int):
        return c % p**n
    c = Fraction(c)
    if c.denominator % p == 0:
        raise ValueError(f"{c} is not a {p}-adic integer")
    return residue(c, p**n)


def hensel_root(coeffs, start, p: int, n: int) -> tuple[int, int]:
    """Newton-lift a simple approximate root of f (ascending coefficients)
    from `start` at n working digits; returns (x, n - t).

    The coefficients and the start are ints or Fractions, and must be
    p-adic integers, else ValueError.  Newton's method runs on integer
    residues modulo p**n: with t = v(f'(a)) it requires v(f(a)) > 2t, else
    NoConvergence, and iterates x <- x - (f(x)/p**t) * (f'(x)/p**t)**-1
    modulo p**(n-t) until f(x) = 0 mod p**n.  The root x in [0, p**(n-t))
    is proven to its n - t digits by Hensel's lemma: the p-adic root r of f
    has v(r - x) >= v(f(x)) - t >= n - t.  f(a) = 0 mod p**n with n <= 2t
    (which does not show v(f(a)) > 2t) raises InsufficientPrecision.
    """
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
    scale, low = p**t, p ** (n - t)
    for _ in range(64):
        if not fx:
            break
        x = (x - fx // scale * pow(dfx // scale, -1, low)) % low
        fx, dfx = value(f, x), value(df, x)
    else:
        raise InsufficientPrecision("Newton failed to reach working precision")
    return x % low, n - t


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


def is_nth_power(x, n: int, p: int) -> bool:
    return power_class(x, n, p).is_nth_power
