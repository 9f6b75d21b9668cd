"""Hensel lifting and n-th power tests on integer residues.

Hensel lifting runs Newton's method on integer residues modulo p**N and
returns a root at which v(f') = t as the pair (residue, N - t): the residue
modulo p**(N - t), the digits that Hensel's lemma proves.  Whether a unit
is an n-th power is read off its residue modulo p**(2 v_p(n) + 1).  Every
p-adic value in the package is an int or a Fraction: there is no p-adic
number type.  The labelled power classes of Q_p*/(Q_p*)**n live in
`tests/oracles.py`, as a reference of the norm test there.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exact import residue, valuation


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


# ----------------------------------------------------------------- n-th powers
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
