"""Enumerating reference implementations of the closed forms in `padic` and
`symbols`.

A power-class label is the least member of its coset, found by listing the
whole n-th power subgroup.  Norm membership for a cyclic radical extension
lists every class of Q_p*/(Q_p*)**m and samples norms until the generated
subgroup reaches the index predicted by local reciprocity.  Classes are
kept here as plain (valuation mod n, label) pairs built from the oracle's
own labels, so the differential tests compare two independent
computations.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache

from localglobal.padic import DEFAULT_PRECISION, PadicNumber, _unit_label_digits, padic_sqrt
from localglobal.symbols import _radical_norm_exact, _split_p_part, hilbert2


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
    v, u = _split_p_part(Fraction(x), p)
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
            value = _radical_norm_exact(m, d, tup)
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
    the cyclic cases, Hilbert symbols for the quadratic ones."""
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
        s = padic_sqrt(PadicNumber.from_fraction(d, p, DEFAULT_PRECISION))
        return hilbert2(x, s, p)[0] == 1
    if is_nth_power(-4 * d, 4, p):
        return minus_one_square or hilbert2(x, -1, p)[0] == 1
    if minus_one_square or is_nth_power(-d, 2, p):
        return oracle_class(x, 4, p) in norm_subgroup(p, 4, d, 4)
    return hilbert2(x, d, p)[0] == 1
