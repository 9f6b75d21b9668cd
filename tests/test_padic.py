import random
from fractions import Fraction

import pytest

from localglobal.exact import primes_up_to, valuation
from localglobal.padic import (
    InsufficientPrecision,
    NoConvergence,
    hensel_root,
    is_fourth_power_unit,
)
from oracles import PadicNumber, is_nth_power_unit, padic_root, power_class, power_class_from_parts


def from_q(q, p, prec=40):
    return PadicNumber.from_fraction(Fraction(q), p, prec)


def agree(x, y, digits):
    """x = y modulo p**digits (absolute)."""
    return (x - y).v >= digits


def test_construction_and_views():
    x = from_q(Fraction(50, 9), 5)
    assert x.valuation() == 2 and x.unit_residue(1) == 2 * pow(9, -1, 5) % 5
    assert from_q(0, 5).is_zero
    z = PadicNumber.zero(7, 12)
    assert z.abs_prec == 12
    with pytest.raises(InsufficientPrecision):
        z.valuation()


def test_ring_ops_match_rationals():
    rng = random.Random(2024)
    for p in (2, 3, 17):
        for _ in range(80):
            a = Fraction(rng.randrange(-400, 400), rng.randrange(1, 60))
            b = Fraction(rng.randrange(-400, 400), rng.randrange(1, 60))
            if a == 0 or b == 0:
                continue
            xa, xb = from_q(a, p), from_q(b, p)
            for op in ("add", "sub", "mul"):
                got = getattr(xa, f"__{op}__")(xb)
                exact = {"add": a + b, "sub": a - b, "mul": a * b}[op]
                if exact == 0:
                    assert got.is_zero
                else:
                    assert agree(got, from_q(exact, p), got.abs_prec)
            if b != 0:
                got = xa / xb
                assert agree(got, from_q(a / b, p), got.abs_prec - 1)


def test_zero_cancellation_tracks_precision():
    x = from_q(7, 5, prec=6)
    d = x - x
    assert d.is_zero and d.abs_prec == 6


def test_mixed_int_arithmetic():
    x = from_q(3, 7)
    assert (x + 4).residue(2) == 7
    assert (2 * x).residue(1) == 6
    assert (1 / x).unit_residue(1) == pow(3, -1, 7)


def test_hensel_examples():
    # cube root of 10 in Q_3 from start 4: root = 4 mod 9, and v(f'(4)) = 1
    r, digits = hensel_root([-10, 0, 0, 1], 4, 3, 40)
    assert digits == 39 and 0 <= r < 3**39 and r % 9 == 4
    assert (r**3 - 10) % 3**40 == 0
    r20, digits = hensel_root([-10, 0, 0, 1], 4, 3, 21)
    assert digits == 20 and r20 == r % 3**20 and (r20**3 - 10) % 3**21 == 0
    # T^3 - T^2 + 3600 over Q_3 from start 1: root = 1 mod 9
    t, _ = hensel_root([3600, 0, -1, 1], 1, 3, 40)
    assert t % 9 == 1
    # x^2 + 1 over Q_5 from start 2: root = 7 mod 25
    i5, _ = hensel_root([1, 0, 1], 2, 5, 40)
    assert i5 % 25 == 7


def test_hensel_rejects_bad_start():
    with pytest.raises(NoConvergence):
        hensel_root([-2, 0, 1], 1, 2, 40)  # v(f(1)) = 0, not > 2 v(f'(1)) = 2


def test_padic_sqrt():
    for p, q in [(2, Fraction(457)), (17, Fraction(-8)), (3, Fraction(7, 4))]:
        x = from_q(q, p)
        r = padic_root(x, 2)
        assert agree(r * r, x, 30)
    with pytest.raises(ValueError):
        padic_root(from_q(5, 2), 2)  # 5 = 5 mod 8 not a square
    with pytest.raises(ValueError):
        padic_root(from_q(3, 17), 2)  # 3 is the least non-residue mod 17
    with pytest.raises(ValueError):
        padic_root(from_q(17, 17), 2)  # odd valuation


def test_power_class_examples():
    def is_nth_power(x, n, p):
        return power_class(x, n, p).is_nth_power

    assert is_nth_power(17, 2, p=2)  # 17 = 1 mod 8
    assert is_nth_power(10, 3, p=3)  # 10 = 1 mod 9
    assert not is_nth_power(2, 4, p=17)  # 2^4 = -1 mod 17
    assert is_nth_power(16, 4, p=17)
    assert is_nth_power(17, 4, p=2)  # 17 = 1 mod 16
    assert not is_nth_power(41, 4, p=2)  # 41 = 9 mod 16: square but not fourth power
    assert is_nth_power(41, 2, p=2)


def test_power_class_brute_force():
    # exhaustive comparison of the closed criteria with literal n-th powers,
    # at a residue precision past the stabilization threshold for every pair:
    # the library's fourth-power rule and the oracle's rule for every n
    caps = {2: 8, 3: 8, 5: 8, 17: 4}
    for p, cap in caps.items():
        mod = p**cap
        for n in (2, 3, 4):
            powers = {pow(x, n, mod) for x in range(1, mod) if x % p}
            for u in range(1, min(mod, 3000)):
                if u % p == 0:
                    continue
                assert is_nth_power_unit(u, n, p) == (u % mod in powers), (p, n, u)
                if n == 4:
                    assert is_fourth_power_unit(u, p) == (u % mod in powers), (p, u)
    with pytest.raises(ValueError, match="not a unit"):
        is_fourth_power_unit(34, 17)


def test_power_class_group_structure():
    rng = random.Random(5)
    for p in (2, 3, 17):
        for n in (2, 3, 4):
            for _ in range(40):
                a = rng.randrange(1, 500) * Fraction(p) ** rng.randrange(-2, 3)
                b = rng.randrange(1, 500) * Fraction(p) ** rng.randrange(-2, 3)
                ca, cb = power_class(a, n, p), power_class(b, n, p)
                assert ca * cb == power_class(a * b, n, p)


def test_square_class_counts():
    # |Q_p*/(Q_p*)^2| = 4 for odd p, 8 for p = 2
    for p, expected in ((3, 4), (17, 4), (2, 8)):
        classes = set()
        for u in range(1, 100):
            for v in range(2):
                if u % p:
                    classes.add(power_class(Fraction(u * p**v), 2, p))
        assert len(classes) == expected


def test_exact_power_class_equals_the_padic_one():
    """An int or Fraction is classed off its valuation and a residue, with
    no PadicNumber: the class read off the valuation and unit digits of its
    40-digit PadicNumber."""
    rng = random.Random(6)
    for p in primes_up_to(50):
        for n in (2, 3, 4):
            for _ in range(30):
                x = rng.choice((1, -1)) * rng.randrange(1, 10**6) * p ** rng.randrange(4)
                if rng.randrange(2):
                    x = Fraction(x, rng.randrange(1, 10**4) * p ** rng.randrange(4))
                padic = from_q(x, p)
                digits = padic.unit_residue(2 * valuation(n, p) + 1)
                expected = power_class_from_parts(p, n, padic.valuation(), digits)
                assert power_class(x, n, p) == expected, (x, n, p)


@pytest.mark.parametrize("args, error, message", [
    # the checks run in the order n, p, x; 0 has no class
    ((Fraction(5, 3), 2, 1), ValueError, "1 is not prime"),
    ((7, -1, 7), ValueError, "n must be >= 1"),
    ((3, 2, 15), ValueError, "15 is not prime"),
    ((0, 2, 15), ValueError, "15 is not prime"),   # the prime before the zero
    ((0, 4, 2**61 - 1), ValueError, "nonzero arguments required"),
    ((0, 0, 15), ValueError, "n must be >= 1"),    # n before anything else
    ((0, 2, 5), ValueError, "nonzero arguments required"),
    ((Fraction(0), 4, 2), ValueError, "nonzero arguments required"),
])
def test_exact_power_class_errors(args, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        power_class(*args)


def test_representatives():
    c = power_class(18, 2, p=17)  # 18 = 1 mod 17: square unit
    assert c.representative() == 1
    c2 = power_class(3 * 17, 2, p=17)
    assert c2.representative() == 3 * 17  # 3 = least non-residue mod 17


def test_padic_root_needs_the_digits_that_show_the_derivative():
    # a fourth root over Q_2 has v(4 r^3) = 2, so Newton needs 2*2 + 1 digits
    for prec in range(1, 5):
        with pytest.raises(InsufficientPrecision):
            padic_root(PadicNumber(2, 0, 17, prec), 4)
    root = padic_root(PadicNumber(2, 0, 17, 5), 4)
    assert root.abs_prec == 3 and agree(root * root * root * root, from_q(17, 2), 3)
    # odd p prime to n needs one digit
    assert padic_root(PadicNumber(17, 0, 16, 1), 2).residue(1) in (4, 13)
