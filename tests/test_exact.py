import math
import random
from fractions import Fraction

import pytest
import sympy
from oracles import quartic_free_part

from localglobal.exact import (
    Factorization,
    factorize,
    fourth_root,
    is_perfect_square,
    is_probable_prime,
    is_squarefree,
    legendre_symbol,
    primes_up_to,
    quartic_residue_symbol,
    residue,
    sqrt_mod_prime,
    valuation,
)


def test_primality_sweep_against_sympy():
    for n in range(2, 20_000):
        assert is_probable_prime(n) == sympy.isprime(n), n


def test_primality_known_hard_composites():
    # Carmichael numbers and a classical strong pseudoprime to small bases.
    for n in [561, 1105, 1729, 2465, 6601, 8911, 10585, 62745, 162401, 3215031751]:
        assert not is_probable_prime(n), n
    assert is_probable_prime(2**89 - 1)  # Mersenne prime above the 2**64 cutoff
    assert not is_probable_prime((2**89 - 1) * (2**107 - 1))


def test_factorize_examples():
    assert factorize(24300).as_dict() == {2: 2, 3: 5, 5: 2}
    assert factorize(1921).as_dict() == {17: 1, 113: 1}
    assert factorize(-17) == Factorization(-1, ((17, 1),))
    assert factorize(1) == Factorization(1, ())
    with pytest.raises(ValueError):
        factorize(0)


def test_factorize_random_against_sympy():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randrange(2, 10**12)
        assert factorize(n).as_dict() == sympy.factorint(n), n
    # hard-ish semiprimes
    ps = [100003, 999983, 15485863, 32452843]
    for a in ps:
        for b in ps:
            assert factorize(a * b).as_dict() == sympy.factorint(a * b)


def test_factorization_value_roundtrip():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randrange(2, 10**9) * rng.choice([-1, 1])
        assert factorize(n).value == n


def test_quartic_free_part():
    assert quartic_free_part(Fraction(17)) == (17, 1)
    assert quartic_free_part(Fraction(1921, 81)) == (1921, 3)
    assert quartic_free_part(Fraction(16)) == (1, Fraction(1, 2))
    assert quartic_free_part(Fraction(-32)) == (-2, Fraction(1, 2))
    rng = random.Random(3)
    for _ in range(50):
        q = Fraction(rng.randrange(1, 10**6), rng.randrange(1, 10**4))
        q *= rng.choice([-1, 1])
        n0, m = quartic_free_part(q)
        assert q * m**4 == n0
        assert all(e < 4 for e in factorize(n0).as_dict().values()) or abs(n0) == 1


def test_legendre_symbol():
    assert legendre_symbol(2, 17) == 1
    assert legendre_symbol(3, 17) == -1
    assert legendre_symbol(17, 2 * 0 + 17) == 0
    squares = {x * x % 17 for x in range(1, 17)}
    for a in range(1, 17):
        assert legendre_symbol(a, 17) == (1 if a in squares else -1)
    for p in [3, 5, 7, 11, 101, 9973]:
        for a in range(1, 25):
            assert legendre_symbol(a, p) == sympy.legendre_symbol(a, p)


def test_sqrt_mod_prime():
    # p = 1 mod 8 takes the Tonelli-Shanks loop, p = 3 mod 4 the closed form
    for p in [3, 5, 7, 13, 17, 41, 73, 97, 113, 257, 331, 337]:
        squares = {x * x % p for x in range(1, p)}
        assert sqrt_mod_prime(0, p) == sqrt_mod_prime(p, p) == 0
        for a in range(1, p):
            if a in squares:
                r = sqrt_mod_prime(a, p)
                assert 0 <= r < p and r * r % p == a
                assert sqrt_mod_prime(a - p, p) == r
            else:
                with pytest.raises(ValueError):
                    sqrt_mod_prime(a, p)
    assert (sqrt_mod_prime(2, 17), sqrt_mod_prime(2, 257), sqrt_mod_prime(49, 337)) == (6, 60, 7)
    for a, n in [(4, 15), (1, 2), (9, 91)]:
        with pytest.raises(ValueError):
            sqrt_mod_prime(a, n)


def test_quartic_residue_symbol_examples():
    s = quartic_residue_symbol(2, 17)
    assert s.label == "-1" and s.exponent == 2 and s.sign == -1
    assert quartic_residue_symbol(2, 113).is_plus_one
    assert quartic_residue_symbol(2, 97).sign == -1
    # imaginary values occur exactly for quadratic non-residues
    t = quartic_residue_symbol(3, 17)
    assert t.label in ("+i", "-i")
    with pytest.raises(ValueError):
        t.sign


def test_quartic_symbol_matches_fourth_power_membership():
    # exponent 0 iff the element is a fourth power residue
    for p in [13, 17, 29, 97, 113]:
        fourth = {pow(x, 4, p) for x in range(1, p)}
        for a in range(2, 40):
            if a % p == 0:
                continue
            assert quartic_residue_symbol(a, p).is_plus_one == (a % p in fourth)


def test_quartic_symbol_squares_to_legendre():
    # the square of the quartic character is the quadratic character
    for p in [17, 41, 73, 97, 113]:
        for a in range(2, 30):
            if a % p == 0:
                continue
            e = quartic_residue_symbol(a, p).exponent
            assert (-1) ** e == legendre_symbol(a, p) or p % 4 != 1


def test_small_helpers():
    assert is_perfect_square(0) and is_perfect_square(144) and not is_perfect_square(145)
    assert fourth_root(16) == 2
    assert fourth_root(15) is None
    assert fourth_root(0) == 0
    assert is_squarefree(2 * 3 * 5) and not is_squarefree(12)
    ps = primes_up_to(100)
    assert ps[:5] == [2, 3, 5, 7, 11] and len(ps) == 25


def test_valuation():
    rng = random.Random(10)
    for p in (2, 3, 5, 17):
        for _ in range(200):
            n = rng.choice((-1, 1)) * rng.randrange(1, 10**6) * p ** rng.randrange(0, 8)
            v = valuation(n, p)
            assert n % p**v == 0 and n % p ** (v + 1) != 0, (n, p)
        with pytest.raises(ValueError):
            valuation(0, p)


def test_residue():
    rng = random.Random(11)
    for m in (1, 8, 27, 3**10):
        for _ in range(200):
            num = rng.randrange(-(10**6), 10**6)
            den = rng.randrange(1, 10**4)
            q = num if rng.random() < 0.3 else Fraction(num, den)
            if math.gcd(Fraction(q).denominator, m) != 1:
                continue
            r = residue(q, m)
            assert 0 <= r < m
            assert (r * Fraction(q).denominator - Fraction(q).numerator) % m == 0, (q, m)
    with pytest.raises(ValueError):
        residue(Fraction(1, 3), 27)
