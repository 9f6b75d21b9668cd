"""`padic.hensel_root` (Newton's method on integer residues mod q^N, which
returns the root as (residue, digits)) against the `PadicNumber` Newton
iteration it replaced, an independent check of every returned digit, and
its error paths; `exact.factorize` against the version
with trial division up to 10**4, also at every |n| < 10**4."""

import random
from fractions import Fraction

import oracles
import pytest

from localglobal.exact import factorize, primes_up_to, split_prime_power
from localglobal.padic import (
    InsufficientPrecision,
    NoConvergence,
    PadicNumber,
    hensel_root,
)

PRIMES = (2, 3, 5, 7, 37, 499)


def _value(coeffs, x):
    return sum(c * x**i for i, c in enumerate(coeffs))


def _derivative(coeffs, x):
    return sum(i * c * x ** (i - 1) for i, c in enumerate(coeffs) if i)


def _v(n, q):
    return split_prime_power(n, q)[0]


def _mul(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def _lifting_problem(rng, q, degree, t):
    """f of the given degree and a start a with v(f'(a)) = t < v(f(a)) / 2.

    f = (x - r)(q^t u + (x - r) k(x)) + e with u a unit and v(e) > 2t, so
    f'(r) = q^t u; a = r + q^(t+1) s keeps v(f'(a)) = t and v(f(a)) > 2t.
    The error e makes the root irrational in most cases.
    """
    r = rng.randrange(q**4)
    u = rng.choice([c for c in range(1, 4 * q) if c % q])
    k = [rng.randrange(-50, 50) for _ in range(degree - 1)]
    k[-1] = k[-1] or 1
    inner = _mul([-r, 1], k)
    inner[0] += q**t * u
    coeffs = _mul([-r, 1], inner)
    coeffs[0] += rng.randrange(-9, 10) * q ** (2 * t + 1 + rng.randrange(3))
    start = r + q ** (t + 1) * rng.randrange(q**2)
    return coeffs, start


@pytest.mark.parametrize("q", PRIMES)
def test_newton_on_residues_matches_or_certifies(q):
    rng = random.Random(q)
    for degree in (2, 3, 4):
        for t in (0, 1, 2):
            for _ in range(12):
                coeffs, a = _lifting_problem(rng, q, degree, t)
                assert _v(_derivative(coeffs, a), q) == t
                prec = rng.randrange(2 * t + 2, 30)
                start = PadicNumber.from_fraction(a, q, prec)
                x, digits = hensel_root(coeffs, a, q, start.abs_prec)
                if t == 0:
                    old = oracles.hensel_root(coeffs, start)
                    assert (x, digits) == (oracles.residue_of(old), old.abs_prec), (
                        q, coeffs, a, prec
                    )
                # every returned digit is proven: f(x) = 0 mod q^(N) with
                # N = digits + t, and x is still a simple root to order t
                assert 0 <= x < q**digits and digits == start.abs_prec - t
                assert _value(coeffs, x) % q ** (digits + t) == 0
                assert _v(_derivative(coeffs, x), q) == t


def test_int_start_uses_prec_as_absolute_precision():
    r, digits = hensel_root([1, 0, 1], 2, 5, 9)
    assert digits == 9 and 0 < r < 5**9
    assert (r**2 + 1) % 5**9 == 0
    # a Fraction coefficient is exact too
    r, digits = hensel_root([Fraction(1, 2), 0, Fraction(1, 2)], 2, 5, 6)
    assert digits == 6 and (r**2 + 1) % 5**6 == 0


def test_cube_root_of_ten_claims_only_proven_digits():
    # f'(4) = 48 has v_3 = 1, so N = 20 working digits prove 19; the old
    # bookkeeping returned 17 digits of which only 16 were right
    old = oracles.hensel_root([-10, 0, 0, 1], 4, p=3, prec=20)
    assert old.prec == 17 and old.residue(17) == 53515174
    assert _v(53515174**3 - 10, 3) == 17
    root, digits = hensel_root([-10, 0, 0, 1], 4, 3, 20)
    assert digits == 19
    assert root % 3**17 == 10468453
    assert _v(root**3 - 10, 3) >= 20


def test_fourth_root_of_1921_over_q2():
    # f'(1) = 4: twelve working digits prove ten
    old = oracles.hensel_root([-1921, 0, 0, 0, 1], 1, p=2, prec=12)
    assert old.residue(10) == 481 and (481**4 - 1921) % 2**12
    assert hensel_root([-1921, 0, 0, 0, 1], 1, 2, 12) == (993, 10)
    assert (993**4 - 1921) % 2**12 == 0


def test_bad_start_and_vanishing_derivative_do_not_converge():
    with pytest.raises(NoConvergence, match=r"v\(f\(a\)\)=0 <= 2\*v\(f'\(a\)\)=2"):
        hensel_root([-2, 0, 1], 1, 2, 40)
    with pytest.raises(NoConvergence, match="derivative vanishes"):
        hensel_root([0, 0, 1], 0, 7, 10)


def test_precision_errors():
    # f(a) = 0 mod q^N does not show v(f(a)) > 2t when N <= 2t
    with pytest.raises(InsufficientPrecision):
        hensel_root([-16, 0, 1], 4, 2, 4)
    with pytest.raises(InsufficientPrecision):
        hensel_root([-1, 0, 1], 1, 3, 0)


def test_non_integral_input_is_rejected():
    with pytest.raises(ValueError):
        hensel_root([Fraction(-1, 3), 0, 1], 1, 3, 10)
    with pytest.raises(ValueError):
        hensel_root([-1, 0, 1], Fraction(1, 3), 3, 10)
    with pytest.raises(ValueError):
        hensel_root([-1, 0, 1], Fraction(1, 9), 3, 10)


# ----------------------------------------------------------- factoring
def test_factorize_without_trial_division_to_ten_thousand():
    rng = random.Random(10_000)
    primes = [p for p in primes_up_to(10_000) if p > 47]
    sample = [primes[0], primes[-1]] + rng.sample(primes, 200)
    for p in sample:
        for k in range(1, 7):
            assert factorize(p**k) == oracles.factorize(p**k), (p, k)
    for _ in range(300):
        n = rng.choice(primes) * rng.choice(primes) * rng.choice((1, -1, 2, 45, 47**2))
        assert factorize(n) == oracles.factorize(n), n
    for _ in range(300):
        n = rng.randrange(2, 10**12) * rng.choice((1, -1))
        assert factorize(n) == oracles.factorize(n), n
    # trial division stops at the first prime p with p^2 > rest
    for n in range(1, 10_000):
        assert factorize(n) == oracles.factorize(n), n
        assert factorize(-n) == oracles.factorize(-n), -n
