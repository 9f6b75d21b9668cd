"""The coordinate rule of the rings Q(zeta_3) and K = Q(zeta_3)(eps), at
run time: every coordinate is exactly an int when it is integral and
exactly a Fraction otherwise, after every operation, on a seeded grid of
int and Fraction inputs up to 10**6 with denominators that are powers of 3
and of 5.  `test_no_floats` scans the source for float literals and
`float()` calls; a bare `/` between two int coordinates is a float that
only shows when it runs.  The int path is also checked against the
Fraction computations it replaced (kept in `oracles`)."""

import random
from fractions import Fraction

import pytest

import oracles
from localglobal import cubic
from localglobal.cubic import ONE, PI, Eisenstein, divide_by_pi, express, hilbert3, unit_part
from localglobal.exact import _exact_coordinate, _exact_coordinates, _exact_quotient, residue
from localglobal.selmer import SelmerPoint
from localglobal.symbols import InvariantValue
from localglobal.tower import EPS, CurvePolynomial, KElement, descent_value_at, evaluate_F_symbolic, norm_K_over_k, sigma

DENOMINATORS = (3, 9, 27, 81, 5, 25, 125, 15, 675)
BOUND = 10**6


def is_exact(v) -> bool:
    return type(v) is int or (type(v) is Fraction and v.denominator != 1)


def assert_exact(x):
    coeffs = x.coeffs if hasattr(x, "coeffs") else x
    assert all(map(is_exact, coeffs)), (x, [type(v).__name__ for v in coeffs])


def grid_coordinate(rng):
    """A large int, a small int, or a Fraction over a power of 3 or 5 (now
    and then an integral one, which the constructors must turn into an int)."""
    kind = rng.randrange(4)
    if kind == 0:
        return rng.randint(-BOUND, BOUND)
    if kind == 1:
        return rng.randint(-3, 3)
    den = rng.choice(DENOMINATORS)
    return Fraction(rng.randint(-BOUND, BOUND) * rng.choice((1, den)), den)


def grid_eisenstein(rng, nonzero=False):
    while True:
        x = Eisenstein(grid_coordinate(rng), grid_coordinate(rng))
        if not (nonzero and x.is_zero):
            return x


def grid_k_element(rng):
    return KElement(grid_eisenstein(rng, nonzero=True), grid_eisenstein(rng), grid_eisenstein(rng))


def as_fractions(x) -> tuple:
    return tuple(Fraction(v) for v in x.coeffs)


# ------------------------------------------------------------------ helpers
def test_exact_coordinate_and_quotient():
    for value, want in ((7, 7), (True, 1), (Fraction(12, 4), 3), (Fraction(-6, 4), Fraction(-3, 2))):
        got = _exact_coordinate(value)
        assert (type(got), got) == (type(want), want), value
    # a float is refused, in the helper and in the constructors that use
    # it: 0.1 would stand in for its binary value, not for 1/10
    for build in (lambda: _exact_coordinate(0.5), lambda: Eisenstein(0.5, 0.1),
                  lambda: SelmerPoint(0, 0.5, -2)):
        with pytest.raises(TypeError, match="a float is not an exact coordinate"):
            build()
    assert _exact_coordinates((1, -2, 0)) == (1, -2, 0)
    assert [type(v) for v in _exact_coordinates((Fraction(4, 2), Fraction(1, 3), 5))] == [int, Fraction, int]
    for n, d, want in (
        (12, 3, 4), (-12, 3, -4), (12, -3, -4), (0, 7, 0), (7, 3, Fraction(7, 3)), (-7, -3, Fraction(7, 3)),
        (Fraction(9, 5), 3, Fraction(3, 5)), (Fraction(9, 5), Fraction(9, 10), 2), (6, Fraction(3, 2), 4),
        (Fraction(1, 3), Fraction(1, 3), 1), (10**30 + 1, 3, Fraction(10**30 + 1, 3)),
    ):
        got = _exact_quotient(n, d)
        assert (type(got), got) == (type(want), want), (n, d)
    for n in (1, Fraction(1, 3)):
        with pytest.raises(ZeroDivisionError):
            _exact_quotient(n, 0)


# -------------------------------------------------------- runtime type guard
@pytest.mark.parametrize("seed", range(4))
def test_every_eisenstein_coordinate_is_an_int_or_a_proper_fraction(seed):
    rng = random.Random(seed)
    coefficients = evaluate_F_symbolic()
    for _ in range(60):
        x, y = grid_eisenstein(rng, nonzero=True), grid_eisenstein(rng, nonzero=True)
        n, q = rng.randint(-BOUND, BOUND) or 1, Fraction(rng.randint(1, BOUND), rng.choice(DENOMINATORS))
        target = Eisenstein(rng.randint(-9, 9), rng.randint(-9, 9))
        results = [
            x, x + y, x - y, x * y, x / y, x.inverse(), x.conjugate(),
            x + n, n - x, x * q, q * x, x / n, x / q, x - q,
            x + (target - x), (x / y) * y, x * x.inverse(),
            divide_by_pi(x), unit_part(x)[1], descent_value_at(q, coefficients), descent_value_at(n, coefficients),
        ]
        results += [x**-k for k in (1, 2, 3)]
        for r in results:
            assert_exact(r)
        assert x + (target - x) == target and (x / y) * y == x and x * x.inverse() == ONE
        assert is_exact(x.norm()) and x**-2 * (x * x) == ONE
        assert all(type(e) is int and 0 <= e < 3 for e in express(x)), x
        value = hilbert3(x, y).value
        assert type(value) is Fraction and value.denominator in (1, 3), (x, y)


@pytest.mark.parametrize("seed", range(4))
def test_every_k_element_coordinate_is_an_int_or_a_proper_fraction(seed):
    rng = random.Random(100 + seed)
    X = CurvePolynomial.variable("X")
    for _ in range(20):
        x, y = grid_k_element(rng), grid_k_element(rng)
        n, q = rng.randint(-BOUND, BOUND), Fraction(rng.randint(1, BOUND), rng.choice(DENOMINATORS))
        results = [x, x + y, x - y, x * y, sigma(x), x + n, x * q, q - x, x.c0, x.c1, x.c2]
        results += [(x * y).c2, norm_K_over_k(x), x.norm(), x + (KElement.of(n) - x)]
        results += [x.inverse(), x**-1, x**-2, x * x.inverse()]
        for r in results:
            assert_exact(r)
        assert x * x.inverse() == KElement.of(1) == x**-2 * (x * x), x
        reduced = (X * X * X * x + y).reduce()  # X^3 -> (-4 Y^3 - 5 Z^3) / 3
        for coeff in reduced.terms.values():
            assert_exact(coeff)


def test_negative_powers_of_both_rings():
    assert EPS**-1 == EPS**2 * Fraction(1, 6)
    assert EPS**-3 == KElement.of(Fraction(1, 6))
    assert PI**-1 * PI == ONE
    for zero in (Eisenstein(0, 0), KElement(0, 0, 0)):
        with pytest.raises(ZeroDivisionError, match="^inverse of zero$"):
            zero**-1


# ------------------------------------------------- the int path vs oracles
def oracle_pairing(xa, xb) -> InvariantValue:
    matrix = oracles.pairing_matrix_from_norms()
    return InvariantValue.thirds(sum(xa[i] * matrix[i][j] * xb[j] for i in range(4) for j in range(4)))


@pytest.mark.parametrize("seed", range(3))
def test_the_int_path_matches_the_oracles_on_the_grid(seed):
    rng = random.Random(200 + seed)
    for _ in range(40):
        x, y = grid_eisenstein(rng, nonzero=True), grid_eisenstein(rng, nonzero=True)
        assert (x * y).coeffs == oracles.eisenstein_mul(as_fractions(x), as_fractions(y)), (x, y)
        v, u = unit_part(x)
        assert (v, u) == oracles.unit_part(x), x
        assert express(x) == oracles.express(x), x
        # the pi-digits of the unit part write it modulo pi^5, and its
        # coordinates mod 27 have the same digits: the table's key
        digits = oracles.pi_digits(u, 5)
        approx = sum((d * PI**i for i, d in enumerate(digits)), Eisenstein.of(0))
        assert (u - approx).is_zero or cubic.pi_valuation(u - approx) >= 5, u
        assert oracles.pi_digits(Eisenstein(residue(u.a, 27), residue(u.b, 27)), 5) == digits, u
    for _ in range(15):
        x = grid_k_element(rng)
        norm, oracle = norm_K_over_k(x), oracles.norm_K_over_k(x)
        assert norm == oracle, x
        assert [type(c) for c in norm.coeffs] == [int if c.denominator == 1 else Fraction for c in oracle.coeffs]


def test_hilbert3_is_skew_and_matches_the_oracle_on_small_integers():
    classes = {a: oracles.express(a) for a in range(-30, 31) if a}
    for a, xa in classes.items():
        for b, xb in classes.items():
            ab, ba = hilbert3(a, b), hilbert3(b, a)
            assert (ab + ba).is_zero, (a, b)
            assert ab == oracle_pairing(xa, xb), (a, b)
