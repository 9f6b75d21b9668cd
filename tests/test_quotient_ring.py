"""The ring classes against the hand-written formulas they replaced (kept
in `oracles`): the products and norms of Q(zeta_3) and of the tower
K = Q(zeta_3)(eps) with eps^3 = 6; and the generic modulus ring of
`oracles` on the delta-algebra K[delta]/(delta^3 - 10) and on radical
extensions, against the same formulas and the cofactor determinant."""

import random
from fractions import Fraction

import pytest

import oracles
from localglobal.cubic import Eisenstein
from localglobal.exact import QuotientElement
from oracles import _quotient_product, quotient_norm
from localglobal import tower
from localglobal.tower import EPS, KElement, norm_K_over_k, sigma


def random_fraction(rng):
    return Fraction(rng.randint(-30, 30), rng.choice((1, 1, 2, 3, 5, 7)))


def random_pair(rng):
    return (random_fraction(rng), random_fraction(rng))


def random_triple(rng):
    return tuple(random_pair(rng) for _ in range(3))


def eisenstein(pair):
    return Eisenstein(*pair)


def k_element(triple):
    return KElement(*(eisenstein(c) for c in triple))


def pairs(x: KElement):
    c = x.coeffs
    return (c[0:2], c[2:4], c[4:6])


def test_eisenstein_matches_the_hand_written_formulas():
    rng = random.Random(41)
    for _ in range(300):
        x, y = random_pair(rng), random_pair(rng)
        product = eisenstein(x) * eisenstein(y)
        assert product.coeffs == oracles.eisenstein_mul(x, y), (x, y)
        assert (eisenstein(x) + eisenstein(y)).coeffs == oracles.eisenstein_add(x, y)
        assert oracles.eisenstein_norm(x) == quotient_norm(x, (-1, -1)), x
        assert (eisenstein(x) ** 3).coeffs == oracles.eisenstein_mul(x, oracles.eisenstein_mul(x, x))


def test_k_element_matches_the_hand_written_formulas():
    rng = random.Random(42)
    for _ in range(60):
        x, y = random_triple(rng), random_triple(rng)
        assert pairs(k_element(x) * k_element(y)) == oracles.k_mul(x, y), (x, y)
        norm = k_element(x).norm()
        assert norm.coeffs == oracles.k_closed_norm(x), x
        assert norm_K_over_k(k_element(x)) == norm


def test_delta_algebra_matches_the_hand_written_product():
    rng = random.Random(43)
    for _ in range(5):
        x = tuple(random_triple(rng) for _ in range(3))
        y = tuple(random_triple(rng) for _ in range(3))
        generic = [[oracles.generic(k_element(t)) for t in z] for z in (x, y)]
        got = oracles.DeltaPoly(*generic[0]) * oracles.DeltaPoly(*generic[1])
        assert tuple(tuple(e.coeffs for e in c.coeffs) for c in got.coeffs) == oracles.delta_mul(x, y)


# Seeded differential tests of the flat ring classes against the generic
# modulus ring, one denominator at a time next to integral coordinates.
DENOMINATORS = (1, 2, 3, 5, 9, 27)


def seeded_pair(rng, denominator):
    return tuple(Fraction(rng.randint(-40, 40), rng.choice((1, denominator))) for _ in "ab")


@pytest.mark.parametrize("denominator", DENOMINATORS)
def test_eisenstein_matches_the_pair_formulas_and_the_generic_ring(denominator):
    rng = random.Random(200 + denominator)
    for _ in range(200):
        x, y = seeded_pair(rng, denominator), seeded_pair(rng, denominator)
        product = (eisenstein(x) * eisenstein(y)).coeffs
        assert product == oracles.eisenstein_mul(x, y), (x, y)
        assert product == (oracles.GenericEisenstein(*x) * oracles.GenericEisenstein(*y)).coeffs
        assert oracles.eisenstein_norm(x) == oracles.GenericEisenstein(*x).norm(), x


@pytest.mark.parametrize("denominator", DENOMINATORS)
def test_flat_k_element_matches_the_generic_ring(denominator):
    rng = random.Random(300 + denominator)
    for _ in range(60):
        x, y = (k_element(tuple(seeded_pair(rng, denominator) for _ in range(3))) for _ in range(2))
        gx, gy = oracles.generic(x), oracles.generic(y)
        assert (x * y).coeffs == oracles.flat(gx * gy), (x, y)
        assert sigma(x).coeffs == oracles.flat(oracles.sigma(gx)), x
        assert all((type(v) is int) == (v.denominator == 1) for v in (x * y).coeffs)
        determinant = oracles.eisenstein(gx.norm())
        d, cleared = tower._cleared(x.coeffs)
        assert all(type(v) is int for v in cleared) and cleared == tuple(d * v for v in x.coeffs), x
        closed = oracles.k_closed_norm((cleared[0:2], cleared[2:4], cleared[4:6]))
        assert tower._over(closed, d**3) == determinant, x
        assert x.norm() == determinant, x
        assert norm_K_over_k(x) == determinant == oracles.norm_K_over_k(x), x


@pytest.mark.parametrize("m, d", [(1, 5), (2, 7), (3, 2), (4, 17), (4, Fraction(-3, 4))])
def test_radical_norm_matches_the_cofactor_determinant(m, d):
    rng = random.Random(44)
    modulus = (Fraction(d),) + (0,) * (m - 1)
    for _ in range(40):
        coeffs = tuple(random_fraction(rng) for _ in range(m))
        assert quotient_norm(coeffs, modulus) == oracles.radical_norm(m, Fraction(d), coeffs), coeffs


def test_general_modulus_norm_is_multiplicative():
    # x^3 = 2 - x + 3x^2 exercises every term of the reduction
    modulus = (2, -1, 3)
    rng = random.Random(45)
    for _ in range(40):
        a = tuple(random_fraction(rng) for _ in range(3))
        b = tuple(random_fraction(rng) for _ in range(3))
        ab = _quotient_product(a, b, modulus)
        assert quotient_norm(ab, modulus) == quotient_norm(a, modulus) * quotient_norm(b, modulus)
    # the companion matrix of x has determinant (-1)^(n+1) r_0
    assert quotient_norm((0, 1, 0), modulus) == 2


def test_scalars_and_coercion():
    x = KElement(1, Eisenstein(0, 1), Fraction(1, 2))
    # flat rational coordinates, ints where integral; Eisenstein views
    assert x.coeffs == (1, 0, 0, 1, Fraction(1, 2), 0)
    assert [type(c) for c in x.coeffs] == [int, int, int, int, Fraction, int]
    assert all(type(c) is Eisenstein for c in (x.c0, x.c1, x.c2))
    assert [type(c) for e in (x.c0, x.c1, x.c2) for c in e.coeffs] == [int, int, int, int, Fraction, int]
    # ints and Fractions multiply coefficientwise and add into c0
    assert x * 2 == x + x == 2 * x
    assert Fraction(1, 3) * x == x * KElement.of(Fraction(1, 3))
    assert -x + 1 == KElement.of(1) - x and (x + 1) - KElement.of(1) == x
    assert EPS**3 == KElement.of(6) and EPS**0 == KElement.of(1)
    # one ring is no scalar of another: KElement.of embeds an Eisenstein
    assert Eisenstein(1, 1).__mul__(x) is NotImplemented and x.__mul__(Eisenstein(1, 1)) is NotImplemented
    with pytest.raises(TypeError):
        Eisenstein(0, 1) * x
    with pytest.raises(TypeError):
        x - Eisenstein(0, 1)
    with pytest.raises(TypeError):
        x + Eisenstein(0, 1)
    with pytest.raises(ValueError):
        Eisenstein(1, 2, 3)


def test_identity_and_printing():
    x = Eisenstein(Fraction(3, 2), Fraction(-1, 3))
    assert Eisenstein.of(x) is x and isinstance(x, QuotientElement)
    assert hash(x) == hash(Eisenstein(Fraction(3, 2), Fraction(-1, 3)))
    assert str(x) == "(3/2) + (-1/3)*zeta3"
    assert str(EPS) == "((0) + (0)*zeta3) + ((1) + (0)*zeta3)*eps + ((0) + (0)*zeta3)*eps^2"
