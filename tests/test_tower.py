"""Tests for the cubic tower, the resolvent identities, and the descent
function evaluated at the distinguished section."""

import random
from fractions import Fraction

import pytest

from oracles import integer_gamma_search
from localglobal.cubic import Eisenstein, ZETA, express
from localglobal.tower import (
    EPS,
    GAMMA,
    CurvePolynomial,
    KElement,
    curve_identity_suite,
    descent_value_at,
    evaluate_F_symbolic,
    identity_check_primes,
    norm_K_over_k,
    sigma,
)


def random_k_element(rng: random.Random) -> KElement:
    def coord():
        return Eisenstein(
            Fraction(rng.randrange(-9, 10), rng.choice([1, 1, 2, 3])),
            Fraction(rng.randrange(-9, 10), rng.choice([1, 1, 2, 3])),
        )

    return KElement(coord(), coord(), coord())


class TestTowerArithmetic:
    def test_eps_cubed_is_six(self):
        assert EPS * EPS * EPS == KElement.of(6)

    def test_ring_axioms_on_samples(self):
        rng = random.Random(7)
        for _ in range(60):
            a, b, c = (random_k_element(rng) for _ in range(3))
            assert a * (b + c) == a * b + a * c
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)

    def test_sigma_is_a_ring_homomorphism(self):
        rng = random.Random(11)
        for _ in range(60):
            a, b = random_k_element(rng), random_k_element(rng)
            assert sigma(a + b) == sigma(a) + sigma(b)
            assert sigma(a * b) == sigma(a) * sigma(b)
        assert sigma(EPS) == KElement.of(ZETA) * EPS

    def test_sigma_has_order_three(self):
        rng = random.Random(13)
        for _ in range(30):
            a = random_k_element(rng)
            assert sigma(sigma(sigma(a))) == a

    def test_sigma_fixes_base_field(self):
        x = KElement.of(Eisenstein(Fraction(3), Fraction(-5)))
        assert sigma(x) == x


class TestNorm:
    def test_norm_of_eps_and_translates(self):
        assert norm_K_over_k(EPS) == Eisenstein.of(6)
        assert norm_K_over_k(KElement.of(1) + EPS) == Eisenstein.of(7)

    def test_norm_of_gamma(self):
        assert norm_K_over_k(GAMMA) == Eisenstein.of(-10)

    def test_norm_is_multiplicative(self):
        # norm_K_over_k itself checks the closed cubic form against the
        # determinant of multiplication on every call, so this also
        # exercises the two evaluation routes on 500 random pairs.
        rng = random.Random(2024)
        for _ in range(500):
            a, b = random_k_element(rng), random_k_element(rng)
            assert norm_K_over_k(a * b) == norm_K_over_k(a) * norm_K_over_k(b)

    def test_norm_of_rational_is_cube(self):
        assert norm_K_over_k(KElement.of(Fraction(3, 2))) == Eisenstein.of(
            Fraction(27, 8)
        )


class TestGammaSearch:
    def test_bound_zero_is_empty(self):
        assert integer_gamma_search(0) == []

    def test_bound_two_contains_the_canonical_element(self):
        found = integer_gamma_search(2)
        assert GAMMA in found
        for cand in found:
            assert norm_K_over_k(cand) == Eisenstein.of(-10)

    def test_rejects_negative_bound(self):
        with pytest.raises(ValueError):
            integer_gamma_search(-1)


class TestCurvePolynomial:
    def test_reduction_kills_the_curve_equation(self):
        X = CurvePolynomial.variable("X")
        Y = CurvePolynomial.variable("Y")
        Z = CurvePolynomial.variable("Z")
        curve = 3 * (X * X * X) + 4 * (Y * Y * Y) + 5 * (Z * Z * Z)
        assert curve.reduce().is_zero
        assert (curve * (X + 2 * Y)).reduce().is_zero

    def test_reduction_preserves_off_ideal_content(self):
        X = CurvePolynomial.variable("X")
        Y = CurvePolynomial.variable("Y")
        p = X * X * Y + CurvePolynomial.constant(5)
        assert p.reduce() == p

    def test_evaluate_matches_monomials(self):
        X = CurvePolynomial.variable("X")
        Z = CurvePolynomial.variable("Z")
        p = 2 * (X * X) * Z - CurvePolynomial.constant(7)
        assert p.evaluate(3, 0, 2) == KElement.of(2 * 9 * 2 - 7)


class TestIdentitySuite:
    def test_split_prime_scan(self):
        primes = identity_check_primes()
        assert primes == (37, 139, 163)
        for p in primes:
            assert p % 3 == 1
            assert pow(6, (p - 1) // 3, p) == 1

    def test_full_suite_passes(self):
        report = curve_identity_suite()
        assert report.norm_of_linear_form_ok
        assert report.doubling_identity_ok
        assert report.resolvent_symbolic_ok
        assert report.norm_factorization_symbolic_ok
        assert report.resolvent_points_ok
        assert report.norm_factorization_points_ok
        assert report.perturbed_gamma_fails
        assert report.all_ok
        for p in report.primes:
            assert report.points_checked[p] >= 50
            assert report.points_excluded[p] >= 0
        assert all("point" not in f for f in report.failures)


class TestDescentFunction:
    def test_exact_value_at_the_section(self):
        c0, c1, c2 = evaluate_F_symbolic()
        assert c0 == Eisenstein(Fraction(9), Fraction(-81, 5))
        assert c1 == Eisenstein(Fraction(36, 5), Fraction(9, 5))
        assert c2 == Eisenstein(Fraction(0), Fraction(-9, 5))

    def test_denominators_divide_five(self):
        for coeff in evaluate_F_symbolic():
            assert 5 % coeff.a.denominator == 0
            assert 5 % coeff.b.denominator == 0

    def test_cleared_denominator_identity(self):
        # multiplying back by delta^6 = 100 must reproduce the exact
        # numerator product of the three conjugate quadratics
        conj = [GAMMA, sigma(GAMMA), sigma(sigma(GAMMA))]
        c0, c1, c2 = evaluate_F_symbolic()
        # evaluate both sides at several rational stand-ins for delta and
        # compare after clearing 100: both are polynomials of degree <= 2
        # in delta once delta^3 is rewritten as 10, so three points pin
        # them down.
        for d in (Fraction(1), Fraction(2), Fraction(-3, 2)):
            lhs = Eisenstein.of(0)
            # product of (d^2 - g_i d + g_i g_{i+1}) with d^3 -> 10 has
            # already been reduced; recompute it independently here with
            # Fraction arithmetic on a formal d of degree < 3.
            poly = {0: KElement.of(1)}
            for i in range(3):
                g_i, g_next = conj[i], conj[(i + 1) % 3]
                factor = {0: g_i * g_next, 1: -1 * g_i, 2: KElement.of(1)}
                new: dict[int, KElement] = {}
                for e1, a in poly.items():
                    for e2, b in factor.items():
                        e = e1 + e2
                        term = a * b
                        if e >= 3:
                            e -= 3
                            term = term * KElement.of(10)
                        new[e] = new.get(e, KElement.of(0)) + term
                poly = new
            for e, coeff in poly.items():
                assert not any(coeff.coeffs[2:])
                lhs = lhs + coeff.c0 * Eisenstein.of(d**e)
            rhs = (c0 + c1 * Eisenstein.of(d) + c2 * Eisenstein.of(d * d)) * 100
            assert lhs == rhs

    def test_descent_value_class_is_stable_near_cube_root_of_ten(self):
        # 3-adically, delta is a unit congruent to 1 mod pi-power; the
        # class of the value only depends on delta to moderate precision.
        v1 = descent_value_at(Fraction(1), evaluate_F_symbolic())
        assert v1 == Eisenstein(
            Fraction(9) + Fraction(36, 5),
            Fraction(-81, 5) + Fraction(9, 5) - Fraction(9, 5),
        )
        # exactness: coordinates are Fractions, no rounding anywhere
        assert isinstance(v1.a, Fraction)
        assert express(v1)  # has a class at all
