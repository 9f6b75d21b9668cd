"""Tests for the diagonal-cubic descent: Weierstrass maps, the 3-isogeny,
and the F_3 linear algebra showing a surviving adelic class."""

from fractions import Fraction

import pytest

import oracles
from localglobal import selmer
from localglobal.cubic import Eisenstein, PI, cube_class_group, pi_valuation
from localglobal.exact import CertificateError
from localglobal.padic import hensel_root
from localglobal.selmer import (
    Q3,
    SelmerPoint,
    WeierstrassPoint,
    cubic_points_mod_p,
    cubic_to_weierstrass,
    evaluate_F_local,
    isogeny_identity_check,
    isogeny_map,
    isogeny_preimage_Q3,
    isogeny_sweep,
    random_E_points_Q3,
    random_curve_points_mod_p,
    section_point,
    survival_analysis,
)
from localglobal.tower import descent_value_at, evaluate_F_symbolic


class TestPointTypes:
    def test_rejects_off_curve(self):
        with pytest.raises(ValueError):
            WeierstrassPoint("E", 1, 1)
        with pytest.raises(ValueError):
            WeierstrassPoint("X", 0, 30)
        with pytest.raises(ValueError):
            SelmerPoint(1, 1, 1)

    def test_rejects_zero_point(self):
        with pytest.raises(ValueError):
            SelmerPoint(0, 0, 0, (1, 1, 60))

    def test_on_curve_examples(self):
        WeierstrassPoint("Eprime", 0, 30)
        WeierstrassPoint("Eprime", 0, -30)
        SelmerPoint(1, -1, 0, (1, 1, 60))

    def test_fp_arithmetic(self):
        # over F_p the coordinates are ints reduced to [0, p), a Fraction
        # by the inverse of its denominator, and p divides the equation
        pt = WeierstrassPoint("Eprime", 14, Fraction(21, 2), field=11)
        assert (pt.a, pt.b, pt.field) == (3, 21 * pow(2, -1, 11) % 11, 11) == (3, 5, 11)
        assert WeierstrassPoint("Eprime", 3, 5, field=11) == pt
        with pytest.raises(ValueError):
            WeierstrassPoint("Eprime", 1, 0, field=11)  # 1 + 900 = 10 mod 11
        with pytest.raises(ValueError):
            WeierstrassPoint("Eprime", Fraction(1, 11), 0, field=11)  # no residue mod 11
        with pytest.raises(ValueError):
            WeierstrassPoint("Eprime", 0, 30, field="Q5")

    def test_rational_coordinates_are_ints_where_integral(self):
        pt = WeierstrassPoint("Eprime", Fraction(0), Fraction(60, 2))
        assert (type(pt.a), type(pt.b), pt.field) == (int, int, None)
        coords = [c for pt in random_E_points_Q3(20, seed=1) for c in (pt.a, pt.b)]
        assert {type(c) for c in coords} == {int, Fraction}
        assert all(type(c) is int or c.denominator > 1 for c in coords)


class TestCubicToWeierstrass:
    def test_origin_goes_to_infinity(self):
        assert cubic_to_weierstrass(SelmerPoint(1, -1, 0, (1, 1, 60))).infinity

    def test_mod7_example(self):
        image = cubic_to_weierstrass(SelmerPoint(1, 3, 0, (1, 1, 60), field=7))
        assert (image.a, image.b, image.field) == (0, 5, 7)
        assert (5 * 5 - (0 - 24300)) % 7 == 0

    def test_all_mod13_points_land_on_E(self):
        points = cubic_points_mod_p(13)
        assert len(points) == 9  # within the Hasse bound around 13 + 1
        assert abs(len(points) - 14) <= int(2 * 13**0.5)
        images = [cubic_to_weierstrass(q) for q in points]
        assert sum(1 for w in images if w.infinity) >= 1
        # WeierstrassPoint validated each affine image on construction
        assert all(w.infinity or w.field == 13 and 0 <= w.a < 13 for w in images)

    def test_requires_the_norm_side_cubic(self):
        with pytest.raises(ValueError):
            cubic_to_weierstrass(section_point())


class TestIsogeny:
    def test_mod11_example(self):
        image = isogeny_map(WeierstrassPoint("Eprime", 3, 5, field=11))
        assert (image.a, image.b, image.field) == (7, 10, 11)
        assert (10 * 10 - (7**3 - 24300)) % 11 == 0

    def test_kernel_to_infinity(self):
        assert isogeny_map(WeierstrassPoint("Eprime", 0, 30)).infinity
        assert isogeny_map(WeierstrassPoint("Eprime", 0, -30)).infinity
        assert isogeny_map(WeierstrassPoint.at_infinity("Eprime")).infinity

    def test_wrong_source_curve(self):
        with pytest.raises(ValueError):
            isogeny_map(WeierstrassPoint.at_infinity("E"))

    def test_substitution_identity(self):
        assert isogeny_identity_check()

    def test_sweep_of_600_points_over_six_primes(self):
        assert isogeny_sweep(per_prime=100, seed=3) == 600

    def test_finite_field_points_validated(self):
        pts = random_curve_points_mod_p("E", 13, 20, seed=1)
        assert len(pts) == 20
        with pytest.raises(ValueError):
            random_curve_points_mod_p("E", 5, 1)


class TestIsogenyPreimage:
    def test_unit_coordinate_example(self):
        b, _ = hensel_root([24300 - 1, 0, 1], 1, 3, 20)
        pre = isogeny_preimage_Q3(WeierstrassPoint("E", 1, b, field=Q3))
        assert (pre.curve, pre.field) == ("Eprime", Q3)
        assert type(pre.a) is int and pre.a % 9 == 1  # T = 1 mod 9 and u = T a = T

    def test_scaled_coordinate_example(self):
        a = Fraction(4, 9)  # valuation -2 from scaling
        b, _ = hensel_root([24300 * 3**6 - 4**3, 0, 1], 1, 3, 24)
        pre = isogeny_preimage_Q3(WeierstrassPoint("E", a, Fraction(b, 27), field=Q3))
        assert selmer._v3(pre.a) == -2

    def test_round_trip_on_50_random_points(self):
        # b comes back exactly and a to v_3(a) + 20 digits, the digits of T
        for pt in random_E_points_Q3(50, seed=11):
            pre = isogeny_preimage_Q3(pt)
            back = isogeny_map(pre)
            assert back.field == pre.field == Q3
            assert back.b == pt.b and selmer._v3(back.a - pt.a) >= selmer._v3(pt.a) + 20

    def test_infinity_and_wrong_curve(self):
        assert isogeny_preimage_Q3(WeierstrassPoint.at_infinity("E")).infinity
        with pytest.raises(ValueError):
            isogeny_preimage_Q3(WeierstrassPoint.at_infinity("Eprime"))

    def test_sampler_is_deterministic(self):
        assert random_E_points_Q3(5, seed=4) == random_E_points_Q3(5, seed=4)

    def test_a_drifting_round_trip_is_a_certificate_error(self, monkeypatch):
        # T cut to 19 digits while 20 are claimed: back.a - a keeps
        # v_3(a) + 19, which the round-trip check refuses
        root = selmer.hensel_root
        b, _ = root([24300 - 1, 0, 1], 1, 3, 20)
        monkeypatch.setattr(selmer, "hensel_root", lambda *args: (root(*args)[0] % 3**19, 20))
        with pytest.raises(CertificateError, match="round trip drifted"):
            isogeny_preimage_Q3(WeierstrassPoint("E", 1, b, field=Q3))


def refuses_a_unit_residual():
    # b^2 - a^3 + 24300 = 24299 is a unit at (1, 0), and dF/db = 2b = 0:
    # only dF/da = -3 is left, and v_3(F) = 0 is not > 2 v_3(-3) = 2
    with pytest.raises(ValueError, match="not on E over Q3"):
        WeierstrassPoint("E", 1, 0, field=Q3)


def refuses_a_point_with_the_wrong_valuations():
    # v_3(a) = -4 forces v_3(b) = -6 on E; at (3^-4, 3^-5), v_3(F) = -12
    # beats 2 v_3(dF/da) = -14 only before the coordinates are made
    # integral: scaled by 3^8 and 3^12, v(F) = 0 is not > 2 min(1, 1)
    with pytest.raises(ValueError, match="not on E over Q3"):
        WeierstrassPoint("E", Fraction(1, 3**4), Fraction(1, 3**5), field=Q3)


class TestQ3Points:
    def test_refuses_a_unit_residual(self):
        refuses_a_unit_residual()

    def test_refuses_a_point_with_the_wrong_valuations(self):
        refuses_a_point_with_the_wrong_valuations()

    def test_every_built_point_satisfies_the_hensel_inequality(self):
        points = random_E_points_Q3(50, seed=9)
        points += [isogeny_preimage_Q3(pt) for pt in points]
        for pt in points:
            a, b = pt.a, pt.b
            k = max(0, -(selmer._v3(a) // 2), -(selmer._v3(b) // 3))
            value = 3 ** (6 * k) * (b * b - a**3 - selmer.CURVE_SHIFT[pt.curve])
            least = min(selmer._v3(2 * b) + 3 * k, selmer._v3(3 * a * a) + 4 * k)
            assert pt.field == Q3 and k in (0, 1) and selmer._v3(value) > 2 * least
        delta = section_point().y
        assert selmer._v3(4 * delta**3 - 40) > 2 * selmer._v3(12 * delta**2) == 2

    @pytest.mark.parametrize("mutant, test", [
        (lambda on_curve: lambda *args: args[-1] == Q3 or on_curve(*args),
         refuses_a_unit_residual),
        (lambda on_curve: lambda value, coords, *rest: on_curve(value, (), *rest),
         refuses_a_point_with_the_wrong_valuations),
    ], ids=["no_inequality", "no_scaling"])
    def test_a_weaker_hensel_rule_fails_a_test(self, monkeypatch, mutant, test):
        monkeypatch.setattr(selmer, "_on_curve", mutant(selmer._on_curve))
        with pytest.raises(pytest.fail.Exception):
            test()


class TestDescentClass:
    def test_section_point_is_on_the_cubic(self):
        pt = section_point()
        assert pt.form == (3, 4, 5)
        assert pt.field == Q3 and pt.y**3 % 3**20 == 10

    def test_descent_value_valuation(self):
        delta, digits = hensel_root([-10, 0, 0, 1], 4, 3, 18)
        assert digits == 17
        value = descent_value_at(Fraction(delta % 3**12))
        assert pi_valuation(value) == 7

    def test_class_matches_the_expected_unit_times_pi(self):
        group = cube_class_group()
        expected = group.express(PI * (Eisenstein.of(1) + PI * PI))
        assert evaluate_F_local() == expected == (1, 0, 1, 0)

    def test_class_is_precision_stable(self):
        # the rule proves the class of F(delta mod 3^k) that of F(delta)
        # from k = 4 on (v_pi(F) = 7, m = 4); every class it accepts is the
        # one the two-precision oracle finds, and the two it refuses first
        # are wrong
        group, coefficients = cube_class_group(), evaluate_F_symbolic()
        delta, digits = selmer._delta()  # the residue of the y of section_point
        assert (digits, delta) == (19, section_point().y)
        classes = {k: selmer._class_at_digits(k, delta % 3**k, coefficients, group)
                   for k in range(1, 16)}
        assert [k for k, vec in classes.items() if vec is not None] == list(range(4, 16))
        oracle = {oracles.evaluate_F_local(n) for n in (3, 10, 12, 16)}
        assert oracle == {evaluate_F_local()} == {classes[k] for k in range(4, 16)}
        wrong = [group.express(descent_value_at(Fraction(delta % 3**k), coefficients))
                 for k in (1, 2)]
        assert wrong == [(0, 2, 1, 2), (1, 0, 2, 1)]

    def test_an_unproven_class_is_a_certificate_error(self, monkeypatch):
        monkeypatch.setattr(selmer, "_class_at_digits", lambda *args: None)
        with pytest.raises(CertificateError, match="not proven by any of the 19 digits"):
            evaluate_F_local()

    def test_ten_is_a_cube_locally(self):
        assert cube_class_group().express(10) == (0, 0, 0, 0)


class TestSurvival:
    def test_frozen_report(self):
        rep = survival_analysis()
        assert rep.F_class == (1, 0, 1, 0)
        assert rep.pairing_with_2 == 1 and rep.obstruction_nontrivial
        assert rep.pairing_with_3 == 2
        assert rep.pairing_with_60 == 0 and rep.in_annihilator_60
        assert rep.ann_23_dimension == 2
        assert rep.ann_60_dimension == 3
        assert rep.witness == (0, 0, 1, 2)
        assert rep.tau_plus_dimension == rep.tau_minus_dimension == 2
        assert rep.survives

    def test_witness_properties_recomputed(self):
        group = cube_class_group()
        rep = survival_analysis()
        class2, class3, class60 = (group.express(n) for n in (2, 3, 60))
        assert group.pairing_of_vectors(class2, rep.witness) == 0
        assert group.pairing_of_vectors(class3, rep.witness) == 0
        shift = tuple((w - f) % 3 for w, f in zip(rep.witness, rep.F_class))
        # ann(60) is exactly the kernel of pairing with 60 (dimension 3)
        assert group.pairing_of_vectors(class60, shift) == 0

    def test_conjugation_invariance(self):
        group = cube_class_group()
        rep = survival_analysis()
        conj = survival_analysis(conjugate=True)
        assert conj.F_class == group.apply_tau(rep.F_class)
        assert (conj.pairing_with_2 != 0) == (rep.pairing_with_2 != 0)
        assert conj.in_annihilator_60 == rep.in_annihilator_60
        assert conj.ann_23_dimension == rep.ann_23_dimension
        assert conj.ann_60_dimension == rep.ann_60_dimension
        assert conj.survives == rep.survives

    def test_plus_eigenspace_is_spanned_by_2_and_3(self):
        group = cube_class_group()
        class2, class3 = group.express(2), group.express(3)
        assert group.apply_tau(class2) == class2
        assert group.apply_tau(class3) == class3
        assert len(group.tau_eigenspace(1)) == 2
        # independence: no scalar multiple relates them
        assert class3 not in (class2, tuple(2 * c % 3 for c in class2))

    def test_class_of_60_is_nontrivial(self):
        vec = cube_class_group().express(60)
        assert vec == (2, 2, 1, 2)
        assert vec[0] == 2  # uniformizer exponent 2, not divisible by 3
