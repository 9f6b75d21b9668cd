"""Tests for the diagonal-cubic descent: Weierstrass maps, the 3-isogeny,
and the F_3 linear algebra showing a surviving adelic class."""

from fractions import Fraction

import pytest

import oracles
from localglobal import selmer
from localglobal.cubic import Eisenstein, PI, cube_class_group, pi_valuation
from localglobal.exact import CertificateError
from localglobal.padic import PadicNumber, hensel_root, padic_root
from localglobal.selmer import (
    FpElement,
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


def fp(p, *values):
    return tuple(FpElement(p, v) for v in values)


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
        x = FpElement(7, 3)
        assert (2 * x + 1).r == 0
        assert (x / FpElement(7, 5)).r == 3 * 3 % 7
        assert (x**3).r == 27 % 7


class TestCubicToWeierstrass:
    def test_origin_goes_to_infinity(self):
        assert cubic_to_weierstrass(SelmerPoint(1, -1, 0, (1, 1, 60))).infinity

    def test_mod7_example(self):
        a, b, c = fp(7, 1, 3, 0)
        image = cubic_to_weierstrass(SelmerPoint(a, b, c, (1, 1, 60)))
        assert (image.a.r, image.b.r) == (0, 5)
        assert (5 * 5 - (0 - 24300)) % 7 == 0

    def test_all_mod13_points_land_on_E(self):
        points = cubic_points_mod_p(13)
        assert len(points) == 9  # within the Hasse bound around 13 + 1
        assert abs(len(points) - 14) <= int(2 * 13**0.5)
        images = [cubic_to_weierstrass(q) for q in points]
        assert sum(1 for w in images if w.infinity) >= 1
        # WeierstrassPoint validated each affine image on construction
        assert all(w.infinity or isinstance(w.a, FpElement) for w in images)

    def test_requires_the_norm_side_cubic(self):
        with pytest.raises(ValueError):
            cubic_to_weierstrass(section_point())


class TestIsogeny:
    def test_mod11_example(self):
        u, v = fp(11, 3, 5)
        image = isogeny_map(WeierstrassPoint("Eprime", u, v))
        assert (image.a.r, image.b.r) == (7, 10)
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
        b = padic_root(PadicNumber.from_fraction(Fraction(1 - 24300), 3, 20), 2)
        pt = WeierstrassPoint("E", PadicNumber.from_fraction(1, 3, 20), b)
        pre = isogeny_preimage_Q3(pt)
        assert pre.curve == "Eprime"
        assert pre.a.valuation() == 0
        assert pre.a.residue(2) == 1  # T = 1 mod 9 and u = T a = T

    def test_scaled_coordinate_example(self):
        a = Fraction(4, 9)  # valuation -2 from scaling
        b = padic_root(PadicNumber.from_fraction(a**3 - 24300, 3, 24), 2)
        pre = isogeny_preimage_Q3(
            WeierstrassPoint("E", PadicNumber.from_fraction(a, 3, 24), b)
        )
        assert pre.a.valuation() == -2

    def test_round_trip_on_50_random_points(self):
        for pt in random_E_points_Q3(50, precision=20, seed=11):
            pre = isogeny_preimage_Q3(pt)
            back = isogeny_map(pre)
            assert (back.a - pt.a).is_zero and (back.b - pt.b).is_zero

    def test_infinity_and_wrong_curve(self):
        assert isogeny_preimage_Q3(WeierstrassPoint.at_infinity("E")).infinity
        with pytest.raises(ValueError):
            isogeny_preimage_Q3(WeierstrassPoint.at_infinity("Eprime"))

    def test_sampler_is_deterministic(self):
        one = random_E_points_Q3(5, seed=4)
        two = random_E_points_Q3(5, seed=4)
        keys = lambda pts: [(p.a.valuation(), p.a.unit_residue(6)) for p in pts]
        assert keys(one) == keys(two)


class TestDescentClass:
    def test_section_point_is_on_the_cubic(self):
        pt = section_point()
        assert pt.form == (3, 4, 5)
        assert (pt.y * pt.y * pt.y).residue(8) == 10 % 3**8

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
        assert (digits, delta) == (19, section_point().y.residue(19))
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
