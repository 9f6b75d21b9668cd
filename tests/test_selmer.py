"""Tests for the diagonal-cubic descent: the Weierstrass maps and the
3-isogeny of the reference in `oracles`, the 3-adic point of the cubic, and
the F_3 linear algebra showing a surviving adelic class."""

import itertools
from fractions import Fraction

import pytest

import oracles
from localglobal import selmer
from localglobal.cubic import Eisenstein, PI, cube_class_group, express, pi_valuation
from localglobal.exact import CertificateError
from localglobal.padic import hensel_root
from localglobal.selmer import SelmerPoint, evaluate_F_local, section_point, survival_analysis
from localglobal.tower import descent_value_at, evaluate_F_symbolic
from oracles import (
    cubic_points_mod_p,
    cubic_to_weierstrass,
    isogeny_identity_check,
    isogeny_map,
    isogeny_preimage_Q3,
    isogeny_sweep,
    q3_point,
    random_E_points_Q3,
    random_curve_points_mod_p,
    rational_point,
    residue_point,
)


class TestPointTypes:
    def test_rejects_off_curve(self):
        with pytest.raises(ValueError):
            rational_point("E", 1, 1)
        with pytest.raises(KeyError):
            rational_point("X", 0, 30)
        with pytest.raises(ValueError):
            SelmerPoint(1, 1, 1)

    def test_rejects_zero_point(self):
        with pytest.raises(ValueError):
            cubic_to_weierstrass(0, 0, 0)
        with pytest.raises(ValueError):
            SelmerPoint(0, 0, 0)

    def test_on_curve_examples(self):
        rational_point("Eprime", 0, 30)
        rational_point("Eprime", 0, -30)
        cubic_to_weierstrass(1, -1, 0)

    def test_fp_arithmetic(self):
        # over F_p the coordinates are ints reduced to [0, p), a Fraction
        # by the inverse of its denominator, and p divides the equation
        pt = residue_point("Eprime", 14, Fraction(21, 2), 11)
        assert pt == (3, 21 * pow(2, -1, 11) % 11) == (3, 5)
        assert residue_point("Eprime", 3, 5, 11) == pt
        with pytest.raises(ValueError):
            residue_point("Eprime", 1, 0, 11)  # 1 + 900 = 10 mod 11
        with pytest.raises(ValueError):
            residue_point("Eprime", Fraction(1, 11), 0, 11)  # no residue mod 11

    def test_rational_coordinates_are_ints_where_integral(self):
        pt = rational_point("Eprime", Fraction(0), Fraction(60, 2))
        assert tuple(map(type, pt)) == (int, int)
        coords = [c for pt in random_E_points_Q3(20, seed=1) for c in pt]
        assert {type(c) for c in coords} == {int, Fraction}
        assert all(type(c) is int or c.denominator > 1 for c in coords)
        # the library's point of the cubic keeps the same rule
        delta = section_point().y
        assert tuple(map(type, SelmerPoint(Fraction(0), Fraction(2 * delta, 2), Fraction(-4, 2)))) == (int,) * 3


class TestCubicToWeierstrass:
    def test_origin_goes_to_infinity(self):
        assert cubic_to_weierstrass(1, -1, 0) is None

    def test_mod7_example(self):
        image = cubic_to_weierstrass(1, 3, 0, 7)
        assert image == (0, 5)
        assert (5 * 5 - (0 - 24300)) % 7 == 0

    def test_all_mod13_points_land_on_E(self):
        points = cubic_points_mod_p(13)
        assert len(points) == 9  # within the Hasse bound around 13 + 1
        assert abs(len(points) - 14) <= int(2 * 13**0.5)
        images = [cubic_to_weierstrass(*q, 13) for q in points]
        assert sum(1 for w in images if w is None) >= 1
        # residue_point checked each affine image on E mod 13
        assert all(w is None or 0 <= w[0] < 13 and residue_point("E", *w, 13) == w for w in images)

    def test_requires_the_norm_side_cubic(self):
        with pytest.raises(ValueError):
            cubic_to_weierstrass(*section_point())


class TestIsogeny:
    def test_mod11_example(self):
        image = isogeny_map((3, 5), 11)
        assert image == (7, 10)
        assert (10 * 10 - (7**3 - 24300)) % 11 == 0

    def test_kernel_to_infinity(self):
        assert isogeny_map((0, 30)) is None
        assert isogeny_map((0, -30)) is None
        assert isogeny_map(None) is None

    def test_wrong_source_curve(self):
        # (7, 10) is on E mod 11, and 7^3 + 900 = 0 is not 10^2 mod 11
        with pytest.raises(ValueError):
            isogeny_map((7, 10), 11)

    def test_substitution_identity(self):
        assert isogeny_identity_check()

    def test_sweep_of_600_points_over_six_primes(self):
        assert isogeny_sweep(per_prime=100, seed=3) == 600

    def test_finite_field_points_validated(self):
        pts = random_curve_points_mod_p("E", 13, 20, seed=1)
        assert len(pts) == 20 and all(residue_point("E", *pt, 13) == pt for pt in pts)
        with pytest.raises(ValueError):
            random_curve_points_mod_p("E", 5, 1)


class TestIsogenyPreimage:
    def test_unit_coordinate_example(self):
        b, _ = hensel_root([24300 - 1, 0, 1], 1, 3, 20)
        pre = isogeny_preimage_Q3((1, b))
        assert q3_point("Eprime", *pre) == pre
        assert type(pre[0]) is int and pre[0] % 9 == 1  # T = 1 mod 9 and u = T a = T

    def test_scaled_coordinate_example(self):
        a = Fraction(4, 9)  # valuation -2 from scaling
        b, _ = hensel_root([24300 * 3**6 - 4**3, 0, 1], 1, 3, 24)
        pre = isogeny_preimage_Q3((a, Fraction(b, 27)))
        assert oracles._v3(pre[0]) == -2

    def test_round_trip_on_50_random_points(self):
        # b comes back exactly and a to v_3(a) + 20 digits, the digits of T;
        # q3_point checked both ends on their curves over Q_3
        for pt in random_E_points_Q3(50, seed=11):
            pre = isogeny_preimage_Q3(pt)
            back = isogeny_map(pre)
            assert back[1] == pt[1] and oracles._v3(back[0] - pt[0]) >= oracles._v3(pt[0]) + 20

    def test_infinity_and_wrong_curve(self):
        assert isogeny_preimage_Q3(None) is None
        with pytest.raises(ValueError):
            isogeny_preimage_Q3((0, 30))  # on E', and not on E over Q_3

    def test_sampler_is_deterministic(self):
        assert random_E_points_Q3(5, seed=4) == random_E_points_Q3(5, seed=4)

    def test_a_drifting_round_trip_is_a_certificate_error(self, monkeypatch):
        # T cut to 19 digits while 20 are claimed: back.a - a keeps
        # v_3(a) + 19, which the round-trip check refuses
        root = oracles.unit_root_3adic
        b, _ = hensel_root([24300 - 1, 0, 1], 1, 3, 20)
        monkeypatch.setattr(oracles, "unit_root_3adic", lambda *args: (root(*args)[0] % 3**19, 20))
        with pytest.raises(CertificateError, match="round trip drifted"):
            isogeny_preimage_Q3((1, b))


def refuses_a_unit_residual():
    # 3x^3 + 4y^3 + 5z^3 = 4 is a unit at (0, 1, 0), and only dF/dy = 12
    # is nonzero: v_3(F) = 0 is not > 2 v_3(12) = 2
    with pytest.raises(ValueError, match="not on the cubic"):
        SelmerPoint(0, 1, 0)


def refuses_a_point_with_the_wrong_valuations():
    # at (1, 1/3, 1/3), v_3(F) = v_3(10/3) = -1 beats 2 v_3(dF/dy) = -2 only
    # before the coordinates are made integral: at (3, 1, 1), v_3(90) = 2
    # is not > 2 min(4, 1, 1)
    with pytest.raises(ValueError, match="not on the cubic"):
        SelmerPoint(1, Fraction(1, 3), Fraction(1, 3))


class TestQ3Points:
    def test_refuses_a_unit_residual(self):
        refuses_a_unit_residual()
        # on E: b^2 - a^3 + 24300 = 24299 is a unit at (1, 0), and dF/db = 0:
        # only dF/da = -3 is left, and v_3(F) = 0 is not > 2 v_3(-3) = 2
        with pytest.raises(ValueError, match="not on E over Q_3"):
            q3_point("E", 1, 0)

    def test_refuses_a_point_with_the_wrong_valuations(self):
        refuses_a_point_with_the_wrong_valuations()
        # v_3(a) = -4 forces v_3(b) = -6 on E; at (3^-4, 3^-5), v_3(F) = -12
        # beats 2 v_3(dF/da) = -14 only before the coordinates are made
        # integral: scaled by 3^8 and 3^12, v(F) = 0 is not > 2 min(1, 1)
        with pytest.raises(ValueError, match="not on E over Q_3"):
            q3_point("E", Fraction(1, 3**4), Fraction(1, 3**5))

    def test_every_built_point_satisfies_the_hensel_inequality(self):
        points = random_E_points_Q3(50, seed=9)
        curves = ["E"] * len(points) + ["Eprime"] * len(points)
        points += [isogeny_preimage_Q3(pt) for pt in points]
        for curve, (a, b) in zip(curves, points):
            k = max(0, -(oracles._v3(a) // 2), -(oracles._v3(b) // 3))
            value = 3 ** (6 * k) * (b * b - a**3 - oracles.CURVES[curve])
            least = min(oracles._v3(2 * b) + 3 * k, oracles._v3(3 * a * a) + 4 * k)
            assert k in (0, 1) and oracles._v3(value) > 2 * least
        delta = section_point().y
        assert selmer._v3(4 * delta**3 - 40) > 2 * selmer._v3(12 * delta**2) == 2

    @pytest.mark.parametrize("mutant, test", [
        (lambda on_curve: lambda *args: True, refuses_a_unit_residual),
        (lambda on_curve: lambda value, coords, partials: on_curve(value, (), partials),
         refuses_a_point_with_the_wrong_valuations),
    ], ids=["no_inequality", "no_scaling"])
    def test_a_weaker_hensel_rule_fails_a_test(self, monkeypatch, mutant, test):
        monkeypatch.setattr(selmer, "_on_curve", mutant(selmer._on_curve))
        with pytest.raises(pytest.fail.Exception):
            test()


class TestDescentClass:
    def test_section_point_is_on_the_cubic(self):
        pt = section_point()
        assert type(pt) is SelmerPoint and pt.x == 0 and pt.z == -2
        assert pt.y**3 % 3**20 == 10

    def test_descent_value_valuation(self):
        delta, digits = hensel_root([-10, 0, 0, 1], 4, 3, 18)
        assert digits == 17
        value = descent_value_at(Fraction(delta % 3**12), evaluate_F_symbolic())
        assert pi_valuation(value) == 7

    def test_class_matches_the_expected_unit_times_pi(self):
        expected = express(PI * (Eisenstein.of(1) + PI * PI))
        assert evaluate_F_local() == expected == (1, 0, 1, 0)

    def test_class_is_precision_stable(self):
        # the rule proves the class of F(delta mod 3^k) that of F(delta)
        # from k = 4 on (v_pi(F) = 7, m = 4); every class it accepts is the
        # one the two-precision oracle finds, and the two it refuses first
        # are wrong
        coefficients = evaluate_F_symbolic()
        delta, digits = selmer._delta()  # the residue of the y of section_point
        assert (digits, delta) == (19, section_point().y)
        classes = {k: selmer._class_at_digits(k, delta % 3**k, coefficients)
                   for k in range(1, 16)}
        assert [k for k, vec in classes.items() if vec is not None] == list(range(4, 16))
        oracle = {oracles.evaluate_F_local(n) for n in (3, 10, 12, 16)}
        assert oracle == {evaluate_F_local()} == {classes[k] for k in range(4, 16)}
        wrong = [express(descent_value_at(Fraction(delta % 3**k), coefficients))
                 for k in (1, 2)]
        assert wrong == [(0, 2, 1, 2), (1, 0, 2, 1)]

    def test_an_unproven_class_is_a_certificate_error(self, monkeypatch):
        monkeypatch.setattr(selmer, "_class_at_digits", lambda *args: None)
        with pytest.raises(CertificateError, match="not proven by any of the 19 digits"):
            evaluate_F_local()

    def test_ten_is_a_cube_locally(self):
        assert express(10) == (0, 0, 0, 0)


class TestSurvival:
    def test_frozen_report(self):
        rep = survival_analysis()
        assert rep.F_class == (1, 0, 1, 0)
        assert rep.pairing_with_2 == 1 and rep.pairing_with_2 != 0
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
        class2, class3, class60 = (express(n) for n in (2, 3, 60))
        assert group.pairing_of_vectors(class2, rep.witness) == 0
        assert group.pairing_of_vectors(class3, rep.witness) == 0
        shift = tuple((w - f) % 3 for w, f in zip(rep.witness, rep.F_class))
        # ann(60) is exactly the kernel of pairing with 60 (dimension 3)
        assert group.pairing_of_vectors(class60, shift) == 0

    def test_conjugation_invariance(self):
        # tau(F) keeps a nonzero pairing with 2 and stays in the annihilator
        # of 60, and tau(witness) is a witness for it: orthogonal to 2 and
        # 3, and in tau(F) + ann(60)
        group = cube_class_group()
        rep = survival_analysis()
        class2, class3, class60 = (express(n) for n in (2, 3, 60))
        tau_f, tau_witness = group.apply_tau(rep.F_class), group.apply_tau(rep.witness)
        assert (tau_f, tau_witness) == ((1, 2, 1, 1), (0, 0, 1, 2))
        assert group.pairing_of_vectors(class2, tau_f) == (-rep.pairing_with_2) % 3 != 0
        assert group.pairing_of_vectors(class60, tau_f) == 0
        assert group.pairing_of_vectors(class2, tau_witness) == 0
        assert group.pairing_of_vectors(class3, tau_witness) == 0
        shift = tuple((w - f) % 3 for w, f in zip(tau_witness, tau_f))
        assert group.pairing_of_vectors(class60, shift) == 0

    def test_tau_negates_the_pairing(self):
        # the Galois law <tau x, tau y> = -<x, y> on all 81 x 81 class pairs
        group = cube_class_group()
        classes = list(itertools.product(range(3), repeat=4))
        for x, y in itertools.product(classes, repeat=2):
            tx, ty = group.apply_tau(x), group.apply_tau(y)
            assert group.pairing_of_vectors(tx, ty) == -group.pairing_of_vectors(x, y) % 3, (x, y)

    def test_plus_eigenspace_is_spanned_by_2_and_3(self):
        group = cube_class_group()
        class2, class3 = express(2), express(3)
        assert group.apply_tau(class2) == class2
        assert group.apply_tau(class3) == class3
        assert len(group.tau_eigenspace(1)) == 2
        # independence: no scalar multiple relates them
        assert class3 not in (class2, tuple(2 * c % 3 for c in class2))

    def test_class_of_60_is_nontrivial(self):
        vec = express(60)
        assert vec == (2, 2, 1, 2)
        assert vec[0] == 2  # uniformizer exponent 2, not divisible by 3
