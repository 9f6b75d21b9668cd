"""Tests for the isotrivial family of everywhere-locally-solvable,
globally empty quartics and its quartic-residue parity obstruction."""

import dataclasses
import json
import random
from fractions import Fraction
from functools import lru_cache

import oracles
import pytest

from localglobal import cli, elkies
from localglobal.elkies import (
    ElkiesFibre,
    NoRepresentation,
    family_scan,
    fibre,
    gauss_criterion_check,
    local_solvability_report,
    norm_identity_check,
    obstruction_parity,
    quartic_rep,
    rationals_of_height,
    smooth_residue_point,
)
from localglobal.exact import factorize, primes_up_to, quartic_residue_symbol
from localglobal.symbols import InvariantValue


class TestFibre:
    def test_fibre_at_infinity_is_the_original_curve(self):
        f = fibre(None)
        assert f.N == 17 and f.N0 == 17 and (f.A, f.B) == (1, 1)
        assert fibre("infinity") == f

    def test_fibre_at_zero(self):
        f = fibre(0)
        assert f.N == 97 and f.N0 == 97 and (f.A, f.B) == (3, 1)

    def test_fibre_at_one(self):
        f = fibre(1)
        assert f.N == Fraction(1921, 81)
        assert f.N0 == 1921 and (f.A, f.B) == (5, 3)
        assert 5**4 + 16 * 3**4 == 1921

    def test_fibre_invariants_on_sample(self):
        for t in (Fraction(-3, 7), Fraction(2, 5), 4, Fraction(-1)):
            f = fibre(t)
            assert f.N0 % 16 == 1
            assert f.A % 2 == 1 and f.B % 2 == 1
            assert f.N0 == f.A**4 + 16 * f.B**4
            # N and N0 differ by a rational fourth power
            ratio = Fraction(f.N) / f.N0
            num, den = ratio.numerator, ratio.denominator
            assert round(num ** 0.25) ** 4 == num
            assert round(den ** 0.25) ** 4 == den

    def test_height_enumeration(self):
        values = rationals_of_height(10)
        assert values[0] is None
        assert len(values) == 128  # 127 rationals plus the fibre at infinity
        assert len(set(values[1:])) == 127
        assert all(
            max(abs(q.numerator), q.denominator) <= 10 for q in values[1:]
        )

    def test_height_one(self):
        assert rationals_of_height(1) == [None, Fraction(-1), Fraction(0), Fraction(1)]

    def test_fibre_carries_the_factorization_of_n0(self):
        for t in (None, 0, 1, Fraction(1, 3), Fraction(-7, 5)):
            f = fibre(t)
            assert f.factorization == factorize(f.N0)
        assert fibre(1).factorization.as_dict() == {17: 1, 113: 1}

    def test_reports_do_not_factor_n0_again(self, monkeypatch):
        f = fibre(Fraction(2, 3))
        expected = (local_solvability_report(f, 12, 50), obstruction_parity(f))

        def no_factoring(n):
            raise AssertionError(f"factorize({n}) called again")

        monkeypatch.setattr(elkies, "factorize", no_factoring)
        assert (local_solvability_report(f, 12, 50), obstruction_parity(f)) == expected


class TestFibreSearchBound:
    def test_matches_the_float_form_on_small_values(self):
        for n0 in list(range(1, 5000, 16)) + [1921, 17 * 113 * 16**3 + 1, 10**12 + 1]:
            assert elkies._b_bound(n0) == int((n0 / 16) ** 0.25) + 2, n0

    def test_huge_n0_needs_no_float(self, monkeypatch):
        a, b = 2**280 + 1, 3
        n0 = a**4 + 16 * b**4
        assert n0 > 2**1100
        with pytest.raises(OverflowError):
            n0 / 16  # the float form could not even start
        assert elkies._b_bound(n0) == 2**279 + 2  # floor((n0 / 16)^(1/4)) = (a - 1) / 2
        monkeypatch.setattr(elkies, "quartic_free_part", lambda q: (n0, Fraction(1)))
        fib = fibre(0)
        assert (fib.N0, fib.A, fib.B) == (n0, a, b)


class TestQuarticRep:
    def test_frozen_examples(self):
        r17 = quartic_rep(17)
        assert (r17.a, r17.b) == (1, 1) and not r17.b_even
        assert quartic_residue_symbol(2, 17).label == "-1"
        r113 = quartic_rep(113)
        assert (r113.a, r113.b) == (7, 2) and r113.b_even
        assert quartic_residue_symbol(2, 113).label == "+1"
        r97 = quartic_rep(97)
        assert (r97.a, r97.b) == (9, 1) and not r97.b_even
        assert quartic_residue_symbol(2, 97).label == "-1"

    def test_rejects_wrong_residue_class(self):
        with pytest.raises(ValueError):
            quartic_rep(13)  # 13 = 5 mod 8
        with pytest.raises(ValueError):
            quartic_rep(15)  # not prime

    def test_gauss_criterion_below_1e5(self):
        checked = 0
        for p in primes_up_to(100_000):
            if p % 8 == 1:
                assert gauss_criterion_check(p), p
                checked += 1
        assert checked == 2384

    def test_norm_identity_frozen(self):
        assert norm_identity_check(1, 1, 7, 2)
        assert (1 * 7 - 16 * 1 * 2) ** 2 + 16 * (1 * 2 + 1 * 7) ** 2 == 17 * 113

    def test_norm_identity_degenerate(self):
        assert norm_identity_check(3, 0, 5, 0)

    def test_norm_identity_random_sweep(self):
        rng = random.Random(99)
        for _ in range(1000):
            a, b, c, d = (rng.randrange(-50, 51) for _ in range(4))
            assert norm_identity_check(a, b, c, d)

    def test_parity_composes_additively(self):
        eligible = [p for p in primes_up_to(2000) if p % 8 == 1]
        rng = random.Random(7)
        for _ in range(40):
            p, q = rng.choice(eligible), rng.choice(eligible)
            rp, rq = quartic_rep(p), quartic_rep(q)
            e = rp.a * rq.a - 16 * rp.b * rq.b
            f = rp.a * rq.b + rp.b * rq.a
            assert e * e + 16 * f * f == p * q
            assert f % 2 == (rp.b + rq.b) % 2


class TestLocalSolvability:
    def test_original_fibre(self):
        rep = local_solvability_report(fibre(None))
        assert rep.real_solvable and rep.two_adic_solvable
        assert rep.odd_bad_places == ((17, True),)
        assert rep.good_places_solvable
        assert rep.everywhere_solvable

    def test_composite_fibre(self):
        rep = local_solvability_report(fibre(1))
        assert dict(rep.odd_bad_places) == {17: True, 113: True}
        assert all(p % 8 == 1 for p, _ in rep.odd_bad_places)
        assert rep.everywhere_solvable

    def test_fibre_at_zero_dyadic(self):
        rep = local_solvability_report(fibre(0))
        assert rep.two_adic_solvable  # 97 = 1 mod 16 is a 4th power in Q_2
        assert rep.everywhere_solvable


@lru_cache(maxsize=None)
def fibres_of_height_ten():
    return tuple(fibre(t) for t in rationals_of_height(10))


def _is_smooth_zero(n0, q, point):
    y, z = point
    return (2 * y * y - z**4 + n0) % q == 0 and (4 * y % q or 4 * z**3 % q)


class TestGoodPlaces:
    """`smooth_residue_point` against the `local_point` sweep it replaced."""

    def test_every_residue_of_n0_has_a_smooth_zero(self):
        for q in primes_up_to(200)[1:]:
            for n0 in range(1, q):
                point = smooth_residue_point(n0, q)
                assert point is not None and _is_smooth_zero(n0, q, point), (q, n0)

    def test_a_zero_with_y_zero_certifies_5_at_t_1(self):
        # N0 = 1921 = 1 mod 5: for y != 0, 1921 + 2y^2 is 3 or 4 mod 5, and
        # neither is a fourth power; y = 0 leaves z^4 = 1 with z = 1
        assert smooth_residue_point(fibre(1).N0, 5) == (0, 1)

    def test_certificate_agrees_with_the_sweep_below_200(self):
        pairs = 0
        for fib in fibres_of_height_ten():
            for q, found in oracles.good_place_sweep(fib.N0, 12, 200):
                assert (smooth_residue_point(fib.N0, q) is not None) == found, (fib.t, q)
                pairs += 1
        assert pairs == 5716

    def test_report_equals_the_sweep_report(self):
        for fib in fibres_of_height_ten():
            report = local_solvability_report(fib, 12, 50)
            sweep = oracles.good_place_sweep(fib.N0, 12, 50)
            assert report == dataclasses.replace(
                report,
                good_places_checked=tuple(q for q, _ in sweep),
                good_places_solvable=all(found for _, found in sweep),
            ), fib.t

    def test_a_missing_certificate_is_no_local_point(self, monkeypatch, capsys):
        certify = elkies.smooth_residue_point
        monkeypatch.setattr(
            elkies, "smooth_residue_point",
            lambda n0, q: None if q == 7 else certify(n0, q),
        )
        report = local_solvability_report(fibre(None))
        assert 7 in report.good_places_checked and not report.good_places_solvable
        assert report.real_solvable and report.two_adic_solvable
        assert not report.everywhere_solvable
        assert cli.main(["elkies", "verify", "--t", "infinity"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["status"] == "no_local_point"
        assert out["result"]["everywhere_locally_solvable"] is False


class TestObstructionParity:
    def test_frozen_counts(self):
        for t, n0, primes in ((None, 17, (17,)), (0, 97, (97,)), (1, 1921, (17,))):
            par = obstruction_parity(fibre(t))
            assert par.fib.N0 == n0
            assert par.contributing_primes == primes
            assert par.count == 1
            assert par.invariant == InvariantValue.half()
            assert par.verdict == "obstructed"

    def test_113_drops_out(self):
        par = obstruction_parity(fibre(1))
        assert 113 not in par.contributing_primes


class TestFamilyScan:
    def test_three_fibres(self):
        scan = family_scan([None, 0, 1])
        assert scan.fibre_count == 3
        assert scan.all_obstructed
        assert scan.all_locally_solvable

    def test_empty(self):
        scan = family_scan([])
        assert scan.fibre_count == 0
        assert scan.all_obstructed and scan.all_locally_solvable

    def test_full_height_ten_scan(self):
        scan = family_scan(rationals_of_height(10), good_prime_bound=20)
        assert scan.fibre_count == 128
        assert scan.all_obstructed
        assert scan.all_locally_solvable
        for _, par, _ in scan.entries:
            assert par.count % 2 == 1  # the parity theorem, fibre by fibre
