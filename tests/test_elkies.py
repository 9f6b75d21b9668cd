"""Tests for the isotrivial family of everywhere-locally-solvable,
globally empty quartics and its quartic-residue parity obstruction."""

import json
import math
import random
import types
from fractions import Fraction
from functools import lru_cache

import oracles
import pytest
from sympy.ntheory import nthroot_mod

from localglobal import cli, elkies, exact
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
from localglobal.exact import (
    CertificateError,
    factorize,
    fourth_root,
    primes_up_to,
    quartic_residue_symbol,
)
from localglobal.padic import InsufficientPrecision, is_nth_power_unit
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

    def test_huge_n0_needs_no_float(self):
        a, b = 2**280 + 1, 3
        n0 = a**4 + 16 * b**4
        assert n0 > 2**1100
        with pytest.raises(OverflowError):
            n0 / 16  # the float form could not even start
        assert elkies._b_bound(n0) == 2**279 + 2  # floor((n0 / 16)^(1/4)) = (a - 1) / 2
        fib = elkies._searched_fibre(Fraction(0), Fraction(n0), n0)
        assert (fib.N0, fib.A, fib.B) == (n0, a, b)


def _fibre_data(fib):
    return fib.N, fib.N0, fib.A, fib.B, fib.factorization


class TestClosedFormFibre:
    """`fibre` from (u, w) = (a^2 + ab + 3b^2, a^2 + ab + b^2) against the
    Fraction evaluation, quartic-free part and B-search it replaced."""

    def test_matches_the_oracle_up_to_height_20(self):
        ts = rationals_of_height(20)
        assert len(ts) == 512
        for t in ts:
            assert _fibre_data(fibre(t)) == _fibre_data(oracles.elkies_fibre(t)), t

    def test_matches_the_oracle_on_seeded_height_60(self):
        rng = random.Random(60)
        ts = rng.sample([t for t in rationals_of_height(60) if t is not None], 200)
        assert max(max(abs(t.numerator), t.denominator) for t in ts) == 60
        for t in ts:
            assert _fibre_data(fibre(t)) == _fibre_data(oracles.elkies_fibre(t)), t

    def test_factors_once_per_fibre(self, monkeypatch, capsys):
        calls = []

        def spy(n):
            calls.append(n)
            return factorize(n)

        monkeypatch.setattr(elkies, "factorize", spy)
        monkeypatch.setattr(exact, "factorize", spy)  # inside oracles.quartic_free_part
        for t in ("infinity", "0", "1", "1/3", "-7/5", "13/21"):
            calls.clear()
            assert cli.main(["elkies", "verify", f"--t={t}"]) == 0
            assert json.loads(capsys.readouterr().out)["status"] == "obstructed"
            assert len(calls) == 1, (t, calls)
        calls.clear()
        obstruction_parity(oracles.elkies_fibre(Fraction(1, 3)))
        assert len(calls) == 3  # numerator, denominator, then N0 again

    def test_a_directly_built_fibre_stays_lazy(self):
        f = ElkiesFibre(Fraction(1), Fraction(1921, 81), 1921, 5, 3)
        assert "factorization" not in f.__dict__
        assert f.factorization == factorize(1921)
        assert "factorization" in fibre(1).__dict__

    def test_a_factorization_of_another_number_is_refused(self):
        with pytest.raises(CertificateError):
            ElkiesFibre(Fraction(0), Fraction(97), 97, 3, 1, factorize(17))

    @pytest.mark.parametrize("numerator", [
        17**5 * 113,  # N0 = 1921 = 5^4 + 16*3^4
        97 * 41**4,  # N0 = 97
        41**8 * 17 * 113**5,  # N0 = 1921 again
        17**6 * 506609 * 41**4,  # N0 = 17^2 * 506609 = 1 + 16*55^4
    ])
    def test_a_numerator_with_fourth_powers_falls_back_to_the_search(self, monkeypatch, numerator):
        # fibre(0) is handed this numerator's factorization in place of 97's
        monkeypatch.setattr(elkies, "factorize", lambda n: factorize(numerator))
        fib = fibre(0)
        old = oracles.quartic_free_fibre(Fraction(0), Fraction(numerator))
        assert (fib.N0, fib.A, fib.B) == (old.N0, old.A, old.B)
        assert fib.__dict__["factorization"] == factorize(fib.N0)
        assert fib.N0 < numerator

    @pytest.mark.parametrize("numerator, error", [
        (17**5 * 97, elkies.RepresentationNotFound),  # N0 = 1649 = 1 mod 16
        (17 * 41 * 97**4, CertificateError),  # N0 = 697 = 9 mod 16
    ])
    def test_the_fallback_fails_as_the_oracle_does(self, monkeypatch, numerator, error):
        monkeypatch.setattr(elkies, "factorize", lambda n: factorize(numerator))
        with pytest.raises(error):
            fibre(0)
        with pytest.raises(error):
            oracles.quartic_free_fibre(Fraction(0), Fraction(numerator))

    def test_a_smaller_b_is_found_in_the_gaussian_integers(self):
        # Euler: 59^4 + 158^4 = 133^4 + 134^4, so 635318657 is
        # 59^4 + 16*79^4 and 133^4 + 16*67^4
        fz = factorize(635318657)
        assert elkies._has_smaller_b(fz, 79)
        assert not elkies._has_smaller_b(fz, 67)
        fib = elkies._searched_fibre(None, Fraction(635318657), 635318657, fz)
        assert (fib.A, fib.B) == (133, 67)

    def test_the_smaller_b_test_agrees_with_the_search(self):
        rng = random.Random(4)
        pairs = [(59, 79), (133, 67), (1, 1)] + [
            (rng.randrange(1, 400, 2), rng.randrange(1, 400, 2)) for _ in range(300)
        ]
        for u, w in pairs:
            if math.gcd(u, w) > 1:
                continue
            n = u**4 + 16 * w**4
            smaller = any(
                fourth_root(n - 16 * b**4) is not None and math.gcd(n - 16 * b**4, b) == 1
                for b in range(1, w, 2)
            )
            assert elkies._has_smaller_b(factorize(n), w) == smaller, (u, w)

    def test_a_fibre_with_a_smaller_b_keeps_the_search(self, monkeypatch):
        monkeypatch.setattr(elkies, "_has_smaller_b", lambda fz, w: True)
        searched = elkies._searched_fibre
        calls = []
        monkeypatch.setattr(
            elkies, "_searched_fibre", lambda *args: calls.append(args) or searched(*args)
        )
        assert _fibre_data(fibre(Fraction(1, 3))) == _fibre_data(oracles.elkies_fibre(Fraction(1, 3)))
        assert len(calls) == 1


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

    def test_report_equals_the_oracle_report(self):
        # the oracle searches Q_2 and the places p | N0 below 500 with
        # local_point; below 5 digits both give up at Q_2
        outcomes = set()
        for fib in fibres_of_height_ten():
            for precision in range(1, 9):
                try:
                    expected = oracles.local_solvability_report(fib, precision, 50)
                except InsufficientPrecision:
                    with pytest.raises(InsufficientPrecision, match="over Q_2: .* need 5"):
                        local_solvability_report(fib, precision, 50)
                    outcomes.add(("inconclusive", precision))
                    continue
                assert local_solvability_report(fib, precision, 50) == expected, (fib.t, precision)
                outcomes.add(("report", precision))
        assert outcomes == {("inconclusive", k) for k in range(1, 5)} | {("report", k) for k in range(5, 9)}


@lru_cache(maxsize=None)
def fibres_of_height_ten():
    return tuple(fibre(t) for t in rationals_of_height(10))


def _is_smooth_zero(n0, q, point):
    y, z = point
    return (2 * y * y - z**4 + n0) % q == 0 and (4 * y % q or 4 * z**3 % q)


def _agrees_with_the_old_loop(n0, q):
    """The walk and the loop it replaced find a zero for the same (n0, q),
    at the same y; the walk's z is the least fourth root of the loop's z^4,
    the loop's any one of them."""
    new, old = smooth_residue_point(n0, q), oracles.smooth_residue_point(n0, q)
    if new is None or old is None:
        return new == old
    u = pow(old[1], 4, q)
    least = min(nthroot_mod(u, 4, q, all_roots=True)) if u else 0
    return new[0] == old[0] and new[1] == least


class TestGoodPlaces:
    """`smooth_residue_point` against the `local_point` sweep it replaced."""

    def test_every_residue_of_n0_has_a_smooth_zero(self):
        for q in primes_up_to(200)[1:]:
            for n0 in range(1, q):
                point = smooth_residue_point(n0, q)
                assert point is not None and _is_smooth_zero(n0, q, point), (q, n0)

    def test_certificate_agrees_with_the_old_loop(self):
        for q in primes_up_to(200)[1:]:
            for n0 in range(1, q):
                assert _agrees_with_the_old_loop(n0, q), (q, n0)
        for fib in fibres_of_height_ten():
            for q in primes_up_to(200)[1:]:
                if fib.N0 % q:
                    assert _agrees_with_the_old_loop(fib.N0, q), (fib.t, q)

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
            assert report == elkies.LocalSolvabilityReport(
                report.fib,
                report.real_solvable,
                report.two_adic_solvable,
                report.odd_bad_places,
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


class TestBadPlaces:
    """`smooth_residue_point` at the primes p | N0 against the Hensel lift of
    a fourth root that certified them before."""

    def test_the_certificate_is_a_smooth_zero_off_z_0(self):
        for fib in fibres_of_height_ten():
            for p, _ in fib.factorization.factors:
                y, z = smooth_residue_point(fib.N0, p)
                assert _is_smooth_zero(fib.N0, p, (y, z)) and z % p, (fib.t, p)

    def test_every_prime_1_mod_8_has_one_at_n0_0(self):
        for q in primes_up_to(3000):
            if q % 8 == 1:
                y, z = smooth_residue_point(0, q)
                assert _is_smooth_zero(0, q, (y, z)) and z, q

    def test_certificate_agrees_with_the_old_loop(self):
        for fib in fibres_of_height_ten():
            for p, _ in fib.factorization.factors:
                assert _agrees_with_the_old_loop(fib.N0, p), (fib.t, p)
        for q in primes_up_to(3000):
            if q % 8 == 1:
                assert _agrees_with_the_old_loop(0, q), q

    def test_report_equals_the_hensel_report(self):
        large = 0
        for fib in fibres_of_height_ten():
            report = local_solvability_report(fib, 12, 50)
            lifted = tuple(
                (p, oracles.bad_place_lift(fib.N0, p, 12)) for p, _ in fib.factorization.factors
            )
            assert report.odd_bad_places == lifted, fib.t
            large += sum(p >= 500 for p, _ in lifted)
        assert large > 100  # places the oracle report does not search either


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

    def test_euler_criterion_matches_the_quartic_symbol(self):
        for p in primes_up_to(20_000):
            if p % 8 == 1:
                assert is_nth_power_unit(2, 4, p) == quartic_residue_symbol(2, p).is_plus_one, p

    def test_contributing_primes_match_the_oracle(self):
        for fib in fibres_of_height_ten():
            expected = tuple(p for p, e in fib.factorization.factors if oracles.contributes(p, e))
            assert obstruction_parity(fib).contributing_primes == expected, fib.t

    def test_a_prime_not_1_mod_8_is_refused(self):
        fib = types.SimpleNamespace(N0=15, factorization=factorize(15))
        with pytest.raises(CertificateError):
            obstruction_parity(fib)


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
