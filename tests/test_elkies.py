"""Tests for the isotrivial family of everywhere-locally-solvable,
globally empty quartics and its quartic-residue parity obstruction."""

import json
import math
import random
import time
from fractions import Fraction
from functools import lru_cache
from types import SimpleNamespace

import oracles
import pytest
from sympy.ntheory import nthroot_mod, sqrt_mod

from localglobal import cli, elkies, exact
from localglobal.elkies import (
    ElkiesFibre,
    family_scan,
    fibre,
    fibre_certificate,
    obstruction_parity,
    quartic_symbol_of_two,
    uncertified_rule,
)
from localglobal.exact import (
    CertificateError,
    factorize,
    primes_up_to,
    quartic_residue_symbol,
)
from localglobal.padic import is_nth_power_unit
from localglobal.symbols import InvariantValue

rationals_of_height = oracles.rationals_of_height


def pairs_as_rationals(height):
    """The scan's stream of `_coprime_pairs` as the rationals it encodes."""
    return [None if b == 0 else Fraction(a, b) for a, b in elkies._coprime_pairs(height)]


def verify_result(t):
    """The result block of `elkies verify` at t (a Fraction, or None)."""
    return cli._work_elkies(SimpleNamespace(command="verify", t=t), lambda name, began: None)[1]


def verify_places(fib):
    """(everywhere locally solvable, ((p, solvable), ...) for p | N0), as
    `elkies verify` reports them for the fibre."""
    result = verify_result(fib.t)
    return (result["everywhere_locally_solvable"],
            tuple((int(p), ok) for p, ok in result["odd_bad_places"].items()))


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
        # the oracle's sorted Fraction set, and the scan's stream of integer
        # pairs, shell by shell, which holds the same rationals
        for values in (rationals_of_height(10), pairs_as_rationals(10)):
            assert values[0] is None
            assert len(values) == 128  # 127 rationals plus the fibre at infinity
            assert len(set(values[1:])) == 127
            assert all(
                max(abs(q.numerator), q.denominator) <= 10 for q in values[1:]
            )
        for h in range(1, 41):
            pairs = list(elkies._coprime_pairs(h))
            assert all(b > 0 and math.gcd(a, b) == 1 for a, b in pairs[1:]), h
            shells = [max(abs(a), b) for a, b in pairs[1:]]
            assert shells == sorted(shells) and shells[-1] == h, h
            values = pairs_as_rationals(h)
            assert len(values) == len(set(values)) == len(rationals_of_height(h)), h
            assert set(values) == set(rationals_of_height(h)), h

    def test_height_one(self):
        assert rationals_of_height(1) == [None, Fraction(-1), Fraction(0), Fraction(1)]
        assert pairs_as_rationals(1) == [None, Fraction(-1), Fraction(0), Fraction(1)]

    def test_fibre_carries_the_factorization_of_n0(self):
        for t in (None, 0, 1, Fraction(1, 3), Fraction(-7, 5)):
            f = fibre(t)
            assert f.factorization == factorize(f.N0)
        assert dict(fibre(1).factorization.factors) == {17: 1, 113: 1}

    def test_reports_do_not_factor_n0_again(self, monkeypatch):
        f = fibre(Fraction(2, 3))
        expected = (fibre_certificate(*elkies._uw(2, 3)), obstruction_parity(f))

        def no_factoring(n):
            raise AssertionError(f"factorize({n}) called again")

        monkeypatch.setattr(elkies, "factorize", no_factoring)
        assert (fibre_certificate(*elkies._uw(2, 3)), obstruction_parity(f)) == expected


def _fibre_data(fib):
    return fib.N, fib.N0, fib.A, fib.B, fib.factorization


class TestClosedFormFibre:
    """`fibre` from (u, w) = (a^2 + ab + 3b^2, a^2 + ab + b^2) and B from
    the Gaussian integers against the Fraction evaluation, quartic-free
    part and B-search it replaced."""

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

    def test_a_directly_built_fibre_takes_the_factorization_of_n0(self):
        with pytest.raises(TypeError):
            ElkiesFibre(Fraction(1), Fraction(1921, 81), 1921, 5, 3)  # the fibre does not factor
        f = ElkiesFibre(Fraction(1), Fraction(1921, 81), 1921, 5, 3, factorize(1921))
        assert f.factorization == factorize(1921)
        assert f == fibre(1)

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
        # fibre(0) is handed (u, w) = (A, B) of the expected N0 and this
        # numerator's factorization in place of N0's, so that the roots of -1
        # read off (A^2, 4B^2) are roots mod the injected primes; it reduces
        # the exponents mod 4, and B comes from the Gaussian integers
        old = oracles.quartic_free_fibre(Fraction(0), Fraction(numerator))
        monkeypatch.setattr(elkies, "_uw", lambda a, b: (old.A, old.B))
        monkeypatch.setattr(elkies, "factorize", lambda n: factorize(numerator if n == old.N0 else n))
        fib = fibre(0)
        assert fib.N0 == old.N0 and (fib.A, fib.B) == (old.A, old.B)
        assert fib.factorization == old.factorization == factorize(fib.N0)
        assert fib.N0 < numerator

    @staticmethod
    def _inject(monkeypatch, numerator):
        """fibre(0) is handed (u, w) = (u, 1) with N0 | u^4 + 16, so that the
        roots of -1 read off (u^2, 4) are roots mod the injected primes, and
        this numerator's factorization in place of u^4 + 16's."""
        n0, _ = oracles.quartic_free_part(Fraction(numerator))
        u = next(u for u in range(1, n0) if (u**4 + 16) % n0 == 0)
        monkeypatch.setattr(elkies, "_uw", lambda a, b: (u, 1))
        monkeypatch.setattr(elkies, "factorize", lambda n: factorize(numerator if n == u**4 + 16 else n))
        return n0

    @pytest.mark.parametrize("numerator, error", [
        (17 * 41 * 97**4, CertificateError),  # N0 = 697 = 9 mod 16
    ])
    def test_the_fallback_fails_as_the_oracle_does(self, monkeypatch, numerator, error):
        self._inject(monkeypatch, numerator)
        with pytest.raises(error):
            fibre(0)
        with pytest.raises(error):
            oracles.quartic_free_fibre(Fraction(0), Fraction(numerator))

    def test_the_fallback_without_a_decomposition_keeps_a_and_b_null(self, monkeypatch):
        # N0 = 1649 = 17 * 97 = 1 mod 16 is not A^4 + 16B^4 with A, B odd
        # and coprime: the oracle refuses the fibre, and the library builds
        # it with A = B = None
        n0 = self._inject(monkeypatch, 17**5 * 97)
        fib = fibre(0)
        assert (fib.N0, fib.A, fib.B) == (n0, None, None) == (1649, None, None)
        assert fib.factorization == factorize(1649)
        with pytest.raises(oracles.RepresentationNotFound):
            oracles.quartic_free_fibre(Fraction(0), Fraction(17**5 * 97))

    @pytest.mark.parametrize("t", ["-167/20", "147/20", "644/423"])
    def test_no_decomposition_fails_as_the_oracle_does(self, t, capsys):
        # 17^4 divides u^4 + 16w^4 and the quartic-free N0, 1 mod 16, is not
        # A^4 + 16B^4 with A, B odd and coprime: the search for one fails in
        # the library as in the oracle, and `elkies verify` decides the fibre
        # by its certificate, which needs none, with A and B null
        assert cli.main(["elkies", "verify", f"--t={t}"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "obstructed"
        result = report["result"]
        assert result["A"] is None and result["B"] is None
        assert result["everywhere_locally_solvable"] and all(result["odd_bad_places"].values())
        assert (result["count"], result["invariant"], result["verdict"]) == (1, "1/2", "obstructed")
        t = Fraction(t)
        u, w = elkies._uw(t.numerator, t.denominator)
        assert (u**4 + 16 * w**4) % 17**4 == 0
        fib = fibre(t)
        assert (fib.A, fib.B) == (None, None)
        with pytest.raises(oracles.RepresentationNotFound):
            oracles.least_b_search(fib.N0)
        with pytest.raises(oracles.RepresentationNotFound):
            oracles.quartic_free_fibre(t, Fraction(u**4 + 16 * w**4, w**4))
        assert fibre_certificate(u, w) == (True, 2)
        assert obstruction_parity(fib).verdict == "obstructed"  # the factored parity agrees

    def test_a_smaller_b_is_found_in_the_gaussian_integers(self):
        # Euler: 59^4 + 158^4 = 133^4 + 134^4, so 635318657 is
        # 59^4 + 16*79^4 and 133^4 + 16*67^4.  The next two have two
        # decompositions as well, and the walk over Z[i] meets the larger B
        # first: the least is not the first found
        for n, reps in (
            (635318657, ((59, 79), (133, 67))),
            (86409838577, ((103, 271), (359, 257))),
            (160961094577, ((503, 279), (631, 111))),
        ):
            assert all(a**4 + 16 * b**4 == n for a, b in reps)
            least = min(reps, key=lambda r: r[1])
            a, b = reps[0]
            assert elkies._least_b(factorize(n), a * a, 4 * b * b) == least == oracles.least_b_search(n)

    def test_eulers_number_builds_one_product_per_pair(self, monkeypatch):
        # four primes: 2^3 products, each coprime pair X^2 + Y^2 = n once up
        # to order and sign; both choices at the first prime would build
        # each pair twice, 2^4 products
        built = []
        products = elkies._coprime_two_squares

        def spy(fz, X, Y):
            built.extend(products(fz, X, Y))
            return built

        monkeypatch.setattr(elkies, "_coprime_two_squares", spy)
        fz = factorize(635318657)
        assert len(fz.factors) == 4
        assert elkies._least_b(fz, 59**2, 4 * 79**2) == (133, 67)
        assert len(built) == 8
        assert len({frozenset((abs(x), abs(y))) for x, y in built}) == 8
        assert all(x * x + y * y == fz.value and math.gcd(x, y) == 1 for x, y in built)

    def test_the_smaller_b_test_agrees_with_the_search(self):
        rng = random.Random(4)
        pairs = [(59, 79), (133, 67), (1, 1)] + [
            (rng.randrange(1, 400, 2), rng.randrange(1, 400, 2)) for _ in range(300)
        ]
        for u, w in pairs:
            if math.gcd(u, w) > 1:
                continue
            n = u**4 + 16 * w**4
            assert elkies._least_b(factorize(n), u * u, 4 * w * w) == oracles.least_b_search(n), (u, w)

    def test_either_root_of_minus_one_gives_the_same_pair(self):
        # Euclid on (p, p - r) meets Euclid on (p, r) after one step, so a
        # root, its negative and the least non-residue's power give one pair
        checked = 0
        for p in primes_up_to(100_000):
            if p % 4 == 1:
                r = sqrt_mod(p - 1, p)
                assert (r * r + 1) % p == 0
                assert (
                    elkies._two_squares(p, r)
                    == elkies._two_squares(p, p - r)
                    == elkies._two_squares(p, pow(exact._least_nonresidue(p), (p - 1) // 4, p))
                ), p
                checked += 1
        assert checked == 4783

    @pytest.mark.parametrize("p, root", [(13, 4), (13, 0), (13, 13), (17, 3), (97, 96)])
    def test_a_number_that_is_not_a_root_of_minus_one_is_refused(self, p, root):
        assert (root * root + 1) % p
        with pytest.raises(CertificateError, match=f"finds no x\\^2 \\+ y\\^2 = {p}"):
            elkies._two_squares(p, root)

    def test_the_fibre_reads_its_roots_off_its_representation(self, monkeypatch, capsys):
        # no non-residue search on the verify path: each root of -1 is
        # u^2 / 4w^2 mod p, and (A, B) agrees with the search for B
        def no_search(p):
            raise AssertionError(f"a non-residue search mod {p}")

        monkeypatch.setattr(exact, "_least_nonresidue", no_search)
        ts = rationals_of_height(20)
        began = time.perf_counter()
        for t in ts:
            fib = fibre(t)
            assert (fib.A, fib.B) == oracles.least_b_search(fib.N0), t
        assert time.perf_counter() - began < 2.0
        for t in ("13/5", "98/103", "infinity"):
            assert cli.main(["elkies", "verify", f"--t={t}"]) == 0
            assert json.loads(capsys.readouterr().out)["status"] == "obstructed"


def compose(a, b, c, d):
    """(e, f) with (a^2 + 16b^2)(c^2 + 16d^2) = e^2 + 16f^2: the composition
    law of the form x^2 + 16y^2."""
    return a * c - 16 * b * d, a * d + b * c


def norm_identity_check(a, b, c, d):
    e, f = compose(a, b, c, d)
    return (a * a + 16 * b * b) * (c * c + 16 * d * d) == e * e + 16 * f * f


class TestQuarticRep:
    """Gauss's criterion on `oracles.quartic_rep`, the representation
    p = a^2 + 16b^2 by a search for b."""

    def test_frozen_examples(self):
        r17 = oracles.quartic_rep(17)
        assert (r17.a, r17.b) == (1, 1) and not r17.b_even
        assert quartic_residue_symbol(2, 17).label == "-1"
        r113 = oracles.quartic_rep(113)
        assert (r113.a, r113.b) == (7, 2) and r113.b_even
        assert quartic_residue_symbol(2, 113).label == "+1"
        r97 = oracles.quartic_rep(97)
        assert (r97.a, r97.b) == (9, 1) and not r97.b_even
        assert quartic_residue_symbol(2, 97).label == "-1"

    def test_rejects_wrong_residue_class(self):
        # neither 13 = 5 mod 8 nor 15 is a^2 + 16b^2 with b > 0
        with pytest.raises(ValueError):
            oracles.quartic_rep(13)
        with pytest.raises(ValueError):
            oracles.quartic_rep(15)

    def test_gauss_criterion_below_1e5(self):
        checked = 0
        for p in primes_up_to(100_000):
            if p % 8 == 1:
                rep = oracles.quartic_rep(p)
                assert rep.b_even == (quartic_residue_symbol(2, p).exponent == 0), p
                # `_two_squares` reads the same representation off a root of -1
                root = pow(exact._least_nonresidue(p), (p - 1) // 4, p)
                assert set(elkies._two_squares(p, root)) == {rep.a, 4 * rep.b}, p
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
            rp, rq = oracles.quartic_rep(p), oracles.quartic_rep(q)
            e, f = compose(rp.a, rp.b, rq.a, rq.b)
            assert e * e + 16 * f * f == p * q
            assert f % 2 == (rp.b + rq.b) % 2


class TestLocalSolvability:
    """The places `elkies verify` certifies, against the oracle's report,
    which searches Q_2, at its own 12 digits, and the places p | N0 below
    500 with local_point."""

    def test_original_fibre(self):
        fib = fibre(None)
        rep = oracles.local_solvability_report(fib)
        everywhere, odd = verify_places(fib)
        assert rep.real_solvable and rep.two_adic_solvable
        assert rep.odd_bad_places == ((17, True),) == odd
        assert rep.good_places_solvable
        assert rep.everywhere_solvable and everywhere

    def test_composite_fibre(self):
        everywhere, odd = verify_places(fibre(1))
        assert dict(odd) == {17: True, 113: True}
        assert all(p % 8 == 1 for p, _ in odd)
        assert everywhere and oracles.local_solvability_report(fibre(1)).everywhere_solvable

    def test_fibre_at_zero_dyadic(self):
        rep = oracles.local_solvability_report(fibre(0))
        assert rep.two_adic_solvable  # 97 = 1 mod 16 is a 4th power in Q_2
        assert rep.everywhere_solvable and verify_places(fibre(0))[0]

    def test_report_equals_the_oracle_report(self):
        # the library reads Q_2 off the rule N = 1 mod 16, with no digits
        for fib in fibres_of_height_ten():
            expected = oracles.local_solvability_report(fib, 12, 50)
            assert expected.two_adic_solvable, fib.t
            assert verify_places(fib) == (expected.everywhere_solvable, expected.odd_bad_places), fib.t


@lru_cache(maxsize=None)
def fibres_of_height_ten():
    return tuple(fibre(t) for t in rationals_of_height(10))


@lru_cache(maxsize=None)
def fibres_of_height_thirty():
    return tuple(fibre(t) for t in rationals_of_height(30))


def _is_smooth_zero(n0, q, point):
    y, z = point
    return (2 * y * y - z**4 + n0) % q == 0 and (4 * y % q or 4 * z**3 % q)


def _agrees_with_the_old_loop(n0, q):
    """The walk and the loop it replaced find a zero for the same (n0, q),
    at the same y; the walk's z is the least fourth root of the loop's z^4,
    the loop's any one of them."""
    new, old = oracles.residue_walk_point(n0, q), oracles.smooth_residue_point(n0, q)
    if new is None or old is None:
        return new == old
    u = pow(old[1], 4, q)
    least = min(nthroot_mod(u, 4, q, all_roots=True)) if u else 0
    return new[0] == old[0] and new[1] == least


def _walk_report(fib, good_prime_bound):
    """The report with R and Q_2 by their rules and every odd place up to
    `good_prime_bound` certified by the walk of `oracles.residue_walk_point`,
    as `elkies verify` did before its closed rules."""
    walk = lambda q: oracles.residue_walk_point(fib.N0, q) is not None
    return oracles.LocalSolvabilityReport(
        fib, fib.N0 > 0, is_nth_power_unit(fib.N0, 4, 2),
        tuple((p, walk(p)) for p, _ in fib.factorization.factors),
        all(walk(q) for q in primes_up_to(good_prime_bound)[1:] if fib.N0 % q),
    )


def run_verify(capsys, t="infinity"):
    """(exit code, report) of `elkies verify` at t."""
    code = cli.main(["elkies", "verify", "--t", t])
    return code, json.loads(capsys.readouterr().out)


class TestGoodPlaces:
    """The good-place rule (Hasse-Weil for q >= 7, a table for q = 3 and 5)
    against the walk it replaced, and the walk against the `local_point`
    sweep before it."""

    def test_every_residue_of_n0_has_a_smooth_zero(self):
        # the check of the rule: every odd q < 200 and every n0 prime to q
        for q in primes_up_to(200)[1:]:
            for n0 in range(1, q):
                point = oracles.residue_walk_point(n0, q)
                assert point is not None and _is_smooth_zero(n0, q, point), (q, n0)

    def test_hasse_weil_leaves_only_3_and_5_to_the_table(self):
        small = [q for q in primes_up_to(200)[1:] if (q - 1) ** 2 <= 4 * q]
        assert small == sorted(elkies._SMALL_PLACE_ZEROS) == [3, 5]
        for q in small:
            zeros = elkies._SMALL_PLACE_ZEROS[q]
            assert sorted(zeros) == list(range(1, q))
            for n0, point in zeros.items():
                assert _is_smooth_zero(n0, q, point), (q, n0)
                assert point == oracles.residue_walk_point(n0, q), (q, n0)

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
        n0 = fibre(1).N0
        assert oracles.residue_walk_point(n0, 5) == (0, 1) == elkies._SMALL_PLACE_ZEROS[5][n0 % 5]

    def test_certificate_agrees_with_the_sweep_below_200(self):
        pairs = 0
        for fib in fibres_of_height_ten():
            for q, found in oracles.good_place_sweep(fib.N0, 200):
                assert (oracles.residue_walk_point(fib.N0, q) is not None) == found, (fib.t, q)
                pairs += 1
        assert pairs == 5716

    def test_report_equals_the_sweep_report(self):
        for fib in fibres_of_height_ten():
            sweep = oracles.good_place_sweep(fib.N0, 50)
            assert elkies._small_places_solvable(fib.N0) == all(found for _, found in sweep), fib.t

    def test_report_equals_the_walk_report_to_height_30(self):
        for fib in fibres_of_height_thirty():
            everywhere, odd = verify_places(fib)
            for bound in (50, 200):
                walk = _walk_report(fib, bound)
                assert (everywhere, odd) == (walk.everywhere_solvable, walk.odd_bad_places), (fib.t, bound)
            assert everywhere, fib.t

    def test_the_table_serves_every_fibre_to_height_30(self):
        # 3 and 5 never divide N0, whose primes are 1 mod 8
        for fib in fibres_of_height_thirty():
            for q, zeros in elkies._SMALL_PLACE_ZEROS.items():
                assert _is_smooth_zero(fib.N0, q, zeros[fib.N0 % q]), (fib.t, q)

    def test_a_missing_certificate_is_no_local_point(self, monkeypatch, capsys):
        # a point whose y is no unit at p | N: (17 * 2uwc, c) at t = infinity,
        # where N = 17.  The family theorem certifies every fibre, so a
        # missing certificate is a fault: status error and exit 1, with the
        # rule that failed, not the definite verdict no_local_point
        point = elkies._bad_place_point
        monkeypatch.setattr(elkies, "_bad_place_point", lambda u, w: (17 * point(u, w)[0], point(u, w)[1]))
        assert fibre_certificate(1, 1) == (False, None)
        code, out = run_verify(capsys)
        assert code == 1 and out["status"] == "error"
        assert out["result"] == {"message": "CertificateError: no local certificate for the fibre: "
                                            "the places p | N: gcd(2uwc, N) = 17"}

    def test_the_singular_zero_is_no_certificate(self, monkeypatch):
        # (0, 0) is a zero mod every p | N, but y = 0 leaves no unit
        # derivative to lift it by, and the certificate's gcd sees it
        monkeypatch.setattr(elkies, "_bad_place_point", lambda u, w: (0, 0))
        for t in (None, Fraction(1), Fraction(13, 5)):
            with pytest.raises(CertificateError, match="gcd"):
                verify_result(t)
        assert fibre_certificate(1, 1) == (False, None)
        assert family_scan(3) == (16, 0, 0)

    def test_a_wrong_table_entry_is_no_local_point(self, monkeypatch, capsys):
        # N0 = 17 = 2 mod 3, and (0, 1) is no zero of 2y^2 = z^4 - 17 mod 3:
        # status error and exit 1, not no_local_point
        monkeypatch.setitem(elkies._SMALL_PLACE_ZEROS, 3, {1: (0, 1), 2: (0, 1)})
        assert not elkies._small_places_solvable(17)
        assert fibre_certificate(1, 1) == (False, None)
        code, out = run_verify(capsys)
        assert code == 1 and out["status"] == "error"
        assert out["result"]["message"].endswith("q = 3, 5: the table lists no zero for N = 17")


class TestBadPlaces:
    """The point (2uwc, c) at the primes p | N0, against the walk and the
    Hensel lift of a fourth root that certified them before."""

    def test_the_point_is_a_zero_at_every_bad_place_to_height_30(self):
        for fib in fibres_of_height_thirty():
            u, w = elkies.uw_of(fib.t)
            y, z = elkies._bad_place_point(u, w)
            c, n = u**2 + 4 * w**2, u**4 + 16 * w**4
            assert (y, z) == (2 * u * w * c, c)
            assert 2 * y * y - z**4 == -c * c * n, fib.t
            assert n % fib.N0 == 0 and math.gcd(y, n) == 1, fib.t
            for p, _ in fib.factorization.factors:
                assert _is_smooth_zero(fib.N0, p, (y, z)), (fib.t, p)
                walk = oracles.residue_walk_point(fib.N0, p)
                assert walk is not None and _is_smooth_zero(fib.N0, p, walk), (fib.t, p)

    def test_the_certificate_is_a_smooth_zero_off_z_0(self):
        for fib in fibres_of_height_ten():
            for p, _ in fib.factorization.factors:
                y, z = oracles.residue_walk_point(fib.N0, p)
                assert _is_smooth_zero(fib.N0, p, (y, z)) and z % p, (fib.t, p)

    def test_every_prime_1_mod_8_has_one_at_n0_0(self):
        for q in primes_up_to(3000):
            if q % 8 == 1:
                y, z = oracles.residue_walk_point(0, q)
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
            lifted = tuple(
                (p, oracles.bad_place_lift(fib.N0, p, 12)) for p, _ in fib.factorization.factors
            )
            assert verify_places(fib)[1] == lifted, fib.t
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
                assert is_nth_power_unit(2, 4, p) == (quartic_residue_symbol(2, p).exponent == 0), p

    def test_contributing_primes_match_the_oracle(self):
        for fib in fibres_of_height_ten():
            expected = tuple(p for p, e in fib.factorization.factors if oracles.contributes(p, e))
            assert obstruction_parity(fib).contributing_primes == expected, fib.t

    def test_a_prime_not_1_mod_8_is_refused(self):
        # the fibre refuses such a factorization, so no parity is read off it
        with pytest.raises(CertificateError, match="the factor 3 of N0 = 17 is not 1 mod 8"):
            ElkiesFibre(None, Fraction(17), 17, 1, 1, factorize(15))


class TestFamilyScan:
    """The scan by `fibre_certificate` against the per-fibre path it
    replaced (`oracles.family_scan`): fibre, factored N0, local report and
    parity, one record per fibre."""

    def test_three_fibres(self):
        entries = oracles.family_scan([None, 0, 1])
        assert len(entries) == 3
        for (t, par, loc), (a, b) in zip(entries, ((1, 0), (0, 1), (1, 1))):
            assert par.verdict == "obstructed" and loc.everywhere_solvable, t
            assert fibre_certificate(*elkies._uw(a, b)) == (True, 2), t

    def test_empty(self):
        # height 0 holds no rational: the scan reads the fibre at infinity only
        assert oracles.family_scan([]) == ()
        assert family_scan(0) == (1, 1, 1)

    def test_full_height_ten_scan(self):
        assert family_scan(10) == (128, 128, 128)
        entries = oracles.family_scan(rationals_of_height(10))
        assert len(entries) == 128
        for t, par, loc in entries:
            assert par.verdict == "obstructed" and loc.everywhere_solvable, t
            assert par.count % 2 == 1  # the parity theorem, fibre by fibre


def _random_primary(rng, bound):
    """A seeded primary, primitive r + si with |r|, |s| < bound."""
    while True:
        r, s = rng.randrange(-bound + 1, bound), 2 * rng.randrange(-bound // 2 + 1, bound // 2)
        if r % 2 and (r + s) % 4 == 1 and s and math.gcd(r, s) == 1:
            return r, s


class TestFibreCertificate:
    """`fibre_certificate` and `quartic_symbol_of_two` against the
    factored derivations, and on inputs from outside the family."""

    def test_matches_the_factored_path_to_height_30(self):
        entries = oracles.family_scan(rationals_of_height(30))
        assert len(entries) == 1112
        for t, par, loc in entries:
            a, b = (1, 0) if t is None else (t.numerator, t.denominator)
            u, w = elkies._uw(a, b)
            local, k = fibre_certificate(u, w)
            assert (local, k == 2) == (loc.everywhere_solvable, par.count % 2 == 1), t
            assert k == oracles.quartic_symbol_of_two(u * u, 4 * w * w), t
        assert family_scan(30) == (1112, 1112, 1112)

    def test_symbol_matches_the_factored_oracle(self):
        rng = random.Random(29)
        seen = set()
        for _ in range(600):
            r, s = _random_primary(rng, 2 * 10**5)
            k = quartic_symbol_of_two(r, s)
            assert k == oracles.quartic_symbol_of_two(r, s), (r, s)
            seen.add(k)
        assert seen == {0, 1, 2, 3}

    def test_symbol_refuses_a_pi_not_primary_and_primitive(self):
        for r, s in ((2, 1), (1, 2), (3, 0), (-1, 4), (9, 36), (5, 0)):
            with pytest.raises(ValueError, match="not primary and primitive"):
                quartic_symbol_of_two(r, s)

    def test_a_common_factor_is_not_certified(self):
        # (3, 3) and (7, 7) pass N > 0 and N = 1 mod 16, and 7 keeps 3 and 5
        # off N; only the gcd refuses them (a certificate without it would
        # read the table at N = 0 mod 3, or certify (7, 7))
        for u, w in ((3, 3), (7, 7), (5, 15)):
            assert fibre_certificate(u, w) == (False, None), (u, w)
        assert fibre_certificate(2, 1) == (False, None)  # N = 0 mod 16
        assert uncertified_rule(2, 1) == "Q_2: N = 32 is not 1 mod 16"
        assert uncertified_rule(3, 3) == "the places p | N: gcd(2uwc, N) = 81"
        assert uncertified_rule(1, 1) is None

    def test_a_certified_fibre_off_the_family_is_unobstructed(self):
        # w even: N = 1 + 16*2^4 = 257, a prime at which 2 is a fourth power
        # (257 = 1^2 + 16*4^2, b even), so k = 0 (unobstructed); the family
        # has w odd and k = 2
        assert fibre_certificate(1, 2) == (True, 0)
        assert pow(2, (257 - 1) // 4, 257) == 1
        assert oracles.quartic_symbol_of_two(1, 16) == 0
        for u, w in ((1, 1), (3, 1), (1, 4), (5, 3)):
            assert fibre_certificate(u, w) == (True, 2 if w % 2 else 0), (u, w)
            assert fibre_certificate(u, w)[1] == oracles.quartic_symbol_of_two(u * u, 4 * w * w)

    def test_a_parity_that_disagrees_with_the_certificate_is_an_error(self, monkeypatch, capsys):
        # the factored parity is a second derivation of the verdict: read
        # without its largest contributing prime it disagrees, and verify
        # reports the disagreement instead of either verdict
        parity = elkies.obstruction_parity

        def dropped(fib):
            par = parity(fib)
            kept = par.contributing_primes[:-1]
            return par._replace(contributing_primes=kept, count=len(kept), invariant=InvariantValue.zero(),
                                verdict="unobstructed")

        monkeypatch.setattr(cli, "obstruction_parity", dropped)
        code, out = run_verify(capsys, "13/5")
        assert code == 1 and out["status"] == "error"
        assert out["result"] == {"message": "CertificateError: the factored parity is unobstructed, "
                                            "the certificate obstructed"}

    def test_the_scan_factors_nothing(self, monkeypatch, capsys):
        calls = []

        def spy(n):
            calls.append(n)
            return factorize(n)

        monkeypatch.setattr(elkies, "factorize", spy)
        monkeypatch.setattr(exact, "factorize", spy)
        assert cli.main(["elkies", "scan", "--height", "30"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["status"] == "obstructed" and out["result"]["fibres"] == 1112
        assert calls == []
