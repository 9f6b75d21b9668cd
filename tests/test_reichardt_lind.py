"""Tests for local points, obstruction reports, and the twist family of
the quartic curves ell*Y^2 = Z^4 - p.  The local points are those of the
lifting-tree search that `oracles` keeps; the library decides each place
by rule."""

import itertools
import json
import math
from fractions import Fraction
from functools import lru_cache

import pytest

import oracles
from localglobal import cli, cubic, elkies, exact, padic, reichardt_lind, selmer, symbols, tower
from localglobal.exact import factorize, primes_up_to, valuation
from localglobal.reichardt_lind import (
    DensityReport,
    NoPointError,
    TwistConditions,
    TwistParams,
    _conditions,
    density_experiment,
    exhaustive_search,
    forced_section_invariants,
    local_image,
    model_smoothness_check,
    twist_conditions,
)
from localglobal.symbols import REAL_PLACE, InvariantValue, Place, hilbert2
from oracles import LocalPoint, NoPoint, local_point, local_points, verify_local_point

RL = TwistParams(2, 17)
ZERO = InvariantValue.zero()
HALF = InvariantValue.half()


class TestTwistParams:
    def test_valid(self):
        assert RL.bad_finite_places == (Place(2), Place(17))
        assert TwistParams(6, 73).bad_finite_places == (
            Place(2),
            Place(3),
            Place(73),
        )

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            TwistParams(4, 17)  # not squarefree
        with pytest.raises(ValueError):
            TwistParams(2, 15)  # not prime
        with pytest.raises(ValueError):
            TwistParams(34, 17)  # not coprime
        with pytest.raises(ValueError):
            TwistParams(0, 17)


class TestLocalPoint:
    def test_point_at_p(self):
        pt = local_point(RL, 17)
        assert isinstance(pt, LocalPoint)
        assert verify_local_point(RL, pt)
        assert pt.y % 17**pt.precision

    def test_point_at_two(self):
        pt = local_point(RL, 2)
        assert isinstance(pt, LocalPoint)
        assert verify_local_point(RL, pt)
        # the dyadic points sit over z^4 = 17 mod 32, i.e. v(z) = 0,
        # and have y of even positive valuation
        assert pt.z % 2 == 1
        assert valuation(pt.y, 2) > 0 and valuation(pt.y, 2) % 2 == 0

    def test_point_at_real_place(self):
        pt = local_point(RL, "infinity")
        assert pt.chart == "real"
        assert verify_local_point(RL, pt)
        assert Fraction(pt.z) ** 4 > 17

    def test_points_at_good_places(self):
        for q in (3, 5, 7, 11, 13, 97):
            pt = local_point(RL, q)
            assert isinstance(pt, LocalPoint), f"missing point at {q}"
            assert verify_local_point(RL, pt)

    def test_no_dyadic_point_for_odd_twist_nine_mod_sixteen(self):
        tw = TwistParams(11, 41)  # 41 = 9 mod 16
        assert isinstance(local_point(tw, 2), NoPoint)

    def test_y_zero_point_only_when_allowed(self):
        # 17 = 1 mod 16 is a fourth power in Q_2: the oracle search with
        # y = 0 allowed returns the point on the z-axis, the library's
        # search, whose y the symbol (y, p) reads, one with y != 0
        pt = oracles.quadratic_local_point(RL, 2, allow_y_zero=True)
        assert isinstance(pt, LocalPoint) and pt.y.is_zero
        pt_strict = local_point(RL, 2)
        assert pt_strict.y % 2**pt_strict.precision

    def test_variants_give_distinct_points(self):
        # the first six points of the one search at 17
        seen = set()
        for pt in itertools.islice(local_points(RL, 17), 6):
            seen.add((pt.y % 17**2, pt.z % 17**2))
        assert len(seen) >= 3

    def test_local_point_is_the_first_of_the_stream(self):
        for v in (2, 17, 7, "infinity"):
            assert local_point(RL, v) == next(local_points(RL, v))
        assert list(local_points(RL, "infinity")) == [local_point(RL, "infinity")]
        assert list(local_points(TwistParams(11, 41), 2)) == []


def point_report(tw):
    """The report `rl verify` prints as its point analysis."""
    return reichardt_lind._make_report({v: local_image(tw, v) for v in tw.bad_places})


class TestPointObstruction:
    def test_reichardt_lind_total(self):
        rep = point_report(RL)
        assert rep.total == frozenset({HALF})
        assert rep.verdict == "obstructed"

    def test_contribution_at_two_vanishes(self):
        rep = point_report(RL)
        assert rep.contribution(2) == frozenset({ZERO})
        assert rep.contribution(17) == frozenset({HALF})
        assert rep.contribution(REAL_PLACE) == frozenset({ZERO})

    def test_good_place_contribution_vanishes(self):
        # the class (y, p) at a point over Q_7, a place of good reduction,
        # and the report, which reads only the bad places
        assert hilbert2(local_point(RL, 7).y, RL.p, 7) == (1, ZERO)
        rep = point_report(RL)
        assert rep.contribution(7) == frozenset({ZERO})
        assert rep.total == frozenset({HALF})

    def test_total_constant_across_twenty_adelic_points(self):
        # twenty adelic points of the sampled reading (`oracles`): each sums
        # to 1/2, as every choice from the local images does
        totals = {rep.total for rep in oracles.point_obstructions(RL, 20)}
        assert totals == {frozenset({HALF})} == {point_report(RL).total}


class TestForcedSectionInvariants:
    def test_reichardt_lind_sets(self):
        rep = forced_section_invariants(RL)
        assert rep.contribution(17) == frozenset({HALF})
        assert rep.contribution(2) == frozenset({ZERO})
        assert rep.contribution(REAL_PLACE) == frozenset({ZERO})
        assert rep.total == frozenset({HALF})
        assert rep.verdict == "obstructed"

    def test_twisted_examples_obstructed(self):
        for ell, p in ((6, 73), (11, 97), (19, 17)):
            rep = forced_section_invariants(TwistParams(ell, p))
            assert rep.verdict == "obstructed", (ell, p)

    def test_point_invariant_lies_in_forced_set(self):
        forced = forced_section_invariants(RL)
        for place, values in point_report(RL).contributions:
            assert values <= forced.contribution(place)
        # at (3, 41) the norm test admits a section class at 2, yet there
        # is no Q_2 point: condition (iv) fails
        tw = TwistParams(3, 41)
        assert forced_section_invariants(tw).contribution(2)
        with pytest.raises(NoPointError, match="no local point at 2"):
            local_image(tw, 2)

    def test_rejected_primes_have_zero_in_forced_set(self):
        # p = 1 mod 8 where ell is a fourth power mod p: the forced set
        # at p contains 0, so the sum can vanish and nothing is excluded
        for p in (73, 89):
            tw = TwistParams(2, p)
            assert not twist_conditions(tw).quartic_nonresidue
            rep = forced_section_invariants(tw)
            assert ZERO in rep.contribution(p)

    def test_forced_stage_reads_no_norm_test_symbol_or_root(self, monkeypatch):
        # every forced set is a rule on integers: no norm classification,
        # no Hilbert-symbol reader and no square root mod p, also where the
        # norm test took the biquadratic route (-p = s^2 over Q_q: q = 2 for
        # p = 31, q = 3 and 7 for p = 5) or the tame one (17)
        calls = []
        for module in (exact, symbols, reichardt_lind, oracles):
            for name in ("norm_test", "hilbert2_reader", "_sqrt_mod_odd_prime"):
                if hasattr(module, name):
                    real = getattr(module, name)
                    monkeypatch.setattr(module, name, lambda *a, name=name, real=real:
                                        calls.append(name) or real(*a))
        for (ell, p), verdict in (((2, 31), "unobstructed"), ((3, 5), "obstructed"),
                                  ((7, 5), "obstructed"), ((2, 17), "obstructed")):
            assert forced_section_invariants(TwistParams(ell, p)).verdict == verdict, (ell, p)
        assert calls == []
        local_image(TwistParams(2, 31), 31)  # the spies are live: the point check reads both
        assert sorted(set(calls)) == ["_sqrt_mod_odd_prime", "hilbert2_reader"]

    @pytest.mark.parametrize("ell", [2, -2, 3, 6, 7, -7])
    def test_equals_one_norm_decision_per_class(self, ell):
        """Every twist below 3000, passing or not, where the tame, symbol
        and biquadratic routes are all reached."""
        twists = [TwistParams(ell, p) for p in primes_up_to(3000)
                  if p != 2 and math.gcd(ell, p) == 1]
        assert any(twist_conditions(tw).all_satisfied for tw in twists)
        for tw in twists:
            assert forced_section_invariants(tw) == oracles.forced_section_invariants(tw), tw

    def test_each_place_reads_one_rule(self, monkeypatch):
        """One rule per bad place: the image at p, the table at 2 and the
        4th-power test at each odd q | ell."""
        calls = []
        for name in ("_image_at_p", "_forced_at_2", "is_nth_power_unit"):
            real = getattr(reichardt_lind, name)
            monkeypatch.setattr(reichardt_lind, name, lambda *a, name=name, real=real:
                                calls.append((name, a)) or real(*a))
        expected = {
            RL: [("_forced_at_2", (2, 17)), ("_image_at_p", (2, 17))],
            TwistParams(-21, 5): [("_forced_at_2", (-21, 5)), ("is_nth_power_unit", (5, 4, 3)),
                                  ("_image_at_p", (-21, 5)), ("is_nth_power_unit", (5, 4, 7))],
        }
        for tw, rules in expected.items():
            calls.clear()
            forced_section_invariants(tw)
            assert calls == rules, tw

    def test_every_small_twist_equals_the_norm_test(self):
        """All 5608 twists with squarefree |ell| <= 60 and p < 400, against
        one norm decision per y-class."""
        twists = [TwistParams(ell, p) for ell in range(-60, 61) if ell and squarefree(ell)
                  for p in primes_up_to(400)[1:] if ell % p]
        assert len(twists) == 5608
        for tw in twists:
            assert forced_section_invariants(tw) == oracles.forced_section_invariants(tw), tw


def squarefree(n: int) -> bool:
    return all(e == 1 for _, e in factorize(abs(n)).factors)


class TestForcedRules:
    """Each rule of `forced_section_invariants` against the norm test, on
    every class it is keyed by."""

    def test_the_table_at_two_on_every_key(self):
        # (v_2(ell), odd part of ell mod 8, p mod 16), each key with a
        # positive and a negative ell, and p = 1 mod 16 as 17
        seen = {}
        for v in (0, 1):
            for odd in (1, 3, 5, 7):
                for p in range(3, 35, 2):
                    for ell in (odd * 2**v, (odd - 8) * 2**v):
                        rule = reichardt_lind._forced_at_2(ell, p)
                        assert rule == oracles.forced_set(ell, p, 2), (ell, p)
                        seen.setdefault(rule, set()).add((v, odd, p % 16))
        assert sum(len(keys) for keys in seen.values()) == 64
        assert {rule: len(keys) for rule, keys in seen.items()} == {
            frozenset({ZERO}): 16, frozenset({ZERO, HALF}): 20, frozenset(): 28}

    @pytest.mark.parametrize("q", [3, 5, 7, 11, 13])
    def test_the_odd_rule_on_every_class_of_p(self, q):
        u = next(n for n in range(2, q) if pow(n, (q - 1) // 2, q) != 1)
        ells = [sign * k * q for k in (1, 2, u) for sign in (1, -1) if squarefree(k * q)]
        sets = set()
        for r in range(1, q):
            for ell in ells:
                p = next(p for p in primes_up_to(2000)[1:] if p % q == r and ell % p)
                rule = forced_section_invariants(TwistParams(ell, p)).contribution(q)
                assert rule == oracles.forced_set(ell, p, q), (ell, p)
                sets.add(rule)
        assert sets == {frozenset({ZERO}), frozenset()}

    def test_the_rule_at_p_on_every_class_of_ell(self):
        for p in primes_up_to(200)[1:]:
            sets = set()
            for ell in range(-p + 1, p):
                if ell and squarefree(ell):
                    rule = reichardt_lind._image_at_p(ell, p)
                    assert rule == oracles.forced_set(ell, p, p), (ell, p)
                    sets.add(rule)
            # {0, 1/2} or nothing at p = 3 mod 4; {0}, {1/2} or nothing else
            assert len(sets) == (2 if p % 4 == 3 else 3), p


class TestTwistConditions:
    def test_reichardt_lind_all_hold(self):
        tc = twist_conditions(RL)
        assert tc.all_satisfied

    def test_seventy_three_fails_quartic_condition(self):
        tc = twist_conditions(TwistParams(2, 73))
        assert not tc.quartic_nonresidue
        assert not tc.all_satisfied
        assert tc.odd_prime_coprime and tc.square_mod_ell_primes

    def test_nineteen_seventeen_all_hold(self):
        assert twist_conditions(TwistParams(19, 17)).all_satisfied

    def test_search_ell_two(self, capsys):
        assert rl_search(capsys, 2, 100) == [17, 41, 97]

    def test_search_other_twists(self, capsys):
        assert 97 in rl_search(capsys, 11, 100)
        assert 73 in rl_search(capsys, 6, 100)

    def test_search_rejects_non_squarefree(self, capsys):
        assert cli.main(["rl", "search", "--ell", "12", "--max-prime", "100"]) == 1
        assert "ell must be squarefree" in capsys.readouterr().out


def rl_search(capsys, ell: int, bound: int) -> list[int]:
    """The twists that `rl search --ell ell --max-prime bound` reports."""
    assert cli.main(["rl", "search", "--ell", str(ell), "--max-prime", str(bound)]) == 0
    return json.loads(capsys.readouterr().out)["result"]["twists"]


DIFFERENTIAL_ELLS = (2, -2, 3, 6, 7, -7, 11)


class TestConditionsOnIntegers:
    """The conditions decided once per prime on integers, with |ell|
    factored once, against the route on a fresh `TwistParams` per prime
    with (iii) by `legendre_symbol`."""

    # 5 and -10 have a prime 1 mod 4, for which (iii) fails at every p
    @pytest.mark.parametrize("ell", DIFFERENTIAL_ELLS + (5, -10))
    def test_conditions_match_the_legendre_route(self, ell):
        odd_ell_primes = tuple(q for q, _ in factorize(abs(ell)).factors if q != 2)
        seen = set()
        for p in primes_up_to(10_000)[1:]:
            if math.gcd(ell, p) == 1:
                expected = oracles.twist_conditions(ell, p)
                assert twist_conditions(TwistParams(ell, p)) == expected, p
                assert TwistConditions(*_conditions(ell, odd_ell_primes, p)) == expected, p
                seen.add(expected)
        assert {c.quartic_nonresidue for c in seen} == {c.two_adic_solvable for c in seen} == {True, False}
        iii = {c.square_mod_ell_primes for c in seen}
        if ell in (5, -10):
            assert iii == {False}
        else:
            assert iii == ({True} if ell in (2, -2) else {True, False})
            assert {c.all_satisfied for c in seen} == {True, False}

    @pytest.mark.parametrize("ell", DIFFERENTIAL_ELLS)
    def test_search_and_density_match_the_oracle_loop(self, ell, capsys):
        assert rl_search(capsys, ell, 20_000) == oracles.twist_search(ell, 20_000)
        rep = density_experiment(ell, 20_000)
        passing = oracles.passing_twists(ell, 20_000)
        assert (rep.valid_count, rep.prime_count) == (len(passing), len(primes_up_to(20_000)))


MODULES = (exact, padic, symbols, cubic, tower, reichardt_lind, elkies, selmer, cli)


class TestEllFactoredOnce:
    """|ell| is factored once per command, and the density count proves no
    prime again: the sieve is the proof."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = {"factorize": [], "is_probable_prime": []}
        for name, real in (("factorize", factorize), ("is_probable_prime", exact.is_probable_prime)):
            def spy(n, name=name, real=real):
                calls[name].append(n)
                return real(n)

            for module in MODULES:
                if getattr(module, name, None) is real:
                    monkeypatch.setattr(module, name, spy)
        return calls

    def test_verify_factors_ell_once(self, calls, capsys):
        assert cli.main(["rl", "verify", "--ell", "6", "--p", "73"]) == 0
        assert '"verdict": "obstructed"' in capsys.readouterr().out
        assert calls["factorize"] == [6]

    def test_density_factors_ell_once_and_proves_no_prime(self, calls, capsys):
        assert cli.main(["rl", "density", "--ell", "2", "--max-prime", "20000"]) == 0
        assert '"primes_tested": 2262' in capsys.readouterr().out
        assert calls == {"factorize": [2], "is_probable_prime": []}

    def test_search_builds_twists_only_for_passing_primes(self, calls, monkeypatch, capsys):
        built = []
        proven = TwistParams._proven.__func__

        def spy(cls, ell, p, fz):
            built.append(p)
            return proven(cls, ell, p, fz)

        monkeypatch.setattr(TwistParams, "_proven", classmethod(spy))
        found = rl_search(capsys, 6, 2000)
        # no prime is proven again after the sieve: not by a TwistParams,
        # its bad places or their rules
        assert calls == {"factorize": [6], "is_probable_prime": []}
        assert found == oracles.twist_search(6, 2000)
        assert built == oracles.passing_twists(6, 2000)

    @pytest.mark.parametrize("ell", [2, -6, 21])
    def test_search_proves_no_prime_after_the_sieve(self, ell, calls, monkeypatch, capsys):
        # the sieve proves each p and `_check_ell` the primes of |ell|; the
        # forced sections read rules on those proven values
        sieve = cli._passing_primes

        def sieved(*args):
            passing = list(sieve(*args))
            calls["is_probable_prime"].clear()
            return passing

        monkeypatch.setattr(cli, "_passing_primes", sieved)
        assert rl_search(capsys, ell, 20_000) and calls["is_probable_prime"] == []


@lru_cache(maxsize=None)
def has_dyadic_point(ell, p):
    """Whether the quadratic search finds a Q_2 point, y = 0 allowed."""
    return not isinstance(oracles.quadratic_local_point(TwistParams(ell, p), 2, 8, allow_y_zero=True),
                          NoPoint)


def condition_iv_rows():
    """(ell, p): every odd squarefree |ell| < 100 with every p = 9 mod 16
    below 3000 (4,258 pairs), then p = 1 mod 16, p != 1 mod 8 and even
    ell."""
    odd = [s * e for e in range(1, 100, 2) if all(k == 1 for _, k in factorize(e).factors)
           for s in (1, -1)]
    even = [2, -2, 6, -6, 10, -10, 14, 22, -30]
    primes = primes_up_to(3000)[1:]
    rows = [(ell, p) for ell in odd for p in primes if p % 16 == 9]
    rows += [(ell, p) for ell in odd[:20] for p in primes[:200] if p % 16 == 1]
    rows += [(ell, p) for ell in odd[:20] + even for p in primes[:40] if p % 8 != 1]
    rows += [(ell, p) for ell in even for p in primes[:200] if p % 8 == 1]
    return [(ell, p) for ell, p in rows if math.gcd(ell, p) == 1]


def condition_iv_mismatches(rule) -> list:
    """The rows where rule(ell, p) is not (iv): p = 1 mod 8 and a Q_2 point."""
    return [(ell, p) for ell, p in condition_iv_rows()
            if rule(ell, p) != (p % 8 == 1 and has_dyadic_point(ell, p))]


class TestConditionFour:
    """(iv) by its closed rule against the dyadic search it replaced."""

    def test_rows_cover_every_case_of_the_rule(self):
        rows = condition_iv_rows()
        assert sum(1 for ell, p in rows if ell % 2 and p % 16 == 9) == 4258
        kinds = {(ell % 2 == 0, p % 16 if p % 8 == 1 else "not 1 mod 8", ell % 8 if ell % 2 else None)
                 for ell, p in rows}
        assert {(False, 9, r) for r in (1, 3, 5, 7)} | {(False, 1, r) for r in (1, 3, 5, 7)} <= kinds
        assert {(True, 9, None), (True, 1, None), (True, "not 1 mod 8", None)} <= kinds

    def test_closed_rule_matches_the_dyadic_search(self):
        def library(ell, p):
            return twist_conditions(TwistParams(ell, p)).two_adic_solvable

        assert condition_iv_mismatches(library) == []

    def test_two_adic_solvable_is_p_1_mod_8_with_an_image_at_two(self):
        # the rule of (iv) and the rule of the image at 2 decide the same
        # Q_2 points: (iv) holds exactly when p = 1 mod 8 and the points
        # with y != 0 give 2 an invariant
        def image_at_two(tw):
            try:
                return local_image(tw, 2)
            except NoPointError:
                return frozenset()

        mismatches, kinds = [], set()
        for ell, p in condition_iv_rows():
            tw = TwistParams(ell, p)
            nonempty = bool(image_at_two(tw))
            if twist_conditions(tw).two_adic_solvable != (p % 8 == 1 and nonempty):
                mismatches.append((ell, p))
            kinds.add((p % 8 == 1, nonempty))
        assert mismatches == []
        assert kinds == {(True, True), (True, False), (False, True), (False, False)}

    @pytest.mark.parametrize("mutant", [
        lambda ell, p: p % 8 == 1 and (ell % 2 == 0 or p % 16 == 1 or ell % 8 in (1,)),
        lambda ell, p: p % 8 == 1 and (ell % 2 == 0 or p % 16 == 1 or ell % 8 in (7,)),
        lambda ell, p: p % 8 == 1 and (ell % 2 == 0 or ell % 8 in (1, 7)),
        lambda ell, p: p % 8 == 1 and (p % 16 == 1 or ell % 8 in (1, 7)),
        lambda ell, p: ell % 2 == 0 or p % 16 == 1 or ell % 8 in (1, 7),
    ], ids=["ell 1 mod 8", "ell 7 mod 8", "no p 1 mod 16", "no even ell", "no p 1 mod 8"])
    def test_the_rows_refute_a_mutated_rule(self, mutant):
        assert condition_iv_mismatches(mutant)


class TestDensity:
    def test_small_exact(self):
        rep = density_experiment(2, 20)
        assert isinstance(rep, DensityReport)
        assert rep.valid_count == 1 and rep.prime_count == 8
        assert rep.ratio == Fraction(1, 8) == rep.predicted

    def test_prediction_exponents(self):
        # 1/2^(n+2) for even ell; for odd ell, 1/2^(n+3) if ell = +-1 mod 8
        # (-7, 7, 33), else 1/2^(n+4) (+-3, 11, 21)
        expected = {2: 8, -2: 8, 6: 16, 3: 32, -3: 32, 7: 16, -7: 16, 11: 32, 21: 64, 33: 32}
        assert {ell: 1 / density_experiment(ell, 50).predicted for ell in expected} == expected

    def test_odd_ell_seven_mod_eight_tracks_prediction(self):
        # every p = 1 mod 8 passes (iv) when ell = 7 mod 8: 1/16, not 1/32
        rep = density_experiment(7, 100000)
        assert rep.predicted == Fraction(1, 16)
        assert abs(rep.ratio - rep.predicted) <= rep.predicted * Fraction(15, 100)

    def test_moderate_range_tracks_prediction(self):
        rep = density_experiment(2, 20000)
        assert abs(rep.ratio - rep.predicted) <= rep.predicted * Fraction(15, 100)

    def test_rejects_bad_ell(self):
        with pytest.raises(ValueError):
            density_experiment(12, 100)  # not squarefree
        with pytest.raises(ValueError):
            density_experiment(5, 100)  # odd factor 1 mod 4

    @pytest.mark.parametrize("ell", [1, -1])
    def test_refuses_ell_plus_minus_one(self, ell):
        # +-1 is a 4th power mod every p = 1 mod 8, so (ii) and (iv) exclude
        # each other and no twist passes
        assert not any(twist_conditions(TwistParams(ell, p)).all_satisfied
                       for p in primes_up_to(3000)[1:])
        with pytest.raises(ValueError, match="4th power"):
            density_experiment(ell, 100)


    @pytest.mark.parametrize("p_max", [1, 0, -5])
    def test_refuses_a_bound_below_every_prime(self, p_max):
        with pytest.raises(ValueError, match=f"max_prime = {p_max} leaves no prime"):
            density_experiment(2, p_max)


class TestGlobalSearches:
    def test_exhaustive_empty(self):
        assert exhaustive_search(200, 2, 17) == []
        assert exhaustive_search(0, 2, 17) == []

    def test_control_equation_solution_excluded_by_nonzero_y(self):
        # with 17 replaced by 16 the tuple (y, z0, z1) = (0, 2, 1) solves
        # the equation but is excluded by the y != 0 requirement
        assert 2 * 0**2 == 2**4 - 16 * 1**4
        assert exhaustive_search(2, ell=2, rhs=16) == []

    def test_rejects_negative_bound(self):
        with pytest.raises(ValueError):
            exhaustive_search(-1, 2, 17)

    def test_rejects_ell_zero(self):
        with pytest.raises(ValueError, match="ell must be nonzero"):
            exhaustive_search(3, ell=0, rhs=17)


class TestSmoothness:
    def test_good_reduction_smooth(self):
        assert model_smoothness_check(3, RL)
        assert model_smoothness_check(5, RL)
        assert model_smoothness_check(13, RL)

    def test_bad_reduction_rejected(self):
        with pytest.raises(ValueError):
            model_smoothness_check(2, RL)
        with pytest.raises(ValueError):
            model_smoothness_check(17, RL)
