"""Acceptance suite: one test per headline criterion, each printing a
single PASS line with its measured runtime (budgets asserted where the
criterion states one)."""

import json
import random
import time
from fractions import Fraction

import oracles
from oracles import power_class
from localglobal import cli
from localglobal.cubic import Eisenstein, PI, cube_class_group, hilbert3
from localglobal.elkies import family_scan, fibre, quartic_rep
from localglobal.exact import primes_up_to, quartic_residue_symbol, split_prime_power
from localglobal.padic import hensel_root
from localglobal.reichardt_lind import (
    TwistParams,
    exhaustive_search,
    forced_section_invariants,
    model_smoothness_check,
    twist_conditions,
)
from localglobal.selmer import (
    evaluate_F_local,
    isogeny_map,
    isogeny_preimage_Q3,
    isogeny_sweep,
    random_E_points_Q3,
    survival_analysis,
)
from localglobal.symbols import hilbert2, product_formula_check
from localglobal.tower import GAMMA, evaluate_F_symbolic, norm_K_over_k


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    return code, json.loads(capsys.readouterr().out)


def test_c01_quartic_obstruction_at_2_17(capsys):
    t0 = time.perf_counter()
    code, rep = run_cli(capsys, "rl", "verify", "--ell", "2", "--p", "17")
    elapsed = time.perf_counter() - t0
    assert code == 0 and rep["status"] == "obstructed"
    result = rep["result"]
    assert result["point_analysis"]["total"] == ["1/2"]
    assert result["forced_analysis"]["total"] == ["1/2"]
    assert result["point_analysis"]["contributions"] == result["forced_analysis"]["contributions"]
    assert elapsed < 10
    print(f"C01 PASS obstruction (ell=2, p=17): total 1/2 over every adelic point "
          f"and for forced sections [{elapsed:.2f}s < 10s]")


def test_c02_twist_list_below_100(capsys):
    t0 = time.perf_counter()
    code, rep = run_cli(capsys, "rl", "search", "--ell", "2", "--max-prime", "100")
    assert code == 0 and rep["result"]["twists"] == [17, 41, 97]
    for ell, p in ((6, 73), (11, 97), (19, 17)):
        tw = TwistParams(ell, p)
        assert twist_conditions(tw).all_satisfied, (ell, p)
        assert forced_section_invariants(tw).verdict == "obstructed", (ell, p)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10
    print(f"C02 PASS twist search: ell=2 gives [17, 41, 97]; (6,73), (11,97), "
          f"(19,17) all validate [{elapsed:.2f}s < 10s]")


def test_c03_twist_densities(capsys):
    t0 = time.perf_counter()
    code, rep = run_cli(capsys, "rl", "density", "--ell", "2", "--max-prime", "200000")
    e2 = time.perf_counter() - t0
    assert code == 0
    err2 = Fraction(rep["result"]["relative_error"])
    assert err2 < Fraction(15, 100)
    assert e2 < 60

    t0 = time.perf_counter()
    code, rep = run_cli(capsys, "rl", "density", "--ell", "11", "--max-prime", "200000")
    e11 = time.perf_counter() - t0
    assert code == 0
    err11 = Fraction(rep["result"]["relative_error"])
    assert err11 < Fraction(30, 100)
    assert e11 < 60
    print(f"C03 PASS densities to 2e5: ell=2 off 1/8 by {float(err2):.4f} (<0.15) "
          f"[{e2:.1f}s]; ell=11 off 1/32 by {float(err11):.4f} (<0.30) [{e11:.1f}s]")


def test_c04_product_formula_1000_pairs():
    t0 = time.perf_counter()
    rng = random.Random(41)
    for _ in range(1000):
        a = Fraction(rng.choice([-1, 1]) * rng.randrange(1, 500),
                     rng.randrange(1, 500))
        b = Fraction(rng.choice([-1, 1]) * rng.randrange(1, 500),
                     rng.randrange(1, 500))
        assert product_formula_check(a, b).is_zero, (a, b)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5
    print(f"C04 PASS product formula: 1000 random rational pairs sum to 0 "
          f"exactly [{elapsed:.2f}s < 5s]")


def test_c05_hilbert2_formula_vs_norm_oracle():
    t0 = time.perf_counter()

    def norm_classes(p, b, bound=60):
        classes = set()
        for x in range(bound):
            for y in range(bound):
                if x or y:
                    val = Fraction(x) ** 2 - b * Fraction(y) ** 2
                    if val != 0:
                        classes.add(power_class(val, 2, p))
        return classes

    rng = random.Random(23)
    for p in (2, 3, 17):
        cache = {}
        for _ in range(200):
            a = Fraction(rng.choice([-1, 1]) * rng.randrange(1, 40)) * Fraction(p) ** rng.randrange(-2, 3)
            b = Fraction(rng.choice([-1, 1]) * rng.randrange(1, 40)) * Fraction(p) ** rng.randrange(-2, 3)
            key = power_class(b, 2, p)
            if key not in cache:
                cache[key] = norm_classes(p, b)
            is_norm = power_class(a, 2, p) in cache[key]
            assert (hilbert2(a, b, p)[0] == 1) == is_norm, (p, a, b)
    elapsed = time.perf_counter() - t0
    print(f"C05 PASS hilbert2 closed formulas match norm-membership brute force, "
          f"200 pairs at each of p = 2, 3, 17 [{elapsed:.2f}s]")


def test_c06_gauss_criterion_sweep():
    t0 = time.perf_counter()
    checked = 0
    for p in primes_up_to(100_000):
        if p % 8 == 1:
            assert quartic_rep(p).b_even == quartic_residue_symbol(2, p).is_plus_one, p
            checked += 1
    elapsed = time.perf_counter() - t0
    assert checked == 2384
    assert elapsed < 60
    print(f"C06 PASS Gauss criterion: (2/p)_4 = +1 iff b even in p = a^2+16b^2 "
          f"for all {checked} primes p = 1 mod 8 below 1e5 [{elapsed:.2f}s < 60s]")


def test_c07_family_scan_height_10():
    t0 = time.perf_counter()
    fibres, solvable, obstructed = family_scan(10)
    elapsed = time.perf_counter() - t0
    assert fibres == 128  # 127 rationals plus infinity
    assert solvable == fibres  # all locally solvable
    assert obstructed == fibres  # all obstructed
    entries = oracles.family_scan(oracles.rationals_of_height(10))  # factored, per fibre
    assert all(par.count % 2 == 1 and loc.everywhere_solvable for _, par, loc in entries)
    inf = fibre(None)
    assert inf.N == 17 and inf.N0 == 17
    assert elapsed < 60
    print(f"C07 PASS isotrivial family: 128 fibres of height <= 10 (incl. "
          f"infinity, N = 17) all locally solvable with odd obstruction count "
          f"[{elapsed:.1f}s < 60s]")


def test_c08_exhaustive_search_vs_local_points():
    t0 = time.perf_counter()
    assert exhaustive_search(1000) == []
    tw = TwistParams(2, 17)
    places = ["infinity"] + [q for q in primes_up_to(100)]
    for v in places:
        pt = oracles.local_point(tw, v)  # the lifting-tree search
        assert not isinstance(pt, oracles.NoPoint), v
    elapsed = time.perf_counter() - t0
    print(f"C08 PASS no integer point with |z_i| <= 1000 on 2y^2 = z0^4 - 17 z1^4, "
          f"yet local points at infinity, 2, 17 and all primes < 100 [{elapsed:.1f}s]")


def test_c09_cubic_descent_exact_values():
    t0 = time.perf_counter()
    assert norm_K_over_k(GAMMA) == Eisenstein.of(-10)
    c0, c1, c2 = evaluate_F_symbolic()
    assert c0 == Eisenstein(Fraction(9), Fraction(-81, 5))
    assert c1 == Eisenstein(Fraction(36, 5), Fraction(9, 5))
    assert c2 == Eisenstein(Fraction(0), Fraction(-9, 5))
    group = cube_class_group()
    expected = group.express(PI * (Eisenstein.of(1) + PI * PI))
    assert evaluate_F_local() == expected
    delta, _ = hensel_root([-10, 0, 0, 1], 4, 3, 18)
    from localglobal.tower import descent_value_at
    value = descent_value_at(Fraction(delta % 3**12))
    assert not hilbert3(2, value).is_zero
    elapsed = time.perf_counter() - t0
    assert elapsed < 30
    print(f"C09 PASS cubic descent: N(gamma) = -10, descent coefficients exact, "
          f"class = class(pi(1+pi^2)), pairing with 2 nontrivial [{elapsed:.1f}s < 30s]")


def test_c10_survival_linear_algebra():
    t0 = time.perf_counter()
    rep = survival_analysis()
    assert rep.ann_23_dimension == 2
    assert rep.ann_60_dimension == 3
    assert rep.in_annihilator_60
    assert rep.witness is not None
    group = cube_class_group()
    assert group.pairing_of_vectors(group.express(2), rep.witness) == 0
    assert group.pairing_of_vectors(group.express(3), rep.witness) == 0
    elapsed = time.perf_counter() - t0
    print(f"C10 PASS survival: dim ann<2,3> = 2, dim ann<60> = 3, descent class "
          f"annihilates 60, witness {rep.witness} kills both pairings [{elapsed:.1f}s]")


def test_c11_isogeny_suite():
    t0 = time.perf_counter()
    checked = isogeny_sweep(per_prime=100, seed=2)
    assert checked >= 500
    for pt in random_E_points_Q3(50, seed=9):
        pre = isogeny_preimage_Q3(pt)
        back = isogeny_map(pre)
        assert back.b == pt.b
        assert split_prime_power(back.a - pt.a, 3)[0] >= split_prime_power(pt.a, 3)[0] + 20
    elapsed = time.perf_counter() - t0
    assert elapsed < 30
    print(f"C11 PASS isogeny: {checked} finite-field points verified on the target "
          f"curve; 50 Q_3 preimages round-trip, b exact and a to 20 digits [{elapsed:.1f}s < 30s]")


def test_c12_model_smoothness():
    t0 = time.perf_counter()
    for q in (3, 5, 7, 11, 13):
        assert model_smoothness_check(q), q
    elapsed = time.perf_counter() - t0
    print(f"C12 PASS projective model smooth: Jacobian rank 2 at every F_q point "
          f"for q in {{3, 5, 7, 11, 13}} [{elapsed:.1f}s]")
