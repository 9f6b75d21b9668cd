"""The linear-time local point search against the quadratic one it replaced.

`reichardt_lind.local_points` draws the depth-1 residue points lazily from
`residue_zeros` and lifts each node by one linear congruence;
`oracles.local_point` tries every residue pair and every one of the q^2
children, and its `variant` k skips the first k certified branches.  Both
must visit the same frontiers in the same order, so the k-th point of the
one stream and variant k of the oracle are the same point (to full
precision), the same `NoPoint` depth, or raise the same exception.  The
constants are those of the twists' places: q^4 does not divide them, and
points with y = 0 are not searched.
The library lifts its points at its depth bound D = 2 v_q(4 ell^2 p) + 6,
and the oracle, which takes a precision, is given that D.  The oracle
starts each Hensel lift from `PadicNumber.from_fraction` values and the library
from the integer residue at the same absolute precision, so the points are
compared on their integer coordinates: the library's, and the residues of
the oracle's PadicNumbers to all their digits.
"""

import itertools
import json
import math
import time

import pytest

import oracles
from localglobal import cli, elkies, exact, padic, reichardt_lind, symbols, tower
from localglobal.reichardt_lind import (
    LocalPoint,
    NoPoint,
    TwistParams,
    local_point,
    local_points,
    verify_local_point,
)
from localglobal.symbols import as_place, hilbert2

Quartic = oracles.Quartic


def chart_polynomial(ell, p, chart):
    """The chart's integer polynomial g(y, z) and its z-derivative."""
    if chart == "near":
        return (lambda y, z: ell * y * y - z**4 + p), (lambda z: -4 * z**3)
    return (lambda y, z: ell * y * y - 1 + p * z**4), (lambda z: 4 * p * z**3)


def depth_bound(eq, q):
    """D = 2 v_q(4 ell^2 p) + 6: the depth bound of the search at q, and the
    digits its points are lifted at."""
    return 2 * exact.valuation(4 * eq.ell * eq.ell * eq.p, q) + 6


def oracle_point(eq, q, k):
    return oracles.local_point(eq, q, depth_bound(eq, q), variant=k)


def nth_point(eq, q, k):
    """The k-th point of `local_points` at q, or `NoPoint` if it has fewer."""
    pt = next(itertools.islice(local_points(eq, q), k, None), None)
    return NoPoint(as_place(q), depth_bound(eq, q)) if pt is None else pt


def outcome(search, eq, q, k):
    try:
        pt = search(eq, q, k)
    except Exception as exc:  # noqa: BLE001 - the type is compared
        return ("raises", type(exc))
    if isinstance(pt, NoPoint):
        return ("no point", pt.place, pt.depth)
    pt = oracles.integer_point(pt)
    return ("point", pt.place, pt.chart, pt.precision, pt.y, pt.z)


def _grid():
    """Cases (ell, p, q, k), q^4 never dividing p: the k-th point at q.

    They put q | ell, q = 2 (where ell = 1, p = -7 has only far-chart
    points) and q | p with v_q(p) = 1, 2, 3 (odd and even q, both signs) on
    every k.
    """
    cases = []
    for ell, q in ((3, 3), (6, 3), (10, 5), (5, 5), (11, 11), (2, 2), (6, 2), (-2, 2), (1, 2)):
        for p in (1, 7, -7, 17, -17, 97):
            if math.gcd(ell, p) == 1:
                cases += [(ell, p, q, var) for var in (0, 1, 3)]
    cases += [(ell, p, 2, var) for ell, p in ((5, 13), (-5, 17), (11, 97)) for var in (0, 1, 3)]
    for q in (2, 3, 5, 7):
        for v in (1, 2, 3):
            for ell in (1, -1, 2, 3, 5, 11):
                for u in (1, -1, 3, -5):
                    p = u * q**v
                    if math.gcd(ell, p) == 1 and p % q**4:
                        cases += [(ell, p, q, var) for var in (0, 1, 3)]
    return cases


def test_linear_search_matches_the_quadratic_oracle(monkeypatch):
    seen = set()  # which paths of the linear search the grid exercised
    residue_zeros, lift_children = reichardt_lind.residue_zeros, reichardt_lind._lift_children
    searching = {}

    def recording_residue_zeros(ell, a, b, q):
        # near is ell*y^2 = z^4 - p, far ell*y^2 = -p*z^4 + 1 (at p = -1 they agree)
        chart, p = ("near", -b) if a == 1 else ("far", -a)
        searching.update(ell=ell, chart=chart_polynomial(ell, p, chart))
        seen.add("far, q | p" if chart == "far" and p % q == 0 else chart)
        return residue_zeros(ell, a, b, q)

    def checking_lift_children(y0, z0, c0, g_y, g_z, q, step):
        # every expanded node is a zero mod step, lifted by the right congruence
        g, dg_z = searching["chart"]
        assert g(y0, z0) % step == 0
        assert (c0, g_y, g_z) == (g(y0, z0) // step % q, 2 * searching["ell"] * y0 % q, dg_z(z0) % q)
        kind = "g_z unit" if g_z else "g_y unit" if g_y else "singular, q | c0" if c0 == 0 else "singular, dead"
        seen.add((kind, "q = 2" if q == 2 else "q odd"))
        return lift_children(y0, z0, c0, g_y, g_z, q, step)

    monkeypatch.setattr(reichardt_lind, "residue_zeros", recording_residue_zeros)
    monkeypatch.setattr(reichardt_lind, "_lift_children", checking_lift_children)
    mismatches, kinds = [], set()
    for ell, p, q, k in _grid():
        eq = Quartic(ell, p)
        fast = outcome(nth_point, eq, q, k)
        slow = outcome(oracle_point, eq, q, k)
        kinds.add(fast[0] if fast[0] != "point" else (fast[2], "q | p" if p % q == 0 else "q ∤ p"))
        if fast != slow:
            mismatches.append(((ell, p, q, k), fast, slow))
    assert mismatches == []
    # a unit g_y certifies its node at depth 1, so only the lifting test
    # below reaches that branch
    assert {"near", "far", "far, q | p"} <= seen
    assert {
        ("g_z unit", "q odd"), ("singular, q | c0", "q odd"), ("singular, dead", "q odd"),
        ("singular, q | c0", "q = 2"), ("singular, dead", "q = 2"),
    } <= seen
    # lifted at D digits, every certified branch is a point: nothing raises
    assert {("near", "q | p"), ("far", "q | p"), ("far", "q ∤ p"), "no point"} <= kinds
    assert "raises" not in kinds


def test_every_variant_matches_the_quadratic_oracle():
    # the k-th point of the stream is variant k of the oracle, which skips
    # k certified branches; a stream that ends or raises before its k-th
    # point is the oracle's NoPoint or exception
    mismatches = []
    for ell, p, q in sorted({case[:3] for case in _grid()}):
        eq = Quartic(ell, p)
        for k in range(6):
            fast = outcome(nth_point, eq, q, k)
            slow = outcome(oracle_point, eq, q, k)
            if fast != slow:
                mismatches.append(((ell, p, q, k), fast, slow))
    assert mismatches == []


def test_counted_branches_are_those_that_lift(monkeypatch):
    # a certified branch is chosen from its residues (y0 != 0), so every
    # one must lift to a point with y != 0.  Taking the stream up to past
    # its end hands each branch to `_certify`, checked here: y keeps
    # v(y0), and a lifted y keeps more than D/2 >= 3 digits past it (the
    # digit count of `hensel_root`), all `hilbert2` reads: 3 at q = 2, 1 at
    # odd q
    certify, hensel_root = reichardt_lind._certify, reichardt_lind.hensel_root
    seen, roots = set(), []

    def recording_root(*args):
        roots.append(hensel_root(*args))
        return roots[-1]

    def checking_certify(place, chart, y0, z0, t_y, t_z, depth_bound, *polys):
        roots.clear()
        q = place.prime
        pt = certify(place, chart, y0, z0, t_y, t_z, depth_bound, *polys)
        assert y0 and pt.y and exact.valuation(pt.y, q) == exact.valuation(y0, q)
        assert pt.precision == depth_bound and len(roots) == 1
        if t_y is not None and (t_z is None or t_y <= t_z):
            (root, digits), = roots
            assert root == pt.y
            assert digits - exact.valuation(pt.y, q) > depth_bound / 2 >= 3
            seen.add("y lifted")
        else:
            assert pt.y == y0 and roots[0][0] == pt.z
            seen.add("z lifted")
        return pt

    monkeypatch.setattr(reichardt_lind, "hensel_root", recording_root)
    monkeypatch.setattr(reichardt_lind, "_certify", checking_certify)
    ends = set()
    cases = [(ell, p, 2) for ell in (3, 11, -5) for p in (13, 17, 29, 7, -43)]
    for ell, p, q in cases + sorted({case[:3] for case in _grid()}):
        eq = Quartic(ell, p)
        points = list(itertools.islice(local_points(eq, q), 21))
        if len(points) < 21:
            ends.add("count exhausted")
        for pt in points:
            assert verify_local_point(eq, pt), (ell, p, q)
    assert seen == {"y lifted", "z lifted"} and ends == {"count exhausted"}


def _short_of_the_symbol(hensel_root, zero=False):
    """`hensel_root` that claims one digit fewer past v(root) than the
    symbol of a lifted y reads (3 at q = 2, 1 at odd q), or returns 0."""
    def short_root(coeffs, start, q, n):
        root, _ = hensel_root(coeffs, start, q, n)
        if zero:
            return 0, n
        return root, exact.valuation(root, q) + (3 if q == 2 else 1) - 1
    return short_root


def test_a_lifted_y_short_of_digits_is_inconclusive(monkeypatch, capsys):
    # `_certify` checks the digits of each lifted y: every y-lift of the
    # twists (2, 17) and (2, 31) (at 17, and at 2 and 31), handed a root
    # with one digit too few or a zero root, raises InsufficientPrecision,
    # and rl verify --ell 2 --p 17 is inconclusive (exit 2), never a
    # definite verdict
    certify, hensel_root = reichardt_lind._certify, reichardt_lind.hensel_root
    lifts = []

    def recording_certify(place, chart, y0, z0, t_y, t_z, *rest):
        if t_y is not None and (t_z is None or t_y <= t_z):
            lifts.append((place, chart, y0, z0, t_y, t_z, *rest))
        return certify(place, chart, y0, z0, t_y, t_z, *rest)

    monkeypatch.setattr(reichardt_lind, "_certify", recording_certify)
    for p in (17, 31):
        reichardt_lind.point_obstructions(TwistParams(2, p), 20)
    assert {args[0].prime for args in lifts} == {2, 17, 31}
    monkeypatch.setattr(reichardt_lind, "_certify", certify)
    for zero in (False, True):
        monkeypatch.setattr(reichardt_lind, "hensel_root", _short_of_the_symbol(hensel_root, zero))
        for args in lifts:
            with pytest.raises(reichardt_lind.InsufficientPrecision):
                certify(*args)
        assert cli.main(["rl", "verify", "--ell", "2", "--p", "17"]) == 2
        assert json.loads(capsys.readouterr().out)["status"] == "inconclusive"


RL_VERIFY_TWISTS = ((2, 17), (-2, 113), (2, 31), (-1, 17), (3, 13), (-6, 97), (11, 29), (19, 41))


@pytest.mark.parametrize("ell, p", RL_VERIFY_TWISTS)
def test_rl_verify_matches_the_quadratic_chart_search(monkeypatch, capsys, ell, p):
    # six samples are the first six points at every bad place; points and
    # report agree with the chart streams read off the oracle search, whose
    # k-th point is the branch its variant k keeps
    tw = TwistParams(ell, p)

    def report():
        code = cli.main(["rl", "verify", "--ell", str(ell), "--p", str(p), "--samples", "6"])
        out = json.loads(capsys.readouterr().out)
        out.pop("timings")
        return code, out, [outcome(nth_point, tw, v.prime, k)
                           for v in tw.bad_finite_places for k in range(6)]

    fast = report()

    def oracle_points(tw, place, chart, depth):  # nodes that return the oracle's points
        for k in itertools.count():
            pt, _ = oracles.chart_search(tw, place.prime, chart, depth, depth, k)
            if pt is None:
                return
            yield lambda pt=oracles.integer_point(pt): pt

    monkeypatch.setattr(reichardt_lind, "_chart_points", oracle_points)
    assert fast == report()


def rl_verify(capsys, ell, p, *options):
    code = cli.main(["rl", "verify", "--ell", str(ell), "--p", str(p), *options])
    return code, json.loads(capsys.readouterr().out)


def test_samples_past_the_branches_of_a_place_reuse_its_points(capsys):
    # the place 2 of (3, 13) has 16 certified branches and (2, 17) 66 at
    # 17: samples past them wrap around and never read a place as pointless
    code, out = rl_verify(capsys, 3, 13)
    assert (code, out["status"], out["result"]["totals_constant"]) == (0, "ok", True)
    for seed in ("50", "1000"):
        code, out = rl_verify(capsys, 2, 17, "--seed", seed)
        assert (code, out["status"], out["result"]["totals_constant"]) == (0, "obstructed", True)


@pytest.mark.parametrize("ell, p", RL_VERIFY_TWISTS)
def test_no_seed_loses_the_points_of_a_place(capsys, ell, p):
    # where local_point finds a point at every bad place, no seed makes
    # rl verify say no_local_point or inconclusive
    tw = TwistParams(ell, p)
    everywhere = not any(isinstance(local_point(tw, v), NoPoint) for v in tw.bad_places)
    statuses = {rl_verify(capsys, ell, p, "--seed", str(seed))[1]["status"]
                for seed in (0, 3, 50, 1000)}
    if everywhere:
        assert statuses <= {"ok", "obstructed"}
    else:
        assert statuses == {"no_local_point"}


def oracle_stream(tw, place, count):
    """The oracle's variants 0, 1, ... at a place, up to `count` of them,
    ending at the first that finds no point or raises."""
    if place.is_real:
        return [local_point(tw, place)]
    points = []
    for k in range(count):
        try:
            pt = oracle_point(tw, place.prime, k)
        except reichardt_lind.InsufficientPrecision:
            break
        if isinstance(pt, NoPoint):
            break
        points.append(oracles.integer_point(pt))
    return points


@pytest.mark.parametrize("ell, p", [(2, 17), (3, 13), (-1, 17), (2, 31)])
def test_sample_k_reads_point_seed_plus_k_mod_n_of_each_place(ell, p):
    # n is the number of points a place has among its first seed + samples.
    # The 122 points at 31 of (2, 31) end with 1/2 and start with 0, so
    # seed 118 and 8 samples tell a wrap from a stream that stops
    tw = TwistParams(ell, p)
    for seed, samples in ((0, 20), (3, 20), (7, 2), (50, 6), (118, 8)):
        reports = reichardt_lind.point_obstructions(tw, samples, seed)
        assert len(reports) == samples
        for place in tw.bad_places:
            points = oracle_stream(tw, place, seed + samples)
            for k, report in enumerate(reports):
                y = points[(seed + k) % len(points)].y
                assert report.contribution(place) == {hilbert2(y, p, place)[1]}, (place, seed, k)


@pytest.mark.parametrize("ell, p", [(2, 17), (3, 13), (-1, 17), (2, 31)])
def test_the_kept_window_reads_as_keeping_every_node(ell, p):
    # the places hold 1 to 256 nodes (2 and 17 of (2, 17): 120 and 66, the
    # stream at 2 ending at the depth bound), so these reads stay inside the
    # stream, wrap inside the window, and wrap past it
    tw = TwistParams(ell, p)
    for seed, samples in ((0, 20), (3, 20), (7, 2), (50, 6), (118, 8), (121, 1), (1000, 20),
                          (0, 130)):
        assert (reichardt_lind.point_obstructions(tw, samples, seed)
                == oracles.point_obstructions(tw, samples, seed)), (seed, samples)


def test_a_place_is_walked_again_only_when_the_reads_wrap_past_the_window(monkeypatch):
    # (2, 31) has 256 nodes at 2, 122 at 31 and 1 at infinity
    walks, nodes = [], reichardt_lind._nodes
    monkeypatch.setattr(reichardt_lind, "_nodes",
                        lambda tw, place: walks.append(str(place)) or nodes(tw, place))
    tw = TwistParams(2, 31)
    for seed, samples, expected in (
        (0, 20, ["2", "31", "infinity"]),        # no place wraps past its window
        (230, 20, ["2", "31", "31", "infinity"]),
        (118, 8, ["2", "31", "31", "infinity"]),
        (250, 10, ["2", "2", "31", "31", "infinity"]),
        (0, 200, ["2", "31", "infinity"]),       # 31 wraps, inside its window
    ):
        walks.clear()
        reichardt_lind.point_obstructions(tw, samples, seed)
        assert walks == expected, (seed, samples)


def test_each_place_is_proven_prime_once_for_all_samples(monkeypatch, capsys):
    # a place is built once and handed to every point lifted there, so the
    # primality proofs of p do not grow with the number of samples
    p = 18446744073709553681
    calls, proving = [], exact.is_probable_prime

    def counting(n):
        calls.append(n)
        return proving(n)

    for module in (exact, padic, symbols, tower, reichardt_lind, elkies):
        monkeypatch.setattr(module, "is_probable_prime", counting)
    counts = []
    for samples in ("1", "20"):
        calls.clear()
        code, out = rl_verify(capsys, 2, p, "--samples", samples)
        assert (code, out["status"]) == (0, "obstructed")
        counts.append(calls.count(p))
    assert counts[0] == counts[1] and counts[0] > 0


def certify_at_16(place, chart, y0, z0, t_y, t_z, digits, *polys):
    """`oracles.certify` at 16 digits, the fixed precision the twists'
    points were lifted at before their depth bound was, as integers."""
    return oracles.integer_point(
        oracles.certify(None, place.prime, chart, y0, z0, t_y, t_z, 16, *polys))


def test_point_obstruction_matches_lifting_at_16(monkeypatch):
    # every odd prime p < 2000 prime to ell, for six ell and three samples: the points lifted
    # at D <= 14 digits give the reports the points at 16 digits gave
    def reports():
        out = []
        for ell in (2, -2, 3, 6, 7, -7):
            for p in reichardt_lind.primes_up_to(2000)[1:]:
                if ell % p == 0:
                    continue
                tw = TwistParams(ell, p)
                try:
                    out += [r.as_dict() for r in reichardt_lind.point_obstructions(tw, 3)]
                except reichardt_lind.NoPointError as exc:
                    out.append(str(exc))
        return out

    fast = reports()
    assert {type(r) for r in fast} == {dict, str}  # points, and places with none
    monkeypatch.setattr(reichardt_lind, "_certify", certify_at_16)
    assert fast == reports()


def test_only_kept_branches_are_lifted(monkeypatch):
    # rl verify --ell 2 --p 1000721: 20 samples at the finite places 2 and
    # p, each with at least 20 branches.  Each place lifts the 20 branches
    # its samples keep, and no other
    lifted = []
    certify = reichardt_lind._certify

    def recording_certify(place, chart, y0, *rest):
        lifted.append(y0 != 0)
        return certify(place, chart, y0, *rest)

    monkeypatch.setattr(reichardt_lind, "_certify", recording_certify)
    reichardt_lind.point_obstructions(TwistParams(2, 1000721), 20)
    assert lifted == [True] * 40


def test_a_far_seed_lifts_only_the_points_it_reads(monkeypatch, capsys):
    # rl verify --ell 2 --p 2^64 + 2065 --seed 10000: each bad place is
    # searched for its first 10020 certified nodes, and only the nodes the
    # 20 samples read are lifted, so hensel_root runs at most 20 times at
    # each finite place, not once for every node below the seed
    hensel_root, lifts = reichardt_lind.hensel_root, []

    def counting_root(coeffs, start, q, n):
        lifts.append(q)
        return hensel_root(coeffs, start, q, n)

    monkeypatch.setattr(reichardt_lind, "hensel_root", counting_root)
    p = 18446744073709553681
    code, out = rl_verify(capsys, 2, p, "--seed", "10000")
    assert (code, out["status"]) == (0, "obstructed")
    assert set(lifts) == {2, p} and all(lifts.count(q) <= 20 for q in (2, p))


def test_refused_branches_are_not_lifted(monkeypatch, capsys):
    # rl verify --ell 2 --p 1000721: the certified nodes with y0 = 0 would
    # give points with y = 0 and are refined without reaching `_certify`,
    # so its 40 calls lift the kept branches, once each, and the report is
    # the one of the oracle's certify at 16 digits
    def report():
        code = cli.main(["rl", "verify", "--ell", "2", "--p", "1000721"])
        out = json.loads(capsys.readouterr().out)
        out.pop("timings")
        return code, out

    certified, lifts = [], []
    certify, hensel_root = reichardt_lind._certify, reichardt_lind.hensel_root

    def recording_certify(place, chart, y0, *rest):
        certified.append(y0)
        return certify(place, chart, y0, *rest)

    def recording_root(*args):
        lifts.append(certified[-1] if certified else None)
        return hensel_root(*args)

    monkeypatch.setattr(reichardt_lind, "_certify", recording_certify)
    monkeypatch.setattr(reichardt_lind, "hensel_root", recording_root)
    fast = report()
    assert len(certified) == 40 and 0 not in certified
    assert len(lifts) == 40 and None not in lifts and 0 not in lifts
    monkeypatch.setattr(reichardt_lind, "_certify", certify_at_16)
    assert report() == fast


@pytest.mark.parametrize("q", [2, 3, 5, 7, 13, 17])
@pytest.mark.parametrize("chart", ["near", "far"])
def test_residue_zeros_match_a_scan_of_all_pairs(q, chart):
    for ell in (1, -1, 2, -2, 3, 5, 6, 10, 11, 13, 17, 19):
        for p in (1, -1, 2, 3, -5, 7, 11, 17, 97, -q, 2 * q, q**2, -3 * q**3):
            if math.gcd(ell, p) != 1:
                continue
            g, _ = chart_polynomial(ell, p, chart)
            expected = [(y, z) for y in range(q) for z in range(q) if g(y, z) % q == 0]
            assert list(chart_zeros(ell, p, q, chart)) == expected, (ell, p)


def chart_zeros(ell, p, q, chart):
    a, b = (1, -p) if chart == "near" else (-p, 1)  # ell*y^2 = a*z^4 + b
    return reichardt_lind.residue_zeros(ell, a, b, q)


def test_residue_zeros_match_the_fourth_root_table():
    # every prime q < 2000 (q = 2 included) on both charts, and the z-free
    # branch: the far chart with q | p
    branches = set()
    for q in reichardt_lind.primes_up_to(2000):
        for ell, p, chart in ((2, 17, "near"), (-3, -7, "far"), (11, 5 * q, "far")):
            a, b = (1, -p) if chart == "near" else (-p, 1)
            zeros = list(reichardt_lind.residue_zeros(ell, a, b, q))
            assert zeros == oracles.fourth_root_table_zeros(ell, a, b, q), (q, ell, p, chart)
            branches.add("z free" if a % q == 0 else "q = 2" if q == 2 else f"q = {q % 4} mod 4")
    assert branches == {"z free", "q = 2", "q = 1 mod 4", "q = 3 mod 4"}


def test_residue_zeros_search_one_nonresidue_per_prime(monkeypatch):
    # q = 1 mod 4: the least non-residue is searched at the first fourth
    # power and serves every square root after it, and i = sqrt(-1)
    searches = []

    def counting(p):
        searches.append(p)
        return least_nonresidue(p)

    least_nonresidue = exact._least_nonresidue
    monkeypatch.setattr(exact, "_least_nonresidue", counting)
    monkeypatch.setattr(reichardt_lind, "_least_nonresidue", counting)
    for q in reichardt_lind.primes_up_to(1000)[1:]:
        searches.clear()
        zeros = list(reichardt_lind.residue_zeros(2, 1, -17, q))
        assert searches == ([q] if q % 4 == 1 and any(z for _, z in zeros) else []), q


@pytest.mark.parametrize("q", [2, 3, 5, 7])
@pytest.mark.parametrize("chart", ["near", "far"])
def test_lift_children_match_the_brute_force_children(q, chart):
    """Every zero mod q^d (d = 1, 2) of the chart for constants that put
    every branch of the congruence to work, against a scan of all
    q^2 candidate children."""
    branches = set()
    for ell, p in ((1, 2), (3, 7), (-2, 9), (5, 3 * q), (2, -q**2), (7, q**3)):
        if math.gcd(ell, p) != 1:
            continue
        g, g_z = chart_polynomial(ell, p, chart)
        for depth in (1, 2):
            step = q**depth
            for y0 in range(step):
                for z0 in range(step):
                    if g(y0, z0) % step:
                        continue
                    expected = [
                        (y0 + dy * step, z0 + dz * step)
                        for dy in range(q) for dz in range(q)
                        if g(y0 + dy * step, z0 + dz * step) % (q * step) == 0
                    ]
                    c0, gy, gz = g(y0, z0) // step % q, 2 * ell * y0 % q, g_z(z0) % q
                    got = reichardt_lind._lift_children(y0, z0, c0, gy, gz, q, step)
                    assert got == expected, (ell, p, y0, z0, depth)
                    branches.add("g_z" if gz else "g_y" if gy else "singular" if c0 == 0 else "dead")
    # mod an odd q the far chart has no singular residue: y = z = 0 gives -1
    if q == 2:
        assert branches == {"singular", "dead"}
    else:
        assert branches == ({"g_z", "g_y"} if chart == "far" else {"g_z", "g_y", "singular", "dead"})


@pytest.mark.parametrize(
    "eq, q",
    [(Quartic(2, 17), 100003), (TwistParams(2, 100049), 100049)],
    ids=["good prime 100003", "bad prime 100049"],
)
def test_point_at_a_prime_near_ten_to_the_five(eq, q):
    started = time.perf_counter()
    pt = local_point(eq, q)
    elapsed = time.perf_counter() - started
    assert isinstance(pt, LocalPoint)
    assert verify_local_point(eq, pt)
    assert pt.y
    assert elapsed < 5, f"{elapsed:.2f} s: the search is not linear in q"


def test_points_of_a_twist_at_a_64_bit_prime():
    # the depth-1 zeros are drawn lazily: a table of fourth roots mod p
    # would need 2^64 entries
    tw = TwistParams(2, 2**64 + 2065)
    started = time.perf_counter()
    points = list(itertools.islice(local_points(tw, tw.p), 6))
    assert len(points) == 6
    for pt in points:
        assert isinstance(pt, LocalPoint) and verify_local_point(tw, pt)
    assert time.perf_counter() - started < 5


def _real_point_cases():
    # the same (ell, p) as TwistParams below 10^5, built as a plain Quartic
    # to skip its primality and squarefreeness checks
    big, p = [], 2**64
    while len(big) < 3:
        p += 1
        if reichardt_lind.is_probable_prime(p):
            big.append(p)
    for ell in (1, -1, 2, -2, 3, -3, 6, -6):
        for p in reichardt_lind.primes_up_to(10**5)[1:]:
            if math.gcd(ell, p) == 1:
                yield Quartic(ell, p)
        yield from (TwistParams(ell, p) for p in big)


def test_real_point_starts_where_the_count_from_zero_stops():
    # for ell > 0 the search starts at floor(p^(1/4)) + 1, for ell < 0 at 0;
    # the oracle counts z up from 0, about 2^16 steps near p = 2^64
    cases = 0
    for tw in _real_point_cases():
        pt = local_point(tw, "infinity")
        assert pt.chart == "real" and pt.z == oracles.real_point_z(tw), tw
        cases += 1
    assert cases > 8 * 9000


def test_real_point_satisfies_the_equation():
    # a tenth of the grid, every point above 2^64, and three that failed
    # when y had a fixed number of binary digits: the residual grew with
    # sqrt(t)
    checked = set()
    for k, tw in enumerate(_real_point_cases()):
        if k % 10 and (tw.ell, tw.p) not in ((6, 10039), (1, 65551)) and tw.p < 2**64:
            continue
        pt = local_point(tw, "infinity")
        assert verify_local_point(tw, pt), tw
        checked.add((tw.ell, tw.p))
    assert {(6, 10039), (1, 65551), (2, 2**64 + 13)} <= checked and len(checked) > 7000
