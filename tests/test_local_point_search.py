"""The local images of `rl verify` against the lifting tree they replaced,
and that tree's linear-time search against the quadratic one before it.

`reichardt_lind.local_image` decides every bad place by a closed rule.
`oracles.local_points`, the search the library ran before, draws the
depth-1 residue points lazily from `residue_zeros` and lifts each node by
one linear congruence; a complete walk of it is the reference the rules
are tested against.  `oracles.quadratic_local_point` tries every residue
pair and every one of the q^2 children, and its `variant` k skips the
first k certified branches.  Both
must visit the same frontiers in the same order, so the k-th point of the
one stream and variant k of the oracle are the same point (to full
precision), the same `NoPoint` depth, or raise the same exception.  The
constants are those of the twists' places: q^4 does not divide them, and
points with y = 0 are not searched.
The linear search lifts its points at its depth bound D = 2 v_q(4 ell^2 p) + 6,
and the oracle, which takes a precision, is given that D.  The oracle
starts each Hensel lift from `PadicNumber.from_fraction` values and the library
from the integer residue at the same absolute precision, so the points are
compared on their integer coordinates: the library's, and the residues of
the oracle's PadicNumbers to all their digits.
"""

import ast
import itertools
import json
import math
import time
from functools import lru_cache, partial
from pathlib import Path

import pytest

import oracles
from localglobal import cli, elkies, exact, padic, reichardt_lind, symbols, tower
from localglobal.reichardt_lind import TwistParams
from localglobal.symbols import as_place, hilbert2
from oracles import LocalPoint, NoPoint, local_point, local_points, verify_local_point

Quartic = oracles.Quartic
ZERO, HALF = symbols.InvariantValue.zero(), symbols.InvariantValue.half()


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
    return oracles.quadratic_local_point(eq, q, depth_bound(eq, q), variant=k)


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
    residue_zeros, lift_children = oracles.residue_zeros, oracles._lift_children
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

    monkeypatch.setattr(oracles, "residue_zeros", recording_residue_zeros)
    monkeypatch.setattr(oracles, "_lift_children", checking_lift_children)
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
    certify, hensel_root = oracles._certify, oracles.padic_hensel_root
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

    monkeypatch.setattr(oracles, "padic_hensel_root", recording_root)
    monkeypatch.setattr(oracles, "_certify", checking_certify)
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


def test_a_lifted_y_short_of_digits_is_inconclusive(monkeypatch):
    # the linear search's `_certify` checks the digits of each lifted y:
    # every y-lift of the twists (2, 17) and (2, 31) (at 17, and at 2 and
    # 31), handed a root with one digit too few or a zero root, raises
    # InsufficientPrecision, never a point
    certify, hensel_root = oracles._certify, oracles.padic_hensel_root
    lifts = []

    def recording_certify(place, chart, y0, z0, t_y, t_z, *rest):
        if t_y is not None and (t_z is None or t_y <= t_z):
            lifts.append((place, chart, y0, z0, t_y, t_z, *rest))
        return certify(place, chart, y0, z0, t_y, t_z, *rest)

    monkeypatch.setattr(oracles, "_certify", recording_certify)
    for p in (17, 31):
        tw = TwistParams(2, p)
        for place in tw.bad_finite_places:
            list(itertools.islice(local_points(tw, place), 20))
    assert {args[0].prime for args in lifts} == {2, 17, 31}
    monkeypatch.setattr(oracles, "_certify", certify)
    for zero in (False, True):
        monkeypatch.setattr(oracles, "padic_hensel_root", _short_of_the_symbol(hensel_root, zero))
        for args in lifts:
            with pytest.raises(padic.InsufficientPrecision):
                certify(*args)


RL_VERIFY_TWISTS = ((2, 17), (-2, 113), (2, 31), (-1, 17), (3, 13), (-6, 97), (11, 29), (19, 41))


@pytest.mark.parametrize("ell, p", RL_VERIFY_TWISTS)
def test_rl_verify_matches_the_quadratic_chart_search(monkeypatch, capsys, ell, p):
    # the report's image at each bad place is that of a complete walk of
    # the linear search where the walk ends, and holds it where the tree is
    # alive at the depth bound; the first six points of that search at
    # every bad place are the chart streams read off the quadratic search,
    # whose k-th point is the branch its variant k keeps
    tw = TwistParams(ell, p)
    images = {}
    for place in tw.bad_places:
        rule = image_or_empty(tw, place)
        walked, ended = oracles.local_image(tw, place)
        assert rule == walked if ended else walked <= rule, place
        images[str(place)] = sorted(str(x) for x in rule)
    code, out = rl_verify(capsys, ell, p)
    if all(images.values()):
        assert (code, out["result"]["point_analysis"]["contributions"]) == (0, images)
    else:
        assert (code, out["status"]) == (0, "no_local_point")

    def stream():
        return [outcome(nth_point, tw, v.prime, k) for v in tw.bad_finite_places for k in range(6)]

    fast = stream()

    def oracle_points(tw, place, chart, depth):  # nodes that return the oracle's points
        for k in itertools.count():
            pt, _ = oracles.chart_search(tw, place.prime, chart, depth, depth, k)
            if pt is None:
                return
            yield lambda pt=oracles.integer_point(pt): pt

    monkeypatch.setattr(oracles, "_chart_points", oracle_points)
    assert fast == stream()


def rl_verify(capsys, ell, p, *options):
    code = cli.main(["rl", "verify", "--ell", str(ell), "--p", str(p), *options])
    return code, json.loads(capsys.readouterr().out)


def test_rl_verify_reads_the_whole_image_of_a_place(capsys):
    # the place 2 of (3, 13) has 16 points, all of invariant 0, though its
    # forced sections admit 1/2 as well.  At p = 31 = 3 mod 4, y lies in
    # the class of r or -r (r^2 = 2 mod 31), whose invariants differ as -1
    # is no square mod 31; the 256 points at 2 reach both invariants too
    code, out = rl_verify(capsys, 3, 13)
    assert (code, out["status"]) == (0, "ok")
    assert out["result"]["point_analysis"]["contributions"]["2"] == ["0"]
    assert out["result"]["forced_analysis"]["contributions"]["2"] == ["0", "1/2"]
    code, out = rl_verify(capsys, 2, 31)
    assert (code, out["status"]) == (0, "ok")
    points = out["result"]["point_analysis"]
    assert points["contributions"] == {"2": ["0", "1/2"], "31": ["0", "1/2"], "infinity": ["0"]}
    assert points["contributions"] == out["result"]["forced_analysis"]["contributions"]
    r = exact.sqrt_mod_prime(2, 31)
    assert {hilbert2(y, 31, 31)[1] for y in (r, 31 - r)} == {HALF, ZERO}


def test_a_first_point_off_the_rule_at_p_is_a_certificate_error(monkeypatch, capsys):
    # the rule at p = 17 gives {1/2} for ell = 2, a square but no 4th power
    # mod 17; a Hensel lift that returns y = 1, of invariant 0, fails the
    # check (exit 1), never a definite verdict
    monkeypatch.setattr(reichardt_lind, "hensel_root", lambda coeffs, start, q, n: (1, n))
    code, out = rl_verify(capsys, 2, 17)
    assert (code, out["status"]) == (1, "error")
    assert out["result"]["message"] == ("CertificateError: a point over Q_17 has the invariant 0, "
                                        "off the rule")


def test_an_odd_prime_of_ell_where_p_is_no_4th_power_has_no_point(capsys):
    # v(ell*y^2) is odd at q | ell and v(z^4 - p) even: the rule, whose
    # message rl verify prints, agrees with the linear search, which finds
    # no point at q, though 2 and p have points
    for ell, p, q in ((5, 19, 5), (-5, 29, 5), (13, 17, 13), (13, 43, 13)):
        tw = TwistParams(ell, p)
        assert isinstance(local_point(tw, q), NoPoint)
        assert not any(isinstance(local_point(tw, v), NoPoint) for v in (2, p))
        code, out = rl_verify(capsys, ell, p)
        assert (code, out["status"]) == (0, "no_local_point")
        assert out["result"]["message"] == (
            f"no local point at {q}: v({ell}*y^2) is odd and v(z^4 - {p}) even")


def test_no_local_point_names_the_rule_that_empties_the_image(capsys):
    # at 2 no valuation of z admits (3, 41), and 7 is no square mod 5: the
    # complete walk of the place finds no point either
    for ell, p, place, reason in (
            (3, 41, 2, "no valuation of z admits 3*y^2 = z^4 - 41"),
            (7, 5, 5, "7 is not a square mod 5")):
        assert oracles.local_image(TwistParams(ell, p), as_place(place)) == (frozenset(), True)
        code, out = rl_verify(capsys, ell, p)
        assert (code, out["status"]) == (0, "no_local_point")
        assert out["result"]["message"] == f"no local point at {place}: {reason}"


@pytest.mark.parametrize("ell, p", RL_VERIFY_TWISTS)
def test_no_seed_loses_the_points_of_a_place(capsys, ell, p):
    # rl verify takes no seed, a usage error (exit 64), and reads the whole
    # image of each place: where local_point finds a point at every bad
    # place it says neither no_local_point nor inconclusive, and where it
    # finds none, no_local_point
    tw = TwistParams(ell, p)
    everywhere = not any(isinstance(local_point(tw, v), NoPoint) for v in tw.bad_places)
    for option in ("--seed", "--samples"):
        assert cli.main(["rl", "verify", "--ell", str(ell), "--p", str(p), option, "3"]) == 64
        assert f"unrecognized arguments: {option} 3" in capsys.readouterr().err
    status = rl_verify(capsys, ell, p)[1]["status"]
    assert status in ({"ok", "obstructed"} if everywhere else {"no_local_point"})


def oracle_stream(tw, place, count):
    """The oracle's variants 0, 1, ... at a place, up to `count` of them,
    ending at the first that finds no point or raises."""
    if place.is_real:
        return [local_point(tw, place)]
    points = []
    for k in range(count):
        try:
            pt = oracle_point(tw, place.prime, k)
        except padic.InsufficientPrecision:
            break
        if isinstance(pt, NoPoint):
            break
        points.append(oracles.integer_point(pt))
    return points


@pytest.mark.parametrize("ell, p", [(2, 17), (3, 13), (-1, 17), (2, 31)])
def test_sample_k_reads_point_seed_plus_k_mod_n_of_each_place(ell, p):
    # the sampled reading that the local images replaced (`oracles`): n is
    # the number of points a place has among its first seed + samples.  The
    # 122 points at 31 of (2, 31) end with 1/2 and start with 0, so seed 118
    # and 8 samples tell a wrap from a stream that stops
    tw = TwistParams(ell, p)
    for seed, samples in ((0, 20), (3, 20), (7, 2), (50, 6), (118, 8)):
        reports = oracles.point_obstructions(tw, samples, seed)
        assert len(reports) == samples
        for place in tw.bad_places:
            points = oracle_stream(tw, place, seed + samples)
            for k, report in enumerate(reports):
                y = points[(seed + k) % len(points)].y
                assert report.contribution(place) == {hilbert2(y, p, place)[1]}, (place, seed, k)


@pytest.mark.parametrize("ell, p", [(2, 17), (3, 13), (-1, 17), (2, 31)])
def test_every_sampled_reading_lies_in_the_local_image(ell, p):
    # the places hold 1 to 256 nodes (2 and 17 of (2, 17): 120 and 66, the
    # stream at 2 ending at the depth bound), so these reads stay inside
    # the stream and wrap past its end.  Each sampled invariant lies in the
    # image of its place, and where the reads cover a whole stream that
    # ends, they reach all of the image
    tw = TwistParams(ell, p)
    images = {place: reichardt_lind.local_image(tw, place) for place in tw.bad_places}
    reached = {place: set() for place in tw.bad_places}
    for seed, samples in ((0, 20), (3, 20), (7, 2), (50, 6), (118, 8), (121, 1), (1000, 20),
                          (0, 130), (0, 300)):
        for report in oracles.point_obstructions(tw, samples, seed):
            for place, values in report.contributions:
                assert values <= images[place], (place, seed, samples)
                reached[place] |= values
    for place, image in images.items():
        walked, ended = oracles.local_image(tw, place)
        assert reached[place] == walked if ended else reached[place] <= walked <= image, place


def image_or_empty(tw, place):
    try:
        return reichardt_lind.local_image(tw, place)
    except reichardt_lind.NoPointError:
        return frozenset()


def small_twists():
    """Every squarefree |ell| <= 20 and odd prime p < 120 prime to it."""
    for ell in range(-20, 21):
        if ell and all(ell % (k * k) for k in (2, 3)):
            yield from (TwistParams(ell, p) for p in reichardt_lind.primes_up_to(120)[1:] if ell % p)


def test_local_images_match_a_complete_walk():
    # every small twist, at each bad place: the rules give the invariants
    # of a complete walk of the lifting tree where it ends, and contain
    # them where it is alive at the depth bound (the 4th-power places)
    twists, kinds, mismatches = 0, set(), []
    for tw in small_twists():
        twists += 1
        for place in tw.bad_places:
            rule = image_or_empty(tw, place)
            walked, ended = oracles.local_image(tw, place)
            if not (rule == walked if ended else walked <= rule):
                mismatches.append((tw.ell, tw.p, str(place), rule, walked, ended))
            kind = ("real" if place.is_real else "p" if place.prime == tw.p
                    else "2" if place.prime == 2 else "odd q | ell")
            kinds.add((kind, ended, len(rule)))
    assert twists == 730 and mismatches == []
    assert {("p", True, 0), ("p", True, 1), ("p", True, 2), ("2", True, 0), ("2", True, 1),
            ("2", True, 2), ("2", False, 1), ("odd q | ell", True, 0),
            ("odd q | ell", False, 1), ("real", True, 1)} <= kinds


def dyadic_class(ell, p):
    """What the image at 2 depends on: v_2(ell) in {0, 1}, the unit of ell
    mod 16, and p mod 16.  y -> u^2*y and z -> u*z, for units u with
    u^4 = 1 mod 16, carry the points of one twist to those of another in
    the same class, and keep the square class of y."""
    return ell % 2, (ell if ell % 2 else ell // 2) % 16, p % 16


@lru_cache(maxsize=None)
def dyadic_rows():
    """((ell, p), walked, ended): the first twist, by |ell| and then p, of
    each of the 128 class pairs, with the invariants of a complete walk of
    its tree at 2 and whether the walk ended."""
    rows = {}
    for size in range(1, 40):
        for ell in (size, -size):
            if all(ell % (k * k) for k in (2, 3, 5)):
                for p in reichardt_lind.primes_up_to(200)[1:]:
                    if ell % p:
                        rows.setdefault(dyadic_class(ell, p), (ell, p))
    return tuple((row, *oracles.local_image(TwistParams(*row), as_place(2)))
                 for row in sorted(rows.values()))


def dyadic_mismatches(rule) -> list:
    """The class rows where rule(ell, p) is not the image of the walk at 2
    (where the walk ends), or misses part of it (where it does not)."""
    return [row for row, walked, ended in dyadic_rows()
            if not (rule(*row) == walked if ended else walked <= rule(*row))]


def dyadic_model(ell, p, drop=None, flip=False):
    """The rule at 2, written out branch by branch, with the branch `drop`
    left out, or with ell = -p mod 8 flipped to ell = p mod 8 for v(z) > 0."""
    if p % 16 == 1:
        return frozenset({ZERO})
    ys = []
    if drop != "v(z) < 0" and ell % 8 == 1:
        ys += [1, -1]
    if drop != "v(z) > 0" and (ell - p if flip else ell + p) % 8 == 0:
        ys += [1, -1]
    if p % 4 == 3:
        if drop != "p = 3 mod 4" and ell % 2 == 0 and (ell // 2 - (1 - p) // 2) % 8 == 0:
            ys += [1, -1]
    elif p % 8 == 5:
        if drop != "p = 5 mod 8" and ell % 2 and (ell - (1 - p) // 4) % 4 == 0:
            ys += [2, -2]
    elif drop != "p = 9 mod 16" and ell % 2 == 0:
        ys += [2, -2]
    return frozenset(hilbert2(y, p, 2)[1] for y in ys)


class TestDyadicRule:
    """The image at 2 by its closed rule against a complete walk of the
    lifting tree, on one twist of every class pair it depends on."""

    def test_rows_cover_every_class_pair(self):
        classes = [dyadic_class(*row) for row, _, _ in dyadic_rows()]
        assert len(classes) == len(set(classes)) == 2 * 8 * 8
        assert {ended for _, _, ended in dyadic_rows()} == {True, False}

    def test_rule_matches_the_walk(self):
        assert dyadic_mismatches(lambda ell, p: image_or_empty(TwistParams(ell, p), 2)) == []
        assert dyadic_mismatches(dyadic_model) == []

    @pytest.mark.parametrize("mutant", [
        partial(dyadic_model, drop="v(z) < 0"),
        partial(dyadic_model, drop="v(z) > 0"),
        partial(dyadic_model, drop="p = 3 mod 4"),
        partial(dyadic_model, drop="p = 5 mod 8"),
        partial(dyadic_model, drop="p = 9 mod 16"),
        partial(dyadic_model, flip=True),
    ], ids=["no v(z) < 0", "no v(z) > 0", "no p 3 mod 4", "no p 5 mod 8", "no p 9 mod 16",
            "ell = p mod 8"])
    def test_the_rows_refute_a_mutated_rule(self, mutant):
        assert dyadic_mismatches(mutant)


def test_rl_verify_at_a_61_bit_prime_ell(capsys):
    # ell = 2^61 - 1 is prime: at q = ell the rules need no lifting tree,
    # whose nodes have ell children each.  The points are obstructed (1/2 at
    # 2 only) and the sections are not, so the status is ok
    start = time.perf_counter()
    code, out = rl_verify(capsys, 2**61 - 1, 5)
    assert (code, out["status"]) == (0, "ok")
    points, forced = out["result"]["point_analysis"], out["result"]["forced_analysis"]
    assert points["contributions"] == {"2": ["1/2"], "2305843009213693951": ["0"], "5": ["0"],
                                       "infinity": ["0"]}
    assert (points["verdict"], forced["verdict"]) == ("obstructed", "unobstructed")
    assert time.perf_counter() - start < 2


def test_each_place_is_proven_prime_once_for_all_samples(monkeypatch, capsys):
    # a place is built once and handed to every point lifted there, so the
    # primality proofs of p do not grow with the number of points lifted
    p = 18446744073709553681
    calls, proving = [], exact.is_probable_prime

    def counting(n):
        calls.append(n)
        return proving(n)

    for module in (exact, padic, symbols, tower, reichardt_lind, elkies):
        if getattr(module, "is_probable_prime", None) is proving:
            monkeypatch.setattr(module, "is_probable_prime", counting)
    tw, place = TwistParams(2, p), as_place(p)
    counts = []
    for points in (1, 20):
        calls.clear()
        assert len(list(itertools.islice(local_points(tw, place), points))) == points
        counts.append(calls.count(p))
    assert counts == [0, 0]
    code, out = rl_verify(capsys, 2, p)
    assert (code, out["status"]) == (0, "obstructed") and calls.count(p) > 0


def certify_at_16(place, chart, y0, z0, t_y, t_z, digits, *polys):
    """`oracles.certify` at 16 digits, the fixed precision the twists'
    points were lifted at before their depth bound was, as integers."""
    return oracles.integer_point(
        oracles.certify(None, place.prime, chart, y0, z0, t_y, t_z, 16, *polys))


def test_point_obstruction_matches_lifting_at_16(monkeypatch):
    # every odd prime p < 2000 prime to ell, for six ell: the rule's image
    # at 2 is that of a complete walk of the lifting tree with its points
    # lifted at 16 digits where the walk ends, and holds it where the tree
    # is alive at the depth bound (p = 1 mod 16)
    monkeypatch.setattr(oracles, "_certify", certify_at_16)
    kinds, two = set(), as_place(2)
    for ell in (2, -2, 3, 6, 7, -7):
        for p in reichardt_lind.primes_up_to(2000)[1:]:
            if ell % p:
                tw = TwistParams(ell, p)
                rule = image_or_empty(tw, two)
                walked, ended = oracles.local_image(tw, two)
                assert rule == walked if ended else walked <= rule, (ell, p)
                kinds.add((ended, len(rule)))
    assert kinds == {(True, 0), (True, 1), (True, 2), (False, 1)}


def test_only_kept_branches_are_lifted(monkeypatch):
    # rl verify --ell 2 --p 1000721: p = 1 mod 16 is a 4th power in Q_2,
    # and the rule at p is checked on the one point (y, 1), 2y^2 = 1 - p,
    # so its y is the only value lifted: from a square root of 1/2 mod p,
    # to one digit
    hensel_root, lifted = reichardt_lind.hensel_root, []

    def recording_root(coeffs, start, q, n):
        lifted.append((coeffs, start, q, n))
        return hensel_root(coeffs, start, q, n)

    monkeypatch.setattr(reichardt_lind, "hensel_root", recording_root)
    tw = TwistParams(2, 1000721)
    for place in tw.bad_places:
        reichardt_lind.local_image(tw, place)
    (coeffs, start, q, n), = lifted
    assert (coeffs, q, n) == ([1000720, 0, 2], 1000721, 1)
    assert (2 * start * start - 1) % q == 0


def test_rl_verify_lifts_at_most_one_node_at_p(monkeypatch, capsys):
    # rl verify calls hensel_root once, at p, when ell is a square mod p
    # and every place before p has points, and otherwise never: at
    # 2^64 + 2065, and on every small twist
    hensel_root, lifts = reichardt_lind.hensel_root, []

    def counting_root(coeffs, start, q, n):
        lifts.append(q)
        return hensel_root(coeffs, start, q, n)

    p = 18446744073709553681
    monkeypatch.setattr(reichardt_lind, "hensel_root", counting_root)
    code, out = rl_verify(capsys, 2, p)
    assert (code, out["status"]) == (0, "obstructed")
    assert lifts == [p]
    counts = set()
    for tw in small_twists():
        reached = all(image_or_empty(tw, v) for v in tw.bad_finite_places if v.prime < tw.p)
        square = pow(tw.ell, (tw.p - 1) // 2, tw.p) == 1
        lifts.clear()
        rl_verify(capsys, tw.ell, tw.p)
        assert lifts == ([tw.p] if reached and square else []), tw
        counts.add((reached, square))
    assert counts == {(True, True), (True, False), (False, True), (False, False)}


def test_refused_branches_are_not_lifted(monkeypatch):
    # the lifting tree of (2, 1000721) at p: the certified nodes with
    # y0 = 0 would give points with y = 0 and are refined without reaching
    # `_certify`, so its first point takes one call, lifted once; lifted at
    # 16 digits it is the same point mod p, and its invariant is the image
    # of the rule
    certified, lifts = [], []
    certify, hensel_root = oracles._certify, oracles.padic_hensel_root

    def recording_certify(place, chart, y0, *rest):
        certified.append(y0)
        return certify(place, chart, y0, *rest)

    def recording_root(*args):
        lifts.append(certified[-1] if certified else None)
        return hensel_root(*args)

    monkeypatch.setattr(oracles, "_certify", recording_certify)
    monkeypatch.setattr(oracles, "padic_hensel_root", recording_root)
    tw = TwistParams(2, 1000721)
    pt = local_point(tw, tw.p)
    assert len(certified) == 1 and 0 not in certified
    assert len(lifts) == 1 and None not in lifts and 0 not in lifts
    monkeypatch.setattr(oracles, "_certify", certify_at_16)
    assert local_point(tw, tw.p).y % tw.p == pt.y % tw.p
    assert reichardt_lind.local_image(tw, tw.p) == {hilbert2(pt.y, tw.p, tw.p)[1]}


REMOVED_FROM_THE_LIBRARY = {
    "local_points", "local_point", "_nodes", "_chart_points", "residue_zeros", "_lift_children",
    "_certify", "_residue_valuation", "_depth_bound", "_REAL_PRECISION", "LocalPoint", "NoPoint",
    "verify_local_point", "_chart",
}


def test_the_library_defines_no_lifting_tree():
    # every place of rl verify is decided by rule: no module of the package
    # defines or exports the search, which `oracles` keeps, and
    # reichardt_lind imports no InsufficientPrecision
    defined, imported = set(), set()
    for path in Path(reichardt_lind.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Assign):
                defined |= {t.id for t in node.targets if isinstance(t, ast.Name)}
            elif isinstance(node, ast.ImportFrom) and path.stem == "reichardt_lind":
                imported |= {alias.name for alias in node.names}
    assert defined & REMOVED_FROM_THE_LIBRARY == set()
    assert REMOVED_FROM_THE_LIBRARY.isdisjoint(reichardt_lind.__all__)
    assert "InsufficientPrecision" not in imported
    assert REMOVED_FROM_THE_LIBRARY <= set(vars(oracles))


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
    return oracles.residue_zeros(ell, a, b, q)


def test_residue_zeros_match_the_fourth_root_table():
    # every prime q < 2000 (q = 2 included) on both charts, and the z-free
    # branch: the far chart with q | p
    branches = set()
    for q in reichardt_lind.primes_up_to(2000):
        for ell, p, chart in ((2, 17, "near"), (-3, -7, "far"), (11, 5 * q, "far")):
            a, b = (1, -p) if chart == "near" else (-p, 1)
            zeros = list(oracles.residue_zeros(ell, a, b, q))
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
    monkeypatch.setattr(oracles, "_least_nonresidue", counting)
    for q in reichardt_lind.primes_up_to(1000)[1:]:
        searches.clear()
        zeros = list(oracles.residue_zeros(2, 1, -17, q))
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
                    got = oracles._lift_children(y0, z0, c0, gy, gz, q, step)
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
