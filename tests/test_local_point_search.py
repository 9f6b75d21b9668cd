"""The linear-time local point search against the quadratic one it replaced.

`reichardt_lind.local_point` draws the depth-1 residue points lazily from
`residue_zeros` and lifts each node by one linear congruence;
`oracles.local_point` tries every residue pair and every one of the q^2
children.  Both must visit the same frontiers in the same order, so they
return the same point (to full precision), the same `NoPoint` depth, or
raise the same exception.  When q^4 divides the constant, the library
searches the curve with the constant divided by q^(4k) and maps the point
back; the oracle is run on that same curve and its point mapped back here.
The oracle starts each Hensel lift from `PadicNumber.from_int` values and
the library from the integer residue at the same absolute precision, so
the points are compared on (is_zero, v, unit, prec) of both coordinates.
"""

import json
import math
import random
import time

import pytest

import oracles
from localglobal import cli, exact, reichardt_lind
from localglobal.exact import split_prime_power
from localglobal.padic import InsufficientPrecision
from localglobal.reichardt_lind import (
    CurveEquation,
    LocalPoint,
    NoPoint,
    TwistParams,
    local_point,
    verify_local_point,
)

ELLS = (1, -1, 2, -2, 3, 5, 6, 10, 11, 19)
SMALL_Q = (2, 3, 5, 7, 11, 13)


def chart_polynomial(ell, p, chart):
    """The chart's integer polynomial g(y, z) and its z-derivative."""
    if chart == "near":
        return (lambda y, z: ell * y * y - z**4 + p), (lambda z: -4 * z**3)
    return (lambda y, z: ell * y * y - 1 + p * z**4), (lambda z: 4 * p * z**3)


def _padic_key(x):
    return (x.is_zero, x.v, x.unit, x.prec)


def outcome(search, eq, q, precision, allow_y_zero, variant):
    try:
        pt = search(eq, q, precision, allow_y_zero=allow_y_zero, variant=variant)
    except Exception as exc:  # noqa: BLE001 - the type is compared
        return ("raises", type(exc))
    if isinstance(pt, NoPoint):
        return ("no point", pt.place, pt.depth)
    return ("point", pt.place, pt.chart, pt.precision, _padic_key(pt.y), _padic_key(pt.z))


def rescaled(search):
    """`search` on ell*y^2 = z^4 - p/q^(4k), q^(4k) the largest such power
    dividing p, with a point mapped back: (q^(2k) y, q^k z) on the near
    chart, (y, z/q^k) on the far chart."""
    def run(eq, q, precision, **options):
        k = split_prime_power(eq.p, q)[0] // 4
        if not k:
            return search(eq, q, precision, **options)
        pt = search(CurveEquation(eq.ell, eq.p // q ** (4 * k)), q, precision, **options)
        if isinstance(pt, NoPoint):
            return pt
        s = q**k
        y, z = (pt.y * (s * s), pt.z * s) if pt.chart == "near" else (pt.y, pt.z / s)
        return LocalPoint(pt.place, y, z, pt.precision, pt.chart)

    return run


def _grid():
    """Seeded cases (ell, p, q, precision, allow_y_zero, variant).

    The fixed part puts q | ell, q = 2 (where ell = 1, p = -7 has only
    far-chart points) and q | p with v_q(p) = 1, 2, 3 (odd and even q,
    both signs) on every variant; the drawn part adds random constants,
    a few larger good primes and v_q(p) up to 3.
    """
    cases = []
    for ell, q in ((3, 3), (6, 3), (10, 5), (5, 5), (11, 11), (2, 2), (6, 2), (-2, 2), (1, 2)):
        for p in (1, 7, -7, 17, -17, 97):
            if math.gcd(ell, p) == 1:
                cases += [(ell, p, q, 8, y0, var) for y0 in (False, True) for var in (0, 1, 3)]
    for q in (2, 3, 5, 7):
        for v in (1, 2, 3):
            for ell in (1, -1, 2, 3, 5, 11):
                for u in (1, -1, 3, -5):
                    p = u * q**v
                    if math.gcd(ell, p) == 1:
                        cases += [(ell, p, q, 8, y0, var) for y0 in (False, True) for var in (0, 1, 3)]
    rng = random.Random(20091028)
    while len(cases) < 1400:
        ell = rng.choice(ELLS)
        q = rng.choice(SMALL_Q) if rng.random() < 0.85 else rng.choice((17, 19, 23, 29, 31, 41))
        p = rng.choice((1, -1)) * rng.randrange(1, 300) * q ** (rng.choice((0, 0, 1, 2, 3)) if q < 17 else 0)
        if math.gcd(ell, p) != 1:
            continue
        cases.append((ell, p, q, rng.choice((6, 12)), rng.random() < 0.3, rng.choice((0, 0, 1, 3))))
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
    for ell, p, q, precision, allow_y_zero, variant in _grid():
        eq = CurveEquation(ell, p)
        fast = outcome(local_point, eq, q, precision, allow_y_zero, variant)
        slow = outcome(rescaled(oracles.local_point), eq, q, precision, allow_y_zero, variant)
        kinds.add(fast[0] if fast[0] != "point" else (fast[2], "q | p" if p % q == 0 else "q ∤ p"))
        if fast != slow:
            mismatches.append(((ell, p, q, precision, allow_y_zero, variant), fast, slow))
    assert mismatches == []
    # a unit g_y certifies its node at depth 1, so only the lifting test
    # below reaches that branch
    assert {"near", "far", "far, q | p"} <= seen
    assert {
        ("g_z unit", "q odd"), ("singular, q | c0", "q odd"), ("singular, dead", "q odd"),
        ("singular, q | c0", "q = 2"), ("singular, dead", "q = 2"),
    } <= seen
    # no case raises: the only ones that did were p = 3^4 with y = 0
    # allowed, see test_fourth_power_constant_with_y_zero
    assert {("near", "q | p"), ("far", "q | p"), ("far", "q ∤ p"), "no point"} <= kinds


def test_every_variant_matches_the_quadratic_oracle():
    # a branch that variant passes by is counted from its residues and not
    # lifted; the oracle lifts every branch, so both must skip the same ones
    mismatches = []
    for ell, p, q, precision, allow_y_zero in sorted({case[:5] for case in _grid()}):
        eq = CurveEquation(ell, p)
        for variant in range(6):
            fast = outcome(local_point, eq, q, precision, allow_y_zero, variant)
            slow = outcome(rescaled(oracles.local_point), eq, q, precision, allow_y_zero, variant)
            if fast != slow:
                mismatches.append(((ell, p, q, precision, allow_y_zero, variant), fast, slow))
    assert mismatches == []


def test_counted_branches_are_those_that_lift(monkeypatch):
    # with the residue count switched off every certified branch is lifted
    # and skipped only if it gives a point.  Over Q_2 at precision 2, a
    # branch with n = 2t (y0 = 2 mod 4 on 3y^2 = z^4 - 13) must not be
    # counted: it raises, and the search ends inconclusive, from variant 16 on
    cases = [(ell, p, precision, variant) for ell in (3, 11, -5) for p in (13, 29, 7, -43)
             for precision in (2, 3, 4) for variant in range(21)]

    def outcomes():
        return [outcome(local_point, CurveEquation(ell, p), 2, precision, False, variant)
                for ell, p, precision, variant in cases]

    counted = outcomes()
    monkeypatch.setattr(reichardt_lind, "_lifts_to_a_point", lambda *args: False)
    assert counted == outcomes()
    assert counted[cases.index((3, 13, 2, 16))] == ("raises", InsufficientPrecision)


RL_VERIFY_TWISTS = ((2, 17), (-2, 113), (2, 31), (-1, 17), (3, 13), (-6, 97), (11, 29), (19, 41))


@pytest.mark.parametrize("ell, p", RL_VERIFY_TWISTS)
def test_rl_verify_matches_the_quadratic_chart_search(monkeypatch, capsys, ell, p):
    # six samples are variants 0-5 at every bad place; points and report
    # agree with the search that lifts every certified branch
    tw = TwistParams(ell, p)

    def report():
        code = cli.main(["rl", "verify", "--ell", str(ell), "--p", str(p), "--samples", "6"])
        out = json.loads(capsys.readouterr().out)
        out.pop("timings")
        return code, out, [outcome(local_point, tw, v.prime, 16, False, k)
                           for v in tw.bad_finite_places for k in range(6)]

    fast = report()
    monkeypatch.setattr(reichardt_lind, "_chart_search", oracles.chart_search)
    assert fast == report()


def test_only_kept_branches_are_lifted(monkeypatch):
    # rl verify --ell 2 --p 1000721: 20 samples at the finite places 2 and
    # p.  Each sample lifts the one branch it keeps; the only other lifts
    # are the branches with y0 = 0 (whose points, y = 0, are refused)
    lifted = []
    certify = reichardt_lind._certify

    def recording_certify(tw, q, chart, y0, *rest):
        lifted.append(y0 != 0)
        return certify(tw, q, chart, y0, *rest)

    monkeypatch.setattr(reichardt_lind, "_certify", recording_certify)
    tw = TwistParams(2, 1000721)
    for variant in range(20):
        reichardt_lind.point_obstruction(tw, variant=variant)
    assert lifted.count(True) == 40


def test_refused_branches_are_not_lifted(monkeypatch, capsys):
    # rl verify --ell 2 --p 1000721 certifies 116 nodes; the 76 with y0 = 0
    # would give points with y = 0 and are refused before any Hensel lift,
    # so the 40 lifts are those of the kept branches, and the report is the
    # one of a certify that lifts every node first
    def report():
        code = cli.main(["rl", "verify", "--ell", "2", "--p", "1000721"])
        out = json.loads(capsys.readouterr().out)
        out.pop("timings")
        return code, out

    certified, lifts = [], []
    certify, hensel_root = reichardt_lind._certify, reichardt_lind.hensel_root

    def recording_certify(tw, q, chart, y0, *rest):
        certified.append(y0)
        return certify(tw, q, chart, y0, *rest)

    def recording_root(*args):
        lifts.append(certified[-1] if certified else None)
        return hensel_root(*args)

    monkeypatch.setattr(reichardt_lind, "_certify", recording_certify)
    monkeypatch.setattr(reichardt_lind, "hensel_root", recording_root)
    fast = report()
    assert (len(certified), certified.count(0)) == (116, 76)
    assert len(lifts) == 40 and None not in lifts and 0 not in lifts
    monkeypatch.setattr(reichardt_lind, "_certify", oracles.certify)
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
    [(CurveEquation(2, 17), 100003), (TwistParams(2, 100049), 100049)],
    ids=["good prime 100003", "bad prime 100049"],
)
def test_point_at_a_prime_near_ten_to_the_five(eq, q):
    started = time.perf_counter()
    pt = local_point(eq, q)
    elapsed = time.perf_counter() - started
    assert isinstance(pt, LocalPoint)
    assert verify_local_point(eq, pt)
    assert not pt.y.is_zero
    assert elapsed < 5, f"{elapsed:.2f} s: the search is not linear in q"


def test_points_of_a_twist_at_a_64_bit_prime():
    # the depth-1 zeros are drawn lazily: a table of fourth roots mod p
    # would need 2^64 entries
    tw = TwistParams(2, 2**64 + 2065)
    started = time.perf_counter()
    for variant in (0, 5):
        pt = local_point(tw, tw.p, variant=variant)
        assert isinstance(pt, LocalPoint) and verify_local_point(tw, pt)
    assert time.perf_counter() - started < 5


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("v", [4, 5])
def test_fourth_power_constants_keep_point_existence(q, v):
    """With q^4 | p the library searches the rescaled curve; the oracle
    searches the original one.  Wherever the oracle decides, the two agree
    on whether a point exists, and every point found is on the original
    curve."""
    decided = set()
    for ell in (1, -1, 2, -2, 3, -3, 5, 6, 7, 11):
        for u in (1, -1, 3, -3, 5, -5, 7, 11, -13):
            if math.gcd(ell, u * q) != 1:
                continue
            eq = CurveEquation(ell, u * q**v)
            pt = local_point(eq, q)
            if isinstance(pt, LocalPoint):
                assert verify_local_point(eq, pt), (ell, u)
            try:
                expected = oracles.local_point(eq, q)
            except InsufficientPrecision:
                continue
            assert isinstance(pt, LocalPoint) == isinstance(expected, LocalPoint), (ell, u)
            decided.add(type(expected))
    assert decided == {LocalPoint, NoPoint}


def test_constant_with_a_fourth_power_of_31():
    # the residue (0, 0) of the original curve grows 31^2 children a level
    eq = CurveEquation(6, 5 * 31**4)
    started = time.perf_counter()
    pt = local_point(eq, 31)
    elapsed = time.perf_counter() - started
    assert isinstance(pt, LocalPoint) and verify_local_point(eq, pt)
    assert elapsed < 5, f"{elapsed:.2f} s"


def test_fourth_power_constant_with_y_zero():
    # 81 = 3^4 has the point (0, 3); the search used to look for a fourth
    # root of 81 among the 3-adic units and raise StopIteration
    eq = CurveEquation(1, 81)
    pt = local_point(eq, 3, 8, allow_y_zero=True)
    assert isinstance(pt, LocalPoint) and verify_local_point(eq, pt)
    assert pt.y.is_zero and pt.z.valuation() == 1


@pytest.mark.parametrize("precision", [1, 2])
def test_precision_below_the_derivative_valuation_is_insufficient(precision):
    # over Q_2 every certified branch of 2y^2 = z^4 - 17 lifts along a
    # derivative of valuation 2, which 1 or 2 digits cannot show
    with pytest.raises(InsufficientPrecision, match="cannot show a derivative"):
        local_point(TwistParams(2, 17), 2, precision)


def test_uncertifiable_branches_are_not_refined(monkeypatch):
    # at precision 3 every certified branch over Q_2 needs more than
    # 2t = 4 digits; the first such branches are the 2^6 zeros mod 2^5,
    # and none of their descendants is tried again
    calls = []
    certify = reichardt_lind._certify

    def counting_certify(*args):
        calls.append(args)
        return certify(*args)

    monkeypatch.setattr(reichardt_lind, "_certify", counting_certify)
    with pytest.raises(InsufficientPrecision, match="3 digits over Q_2"):
        local_point(TwistParams(2, 17), 2, precision=3)
    assert 0 < len(calls) <= 2**6


def _real_point_cases():
    # the same (ell, p) as TwistParams below 10^5, built as CurveEquation to
    # skip its primality and squarefreeness checks
    big, p = [], 2**64
    while len(big) < 3:
        p += 1
        if reichardt_lind.is_probable_prime(p):
            big.append(p)
    for ell in (1, -1, 2, -2, 3, -3, 6, -6):
        for p in reichardt_lind.primes_up_to(10**5)[1:]:
            if math.gcd(ell, p) == 1:
                yield CurveEquation(ell, p)
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
