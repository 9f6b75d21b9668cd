"""Differential tests: the closed-form power-class labels and norm symbols
against the enumerating oracles in `oracles.py`."""

import json
import random
from fractions import Fraction

import oracles
import pytest

from localglobal import cli, symbols
from localglobal.exact import primes_up_to
from localglobal.reichardt_lind import density_experiment
from oracles import _canonical_unit_label, _unit_label_digits
from oracles import closed_is_local_norm as is_local_norm

PRIMES_2000 = primes_up_to(2000)


def _primitive_root(p: int) -> int:
    factors = {q for q in primes_up_to(p) if (p - 1) % q == 0}
    return next(g for g in range(2, p) if all(pow(g, (p - 1) // q, p) != 1 for q in factors))


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_labels_match_the_coset_minimum(n):
    rng = random.Random(n)
    for p in PRIMES_2000:
        labels = oracles.coset_labels(p, n)
        mod = p ** _unit_label_digits(p, n)
        if p < 400:
            units = range(1, mod)
        else:
            units = set(labels.values()) | {rng.randrange(1, mod) for _ in range(8)}
        for u in units:
            if u % p:
                assert _canonical_unit_label(u, n, p) == labels[u], (p, n, u)


def test_every_label_at_two_and_three():
    for p, ns in ((2, (2, 3, 4, 6, 8)), (3, (2, 3, 4, 6, 9))):
        for n in ns:
            for u, label in oracles.coset_labels(p, n).items():
                assert _canonical_unit_label(u, n, p) == label, (p, n, u)


def _d_values(p: int, m: int) -> list[Fraction]:
    """A representative of every class of Q_p*/(Q_p*)**m, each with
    valuation 0..3 and both signs."""
    if p == 2:
        units = [1, 3, 5, 7, 9, 11, 13, 15]
    else:
        g = _primitive_root(p)
        units = [pow(g, i, p) for i in range(m)]
    return [Fraction(sign * u * p**b) for u in units for b in range(4) for sign in (1, -1)]


def _class_values(p: int, m: int) -> list[Fraction]:
    """One rational in every class of Q_p*/(Q_p*)**m."""
    labels = set(oracles.coset_labels(p, m).values())
    return [Fraction(u * p**v) for u in sorted(labels) for v in range(m)]


@pytest.mark.parametrize("m", [2, 3, 4])
def test_is_local_norm_exhaustive_below_200(m):
    for p in primes_up_to(200):
        xs = _class_values(p, m)
        for d in _d_values(p, m):
            for x in xs:
                assert is_local_norm(x, p, m, d) == oracles.is_local_norm(x, p, m, d), (x, p, m, d)


def test_is_local_norm_on_drawn_cases():
    rng = random.Random(2000)

    def unit(p, bound):
        return next(u for u in iter(lambda: rng.randrange(1, bound), None) if u % p)

    for _ in range(1500):
        p = rng.choice(PRIMES_2000)
        m = rng.choice((2, 3, 4))
        d = rng.choice((1, -1)) * unit(p, 5 * p) * Fraction(p) ** rng.randrange(4)
        x = Fraction(rng.choice((1, -1)) * unit(p, 10**6), unit(p, 100))
        x *= Fraction(p) ** rng.randrange(-3, 4)
        assert is_local_norm(x, p, m, d) == oracles.is_local_norm(x, p, m, d), (x, p, m, d)


def test_twist_search_to_100000_counts_every_valid_twist(capsys):
    assert cli.main(["rl", "search", "--ell", "2", "--max-prime", "100000"]) == 0
    twists = json.loads(capsys.readouterr().out)["result"]["twists"]
    assert len(twists) == density_experiment(2, 10**5).valid_count == 1202


def _minus_square_d_values(p: int) -> list[Fraction]:
    """d = -s^2 for several square classes of s and valuations 0..3 of s:
    -d is a square and d is not, since -1 is not a square at these p."""
    units = (1, 3, 5, 7) if p == 2 else (1, 2, p - 1)
    return [-Fraction(u * p**b) ** 2 for u in units for b in range(4) if u % p]


def test_the_square_root_matches_the_hensel_root():
    """b = 2s from the residue of -d against b from a Hensel square root of
    -d: the same valuation and unit residue up to the sign of s, at p = 2
    and every p = 3 mod 4 below 2000, for s of valuation -2 to 3."""
    for p in (q for q in PRIMES_2000 if q == 2 or q % 4 == 3):
        for d in (e / p**j for e in _minus_square_d_values(p) for j in (0, 4)):
            b, old = 2 * oracles._square_root(-d, p), oracles.biquadratic_two_s(d, p)
            assert {symbols._vu(b, p), symbols._vu(-b, p)} == {symbols._vu(old, p), symbols._vu(-old, p)}, (p, d)


def test_is_local_norm_biquadratic_branch(monkeypatch):
    """At p = 2 and every p = 3 mod 4 below 2000, d = -s^2 goes through the
    two Hilbert symbols of Q_p(i, sqrt(2s)); the oracle samples the norm
    subgroup instead.  Every class of x below 200, seeded x above."""
    rng = random.Random(4)
    roots = []

    def spy(*args):
        roots.append(args)
        return square_root(*args)

    square_root = oracles._square_root
    monkeypatch.setattr(oracles, "_square_root", spy)
    cases = 0
    for p in (q for q in PRIMES_2000 if q == 2 or q % 4 == 3):
        if p < 200:
            xs = _class_values(p, 4)
        else:
            xs = [Fraction(rng.choice((1, -1)) * rng.randrange(1, 10**6) * p**rng.randrange(4),
                           rng.randrange(1, p)) for _ in range(8)]
        for d in _minus_square_d_values(p):
            for x in xs:
                calls = len(roots)
                assert is_local_norm(x, p, 4, d) == oracles.is_local_norm(x, p, 4, d), (x, p, d)
                assert len(roots) == calls + 1, (x, p, d)
                cases += 1
    assert cases > 15000
