"""The integer-residue paths of the cubic stack against the Fraction
computations they replaced (kept in `oracles`): cube classes read off
(a, b) mod 27 against pi-digit expansions, the closed-form K/k norm against
the product of conjugates and the Fraction evaluation, the finite-field identity checks against exact
evaluation over K, and the norm -10 search against the full loop."""

import itertools
import random
import time
from fractions import Fraction
from functools import lru_cache

import pytest

import oracles
from localglobal import cubic
from localglobal.cubic import ONE, PI, ZETA, Eisenstein, express
from localglobal.exact import CertificateError
from localglobal.tower import (
    GAMMA,
    KElement,
    _curve_points,
    _embed,
    _embed_polynomial,
    _embedding_data,
    _resolvent_parts,
    curve_identity_suite,
    gamma_search,
    norm_K_over_k,
    sigma,
)

UNIT_RESIDUES = [(a, b) for a in range(27) for b in range(27) if (a + b) % 3]


@lru_cache(maxsize=1)
def oracle_unit_classes() -> dict:
    return {(a, b): oracles.express(Eisenstein(a, b)) for a, b in UNIT_RESIDUES}


def unit_mismatches() -> list:
    expected = oracle_unit_classes()
    return [r for r in UNIT_RESIDUES if express(Eisenstein(*r)) != expected[r]]


# ------------------------------------------------------------ cube classes
def test_express_matches_pi_digits_on_every_residue_times_pi_powers():
    for e in range(-3, 6):
        scale = PI**e
        for a, b in UNIT_RESIDUES:
            x = scale * Eisenstein(a, b)
            assert express(x) == oracles.express(x), (e, a, b)


@pytest.mark.parametrize("den", [5, 7, 25, 3, 9, 27, 81])
def test_express_matches_pi_digits_on_seeded_fractions(den):
    rng = random.Random(den)
    for _ in range(150):
        x = Eisenstein(
            Fraction(rng.randrange(-2000, 2001), den),
            Fraction(rng.randrange(-2000, 2001), rng.choice((1, den))),
        )
        if not x.is_zero:
            assert express(x) == oracles.express(x), x


def test_the_table_has_the_oracles_structure():
    assert len(cubic._cube_keys_mod_pi5()) == len(oracles.cube_residues_mod_pi5()) == 6
    assert len(oracles.unit_class_table()) == 162
    # the residue mod pi^5 names the same partition as the first five pi-digits
    by_key: dict = {}
    for a, b in itertools.product(range(27), repeat=2):
        digits = oracles.pi_digits(Eisenstein(a, b), 5)
        assert by_key.setdefault(cubic._key_mod_pi5((a, b)), digits) == digits, (a, b)
    assert len(by_key) == 243


def test_a_table_with_one_entry_changed_is_caught(monkeypatch):
    assert unit_mismatches() == []
    table = cubic._unit_class_table()
    rng = random.Random(3)
    for a, b in rng.sample(UNIT_RESIDUES, 5):
        index = 27 * a + b
        e1, e2, e3 = table[index]
        mutant = list(table)
        mutant[index] = (e1, e2, (e3 + 1) % 3)
        monkeypatch.setattr(cubic, "_unit_class_table", lambda: tuple(mutant))
        assert unit_mismatches() == [(a, b)]
    monkeypatch.undo()
    assert unit_mismatches() == []


def test_the_table_checks_fire(monkeypatch):
    # residues mod pi^3 ({3 | a, 9 | a + b}) instead of pi^5: the cube count is wrong
    monkeypatch.setattr(cubic, "_key_mod_pi5", lambda x: (x[0] % 3, (x[0] + x[1]) % 9))
    with pytest.raises(CertificateError, match="cube residues"):
        cubic._cube_keys_mod_pi5()
    monkeypatch.undo()
    # dependent generators reach some residues twice: the collision check fires
    monkeypatch.setattr(cubic, "_UNIT_GENERATORS", (ZETA, ZETA, ONE + PI**3))
    cubic._unit_class_table.cache_clear()
    try:
        with pytest.raises(CertificateError, match="collision"):
            cubic._unit_class_table()
    finally:
        monkeypatch.undo()
        cubic._unit_class_table.cache_clear()
    assert unit_mismatches() == []


def test_hilbert3_reads_the_class_of_a_once(monkeypatch):
    expected = cubic.cube_class_group().hilbert3(2, 3)
    calls = []
    real = cubic.express
    monkeypatch.setattr(cubic, "express", lambda x: calls.append(x) or real(x))
    assert cubic.hilbert3(2, 3) == expected
    assert len(calls) == 2
    calls.clear()
    assert cubic.hilbert3(10, 2).is_zero  # 10 is a cube: b is not expressed
    assert len(calls) == 1


# ------------------------------------------------------------- K/k norms
def random_k_element(rng):
    def coord():
        return Eisenstein(
            Fraction(rng.randint(-20, 20), rng.choice((1, 1, 2, 3, 5, 7))),
            Fraction(rng.randint(-20, 20), rng.choice((1, 1, 2, 3, 5, 7))),
        )

    return KElement(coord(), coord(), coord())


def test_closed_norm_matches_the_oracle_and_the_conjugate_product():
    rng = random.Random(61)
    for _ in range(300):
        x = random_k_element(rng)
        norm = norm_K_over_k(x)
        assert norm.coeffs == oracles.k_closed_norm(tuple(c.coeffs for c in x.coeffs)), x
        product = x * sigma(x) * sigma(sigma(x))
        assert product.is_cyclo and product.c0 == norm, x


@pytest.mark.parametrize("denominators", [(1, 2, 3, 5), (3, 9, 27), (1, 1, 27, 7, 9)])
def test_integer_pair_norm_matches_the_fraction_oracle(denominators):
    rng = random.Random(sum(denominators))

    def coord():
        return Eisenstein(*(Fraction(rng.randint(-30, 30), rng.choice(denominators)) for _ in "ab"))

    for _ in range(150):
        x = KElement(coord(), coord(), coord())
        norm = norm_K_over_k(x)
        assert norm == oracles.norm_K_over_k(x), x
        assert all(type(c) is Fraction for c in norm.coeffs), x


def test_integer_pair_norm_of_units_and_zero():
    for x in (KElement.of(0), KElement.of(1), KElement.of(Fraction(1, 27)), GAMMA * Fraction(2, 9)):
        assert norm_K_over_k(x) == oracles.norm_K_over_k(x)
    assert norm_K_over_k(GAMMA * Fraction(1, 3)) == Eisenstein.of(Fraction(-10, 27))


def test_gamma_search_matches_the_oracle_at_bound_one():
    assert gamma_search(1) == oracles.gamma_search(1)


def test_gamma_search_at_bound_two_is_fast():
    start = time.perf_counter()
    found = gamma_search(2)
    took = time.perf_counter() - start
    assert len(found) == 18 and GAMMA in found
    assert all(norm_K_over_k(g) == Eisenstein.of(-10) for g in found)
    assert took < 0.2, took


# ----------------------------------------------- identities over F_p
def test_embedded_polynomials_match_exact_evaluation_at_the_suite_points():
    num, den, forms, *_ = _resolvent_parts()
    snum, sden = num.apply_sigma(), den.apply_sigma()
    polys = list(forms) + [num, den, snum, sden, snum.apply_sigma(), sden.apply_sigma()]
    report = curve_identity_suite()
    assert report.primes == (37, 139, 163)
    for p in report.primes:
        zeta, eps = _embedding_data(p)
        embedded = [_embed_polynomial(f, p, zeta, eps) for f in polys]
        visited = report.points_checked[p] + report.points_excluded[p]
        points = list(itertools.islice(_curve_points(p), visited))
        assert len(points) == visited
        for x, y, z in points:
            for f, at in zip(polys, embedded):
                assert at(x, y, z) == _embed(f.evaluate(x, y, z), p, zeta, eps), (p, x, y, z)
