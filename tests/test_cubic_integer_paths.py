"""The integer-residue paths of the cubic stack against the Fraction
computations they replaced (kept in `oracles`): cube classes read off
(a, b) mod 27 against pi-digit expansions, the pi-adic valuation against
the norm, the F_3 nullspace read off the echelon form against trying
every vector, the closed-form K/k norm against
the product of conjugates and the Fraction evaluation, the finite-field identity checks against exact
evaluation over K, the norm -10 search against the full loop, and the
flat Z[zeta_3, eps] curve polynomials and descent-value product against
their versions over the generic modulus ring."""

import itertools
import random
import time
from fractions import Fraction
from functools import lru_cache

import pytest

import oracles
from localglobal import cubic
from localglobal.cubic import ONE, PI, ZETA, Eisenstein, express
from localglobal.exact import CertificateError, split_prime_power
from localglobal.symbols import InvariantValue
from localglobal import tower
from localglobal.tower import (
    GAMMA,
    CurvePolynomial,
    KElement,
    _curve_points,
    _embed_flat,
    _embed_polynomial,
    _delta_product,
    _embedding_data,
    _identity_sides,
    _k_product,
    _k_sigma,
    _resolvent_parts,
    curve_identity_suite,
    evaluate_F_symbolic,
    norm_K_over_k,
    sigma,
)

UNIT_RESIDUES = [(a, b) for a in range(27) for b in range(27) if (a + b) % 3]


def pi_power(e: int) -> Eisenstein:
    """pi^e for any integer e, through the oracle's inverse when e < 0."""
    return PI**e if e >= 0 else oracles.eisenstein_inverse(PI) ** -e


@lru_cache(maxsize=1)
def oracle_unit_classes() -> dict:
    return {(a, b): oracles.express(Eisenstein(a, b)) for a, b in UNIT_RESIDUES}


def unit_mismatches() -> list:
    expected = oracle_unit_classes()
    return [r for r in UNIT_RESIDUES if express(Eisenstein(*r)) != expected[r]]


# ------------------------------------------------------------ cube classes
def test_express_matches_pi_digits_on_every_residue_times_pi_powers():
    for e in range(-3, 6):
        scale = pi_power(e)
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


@pytest.mark.parametrize("v", range(-4, 13))
def test_unit_part_matches_division_one_pi_at_a_time(v):
    rng = random.Random(v)
    for a, b in UNIT_RESIDUES[::7]:
        for unit in (Eisenstein(a, b), Eisenstein(Fraction(a, 5), Fraction(-b, rng.choice((1, 7))))):
            x = pi_power(v) * unit
            assert cubic.pi_valuation(x) == v
            assert cubic.unit_part(x) == oracles.unit_part(x), (v, x)


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
    group = cubic.cube_class_group()
    expected = InvariantValue.thirds(group.pairing_of_vectors(express(2), express(3)))
    calls = []
    real = cubic.express
    monkeypatch.setattr(cubic, "express", lambda x: calls.append(x) or real(x))
    assert cubic.hilbert3(2, 3) == expected
    assert len(calls) == 2
    calls.clear()
    assert cubic.hilbert3(10, 2).is_zero  # 10 is a cube: b is not expressed
    assert len(calls) == 1


@pytest.mark.parametrize("den", [1, 2, 3, 9, 10])
def test_pi_valuation_matches_the_norm(den):
    rng = random.Random(den)
    for _ in range(200):
        x = Eisenstein(
            Fraction(rng.randrange(-300, 301), den),
            Fraction(rng.randrange(-300, 301), den * rng.choice((1, 3, 7))),
        )
        if not x.is_zero:
            assert cubic.pi_valuation(x) == split_prime_power(oracles.eisenstein_norm(x.coeffs), 3)[0], x


# ------------------------------------------------------ F_3 nullspaces
def same_span(a, b) -> bool:
    rank = cubic._rank3
    return rank(list(a)) == rank(list(b)) == rank(list(a) + list(b))


def test_nullspace_from_the_echelon_form_spans_the_oracles():
    group = cubic.cube_class_group()
    m = group.pairing_matrix
    for elems in ([2, 3], [60], [PI], [ZETA, ONE + PI * PI], [2, 3, 60]):
        vectors = [express(x) for x in elems]
        rows = [[sum(v[i] * m[i][j] for i in range(4)) % 3 for j in range(4)] for v in vectors]
        assert same_span(group.annihilator(vectors), oracles.nullspace3(rows, 4)), elems
    for sign in (1, -1):
        rows = [
            [(group.tau_matrix[i][j] - (sign % 3) * (i == j)) % 3 for j in range(4)]
            for i in range(4)
        ]
        assert same_span(group.tau_eigenspace(sign), oracles.nullspace3(rows, 4)), sign
    rng = random.Random(12)
    for width in range(1, 7):
        for _ in range(10):
            rows = [[rng.randrange(3) for _ in range(width)] for _ in range(rng.randrange(width + 1))]
            basis, expected = cubic._nullspace3(rows, width), oracles.nullspace3(rows, width)
            assert len(basis) == len(expected) and same_span(basis, expected), rows


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
        assert norm.coeffs == oracles.k_closed_norm(pairs(x)), x
        product = x * sigma(x) * sigma(sigma(x))
        assert not any(product.coeffs[2:]) and product.c0 == norm, x


@pytest.mark.parametrize("denominators", [(1, 2, 3, 5), (3, 9, 27), (1, 1, 27, 7, 9)])
def test_integer_pair_norm_matches_the_fraction_oracle(denominators):
    rng = random.Random(sum(denominators))

    def coord():
        return Eisenstein(*(Fraction(rng.randint(-30, 30), rng.choice(denominators)) for _ in "ab"))

    for _ in range(150):
        x = KElement(coord(), coord(), coord())
        norm, oracle = norm_K_over_k(x), oracles.norm_K_over_k(x)
        assert norm == oracle, x
        assert [type(c) for c in norm.coeffs] == [int if c.denominator == 1 else Fraction for c in oracle.coeffs], x


def test_integer_pair_norm_of_units_and_zero():
    for x in (KElement.of(0), KElement.of(1), KElement.of(Fraction(1, 27)), GAMMA * Fraction(2, 9)):
        assert norm_K_over_k(x) == oracles.norm_K_over_k(x)
    assert norm_K_over_k(GAMMA * Fraction(1, 3)) == Eisenstein.of(Fraction(-10, 27))


def seeded_norm_elements(denominator, count=120):
    """Seeded elements whose coordinates are zero, small or 100-bit, each
    over 1 or `denominator`."""
    rng = random.Random(500 + denominator)

    def coordinate():
        numerator = rng.choice((0, rng.randint(-40, 40), rng.getrandbits(100) - (1 << 99)))
        return Fraction(numerator, rng.choice((1, denominator)))

    return [KElement(*(Eisenstein(coordinate(), coordinate()) for _ in range(3))) for _ in range(count)]


def oracle_determinant(x):
    return oracles.eisenstein(oracles.generic(x).norm())


@pytest.mark.parametrize("denominator", (1, 2, 3, 5, 9, 27))
def test_determinant_norm_matches_the_generic_determinant(denominator):
    for x in seeded_norm_elements(denominator):
        assert x.norm() == oracle_determinant(x), x


@pytest.mark.parametrize("denominator", (1, 2, 3, 5, 9, 27))
def test_closed_norm_matches_its_oracle_against_the_generic_determinant(denominator, monkeypatch):
    # the cross-check runs against the oracle's determinant, so that the
    # closed form is tested on its own, not through the library's determinant
    monkeypatch.setattr(tower.KElement, "norm", oracle_determinant)
    for x in seeded_norm_elements(denominator):
        norm = norm_K_over_k(x)
        assert norm.coeffs == oracles.k_closed_norm(pairs(x)), x


def test_seeded_norm_elements_reach_zero_and_100_bit_coordinates():
    coords = [v for d in (1, 27) for x in seeded_norm_elements(d) for v in x.coeffs]
    assert 0 in coords and max(abs(Fraction(v).numerator) for v in coords).bit_length() >= 99
    assert any(type(v) is Fraction and v.denominator == 27 for v in coords)


def test_gamma_search_matches_the_oracle_at_bound_one():
    assert oracles.integer_gamma_search(1) == oracles.gamma_search(1)


def test_gamma_search_at_bound_two_is_fast():
    start = time.perf_counter()
    found = oracles.integer_gamma_search(2)
    took = time.perf_counter() - start
    assert len(found) == 18 and GAMMA in found
    assert all(norm_K_over_k(g) == Eisenstein.of(-10) for g in found)
    assert took < 0.2, took


# ----------------------------------------------- identities over F_p
def evaluated(f: CurvePolynomial, x, y, z) -> tuple:
    """The flat coordinates of f at a rational point, evaluated by the
    oracle's polynomial with the same terms."""
    terms = {m: KElement._make(c) for m, c in f.terms.items()}
    return oracles.flat(oracles.CurvePolynomial(terms).evaluate(x, y, z))


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
                assert at(x, y, z) == _embed_flat(evaluated(f, x, y, z), p, zeta, eps), (p, x, y, z)


def test_embedded_polynomial_refuses_a_cubic_term():
    X, Y = CurvePolynomial.variable("X"), CurvePolynomial.variable("Y")
    zeta, eps = _embedding_data(37)
    _embed_polynomial(X * Y + Y * Y + CurvePolynomial.constant(3), 37, zeta, eps)
    with pytest.raises(ValueError, match="degree above 2"):
        _embed_polynomial(X * Y + X * X * Y, 37, zeta, eps)


# ------------------------------------------ flat Z[zeta_3, eps] polynomials
def flat_k_element(rng, denominators=(1, 1, 1, 2, 3, 5)):
    return KElement(*(
        Eisenstein(*(Fraction(rng.randint(-12, 12), rng.choice(denominators)) for _ in "ab"))
        for _ in range(3)
    ))


def flat_terms(poly) -> dict:
    """The terms of a tower or oracle polynomial as flat 6-tuples."""
    return {m: c if isinstance(c, tuple) else oracles.flat(c) for m, c in poly.terms.items()}


def pairs(x: KElement) -> tuple:
    """The coordinates of x as three Fraction pairs, one per power of eps."""
    return tuple(c.coeffs for c in (x.c0, x.c1, x.c2))


def test_k_product_and_sigma_match_the_k_element_arithmetic():
    rng = random.Random(71)
    for _ in range(300):
        x, y = flat_k_element(rng), flat_k_element(rng)
        want = oracles.flat(oracles.generic(x) * oracles.generic(y))
        assert _k_product(x.coeffs, y.coeffs) == (x * y).coeffs == want, (x, y)
        assert _k_sigma(x.coeffs) == oracles.flat(oracles.sigma(oracles.generic(x))), x
    assert any(type(v) is Fraction for v in x.coeffs)


def kernel_samples(rng):
    """Seeded flat 6-tuples: small ints with zeros and negatives, 100-bit
    ints, and Fractions, with one all-zero tuple."""
    small = lambda: rng.choice((0, 0, 1, -1, rng.randint(-50, 50)))
    big = lambda: rng.choice((1, -1)) * rng.getrandbits(100)
    frac = lambda: Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))
    samples = [(0,) * 6]
    for draw in (small, big, frac, lambda: rng.choice((small, big, frac))()):
        samples += [tuple(draw() for _ in range(6)) for _ in range(60)]
    return samples


def test_straight_line_k_product_matches_the_nine_pair_products():
    rng = random.Random(74)
    samples = kernel_samples(rng)
    for x in samples:
        y = rng.choice(samples)
        got = _k_product(x, y)
        assert got == oracles.k_product_by_pairs(x, y), (x, y)
        assert [type(v) for v in got] == [type(v) for v in oracles.k_product_by_pairs(x, y)], (x, y)
        a, b = KElement._make(x), KElement._make(y)
        assert norm_K_over_k(a * b) == norm_K_over_k(a) * norm_K_over_k(b), (x, y)
    assert any(abs(v) >= 2**99 for x in samples for v in x)


def test_flat_coordinates_are_ints_exactly_when_integral():
    x = KElement(Eisenstein(Fraction(6, 3), Fraction(1, 2)), Eisenstein.of(0), Eisenstein(-4, Fraction(9, 3)))
    assert [type(v) for v in x.coeffs] == [int, Fraction, int, int, int, int]
    assert [type(v) for v in _k_product(GAMMA.coeffs, GAMMA.coeffs)] == [int] * 6
    assert CurvePolynomial.constant(Fraction(7, 3)).reduce().terms == {(0, 0, 0): (Fraction(7, 3), 0, 0, 0, 0, 0)}
    third = CurvePolynomial.constant(Fraction(1, 3))
    assert [type(v) for v in (third + CurvePolynomial.constant(Fraction(2, 3))).terms[(0, 0, 0)]] == [int] * 6
    assert [type(v) for v in (third * 3).terms[(0, 0, 0)]] == [int] * 6
    X = CurvePolynomial.variable("X")
    # X^3 = (-4 Y^3 - 5 Z^3)/3: 3 X^3 stays in ints, X^3 does not
    assert flat_terms((3 * (X * X * X)).reduce()) == {(0, 3, 0): (-4, 0, 0, 0, 0, 0), (0, 0, 3): (-5, 0, 0, 0, 0, 0)}
    assert [type(v) for v in (X * X * X).reduce().terms[(0, 3, 0)]][:1] == [Fraction]


def test_delta_product_matches_the_hand_written_product():
    rng = random.Random(72)
    for _ in range(20):
        x = tuple(flat_k_element(rng) for _ in range(3))
        y = tuple(flat_k_element(rng) for _ in range(3))
        got = _delta_product(tuple(e.coeffs for e in x), tuple(e.coeffs for e in y))
        want = oracles.delta_mul(*(tuple(map(pairs, t)) for t in (x, y)))
        assert got == tuple(tuple(v for pair in c for v in pair) for c in want)


def test_identity_sides_reduce_like_the_oracle():
    # the same cross-multiplication, once on flat and once on generic coefficients
    num, den, forms, _, _, Z = _resolvent_parts()
    tower_sides = _identity_sides(num, den, forms, Z)
    num, den, forms, _, _, Z = oracles.resolvent_parts()
    oracle_sides = _identity_sides(num, den, forms, Z)
    for name, ours, theirs in zip(("lhs_b", "rhs_b", "lhs_c", "rhs_c"), tower_sides, oracle_sides):
        assert flat_terms(ours) == flat_terms(theirs), name
        assert flat_terms(ours.reduce()) == flat_terms(theirs.reduce()), name
    assert not flat_terms((tower_sides[2] - tower_sides[3]).reduce())


def test_norm_factorization_sides_are_the_reduced_full_products():
    # (c)'s sides reduced as they are multiplied, against the sides
    # multiplied out in full and reduced once, on generic coefficients
    num, den, forms, _, _, Z = _resolvent_parts()
    _, _, lhs_c, rhs_c = _identity_sides(num, den, forms, Z)
    onum, oden, oforms, *_ = oracles.resolvent_parts()
    full_lhs, full_rhs = oracles.norm_factorization_sides(onum, oden, oforms)
    assert max(i for i, _, _ in full_lhs.terms) > 3
    assert all(i < 3 for side in (lhs_c, rhs_c) for i, _, _ in side.terms)
    assert flat_terms(lhs_c) == flat_terms(full_lhs.reduce())
    assert flat_terms(rhs_c) == flat_terms(full_rhs.reduce())


def test_reducing_the_factors_first_gives_the_same_normal_form():
    rng = random.Random(75)
    for _ in range(40):
        a, b = (CurvePolynomial({
            (rng.randrange(7), rng.randrange(4), rng.randrange(4)): flat_k_element(rng)
            for _ in range(rng.randrange(1, 6))
        }) for _ in "ab")
        product = (a * b).reduce()
        assert product.terms == (a.reduce() * b.reduce()).reduce().terms
        assert all(i < 3 for i, _, _ in product.terms)


def random_polynomial(rng, cls, coefficients):
    return cls({
        (rng.randrange(7), rng.randrange(4), rng.randrange(4)): c for c in coefficients
    })


def test_seeded_products_with_fraction_coefficients_reduce_like_the_oracle():
    rng = random.Random(73)
    for _ in range(12):
        coeffs = [[flat_k_element(rng) for _ in range(rng.randrange(1, 6))] for _ in range(2)]
        seed = rng.random()
        ours = [random_polynomial(random.Random(seed + i), CurvePolynomial, c) for i, c in enumerate(coeffs)]
        theirs = [random_polynomial(random.Random(seed + i), oracles.CurvePolynomial, c) for i, c in enumerate(coeffs)]
        product, oracle_product = ours[0] * ours[1], theirs[0] * theirs[1]
        assert flat_terms(product) == flat_terms(oracle_product)
        reduced = product.reduce()
        assert flat_terms(reduced) == flat_terms(oracle_product.reduce())
        assert all(i < 3 for i, _, _ in reduced.terms)
        assert flat_terms(product.apply_sigma()) == flat_terms(oracle_product.apply_sigma())


def test_descent_coefficients_match_the_delta_algebra_oracle():
    ours, theirs = evaluate_F_symbolic(), oracles.evaluate_F_symbolic()
    assert ours == theirs
    expected = [9, Fraction(-81, 5), Fraction(36, 5), Fraction(9, 5), 0, Fraction(-9, 5)]
    assert [(type(v), v) for c in ours for v in c.coeffs] == [(type(v), v) for v in expected]


def test_a_perturbed_gamma_fails_the_symbolic_identities(monkeypatch):
    monkeypatch.setattr(tower, "GAMMA", GAMMA + 1)
    report = curve_identity_suite()
    assert not report.resolvent_symbolic_ok
    assert not report.norm_factorization_symbolic_ok
    assert not report.all_ok
    assert "resolvent twist identity (symbolic)" in report.failures
    assert "norm factorization identity (symbolic)" in report.failures


def test_sigma_gamma_in_place_of_sigma2_gamma_fails_identity_c_only(monkeypatch):
    # a wrong companion in (c) alone: sigma^2(gamma) read as sigma(gamma)
    gsig = sigma(GAMMA)
    monkeypatch.setattr(tower, "sigma", lambda x: x if x == gsig else sigma(x))
    report = curve_identity_suite()
    assert report.norm_of_linear_form_ok and report.doubling_identity_ok
    assert report.resolvent_symbolic_ok and report.resolvent_points_ok
    assert not report.norm_factorization_symbolic_ok
    assert not report.norm_factorization_points_ok
    assert "norm factorization identity (symbolic)" in report.failures
    assert not report.all_ok


def test_curve_identity_suite_is_fast():
    start = time.perf_counter()
    report = curve_identity_suite()
    took = time.perf_counter() - start
    assert report.all_ok
    assert took < 0.1, took
