import itertools
import random
from fractions import Fraction

import pytest

from localglobal import cubic
from localglobal.cubic import (
    Eisenstein,
    ONE,
    PI,
    ZETA,
    _rank3,
    _rref3,
    cube_class_group,
    divide_by_pi,
    express,
    hilbert3,
    is_cube,
    pi_valuation,
)
from oracles import (
    DegenerateExtension,
    cube_norm_subgroup,
    in_span3,
    pairing_matrix_from_norms,
    pi_digits,
)


def rand_elem(rng, span=10):
    while True:
        x = Eisenstein(Fraction(rng.randrange(-span, span + 1)), Fraction(rng.randrange(-span, span + 1)))
        if not x.is_zero:
            return x


def test_eisenstein_arithmetic():
    assert ZETA**3 == ONE
    assert (ONE + ZETA + ZETA * ZETA).is_zero
    assert PI * PI == Eisenstein(Fraction(0), Fraction(-3))  # pi^2 = -3 zeta
    assert PI.norm() == 3
    rng = random.Random(2)
    for _ in range(30):
        x, y = rand_elem(rng), rand_elem(rng)
        assert (x * y).norm() == x.norm() * y.norm()
        assert x.conjugate().conjugate() == x
        prod = x * x.conjugate()
        assert prod == Eisenstein(x.norm(), Fraction(0))
        assert (x * x.inverse()) == ONE
    assert (2 + ZETA) - 1 == ONE + ZETA


def test_pi_division_and_valuation():
    assert divide_by_pi(PI) == ONE
    assert pi_valuation(PI) == 1
    assert pi_valuation(Eisenstein.of(3)) == 2
    assert pi_valuation(Eisenstein.of(60)) == 2
    assert pi_valuation(ZETA) == 0
    assert pi_digits(ONE, 3) == (1, 0, 0)
    # 3 = -zeta^2 pi^2, so its first two pi-digits vanish
    assert pi_digits(Eisenstein.of(3), 2) == (0, 0)
    with pytest.raises(ValueError):
        pi_valuation(Eisenstein.of(0))


def test_cube_residue_structure():
    from localglobal.cubic import _cube_keys_mod_pi5, _key_mod_pi5, _unit_class_table

    assert len(_cube_keys_mod_pi5()) == 6
    # one entry per pair (a, b) mod 27; the 486 unit pairs fall into 162
    # residues mod pi^5, and the entry depends only on that residue
    table = _unit_class_table()
    assert len(table) == 729
    units = [(a, b) for a in range(27) for b in range(27) if (a + b) % 3]
    assert table.count(None) == 729 - len(units) == 243
    by_residue = {}
    for a, b in units:
        assert by_residue.setdefault(_key_mod_pi5((a, b)), table[27 * a + b]) == table[27 * a + b]
    assert len(by_residue) == 162
    # units congruent to 1 mod pi^4 are cubes
    rng = random.Random(4)
    pi4 = PI**4
    for _ in range(20):
        x = ONE + pi4 * rand_elem(rng, span=5)
        assert is_cube(x), x
    # the class group has exactly 81 elements
    classes = set()
    for e in range(3):
        for a in range(27):
            for b in range(27):
                if (a + b) % 3 == 0:
                    continue
                classes.add(express(PI**e * Eisenstein(Fraction(a), Fraction(b))))
    assert len(classes) == 81


def test_frozen_classes():
    assert express(2) == (0, 0, 1, 2)
    assert express(3) == (2, 2, 0, 0)
    assert express(5) == (0, 0, 2, 1)  # twice the class of 2
    assert express(60) == (2, 2, 1, 2)
    assert is_cube(10)
    assert express(PI) == (1, 0, 0, 0)
    assert express(ZETA) == (0, 1, 0, 0)


def test_express_is_multiplicative():
    rng = random.Random(8)
    for _ in range(60):
        x, y = rand_elem(rng), rand_elem(rng)
        combined = express(x * y)
        expected = tuple((u + v) % 3 for u, v in zip(express(x), express(y)))
        assert combined == expected, (x, y)


def test_tau_action():
    group = cube_class_group()
    assert express(PI.conjugate()) == (1, 2, 0, 0)
    assert express(ZETA.conjugate()) == (0, 2, 0, 0)
    assert express((ONE + PI**2).conjugate()) == (0, 0, 1, 1)
    assert express((ONE + PI**3).conjugate()) == (0, 0, 0, 2)
    # involution, compatible with conjugating elements
    rng = random.Random(12)
    for _ in range(30):
        x = rand_elem(rng)
        vec = express(x)
        assert group.apply_tau(group.apply_tau(vec)) == vec
        assert group.apply_tau(vec) == express(x.conjugate())
    plus = group.tau_eigenspace(1)
    minus = group.tau_eigenspace(-1)
    assert len(plus) == 2 and len(minus) == 2
    # the +1 eigenspace is exactly the span of the classes of 2 and 3
    span23 = [list(express(2)), list(express(3))]
    assert _rank3(span23) == 2
    for v in plus:
        assert in_span3(span23, v)
    for v in span23:
        assert in_span3([list(u) for u in plus], v)


def test_norm_subgroup_properties():
    rng = random.Random(6)
    for a in (Eisenstein.of(2), Eisenstein.of(3), PI, ZETA, Eisenstein.of(60)):
        basis = cube_norm_subgroup(a)
        assert _rank3([list(b) for b in basis]) == 3
        # literal norms always land in the subgroup
        a2 = a * a
        for _ in range(15):
            c0, c1, c2 = (rand_elem(rng, span=4) for _ in range(3))
            val = c0**3 + a * c1**3 + a2 * c2**3 - 3 * a * c0 * c1 * c2
            if val.is_zero:
                continue
            assert in_span3([list(b) for b in basis], list(express(val)))
    with pytest.raises(DegenerateExtension):
        cube_norm_subgroup(10)


def test_pairing_matrix_properties():
    group = cube_class_group()
    m = group.pairing_matrix
    assert _rank3([list(r) for r in m]) == 4
    for i in range(4):
        assert m[i][i] == 0
        for j in range(4):
            assert (m[i][j] + m[j][i]) % 3 == 0


def test_pairing_matrix_equals_the_norm_sampling_construction():
    assert cube_class_group().pairing_matrix == pairing_matrix_from_norms()
    assert pairing_matrix_from_norms() == ((0, 0, 0, 1), (0, 0, 1, 0), (0, 2, 0, 0), (2, 0, 0, 0))


def test_steinberg_relations_leave_one_line():
    rows = cubic._steinberg_rows()
    assert len(rows) == 47 and all(len(r) == 16 for r in rows)
    assert _rank3(rows) == 15


def test_steinberg_relations_hold_beyond_the_box():
    # the matrix is solved from |a|, |b| <= 2; the symbol it gives obeys
    # the same relations on a wider box it was not fitted to
    span = range(-6, 7)
    for a, b in itertools.product(span, repeat=2):
        x = Eisenstein(a, b)
        if x.is_zero:
            continue
        assert hilbert3(x, -x).is_zero, x
        if x != ONE:
            assert hilbert3(x, ONE - x).is_zero, x


def test_rref3_on_rows_of_any_length():
    rng = random.Random(18)

    def span(rows):
        return {
            tuple(sum(c * r[k] for c, r in zip(coeffs, rows)) % 3 for k in range(len(rows[0])))
            for coeffs in itertools.product(range(3), repeat=len(rows))
        }

    for width in (1, 4, 7):
        for _ in range(20):
            rows = [[rng.randrange(3) for _ in range(width)] for _ in range(rng.randrange(1, 7))]
            reduced = _rref3(rows)
            pivots = [r.index(1) for r in reduced]
            assert pivots == sorted(set(pivots))
            for r in reduced:
                assert all(c == 0 for c in r[: r.index(1)])
            for k, col in enumerate(pivots):
                assert [r[col] for r in reduced] == [int(i == k) for i in range(len(reduced))]
            assert span(reduced or [[0] * width]) == span(rows)
    assert _rref3([]) == []


def test_hilbert3_matches_norm_membership():
    group = cube_class_group()
    rng = random.Random(14)
    for a in (Eisenstein.of(2), Eisenstein.of(3), Eisenstein.of(60), PI * (ONE + PI**2)):
        basis = [list(b) for b in cube_norm_subgroup(a)]
        for _ in range(40):
            b = rand_elem(rng)
            is_norm = in_span3(basis, list(express(b)))
            assert (group.pairing(a, b) == 0) == is_norm, (a, b)


def test_hilbert3_identities():
    rng = random.Random(16)
    for a in (Eisenstein.of(2), Eisenstein.of(3), PI, ZETA, Eisenstein.of(60)):
        assert hilbert3(a, 1).is_zero
        assert hilbert3(a, -a).is_zero
    assert hilbert3(10, 2).is_zero  # degenerate: 10 is a cube
    # skew symmetry on random pairs
    for _ in range(100):
        a, b = rand_elem(rng), rand_elem(rng)
        assert (hilbert3(a, b) + hilbert3(b, a)).is_zero, (a, b)
    # bilinearity on random triples
    for _ in range(100):
        a1, a2, b = rand_elem(rng), rand_elem(rng), rand_elem(rng)
        lhs = hilbert3(a1 * a2, b)
        rhs = hilbert3(a1, b) + hilbert3(a2, b)
        assert lhs == rhs, (a1, a2, b)


def test_annihilators():
    group = cube_class_group()
    ann23 = group.annihilator([express(2), express(3)])
    assert len(ann23) == 2
    for v in ann23:
        for s in (2, 3):
            assert group.pairing_of_vectors(express(s), v) == 0
    ann60 = group.annihilator([express(60)])
    assert len(ann60) == 3
    for v in ann60:
        assert group.pairing_of_vectors(express(60), v) == 0
