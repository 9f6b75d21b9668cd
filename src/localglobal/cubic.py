"""Cube classes and the cubic Hilbert pairing over Q_3(zeta_3).

The field k_v = Q_3(zeta_3) is ramified over Q_3 with uniformizer
pi = zeta_3 - 1 (pi^2 = -3 zeta_3, so v_pi(3) = 2).  Its multiplicative
group modulo cubes is an F_3 vector space of dimension 4, generated by
pi, zeta_3, 1 + pi^2 and 1 + pi^3; principal units 1 + pi^4 O are cubes,
so cube classes of units are decided by their residue modulo pi^5.  As
pi^6 = -27, that residue of a unit a + b zeta_3 depends only on
(a mod 27, b mod 27), and one table of those 729 pairs, built from
integer residues, gives every cube class.

Everything here is exact: an element a + b zeta_3 is an `Eisenstein`,
a pair of coordinates, each an int when it is integral and a Fraction
otherwise, divided only by `exact._exact_quotient`.  Pairs are multiplied
by `_pair_product`, the same product the integer residue tables use, v_pi
is read off the norm a^2 - ab + b^2, and classes are vectors in F_3^4.  The
cubic Hilbert pairing is the one nonzero bilinear form on F_3^4, up to scale,
that obeys the Steinberg relations (x, 1 - x) = 0 and (x, -x) = 0 on a
box of small elements; it is solved for by linear algebra over F_3, and
its skewness and rank are checked afterwards.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

from .exact import (
    CertificateError,
    QuotientElement,
    _exact_coordinate,
    _exact_quotient,
    record,
    residue,
    valuation,
)
from .symbols import InvariantValue

__all__ = [
    "Eisenstein",
    "ZETA",
    "PI",
    "express",
    "CubeClassGroup",
    "cube_class_group",
    "hilbert3",
]


# ------------------------------------------------------------ ring elements
def _pair_product(x: tuple, y: tuple) -> tuple:
    """(a + b zeta_3)(c + d zeta_3) on pairs of ints or Fractions."""
    (a, b), (c, d) = x, y
    bd = b * d
    return a * c - bd, a * d + b * c - bd


class Eisenstein(QuotientElement):
    """a + b zeta_3 with rational coordinates (zeta_3^2 = -1 - zeta_3)."""

    __slots__ = ()
    VARIABLE = "zeta3"
    _product = staticmethod(_pair_product)

    def __init__(self, *coeffs):
        if len(coeffs) != 2:
            raise ValueError(f"Eisenstein takes 2 coordinates, not {len(coeffs)}")
        self.coeffs = (_exact_coordinate(coeffs[0]), _exact_coordinate(coeffs[1]))

    @staticmethod
    def _scalar(x) -> tuple:
        return _exact_coordinate(x), 0

    a = property(lambda self: self.coeffs[0])
    b = property(lambda self: self.coeffs[1])

    def conjugate(self) -> "Eisenstein":
        """The nontrivial automorphism: zeta_3 -> zeta_3^2."""
        a, b = self.coeffs
        return Eisenstein._make((a - b, -b))


ZETA = Eisenstein(0, 1)
PI = Eisenstein(-1, 1)  # zeta_3 - 1, the uniformizer
ONE = Eisenstein(1, 0)


def pi_valuation(x: Eisenstein) -> int:
    """v_pi(x); the norm of pi is 3, so v_pi is v_3 of the norm
    a^2 - ab + b^2, read off the numerators over a common denominator d."""
    if x.is_zero:
        raise ValueError("valuation of zero")
    a, b = x.coeffs
    d = math.lcm(a.denominator, b.denominator)
    a, b = a.numerator * (d // a.denominator), b.numerator * (d // b.denominator)
    return valuation(a * a - a * b + b * b, 3) - 2 * valuation(d, 3)


def divide_by_pi(x: Eisenstein) -> "Eisenstein":
    """Exact division by the uniformizer: x * (-2 - zeta_3) / 3."""
    a, b = x.coeffs
    return Eisenstein._make((_exact_quotient(b - 2 * a, 3), _exact_quotient(-(a + b), 3)))


def unit_part(x: Eisenstein) -> tuple[int, Eisenstein]:
    """Write x = pi^v * u with u a pi-adic unit; returns (v, u) exactly.

    For v >= 0, pi^(2k) = (-3 zeta_3)^k with k = v // 2 is divided out in
    one step, as a rotation by zeta_3^(-k) and a division by (-3)^k, and
    pi once more if v is odd."""
    v = pi_valuation(x)
    if v < 0:
        return v, x * PI ** (-v)
    k, odd = divmod(v, 2)
    u = x
    if k:
        a, b = x.coeffs
        if k % 3 == 1:  # times zeta_3^-1 = zeta_3^2 = -1 - zeta_3
            a, b = b - a, -a
        elif k % 3 == 2:  # times zeta_3^-2 = zeta_3
            a, b = -b, a - b
        scale = (-3) ** k
        u = Eisenstein._make((_exact_quotient(a, scale), _exact_quotient(b, scale)))
    return v, divide_by_pi(u) if odd else u


# ------------------------------------------------------ cube classification
_UNIT_GENERATORS = (ZETA, ONE + PI * PI, ONE + PI * PI * PI)


def _key_mod_pi5(x: tuple[int, int]) -> tuple[int, int]:
    """The residue of a + b zeta_3 modulo pi^5, for integers a, b.

    pi^4 = 9 zeta_3^2, so pi^5 O = 9 pi O, the lattice spanned by
    9 pi = (-9, 9) and 9 pi zeta_3 = (-9, -18): it is {9 | a, 27 | a + b},
    and (a mod 9, a + b mod 27) names the residue.  It contains
    27 O = pi^6 O, so the residue only depends on (a, b) mod 27.
    """
    a, b = x
    return a % 9, (a + b) % 27


def _unit_residues() -> list[tuple[int, int]]:
    """The units of O/27 as pairs (a, b): their residue mod pi, a + b mod 3, is nonzero."""
    return [(a, b) for a in range(27) for b in range(27) if (a + b) % 3]


def _cube_keys_mod_pi5() -> frozenset[tuple[int, int]]:
    """Residues mod pi^5 of cubes of units: exactly 6 of them."""
    keys = frozenset(_key_mod_pi5(_pair_product(x, _pair_product(x, x))) for x in _unit_residues())
    if len(keys) != 6:
        raise CertificateError(f"{len(keys)} cube residues mod pi^5, expected 6")
    return keys


@lru_cache(maxsize=1)
def _unit_class_table() -> tuple[tuple[int, int, int] | None, ...]:
    """Entry 27 a + b: the exponents on the three unit generators of the
    class of a + b zeta_3, or None where it is not a unit.  The 162 unit
    residues mod pi^5 are each reached exactly once from a generator
    product times one of the 6 cube residues."""
    cube_keys = _cube_keys_mod_pi5()
    reps_by_key: dict[tuple[int, int], tuple[int, int]] = {}
    for x in _unit_residues():
        key = _key_mod_pi5(x)
        if key in cube_keys and key not in reps_by_key:
            reps_by_key[key] = x
    cube_reps = list(reps_by_key.values())
    if len(cube_reps) != 6:
        raise CertificateError(f"{len(cube_reps)} cube representatives, expected 6")
    generators = [(residue(g.a, 27), residue(g.b, 27)) for g in _UNIT_GENERATORS]
    classes: dict[tuple[int, int], tuple[int, int, int]] = {}
    for exps in itertools.product(range(3), repeat=3):
        g = (1, 0)
        for gen, e in zip(generators, exps):
            for _ in range(e):
                g = _pair_product(g, gen)
        for rep in cube_reps:
            key = _key_mod_pi5(_pair_product(g, rep))
            if key in classes:
                raise CertificateError("cube class table collision")
            classes[key] = exps
    if len(classes) != 162:
        raise CertificateError("unit class table must cover all 162 unit residues")
    return tuple(classes.get(_key_mod_pi5((a, b))) for a in range(27) for b in range(27))


def express(x) -> tuple[int, int, int, int]:
    """Coordinates of x in k_v*/(k_v*)^3 = F_3^4.

    Basis: the uniformizer pi, then zeta_3, 1 + pi^2, 1 + pi^3.  The unit
    part a + b zeta_3 of x has 3-integral coordinates, and its class is
    looked up from (a mod 27, b mod 27).
    """
    x = Eisenstein.of(x)
    if x.is_zero:
        raise ValueError("zero has no cube class")
    v, u = unit_part(x)
    e1, e2, e3 = _unit_class_table()[27 * residue(u.a, 27) + residue(u.b, 27)]
    return (v % 3, e1, e2, e3)


# ------------------------------------------------------ F_3 linear algebra
def _rref3(rows) -> list[list[int]]:
    """Reduced row echelon form over F_3 of rows of one common length,
    zero rows dropped; the rows come out in pivot order."""
    mat = [[c % 3 for c in row] for row in rows]
    out: list[list[int]] = []
    for col in range(len(mat[0]) if mat else 0):
        pivot = next((r for r in mat if r[col]), None)
        if pivot is None:
            continue
        mat.remove(pivot)
        inv = pow(pivot[col], -1, 3)
        pivot = [c * inv % 3 for c in pivot]
        mat = [
            [(c - r[col] * pc) % 3 for c, pc in zip(r, pivot)] for r in mat
        ]
        out = [
            [(c - r[col] * pc) % 3 for c, pc in zip(r, pivot)] for r in out
        ]
        out.append(pivot)
    return out


def _rank3(rows) -> int:
    return len(_rref3(rows))


def _nullspace3(rows, width: int) -> list[tuple[int, ...]]:
    """Basis of {v in F_3^width : row . v = 0 for all rows}, read off the
    echelon form: one vector per free column, 1 there and minus that
    column's entry of each echelon row at the row's pivot."""
    reduced = _rref3(rows)
    pivots = [row.index(1) for row in reduced]
    basis = []
    for free in (col for col in range(width) if col not in pivots):
        vec = [0] * width
        vec[free] = 1
        for col, row in zip(pivots, reduced):
            vec[col] = -row[free] % 3
        basis.append(tuple(vec))
    return basis


# ----------------------------------------------------------- the pairing
class CubeClassGroup(record("CubeClassGroup", "generators pairing_matrix tau_matrix")):
    """k_v*/(k_v*)^3 with its explicit pairing and Galois action.

    generators: pi, zeta_3, 1 + pi^2, 1 + pi^3 (independent: the pairing
    matrix has rank 4).  pairing_matrix M gives the cubic Hilbert pairing
    as coords(a)^T M coords(b) in F_3; it is the solution of the Steinberg
    relations and comes out skew (M = -M^T).  tau_matrix is the induced
    action of the automorphism zeta_3 -> zeta_3^2 on classes; it is an
    involution and negates the pairing (tau^T M tau = -M).
    """

    __slots__ = ()

    def pairing_of_vectors(self, xv, yv) -> int:
        """The pairing in F_3 of the classes xv of x and yv of y: 0 iff y
        is a norm from k_v(x^{1/3})."""
        return (
            sum(xv[i] * self.pairing_matrix[i][j] * yv[j] for i in range(4) for j in range(4))
            % 3
        )

    def annihilator(self, vectors) -> tuple[tuple[int, ...], ...]:
        """Basis of {c : pairing(s, c) = 0 for all s in the span given}."""
        rows = [
            [sum(v[i] * self.pairing_matrix[i][j] for i in range(4)) % 3 for j in range(4)]
            for v in vectors
        ]
        return tuple(_nullspace3(rows, 4))

    def apply_tau(self, vec) -> tuple[int, ...]:
        return tuple(
            sum(self.tau_matrix[i][j] * vec[j] for j in range(4)) % 3 for i in range(4)
        )

    def tau_eigenspace(self, sign: int) -> tuple[tuple[int, ...], ...]:
        """Basis of the eigenspace of tau for eigenvalue +1 or -1."""
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        rows = [
            [(self.tau_matrix[i][j] - (sign % 3) * (i == j)) % 3 for j in range(4)]
            for i in range(4)
        ]
        return tuple(_nullspace3(rows, 4))


# Relations (x, y) = 0 come from x = a + b zeta_3 with |a|, |b| <= this bound.
_RELATION_BOX = 2


def _steinberg_rows() -> list[list[int]]:
    """One row over the 16 unknowns m_ij (index 4 i + j) per relation
    (x, -x) = 0, and (x, 1 - x) = 0 for x != 1: the entries of the row
    for (x, y) are express(x)[i] * express(y)[j]."""
    span = range(-_RELATION_BOX, _RELATION_BOX + 1)
    rows = []
    for a, b in itertools.product(span, repeat=2):
        x = Eisenstein(a, b)
        if x.is_zero:
            continue
        xv = express(x)
        for y in (-x,) if x == ONE else (-x, ONE - x):
            yv = express(y)
            rows.append([xv[i] * yv[j] % 3 for i in range(4) for j in range(4)])
    return rows


@lru_cache(maxsize=1)
def cube_class_group() -> CubeClassGroup:
    """Build the 81-element cube-class group with pairing and Galois action.

    The cubic Hilbert symbol is a nonzero bilinear form on F_3^4 with
    (x, -x) = 0 and (x, 1 - x) = 0 (Neukirch, Algebraic Number Theory,
    V.3).  Those relations on the elements a + b zeta_3 with
    |a|, |b| <= 2 are linear in the 16 entries of the matrix; their 30
    distinct nonzero rows (of 47) leave exactly one line of solutions,
    which is scaled so that its first nonzero entry (row-major) is 1.
    That the matrix is skew and of rank 4 is then checked, not assumed.

    tau, zeta_3 -> zeta_3^2, moves the cube roots of unity the symbol
    takes its values in to their inverses, so it obeys the Galois law
    <tau a, tau b> = -<a, b> (Neukirch, V.3): tau^T M tau = -M, checked
    with tau^2 = 1.  The law carries every verdict of `survival_analysis`
    over to the conjugate class.
    """
    generators = (PI,) + _UNIT_GENERATORS
    for idx, g in enumerate(generators):
        want = tuple(1 if i == idx else 0 for i in range(4))
        if express(g) != want:
            raise CertificateError("generators must map to the standard basis")

    # Repeated and zero rows add no relation; only the distinct nonzero
    # rows go to the elimination.
    rows = dict.fromkeys(tuple(row) for row in _steinberg_rows() if any(row))
    line = _nullspace3(list(rows), 16)
    if len(line) != 1:
        raise CertificateError(
            f"Steinberg relations leave {len(line)} free entries, expected 1"
        )
    solution = line[0]
    scale = next(c for c in solution if c)  # its own inverse mod 3
    matrix = [[solution[4 * i + j] * scale % 3 for j in range(4)] for i in range(4)]
    if any((matrix[i][j] + matrix[j][i]) % 3 for i in range(4) for j in range(4)):
        raise CertificateError("pairing must be skew")
    if _rank3(matrix) != 4:
        raise CertificateError("pairing must be non-degenerate")

    tau_cols = [express(g.conjugate()) for g in generators]
    tau = tuple(
        tuple(tau_cols[j][i] for j in range(4)) for i in range(4)
    )
    square = [
        [sum(tau[i][k] * tau[k][j] for k in range(4)) % 3 for j in range(4)]
        for i in range(4)
    ]
    if square != [[1 if i == j else 0 for j in range(4)] for i in range(4)]:
        raise CertificateError("tau must be an involution")
    if any((sum(tau[k][i] * matrix[k][m] * tau[m][j] for k in range(4) for m in range(4))
            + matrix[i][j]) % 3 for i in range(4) for j in range(4)):
        raise CertificateError("tau must obey the Galois law <tau a, tau b> = -<a, b>")

    return CubeClassGroup(
        generators=generators,
        pairing_matrix=tuple(tuple(row) for row in matrix),
        tau_matrix=tau,
    )


def hilbert3(a, b) -> InvariantValue:
    """Cubic Hilbert pairing on Q_3(zeta_3): 0 iff b is a norm from the
    cube-root extension by a.  If a is itself a cube the extension is
    degenerate and every b is a norm, so the value is 0."""
    a = Eisenstein.of(a)
    b = Eisenstein.of(b)
    if a.is_zero or b.is_zero:
        raise ValueError("nonzero arguments required")
    a_class = express(a)
    if not any(a_class):
        return InvariantValue.zero()
    return InvariantValue.thirds(cube_class_group().pairing_of_vectors(a_class, express(b)))
