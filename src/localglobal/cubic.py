"""Cube classes and the cubic Hilbert pairing over Q_3(zeta_3).

The field k_v = Q_3(zeta_3) is ramified over Q_3 with uniformizer
pi = zeta_3 - 1 (pi^2 = -3 zeta_3, so v_pi(3) = 2).  Its multiplicative
group modulo cubes is an F_3 vector space of dimension 4, generated by
pi, zeta_3, 1 + pi^2 and 1 + pi^3; principal units 1 + pi^4 O are cubes,
so cube classes of units are decided by their residue modulo pi^5.  As
pi^6 = -27, that residue of a unit a + b zeta_3 depends only on
(a mod 27, b mod 27), and one table of those 729 pairs, built from
integer residues, gives every cube class.

Everything here is exact: elements are quotient-ring elements with
rational coordinates in the basis 1, zeta_3, classes are vectors in F_3^4,
and the pairing matrix is certified against norm subgroups before use.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .exact import CertificateError, QuotientElement, split_prime_power
from .padic import InsufficientPrecision
from .symbols import InvariantValue

__all__ = [
    "Eisenstein",
    "ZETA",
    "PI",
    "DegenerateExtension",
    "express",
    "is_cube",
    "norm_subgroup",
    "CubeClassGroup",
    "cube_class_group",
    "hilbert3",
]


class DegenerateExtension(ValueError):
    """Adjoining a cube root of a cube does not give a field extension."""


# ------------------------------------------------------------ ring elements
class Eisenstein(QuotientElement):
    """a + b zeta_3 with rational coordinates (zeta_3^2 = -1 - zeta_3)."""

    __slots__ = ()
    MODULUS = (-1, -1)
    VARIABLE = "zeta3"

    a = property(lambda self: self.coeffs[0])
    b = property(lambda self: self.coeffs[1])

    def conjugate(self) -> "Eisenstein":
        """The nontrivial automorphism: zeta_3 -> zeta_3^2."""
        a, b = self.coeffs
        return Eisenstein._make((a - b, -b))

    def inverse(self) -> "Eisenstein":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("inverse of zero")
        a, b = self.conjugate().coeffs
        return Eisenstein._make((a / n, b / n))

    def __truediv__(self, other) -> "Eisenstein":
        return self * Eisenstein.of(other).inverse()


ZETA = Eisenstein(0, 1)
PI = Eisenstein(-1, 1)  # zeta_3 - 1, the uniformizer
ONE = Eisenstein(1, 0)


def pi_valuation(x: Eisenstein) -> int:
    """v_pi(x); the norm of pi is 3, so v_pi = v_3 of the norm."""
    if x.is_zero:
        raise ValueError("valuation of zero")
    return split_prime_power(x.norm(), 3)[0]


def divide_by_pi(x: Eisenstein) -> "Eisenstein":
    """Exact division by the uniformizer: x * (-2 - zeta_3) / 3."""
    a, b = x.coeffs
    return Eisenstein._make(((b - 2 * a) / 3, -(a + b) / 3))


def unit_part(x: Eisenstein) -> tuple[int, Eisenstein]:
    """Write x = pi^v * u with u a pi-adic unit; returns (v, u) exactly."""
    v = pi_valuation(x)
    u = x
    if v >= 0:
        for _ in range(v):
            u = divide_by_pi(u)
    else:
        u = u * PI ** (-v)
    return v, u


# ------------------------------------------------------ cube classification
_UNIT_GENERATORS = (ZETA, ONE + PI * PI, ONE + PI * PI * PI)


def _residue27(q: Fraction) -> int:
    """A 3-integral rational modulo 27: numerator times denominator^-1."""
    if q.denominator % 3 == 0:
        raise ValueError("not 3-integral")
    return q.numerator * pow(q.denominator, -1, 27) % 27


def _pair_product(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    """(a + b zeta_3)(c + d zeta_3) on integer pairs."""
    (a, b), (c, d) = x, y
    bd = b * d
    return a * c - bd, a * d + b * c - bd


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
    generators = [(_residue27(g.a), _residue27(g.b)) for g in _UNIT_GENERATORS]
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
    e1, e2, e3 = _unit_class_table()[27 * _residue27(u.a) + _residue27(u.b)]
    return (v % 3, e1, e2, e3)


def is_cube(x) -> bool:
    return express(x) == (0, 0, 0, 0)


# ------------------------------------------------------ F_3 linear algebra
def _rref3(rows) -> list[list[int]]:
    mat = [[c % 3 for c in row] for row in rows]
    out: list[list[int]] = []
    pivots: list[int] = []
    for col in range(4):
        pivot = next(
            (r for r in mat if r[col] % 3 and all(r[c] == 0 for c in range(col))), None
        )
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
        pivots.append(col)
    order = sorted(range(len(out)), key=lambda i: pivots[i])
    return [out[i] for i in order]


def _rank3(rows) -> int:
    return len(_rref3(rows))


def _in_span3(rows, vec) -> bool:
    return _rank3(list(rows) + [list(vec)]) == _rank3(rows)


def _nullspace3(rows) -> list[tuple[int, ...]]:
    """Basis of {v in F_3^4 : row . v = 0 for all rows}."""
    basis = []
    for vec in itertools.product(range(3), repeat=4):
        if not any(vec):
            continue
        if all(sum(r * v for r, v in zip(row, vec)) % 3 == 0 for row in rows):
            if not _in_span3(basis, vec):
                basis.append(list(vec))
    return [tuple(b) for b in basis]


# -------------------------------------------------------- norm subgroups
_SAMPLE_COORDS = (
    Eisenstein.of(0),
    ONE,
    -ONE,
    ZETA,
    -ZETA,
    ONE + ZETA,
    ONE - ZETA,
    Eisenstein.of(2),
    PI,
    ONE + PI,
)


def norm_subgroup(a) -> tuple[tuple[int, ...], ...]:
    """Basis (3 vectors in F_3^4) of the classes of norms from k_v(a^{1/3}).

    Local reciprocity for the cyclic cubic Kummer extension says the norm
    group has index exactly 3; sampling norms
    N(c0 + c1 t + c2 t^2) = c0^3 + a c1^3 + a^2 c2^3 - 3 a c0 c1 c2
    must therefore span a 3-dimensional subspace and no more.
    """
    a = Eisenstein.of(a)
    cls = express(a)
    if cls == (0, 0, 0, 0):
        raise DegenerateExtension(f"{a} is a cube in Q_3(zeta_3)")
    basis: list[list[int]] = []
    a2 = a * a
    for c0, c1, c2 in itertools.product(_SAMPLE_COORDS, repeat=3):
        if c0.is_zero and c1.is_zero and c2.is_zero:
            continue
        value = c0**3 + a * c1**3 + a2 * c2**3 - 3 * a * c0 * c1 * c2
        if value.is_zero:
            continue
        vec = express(value)
        if not any(vec) or _in_span3(basis, vec):
            continue
        basis.append(list(vec))
        rank = _rank3(basis)
        if rank > 3:
            raise ArithmeticError("norm subgroup exceeds the predicted index 3")
        if rank == 3:
            return tuple(tuple(b) for b in _rref3(basis))
    raise InsufficientPrecision(
        f"norm subgroup of cube root of {a} did not stabilize in the sampling budget"
    )


# ----------------------------------------------------------- the pairing
@dataclass(frozen=True)
class CubeClassGroup:
    """k_v*/(k_v*)^3 with its explicit pairing and Galois action.

    generators: pi, zeta_3, 1 + pi^2, 1 + pi^3 (independent: the pairing
    matrix has rank 4).  pairing_matrix M gives the cubic Hilbert pairing
    as coords(a)^T M coords(b) in F_3; it is skew (M = -M^T).  tau_matrix
    is the induced action of the automorphism zeta_3 -> zeta_3^2 on
    classes; it is an involution.
    """

    generators: tuple[Eisenstein, ...]
    pairing_matrix: tuple[tuple[int, ...], ...]
    tau_matrix: tuple[tuple[int, ...], ...]

    def express(self, x) -> tuple[int, int, int, int]:
        return express(x)

    def pairing(self, x, y) -> int:
        """The pairing value in F_3: 0 iff y is a norm from k_v(x^{1/3})."""
        xv, yv = self.express(x), self.express(y)
        return (
            sum(
                xv[i] * self.pairing_matrix[i][j] * yv[j]
                for i in range(4)
                for j in range(4)
            )
            % 3
        )

    def hilbert3(self, a, b) -> InvariantValue:
        return InvariantValue.thirds(self.pairing(a, b))

    def pairing_of_vectors(self, xv, yv) -> int:
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
        return tuple(_nullspace3(rows))

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
        return tuple(_nullspace3(rows))


@lru_cache(maxsize=1)
def cube_class_group() -> CubeClassGroup:
    """Build the 81-element cube-class group with pairing and Galois action.

    The pairing matrix is assembled from the norm subgroups of the four
    generators: each row is the linear form cutting out that subgroup,
    scaled so the matrix is skew; the overall scale is fixed by making the
    first nonzero entry equal to 1.  Both steps are checked, so a wrong
    subgroup or a non-skew configuration cannot slip through.
    """
    generators = (PI,) + _UNIT_GENERATORS
    for idx, g in enumerate(generators):
        want = tuple(1 if i == idx else 0 for i in range(4))
        if express(g) != want:
            raise CertificateError("generators must map to the standard basis")

    def defining_form(x):
        forms = _nullspace3(norm_subgroup(x))
        if len(forms) != 1:
            raise CertificateError("norm subgroup must have a unique defining form")
        return forms[0]

    functionals = [defining_form(g) for g in generators]
    # Kernels only fix each row up to a scalar, and skewness alone cannot
    # relate rows whose pairing entries do not overlap; the norm subgroups
    # of a few products of generators couple the remaining scales.
    couplings = []
    for i, j in ((0, 1), (0, 2), (1, 3)):
        w = tuple((a + b) % 3 for a, b in zip(*(express(g) for g in (generators[i], generators[j]))))
        couplings.append((w, defining_form(generators[i] * generators[j])))

    valid = []
    for lams in itertools.product((1, 2), repeat=4):
        m = [[lams[i] * functionals[i][j] % 3 for j in range(4)] for i in range(4)]
        if any(m[i][i] for i in range(4)):
            continue
        if any((m[i][j] + m[j][i]) % 3 for i in range(4) for j in range(4)):
            continue
        ok = True
        for w, form in couplings:
            row = [sum(w[i] * m[i][j] for i in range(4)) % 3 for j in range(4)]
            if not any(
                all(c == mu * f % 3 for c, f in zip(row, form)) for mu in (1, 2)
            ):
                ok = False
                break
        if ok:
            valid.append(m)
    if len(valid) != 2:
        raise CertificateError("scaling must be unique up to the global sign")
    matrix = next(
        (m for m in valid if next(c for row in m for c in row if c) == 1), None
    )
    if matrix is None:
        raise CertificateError("no scaling starts with a 1")
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
