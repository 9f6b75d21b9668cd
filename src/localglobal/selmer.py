"""The diagonal cubic 3X^3 + 4Y^3 + 5Z^3 = 0 and its surviving adelic class.

The cubic has points in every completion of Q but no rational point.
Evaluating the descent function at the 3-adic point [0 : delta : -2]
(delta the cube root of 10 in Q_3) gives a class in the cube-class group
of Q_3(zeta_3) that pairs nontrivially with 2 -- the obstruction -- yet
lies in the annihilator of 60 and can be shifted inside that annihilator
to a class orthogonal to both 2 and 3.  That witness is the shadow of an
adelic section the obstruction does not kill.

Selmer's descent data also live on the elliptic curves E: b^2 = a^3 - 24300
and E': v^2 = u^3 + 900 and the 3-isogeny E' -> E.  No command here runs
them: that the isogeny is surjective on Q_3-points is sampled by the
reference in `tests/oracles.py`, on points it lifts back, and proved by no
command.

A point of the cubic has int and Fraction coordinates (ints where
integral): a rational point that Hensel's lemma lifts to a true Q_3 point
(see `_on_curve`).
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .cubic import cube_class_group, express, pi_valuation
from .exact import CertificateError, _exact_coordinate, record, split_prime_power
from .padic import hensel_root
from .tower import descent_value_at, evaluate_F_symbolic

__all__ = [
    "SelmerPoint",
    "SurvivalReport",
    "NoWitness",
    "section_point",
    "evaluate_F_local",
    "survival_analysis",
]

# Working 3-adic digits of the Hensel root taken here: the cube root delta
# of 10 comes back to one fewer (v_3(3 delta^2) = 1).
_Q3_DIGITS = 20


class NoWitness(ArithmeticError):
    """No class in the allowed coset kills both pairings; this would mean
    the adelic section does not survive, contradicting the expected
    conclusion, so it is raised loudly instead of being reported."""


# ------------------------------------------------------------- the point
def _v3(x) -> int:
    return split_prime_power(x, 3)[0]


def _on_curve(value, coords, partials) -> bool:
    """Does Hensel's lemma lift this point of F = 3x^3 + 4y^3 + 5z^3 to a
    Q_3 point?  `value` is F at `coords` and `partials` its dF/dx_i there.

    With k >= 0 the least that makes every 3^k x_i integral, x_i -> 3^k x_i
    multiplies F by 3^(3k) and dF/dx_i by 3^(2k).  There Hensel's lemma in
    the one variable of the least v_3(dF/dx_i) != 0 needs
    v_3(F) > 2 v_3(dF/dx_i), the others fixed.  `value` is never 0: the
    cubic has no rational point (Selmer's theorem), and `SelmerPoint`
    refuses the zero vector."""
    k = max([0] + [-_v3(x) for x in coords if x])
    least = min((_v3(d) + 2 * k for d in partials if d), default=None)
    return least is not None and _v3(value) + 3 * k > 2 * least


class SelmerPoint(record("SelmerPoint", "x y z")):
    """Projective point [x : y : z] of 3X^3 + 4Y^3 + 5Z^3 = 0 over Q_3,
    verified on construction by `_on_curve`."""

    __slots__ = ()

    def __new__(cls, x, y, z):
        coords = tuple(_exact_coordinate(c) for c in (x, y, z))
        if not any(coords):
            raise ValueError("projective coordinates must not all vanish")
        value = sum(coeff * c * c * c for coeff, c in zip((3, 4, 5), coords))
        partials = [3 * coeff * c * c for coeff, c in zip((3, 4, 5), coords)]
        if not _on_curve(value, coords, partials):
            raise ValueError(f"{list(coords)} is not on the cubic (3, 4, 5) over Q_3")
        return tuple.__new__(cls, coords)


# ----------------------------------------------- the local descent class
def _delta() -> tuple[int, int]:
    """delta = cbrt(10) in Q_3 as (residue, digits), Hensel-lifted from 4."""
    return hensel_root([-10, 0, 0, 1], 4, 3, _Q3_DIGITS)


def section_point() -> SelmerPoint:
    """The 3-adic point [0 : delta : -2] on 3X^3+4Y^3+5Z^3 = 0, where delta
    is the unique cube root of 10 in Q_3 (Hensel from 4; the other two
    roots generate ramified extensions, so there is no choice to make)."""
    return SelmerPoint(0, _delta()[0], -2)


def _class_at_digits(k: int, delta_k: int, coefficients):
    """The cube class of F(delta) read off delta_k = delta mod 3^k, or None
    where the rule below does not prove it.

    With F = c0 + c1 x + c2 x^2 (`evaluate_F_symbolic`),
    F(delta_k) - F(delta) = (delta_k - delta)(c1 + c2 (delta_k + delta)) has
    pi-valuation at least 2k + m, m = min v_pi(c1, c2): v_pi(3) = 2 and
    delta_k, delta are integral.  So F(delta) / F(delta_k) lies in
    1 + pi^(2k + m - v) O, v = v_pi(F(delta_k)), and the units 1 + pi^4 O
    are cubes: U^(n+2) = (U^(n))^3 for n >= 2, as U^(n) = p^n for
    n > e/(p - 1) = 1 (Neukirch, ANT II.5.5).  The classes agree once
    2k + m - v >= 4.
    """
    _, c1, c2 = coefficients
    m = min(pi_valuation(c1), pi_valuation(c2))
    value = descent_value_at(Fraction(delta_k), coefficients)
    if value.is_zero or 2 * k + m - pi_valuation(value) < 4:
        return None
    return express(value)


def evaluate_F_local() -> tuple[int, int, int, int]:
    """Cube class of the descent value at [0 : delta : -2] in F_3^4.

    The class of F(delta_k) at the least k at which `_class_at_digits`
    proves it that of F(delta), delta_k running over the residues of one
    Hensel root; CertificateError if none of its digits does (k = 4 does)."""
    coefficients = evaluate_F_symbolic()
    delta, digits = _delta()
    for k in range(1, digits + 1):
        vec = _class_at_digits(k, delta % 3**k, coefficients)
        if vec is not None:
            return vec
    raise CertificateError(
        f"the descent class of the 3-adic point [0 : cbrt(10) : -2] is not proven"
        f" by any of the {digits} digits of cbrt(10)"
    )


# ---------------------------------------------------------- the analysis
class SurvivalReport(record(
    "SurvivalReport",
    "F_class pairing_with_2 pairing_with_3 pairing_with_60 in_annihilator_60"
    " ann_23_dimension ann_60_dimension witness tau_plus_dimension tau_minus_dimension",
)):
    """Linear-algebra record of the survival argument in F_3^4.

    The descent class pairs nontrivially with 2 (the cubic has no rational
    point) but annihilates 60, and some shift of it inside the annihilator
    of 60 is orthogonal to both 2 and 3: that witness class is compatible
    with every constraint the obstruction imposes, so the adelic section
    behind it survives.  The same holds for the Galois conjugate class,
    with the conjugate witness: the conjugation fixes the classes of 2, 3
    and 60 and negates the pairing."""

    __slots__ = ()

    @property
    def survives(self) -> bool:
        return self.in_annihilator_60


def survival_analysis() -> SurvivalReport:
    """Run the full F_3 linear algebra around the descent class.

    The Galois automorphism tau: zeta_3 -> zeta_3^2 fixes the classes of
    the rational numbers 2, 3 and 60, checked here, and negates the
    pairing, checked by `cube_class_group`.  So each verdict holds for
    tau of the class as well: tau(witness) is a witness for it, it pairs
    with 2 as minus the class does, and no dimension depends on the
    class."""
    group = cube_class_group()
    f_vec = evaluate_F_local()

    class2 = express(2)
    class3 = express(3)
    class60 = express(60)
    for rational_class in (class2, class3, class60):
        if group.apply_tau(rational_class) != rational_class:
            raise CertificateError(f"the rational class {rational_class} is not fixed by tau")

    p2 = group.pairing_of_vectors(class2, f_vec)
    p3 = group.pairing_of_vectors(class3, f_vec)
    p60 = group.pairing_of_vectors(class60, f_vec)

    ann60 = group.annihilator([class60])
    ann23 = group.annihilator([class2, class3])

    witness = None
    for coeffs in itertools.product(range(3), repeat=len(ann60)):
        cand = tuple(
            (f + sum(t * b[i] for t, b in zip(coeffs, ann60))) % 3
            for i, f in enumerate(f_vec)
        )
        if (
            group.pairing_of_vectors(class2, cand) == 0
            and group.pairing_of_vectors(class3, cand) == 0
        ):
            witness = cand
            break
    if witness is None:
        raise NoWitness(
            "no shift of the descent class inside the annihilator of 60 is "
            "orthogonal to 2 and 3 -- the survival conclusion would fail"
        )

    return SurvivalReport(
        F_class=f_vec,
        pairing_with_2=p2,
        pairing_with_3=p3,
        pairing_with_60=p60,
        in_annihilator_60=p60 == 0,
        ann_23_dimension=len(ann23),
        ann_60_dimension=len(ann60),
        witness=witness,
        tau_plus_dimension=len(group.tau_eigenspace(1)),
        tau_minus_dimension=len(group.tau_eigenspace(-1)),
    )
