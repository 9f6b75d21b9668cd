"""The diagonal cubic 3X^3 + 4Y^3 + 5Z^3 = 0 and its surviving adelic class.

The cubic has points in every completion of Q but no rational point.  Its
descent data live on a pair of elliptic curves: the norm-side cubic
A^3 + B^3 + 60C^3 = 0 maps to E: b^2 = a^3 - 24300, which receives a
3-isogeny from E': v^2 = u^3 + 900 that is surjective on Q_3-points.
Evaluating the descent function at the 3-adic point [0 : delta : -2]
(delta the cube root of 10 in Q_3) gives a class in the cube-class group
of Q_3(zeta_3) that pairs nontrivially with 2 -- the obstruction -- yet
lies in the annihilator of 60 and can be shifted inside that annihilator
to a class orthogonal to both 2 and 3.  That witness is the shadow of an
adelic section the obstruction does not kill.

Points of these curves have int and Fraction coordinates (ints where
integral) and name the field they lie over: None for Q, where the equation
holds exactly; a prime p for F_p, with coordinates reduced to [0, p) and p
dividing the equation; or `Q3`, a rational point that Hensel's lemma lifts
to a true Q_3 point (see `_on_curve`).
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from .cubic import cube_class_group, express, pi_valuation
from .exact import (
    CertificateError,
    _exact_coordinate,
    legendre_symbol,
    record,
    residue,
    split_prime_power,
    sqrt_mod_prime,
)
from .padic import hensel_root
from .tower import descent_value_at, evaluate_F_symbolic

__all__ = [
    "Q3",
    "WeierstrassPoint",
    "SelmerPoint",
    "SurvivalReport",
    "NoWitness",
    "cubic_to_weierstrass",
    "isogeny_map",
    "isogeny_identity_check",
    "isogeny_preimage_Q3",
    "random_E_points_Q3",
    "random_curve_points_mod_p",
    "cubic_points_mod_p",
    "isogeny_sweep",
    "section_point",
    "evaluate_F_local",
    "survival_analysis",
]

# Weierstrass shifts: b^2 = a^3 + SHIFT[curve]
CURVE_SHIFT = {"E": -24300, "Eprime": 900}

# The field tag of a point over Q_3 (None is Q and a prime p is F_p).
Q3 = "Q3"

# Working 3-adic digits of every Hensel root taken here: the cube root
# delta of 10 comes back to one fewer (v_3(3 delta^2) = 1), the square
# roots of `random_E_points_Q3` and the T of `isogeny_preimage_Q3` to all.
_Q3_DIGITS = 20


class NoWitness(ArithmeticError):
    """No class in the allowed coset kills both pairings; this would mean
    the adelic section does not survive, contradicting the expected
    conclusion, so it is raised loudly instead of being reported."""


# ------------------------------------------------------------ point types
def _v3(x) -> int:
    return split_prime_power(x, 3)[0]


def _on_curve(value, coords, partials, weights, degree, field) -> bool:
    """Does F = 0 hold over the field at this point?  `value` is F at
    `coords` and `partials` its dF/dx_i there.  Over Q exactly, over F_p
    modulo p; over Q_3 when Hensel's lemma lifts the point to a Q_3 point.

    F has integral coefficients and is weighted homogeneous of degree
    `degree` apart from its constant, x_i of weight w_i.  With k >= 0 the
    least that makes every 3^(k w_i) x_i integral, x_i -> 3^(k w_i) x_i
    keeps the coefficients integral, multiplies F by 3^(k degree) and
    dF/dx_i by 3^(k (degree - w_i)).  There Hensel's lemma in the one
    variable of the least v_3(dF/dx_i) != 0 needs v_3(F) > 2 v_3(dF/dx_i),
    the others fixed.  An exact zero is a point already."""
    if field != Q3 or value == 0:
        return _is_zero(value, field)
    k = max([0] + [-(_v3(x) // w) for x, w in zip(coords, weights) if x])
    least = min((_v3(d) + k * (degree - w) for d, w in zip(partials, weights) if d),
                default=None)
    return least is not None and _v3(value) + k * degree > 2 * least


def _is_zero(x, field) -> bool:
    """The zero test of the field: modulo p over F_p, exact otherwise."""
    return x % field == 0 if isinstance(field, int) else x == 0


def _coordinates(coords, field) -> tuple:
    """ints in [0, p) over F_p, else ints where integral and Fractions."""
    if isinstance(field, int):
        return tuple(residue(c, field) for c in coords)
    if field is not None and field != Q3:
        raise ValueError(f"unknown field {field!r}")
    return tuple(_exact_coordinate(c) for c in coords)


class WeierstrassPoint(record("WeierstrassPoint", "curve a b infinity field")):
    """Affine point (a, b) with b^2 = a^3 + shift over `field`, or the point
    at infinity.

    curve is "E" (shift -24300) or "Eprime" (shift +900); the equation is
    verified on construction by `_on_curve`.
    """

    __slots__ = ()

    def __new__(cls, curve: str, a=None, b=None, infinity: bool = False, field=None):
        if curve not in CURVE_SHIFT:
            raise ValueError(f"unknown curve tag {curve!r}")
        if not infinity:
            a, b = _coordinates((a, b), field)
            value = b * b - a * a * a - CURVE_SHIFT[curve]
            if not _on_curve(value, (a, b), (-3 * a * a, 2 * b), (2, 3), 6, field):
                raise ValueError(f"({a}, {b}) is not on {curve} over {field}")
        return tuple.__new__(cls, (curve, a, b, infinity, field))

    @classmethod
    def at_infinity(cls, curve: str, field=None) -> "WeierstrassPoint":
        return cls(curve, infinity=True, field=field)


class SelmerPoint(record("SelmerPoint", "x y z form field")):
    """Projective point [x : y : z] on a diagonal cubic sum(form_i w_i^3)=0
    over `field`.

    The default form (3, 4, 5) is the everywhere-locally-solvable cubic
    itself; (1, 1, 60) is the norm-side cubic that maps to E.
    """

    __slots__ = ()

    def __new__(cls, x, y, z, form: tuple = (3, 4, 5), field=None):
        coords = _coordinates((x, y, z), field)
        if all(_is_zero(c, field) for c in coords):
            raise ValueError("projective coordinates must not all vanish")
        value = sum(coeff * c * c * c for coeff, c in zip(form, coords))
        partials = [3 * coeff * c * c for coeff, c in zip(form, coords)]
        if not _on_curve(value, coords, partials, (1, 1, 1), 3, field):
            raise ValueError(f"point is not on the cubic {form} over {field}")
        return tuple.__new__(cls, (*coords, form, field))

    @property
    def coords(self):
        return (self.x, self.y, self.z)


# ------------------------------------------------------ algebraic maps
def cubic_to_weierstrass(pt: SelmerPoint) -> WeierstrassPoint:
    """Map [A:B:C] with A^3 + B^3 + 60 C^3 = 0 to E via
    (a, b) = (-180 C/(A+B), 270 (A-B)/(A+B)); A + B = 0 (the origin
    [1:-1:0]) goes to the point at infinity."""
    if tuple(pt.form) != (1, 1, 60):
        raise ValueError("the Weierstrass map needs the norm-side cubic (1, 1, 60)")
    a_, b_, c_ = pt.coords
    s = a_ + b_
    if _is_zero(s, pt.field):
        return WeierstrassPoint.at_infinity("E", pt.field)
    return WeierstrassPoint("E", Fraction(-180 * c_, s), Fraction(270 * (a_ - b_), s),
                            field=pt.field)


def isogeny_map(pt: WeierstrassPoint) -> WeierstrassPoint:
    """The 3-isogeny E' -> E: (u, v) -> ((u^3+3600)/u^2, v (u^3-7200)/u^3).

    The kernel (u = 0, v = +-30) goes to the point at infinity; images are
    verified on E by WeierstrassPoint itself."""
    if pt.curve != "Eprime":
        raise ValueError("isogeny_map starts on Eprime")
    if pt.infinity or _is_zero(pt.a, pt.field):
        return WeierstrassPoint.at_infinity("E", pt.field)
    u, v = pt.a, pt.b
    u3 = u * u * u
    return WeierstrassPoint("E", Fraction(u3 + 3600, u * u), Fraction(v * (u3 - 7200), u3),
                            field=pt.field)


def isogeny_identity_check() -> bool:
    """The substitution identity behind isogeny_map, as exact polynomial
    arithmetic in x = u^3: (x + 3600)^3 - 24300 x^2 = (x + 900)(x - 7200)^2,
    so v^2 = x + 900 forces b^2 = a^3 - 24300."""

    def mul(f, g):
        out = [Fraction(0)] * (len(f) + len(g) - 1)
        for i, fi in enumerate(f):
            for j, gj in enumerate(g):
                out[i + j] += fi * gj
        return out

    lhs = mul(mul([3600, 1], [3600, 1]), [3600, 1])
    lhs[2] -= 24300
    rhs = mul([900, 1], mul([-7200, 1], [-7200, 1]))
    return lhs == rhs


def isogeny_preimage_Q3(pt: WeierstrassPoint) -> WeierstrassPoint:
    """Invert the isogeny on a Q_3-point of E (or a rational one).

    Every affine Q_3-point has v_3(a) <= 0 (otherwise v_3(b^2) would be odd),
    so 3600/a^3 lies in 9 Z_3 and f(T) = T^3 - T^2 + 3600/a^3 has a simple
    root at T = 1 mod 3; Hensel lifts it to _Q3_DIGITS digits, u = T a, and
    v = b u^3/(u^3 - 7200).  The image of (u, v) is (a + a f(T)/T^2, b), so
    the round trip through isogeny_map must give b exactly and a to
    v_3(a) + digits(T) digits; CertificateError otherwise.
    """
    if pt.curve != "E":
        raise ValueError("isogeny_preimage_Q3 starts on E")
    if pt.field not in (None, Q3):
        raise ValueError(f"isogeny_preimage_Q3 needs a point over Q or Q_3, not {pt.field}")
    if pt.infinity:
        return WeierstrassPoint.at_infinity("Eprime", Q3)
    a, b = pt.a, pt.b
    if _v3(a) > 0:
        raise ValueError("no affine Q_3-point of E has positive valuation in a")
    t, digits = hensel_root([Fraction(3600) / a**3, 0, -1, 1], 1, 3, _Q3_DIGITS)
    u = t * a
    u3 = u * u * u
    pre = WeierstrassPoint("Eprime", u, Fraction(b * u3, u3 - 7200), field=Q3)
    back = isogeny_map(pre)
    if back.b != b or (back.a != a and _v3(back.a - a) < _v3(a) + digits):
        raise CertificateError(f"isogeny round trip drifted at a={a}")
    return pre


# ------------------------------------------------------------- sampling
def random_E_points_Q3(count: int, seed: int = 0):
    """Random points of E(Q_3): for a = 1 mod 3, divided by 9 one time in
    four, a^3 - 24300 is 3^v w with v = 0 or -6 and the unit w = 1 mod 9,
    whose square root Hensel lifts from 1; b = 3^(v/2) sqrt(w)."""
    rng = random.Random(seed)
    points = []
    for _ in range(count):
        a = 1 + 3 * rng.randrange(1, 500)
        if rng.randrange(4) == 0:
            a = Fraction(a, 9)
        v, w = split_prime_power(a**3 - 24300, 3)
        root, _ = hensel_root([-w, 0, 1], 1, 3, _Q3_DIGITS)
        points.append(WeierstrassPoint("E", a, root * Fraction(3) ** (v // 2), field=Q3))
    return points


def random_curve_points_mod_p(curve: str, p: int, count: int, seed: int = 0):
    """Random affine points of E or E' over F_p (p coprime to 30): sample
    u until u^3 + shift is a square, then take a square root."""
    if p < 5 or 30 % p == 0:
        raise ValueError("need a prime of good reduction (coprime to 30)")
    rng = random.Random(seed)
    shift = CURVE_SHIFT[curve]
    points = []
    while len(points) < count:
        u = rng.randrange(p)
        w = (u**3 + shift) % p
        if w == 0:
            points.append(WeierstrassPoint(curve, u, 0, field=p))
        elif legendre_symbol(w, p) == 1:
            points.append(WeierstrassPoint(curve, u, sqrt_mod_prime(w, p), field=p))
    return points


def cubic_points_mod_p(p: int, form: tuple = (1, 1, 60)):
    """All projective points of the diagonal cubic over F_p, one
    representative per line (first nonzero coordinate scaled to 1)."""
    found = []
    for rep in itertools.chain(
        ((1, y, z) for y in range(p) for z in range(p)),
        ((0, 1, z) for z in range(p)),
        ((0, 0, 1),),
    ):
        if sum(c * w**3 for c, w in zip(form, rep)) % p == 0:
            found.append(SelmerPoint(*rep, form, field=p))
    return found


def isogeny_sweep(primes=(7, 11, 13, 17, 19, 23), per_prime: int = 100, seed: int = 0) -> int:
    """Push random E'(F_p) points through the isogeny for several good
    primes; every image is validated on E by construction.  Returns the
    number of points checked."""
    checked = 0
    for p in primes:
        for pt in random_curve_points_mod_p("Eprime", p, per_prime, seed + p):
            isogeny_map(pt)
            checked += 1
    return checked


# ----------------------------------------------- the local descent class
def _delta() -> tuple[int, int]:
    """delta = cbrt(10) in Q_3 as (residue, digits), Hensel-lifted from 4."""
    return hensel_root([-10, 0, 0, 1], 4, 3, _Q3_DIGITS)


def section_point() -> SelmerPoint:
    """The 3-adic point [0 : delta : -2] on 3X^3+4Y^3+5Z^3 = 0, where delta
    is the unique cube root of 10 in Q_3 (Hensel from 4; the other two
    roots generate ramified extensions, so there is no choice to make)."""
    return SelmerPoint(0, _delta()[0], -2, field=Q3)


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
    def obstruction_nontrivial(self) -> bool:
        return self.pairing_with_2 != 0

    @property
    def survives(self) -> bool:
        return self.in_annihilator_60 and self.witness is not None


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
