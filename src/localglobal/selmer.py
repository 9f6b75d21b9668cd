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
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from .cubic import Eisenstein, cube_class_group, pi_valuation
from .exact import CertificateError, legendre_symbol, record, sqrt_mod_prime
from .padic import NoConvergence, PadicNumber, hensel_root, padic_root
from .tower import descent_value_at, evaluate_F_symbolic

__all__ = [
    "FpElement",
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


class NoWitness(ArithmeticError):
    """No class in the allowed coset kills both pairings; this would mean
    the adelic section does not survive, contradicting the expected
    conclusion, so it is raised loudly instead of being reported."""


# ---------------------------------------------------------- prime fields
class FpElement(record("FpElement", "p r")):
    """An element of F_p with operator coercion from int."""

    __slots__ = ()

    def __new__(cls, p: int, r: int):
        return tuple.__new__(cls, (p, r % p))

    def _lift(self, other):
        if isinstance(other, FpElement):
            if other.p != self.p:
                raise ValueError("mixed characteristics")
            return other
        if isinstance(other, int):
            return FpElement(self.p, other)
        return None

    def __add__(self, other):
        o = self._lift(other)
        return NotImplemented if o is None else FpElement(self.p, self.r + o.r)

    __radd__ = __add__

    def __neg__(self):
        return FpElement(self.p, -self.r)

    def __sub__(self, other):
        o = self._lift(other)
        return NotImplemented if o is None else FpElement(self.p, self.r - o.r)

    def __rsub__(self, other):
        o = self._lift(other)
        return NotImplemented if o is None else FpElement(self.p, o.r - self.r)

    def __mul__(self, other):
        o = self._lift(other)
        return NotImplemented if o is None else FpElement(self.p, self.r * o.r)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return FpElement(self.p, self.r * pow(o.r, -1, self.p))

    def __pow__(self, k: int):
        return FpElement(self.p, pow(self.r, k, self.p))

    def __str__(self):
        return f"{self.r} (mod {self.p})"


def _vanishes(x) -> bool:
    """Zero test across the coordinate domains used here."""
    if isinstance(x, (int, Fraction)):
        return x == 0
    if isinstance(x, FpElement):
        return x.r == 0
    if isinstance(x, (PadicNumber, Eisenstein)):
        return x.is_zero
    raise TypeError(f"no zero test for {type(x).__name__}")


def _coord(x):
    """Exact ints become Fractions so that division stays exact."""
    return Fraction(x) if isinstance(x, int) else x


# ------------------------------------------------------------ point types
class WeierstrassPoint(record("WeierstrassPoint", "curve a b infinity")):
    """Affine point (a, b) with b^2 = a^3 + shift, or the point at infinity.

    curve is "E" (shift -24300) or "Eprime" (shift +900); the equation is
    verified on construction, exactly over Q and F_p and to the stored
    precision over Q_3.
    """

    __slots__ = ()

    def __new__(cls, curve: str, a=None, b=None, infinity: bool = False):
        if curve not in CURVE_SHIFT:
            raise ValueError(f"unknown curve tag {curve!r}")
        if not infinity:
            a, b = _coord(a), _coord(b)
            if not _vanishes(b * b - a * a * a - CURVE_SHIFT[curve]):
                raise ValueError(f"({a}, {b}) is not on {curve}")
        return tuple.__new__(cls, (curve, a, b, infinity))

    @classmethod
    def at_infinity(cls, curve: str) -> "WeierstrassPoint":
        return cls(curve, infinity=True)


class SelmerPoint(record("SelmerPoint", "x y z form")):
    """Projective point [x : y : z] on a diagonal cubic sum(form_i w_i^3)=0.

    The default form (3, 4, 5) is the everywhere-locally-solvable cubic
    itself; (1, 1, 60) is the norm-side cubic that maps to E.
    """

    __slots__ = ()

    def __new__(cls, x, y, z, form: tuple = (3, 4, 5)):
        coords = (_coord(x), _coord(y), _coord(z))
        if all(_vanishes(c) for c in coords):
            raise ValueError("projective coordinates must not all vanish")
        total = 0
        for coeff, c in zip(form, coords):
            total = coeff * c * c * c + total
        if not _vanishes(total):
            raise ValueError(f"point is not on the cubic {form}")
        return tuple.__new__(cls, (*coords, form))

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
    if _vanishes(s):
        return WeierstrassPoint.at_infinity("E")
    return WeierstrassPoint("E", -180 * c_ / s, 270 * (a_ - b_) / s)


def isogeny_map(pt: WeierstrassPoint) -> WeierstrassPoint:
    """The 3-isogeny E' -> E: (u, v) -> ((u^3+3600)/u^2, v (u^3-7200)/u^3).

    The kernel (u = 0, v = +-30) goes to the point at infinity; images are
    verified on E by WeierstrassPoint itself."""
    if pt.curve != "Eprime":
        raise ValueError("isogeny_map starts on Eprime")
    if pt.infinity or _vanishes(pt.a):
        return WeierstrassPoint.at_infinity("E")
    u, v = pt.a, pt.b
    u3 = u * u * u
    return WeierstrassPoint("E", (u3 + 3600) / (u * u), v * (u3 - 7200) / u3)


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


def isogeny_preimage_Q3(pt: WeierstrassPoint, precision: int = 20) -> WeierstrassPoint:
    """Invert the isogeny on a Q_3-point of E.

    Every affine Q_3-point has v_3(a) <= 0 (otherwise v_3(b^2) would be odd),
    so 3600/a^3 lies in 3 Z_3 and T^3 - T^2 + 3600/a^3 has a simple root
    at T = 1 mod 3; Newton lifts it, u = T a, and v = b u^3/(u^3 - 7200).
    The round trip through isogeny_map is checked to the working precision.
    """
    if pt.curve != "E":
        raise ValueError("isogeny_preimage_Q3 starts on E")
    if pt.infinity:
        return WeierstrassPoint.at_infinity("Eprime")
    a, b = (
        c if isinstance(c, PadicNumber) else PadicNumber.from_fraction(Fraction(c), 3, precision)
        for c in (pt.a, pt.b)
    )
    if a.valuation() > 0:
        raise ValueError("no affine Q_3-point of E has positive valuation in a")
    constant = 3600 / (a * a * a)
    if constant.valuation() < 1:
        raise CertificateError("T-equation constant must be in 3 Z_3")
    n = min(precision, constant.abs_prec)
    try:
        t, digits = hensel_root([constant.residue(n), 0, -1, 1], 1, 3, n)
    except NoConvergence as exc:  # pragma: no cover - would refute surjectivity
        raise NoConvergence(
            f"isogeny preimage Newton failed at a={pt.a}: {exc}; "
            "this contradicts Q_3-surjectivity of the isogeny"
        ) from exc
    u = PadicNumber(3, 0, t, digits) * a
    u3 = u * u * u
    pre = WeierstrassPoint("Eprime", u, b * u3 / (u3 - 7200))
    back = isogeny_map(pre)
    if not ((back.a - a).is_zero and (back.b - b).is_zero):
        raise CertificateError(f"isogeny round trip drifted at a={pt.a}")
    return pre


# ------------------------------------------------------------- sampling
def random_E_points_Q3(count: int, precision: int = 20, seed: int = 0):
    """Random points of E(Q_3): any a = 1 mod 3 (occasionally scaled to
    v_3(a) = -2) makes a^3 - 24300 a square unit times an even power of 3,
    and the square root Hensel-lifts."""
    rng = random.Random(seed)
    points = []
    while len(points) < count:
        a = Fraction(1 + 3 * rng.randrange(1, 500))
        if rng.random() < 0.25:
            a /= 9
        b = padic_root(PadicNumber.from_fraction(a**3 - 24300, 3, precision), 2)
        points.append(
            WeierstrassPoint("E", PadicNumber.from_fraction(a, 3, precision), b)
        )
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
            points.append(WeierstrassPoint(curve, FpElement(p, u), FpElement(p, 0)))
        elif legendre_symbol(w, p) == 1:
            v = sqrt_mod_prime(w, p)
            points.append(WeierstrassPoint(curve, FpElement(p, u), FpElement(p, v)))
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
            found.append(
                SelmerPoint(FpElement(p, rep[0]), FpElement(p, rep[1]), FpElement(p, rep[2]), form)
            )
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
# Absolute 3-adic digits asked of the Hensel root delta of x^3 - 10; it
# comes back to one fewer, as v_3(f'(delta)) = v_3(3 delta^2) = 1.
_DELTA_DIGITS = 20


def _delta() -> tuple[int, int]:
    """delta = cbrt(10) in Q_3 as (residue, digits), Hensel-lifted from 4."""
    return hensel_root([-10, 0, 0, 1], 4, 3, _DELTA_DIGITS)


def section_point() -> SelmerPoint:
    """The 3-adic point [0 : delta : -2] on 3X^3+4Y^3+5Z^3 = 0, where delta
    is the unique cube root of 10 in Q_3 (Hensel from 4; the other two
    roots generate ramified extensions, so there is no choice to make)."""
    delta, digits = _delta()
    return SelmerPoint(Fraction(0), PadicNumber(3, 0, delta, digits), Fraction(-2))


def _class_at_digits(k: int, delta_k: int, coefficients, group):
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
    return group.express(value)


def evaluate_F_local() -> tuple[int, int, int, int]:
    """Cube class of the descent value at [0 : delta : -2] in F_3^4.

    The class of F(delta_k) at the least k at which `_class_at_digits`
    proves it that of F(delta), delta_k running over the residues of one
    Hensel root; CertificateError if none of its digits does (k = 4 does)."""
    group = cube_class_group()
    coefficients = evaluate_F_symbolic()
    delta, digits = _delta()
    for k in range(1, digits + 1):
        vec = _class_at_digits(k, delta % 3**k, coefficients, group)
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
    " ann_23_dimension ann_60_dimension witness tau_plus_dimension tau_minus_dimension"
    " conjugated",
    defaults=(False,),
)):
    """Linear-algebra record of the survival argument in F_3^4.

    The descent class pairs nontrivially with 2 (the cubic has no rational
    point) but annihilates 60, and some shift of it inside the annihilator
    of 60 is orthogonal to both 2 and 3: that witness class is compatible
    with every constraint the obstruction imposes, so the adelic section
    behind it survives."""

    __slots__ = ()

    @property
    def obstruction_nontrivial(self) -> bool:
        return self.pairing_with_2 != 0

    @property
    def survives(self) -> bool:
        return self.in_annihilator_60 and self.witness is not None


def survival_analysis(conjugate: bool = False) -> SurvivalReport:
    """Run the full F_3 linear algebra around the descent class.

    With conjugate=True the class is replaced by its image under the
    Galois automorphism zeta_3 -> zeta_3^2 (the classes of the rational
    numbers 2, 3, 60 are fixed by it); all verdicts and dimensions must
    be unchanged, which the callers use as a consistency check."""
    group = cube_class_group()
    f_vec = evaluate_F_local()
    if conjugate:
        f_vec = group.apply_tau(f_vec)

    class2 = group.express(2)
    class3 = group.express(3)
    class60 = group.express(60)
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
        conjugated=conjugate,
    )
