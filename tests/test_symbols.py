import random
from fractions import Fraction

import pytest

from localglobal.symbols import (
    InvariantValue,
    Place,
    REAL_PLACE,
    hilbert2,
    hilbert2_reader,
    product_formula_check,
)
import oracles
from oracles import _quotient_product, norm_test, power_class, quotient_norm
from oracles import closed_is_local_norm as is_local_norm


def test_place_basics():
    assert Place(17).prime == 17
    assert REAL_PLACE.is_real and not REAL_PLACE.is_finite
    assert str(Place(2)) == "2"
    assert str(REAL_PLACE) == "infinity"
    with pytest.raises(ValueError):
        Place(15)


def test_invariant_values():
    half = InvariantValue.half()
    assert str(half) == "1/2"
    assert (half + half).is_zero
    assert str(InvariantValue.thirds(2)) == "2/3"
    assert str(InvariantValue.thirds(1) + InvariantValue.thirds(2)) == "0"
    assert str(-InvariantValue.thirds(1)) == "2/3"
    with pytest.raises(ValueError):
        InvariantValue(Fraction(1, 5))


LEGAL = [Fraction(k, 6) for k in (0, 2, 3, 4)]


@pytest.mark.parametrize("x", LEGAL, ids=str)
@pytest.mark.parametrize("y", LEGAL, ids=str)
def test_interned_sums_are_fraction_sums_mod_1(x, y):
    """The sum table against Fraction arithmetic mod 1, on all 16 pairs: a
    sum with denominator 6 (1/2 + 1/3) is refused as before."""
    a, b = InvariantValue(x), InvariantValue(y)
    total = (x + y) % 1
    if total.denominator == 6:
        with pytest.raises(ValueError, match="unsupported invariant denominator"):
            a + b
    else:
        assert (a + b).value == total and a + b is InvariantValue(total)


@pytest.mark.parametrize("x", LEGAL, ids=str)
def test_interned_values_keep_the_record_contract(x):
    """Negation is -x mod 1; equal values are one instance, whose hash is
    that of the tuple of its field and whose repr names that field."""
    value = InvariantValue(x)
    assert (-value).value == -x % 1 and -value is InvariantValue(-x)
    assert value is InvariantValue(x + 3) is InvariantValue(str(x - 1))
    assert hash(value) == hash((x,)) == tuple.__hash__(value)
    assert repr(value) == f"InvariantValue(value={x!r})"
    assert value.is_zero == (x == 0)


def test_interned_construction():
    assert InvariantValue(Fraction(5, 2)) is InvariantValue.half()
    assert InvariantValue(-4) is InvariantValue.zero()
    assert InvariantValue.thirds(-1) is InvariantValue(Fraction(2, 3))
    for bad in (Fraction(1, 6), Fraction(7, 4), Fraction(-1, 12)):
        with pytest.raises(ValueError, match=f"unsupported invariant denominator: {bad % 1}"):
            InvariantValue(bad)
    with pytest.raises(TypeError):
        InvariantValue.half() + Fraction(1, 2)


def test_hilbert2_examples():
    assert hilbert2(-1, -1, REAL_PLACE) == (-1, InvariantValue.half())
    assert hilbert2(2, 17, 17) == (1, InvariantValue.zero())   # 2 = 6^2 mod 17
    assert hilbert2(3, 17, 17) == (-1, InvariantValue.half())  # 3 is a non-residue
    assert hilbert2(5, 7, REAL_PLACE)[0] == 1
    # classical 2-adic values
    assert hilbert2(2, 2, 2)[0] == 1    # 2 = norm of sqrt(2) squared... (2,2)=(2,-1)(2,-2)=1
    assert hilbert2(2, 3, 2)[0] == -1
    assert hilbert2(-1, -1, 2)[0] == -1
    assert hilbert2(2, 7, 2)[0] == 1    # 7 = -1 mod 8: x^2-2y^2 represents 7
    assert hilbert2(5, 2, 5)[0] == -1   # 2 is a non-residue mod 5


def test_hilbert2_symmetric_bimultiplicative():
    rng = random.Random(11)
    places = [REAL_PLACE, Place(2), Place(3), Place(5), Place(17)]
    for _ in range(150):
        v = rng.choice(places)
        a, b, c = (
            Fraction(rng.choice([-1, 1]) * rng.randrange(1, 60), rng.randrange(1, 20))
            for _ in range(3)
        )
        assert hilbert2(a, b, v)[0] == hilbert2(b, a, v)[0]
        assert hilbert2(a * c, b, v)[0] == hilbert2(a, b, v)[0] * hilbert2(c, b, v)[0]
        # squares are everywhere norms
        assert hilbert2(a * a, b, v)[0] == 1


def _quadratic_norm_classes(p, b, bound=60):
    """Classes mod squares of values x^2 - b y^2: a brute-force norm set."""
    classes = set()
    for x in range(bound):
        for y in range(bound):
            if x == 0 and y == 0:
                continue
            val = Fraction(x) ** 2 - b * Fraction(y) ** 2
            if val != 0:
                classes.add(power_class(val, 2, p))
    return classes


def test_hilbert2_against_norm_brute_force():
    rng = random.Random(23)
    for p in (2, 3, 17):
        cache = {}
        for _ in range(200):
            a = Fraction(rng.choice([-1, 1]) * rng.randrange(1, 40)) * Fraction(p) ** rng.randrange(-2, 3)
            b = Fraction(rng.choice([-1, 1]) * rng.randrange(1, 40)) * Fraction(p) ** rng.randrange(-2, 3)
            key = power_class(b, 2, p)
            if key not in cache:
                cache[key] = _quadratic_norm_classes(p, b)
            is_norm = power_class(a, 2, p) in cache[key]
            assert (hilbert2(a, b, p)[0] == 1) == is_norm, (p, a, b)
            assert hilbert2_reader(p, b)(a) == hilbert2(a, b, p)[1], (p, a, b)
            assert hilbert2_reader(Place(p), b)(a).is_zero == is_norm, (p, a, b)


def test_zero_has_no_hilbert_symbol():
    for a, b, v in ((0, 3, 5), (3, 0, 5), (0, 3, 2), (Fraction(0), 3, REAL_PLACE)):
        with pytest.raises(ValueError):
            hilbert2(a, b, v)
    with pytest.raises(ValueError):
        hilbert2_reader(5, 0)
    with pytest.raises(ValueError):
        hilbert2_reader(5, 3)(0)
    with pytest.raises(ValueError):
        hilbert2_reader(15, 3)
    with pytest.raises(ValueError):
        hilbert2_reader(REAL_PLACE, 3)


def test_product_formula_examples():
    assert product_formula_check(3, 17).is_zero
    assert hilbert2(3, 17, 3)[0] == -1 and hilbert2(3, 17, 17)[0] == -1
    assert product_formula_check(2, 17).is_zero
    assert product_formula_check(1, Fraction(-9, 7)).is_zero


def test_product_formula_random_sweep():
    rng = random.Random(7)
    for _ in range(1000):
        a = Fraction(rng.choice([-1, 1]) * rng.randrange(1, 10**4), rng.randrange(1, 10**4))
        b = Fraction(rng.choice([-1, 1]) * rng.randrange(1, 10**4), rng.randrange(1, 10**4))
        assert product_formula_check(a, b).is_zero, (a, b)


def radical(m, d):
    """The modulus of Q[x]/(x^m - d): x^m = d."""
    return (Fraction(d),) + (0,) * (m - 1)


def fractions(coeffs):
    return tuple(Fraction(c) for c in coeffs)


def test_local_ext_element_arithmetic():
    mod = radical(4, 17)
    a, b = fractions((1, 2, 0, 1)), fractions((3, 0, 1, 0))
    # norm is multiplicative
    assert quotient_norm(_quotient_product(a, b, mod), mod) == quotient_norm(a, mod) * quotient_norm(b, mod)
    # the norm of a base-field element is its 4th power
    assert quotient_norm(fractions((5, 0, 0, 0)), mod) == 5**4
    # the norm of the radical generator is -d for degree 4
    assert quotient_norm(fractions((0, 1, 0, 0)), mod) == -17


def test_local_ext_norm_multiplicative_random():
    rng = random.Random(3)
    for p, m, d in [(17, 4, 17), (3, 2, 7), (5, 3, 2), (2, 4, -1)]:
        mod = radical(m, d)
        for _ in range(10):
            a = fractions(rng.randrange(-4, 5) for _ in range(m))
            b = fractions(rng.randrange(-4, 5) for _ in range(m))
            na, nb = quotient_norm(a, mod), quotient_norm(b, mod)
            assert quotient_norm(_quotient_product(a, b, mod), mod) == na * nb, (p, m, d, a, b)


def test_is_local_norm_quartic_17():
    assert is_local_norm(-17, 17, 4, 17)
    assert not is_local_norm(2, 17, 4, 17)
    assert is_local_norm(16, 17, 4, 17)
    # Full 64-class table: 17^k u is a norm iff (-1)^k u is a 4th-power
    # residue mod 17 (the group generated by -17 and the 4th-power units).
    fourth_powers = {pow(t, 4, 17) for t in range(1, 17)}
    for k in range(4):
        for u in range(1, 17):
            expected = (pow(-1, k, 17) * u) % 17 in fourth_powers
            assert is_local_norm(Fraction(17**k * u), 17, 4, 17) == expected, (k, u)


def test_is_local_norm_positive_soundness():
    # literal norms of random elements must always be accepted
    rng = random.Random(9)
    for p, m, d in [(17, 4, 17), (5, 3, 2), (7, 3, 2), (13, 4, 13), (2, 4, -1)]:
        for _ in range(25):
            tup = tuple(rng.randrange(-5, 6) for _ in range(m))
            if not any(tup):
                continue
            val = quotient_norm(tup, radical(m, d))
            if val == 0:
                continue
            assert is_local_norm(val, p, m, d), (p, m, d, tup, val)


def test_is_local_norm_splitting_and_small_cases():
    assert is_local_norm(7, 17, 4, 16)       # 16 = 2^4: split algebra
    assert is_local_norm(5, 5, 2, 4)         # 4 is a square
    assert not is_local_norm(5, 5, 2, 2)     # 2 is a non-residue mod 5; v(5) odd
    assert is_local_norm(11, 5, 2, 2)        # 11 = 1 mod 5 is a residue
    assert is_local_norm(3, 3, 3, 10)        # non-Galois cubic: norms are onto
    assert is_local_norm(2, 2, 3, 5)         # no cube roots of unity in Q_2
    # unramified abelian quartic over Q_5 (2 has order 4 mod 5): norms are
    # exactly the classes with valuation divisible by 4 -- 5 is not one
    assert not is_local_norm(5, 5, 4, 2)
    assert is_local_norm(5**4, 5, 4, 2)
    assert is_local_norm(3, 5, 4, 2)         # any unit is an unramified norm
    with pytest.raises(ValueError):
        is_local_norm(0, 5, 2, 2)
    with pytest.raises(ValueError):
        is_local_norm(3, 5, 5, 2)


@pytest.mark.parametrize("args, message", [
    ((0, 15, 5, 0), "nonzero arguments required"),   # x = 0 first, whatever else is wrong
    ((0, 15, 4, 2), "nonzero arguments required"),
    ((Fraction(0), 17, 4, 2), "nonzero arguments required"),
    ((1, 15, 5, 0), "nonzero arguments required"),   # then d = 0
    ((1, 17, 4, Fraction(0)), "nonzero arguments required"),
    ((1, 15, 5, 2), "15 is not prime"),              # then p
    ((1, -7, 4, 2), "-7 is not prime"),
    ((1, 17, 5, 2), "supported degrees: 2, 3, 4"),   # then m
    ((1, 2, 1, 2), "supported degrees: 2, 3, 4"),
])
def test_is_local_norm_argument_errors_in_order(args, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        is_local_norm(*args)
    if args[0]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            norm_test(*args[1:])


@pytest.mark.parametrize("p, m, d", [(2, 4, 31), (2, 4, 17), (3, 3, 10), (17, 4, 17), (5, 2, 2)])
def test_norm_test_refuses_x_zero_on_every_route(p, m, d):
    test = norm_test(p, m, d)
    for zero in (0, Fraction(0)):
        with pytest.raises(ValueError, match="^nonzero arguments required$"):
            test(zero)


def test_the_biquadratic_route_builds_no_padic_number():
    """At q = 2, -31 = s^2: the symbol (x, 2s) takes s off a residue of
    -31, so every decision is definite and is made on integers (the
    package has no p-adic number type: `test_no_module_names_a_padic_number_type`)."""
    xs = (1, 3, 5, 7, 2, 6, 10, 14, -1, -3, Fraction(5, 3), 31 * 4)
    expected = [oracles.is_local_norm(x, 2, 4, 31) for x in xs]
    assert True in expected and False in expected
    assert [is_local_norm(x, 2, 4, 31) for x in xs] == expected


def test_norm_test_equals_is_local_norm_on_int_and_fraction_inputs():
    rng = random.Random(22)
    for p in (2, 3, 5, 7, 13, 17):
        for m in (2, 3, 4):
            for d in (p, -p, 2 * p + 1, -(p**2) * 3, Fraction(1, p)):
                test = norm_test(p, m, d)
                for _ in range(20):
                    x = rng.choice((-1, 1)) * rng.randrange(1, 500) * p ** rng.randrange(3)
                    assert test(x) == test(Fraction(x)) == is_local_norm(Fraction(x), p, m, Fraction(d)), (x, p, m, d)


def test_is_local_norm_quadratic_matches_hilbert2():
    rng = random.Random(31)
    for p in (2, 3, 5, 17):
        for _ in range(60):
            x = Fraction(rng.choice([-1, 1]) * rng.randrange(1, 50)) * Fraction(p) ** rng.randrange(-1, 2)
            d = Fraction(rng.choice([-1, 1]) * rng.randrange(1, 50))
            assert is_local_norm(x, p, 2, d) == (hilbert2(x, d, p)[0] == 1)
