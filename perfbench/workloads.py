"""Workload inputs and output oracles for the localglobal benchmark.

Inputs are generated here from the seed; the program under test receives
only the generated items.  Every item carries a check taken from the
paper's own claims, and a failed check counts as an error of that item.

Item kinds:

- ``("twist", p, passes)``: decide the four twist conditions for
  2y^2 = z^4 - p; when they hold, compute the forced section invariants.
- ``("fibre", t)``: ``localglobal elkies verify --t=<t>`` through ``cli.main``.
- ``("selmer", command)``: ``localglobal selmer <command>`` through ``cli.main``.
- ``("identities",)``: ``tower.curve_identity_suite()``.
- ``("hilbert3", a, b)``: the cubic Hilbert symbol both ways round.
- ``("norm", x, y)``: norms to Q(zeta_3) of two tower elements and of
  their product.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from fractions import Fraction

WORKLOADS = ("twists", "family", "cubic")

# Candidate primes for `twists`: primes p with TWIST_LOW < p <= TWIST_HIGH.
# Every twist that passes the conditions and lies below FORCED_HIGH is an
# item; the seed chooses one of each pair of neighbouring failing primes.
TWIST_LOW, TWIST_HIGH, FORCED_HIGH = 100, 2000, 1300

# Candidate parameters for `family`: rationals of height <= FAMILY_HEIGHT.
FAMILY_HEIGHT = 14

# Seeded items of `cubic`.
HILBERT3_ITEMS, NORM_ITEMS = 40, 80
HILBERT3_RANGE, NORM_COORD = 10_000, 2

# The paper's claims, checked on every item.  Tests perturb these to show
# that a wrong expectation turns into errors.
EXPECTED = {
    "twist_total": ["1/2"],
    "small_twists": [17, 41, 97],
    "fibre_status": "obstructed",
    "fibre_invariant": "1/2",
    "F_class": [1, 0, 1, 0],
    "witness": [0, 0, 1, 2],
    "gamma_norm": ["-10", "0"],
}


# ------------------------------------------------------------------ inputs
def primes_between(low: int, high: int) -> list[int]:
    """Primes p with low < p <= high, by a plain sieve."""
    sieve = bytearray([1]) * (high + 1)
    sieve[:2] = b"\x00\x00"
    for i in range(2, math.isqrt(high) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [p for p in range(low + 1, high + 1) if sieve[p]]


def twist_passes(p: int) -> bool:
    """Does 2y^2 = z^4 - p pass the twist conditions?  For ell = 2 they
    reduce to: p = 1 mod 8 and 2 is not a quartic residue mod p.  By
    Gauss, for p = 1 mod 8 the number 2 is a quartic residue exactly when
    p = x^2 + 64y^2, which gives a check independent of the program."""
    if p % 8 != 1:
        return False
    return not any(
        math.isqrt(p - 64 * y * y) ** 2 == p - 64 * y * y
        for y in range(math.isqrt(p // 64) + 1)
    )


def _one_of_each_pair(values: list, rng: random.Random) -> list:
    """A stratified half: one element from each neighbouring pair (an odd
    last element is always kept), so every seed picks the same mix."""
    picked = [rng.choice(pair) for pair in zip(values[0::2], values[1::2])]
    if len(values) % 2:
        picked.append(values[-1])
    return picked


def rationals_of_height(height: int) -> list[Fraction]:
    values = {
        Fraction(a, b)
        for b in range(1, height + 1)
        for a in range(-height, height + 1)
        if math.gcd(a, b) == 1
    }
    return sorted(values, key=lambda q: (max(abs(q.numerator), q.denominator), q))


def family_value(t: Fraction) -> Fraction:
    """N(t) = (1 + 2/(1 + t + t^2))^4 + 16, the family's constant."""
    return (1 + Fraction(2) / (1 + t + t * t)) ** 4 + 16


_SEARCHED_PRIMES = primes_between(2, 499)


def family_cost(t: Fraction) -> int:
    """Predicted local-search cost of a fibre: the sum of q^2 over odd
    primes q < 500 dividing the numerator of N(t), where the program runs
    its O(q^2) residue search."""
    numerator = family_value(t).numerator
    return sum(q * q for q in _SEARCHED_PRIMES if numerator % q == 0)


def build(workload: str, seed: int) -> list[tuple]:
    """The items of one workload, a pure function of the seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "twists":
        if [p for p in primes_between(2, 100) if twist_passes(p)] != EXPECTED["small_twists"]:
            raise ValueError("the twist oracle does not reproduce the paper's list below 100")
        primes = primes_between(TWIST_LOW, TWIST_HIGH)
        forced = [p for p in primes if p <= FORCED_HIGH and twist_passes(p)]
        failing = [p for p in primes if not twist_passes(p)]
        chosen = sorted(forced + _one_of_each_pair(failing, rng))
        return [("twist", p, p in forced) for p in chosen]
    if workload == "family":
        # Pairs of neighbours in cost order keep the total work of a seed
        # close to that of every other seed.
        ts = sorted(rationals_of_height(FAMILY_HEIGHT), key=lambda t: (family_cost(t), t))
        chosen = _one_of_each_pair(ts, rng)
        key = lambda q: (max(abs(q.numerator), q.denominator), q)
        return [("fibre", "infinity")] + [("fibre", str(t)) for t in sorted(chosen, key=key)]
    if workload == "cubic":
        seeded = [
            ("hilbert3", _nonzero(rng, HILBERT3_RANGE), _nonzero(rng, HILBERT3_RANGE))
            for _ in range(HILBERT3_ITEMS)
        ] + [
            ("norm", _tower_coords(rng), _tower_coords(rng)) for _ in range(NORM_ITEMS)
        ]
        rng.shuffle(seeded)
        return [("selmer", "verify"), ("selmer", "survival"), ("identities",)] + seeded
    raise ValueError(f"unknown workload {workload!r}")


def _nonzero(rng: random.Random, bound: int) -> int:
    return rng.choice((-1, 1)) * rng.randint(1, bound)


def _tower_coords(rng: random.Random) -> tuple[int, ...]:
    return tuple(rng.randint(-NORM_COORD, NORM_COORD) for _ in range(6))


# --------------------------------------------------------------- execution
def execute(item: tuple, lib) -> object:
    """Run one item against the program; `lib` maps layer names to modules.
    Only this call is timed."""
    kind = item[0]
    if kind == "twist":
        tw = lib.reichardt_lind.TwistParams(2, item[1])
        passes = lib.reichardt_lind.twist_conditions(tw).all_satisfied
        forced = lib.reichardt_lind.forced_section_invariants(tw) if passes else None
        return passes, forced
    if kind == "fibre":
        return _cli(lib, ["elkies", "verify", f"--t={item[1]}"])
    if kind == "selmer":
        return _cli(lib, ["selmer", item[1]])
    if kind == "identities":
        return lib.tower.curve_identity_suite()
    if kind == "hilbert3":
        _, a, b = item
        return lib.cubic.hilbert3(a, b), lib.cubic.hilbert3(b, a)
    if kind == "norm":
        x, y = (_tower_element(lib, coords) for coords in item[1:])
        norm = lib.tower.norm_K_over_k
        return norm(x * y), norm(x) * norm(y)
    raise ValueError(f"unknown item kind {kind!r}")


def _cli(lib, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = lib.cli.main(argv)
    return code, out.getvalue()


def _tower_element(lib, coords):
    eis = lib.cubic.Eisenstein
    return lib.tower.KElement(
        *(eis(Fraction(coords[i]), Fraction(coords[i + 1])) for i in (0, 2, 4))
    )


# ----------------------------------------------------------------- oracles
def check(item: tuple, outcome) -> str | None:
    """None when the outcome agrees with the paper, else what went wrong."""
    kind = item[0]
    if kind == "twist":
        passes, forced = outcome
        if passes != item[2]:
            return f"p={item[1]}: conditions say {passes}, Gauss's criterion {item[2]}"
        if forced is not None:
            total = sorted(str(v) for v in forced.total)
            if forced.verdict != "obstructed" or total != EXPECTED["twist_total"]:
                return f"p={item[1]}: verdict {forced.verdict}, total {total}"
        return None
    if kind == "fibre":
        return _check_fibre(item[1], *outcome)
    if kind == "selmer":
        return _check_selmer(item[1], *outcome)
    if kind == "identities":
        return None if outcome.all_ok else f"identity suite failed: {outcome.failures}"
    if kind == "hilbert3":
        ab, ba = outcome
        if not (ab + ba).is_zero or ab.value.denominator not in (1, 3):
            return f"hilbert3{item[1:]}: ({ab}, {ba}) is not antisymmetric"
        return None
    if kind == "norm":
        product_norm, norm_product = outcome
        return None if product_norm == norm_product else f"N(xy) != N(x)N(y) for {item[1:]}"
    return f"unknown item kind {kind!r}"


def _report(code: int, text: str, command: str) -> tuple[dict | None, str | None]:
    if code != 0:
        return None, f"{command}: exit code {code}"
    try:
        return json.loads(text), None
    except ValueError:
        return None, f"{command}: output is not one JSON object"


def _check_fibre(t: str, code: int, text: str) -> str | None:
    report, problem = _report(code, text, f"elkies verify --t={t}")
    if problem:
        return problem
    res = report["result"]
    if report["status"] != EXPECTED["fibre_status"] or not res["everywhere_locally_solvable"]:
        return f"t={t}: status {report['status']}"
    if res["count"] % 2 != 1 or len(res["contributing_primes"]) != res["count"]:
        return f"t={t}: contributing count {res['count']} is not odd"
    if res["invariant"] != EXPECTED["fibre_invariant"]:
        return f"t={t}: invariant {res['invariant']}"
    n0, a, b = res["N0"], res["A"], res["B"]
    if n0 != a**4 + 16 * b**4:
        return f"t={t}: N0 = {n0} is not A^4 + 16B^4"
    n = Fraction(17) if t == "infinity" else family_value(Fraction(t))
    if res["N"] != str(n) or not _is_fourth_power(n / n0):
        return f"t={t}: N = {res['N']} does not match N0 = {n0}"
    return None


def _is_fourth_power(q: Fraction) -> bool:
    return all(
        v >= 0 and math.isqrt(math.isqrt(v)) ** 4 == v for v in (q.numerator, q.denominator)
    )


def _check_selmer(command: str, code: int, text: str) -> str | None:
    report, problem = _report(code, text, f"selmer {command}")
    if problem:
        return problem
    res = report["result"]
    if report["status"] != "ok" or res["F_class"] != EXPECTED["F_class"]:
        return f"selmer {command}: status {report['status']}, F_class {res.get('F_class')}"
    if command == "verify" and res["gamma_norm"] != EXPECTED["gamma_norm"]:
        return f"selmer verify: gamma norm {res['gamma_norm']}"
    if command == "survival" and (not res["survives"] or res["witness"] != EXPECTED["witness"]):
        return f"selmer survival: survives {res['survives']}, witness {res['witness']}"
    return None
