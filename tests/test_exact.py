import functools
import math
import random
from fractions import Fraction

import oracles
import pytest
import sympy
from oracles import quartic_free_part

from localglobal import exact
from localglobal.exact import (
    Factorization,
    factorize,
    is_perfect_square,
    is_probable_prime,
    legendre_symbol,
    primes_up_to,
    quartic_residue_symbol,
    residue,
    split_prime_power,
    sqrt_mod_prime,
    valuation,
)


def test_primality_sweep_against_sympy():
    # trial division alone decides n < 53^2, two bases the rest
    assert [n for n in range(300_000) if is_probable_prime(n)] == list(sympy.sieve.primerange(300_000))


def test_primality_known_hard_composites():
    # Carmichael numbers and a classical strong pseudoprime to small bases.
    for n in [561, 1105, 1729, 2465, 6601, 8911, 10585, 62745, 162401, 3215031751]:
        assert not is_probable_prime(n), n
    assert is_probable_prime(2**89 - 1)  # Mersenne prime above the psi_13 cutoff
    assert not is_probable_prime((2**89 - 1) * (2**107 - 1))


PSI_12 = 318665857834031151167461
PSI_13 = 3317044064679887385961981
# psi_k, the least strong pseudoprime to the first k prime bases (OEIS A014233)
PSI = {
    1: 2047, 2: 1373653, 3: 25326001, 4: 3215031751, 5: 2152302898747,
    6: 3474749660383, 7: 341550071728321, 8: 341550071728321,
    9: 3825123056546413051, 10: 3825123056546413051, 11: 3825123056546413051,
    12: PSI_12, 13: PSI_13,
}


def _failing_bases(n):
    s = valuation(n - 1, 2)
    return [a for a in exact._SMALL_WITNESSES if not exact._miller_rabin_round(n, a, (n - 1) >> s, s)]


def test_thirteen_bases_decide_below_psi_13():
    # psi_12 passes the primes up to 37 and fails only 41; psi_13 passes all
    # thirteen, so the bases prove nothing there and the seeded rounds reject it
    assert exact._SMALL_WITNESSES == tuple(sympy.primerange(2, 42))
    assert _failing_bases(PSI_12) == [41] and not is_probable_prime(PSI_12)
    assert exact._PSI_13 == PSI_13
    assert _failing_bases(PSI_13) == [] and not is_probable_prime(PSI_13)
    below = sympy.prevprime(PSI_13)  # PSI_13 - 168
    assert is_probable_prime(below) and below < PSI_13


def test_witness_tiers_are_the_published_bounds():
    # one tier per distinct psi_k above 53^2, each with the most bases its
    # bound allows; psi_k is composite, passes its first k bases and fails
    # the next one (else psi_(k+1) would equal it)
    expected = [(psi, max(k for k in PSI if PSI[k] == psi))
                for psi in sorted(set(PSI.values())) if psi > 53**2]
    assert list(exact._WITNESS_TIERS) == expected
    for psi, k in exact._WITNESS_TIERS:
        failing = _failing_bases(psi)
        assert not sympy.isprime(psi) and not is_probable_prime(psi), psi
        assert not set(failing) & set(exact._SMALL_WITNESSES[:k]), psi
        assert k == 13 or exact._SMALL_WITNESSES[k] in failing, psi


@functools.cache
def _tier_samples():
    """Seeded n in every tier (300 each without a prime factor up to 47,
    so that Miller-Rabin decides them) and every n within 200 of a bound."""
    rng = random.Random(1980)
    bounds = [53**2] + sorted(set(PSI.values()) - {PSI[1]})
    trial = math.prod(exact._TRIAL_PRIMES)
    samples = []
    for low, high in zip(bounds, bounds[1:]):
        tier = []
        while len(tier) < 300:
            n = rng.randrange(low, high)
            if math.gcd(n, trial) == 1:
                tier.append(n)
        samples += tier
    for bound in bounds:
        samples += range(bound - 200, bound + 201)
    return tuple(samples)


@functools.cache
def _reference(n):
    """sympy's verdict on n, which the thirteen-base test must share."""
    expected = sympy.isprime(n)
    assert oracles.is_probable_prime_13(n) == expected, n
    return expected


def _disagreements(numbers):
    return [n for n in numbers if is_probable_prime(n) != _reference(n)]


def test_tiers_agree_with_thirteen_bases():
    samples = _tier_samples()
    assert sum(map(sympy.isprime, samples)) > 900  # primes in every tier
    assert _disagreements(samples) == []


def test_a_tier_too_wide_is_caught(monkeypatch):
    # negative control: with psi_4 in the three-base tier, the differential
    # test above must see psi_4 accepted
    widened = [(PSI[4] + 1, 3) if k == 3 else (psi, k) for psi, k in exact._WITNESS_TIERS]
    monkeypatch.setattr(exact, "_WITNESS_TIERS", tuple(widened))
    assert PSI[4] in _disagreements(_tier_samples())


def test_bases_are_sized_to_n(monkeypatch):
    rounds = []
    mr_round = exact._miller_rabin_round

    def recording_round(n, a, d, s):
        rounds.append(a)
        return mr_round(n, a, d, s)

    monkeypatch.setattr(exact, "_miller_rabin_round", recording_round)
    # the largest prime below each bound takes that tier's bases
    cases = [(2803, 0), (2819, 2), (2**61 - 1, 11), (2**64 + 13, 12), (2**89 - 1, 40)]
    cases += [(sympy.prevprime(psi), k) for psi, k in exact._WITNESS_TIERS]
    for n, bases in cases:
        rounds.clear()
        assert is_probable_prime(n), n
        assert len(rounds) == bases, n
        assert bases > 13 or rounds == list(exact._SMALL_WITNESSES[:bases]), n


def test_factorize_examples():
    assert factorize(24300).as_dict() == {2: 2, 3: 5, 5: 2}
    assert factorize(1921).as_dict() == {17: 1, 113: 1}
    assert factorize(-17) == Factorization(-1, ((17, 1),))
    assert factorize(1) == Factorization(1, ())
    with pytest.raises(ValueError):
        factorize(0)


def test_factorize_random_against_sympy():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randrange(2, 10**12)
        assert factorize(n).as_dict() == sympy.factorint(n), n
    # hard-ish semiprimes
    ps = [100003, 999983, 15485863, 32452843]
    for a in ps:
        for b in ps:
            assert factorize(a * b).as_dict() == sympy.factorint(a * b)


# Two 40-bit primes: Brent rho splits their product in 454526 iterations.
P40, Q40 = 549755813911, 549756862549


def test_factorize_splits_two_40_bit_primes_within_the_budget():
    assert exact.RHO_BUDGET > 454526
    assert factorize(P40 * Q40) == Factorization(1, ((P40, 1), (Q40, 1)))


def test_exhausted_factoring_budget_names_the_cofactor(monkeypatch):
    monkeypatch.setattr(exact, "RHO_BUDGET", 10_000)
    with pytest.raises(exact.FactoringBudgetExhausted) as info:
        factorize(-6 * P40 * Q40)
    assert info.value.cofactor == P40 * Q40
    assert f"budget of 10000 rho iterations ran out on the composite cofactor {P40 * Q40}" in str(info.value)


def test_factoring_budget_is_shared_by_the_cofactors(monkeypatch):
    # each semiprime splits within the budget alone; their product, which
    # takes three splits, runs out of it
    first, second = P40 * Q40, 1099510627781 * 1099511676413
    budget = exact._brent_rho(first, math.inf)[1] + exact._brent_rho(second, math.inf)[1] // 2
    monkeypatch.setattr(exact, "RHO_BUDGET", budget)
    assert factorize(first).value == first and factorize(second).value == second
    with pytest.raises(exact.FactoringBudgetExhausted):
        factorize(first * second)


def test_factorization_value_roundtrip():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randrange(2, 10**9) * rng.choice([-1, 1])
        assert factorize(n).value == n


def test_quartic_free_part():
    assert quartic_free_part(Fraction(17)) == (17, 1)
    assert quartic_free_part(Fraction(1921, 81)) == (1921, 3)
    assert quartic_free_part(Fraction(16)) == (1, Fraction(1, 2))
    assert quartic_free_part(Fraction(-32)) == (-2, Fraction(1, 2))
    rng = random.Random(3)
    for _ in range(50):
        q = Fraction(rng.randrange(1, 10**6), rng.randrange(1, 10**4))
        q *= rng.choice([-1, 1])
        n0, m = quartic_free_part(q)
        assert q * m**4 == n0
        assert all(e < 4 for e in factorize(n0).as_dict().values()) or abs(n0) == 1


def test_legendre_symbol():
    assert legendre_symbol(2, 17) == 1
    assert legendre_symbol(3, 17) == -1
    assert legendre_symbol(17, 2 * 0 + 17) == 0
    squares = {x * x % 17 for x in range(1, 17)}
    for a in range(1, 17):
        assert legendre_symbol(a, 17) == (1 if a in squares else -1)
    for p in [3, 5, 7, 11, 101, 9973]:
        for a in range(1, 25):
            assert legendre_symbol(a, p) == sympy.legendre_symbol(a, p)


def test_sqrt_mod_prime():
    # p = 1 mod 8 takes the Tonelli-Shanks loop, p = 3 mod 4 the closed form
    for p in [3, 5, 7, 13, 17, 41, 73, 97, 113, 257, 331, 337]:
        squares = {x * x % p for x in range(1, p)}
        assert sqrt_mod_prime(0, p) == sqrt_mod_prime(p, p) == 0
        for a in range(1, p):
            if a in squares:
                r = sqrt_mod_prime(a, p)
                assert 0 <= r < p and r * r % p == a
                assert sqrt_mod_prime(a - p, p) == r
            else:
                with pytest.raises(ValueError):
                    sqrt_mod_prime(a, p)
    assert (sqrt_mod_prime(2, 17), sqrt_mod_prime(2, 257), sqrt_mod_prime(49, 337)) == (6, 60, 7)
    for a, n in [(4, 15), (1, 2), (9, 91)]:
        with pytest.raises(ValueError):
            sqrt_mod_prime(a, n)


def _sqrt_outcome(sqrt, a, p):
    try:
        return sqrt(a, p)
    except ValueError as exc:
        return str(exc)


def test_sqrt_without_the_primality_test_matches_sqrt_mod_prime(monkeypatch):
    # elkies takes roots mod primes it has sieved or factored through the
    # helper, which skips the Miller-Rabin test; roots and refusals agree.
    # The public function's test is memoized here only to keep the sweep fast.
    monkeypatch.setattr(exact, "is_probable_prime", functools.cache(is_probable_prime))
    for p in primes_up_to(2000)[1:]:
        for a in range(p):
            assert _sqrt_outcome(exact._sqrt_mod_odd_prime, a, p) == \
                _sqrt_outcome(sqrt_mod_prime, a, p), (a, p)


def test_sqrt_with_a_given_nonresidue():
    # the least non-residue gives the root the search would; any other
    # non-residue gives a root too, of either sign
    for p in primes_up_to(500):
        if p % 4 != 1:
            continue
        least = exact._least_nonresidue(p)
        largest = next(c for c in range(p - 1, 1, -1) if legendre_symbol(c, p) == -1)
        assert legendre_symbol(least, p) == -1 and all(legendre_symbol(c, p) == 1 for c in range(2, least))
        for a in range(1, p):
            if legendre_symbol(a, p) == 1:
                r = exact._sqrt_mod_odd_prime(a, p)
                assert exact._sqrt_mod_odd_prime(a, p, least) == r
                assert exact._sqrt_mod_odd_prime(a, p, largest) in (r, p - r), (a, p)


def test_sqrt_helper_certifies_its_root(monkeypatch):
    monkeypatch.setattr(exact, "valuation", lambda n, p: 1)  # a wrong 2-adic split
    with pytest.raises(exact.CertificateError):
        exact._sqrt_mod_odd_prime(2, 17)


def test_quartic_residue_symbol_examples():
    s = quartic_residue_symbol(2, 17)
    assert s.label == "-1" and s.exponent == 2 and s.sign == -1
    assert quartic_residue_symbol(2, 113).is_plus_one
    assert quartic_residue_symbol(2, 97).sign == -1
    # imaginary values occur exactly for quadratic non-residues
    t = quartic_residue_symbol(3, 17)
    assert t.label in ("+i", "-i")
    with pytest.raises(ValueError):
        t.sign


def test_quartic_symbol_matches_fourth_power_membership():
    # exponent 0 iff the element is a fourth power residue
    for p in [13, 17, 29, 97, 113]:
        fourth = {pow(x, 4, p) for x in range(1, p)}
        for a in range(2, 40):
            if a % p == 0:
                continue
            assert quartic_residue_symbol(a, p).is_plus_one == (a % p in fourth)


def test_quartic_symbol_squares_to_legendre():
    # the square of the quartic character is the quadratic character
    for p in [17, 41, 73, 97, 113]:
        for a in range(2, 30):
            if a % p == 0:
                continue
            e = quartic_residue_symbol(a, p).exponent
            assert (-1) ** e == legendre_symbol(a, p) or p % 4 != 1


def test_small_helpers():
    assert is_perfect_square(0) and is_perfect_square(144) and not is_perfect_square(145)
    assert oracles.fourth_root(16) == 2
    assert oracles.fourth_root(15) is None
    assert oracles.fourth_root(0) == 0
    ps = primes_up_to(100)
    assert ps[:5] == [2, 3, 5, 7, 11] and len(ps) == 25


def test_sieve_matches_trial_division_to_two_thousand():
    # every n <= 2000, the ends of each marking slice among them: the
    # sieve's list is the numbers 2 <= m <= n with no divisor up to sqrt(m)
    def prime(m):
        return m >= 2 and all(m % d for d in range(2, math.isqrt(m) + 1))

    expected = []
    for n in range(-2, 2001):
        if prime(n):
            expected.append(n)
        assert primes_up_to(n) == expected, n


def test_valuation():
    rng = random.Random(10)
    for p in (2, 3, 5, 17):
        for _ in range(200):
            n = rng.choice((-1, 1)) * rng.randrange(1, 10**6) * p ** rng.randrange(0, 8)
            v = valuation(n, p)
            assert n % p**v == 0 and n % p ** (v + 1) != 0, (n, p)
        with pytest.raises(ValueError):
            valuation(0, p)


def test_split_prime_power_keeps_ints_as_ints():
    for p in (2, 3, 5, 7, 101):
        for n in range(-400, 401):
            if n == 0:
                continue
            for q in (n, n * p**3):
                v, u = split_prime_power(q, p)
                assert type(u) is int and q == p**v * u and u % p, (q, p)
                assert (v, u) == split_prime_power(Fraction(q), p), (q, p)
    assert split_prime_power(Fraction(12, 5), 2) == (2, Fraction(3, 5))
    for zero in (0, Fraction(0)):
        with pytest.raises(ValueError, match="^nonzero value required$"):
            split_prime_power(zero, 3)


def test_residue():
    rng = random.Random(11)
    for m in (1, 8, 27, 3**10):
        for _ in range(200):
            num = rng.randrange(-(10**6), 10**6)
            den = rng.randrange(1, 10**4)
            q = num if rng.random() < 0.3 else Fraction(num, den)
            if math.gcd(Fraction(q).denominator, m) != 1:
                continue
            r = residue(q, m)
            assert 0 <= r < m
            assert (r * Fraction(q).denominator - Fraction(q).numerator) % m == 0, (q, m)
    with pytest.raises(ValueError):
        residue(Fraction(1, 3), 27)
