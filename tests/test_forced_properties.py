"""Property tests of the forced-section rules on drawn twists: squarefree
ell with |ell| <= 500 and primes p < 10**4 coprime to ell.  The draws are
derandomized, so every run checks the same examples."""

import math

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import oracles
from localglobal.exact import factorize, primes_up_to
from localglobal.reichardt_lind import NoPointError, TwistParams, forced_section_invariants, local_image

ELLS = st.integers(-500, 500).filter(
    lambda n: n != 0 and all(e == 1 for _, e in factorize(abs(n)).factors))
PRIMES = st.sampled_from(primes_up_to(10**4)[1:])
SETTINGS = settings(derandomize=True, database=None, max_examples=400, deadline=1000,
                    suppress_health_check=[HealthCheck.filter_too_much])


def image_or_empty(tw, place) -> frozenset:
    try:
        return local_image(tw, place)
    except NoPointError:
        return frozenset()


@SETTINGS
@given(ELLS, PRIMES)
def test_forced_sections_equal_the_norm_test(ell, p):
    assume(math.gcd(ell, p) == 1)
    tw = TwistParams(ell, p)
    assert forced_section_invariants(tw) == oracles.forced_section_invariants(tw)


@SETTINGS
@given(ELLS, PRIMES)
def test_the_local_image_lies_in_the_forced_set(ell, p):
    # equal to it at every place but q = 2, where the forced set may admit
    # classes that no point with y != 0 takes
    assume(math.gcd(ell, p) == 1)
    tw = TwistParams(ell, p)
    forced = forced_section_invariants(tw)
    for place in tw.bad_places:
        image, allowed = image_or_empty(tw, place), forced.contribution(place)
        assert image <= allowed, place
        assert place.prime == 2 or image == allowed, place
