import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from qbounds import (
    PopulationSpec,
    SampleDesign,
    SamplingMethod,
    admissible_range,
    confidence_wor,
    confidence_wr,
    estimate_from_hits,
    exact_confidence,
)
from qbounds.exact import hypergeom_logpmf

WR = SamplingMethod.WITH_REPLACEMENT
WOR = SamplingMethod.WITHOUT_REPLACEMENT

# frozen from the brute mpmath sums in oracles.py
EXACT_WR_5K = 0.86251137343906719   # P(3 <= Bin(1000, 0.005) <= 10)
EXACT_WOR_5K = 0.86268225720610782  # P(3 <= Hyp(1e6, 5000, 1000) <= 10)


def test_estimate_from_hits():
    assert estimate_from_hits(10**6, 1000, 5) == 5000.0
    assert estimate_from_hits(10, 3, 0) == 0.0


def test_admissible_range_examples():
    r = admissible_range(10**6, 5000, 1000, 2.0)
    assert (r.lo, r.hi) == (3, 10)
    r = admissible_range(10**6, 5000, 1000, 1.0)
    assert (r.lo, r.hi) == (5, 5)
    # empty predicate: truth clamps to 1, so x = 0 qualifies
    r = admissible_range(10**6, 0, 1000, 2.0)
    assert 0 in r and (r.lo, r.hi) == (0, 0)
    # q at least n/k admits every estimate the clamp allows
    r = admissible_range(100, 0, 50, 3.0)
    assert r.lo == 0 and 0 in r


def test_admissible_range_rejects_bad_q():
    with pytest.raises(ValueError):
        admissible_range(100, 10, 10, 0.5)


def test_admissible_range_rejects_bad_population():
    # PopulationSpec's rule: n >= 1 and 0 <= c <= n
    for n, c in ((0, 5), (100, 500), (100, -1), (-3, 0)):
        with pytest.raises(ValueError):
            admissible_range(n, c, 10, 2.0)


@given(
    st.integers(min_value=1, max_value=400),
    st.integers(min_value=1, max_value=60),
    st.floats(min_value=1.0, max_value=50.0),
    st.data(),
)
@settings(max_examples=300)
def test_admissible_range_matches_brute_enumeration(n, k, q, data):
    c = data.draw(st.integers(min_value=0, max_value=n))
    r = admissible_range(n, c, k, q)
    expected = oracles.brute_admissible_set(n, c, k, q)
    got = set(range(r.lo, r.hi + 1))
    assert got == expected
    # and the admissible set really is an integer interval
    if expected:
        assert expected == set(range(min(expected), max(expected) + 1))


def test_exact_confidence_frozen_values():
    pop = PopulationSpec(n=10**6, cardinality=5000)
    wr = exact_confidence(pop, SampleDesign(method=WR, k=1000), 2.0)
    wor = exact_confidence(pop, SampleDesign(method=WOR, k=1000), 2.0)
    assert wr == pytest.approx(EXACT_WR_5K, rel=1e-12)
    # hypergeometric log-gamma noise at n = 1e6 dominates; see the
    # small-n normalization test for the tight accuracy check
    assert wor == pytest.approx(EXACT_WOR_5K, rel=1e-8)


def test_exact_confidence_trivial_cases():
    pop = PopulationSpec(n=500, cardinality=500)
    for method in (WR, WOR):
        assert exact_confidence(pop, SampleDesign(method=method, k=100), 1.0) == 1.0
    pop = PopulationSpec(n=10**6, cardinality=123)
    for method in (WR, WOR):
        assert exact_confidence(pop, SampleDesign(method=method, k=10), 1e9) == 1.0


def test_exact_confidence_validates_design():
    pop = PopulationSpec(n=5, cardinality=2)
    with pytest.raises(ValueError):
        exact_confidence(pop, SampleDesign(method=WOR, k=5), 2.0)
    with pytest.raises(ValueError):
        exact_confidence(pop, SampleDesign(method=WR, k=5), 0.99)


@given(
    st.integers(min_value=2, max_value=2000),
    st.floats(min_value=1.0, max_value=20.0),
    st.data(),
)
@settings(max_examples=150, deadline=None)
def test_exact_matches_scipy(n, q, data):
    c = data.draw(st.integers(min_value=0, max_value=n))
    k = data.draw(st.integers(min_value=1, max_value=n - 1))
    pop = PopulationSpec(n=n, cardinality=c)
    r = admissible_range(n, c, k, q)
    wr = exact_confidence(pop, SampleDesign(method=WR, k=k), q)
    wor = exact_confidence(pop, SampleDesign(method=WOR, k=k), q)
    if r.empty:
        assert wr == 0.0 and wor == 0.0
        return
    p = c / n
    want_wr = scipy.stats.binom.cdf(r.hi, k, p) - scipy.stats.binom.cdf(r.lo - 1, k, p)
    want_wor = scipy.stats.hypergeom.cdf(r.hi, n, c, k) - scipy.stats.hypergeom.cdf(r.lo - 1, n, c, k)
    assert wr == pytest.approx(want_wr, rel=1e-9, abs=1e-12)
    assert wor == pytest.approx(want_wor, rel=1e-8, abs=1e-12)


def test_exact_matches_scipy_at_large_scale():
    cases = [
        (10**9, 5_000_000, 100_000, 2.0),
        (10**9, 1_000, 100_000, 5.0),
        (10**8, 50_000, 10_000, 1.5),
    ]
    for n, c, k, q in cases:
        pop = PopulationSpec(n=n, cardinality=c)
        r = admissible_range(n, c, k, q)
        wr = exact_confidence(pop, SampleDesign(method=WR, k=k), q)
        want = scipy.stats.binom.cdf(r.hi, k, c / n) - scipy.stats.binom.cdf(r.lo - 1, k, c / n)
        assert wr == pytest.approx(want, rel=1e-7, abs=1e-12)
        wor = exact_confidence(pop, SampleDesign(method=WOR, k=k), q)
        want_wor = scipy.stats.hypergeom.cdf(r.hi, n, c, k) - scipy.stats.hypergeom.cdf(r.lo - 1, n, c, k)
        assert wor == pytest.approx(want_wor, rel=1e-5, abs=1e-9)


@given(
    st.integers(min_value=2, max_value=5000),
    st.data(),
)
@settings(max_examples=200)
def test_hypergeom_pmf_sums_to_one(n, data):
    c = data.draw(st.integers(min_value=0, max_value=n))
    k = data.draw(st.integers(min_value=1, max_value=n - 1))
    if c in (0, n):
        return  # point masses handled without the pmf
    lo = max(0, k - (n - c))
    hi = min(k, c)
    xs = np.arange(lo, hi + 1, dtype=np.float64)
    total = math.fsum(np.exp(hypergeom_logpmf(xs, n, c, k)).tolist())
    assert total == pytest.approx(1.0, abs=1e-10)


@given(
    st.integers(min_value=2, max_value=10**6),
    st.floats(min_value=1.0, max_value=50.0),
    st.floats(min_value=1.0, max_value=50.0),
    st.data(),
)
@settings(max_examples=150, deadline=None)
def test_exact_monotone_in_q(n, q1, q2, data):
    q1, q2 = sorted((q1, q2))
    c = data.draw(st.integers(min_value=0, max_value=n))
    k = data.draw(st.integers(min_value=1, max_value=min(n - 1, 10**4)))
    pop = PopulationSpec(n=n, cardinality=c)
    for method in (WR, WOR):
        design = SampleDesign(method=method, k=k)
        assert exact_confidence(pop, design, q2) >= exact_confidence(pop, design, q1) - 1e-12


def test_replacement_correction_vanishes_for_small_samples():
    # n/k >= 1e4 makes with/without replacement nearly identical
    for n, c, k, q in [
        (10**6, 5000, 100, 2.0),
        (10**7, 300, 1000, 3.0),
        (10**8, 10**6, 5000, 1.5),
    ]:
        pop = PopulationSpec(n=n, cardinality=c)
        wr = exact_confidence(pop, SampleDesign(method=WR, k=k), q)
        wor = exact_confidence(pop, SampleDesign(method=WOR, k=k), q)
        assert abs(wr - wor) <= 0.01


def test_exact_dominates_bounds_spot_checks():
    for n, c, k, q in [
        (10**6, 5000, 1000, 2.0),
        (10**6, 166666, 100, 2.0),
        (10**6, 1666, 10000, 2.0),
        (10**4, 70, 500, 4.0),
    ]:
        pop = PopulationSpec(n=n, cardinality=c)
        p = c / n
        wr = exact_confidence(pop, SampleDesign(method=WR, k=k), q)
        assert wr >= confidence_wr(p, k, q).confidence - 1e-12
        if k < n:
            wor = exact_confidence(pop, SampleDesign(method=WOR, k=k), q)
            assert wor >= confidence_wor(p, k, n, q).confidence - 1e-12


def test_exact_brute_force_tiny_population():
    # independent brute sums on a small case, both sampling regimes
    n, c, k, q = 40, 12, 7, 1.8
    r = admissible_range(n, c, k, q)
    pop = PopulationSpec(n=n, cardinality=c)
    want_wr = float(oracles.binom_sum(k, c / n, r.lo, r.hi))
    want_wor = float(oracles.hypergeom_sum(n, c, k, r.lo, r.hi))
    assert exact_confidence(pop, SampleDesign(method=WR, k=k), q) == pytest.approx(want_wr, rel=1e-12)
    assert exact_confidence(pop, SampleDesign(method=WOR, k=k), q) == pytest.approx(want_wor, rel=1e-11)
