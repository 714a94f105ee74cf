import math

import mpmath as mp
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
from qbounds import exact
from qbounds.exact import MAX_WINDOW, hypergeom_logpmf

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


@pytest.mark.parametrize("n, c, k, q", [
    (372029, 275095, 4111, 1.247426453935603),
    (277726, 154064, 5572, 1.7221093641023837),
    (485428, 151429, 8198, 2.2847765948671817),
])
def test_admissible_range_walks_down_where_the_top_overshoots(n, c, k, q):
    # floor(k*C*q/n) rounds to a hit count just past the last admissible one
    r = admissible_range(n, c, k, q)
    assert math.floor(k * c * q / n) > r.hi
    assert set(range(r.lo, r.hi + 1)) == oracles.brute_admissible_set(n, c, k, q)


def test_exact_refuses_fractional_sizes():
    # a hit-count distribution has no fractional size; numpy integers are sizes
    pop, design = PopulationSpec(1000, 100), SampleDesign(WR, 10)
    for call, name in (
        (lambda: exact_confidence(pop, SampleDesign(WR, 10.5), 2.0), "sample size"),
        (lambda: exact_confidence(PopulationSpec(1000.5, 100), design, 2.0), "population size"),
        (lambda: exact_confidence(PopulationSpec(1000, 100.5), design, 2.0), "cardinality"),
        (lambda: exact_confidence(pop, SampleDesign(WR, True), 2.0), "sample size"),
        (lambda: admissible_range(1000, 100, 10.5, 2.0), "sample size"),
        (lambda: admissible_range(1000.0, 100, 10, 2.0), "population size"),
        (lambda: admissible_range(1000, 100.0, 10, 2.0), "cardinality"),
    ):
        with pytest.raises(ValueError, match=f"^{name} must be an integer for exact sums, got "):
            call()
    want = exact_confidence(pop, design, 2.0)
    assert exact_confidence(PopulationSpec(np.int64(1000), np.int32(100)),
                            SampleDesign(WR, np.uint16(10)), 2.0) == want
    assert admissible_range(np.int64(1000), 100, np.int64(10), 2.0) == \
        admissible_range(1000, 100, 10, 2.0)


def test_exact_confidence_frozen_values():
    pop = PopulationSpec(n=10**6, cardinality=5000)
    wr = exact_confidence(pop, SampleDesign(method=WR, k=1000), 2.0)
    wor = exact_confidence(pop, SampleDesign(method=WOR, k=1000), 2.0)
    assert wr == pytest.approx(EXACT_WR_5K, rel=1e-12)
    assert wor == pytest.approx(EXACT_WOR_5K, rel=1e-12)


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
        assert wr == pytest.approx(_mp_exact(WR, n, c, k, r), rel=1e-12)
        assert wor == pytest.approx(_mp_exact(WOR, n, c, k, r), rel=1e-12)


def _mp_exact(method, n, c, k, r):
    """The exact probability of range r by brute mpmath summation, with
    working precision raised with n so the log-size terms keep their digits."""
    with oracles.workdps(n):
        if method is WR:
            return oracles.binom_sum(k, mp.mpf(c) / n, r.lo, r.hi)
        return oracles.hypergeom_sum(n, c, k, r.lo, r.hi)


# Points where a pmf formed from log-gamma terms of size n ln n loses its
# digits to cancellation (rel 3e-7 and 3e-6 at n = 1e9, 7e-3 at 1e12, all at 1e15).
@pytest.mark.parametrize("method, n, c, k, q", [
    (WR, 10**12, 10**9, 10**9, 1.0001),
    (WOR, 10**9, 10**6, 10**5, 1.05),
    (WOR, 10**12, 10**8, 10**6, 1.01),
    (WOR, 10**15, 10**12, 10**7, 1.01),
])
def test_exact_matches_mpmath_at_huge_scale(method, n, c, k, q):
    r = admissible_range(n, c, k, q)
    got = exact_confidence(PopulationSpec(n=n, cardinality=c), SampleDesign(method=method, k=k), q)
    assert got == pytest.approx(_mp_exact(method, n, c, k, r), rel=1e-12)


@given(
    st.integers(min_value=10**10, max_value=10**17),
    st.floats(min_value=-6.0, max_value=-0.3),
    st.integers(min_value=1, max_value=10**7),
    st.floats(min_value=1.0, max_value=10.0),
)
@settings(max_examples=200, deadline=None)
def test_bound_never_exceeds_exact_at_huge_n(n, log_p, k, q):
    c = max(1, round(10.0**log_p * n))
    exact_wor = exact_confidence(PopulationSpec(n=n, cardinality=c), SampleDesign(method=WOR, k=k), q)
    assert confidence_wor(c / n, k, n, q).confidence <= exact_wor + 1e-12


@given(
    st.integers(min_value=10**10, max_value=2**63 - 1),
    st.integers(min_value=1, max_value=10**4),
    st.floats(min_value=-12.0, max_value=1.0),
    st.floats(min_value=1.0, max_value=10.0),
)
@settings(max_examples=200, deadline=None)
def test_bound_never_exceeds_exact_near_p_one(n, misses, log_k_over_n, q):
    # c/n rounds to 1.0 past n = 2**53, where log1p(-p) used to fail;
    # k <= 10 n keeps the expected misses, so the window, small
    c = n - misses
    k = min(max(1, round(10.0**log_k_over_n * n)), 2**63 - 1)
    exact_wr = exact_confidence(PopulationSpec(n=n, cardinality=c), SampleDesign(method=WR, k=k), q)
    assert confidence_wr(c / n, k, q).confidence <= exact_wr + 1e-12


def test_exact_evaluates_one_window():
    counts = {"binom_logpmf": 0, "hypergeom_logpmf": 0}

    def counted(name):
        original = getattr(exact, name)

        def wrapper(*args):
            counts[name] += 1
            return original(*args)
        return wrapper

    points = [(10**6, 5000, 1000, 2.0), (10**9, 10**6, 10**5, 1.05), (10**6, 5000, 10**4, 3.0),
              (10**15, 10**12, 10**7, 1.01), (40, 12, 7, 1.8)]
    with pytest.MonkeyPatch.context() as patch:
        for name in counts:
            patch.setattr(exact, name, counted(name))
        for n, c, k, q in points:
            for method in (WR, WOR):
                exact_confidence(PopulationSpec(n=n, cardinality=c), SampleDesign(method=method, k=k), q)
    assert counts == {"binom_logpmf": len(points), "hypergeom_logpmf": len(points)}


@pytest.mark.parametrize("method", [WR, WOR])
@pytest.mark.parametrize("n, c, k, q", [
    (10**3, 100, 200, 1.5), (10**6, 5000, 1000, 2.0), (10**6, 5000, 10**4, 3.0),
    (10**6, 2 * 10**5, 10**4, 1.1), (10**9, 10**6, 10**5, 1.05), (10**9, 10**8, 10**6, 1.02),
    (10**9, 10**3, 10**8, 1.5),
])
def test_exact_window_doubling_keeps_the_sum(monkeypatch, method, n, c, k, q):
    # the first window always holds the mass at the default spread (edges
    # below 1e-30 of the peak), so it is shrunk to mean +- (sd + 1) here to
    # make the window double until its edges are that small; the sum is the
    # same float, results near 1 included
    pop, design = PopulationSpec(n=n, cardinality=c), SampleDesign(method=method, k=k)
    want = exact_confidence(pop, design, q)
    name = "binom_logpmf" if method is WR else "hypergeom_logpmf"
    calls = []
    original = getattr(exact, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(exact, name, counted)
    monkeypatch.setattr(exact, "_SPREAD", 1.0)
    monkeypatch.setattr(exact, "_MARGIN", 1)
    assert exact_confidence(pop, design, q) == want
    assert len(calls) > 1


def test_exact_refuses_a_window_past_the_limit():
    # sd = 5e5 hit counts: the window would be ~1.2e7 wide, far past
    # MAX_WINDOW, and is refused before any array is allocated
    n, c, k = 10**13, 5 * 10**12, 10**12
    assert 24 * math.sqrt(k * (c / n) * (1 - c / n)) > MAX_WINDOW
    pop = PopulationSpec(n=n, cardinality=c)
    for method in (WR, WOR):
        with pytest.raises(ValueError, match="hit counts"):
            exact_confidence(pop, SampleDesign(method=method, k=k), 2.0)


def test_exact_refuses_tables_past_int64():
    pop = PopulationSpec(n=2**63, cardinality=2**62)
    for method in (WR, WOR):
        with pytest.raises(ValueError, match="2\\*\\*63"):
            exact_confidence(pop, SampleDesign(method=method, k=10), 2.0)
    # with replacement k may pass n, and is held to the same limit
    with pytest.raises(ValueError, match="2\\*\\*63"):
        exact_confidence(PopulationSpec(n=10, cardinality=10), SampleDesign(method=WR, k=2**63), 2.0)
    # the last table size the integer factors hold
    pop = PopulationSpec(n=2**63 - 1, cardinality=2**62)
    assert 0.0 < exact_confidence(pop, SampleDesign(method=WOR, k=1000), 1.2) < 1.0


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
    assert exact_confidence(pop, SampleDesign(method=WOR, k=k), q) == pytest.approx(want_wor, rel=1e-12)
