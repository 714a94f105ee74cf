import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from qbounds import (
    InequalityKind,
    Side,
    bernstein_serfling_term,
    confidence_wor,
    hoeffding_serfling_term,
    serfling_coefficients,
)

ps = st.floats(min_value=1e-9, max_value=1.0)
qs = st.floats(min_value=1.0, max_value=1e6)


@st.composite
def k_n_pairs(draw, n_max=10**9):
    n = draw(st.integers(min_value=2, max_value=n_max))
    k = draw(st.integers(min_value=1, max_value=n - 1))
    return k, n


def test_serfling_examples():
    assert serfling_coefficients(1, 100)[0] == 1.0
    assert serfling_coefficients(10000, 10**6)[0] == pytest.approx(0.990001, rel=1e-14)
    assert serfling_coefficients(100, 10**6)[1] == pytest.approx(1.3334328370025975, rel=1e-14)
    # k = n - 1 sits on the k > n/2 branch where (n-k-1) = 0
    assert serfling_coefficients(99, 100)[1] == pytest.approx(4.0 / 3.0, rel=0, abs=0)


def test_serfling_domain_errors():
    with pytest.raises(ValueError):
        serfling_coefficients(5, 5)
    with pytest.raises(ValueError):
        serfling_coefficients(6, 5)
    with pytest.raises(ValueError):
        serfling_coefficients(0, 5)
    with pytest.raises(ValueError):
        serfling_coefficients(1, 1)


def test_serfling_tie_uses_first_branch():
    # at 2k = n the tie goes to the k <= n/2 formulas; measure (do not
    # assert away) the gap between the two branch expressions there
    n = 1000
    k = 500
    rho, zeta = serfling_coefficients(k, n)
    rho_first = 1.0 - (k - 1) / n
    rho_second = (1.0 - k / n) * (1.0 + 1.0 / k)
    zeta_first = 4.0 / 3.0 + math.sqrt(k * (k - 1) / (n * (n - k + 1)))
    zeta_second = 4.0 / 3.0 + math.sqrt((n - k - 1) * (n - k) / ((k + 1) * n))
    assert rho == rho_first
    assert zeta == zeta_first
    assert math.isfinite(rho_first - rho_second)
    assert math.isfinite(zeta_first - zeta_second)


@given(k_n_pairs())
@settings(max_examples=300)
def test_serfling_ranges(pair):
    k, n = pair
    rho, zeta = serfling_coefficients(k, n)
    assert 0.0 < rho <= 1.0
    assert 4.0 / 3.0 <= zeta <= 4.0 / 3.0 + 1.0


def test_hs_frozen_values():
    assert hoeffding_serfling_term(0.1667, 100, 10**6, 2.0, Side.OVER) == pytest.approx(
        0.0038552158762820728, rel=1e-12)
    assert hoeffding_serfling_term(0.1667, 100, 10**6, 2.0, Side.UNDER) == pytest.approx(
        0.24917942277186611, rel=1e-12)
    assert hoeffding_serfling_term(0.3, 10, 100, 1.0, Side.OVER) == 1.0


def test_bs_frozen_values():
    assert bernstein_serfling_term(0.1667, 100, 10**6, 2.0, Side.OVER) == pytest.approx(
        0.027065917957858738, rel=1e-12)
    assert bernstein_serfling_term(0.001666, 10000, 10**6, 2.0, Side.UNDER) == pytest.approx(
        0.53935909313117257, rel=1e-12)
    # eps = 0 at q = 1: inner expression vanishes, 2*exp(0) clamps to 1
    assert bernstein_serfling_term(0.4, 10, 100, 1.0, Side.OVER) == 1.0
    assert bernstein_serfling_term(0.4, 10, 100, 1.0, Side.UNDER) == 1.0
    # p = 1 kills sigma^2: the inner expression must survive 0/0
    assert 0.0 <= bernstein_serfling_term(1.0, 10, 100, 2.0, Side.OVER) <= 1.0
    assert bernstein_serfling_term(1.0, 10, 100, 1.0, Side.UNDER) == 1.0


def test_confidence_wor_table_cells():
    n = 10**6
    assert confidence_wor(166666 / n, 100, n, 2.0).confidence == pytest.approx(0.75, abs=0.005)
    assert confidence_wor(1666 / n, 10000, n, 2.0).confidence == pytest.approx(0.42, abs=0.005)
    assert confidence_wor(5000 / n, 10000, n, 2.0).confidence == pytest.approx(0.96, abs=0.005)
    assert confidence_wor(166666 / n, 100, n, 2.0).confidence == pytest.approx(
        0.74681534170300726, rel=1e-12)


def test_confidence_wor_q_one_clamps_to_zero():
    assert confidence_wor(0.25, 50, 1000, 1.0).confidence == 0.0


def test_confidence_wor_set_validation():
    with pytest.raises(ValueError):
        confidence_wor(0.1, 10, 100, 2.0, inequalities=())
    with pytest.raises(ValueError):
        confidence_wor(0.1, 10, 100, 2.0, inequalities={InequalityKind.CHERNOFF})


@given(ps, k_n_pairs(n_max=10**7), qs, qs)
@settings(max_examples=200)
def test_monotone_in_q(p, pair, q1, q2):
    k, n = pair
    q1, q2 = sorted((q1, q2))
    for side in Side:
        assert hoeffding_serfling_term(p, k, n, q2, side) <= hoeffding_serfling_term(p, k, n, q1, side) + 1e-12
        assert bernstein_serfling_term(p, k, n, q2, side) <= bernstein_serfling_term(p, k, n, q1, side) + 1e-12
    assert confidence_wor(p, k, n, q2).confidence >= confidence_wor(p, k, n, q1).confidence - 1e-12


@given(
    ps,
    st.integers(min_value=2, max_value=10**6),
    st.floats(min_value=1.0, max_value=100.0),
    st.data(),
)
@settings(max_examples=200)
def test_hs_over_nonincreasing_in_k(p, n, q, data):
    k2 = data.draw(st.integers(min_value=2, max_value=n - 1)) if n > 2 else 1
    k1 = data.draw(st.integers(min_value=1, max_value=k2))
    over1 = hoeffding_serfling_term(p, k1, n, q, Side.OVER)
    over2 = hoeffding_serfling_term(p, k2, n, q, Side.OVER)
    assert over2 <= over1 + 1e-12


@given(
    st.floats(min_value=1e-6, max_value=1.0),
    st.floats(min_value=1.0, max_value=50.0),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_terms_match_high_precision_oracle(p, q, data):
    n = data.draw(st.integers(min_value=2, max_value=10**6))
    k = data.draw(st.integers(min_value=1, max_value=n - 1))
    assert hoeffding_serfling_term(p, k, n, q, Side.OVER) == pytest.approx(
        float(oracles.hoeffding_serfling(p, k, n, q, "over")), rel=1e-11, abs=1e-300)
    assert hoeffding_serfling_term(p, k, n, q, Side.UNDER) == pytest.approx(
        float(oracles.hoeffding_serfling(p, k, n, q, "under")), rel=1e-11, abs=1e-300)
    # the library rationalizes the inner expression; the oracle keeps the
    # raw minus-sqrt form, so agreement validates the algebra
    assert bernstein_serfling_term(p, k, n, q, Side.OVER) == pytest.approx(
        float(oracles.bernstein_serfling(p, k, n, q, "over")), rel=1e-9, abs=1e-300)
    assert bernstein_serfling_term(p, k, n, q, Side.UNDER) == pytest.approx(
        float(oracles.bernstein_serfling(p, k, n, q, "under")), rel=1e-9, abs=1e-300)
    assert confidence_wor(p, k, n, q).confidence == pytest.approx(
        float(oracles.conf_wor(p, k, n, q)), rel=1e-9, abs=1e-12)


def test_hs_approaches_classical_hoeffding_for_huge_n():
    # rho -> 1, so the finite-population term meets exp(-2 k eps^2)
    n = 10**12
    for p, k, q in [(0.2, 100, 2.0), (0.01, 5000, 3.0)]:
        for side in Side:
            eps = p * (q - 1.0) if side is Side.OVER else p * (1.0 - 1.0 / q)
            classical = min(1.0, math.exp(-2.0 * k * eps * eps))
            assert hoeffding_serfling_term(p, k, n, q, side) == pytest.approx(classical, rel=1e-6)


@given(st.integers(min_value=3, max_value=10**18), st.data())
@settings(max_examples=300)
def test_rho_is_one_rounding_of_the_exact_ratio(n, data):
    # for 2k > n, rho = (n - k)(k + 1) / (n k) is formed in integers, so it
    # keeps full precision where 1 - k/n cancels (n - k tiny against n)
    k = data.draw(st.integers(min_value=n // 2 + 1, max_value=n - 1) | st.just(n - 1))
    rho, zeta = oracles.serfling_rho_zeta(k, n)
    got_rho, got_zeta = serfling_coefficients(k, n)
    assert got_rho == pytest.approx(float(rho), rel=2.3e-16, abs=0)
    assert got_zeta == pytest.approx(float(zeta), rel=1e-15, abs=0)


def test_rho_at_k_n_minus_one_past_2_53():
    n = 10**17
    rho, zeta = oracles.serfling_rho_zeta(n - 1, n)
    got_rho, got_zeta = serfling_coefficients(n - 1, n)  # rho = 1 / (n - 1)
    assert got_rho == pytest.approx(float(rho), rel=2.3e-16, abs=0) and got_rho > 0.0
    assert got_zeta == pytest.approx(float(zeta), rel=1e-15, abs=0)
    result = confidence_wor(0.5, n - 1, n, 2.0)
    assert result.confidence == 1.0


@given(st.floats(min_value=2.0**511, max_value=1e300), st.floats(min_value=0.0, max_value=1.0),
       st.booleans())
@settings(max_examples=300)
def test_coefficients_of_a_float_n_past_2_511_are_those_of_its_integer(n, share, float_k):
    # products of floats past 2**511 overflow; a float n (and a float k past
    # 2**53) is an integer there, and gives the integer's coefficients
    k = max(1, min(math.floor(n * share), int(math.nextafter(n, 0.0))))  # n - k >= 1 in floats
    k = float(k) if float_k else k
    got = serfling_coefficients(k, n)
    assert got == serfling_coefficients(int(k), int(n)) and all(map(math.isfinite, got))
    rho, zeta = oracles.serfling_rho_zeta(int(k), int(n))
    assert got[0] == pytest.approx(float(rho), rel=1e-15) and got[1] == pytest.approx(float(zeta))
