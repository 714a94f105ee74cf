import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from qbounds import InequalityKind, Side, bernstein_term, chernoff_term, confidence_wr, hoeffding_term

# High-precision references (see oracles.py for the generators).
CHERNOFF_OVER_5K = 0.14493472568610996  # p=0.005, k=1000, q=2: (e/4)^5
CHERNOFF_UNDER_5K = 0.46434287328517807
BERNSTEIN_OVER_5K = 0.15227644141501199
CONF_WR_5K = 0.39072240102871197

ps = st.floats(min_value=1e-9, max_value=1.0)
ks = st.integers(min_value=1, max_value=10**7)
qs = st.floats(min_value=1.0, max_value=1e6)


def test_chernoff_frozen_values():
    assert chernoff_term(0.005, 1000, 2.0, Side.OVER) == pytest.approx(CHERNOFF_OVER_5K, rel=1e-12)
    assert chernoff_term(0.005, 1000, 2.0, Side.UNDER) == pytest.approx(CHERNOFF_UNDER_5K, rel=1e-12)
    assert chernoff_term(0.1667, 100, 2.0, Side.OVER) == pytest.approx(0.0015971619597914776, rel=1e-12)


def test_chernoff_q_one_is_vacuous():
    assert chernoff_term(0.3, 50, 1.0, Side.OVER) == 1.0
    assert chernoff_term(0.3, 50, 1.0, Side.UNDER) == 1.0


def test_chernoff_domain_errors():
    with pytest.raises(ValueError):
        chernoff_term(0.0, 100, 2.0, Side.OVER)
    with pytest.raises(ValueError):
        chernoff_term(-0.1, 100, 2.0, Side.OVER)
    with pytest.raises(ValueError):
        chernoff_term(0.5, 100, 0.9, Side.OVER)
    with pytest.raises(ValueError):
        chernoff_term(0.5, 0, 2.0, Side.OVER)


def test_chernoff_no_overflow_past_q143():
    # q^q overflows double precision near q = 143; log-space assembly must not
    value = chernoff_term(1e-6, 10, 1e6, Side.OVER)
    assert 0.0 <= value <= 1.0


def test_bernstein_frozen_values():
    assert bernstein_term(0.005, 1000, 2.0, Side.OVER) == pytest.approx(BERNSTEIN_OVER_5K, rel=1e-12)
    assert bernstein_term(0.1667, 100, 2.0, Side.UNDER) == pytest.approx(0.12445395626862868, rel=1e-12)
    assert bernstein_term(0.4, 25, 1.0, Side.OVER) == 1.0
    assert bernstein_term(0.4, 25, 1.0, Side.UNDER) == 1.0


def test_hoeffding_frozen_values():
    assert hoeffding_term(0.1667, 100, 2.0, Side.OVER) == pytest.approx(0.0038573378870582698, rel=1e-12)
    assert hoeffding_term(0.6, 100, 2.0, Side.UNDER) == pytest.approx(0.13533528323661281, rel=1e-12)


def test_hoeffding_under_inapplicable_when_pq_small():
    assert math.isnan(hoeffding_term(0.3, 100, 2.0, Side.UNDER))  # pq = 0.6
    assert math.isnan(hoeffding_term(0.5, 100, 2.0, Side.UNDER))  # pq = 1 exactly
    assert not math.isnan(hoeffding_term(0.3, 100, 2.0, Side.OVER))


def test_confidence_wr_table_cells():
    # published two-decimal cells, checked at +-0.005 before rounding
    assert confidence_wr(0.005, 1000, 2.0).confidence == pytest.approx(0.39, abs=0.005)
    assert confidence_wr(166666 / 10**6, 100, 2.0).confidence == pytest.approx(0.92, abs=0.005)
    assert confidence_wr(0.000166, 100, 2.0).confidence == 0.0
    assert confidence_wr(0.005, 1000, 2.0).confidence == pytest.approx(CONF_WR_5K, rel=1e-12)


def test_confidence_wr_q_one_clamps_to_zero():
    result = confidence_wr(0.25, 500, 1.0)
    assert result.omega == 1.0 and result.psi == 1.0
    assert result.confidence == 0.0


def test_confidence_wr_records_winning_inequality():
    result = confidence_wr(0.005, 1000, 2.0)
    assert result.omega_source is InequalityKind.CHERNOFF
    assert result.psi_source is InequalityKind.CHERNOFF
    assert {t.inequality for t in result.terms} == {InequalityKind.CHERNOFF, InequalityKind.BERNSTEIN}


def test_confidence_wr_set_validation():
    with pytest.raises(ValueError):
        confidence_wr(0.1, 10, 2.0, inequalities=())
    with pytest.raises(ValueError):
        confidence_wr(0.1, 10, 2.0, inequalities={InequalityKind.HOEFFDING_SERFLING})
    with pytest.raises(ValueError):
        confidence_wr(0.1, 10, 2.0, inequalities={InequalityKind.CHERNOFF,
                                                  InequalityKind.BERNSTEIN_SERFLING})


def test_confidence_wr_is_n_agnostic():
    with pytest.raises(TypeError):
        confidence_wr(0.1, 10, 2.0, n=1000)


def test_hoeffding_only_set_with_inapplicable_under_is_vacuous():
    result = confidence_wr(0.3, 100, 2.0, inequalities={InequalityKind.HOEFFDING})
    assert result.psi == 1.0
    assert result.psi_source is None
    assert result.confidence == 0.0


@given(ps, ks, qs)
@settings(max_examples=200)
def test_terms_stay_in_unit_interval(p, k, q):
    for side in Side:
        assert 0.0 <= chernoff_term(p, k, q, side) <= 1.0
        assert 0.0 <= bernstein_term(p, k, q, side) <= 1.0
        term = hoeffding_term(p, k, q, side)
        assert 0.0 <= term <= 1.0 or (side is Side.UNDER and math.isnan(term))


@given(ps, ks, qs, qs)
@settings(max_examples=200)
def test_monotone_in_q(p, k, q1, q2):
    q1, q2 = sorted((q1, q2))
    for side in Side:
        assert chernoff_term(p, k, q2, side) <= chernoff_term(p, k, q1, side) + 1e-12
        assert bernstein_term(p, k, q2, side) <= bernstein_term(p, k, q1, side) + 1e-12
    assert confidence_wr(p, k, q2).confidence >= confidence_wr(p, k, q1).confidence - 1e-12


@given(ps, ks, ks, qs)
@settings(max_examples=200)
def test_monotone_in_k(p, k1, k2, q):
    k1, k2 = sorted((k1, k2))
    assert confidence_wr(p, k2, q).confidence >= confidence_wr(p, k1, q).confidence - 1e-12


@given(ps, st.integers(min_value=1, max_value=10**5), qs)
@settings(max_examples=200)
def test_hoeffding_never_hurts(p, k, q):
    base = confidence_wr(p, k, q).confidence
    extended = confidence_wr(
        p, k, q,
        inequalities={InequalityKind.CHERNOFF, InequalityKind.BERNSTEIN, InequalityKind.HOEFFDING},
    ).confidence
    assert extended >= base - 1e-15


@given(
    st.floats(min_value=1e-6, max_value=1.0),
    st.integers(min_value=1, max_value=3000),
    st.floats(min_value=1.0, max_value=50.0),
)
@settings(max_examples=60, deadline=None)
def test_terms_match_high_precision_oracle(p, k, q):
    assert chernoff_term(p, k, q, Side.OVER) == pytest.approx(
        float(oracles.chernoff(p, k, q, "over")), rel=1e-11, abs=1e-300)
    assert chernoff_term(p, k, q, Side.UNDER) == pytest.approx(
        float(oracles.chernoff(p, k, q, "under")), rel=1e-11, abs=1e-300)
    assert bernstein_term(p, k, q, Side.OVER) == pytest.approx(
        float(oracles.bernstein(p, k, q, "over")), rel=1e-11, abs=1e-300)
    assert bernstein_term(p, k, q, Side.UNDER) == pytest.approx(
        float(oracles.bernstein(p, k, q, "under")), rel=1e-11, abs=1e-300)
    assert confidence_wr(p, k, q).confidence == pytest.approx(
        float(oracles.conf_wr(p, k, q)), rel=1e-10, abs=1e-13)


def test_chernoff_under_floor_at_huge_q():
    for p, k in [(0.005, 1000), (0.05, 200), (0.5, 30)]:
        floor = math.exp(-p * k)
        assert chernoff_term(p, k, 1e6, Side.UNDER) == pytest.approx(floor, rel=1e-3)
        # limiting Bernstein under-term: eps -> p
        var = p * (1 - p)
        bernstein_floor = math.exp(-k * p * p / (2 * var + 2 * p / 3))
        cap = 1.0 - min(floor, bernstein_floor)
        assert confidence_wr(p, k, 1e6).confidence <= cap + 1e-12
