import math
import re
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qbounds import (
    GridSpec,
    InequalityKind,
    PopulationSpec,
    SampleDesign,
    SamplingMethod,
    SimulationConfig,
    admissible_range,
    bernstein_serfling_term,
    chernoff_term,
    default_inequalities,
    evaluate_confidence,
    exact_confidence,
    min_sample_size,
    q_at_confidence,
    q_error,
    validate_design,
)
from qbounds.model import _check_point
from qbounds.reports import evaluate_grid
from qbounds.terms import WITH_REPLACEMENT_KINDS

WR = SamplingMethod.WITH_REPLACEMENT
WOR = SamplingMethod.WITHOUT_REPLACEMENT


def test_q_error_examples():
    assert q_error(10, 5) == 2.0
    assert q_error(0, 0) == 1.0
    assert q_error(3, 12) == 4.0
    assert q_error(0, 500) == 500.0


def test_q_error_rejects_negative_inputs():
    with pytest.raises(ValueError):
        q_error(-1, 5)
    with pytest.raises(ValueError):
        q_error(1, -5)
    with pytest.raises(ValueError, match="^estimate must be non-negative, got nan$"):
        q_error(math.nan, 10)
    with pytest.raises(ValueError, match="^true cardinality must be non-negative, got nan$"):
        q_error(10, math.nan)


def test_selectivity_examples():
    assert PopulationSpec(n=1_000_000, cardinality=5000).p == 0.005
    assert PopulationSpec(n=10, cardinality=0).p == 0.0
    assert PopulationSpec(n=7, cardinality=7).p == 1.0


def test_population_spec_invariants():
    with pytest.raises(ValueError):
        PopulationSpec(n=0, cardinality=0)
    with pytest.raises(ValueError):
        PopulationSpec(n=5, cardinality=6)
    with pytest.raises(ValueError):
        PopulationSpec(n=5, cardinality=-1)
    with pytest.raises(ValueError, match="^population size must be >= 1, got nan$"):
        PopulationSpec(n=math.nan, cardinality=0)
    # p is derived, never stored: no way for C and p to drift
    pop = PopulationSpec(n=3, cardinality=1)
    assert pop.p == 1 / 3


def test_sample_design_invariants():
    with pytest.raises(ValueError):
        SampleDesign(method=SamplingMethod.WITH_REPLACEMENT, k=0)
    wor = SampleDesign(method=SamplingMethod.WITHOUT_REPLACEMENT, k=5)
    with pytest.raises(ValueError):
        validate_design(PopulationSpec(n=5, cardinality=2), wor)
    with pytest.raises(ValueError):
        validate_design(PopulationSpec(n=1, cardinality=1),
                        SampleDesign(method=SamplingMethod.WITHOUT_REPLACEMENT, k=1))
    # k = n - 1 is the largest admissible size without replacement
    validate_design(PopulationSpec(n=6, cardinality=2),
                    SampleDesign(method=SamplingMethod.WITHOUT_REPLACEMENT, k=5))
    # with replacement k may exceed n
    validate_design(PopulationSpec(n=5, cardinality=2),
                    SampleDesign(method=SamplingMethod.WITH_REPLACEMENT, k=50))


def test_sampling_method_parse():
    assert SamplingMethod.parse("wr") is SamplingMethod.WITH_REPLACEMENT
    assert SamplingMethod.parse("WOR") is SamplingMethod.WITHOUT_REPLACEMENT
    with pytest.raises(ValueError):
        SamplingMethod.parse("bootstrap")


@given(
    st.floats(min_value=1.0, max_value=1e9),
    st.floats(min_value=1.0, max_value=1e9),
)
def test_q_error_symmetric_above_clamp(x, y):
    assert q_error(x, y) == pytest.approx(q_error(y, x), rel=1e-12)


@given(
    st.floats(min_value=1.0, max_value=1e6),
    st.floats(min_value=1.0, max_value=1e6),
    st.floats(min_value=1.0, max_value=1e3),
)
def test_q_error_scale_covariant_above_clamp(est, truth, c):
    assert q_error(c * est, c * truth) == pytest.approx(q_error(est, truth), rel=1e-9)


@given(st.floats(min_value=0.0, max_value=1.0))
def test_q_error_at_least_one(p):
    assert q_error(p * 100, (1 - p) * 100) >= 1.0


_EDGES = [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0]


@st.composite
def _points(draw):
    """(method, p, k, n, q) around and outside the domain's edges."""
    method = draw(st.sampled_from(SamplingMethod))
    p = draw(st.sampled_from(_EDGES + [1.0, 1.5, 5e-324]) | st.floats(0.0, 1.0))
    q = draw(st.sampled_from(_EDGES + [0.5, 1.0, 1e200, sys.float_info.max])
             | st.floats(1.0, 1e6))
    # past 2**53 a float k beside an int n rounds: n - 1.5 and float(n - 1) are floats
    n = draw(st.integers(-2, 10**6) | st.integers(2**53, 2**62))
    k = draw(st.sampled_from([n - 1.5, n - 1, n - 0.5, n, n + 1, math.nan, float(n - 1)])
             | st.integers(-2, 10**6))
    return method, p, k, n, q


def _raises(call) -> bool:
    try:
        call()
    except ValueError:
        return True
    return False


@given(_points())
@settings(max_examples=400)
@example((WOR, 0.5, 99, 100, 1.0))
@example((WOR, 0.5, 100, 100, 2.0))
@example((WOR, 0.5, 101, 100, 2.0))
@example((WOR, 0.0, 100, 100, 2.0))
@example((WR, 0.0, 0, 100, 0.5))
@example((WR, math.nan, 10, 100, 2.0))
@example((WR, 0.5, 10, 100, math.nan))
@example((WR, 0.5, 10, 100, math.inf))
@example((WR, 0.5, -1, 100, 2.0))
@example((WR, 0.5, math.nan, 100, 2.0))
@example((WR, 0.5, math.inf, 100, 2.0))  # an infinite k is outside the rule too
@example((WOR, 0.5, math.nan, 100, 2.0))
@example((WR, 0.1, 1000.7, 10**6, 2.0))  # a fractional k is used, not truncated
@example((WOR, 0.1, 1000.7, 10**6, 2.0))
@example((WOR, 0.5, 10, math.nan, 2.0))  # a NaN n gets the rule's message
@example((WOR, 0.5, 10, math.inf, 2.0))  # an infinite n is outside the rule
@example((WR, 0.5, 10, math.nan, 2.0))  # n plays no part with replacement
@example((WOR, 0.5, 39.5, 40, 1.5))  # k < n, but past n - 1
@example((WOR, 0.5, 40, 40.5, 1.5))
@example((WOR, 0.5, 38.5, 40, 1.5))  # a fractional k or n at most n - 1 is in the domain
@example((WOR, 0.5, 39, 40.5, 1.5))
@example((WOR, 0.5, float(2**62), 2**62 + 1, 2.0))  # k < n, but n - k rounds to 0
def test_one_domain_rule_for_scalar_and_grid(point):
    method, p, k, n, q = point
    scalar = _raises(lambda: evaluate_confidence(method, p, k, q, n=n))
    grid = _raises(lambda: evaluate_grid(p, k, n, q, method is WOR, InequalityKind))
    # evaluate_grid leaves p = 0, the degenerate case, to its callers
    assert grid == (scalar or p == 0.0)
    if not grid:
        # the grid computes at the point as given, as the scalar path does
        kinds = [kind for kind in InequalityKind
                 if (kind in WITH_REPLACEMENT_KINDS) == (method is WR)]
        want = evaluate_confidence(method, p, k, q, n=n, inequalities=kinds).confidence
        on_grid = evaluate_grid(p, k, n, q, method is WOR, InequalityKind).confidence
        assert float(on_grid) == pytest.approx(want, rel=1e-12, abs=1e-12)
    if grid and p != 0.0:
        # the rule's own message, also for a NaN k or n, not numpy's cast
        # error or a kernel's math domain error
        with pytest.raises(ValueError) as expected:
            evaluate_confidence(method, p, k, q, n=n)
        message = "^" + re.escape(str(expected.value)) + "$"
        with pytest.raises(ValueError, match=message):
            evaluate_grid(p, k, n, q, method is WOR, InequalityKind)
        with pytest.raises(ValueError, match=message):
            _check_point(method, p, k, q, n)
    if not 1.0 <= q < math.inf or not k >= 1:
        pop = PopulationSpec(n=max(n, 1), cardinality=0)
        with pytest.raises(ValueError):
            exact_confidence(pop, SampleDesign(method, k), q)
        with pytest.raises(ValueError):
            admissible_range(pop.n, 0, k, q)
        with pytest.raises(ValueError):
            SimulationConfig(pop=pop, design=SampleDesign(method, k), q=q, trials=10, seed=0)


_HUGE = 10**400  # a Python int past the largest double


@pytest.mark.parametrize("check", [
    lambda: evaluate_confidence(WR, 0.1, 10, _HUGE),
    lambda: evaluate_confidence(WR, 0.1, _HUGE, 2.0),
    lambda: evaluate_confidence(WOR, 0.1, 10, _HUGE, n=100),
    lambda: evaluate_confidence(WR, 0.0, _HUGE, 2.0),
    lambda: exact_confidence(PopulationSpec(n=100, cardinality=10), SampleDesign(WR, 10), _HUGE),
    lambda: admissible_range(100, 10, 10, _HUGE),
    lambda: SampleDesign(WR, _HUGE),
    lambda: SampleDesign(WR, math.inf),
    lambda: SimulationConfig(pop=PopulationSpec(n=100, cardinality=10),
                             design=SampleDesign(WR, 10), q=_HUGE, trials=10, seed=0),
    lambda: PopulationSpec(n=_HUGE, cardinality=5),
    lambda: evaluate_confidence(WOR, 0.1, 10, 2.0, n=_HUGE),
    lambda: evaluate_confidence(WOR, 0.1, 10.0, 2.0, n=_HUGE),
    lambda: q_at_confidence(WOR, 0.1, 10.0, 0.9, n=_HUGE),
    lambda: evaluate_confidence(WOR, 0.1, 10, 2.0, n=math.inf),
    lambda: admissible_range(_HUGE, 5, 10, 2.0),
])
def test_k_and_q_past_the_float_range_are_refused(check):
    # `10**400 < math.inf` is true, so such an int passed the rule and
    # then overflowed where the kernels turned it into a float
    with pytest.raises(ValueError, match="must be finite and >= 1, got "):
        check()


@pytest.mark.parametrize("check, named", [
    # accepted before, then sampled and bounded without replacement
    (lambda: SampleDesign("wr", 100), "sampling method must be a member of SamplingMethod, got 'wr'"),
    # the without-replacement bound, 0.3173, in place of 0.7670
    (lambda: evaluate_confidence("wr", 0.1, 100, 2.0, n=1000), "got 'wr'"),
    # a KeyError at p = 0 and in both solvers
    (lambda: evaluate_confidence(None, 0.0, 100, 2.0), "got None"),
    (lambda: evaluate_confidence("wor", 0.0, 100, 2.0, n=1000), "got 'wor'"),
    (lambda: min_sample_size("wr", 0.1, 2.0, 0.9), "got 'wr'"),
    (lambda: q_at_confidence(None, 0.1, 100, 0.9), "got None"),
    (lambda: default_inequalities("wr"), "got 'wr'"),
    (lambda: GridSpec(k=(10,), q=(2.0,), p=(0.1,), methods=(WR, "wor")), "got 'wor'"),
    # the over term, 0.0210, in place of the under one, 0.2156
    (lambda: chernoff_term(0.1, 100, 2.0, "under"), "side must be a member of Side, got 'under'"),
    (lambda: bernstein_serfling_term(0.1, 100, 1000, 2.0, None), "got None"),
    # an AttributeError
    (lambda: evaluate_confidence(WR, 0.1, 100, 2.0, inequalities=["chernoff"]),
     "inequality kinds must be members of InequalityKind, got 'chernoff'"),
    (lambda: q_at_confidence(WOR, 0.1, 100, 0.9, n=1000,
                             inequalities={"hoeffding_serfling", InequalityKind.CHERNOFF}),
     "got 'hoeffding_serfling'$"),
    # text read as its letters 'c', 'e', 'f', 'h', 'n', 'o', 'r'
    (lambda: evaluate_confidence(WR, 0.1, 100, 2.0, inequalities="chernoff"),
     "^inequality kinds must be members of InequalityKind, got 'chernoff'$"),
    (lambda: min_sample_size(WR, 0.1, 2.0, 0.9, inequalities="chernoff"), "got 'chernoff'$"),
    # a TypeError from hashing, at p = 0 and in both solvers too
    (lambda: evaluate_confidence(WR, 0.1, 100, 2.0, inequalities=[["chernoff"]]),
     r"^inequality kinds must be members of InequalityKind, got \['chernoff'\]$"),
    (lambda: evaluate_confidence(WR, 0.0, 100, 2.0, inequalities=[["chernoff"]]),
     r"got \['chernoff'\]$"),
    (lambda: min_sample_size(WR, 0.1, 2.0, 0.9, inequalities=[["chernoff"]]),
     r"got \['chernoff'\]$"),
    (lambda: q_at_confidence(WOR, 0.1, 100, 0.9, n=1000,
                             inequalities=[InequalityKind.HOEFFDING_SERFLING, {}]), "got {}$"),
])
def test_enum_arguments_that_are_not_members_are_refused(check, named):
    with pytest.raises(ValueError, match=named):
        check()

