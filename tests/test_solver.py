import contextlib
import dataclasses
import functools
import itertools
import math
import re
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import qbounds.solver as solver_module
import qbounds.terms as terms_module
from qbounds import (
    InequalityKind,
    SamplingMethod,
    Unreachable,
    default_inequalities,
    evaluate_confidence,
    min_sample_size,
    q_at_confidence,
    with_replacement,
    without_replacement,
)
from qbounds.confidence import _confidence_at, _method_kinds
from qbounds.model import _check_point
from qbounds.terms import (
    _SCALAR,
    DEFAULT_WOR_KINDS,
    DEFAULT_WR_KINDS,
    WITH_REPLACEMENT_KINDS,
    WITHOUT_REPLACEMENT_KINDS,
    BoundTerm,
    Side,
    _minima,
)

WR = SamplingMethod.WITH_REPLACEMENT
WOR = SamplingMethod.WITHOUT_REPLACEMENT


def _conf_wr(p, k, q):
    return evaluate_confidence(WR, p, k, q).confidence


def test_min_sample_size_bracketed_by_published_cell():
    # confidence 0.39 is reached at k = 1000 for p = 0.005, q = 2
    answer = min_sample_size(WR, 0.005, 2.0, 0.39)
    assert isinstance(answer, int) and answer <= 1000
    assert _conf_wr(0.005, answer, 2.0) >= 0.39
    assert _conf_wr(0.005, answer - 1, 2.0) < 0.39


def test_min_sample_size_between_published_cells():
    # 0.39 at k=1000, above 0.995 at k=10000: the 0.95 answer sits between
    answer = min_sample_size(WR, 0.005, 2.0, 0.95)
    assert 1000 < answer < 10000


def test_min_sample_size_degenerate_tails():
    # even at p = 1 the bound charges both tails (only the exact oracle
    # knows the distribution is a point mass), so the answer obeys the
    # round-trip contract rather than collapsing to k = 1
    answer = min_sample_size(WR, 1.0, 2.0, 0.5)
    assert answer == 2
    assert _conf_wr(1.0, answer, 2.0) >= 0.5 > _conf_wr(1.0, answer - 1, 2.0)


def test_min_sample_size_unreachable_reports_cap():
    answer = min_sample_size(WR, 1e-6, 1.01, 0.999, k_max=100)
    assert isinstance(answer, Unreachable)
    assert answer.limit == 100.0
    assert answer.confidence_at_limit == _conf_wr(1e-6, 100, 1.01)


def test_min_sample_size_wor_caps_at_n_minus_one():
    answer = min_sample_size(WOR, 0.005, 2.0, 0.9, n=10**6)
    assert isinstance(answer, int) and answer < 10**6
    assert evaluate_confidence(WOR, 0.005, answer, 2.0, n=10**6).confidence >= 0.9
    assert evaluate_confidence(WOR, 0.005, answer - 1, 2.0, n=10**6).confidence < 0.9
    # tiny population: even k = n - 1 cannot reach a tight target
    hard = min_sample_size(WOR, 0.4, 1.0001, 0.999, n=50)
    assert isinstance(hard, Unreachable)
    assert hard.limit == 49.0


def test_min_sample_size_answers_integers_under_a_fractional_cap():
    # the bound first reaches the target at k = 11; a fractional k_max or
    # n caps the search at the largest admissible integer, not at itself
    target = 0.5834751737269168
    assert min_sample_size(WR, 0.5, 2.0, target, k_max=1000) == 11
    answer = min_sample_size(WR, 0.5, 2.0, target, k_max=11.5)
    assert answer == 11 and type(answer) is int
    short = min_sample_size(WR, 0.5, 2.0, target, k_max=10.5)
    assert short == Unreachable(target, 10.0, _conf_wr(0.5, 10, 2.0))
    capped = min_sample_size(WOR, 0.4, 1.0001, 0.999, n=50.5)
    assert isinstance(capped, Unreachable) and capped.limit == 49.0
    assert capped.confidence_at_limit == evaluate_confidence(WOR, 0.4, 49, 1.0001, n=50.5).confidence


def test_wor_sample_size_past_n_minus_one_is_refused():
    # k < n there, but (n - k - 1)(n - k) < 0 under the coefficient's root
    with pytest.raises(ValueError, match=r"^sampling without replacement needs k <= n - 1, "
                                         r"got k=39\.5, n=40$"):
        q_at_confidence(WOR, 0.5, 39.5, 0.5, n=40)
    with pytest.raises(ValueError, match=r"needs k <= n - 1, got k=1, n=1\.5$"):
        min_sample_size(WOR, 0.5, 2.0, 0.5, n=1.5)


def test_min_sample_size_validation():
    with pytest.raises(ValueError):
        min_sample_size(WR, 0.1, 2.0, 1.0)
    with pytest.raises(ValueError):
        min_sample_size(WR, 0.1, 2.0, 0.0)
    with pytest.raises(ValueError):
        min_sample_size(WOR, 0.1, 2.0, 0.5)  # n missing


def test_q_at_confidence_round_trip():
    answer = q_at_confidence(WR, 0.005, 10000, 0.95)
    assert answer <= 2.0  # published cell shows > 0.995 already at q = 2
    assert _conf_wr(0.005, 10000, answer) >= 0.95
    assert _conf_wr(0.005, 10000, answer * (1 - 1e-6)) < 0.95


def test_q_at_confidence_hits_floor():
    # Chernoff under-term floor e^(-pk) = e^(-0.05) caps the confidence
    answer = q_at_confidence(WR, 0.005, 10, 0.999)
    assert isinstance(answer, Unreachable)
    assert answer.limit == 10**6
    assert answer.confidence_at_limit < 0.999
    assert answer.confidence_at_limit <= 1 - math.exp(-0.05) + 1e-9


def test_q_at_confidence_tiny_target():
    # as the target approaches 0 the answer approaches the q where the
    # clamped confidence first turns positive (at q = 1 both tails are
    # vacuous, so the confidence there is exactly 0, below any target)
    answer = q_at_confidence(WR, 0.5, 100, 1e-9)
    assert _conf_wr(0.5, 100, answer) >= 1e-9
    assert _conf_wr(0.5, 100, answer * (1 - 1e-6)) < 1e-9


def test_q_at_confidence_wor():
    answer = q_at_confidence(WOR, 0.01, 5000, 0.95, n=10**6)
    conf = evaluate_confidence(WOR, 0.01, 5000, answer, n=10**6).confidence
    assert conf >= 0.95
    backed = answer * (1 - 1e-6)
    if backed > 1.0:
        assert evaluate_confidence(WOR, 0.01, 5000, backed, n=10**6).confidence < 0.95


def test_solver_monotone_in_target():
    targets = [0.2, 0.5, 0.8, 0.95, 0.99]
    answers = [min_sample_size(WR, 0.01, 2.0, t) for t in targets]
    assert all(isinstance(a, int) for a in answers)
    assert answers == sorted(answers)


@contextlib.contextmanager
def _recording(check=lambda k, q: None, limit=2000):
    """Every (k, q) at which a solver evaluates the bound, recorded through
    the per-solve closure its steps call, each after `check(k, q)`; a solve
    of more than `limit` steps fails (bisecting [1, 1e308] takes 1,025)."""
    seen = []
    real = solver_module._confidence_at

    def recording(*args):
        conf, steps = real(*args), itertools.count(1)

        def step(k, q):
            assert next(steps) <= limit, f"more than {limit} steps, the last at k={k}, q={q}"
            check(k, q)
            seen.append((k, q))
            return conf(k, q)
        return step

    with mock.patch.object(solver_module, "_confidence_at", recording):
        yield seen


@pytest.fixture
def steps():
    with _recording() as seen:
        yield seen


def test_solver_stays_inside_search_box(steps):
    min_sample_size(WR, 0.003, 2.0, 0.9, k_max=10**7)
    q_at_confidence(WR, 0.003, 2000, 0.9, q_max=10**4)
    assert steps
    assert all(1 <= k <= 10**7 for k, _ in steps)
    assert all(1.0 <= q <= 10**4 for _, q in steps)


def _nonempty_subsets(kinds):
    kinds = sorted(kinds, key=lambda kind: kind.value)  # not the set's per-process order
    return [frozenset(subset) for size in range(1, len(kinds) + 1)
            for subset in itertools.combinations(kinds, size)]


WR_KIND_SETS = _nonempty_subsets(WITH_REPLACEMENT_KINDS)
WOR_KIND_SETS = _nonempty_subsets(WITHOUT_REPLACEMENT_KINDS)


@pytest.mark.parametrize("method, kinds", [
    pytest.param(method, kinds, id="-".join([method.value, *sorted(kind.value for kind in kinds)]))
    for method, sets in ((WR, WR_KIND_SETS), (WOR, WOR_KIND_SETS)) for kinds in sets
])
def test_min_sample_size_matches_brute_force(method, kinds):
    # every k up to the cap evaluated: the answer is the first k reaching
    # the target, or Unreachable with the bound at the cap
    cap, n = 3000, 3001  # without replacement the cap is n - 1 = 3000 too
    for p in (0.0, 0.05, 0.3, 1.0):
        for q in (1.5, 4.0):
            values = [evaluate_confidence(method, p, k, q, n=n, inequalities=kinds).confidence
                      for k in range(1, cap + 1)]
            for target in (1e-9, 0.5, 0.9, 0.99, 1 - 1e-6):
                least = next((k for k, value in enumerate(values, 1) if value >= target),
                             Unreachable(target, float(cap), values[-1]))
                answer = min_sample_size(method, p, q, target, n=n, inequalities=kinds, k_max=cap)
                assert answer == least, (p, q, target)


_TARGETS = st.one_of(
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
    st.floats(min_value=5e-324, max_value=1e-6),
    st.integers(min_value=1, max_value=2**30).map(lambda i: 1.0 - i * 2.0**-53),
)


@given(
    st.one_of(st.floats(min_value=5e-324, max_value=1.0),
              st.floats(min_value=-9.0, max_value=0.0).map(lambda e: 10.0**e)),
    st.one_of(st.floats(min_value=1.0, max_value=1e300),
              st.floats(min_value=-4.0, max_value=3.0).map(lambda e: 1.0 + 10.0**e)),
    _TARGETS,
    st.sampled_from(WR_KIND_SETS),
    st.integers(min_value=1, max_value=10**9),
)
@example(0.5, 2.0, 1.0 - 2.0**-53, frozenset({InequalityKind.BERNSTEIN}), 10**9)
@settings(max_examples=500, deadline=None)
def test_min_sample_size_round_trip_over_wr_domain(p, q, target, kinds, k_max):
    # near target 1 the bound's last rounding decides the least k: the
    # bracket's low end must allow for it
    def conf(k):
        return evaluate_confidence(WR, p, k, q, inequalities=kinds).confidence

    answer = min_sample_size(WR, p, q, target, inequalities=kinds, k_max=k_max)
    if isinstance(answer, Unreachable):
        assert answer == Unreachable(target, float(k_max), conf(k_max))
        assert answer.confidence_at_limit < target
    else:
        assert 1 <= answer <= k_max
        assert conf(answer) >= target
        assert answer == 1 or conf(answer - 1) < target


def _counted(method, p, n, kinds):
    """conf(k, q) through evaluate_confidence, and a list that grows by one
    per evaluation."""
    made = []

    def conf(k, q):
        made.append((k, q))
        return evaluate_confidence(method, p, k, q, n=n, inequalities=kinds).confidence
    return conf, made


def _bisect_to_cap(p, q, target, n, kinds, k_max=solver_module.DEFAULT_K_MAX):
    """The least k in [1, cap] the without-replacement bound accepts, found
    by one bisection over [0, cap] through `evaluate_confidence`, as
    min_sample_size searched before its Hoeffding-Serfling top; and the
    number of bound evaluations that made."""
    cap = min(k_max, n - 1)
    conf, made = _counted(WOR, p, n, kinds)
    if (value := conf(cap, q)) < target:
        return Unreachable(target, float(cap), value), len(made)
    lo, hi = 0, cap
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if conf(mid, q) >= target else (mid, hi)
    return hi, len(made)


def _bisect_k(method, p, q, target, n, kinds, k_max):
    """min_sample_size's answer by the plain bisection that defines it: the
    top of the solver's bracket, then every midpoint, evaluated through
    evaluate_confidence; and the number of evaluations."""
    kinds = _method_kinds(method, kinds)
    conf, made = _counted(method, p, n, kinds)
    cap = k_max if method is WR else min(k_max, n - 1)
    lo, hi = (solver_module._bracket(p, q, target, kinds, cap) if method is WR
              else (0, min(cap, solver_module._serfling_top(p, q, target, kinds, n))))
    if (value := conf(hi, q)) < target and hi < cap:
        lo, hi = hi, cap
        value = conf(hi, q)
    if value < target:
        return Unreachable(target, float(cap), value), len(made)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if conf(mid, q) >= target else (mid, hi)
    return hi, len(made)


def _bisect_q(method, p, k, target, n, kinds, q_max):
    """q_at_confidence's answer by the plain geometric bisection of
    [1, q_max] that defines it, every midpoint evaluated through
    evaluate_confidence; and the number of evaluations."""
    conf, made = _counted(method, p, n, kinds)
    if (at_cap := conf(k, q_max)) < target:
        return Unreachable(target, float(q_max), at_cap), len(made)
    lo, hi = 1.0, q_max
    while hi - lo > 1e-9 * hi:
        mid = math.sqrt(lo * hi)
        if not lo < mid < hi:
            break
        lo, hi = (lo, mid) if conf(k, mid) >= target else (mid, hi)
    return hi, len(made)


_HS = frozenset({InequalityKind.HOEFFDING_SERFLING})
_BS = frozenset({InequalityKind.BERNSTEIN_SERFLING})


@given(
    st.one_of(st.floats(min_value=5e-324, max_value=1.0),
              st.floats(min_value=-9.0, max_value=0.0).map(lambda e: 10.0**e)),
    st.one_of(st.floats(min_value=1.0, max_value=1e300),
              st.floats(min_value=-4.0, max_value=3.0).map(lambda e: 1.0 + 10.0**e)),
    st.one_of(_TARGETS, st.integers(min_value=1, max_value=8).map(lambda i: 1.0 - i * 2.0**-53)),
    st.sampled_from(WOR_KIND_SETS),
    st.one_of(st.integers(min_value=2, max_value=1000),
              st.floats(min_value=3.0, max_value=18.0).map(lambda e: int(10.0**e))),
    st.integers(min_value=1, max_value=10**9),
)
@example(0.005, 2.0, 0.95, DEFAULT_WOR_KINDS, 10**6, 10**9)  # the Hoeffding-Serfling top
@example(0.01, 1.5, 0.9, DEFAULT_WOR_KINDS, 1000, 10**9)  # 2 top > n
@example(0.005, 2.0, 0.95, _BS, 10**6, 10**9)  # Hoeffding-Serfling not chosen
@example(0.5, 2.0, 1.0 - 2.0**-53, _HS, 10**9, 10**9)  # a target one ulp below 1
@example(0.5, 2.0, 1.0 - 3 * 2.0**-53, DEFAULT_WOR_KINDS, 10**15, 10**9)
@settings(max_examples=300, deadline=None)
def test_min_sample_size_wor_matches_bisection_to_cap(p, q, target, kinds, n, k_max):
    answer = min_sample_size(WOR, p, q, target, n=n, inequalities=kinds, k_max=k_max)
    assert answer == _bisect_to_cap(p, q, target, n, kinds, k_max)[0]


_METHOD_KINDS = st.sampled_from([(WR, kinds) for kinds in WR_KIND_SETS]
                                + [(WOR, kinds) for kinds in WOR_KIND_SETS])
_P = st.one_of(st.just(0.0), st.floats(min_value=5e-324, max_value=1.0),
               st.floats(min_value=-9.0, max_value=0.0).map(lambda e: 10.0**e))
_Q = st.one_of(st.floats(min_value=1.0, max_value=1e300),
               st.floats(min_value=-4.0, max_value=3.0).map(lambda e: 1.0 + 10.0**e))
# a few ulps from 0 and from 1, besides the targets above
_EDGE_TARGETS = st.one_of(_TARGETS, st.integers(min_value=1, max_value=8).map(lambda i: i * 5e-324),
                          st.integers(min_value=1, max_value=8).map(lambda i: 1.0 - i * 2.0**-53))
_N = st.one_of(st.integers(min_value=2, max_value=1000),
               st.floats(min_value=3.0, max_value=12.0).map(lambda e: int(10.0**e)))


@given(_METHOD_KINDS, _P, _Q, _EDGE_TARGETS, _N,
       st.one_of(st.just(solver_module.DEFAULT_K_MAX), st.integers(min_value=1, max_value=10**12)))
@example((WR, DEFAULT_WR_KINDS), 0.005, 2.0, 0.95, 10**6, 10**9)
@example((WOR, DEFAULT_WOR_KINDS), 0.005, 2.0, 0.95, 10**6, 10**9)
@example((WR, WITH_REPLACEMENT_KINDS), 0.5, 1.0002834719775153, 1.0 - 9 * 2.0**-53, 10, 10**9)
@settings(max_examples=300, deadline=None)
def test_min_sample_size_matches_plain_bisection(method_kinds, p, q, target, n, k_max):
    # the answer is the plain bisection's, repr for repr; every evaluated k
    # is in [1, cap]; and at most four evaluations more are made
    method, kinds = method_kinds
    with _recording() as seen:
        answer = min_sample_size(method, p, q, target, n=n, inequalities=kinds, k_max=k_max)
    expected, evaluations = _bisect_k(method, p, q, target, n, kinds, k_max)
    assert repr(answer) == repr(expected)
    cap = k_max if method is WR else min(k_max, n - 1)
    assert all(1 <= k <= cap and point_q == q for k, point_q in seen)
    assert len(seen) <= evaluations + 4


@given(_METHOD_KINDS, _P, _EDGE_TARGETS, _N, st.integers(min_value=0, max_value=10**12),
       st.one_of(st.just(solver_module.DEFAULT_Q_MAX), _Q))
@example((WR, DEFAULT_WR_KINDS), 0.01, 0.9, 10**6, 999, 10**6)
@example((WOR, DEFAULT_WOR_KINDS), 0.005, 0.95, 10**6, 3918, 10**6)
@example((WR, WITH_REPLACEMENT_KINDS), 0.5, 1.0 - 2.0**-53, 10**12, 10**9, 1e300)
@example((WR, DEFAULT_WR_KINDS), 0.5, 5e-324, 10**6, 99, 10**6)
@settings(max_examples=300, deadline=None)
def test_q_at_confidence_matches_plain_bisection(method_kinds, p, target, n, offset, q_max):
    # the answer is the plain geometric bisection's, repr for repr; every
    # evaluated q is in [1, q_max] (exp(ln q_max) may be an ulp above it);
    # and at most six evaluations more are made, or twice the plain count
    # plus six where the solver bisects again, from the first midpoint
    method, kinds = method_kinds
    k = 1 + offset % min(n - 1, 10**9)
    with _recording() as seen:
        answer = q_at_confidence(method, p, k, target, n=n, inequalities=kinds, q_max=q_max)
    expected, evaluations = _bisect_q(method, p, k, target, n, kinds, q_max)
    assert repr(answer) == repr(expected)
    assert all(point_k == k and 1.0 <= point_q <= q_max for point_k, point_q in seen)
    again = (k, math.sqrt(1.0 * q_max)) in seen
    assert len(seen) <= (2 if again else 1) * evaluations + 6


@given(
    st.sampled_from([(WR, kinds) for kinds in WR_KIND_SETS]
                    + [(WOR, kinds) for kinds in WOR_KIND_SETS]),
    st.one_of(st.just(0.0), st.floats(min_value=5e-324, max_value=1.0),
              st.floats(min_value=-9.0, max_value=0.0).map(lambda e: 10.0**e)),
    st.one_of(st.floats(min_value=1.0, max_value=1e300),
              st.floats(min_value=-4.0, max_value=3.0).map(lambda e: 1.0 + 10.0**e)),
    st.integers(min_value=2, max_value=2**62),
    st.integers(min_value=0, max_value=2**62),
)
@example((WOR, DEFAULT_WOR_KINDS), 5e-324, 1e300, 2**62, 2**62 - 2)  # k = n - 1
@example((WOR, _HS), 0.3, 1.5, 2**62, 2**61 - 1)  # 2k = n
@example((WR, WITH_REPLACEMENT_KINDS), 1.0, 1.0, 2, 2**62)
@settings(max_examples=500, deadline=None)
def test_solver_step_equals_evaluate_confidence(method_kinds, p, q, n, offset):
    # the closure the solvers bisect on gives the records path's confidence,
    # bit for bit, at every point of the domain (k in [1, n - 1])
    method, kinds = method_kinds
    k = 1 + offset % (n - 1)
    conf = _confidence_at(method, p, n, _method_kinds(method, kinds))
    expected = evaluate_confidence(method, p, k, q, n=n, inequalities=kinds).confidence
    assert conf(k, q).hex() == expected.hex()


@pytest.mark.parametrize("method, bracket, short", [
    (WR, "_bracket", lambda *args: (0, 10)),
    (WOR, "_serfling_top", lambda *args: 10),
])
def test_min_sample_size_searches_past_a_short_top(monkeypatch, method, bracket, short):
    # a top the bound's rounding leaves below the target is no Unreachable:
    # the search goes on over [top, cap]
    expected = min_sample_size(method, 0.005, 2.0, 0.95, n=10**6)
    monkeypatch.setattr(solver_module, bracket, short)
    assert min_sample_size(method, 0.005, 2.0, 0.95, n=10**6) == expected


@pytest.mark.parametrize("method, p, k, q, n", [
    (WR, 1.5, 10, 2.0, None), (WR, math.nan, 10, 2.0, None), (WR, 0.1, 0, 2.0, None),
    (WR, 0.1, 10, 0.5, None), (WR, 0.1, 10, math.inf, None), (WR, 0.0, 10, math.nan, None),
    (WOR, -0.1, 10, 2.0, 100), (WOR, 0.1, 100, 2.0, 100), (WOR, 0.0, 100, 2.0, 100),
    (WOR, 0.1, 10, math.nan, 100),
])
def test_q_at_confidence_refuses_at_entry_what_evaluate_confidence_rejects(method, p, k, q, n):
    # the solver checks p, k, n and its search box once, at entry, with the
    # message evaluate_confidence gives for the same point; no step is taken
    with pytest.raises(ValueError) as expected:
        evaluate_confidence(method, p, k, q, n=n)
    with _recording() as seen, pytest.raises(
            ValueError, match="^" + re.escape(str(expected.value)) + "$"):
        q_at_confidence(method, p, k, 0.9, n=n, q_max=q)
    assert seen == []


_SIZES = st.one_of(st.integers(min_value=2, max_value=10**6),
                   st.integers(min_value=2, max_value=2**70),
                   st.floats(min_value=2.0, max_value=1e300),
                   st.floats(min_value=53.0, max_value=300.0).map(lambda e: float(2**int(e))))


@given(_METHOD_KINDS, st.one_of(st.just(0.0), _P), _Q, _EDGE_TARGETS, _SIZES,
       st.one_of(st.integers(min_value=1, max_value=10**12), st.just(2**62),
                 st.floats(min_value=1.0, max_value=1e308)),
       st.integers(min_value=1, max_value=2**70),
       st.one_of(st.just(solver_module.DEFAULT_Q_MAX), _Q))
@example((WOR, DEFAULT_WOR_KINDS), 0.5, 1.000000001, 0.99, 2.0**60, 2**62, 1, 10**6)
@example((WOR, DEFAULT_WOR_KINDS), 0.0, 2.0, 0.5, 1e300, 1e308, 2**70, 1e300)
@example((WOR, DEFAULT_WOR_KINDS), 1e-100, 2.0, 0.5, 1e300, 1e308, 1, 10**6)  # a k past 1e154
@example((WR, DEFAULT_WR_KINDS), 1e-20, 2.0, 0.5, 2, 1e30, 1, 10**6)  # an answer past 2**53
@example((WR, frozenset({InequalityKind.BERNSTEIN, InequalityKind.HOEFFDING})), 1e-300, 2.0, 0.5,
         2, 1e308, 1, 10**6)  # a bracket past 2**1021
@example((WR, WITH_REPLACEMENT_KINDS), 0.0, 1.0, 1e-9, 2, 1e308, 1, 1.0)
@settings(max_examples=300, deadline=None)
def test_every_solver_step_is_inside_the_domain(method_kinds, p, q, target, n, k_max, k, q_max):
    # the steps are not checked, so each one is checked here: every (k, q) a
    # solver evaluates is a point _check_point admits, each solve ends, and
    # the answers are those of a run whose steps are not watched
    method, kinds = method_kinds
    k = 1 + (k - 1) % max(1, min(math.floor(n) - 1, 10**9))
    solve_k = functools.partial(min_sample_size, method, p, q, target, n=n,
                                inequalities=kinds, k_max=k_max)
    solve_q = functools.partial(q_at_confidence, method, p, k, target, n=n,
                                inequalities=kinds, q_max=q_max)
    def check(point_k, point_q):
        _check_point(method, None if p == 0.0 else p, point_k, point_q, n)

    for solve in (solve_k, solve_q):
        with _recording(check) as seen:
            answer = solve()
        assert seen and isinstance(answer, (int, float, Unreachable))
        assert repr(answer) == repr(solve())


@given(st.one_of(st.floats(min_value=2.0**53, max_value=1e300),
                 st.integers(min_value=53, max_value=996).map(lambda e: 2.0**e)),
       st.one_of(st.just(0.0), _P), _Q, _TARGETS, st.sampled_from(WOR_KIND_SETS),
       st.one_of(st.just(1e308), st.floats(min_value=2.0**53, max_value=1e308)))
@example(2.0**60, 0.5, 1.000000001, 0.99, DEFAULT_WOR_KINDS, 2.0**62)
@example(2.0**53 + 4, 0.5, 2.0, 0.5, DEFAULT_WOR_KINDS, 1e308)  # n - 1 rounds up to n
@example(1e300, 0.3, 1.0, 0.95, DEFAULT_WOR_KINDS, 1e308)
@example(1e300, 1e-100, 2.0, 0.5, DEFAULT_WOR_KINDS, 1e308)  # the top, past 1e154, evaluated
@settings(max_examples=200, deadline=None)
def test_min_sample_size_cap_at_a_float_n_past_2_53(n, p, q, target, kinds, k_max):
    # where n - 1 rounds to n the cap is the double below n, a k that
    # _check_point admits: the answer is an int or Unreachable, never an
    # error; with the top at n, the cap is the first k evaluated
    k_max = max(k_max, n)
    solve = functools.partial(min_sample_size, WOR, p, q, target, n=n, inequalities=kinds,
                              k_max=k_max)
    assert isinstance(solve(), (int, Unreachable))
    with mock.patch.object(solver_module, "_serfling_top", lambda *args: n), \
            _recording() as seen:
        assert isinstance(solve(), (int, Unreachable))
    cap = seen[0][0]
    assert type(cap) is int and float(cap) == math.nextafter(n, 0.0)
    _check_point(WOR, None if p == 0.0 else p, cap, q, n)


def test_per_side_minima_rule():
    # NaN-skipping, the vacuous 1 with no kind where no term applies, and
    # the first kind in the order binding a tie
    order = with_replacement._ORDER
    chernoff, bernstein, hoeffding = order
    values = [0.5, 0.25, 0.5, 0.125, math.nan, math.nan]
    assert _minima(order, values, frozenset(order)) == (0.5, 0.125, chernoff, bernstein)
    assert _minima(order, values, frozenset({hoeffding})) == (1.0, 1.0, None, None)
    assert _minima(order, [1.0] * 6, frozenset(order)) == (1.0, 1.0, chernoff, chernoff)
    assert evaluate_confidence(WOR, 0.3, 50, 1.0, n=100).omega_source is InequalityKind.HOEFFDING_SERFLING


@given(
    _METHOD_KINDS,
    st.one_of(st.floats(min_value=5e-324, max_value=1.0),
              st.floats(min_value=-9.0, max_value=0.0).map(lambda e: 10.0**e)),
    _Q,
    st.integers(min_value=2, max_value=2**62),
    st.integers(min_value=0, max_value=2**62),
)
@example((WR, WITH_REPLACEMENT_KINDS), 0.01, 2.0, 100, 50)  # Hoeffding's under term is NaN
@settings(max_examples=300, deadline=None)
def test_bound_result_derives_terms_from_the_kernel(method_kinds, p, q, n, offset):
    # terms are the kernel's values as BoundTerms, the chosen kinds in the
    # kernel's order, over then under; the other fields are the minima
    method, kinds = method_kinds
    k = 1 + offset % (n - 1)
    result = evaluate_confidence(method, p, k, q, n=n, inequalities=kinds)
    if method is WR:
        order, values = with_replacement._ORDER, with_replacement._terms(_SCALAR, p, k, q)
    else:
        order = without_replacement._ORDER
        values = without_replacement._terms(_SCALAR, p, k, q, *without_replacement._coefficients(k, n))
    expected = [(kind, side, values[2 * i + j]) for i, kind in enumerate(order) if kind in kinds
                for j, side in enumerate(Side)]
    assert all(type(term) is BoundTerm for term in result.terms)
    assert [(t.inequality, t.side, repr(t.probability)) for t in result.terms] == [
        (kind, side, repr(value)) for kind, side, value in expected]
    omega, psi, omega_source, psi_source = _minima(order, values, kinds)
    assert (result.omega, result.psi, result.omega_source, result.psi_source) == (
        omega, psi, omega_source, psi_source)
    assert result.confidence == max(0.0, 1.0 - omega - psi) and not result.degenerate
    again = evaluate_confidence(method, p, k, q, n=n, inequalities=kinds)
    assert again == result and hash(again) == hash(result)
    assert repr(result) == (
        f"BoundResult(omega={omega!r}, psi={psi!r}, confidence={result.confidence!r}, "
        f"terms={result.terms!r}, omega_source={omega_source!r}, psi_source={psi_source!r}, "
        "degenerate=False)")


def test_bound_result_is_immutable_and_builds_terms_when_read(monkeypatch):
    built = []
    real = terms_module.BoundTerm

    def counting(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(terms_module, "BoundTerm", counting)
    wr = evaluate_confidence(WR, 0.003, 5000, 2.0, inequalities=WITH_REPLACEMENT_KINDS)
    wor = evaluate_confidence(WOR, 0.003, 5000, 2.0, n=10**6)
    assert wr.confidence > 0.0 and wor.confidence > 0.0 and built == []
    assert len(wr.terms) == len(built) == 6
    degenerate = evaluate_confidence(WR, 0.0, 10, 2.0)
    assert degenerate.terms == () and degenerate.degenerate and degenerate.confidence == 0.0
    for field in ("omega", "confidence", "terms", "degenerate", "_kernel"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(wor, field, 0.5)
    assert wr != wor and wr == evaluate_confidence(WR, 0.003, 5000, 2.0,
                                                   inequalities=WITH_REPLACEMENT_KINDS)


def test_bound_result_equality_defers_to_other_types():
    result = evaluate_confidence(WR, 0.003, 5000, 2.0)
    assert result.__eq__(result.confidence) is NotImplemented
    assert result.__eq__(None) is NotImplemented
    assert result != result.confidence and result != None  # noqa: E711


def test_min_sample_size_evaluations(steps):
    # the rule of thumb's bracket at p = 0.005, q = 2 is ~900 wide: its top,
    # lo + 1, and secant steps on a near-linear ln(1 - conf) that land on
    # both sides of the answer, where plain bisection takes ten steps; at
    # p = 0 the bound is 0 for every k, and the top of the bracket, the
    # cap, is the one evaluation
    assert min_sample_size(WR, 0.005, 2.0, 0.95) == 3919
    assert len(steps) <= 5 < _bisect_k(WR, 0.005, 2.0, 0.95, None, None, 10**9)[1] == 10
    for method in (WR, WOR):
        steps.clear()
        answer = min_sample_size(method, 0.0, 2.0, 0.95, n=10**6)
        assert isinstance(answer, Unreachable) and answer.confidence_at_limit == 0.0
        assert len(steps) == 1
    # without replacement the Hoeffding-Serfling top cuts the [0, cap] bracket
    steps.clear()
    assert min_sample_size(WOR, 0.005, 2.0, 0.95, n=10**6) == 9363
    assert len(steps) <= 6 < _bisect_k(WOR, 0.005, 2.0, 0.95, 10**6, None, 10**9)[1] == 19
    assert _bisect_to_cap(0.005, 2.0, 0.95, 10**6, DEFAULT_WOR_KINDS)[1] == 21


@pytest.mark.parametrize("change", [
    {"p": 1.5}, {"p": -0.1}, {"p": math.nan}, {"q": 0.5}, {"q": math.inf}, {"q": math.nan},
    {"inequalities": []}, {"inequalities": [InequalityKind.HOEFFDING_SERFLING]},
    {"p": 0.0, "inequalities": [InequalityKind.BERNSTEIN_SERFLING]},
])
def test_min_sample_size_checks_input_before_reading_rates(monkeypatch, change):
    def no_rates(*args):
        raise AssertionError("rates read before the input was checked")

    monkeypatch.setattr(with_replacement, "_exponents", no_rates)
    with pytest.raises(ValueError):
        min_sample_size(WR, **{"p": 0.1, "q": 2.0, "target_confidence": 0.9, **change})


@pytest.mark.parametrize("p", [0.0, 0.1])
@pytest.mark.parametrize("method, kinds", [
    (WR, []), (WR, [InequalityKind.HOEFFDING_SERFLING]),
    (WOR, []), (WOR, [InequalityKind.CHERNOFF]),
])
def test_inequality_set_is_checked_at_p_zero_too(p, method, kinds):
    # p = 0 is the degenerate case, but a bad set is an error there as at p > 0
    with pytest.raises(ValueError, match="inequality set must not be empty|not valid for"):
        evaluate_confidence(method, p, 10, 2.0, n=100, inequalities=kinds)
    with pytest.raises(ValueError, match="inequality set must not be empty|not valid for"):
        q_at_confidence(method, p, 10, 0.9, n=100, inequalities=kinds)


def test_unreachable_is_a_result_not_an_error():
    answer = q_at_confidence(WR, 0.005, 10, 0.999)
    assert isinstance(answer, Unreachable)
    assert answer.target_confidence == 0.999


@given(
    st.sampled_from([WR, WOR]),
    st.floats(min_value=5e-324, max_value=1.0),
    st.integers(min_value=1, max_value=10**9),
    st.integers(min_value=1, max_value=10**9),
    st.booleans(),
)
@settings(max_examples=300)
def test_confidence_at_q_one_is_zero(method, p, k, extra, with_hoeffding):
    # every term is the vacuous 1 at q = 1 (Hoeffding's under side needs
    # pq > 1), which is why q_at_confidence's bisection can start at q = 1
    kinds = default_inequalities(method, with_hoeffding)
    result = evaluate_confidence(method, p, k, 1.0, n=k + extra, inequalities=kinds)
    assert result.confidence == 0.0


def test_q_at_confidence_evaluations(steps):
    # the bisection starts at q = 1 without evaluating the bound there, and
    # the secant narrowing leaves the replayed bisection a few midpoints
    answer = q_at_confidence(WR, 0.01, 1000, 0.9)
    assert steps[0] == (1000, 10**6) and all(k == 1000 for k, _ in steps)
    assert 1.0 not in [q for _, q in steps]
    assert _conf_wr(0.01, 1000, answer) >= 0.9
    assert len(steps) <= 12 < _bisect_q(WR, 0.01, 1000, 0.9, None, None, 10**6)[1] == 35
    steps.clear()
    # the bound saturates near 0.94 in q here, so the secant steps from the
    # top are short until ITP's projection steps in
    assert q_at_confidence(WOR, 0.005, 3919, 0.95, n=10**6) == 7.278930633725925
    assert len(steps) <= 21 < _bisect_q(WOR, 0.005, 3919, 0.95, 10**6, None, 10**6)[1] == 35


@pytest.mark.parametrize("solve", [
    lambda: q_at_confidence(WR, 0.1, 10, 0.9, q_max=10**400),
    lambda: q_at_confidence(WR, 0.0, 10, 0.9, q_max=10**400),  # no bound is evaluated at p = 0
    lambda: q_at_confidence(WR, 0.1, 10**400, 0.9),
    lambda: min_sample_size(WR, 0.0, 2.0, 0.9, k_max=10**400),
    lambda: min_sample_size(WR, 0.1, 2.0, 0.9, k_max=10**400),
    lambda: min_sample_size(WR, 0.1, 2.0, 0.9, k_max=math.inf),
    lambda: min_sample_size(WR, 0.1, 2.0, 0.9, k_max=math.nan),
    lambda: min_sample_size(WR, 0.1, 10**400, 0.9),
])
def test_solver_limits_past_the_float_range_are_refused(solve):
    # a Python int past the largest double passed `x < inf` and then
    # overflowed in float(); the limits are held to the point rule first
    with pytest.raises(ValueError, match="must be finite and >= 1"):
        solve()


@pytest.mark.parametrize("q_max", [10**6, 2**70, 2.0])
def test_unreachable_limit_is_a_float(q_max):
    for answer in (q_at_confidence(WR, 0.0, 10, 0.9, q_max=q_max),
                   min_sample_size(WR, 0.0, 2.0, 0.9, k_max=q_max)):
        assert isinstance(answer, Unreachable)
        assert type(answer.limit) is float and answer.limit == q_max


_Q_MAXES = [1 + 1e-9, 1 + 3e-9, 10.0, 1e6, 1e300, 1.7e308]


@pytest.mark.parametrize("q_max", _Q_MAXES)
@given(_METHOD_KINDS, st.floats(min_value=-3.0, max_value=0.0).map(lambda e: 10.0**e),
       st.floats(min_value=-1.0, max_value=4.0), st.integers(min_value=1, max_value=10**6),
       st.floats(min_value=0.0, max_value=1.0, exclude_min=True))
@settings(max_examples=60, deadline=None)
def test_q_narrowing_evaluates_strictly_between_its_last_miss_and_hit(
        q_max, method_kinds, p, scale, extra, share):
    # each q the narrowing evaluates lies strictly between the last miss
    # and the last hit (first q = 1 and q_max), and the replay starts from
    # those two points. k is sized so that p k (q_max - 1)^2 is near
    # 10^scale, where the bound at q_max is neither 0 nor 1; the target is
    # a share of it.
    method, kinds = method_kinds
    k = max(1, math.ceil(10.0**scale / (p * min(1.0, q_max - 1.0) ** 2)))
    n = k + extra
    at_cap = evaluate_confidence(method, p, k, q_max, n=n, inequalities=kinds).confidence
    target = at_cap * share
    assume(0.0 < target < 1.0)
    probes, replays = [], []
    narrow, replay = solver_module._narrow, solver_module._replay

    def watched_narrow(probe, *rest):
        def watched(x, a, b):
            start = len(seen)
            got = probe(x, a, b)
            probes.append((seen[start:], got[1]))
            return got
        return narrow(watched, *rest)

    def watched_replay(conf, k, target, q_max, miss, hit):
        replays.append((miss, hit))
        return replay(conf, k, target, q_max, miss, hit)

    with _recording() as seen, mock.patch.object(solver_module, "_narrow", watched_narrow), \
            mock.patch.object(solver_module, "_replay", watched_replay):
        q_at_confidence(method, p, k, target, n=n, inequalities=kinds, q_max=q_max)
    miss, hit = 1.0, q_max
    for points, is_hit in probes:
        assert len(points) == 1
        (point_k, point_q), = points
        assert point_k == k and miss < point_q < hit
        miss, hit = (miss, point_q) if is_hit else (point_q, hit)
    assert replays[0] == (miss, hit)
    # the bracket [0, ln q_max] is narrowed only where it is wider than the target
    assert (probes == []) == (math.log(q_max) <= solver_module._LN_Q_WIDTH)


@pytest.mark.parametrize("p, k, target, kinds", [
    (0.9, 9_371_342_518_210, 0.95, {InequalityKind.CHERNOFF}),
    (0.9, 4_864_811_814_245, 0.9, {InequalityKind.CHERNOFF, InequalityKind.HOEFFDING}),
    (0.5, 530_522_841_789, 0.9, {InequalityKind.CHERNOFF, InequalityKind.HOEFFDING}),
])
def test_q_at_confidence_bisects_again_where_the_bound_is_not_monotone(monkeypatch, p, k,
                                                                        target, kinds):
    # near q = 1 at a huge pk the Chernoff under exponent cancels, so an
    # end the replay decided without evaluating disagrees with the bound
    # there, and the plain bisection is run again from (1, q_max)
    replays = []
    replay = solver_module._replay

    def spy(conf, k, target, q_max, miss, hit):
        replays.append((miss, hit))
        return replay(conf, k, target, q_max, miss, hit)

    monkeypatch.setattr(solver_module, "_replay", spy)
    answer = q_at_confidence(WR, p, k, target, inequalities=kinds)
    assert repr(answer) == repr(_bisect_q(WR, p, k, target, None, kinds,
                                          solver_module.DEFAULT_Q_MAX)[0])
    assert len(replays) == 2 and replays[0] != (1.0, 10**6)
    assert replays[1] == (1.0, 10**6)
