"""Inverse planning queries on the confidence bounds.

Two inversions: the least sample size reaching a target confidence at a
given q, and the best (smallest) q guaranteed at a target confidence for
a given sample size. Each answer is defined by a plain bisection on the
monotone bound: an integer one in k over a bracket, a geometric one in q
over [1, q_max] to a relative 1e-9. The solvers reach that answer at
fewer bound evaluations. A safeguarded secant (`_narrow`) first narrows
a verified bracket a < answer <= b; the bisection is then replayed,
deciding each midpoint at or below a as a miss and each at or above b as
a hit without evaluating it, so only midpoints inside (a, b) are
evaluated. Every decision reads conf >= target from the scalar bound.
Targets that no admissible k or q can reach come back as a first-class
Unreachable result, not an error (the with-replacement under-estimation
term has the floor e^(-pk), so confidence saturates below 1 for finite
samples).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Union

from . import with_replacement
from .confidence import _confidence_at, _method_kinds
from .model import _FLOAT_MAX, SamplingMethod, _check_point
from .terms import _SCALAR, InequalityKind

DEFAULT_K_MAX = 10**9
DEFAULT_Q_MAX = 10**6

# The secant narrowing: ITP's truncation factor (per unit of the first
# bracket's width) and its slack, the steps it may take past bisection's
# count; and the bracket width in ln q it narrows to, that of the q
# bisection's last step, so the replay evaluates at most a few midpoints.
_KAPPA = 0.01
_SLACK = 2
_LN_Q_WIDTH = 1e-9
# ln(1 - conf) where conf rounds to 1: 1 - conf is below half an ulp of 1.
_LN_ROUNDED_ONE = math.log(2.0**-54)
# ln(1 - conf) before the clamp where every term is the vacuous 1 (q = 1, k = 0).
_LN_TWO = math.log(2.0)


@dataclass(frozen=True)
class Unreachable:
    """Evidence that the target cannot be met within the search limit."""

    target_confidence: float
    limit: float
    confidence_at_limit: float


def _validate_target(target_confidence: float) -> None:
    if not 0.0 < target_confidence < 1.0:
        raise ValueError(
            f"target confidence must be in (0, 1), got {target_confidence}"
        )


def min_sample_size(
    method: SamplingMethod,
    p: float,
    q: float,
    target_confidence: float,
    n: Optional[int] = None,
    inequalities: Optional[Iterable[InequalityKind]] = None,
    k_max: int = DEFAULT_K_MAX,
) -> Union[int, Unreachable]:
    """Least integer k in [1, cap] with confidence(p, k, q) >= target, where
    cap is the largest integer at most k_max, and without replacement at
    most n - 1 (the double below n where a float n - 1 rounds to n).

    The answer is that of one integer bisection, each step decided by the
    scalar bound, over a bracket whose top is evaluated first: the paper's
    rule of thumb with replacement (`_bracket`); without, [0, top] where
    the Hoeffding-Serfling bound alone reaches the target at top
    (`_serfling_top`), else [0, cap], as the Hoeffding-Serfling bound grows
    with k and the Bernstein-Serfling bound did in an exhaustive scan.
    Below the target at a top short of cap (the bound's rounding), the
    search goes on over [top, cap]; below it at cap, k is Unreachable.

    The bracket is narrowed by `_narrow` to b = a + 1, secant steps on
    ln(1 - conf) against k placing the points. Every midpoint of the
    replayed bisection is then at or below a or at or above b, so it
    evaluates none and ends at b. With replacement the rule of thumb's lo
    misses at no known value, so lo + 1 is probed first; without, k = 0
    is the failing end, where conf is 0.
    """
    _validate_target(target_confidence)
    if not 1 <= k_max <= _FLOAT_MAX:
        raise ValueError(f"k_max must be finite and >= 1, got {k_max}")
    _check_point(method, None if p == 0.0 else p, 1, q, n)  # k = 1, the least, must be admissible
    wr = method is SamplingMethod.WITH_REPLACEMENT
    kinds = _method_kinds(method, inequalities)
    conf = _confidence_at(method, p, n, kinds)
    cap = math.floor(k_max if wr else min(k_max, n - 1 if n - 1 < n else math.nextafter(n, 0.0)))

    lo, hi = (_bracket(p, q, target_confidence, kinds, cap) if wr
              else (0, min(cap, _serfling_top(p, q, target_confidence, kinds, n))))
    goal = math.log1p(-target_confidence)
    f_lo = goal - _LN_TWO  # as at k = 0, where every term is the vacuous 1
    top_short = (value := conf(hi, q)) < target_confidence and hi < cap
    if top_short:
        lo, hi, f_lo = hi, cap, _excess(goal, value)
        value = conf(hi, q)
    if value < target_confidence:
        return Unreachable(target_confidence, float(cap), value)
    f_hi = _excess(goal, value)

    def probe(x: float, a: int, b: int) -> tuple[int, bool, float]:
        # rounded toward the midpoint; the midpoint where x, a float, misses (a, b) past 2**53
        k = math.ceil(x) if x < a + 0.5 * (b - a) else math.floor(x)
        k = k if a < k < b else (a + b) // 2
        value = conf(k, q)
        return k, value >= target_confidence, _excess(goal, value)

    if wr and not top_short and 0 < lo < hi - 1:
        k, is_hit, f = probe(lo + 1, lo, hi)
        lo, f_lo, hi, f_hi = (lo, f_lo, k, f) if is_hit else (k, f, hi, f_hi)
    return _narrow(probe, lo, f_lo, hi, f_hi, 1)[1]


def _bracket(p: float, q: float, target: float, kinds: frozenset, cap: int) -> tuple[int, int]:
    """(lo, hi) in [0, cap] with the least with-replacement k in (lo, hi].

    Each term is min(1, e^(-k r)) with a rate r >= 0 free of k, so the bound
    max(0, 1 - e^(-kA) - e^(-kB)), A and B the largest chosen rates per side,
    grows with k, and with s = 1 - target and m = min(A, B) its least k is
    in [ln(1/s)/m, ln(2/s)/m]. The ends are widened by a relative 1e-9 and
    by one, the low one also by 2^-52 in s, for the bound's rounding; where
    m is 0 or the top is not finite, the bracket is [0, cap]."""
    rates = [-x if with_replacement._ORDER[i // 2] in kinds and x == x else 0.0
             for i, x in enumerate(with_replacement._exponents(_SCALAR, p, 1, q))]
    m = min(max(rates[::2]), max(rates[1::2]))  # the over and the under side
    s = 1.0 - target
    top = math.log(2.0 / s) / m * (1.0 + 1e-9) if m > 0.0 else math.inf
    if top == math.inf:
        return 0, cap
    bottom = math.log(1.0 / (s + 2.0**-52)) / m * (1.0 - 1e-9)
    return max(0, min(cap, math.floor(bottom) - 1)), min(cap, math.ceil(top) + 1)


def _serfling_top(p: float, q: float, target: float, kinds: frozenset, n: int) -> int:
    """A k in [1, n/2] at which the without-replacement bound reaches the
    target, or n where none is known.

    With Hoeffding-Serfling chosen, the bound is at least its own
    1 - 2 exp(-2 k eps^2 / rho) with eps = p(1 - 1/q), the smaller side's,
    and rho = (n - k + 1)/n for 2k <= n; with L = ln(2 / (1 - target)) that
    reaches the target for k >= L(n + 1) / (2 eps^2 n + L). The top is that
    least k widened by a relative 1e-9 and by one for the bound's rounding;
    past n/2, rho takes its other branch, and n is returned."""
    if InequalityKind.HOEFFDING_SERFLING not in kinds:
        return n
    eps = p * (1.0 - 1.0 / q)
    rate = math.log(2.0 / (1.0 - target))
    top = math.ceil(rate * (n + 1) / (2.0 * eps * eps * n + rate) * (1.0 + 1e-9)) + 1
    return top if 2 * top <= n else n


def q_at_confidence(
    method: SamplingMethod,
    p: float,
    k: int,
    target_confidence: float,
    n: Optional[int] = None,
    inequalities: Optional[Iterable[InequalityKind]] = None,
    q_max: float = DEFAULT_Q_MAX,
) -> Union[float, Unreachable]:
    """Least q in [1, q_max] (relative tolerance 1e-9) with
    confidence(p, k, q) >= target: the q where a geometric bisection on the
    q-monotone bound over [1, q_max] ends.

    `_narrow` first narrows [1, q_max] to a width of _LN_Q_WIDTH in ln q,
    secant steps on ln(1 - conf) against ln q placing the points; the
    bisection is then replayed, evaluating only the midpoints strictly
    between the narrowed ends. An end of the replay's last bracket decided
    without evaluation is evaluated: where the bound's rounding makes it
    fall with q there (a q near 1 at a huge k), the bisection is run
    again, evaluating every midpoint.
    """
    _validate_target(target_confidence)
    _check_point(method, None, k, q_max, n)
    conf = _confidence_at(method, p, n, _method_kinds(method, inequalities))
    _check_point(None, None if p == 0.0 else p, None, None)  # after the set, as evaluate_confidence

    at_cap = conf(k, q_max)
    if at_cap < target_confidence:
        return Unreachable(target_confidence, float(q_max), at_cap)

    # at q = 1 every term is the vacuous 1, so conf is 0 (1 - conf is 2
    # before the clamp): no target in (0, 1) is met there, the known miss
    goal = math.log1p(-target_confidence)

    def probe(x: float, a: float, b: float) -> tuple[float, bool, float]:
        value = conf(k, math.exp(x))
        return x, value >= target_confidence, _excess(goal, value)

    # the narrowed ends are the last miss and hit evaluated: each probed x is
    # _LN_Q_WIDTH / 2 inside them, far more than exp or log(q_max) err, so
    # exp(x) falls strictly between the points evaluated there
    top = math.log(q_max)
    a, b = _narrow(probe, 0.0, goal - _LN_TWO, top, _excess(goal, at_cap), _LN_Q_WIDTH)
    miss, hit = math.exp(a), q_max if b == top else math.exp(b)
    below, answer, miss, hit = _replay(conf, k, target_confidence, q_max, miss, hit)
    if ((answer > hit and conf(k, answer) < target_confidence)
            or (below < miss and conf(k, below) >= target_confidence)):
        # the bound is not monotone in q here (rounding): bisect again,
        # evaluating every midpoint
        answer = _replay(conf, k, target_confidence, q_max, 1.0, q_max)[1]
    return answer


def _replay(conf, k: int, target: float, q_max: float, miss: float, hit: float) -> tuple:
    """(lo, hi, miss, hit) where the bisection of [1, q_max] at geometric
    midpoints to a relative 1e-9 ends: a midpoint at or below `miss` is a
    miss and one at or above `hit` a hit, and one between is evaluated and
    becomes the new `miss` or `hit`."""
    lo, hi = 1.0, q_max
    while hi - lo > 1e-9 * hi:
        mid = math.sqrt(lo * hi)
        if not lo < mid < hi:
            break
        if mid <= miss:
            lo = mid
        elif mid >= hit:
            hi = mid
        elif conf(k, mid) >= target:
            hi = hit = mid
        else:
            lo = miss = mid
    return lo, hi, miss, hit


def _excess(goal: float, value: float) -> float:
    """log1p(-target) - log1p(-value), for goal = log1p(-target): >= 0 at
    a hit, <= 0 at a miss, and what the secant steps interpolate, as
    ln(1 - conf) is near linear in k and smooth in ln q."""
    return goal - (math.log1p(-value) if value < 1.0 else _LN_ROUNDED_ONE)


def _narrow(probe, a, f_a, b, f_b, width) -> tuple:
    """Narrow a bracket a < root <= b of an increasing f to b - a <= width
    by the ITP method (Oliveira and Takahashi, ACM TOMS 2021), with the
    Illinois rule: the regula falsi point, moved toward the midpoint by
    kappa (b - a)^2, is kept within a radius of the midpoint that shrinks
    as bisection's bracket does (from 2^1022 width at most: 2^1024
    overflows), so at most _SLACK steps more than bisection's
    ceil(log2((b - a) / width)) are taken; an end kept twice in a row has
    its f halved. `probe(x, a, b)` evaluates at a point near x strictly
    inside (a, b) and returns its coordinate, whether it is a hit (the
    root is at or below it) and f there. Every x asked for lies at least
    width / 2 inside (a, b), so a probe always has a point to evaluate.
    Returns the narrowed (a, b)."""
    kappa = _KAPPA / (b - a)
    limit = 0.5 * width * 2.0 ** min(1023, max(0, math.ceil(math.log2((b - a) / width))) + _SLACK)
    margin = 0.5 * width
    kept = 0  # +1 after b was kept, -1 after a was kept
    while b - a > width:
        w = b - a
        mid = a + 0.5 * w
        x = mid
        if f_a < f_b:
            x = a + w * (f_a / (f_a - f_b))
            delta = kappa * w * w
            x = x + delta if x + delta < mid else x - delta if x - delta > mid else mid
        radius = limit - 0.5 * w if limit > 0.5 * w else 0.0
        x = mid + radius if x > mid + radius else mid - radius if x < mid - radius else x
        x = b - margin if x > b - margin else a + margin if x < a + margin else x
        x, is_hit, f = probe(x, a, b)
        if is_hit:
            b, f_b = x, f
            if kept < 0:
                f_a *= 0.5
            kept = -1
        else:
            a, f_a = x, f
            if kept > 0:
                f_b *= 0.5
            kept = 1
        limit *= 0.5
    return a, b
