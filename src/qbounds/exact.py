"""Exact success probability by direct tail summation.

Ground truth for the inequality bounds: P(Q-error <= q) under the
binomial (with replacement) or hypergeometric (without replacement)
hit-count distribution. The estimator convention lives here and only
here: a sample with hit count x estimates n * x / k.

Probability masses are evaluated through log-gamma (factorial tables are
useless at n = 1e9), summed walking outward from the distribution mode,
truncated once terms drop below 1e-30 relative to the peak, and
accumulated with compensated summation. When the admissible region holds
more than half the mass the complement is summed instead, so results
near 1 keep absolute accuracy comparable to the tail mass itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import gammaln

from .model import PopulationSpec, SampleDesign, SamplingMethod, _check_point, q_error

_REL_CUTOFF_LOG = math.log(1e-30)
_CHUNK = 4096


def estimate_from_hits(n: int, k: int, hits: float):
    """Scale-up estimator: hits/k of the sample extrapolated to n rows."""
    return n * hits / k


@dataclass(frozen=True)
class AdmissibleRange:
    """Maximal integer interval of hit counts whose estimate has Q-error <= q.

    Empty ranges are canonically (0, -1).
    """

    lo: int
    hi: int

    @property
    def empty(self) -> bool:
        return self.lo > self.hi

    def __contains__(self, x: int) -> bool:
        return self.lo <= x <= self.hi


_EMPTY_RANGE = AdmissibleRange(0, -1)


def admissible_range(n: int, c: int, k: int, q: float) -> AdmissibleRange:
    """Bracket the admissible hit counts in closed form, then verify the
    boundaries against the clamped metric (which handles x = 0 and c = 0)."""
    PopulationSpec(n, c)  # its rule: n >= 1 and 0 <= c <= n
    _check_point(None, None, k, q)
    truth = max(c, 1)

    def ok(x: int) -> bool:
        return q_error(estimate_from_hits(n, k, x), c) <= q

    upper = math.floor(min(k, k * truth * q / n))  # capped first: a huge q overflows to inf
    # nothing above the closed-form upper bracket (plus float fuzz) can pass
    limit = min(k, upper + 4)
    if truth <= q:
        # The clamped estimate 1 already qualifies, so x = 0 is admissible.
        lo = 0
    else:
        lo = max(0, math.ceil(k * truth / (q * n)))
        while lo > 0 and ok(lo - 1):
            lo -= 1
        while lo <= limit and not ok(lo):
            lo += 1
    if lo > limit:
        return _EMPTY_RANGE

    hi = upper
    if hi < lo:
        hi = lo - 1
    while hi + 1 <= k and ok(hi + 1):
        hi += 1
    while hi >= lo and not ok(hi):
        hi -= 1
    if hi < lo:
        return _EMPTY_RANGE
    return AdmissibleRange(lo, hi)


def binom_logpmf(xs: np.ndarray, k: int, p: float) -> np.ndarray:
    """log P(Binomial(k, p) = xs) via log-gamma; needs 0 < p < 1."""
    return (
        gammaln(k + 1)
        - gammaln(xs + 1.0)
        - gammaln(k - xs + 1.0)
        + xs * math.log(p)
        + (k - xs) * math.log1p(-p)
    )


def hypergeom_logpmf(xs: np.ndarray, n: int, c: int, k: int) -> np.ndarray:
    """log P(Hypergeometric(n, c, k) = xs) via log-gamma, for xs inside the
    support [max(0, k-(n-c)), min(k, c)]."""
    return (
        gammaln(k + 1)
        + gammaln(n - k + 1)
        - gammaln(n + 1)
        + gammaln(c + 1.0)
        - gammaln(xs + 1.0)
        - gammaln(c - xs + 1.0)
        + gammaln(n - c + 1.0)
        - gammaln(k - xs + 1.0)
        - gammaln(n - c - k + xs + 1.0)
    )


def exact_confidence(pop: PopulationSpec, design: SampleDesign, q: float) -> float:
    """P(Q-error <= q) summed exactly over the hit-count distribution."""
    _check_point(design.method, None, design.k, q, pop.n)
    n, c, k = pop.n, pop.cardinality, design.k
    rng = admissible_range(n, c, k, q)
    if rng.empty:
        return 0.0

    if c == 0:
        return 1.0 if 0 in rng else 0.0
    if c == n:
        return 1.0 if k in rng else 0.0

    if design.method is SamplingMethod.WITH_REPLACEMENT:
        p = c / n

        def logpmf(xs: np.ndarray) -> np.ndarray:
            return binom_logpmf(xs, k, p)

        support_lo, support_hi = 0, k
        mode = math.floor((k + 1) * p)
    else:

        def logpmf(xs: np.ndarray) -> np.ndarray:
            return hypergeom_logpmf(xs, n, c, k)

        support_lo = max(0, k - (n - c))
        support_hi = min(k, c)
        mode = math.floor((k + 1) * (c + 1) / (n + 2))

    lo = max(rng.lo, support_lo)
    hi = min(rng.hi, support_hi)
    if lo > hi:
        return 0.0

    inside = _sum_unimodal(logpmf, lo, hi, mode)
    if inside <= 0.5:
        return min(1.0, inside)
    # Near 1, sum the two excluded tails instead: their relative error does
    # not get amplified by the cancellation in 1 - (big sum).
    below = _sum_unimodal(logpmf, support_lo, lo - 1, mode) if lo > support_lo else 0.0
    above = _sum_unimodal(logpmf, hi + 1, support_hi, mode) if hi < support_hi else 0.0
    return min(1.0, max(0.0, 1.0 - below - above))


def _sum_unimodal(
    logpmf: Callable[[np.ndarray], np.ndarray], lo: int, hi: int, mode: int
) -> float:
    """Sum exp(logpmf) over [lo, hi], walking outward from the mode.

    The pmf is unimodal, so once a chunk edge falls below the relative
    cutoff the remaining direction is negligible.
    """
    if lo > hi:
        return 0.0
    start = min(max(mode, lo), hi)
    peak_log = float(logpmf(np.array([start], dtype=np.float64))[0])
    cutoff = peak_log + _REL_CUTOFF_LOG

    values: list[float] = []
    x = start
    while x <= hi:
        top = min(hi, x + _CHUNK - 1)
        lp = logpmf(np.arange(x, top + 1, dtype=np.float64))
        values.extend(np.exp(lp).tolist())
        if lp[-1] < cutoff:
            break
        x = top + 1
    x = start - 1
    while x >= lo:
        bottom = max(lo, x - _CHUNK + 1)
        lp = logpmf(np.arange(bottom, x + 1, dtype=np.float64))
        values.extend(np.exp(lp).tolist())
        if lp[0] < cutoff:
            break
        x = bottom - 1
    return math.fsum(values)
