"""Exact success probability by direct tail summation.

Ground truth for the inequality bounds: P(Q-error <= q) under the
binomial (with replacement) or hypergeometric (without replacement)
hit-count distribution. The estimator convention lives here and only
here: a sample with hit count x estimates n * x / k.

Each answer takes one pass over one window of hit counts around the
mean, sized from the standard deviation and doubled only while an edge
still carries more than 1e-30 of the peak. The log pmf on the window
comes from the ratio of successive masses, an exact-integer fraction
rounded once per factor, summed outward from the mode and normalized
over the window, so no term of size n ln n ever cancels (Loader 2000,
"Fast and Accurate Computation of Binomial Probabilities"). The inside
sum is read from that array; when it holds more than half the mass the
two excluded tails are read from the same array instead, so results
near 1 keep absolute accuracy comparable to the tail mass itself. The
integer factors are int64, so n and k must stay below 2**63. A point
whose admissible range holds none, or all, of the hit counts the draw can
give is 0 or 1 without a window; a window wider than MAX_WINDOW hit
counts is refused rather than allocated.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .model import (_WOR, _WR, PopulationSpec, SampleDesign, SamplingMethod, _check_k_below_n,
                    _check_point, _python_int, q_error)

_REL_CUTOFF = 1e-30
# The first window spans the mean +- (_SPREAD standard deviations + _MARGIN).
_SPREAD = 12.0
_MARGIN = 40
MAX_WINDOW = 1 << 21  # hit counts in one window; ~64 MB of numpy arrays at the limit


def _is_integer(value) -> bool:
    """Python and numpy integers; not bool, and no other type (2.5, 1e4, "7")."""
    if isinstance(value, (bool, np.bool_)):
        return False
    try:
        operator.index(value)
    except TypeError:
        return False
    return True


def _check_integers(purpose: str, *named: tuple[str, object]) -> list[int]:
    """The rule for the counts a hit-count distribution or a draw takes:
    each (name, value) must hold an integer; a fractional size means
    nothing there. The values come back as Python ints."""
    for name, value in named:
        if not _is_integer(value):
            raise ValueError(f"{name} must be an integer {purpose}, got {value}")
    return [operator.index(value) for _, value in named]


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
    n, c, k = _check_integers("for exact sums", ("population size", n), ("cardinality", c),
                              ("sample size", k))
    PopulationSpec(n, c)  # its rule: n >= 1 and 0 <= c <= n
    _check_point(None, None, k, q)
    return _admissible_range(n, c, k, q)


def _admissible_range(n: int, c: int, k: int, q: float) -> AdmissibleRange:
    """`admissible_range` of inputs that its checks admit."""
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
    return AdmissibleRange(lo, hi)


def _support(wr: bool, n: int, c: int, k: int) -> tuple[int, int]:
    """The least and the greatest hit count a draw can give: [0, k] with
    replacement, [max(0, k - (n - C)), min(k, C)] without, and only 0 or k
    when C is 0 or n."""
    if wr:
        return (0 if c < n else k), (k if c > 0 else 0)
    return max(0, k - (n - c)), min(k, c)


def _decided(rng: AdmissibleRange, lo: int, hi: int) -> int | None:
    """The share of draws that succeed, 0 or 1, when `rng` holds none or
    all of the support [lo, hi]; None when it holds some of it."""
    if max(rng.lo, lo) > min(rng.hi, hi):
        return 0
    return 1 if rng.lo <= lo and hi <= rng.hi else None


def binom_logpmf(xs: np.ndarray, n: int, c: int, k: int) -> np.ndarray:
    """log P(Binomial(k, c/n) = x | x in xs) on a contiguous run xs of hit
    counts inside [0, k], for 0 < c < n and k < 2**63. Over the support
    this is the log pmf itself."""
    x = np.asarray(xs, dtype=np.int64)[:-1]
    ratio = (k - x).astype(np.float64)
    ratio /= x + 1
    ratio *= c / (n - c)
    return _normalized(ratio)


def hypergeom_logpmf(xs: np.ndarray, n: int, c: int, k: int) -> np.ndarray:
    """log P(Hypergeometric(n, c, k) = x | x in xs) on a contiguous run xs
    of hit counts inside [max(0, k-(n-c)), min(k, c)], for n < 2**63. Over
    the whole support this is the log pmf itself."""
    x = np.asarray(xs, dtype=np.int64)[:-1]
    ratio = (c - x).astype(np.float64)
    ratio *= k - x
    ratio /= np.multiply(x + 1, (n - c - k + 1) + x, dtype=np.float64)
    return _normalized(ratio)


def _normalized(ratio: np.ndarray) -> np.ndarray:
    """Log masses of a run of hit counts from the ratios pmf(x+1)/pmf(x)
    of its neighbours (overwritten), normalized over the run.

    Each ratio is a fraction of integers, each rounded once, and rounding
    is monotone, so the ratios still fall along the run: the mode is the
    first point past the ratios above 1, and its log mass 0 is the
    maximum. Partial sums start there, so they stay small where the mass
    is.
    """
    log_ratio = np.log(ratio, out=ratio)
    mode = int(np.count_nonzero(log_ratio > 0.0))
    out = np.empty(log_ratio.size + 1)
    out[mode] = 0.0
    np.cumsum(log_ratio[mode:], out=out[mode + 1:])
    np.negative(log_ratio[:mode], out=out[:mode])
    np.cumsum(out[:mode][::-1], out=out[:mode][::-1])
    out -= math.log(np.exp(out).sum())
    return out


def exact_confidence(pop: PopulationSpec, design: SampleDesign, q: float) -> float:
    """P(Q-error <= q) summed exactly over the hit counts; n, C and k are integers below 2**63.

    Its population checked n and C, its design the method and k; here q,
    then k < n and n - k >= 1 without replacement, the cap and the integers,
    with n, C and k as Python ints."""
    n, c, k = _python_int(pop.n), _python_int(pop.cardinality), _python_int(design.k)
    _check_point(None, None, None, q)
    if design.method is _WOR:
        _check_k_below_n(k, n)
    if max(n, k) >= 2**63:
        raise ValueError(f"exact tail sums need n and k below 2**63, got n={n}, k={k}")
    _check_integers("for exact sums", ("population size", n), ("cardinality", c),
                    ("sample size", k))
    return _exact_confidence(design.method, n, c, k, q)


def _exact_confidence(method: SamplingMethod, n: int, c: int, k: int, q: float) -> float:
    """`exact_confidence` of inputs that its checks admit."""
    wr = method is _WR
    rng = _admissible_range(n, c, k, q)
    support_lo, support_hi = _support(wr, n, c, k)
    decided = _decided(rng, support_lo, support_hi)
    if decided is not None:
        return float(decided)

    logpmf = binom_logpmf if wr else hypergeom_logpmf
    variance = k * (c / n) * ((n - c) / n)
    if not wr:
        variance *= (n - k) / (n - 1)

    mean = k * c // n
    half = math.ceil(_SPREAD * math.sqrt(variance)) + _MARGIN
    while True:
        a, b = max(support_lo, mean - half), min(support_hi, mean + half)
        if b - a >= MAX_WINDOW:
            raise ValueError(
                f"exact tail sum needs {b - a + 1} hit counts, more than {MAX_WINDOW}"
            )
        pmf = np.exp(logpmf(np.arange(a, b + 1, dtype=np.int64), n, c, k))
        floor = _REL_CUTOFF * pmf.max()
        if (a == support_lo or pmf[0] < floor) and (b == support_hi or pmf[-1] < floor):
            break
        half *= 2

    # positions of the admissible range in the window, clipped to it
    start = min(max(rng.lo - a, 0), pmf.size)
    stop = min(max(rng.hi + 1 - a, 0), pmf.size)
    inside = float(pmf[start:stop].sum())
    if inside <= 0.5:
        return min(1.0, inside)
    # Near 1, sum the two excluded tails instead: their relative error does
    # not get amplified by the cancellation in 1 - (big sum).
    outside = float(pmf[:start].sum()) + float(pmf[stop:].sum())
    return min(1.0, max(0.0, 1.0 - outside))
