"""Inverse planning queries on the confidence bounds.

Two inversions: the least sample size reaching a target confidence at a
given q, and the best (smallest) q guaranteed at a target confidence for
a given sample size. Both bisect on the monotone bound; targets that
no admissible k or q can reach come back as a first-class Unreachable
result, not an error (the with-replacement under-estimation term has the
floor e^(-pk), so confidence saturates below 1 for finite samples).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Union

from . import with_replacement
from .confidence import _confidence_at, _method_kinds
from .model import SamplingMethod, _check_point
from .terms import _SCALAR, InequalityKind

DEFAULT_K_MAX = 10**9
DEFAULT_Q_MAX = 10**6


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
    """Least k in [1, cap] with confidence(p, k, q) >= target, where cap is
    k_max, and at most n - 1 without replacement.

    One integer bisection, each step decided by the scalar bound, over a
    bracket whose top is evaluated first: the paper's rule of thumb with
    replacement (`_bracket`); without, [0, top] where the Hoeffding-Serfling
    bound alone reaches the target at top (`_serfling_top`), else [0, cap],
    as the Hoeffding-Serfling bound grows with k and the Bernstein-Serfling
    bound did in an exhaustive scan. Below the target at a top short of cap
    (the bound's rounding), the search goes on over [top, cap]; below it at
    cap, k is Unreachable.
    """
    _validate_target(target_confidence)
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    _check_point(method, None if p == 0.0 else p, 1, q, n)  # k = 1, the least, must be admissible
    wr = method is SamplingMethod.WITH_REPLACEMENT
    kinds = _method_kinds(method, inequalities)
    conf = _confidence_at(method, p, n, kinds)
    cap = k_max if wr else min(k_max, n - 1)

    lo, hi = (_bracket(p, q, target_confidence, kinds, cap) if wr
              else (0, min(cap, _serfling_top(p, q, target_confidence, kinds, n))))
    if (value := conf(hi, q)) < target_confidence and hi < cap:
        lo, hi = hi, cap
        value = conf(hi, q)
    if value < target_confidence:
        return Unreachable(target_confidence, float(cap), value)
    while hi - lo > 1:  # the least k is in (lo, hi]
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if conf(mid, q) >= target_confidence else (mid, hi)
    return hi


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
    confidence(p, k, q) >= target, by bisection on the q-monotone bound."""
    _validate_target(target_confidence)
    _check_point(method, None, k, q_max, n)
    conf = _confidence_at(method, p, n, _method_kinds(method, inequalities))

    at_cap = conf(k, q_max)
    if at_cap < target_confidence:
        return Unreachable(target_confidence, q_max, at_cap)

    # conf(1) is 0 at every point (each term is the vacuous 1 at q = 1),
    # so no target in (0, 1) is met at q = 1 and lo starts there
    lo, hi = 1.0, q_max
    while hi - lo > 1e-9 * hi:
        mid = math.sqrt(lo * hi)
        if not lo < mid < hi:
            break
        if conf(k, mid) >= target_confidence:
            hi = mid
        else:
            lo = mid
    return hi
