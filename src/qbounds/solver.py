"""Inverse planning queries on the confidence bounds.

Two inversions: the least sample size reaching a target confidence at a
given q, and the best (smallest) q guaranteed at a target confidence for
a given sample size. Both exploit monotonicity of the bound; targets that
no admissible k or q can reach come back as a first-class Unreachable
result, not an error (the with-replacement under-estimation term has the
floor e^(-pk), so confidence saturates below 1 for finite samples).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Union

from .confidence import evaluate_confidence
from .model import SamplingMethod, _check_point
from .terms import InequalityKind

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
    """Least k in [1, k_max] with confidence(p, k, q) >= target.

    Geometric doubling finds a bracket, then integer bisection pins the
    answer. Bisection assumes confidence grows with k; that holds for all
    with-replacement terms and the Hoeffding-Serfling term, but the
    Bernstein-Serfling zeta(k) dependence lacks a clean proof, so the
    doubling probes are checked for order violations and the solver falls
    back to a linear forward scan when one shows up.
    """
    _validate_target(target_confidence)
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    _check_point(method, None, 1, q, n)  # k = 1, the least, must be admissible
    cap = k_max if method is SamplingMethod.WITH_REPLACEMENT else min(k_max, n - 1)

    def conf(k: int) -> float:
        return evaluate_confidence(method, p, k, q, n=n, inequalities=inequalities).confidence

    probe_ks: list[int] = []
    probe_values: list[float] = []
    k = 1
    while True:
        k_eff = min(k, cap)
        probe_ks.append(k_eff)
        value = conf(k_eff)
        probe_values.append(value)
        if value >= target_confidence:
            break
        if k_eff == cap:
            return Unreachable(target_confidence, float(cap), value)
        k *= 2

    if len(probe_ks) == 1:
        return probe_ks[0]
    lo, hi = probe_ks[-2], probe_ks[-1]

    monotone = all(
        probe_values[i] <= probe_values[i + 1] + 1e-15
        for i in range(len(probe_values) - 1)
    )
    if not monotone:
        k = lo + 1
        while conf(k) < target_confidence:
            k += 1
        return k

    while hi - lo > 1:
        mid = (lo + hi) // 2
        if conf(mid) >= target_confidence:
            hi = mid
        else:
            lo = mid
    return hi


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

    def conf(q: float) -> float:
        return evaluate_confidence(method, p, k, q, n=n, inequalities=inequalities).confidence

    at_cap = conf(q_max)
    if at_cap < target_confidence:
        return Unreachable(target_confidence, q_max, at_cap)

    # conf(1) is 0 at every point (each term is the vacuous 1 at q = 1),
    # so no target in (0, 1) is met at q = 1 and lo starts there
    lo, hi = 1.0, q_max
    while hi - lo > 1e-9 * hi:
        mid = math.sqrt(lo * hi)
        if not lo < mid < hi:
            break
        if conf(mid) >= target_confidence:
            hi = mid
        else:
            lo = mid
    return hi
