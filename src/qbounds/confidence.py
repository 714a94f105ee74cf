"""Single entry point for bound evaluation at one point, across sampling
methods, and the solvers' step.

Handles the degenerate empty-predicate case: at p = 0 every exponential
term is vacuous, so the reported confidence is the (trivially valid)
lower bound 0, flagged as degenerate.

Everything here is scalar and imports no numpy; a whole grid of points
is evaluated in one numpy pass by `reports.evaluate_grid`, which costs
several times more for a single point.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from . import with_replacement, without_replacement
from .model import SamplingMethod, _check_member, _check_point
from .terms import (
    _SCALAR,
    DEFAULT_WOR_KINDS,
    DEFAULT_WR_KINDS,
    WITH_REPLACEMENT_KINDS,
    BoundResult,
    InequalityKind,
    _method_kinds,
    _minima,
    degenerate_result,
)
from .with_replacement import confidence_wr
from .without_replacement import confidence_wor


def default_inequalities(
    method: SamplingMethod, with_hoeffding: bool = False
) -> frozenset[InequalityKind]:
    if method is SamplingMethod.WITH_REPLACEMENT:
        return WITH_REPLACEMENT_KINDS if with_hoeffding else DEFAULT_WR_KINDS
    _check_member(method, SamplingMethod, "sampling method")
    return DEFAULT_WOR_KINDS


def evaluate_confidence(
    method: SamplingMethod,
    p: float,
    k: int,
    q: float,
    n: Optional[int] = None,
    inequalities: Optional[Iterable[InequalityKind]] = None,
) -> BoundResult:
    """Lower bound on P(Q-error <= q) for the given sampling method.

    The method, the point and the inequality set are checked once: here
    when p = 0, by `confidence_wr` or `confidence_wor` otherwise, the
    method here before the latter.
    """
    if p == 0.0:
        _method_kinds(method, inequalities)
        _check_point(method, None, k, q, n)
        return degenerate_result()
    if method is SamplingMethod.WITH_REPLACEMENT:
        return confidence_wr(p, k, q, inequalities)
    _check_member(method, SamplingMethod, "sampling method")
    return confidence_wor(p, k, n, q, inequalities)


def _confidence_at(
    method: SamplingMethod, p: float, n: Optional[int], kinds: frozenset[InequalityKind]
) -> Callable[[int, float], float]:
    """`conf(k, q)`, equal to `evaluate_confidence(method, p, k, q, n,
    kinds).confidence` bit for bit, for a set `kinds` that `_method_kinds`
    has checked: the solvers' bisection step. It reads the same term
    kernel and per-side minima, builds no BoundTerm or BoundResult and
    checks nothing: each solver checks its inputs once, then steps only to
    points `_check_point` admits. At p = 0 each term is 1 or NaN, so 0."""
    wr = method is SamplingMethod.WITH_REPLACEMENT
    order = with_replacement._ORDER if wr else without_replacement._ORDER

    def conf(k: int, q: float) -> float:
        values = (with_replacement._terms(_SCALAR, p, k, q) if wr else without_replacement._terms(
            _SCALAR, p, k, q, *without_replacement._coefficients(k, n)))
        omega, psi, _, _ = _minima(order, values, kinds)
        return max(0.0, 1.0 - omega - psi)

    return conf


def _per_q(
    method: SamplingMethod, p: float, k: int, qs: Iterable[float], n: Optional[int] = None
) -> list[tuple[float, float, float, bool]]:
    """(confidence, omega, psi, degenerate) of `evaluate_confidence(method,
    p, k, q, n)` at each q of `qs`, bit for bit, from one set-up of the term
    kernel: the method's default kinds, and without replacement the
    coefficients, are taken once. Like `_confidence_at` it builds no
    BoundResult and checks nothing: the caller checks the method, k, n and
    every q first, and p, when it is not 0, must be in (0, 1]."""
    if p == 0.0:
        result = degenerate_result()
        return [(result.confidence, result.omega, result.psi, result.degenerate) for _ in qs]
    kinds = default_inequalities(method)
    if method is SamplingMethod.WITH_REPLACEMENT:
        order, kernel, coefficients = with_replacement._ORDER, with_replacement._terms, ()
    else:
        order, kernel = without_replacement._ORDER, without_replacement._terms
        coefficients = without_replacement._coefficients(k, n)
    per_q = []
    for q in qs:
        omega, psi, _, _ = _minima(order, kernel(_SCALAR, p, k, q, *coefficients), kinds)
        per_q.append((max(0.0, 1.0 - omega - psi), omega, psi, False))
    return per_q
