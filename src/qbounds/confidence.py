"""Single entry point for bound evaluation across sampling methods.

Handles the degenerate empty-predicate case: at p = 0 every exponential
term is vacuous, so the reported confidence is the (trivially valid)
lower bound 0, flagged as degenerate.

`evaluate_confidence` answers one point; `evaluate_grid` answers a whole
grid of points in one numpy pass. Each call site picks the one that fits:
a single point costs several times more through the array kernel.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

import numpy as np

from . import with_replacement, without_replacement
from .model import SamplingMethod, _check_point
from .terms import (
    _SCALAR,
    DEFAULT_WOR_KINDS,
    DEFAULT_WR_KINDS,
    WITH_REPLACEMENT_KINDS,
    WITHOUT_REPLACEMENT_KINDS,
    BoundResult,
    InequalityKind,
    Side,
    _check_kinds,
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
    return DEFAULT_WOR_KINDS


def _method_kinds(
    method: SamplingMethod, inequalities: Optional[Iterable[InequalityKind]]
) -> frozenset[InequalityKind]:
    """The chosen inequality set (the method's default for None), checked as
    `confidence_wr` and `confidence_wor` check it."""
    wr = method is SamplingMethod.WITH_REPLACEMENT
    return _check_kinds(inequalities, default_inequalities(method),
                        WITH_REPLACEMENT_KINDS if wr else WITHOUT_REPLACEMENT_KINDS,
                        method.name.lower().replace("_", " "))


def evaluate_confidence(
    method: SamplingMethod,
    p: float,
    k: int,
    q: float,
    n: Optional[int] = None,
    inequalities: Optional[Iterable[InequalityKind]] = None,
) -> BoundResult:
    """Lower bound on P(Q-error <= q) for the given sampling method.

    The point and the inequality set are checked once: here when p = 0,
    by `confidence_wr` or `confidence_wor` otherwise.
    """
    if p == 0.0:
        _method_kinds(method, inequalities)
        _check_point(method, None, k, q, n)
        return degenerate_result()
    if method is SamplingMethod.WITH_REPLACEMENT:
        return confidence_wr(p, k, q, inequalities)
    return confidence_wor(p, k, n, q, inequalities)


def _confidence_at(
    method: SamplingMethod, p: float, n: Optional[int], kinds: frozenset[InequalityKind]
) -> Callable[[int, float], float]:
    """`conf(k, q)`, equal to `evaluate_confidence(method, p, k, q, n,
    kinds).confidence` bit for bit, for a set `kinds` that `_method_kinds`
    has checked: the solvers' bisection step. It reads the same term
    kernel and per-side minima, but builds no BoundTerm or BoundResult;
    each point is still checked."""
    wr = method is SamplingMethod.WITH_REPLACEMENT
    order = with_replacement._ORDER if wr else without_replacement._ORDER

    def conf(k: int, q: float) -> float:
        if p == 0.0:
            _check_point(method, None, k, q, n)
            return 0.0
        _check_point(method, p, k, q, n)
        values = (with_replacement._terms(_SCALAR, p, k, q) if wr else without_replacement._terms(
            _SCALAR, p, k, q, *without_replacement._coefficients(k, n)))
        omega, psi, _, _ = _minima(order, values, kinds)
        return max(0.0, 1.0 - omega - psi)

    return conf


@dataclass(frozen=True)
class GridBounds:
    """The bound at every point of a grid, in the grid's broadcast shape.

    `terms` holds all ten (inequality, side) terms; a term is NaN where
    it does not apply: the other method's kinds, and the Hoeffding under
    side at pq <= 1. `omega` and `psi` are the per-side minima over the
    chosen inequalities (1 where none applies), and `confidence` is
    max(0, 1 - omega - psi), as `combine_terms` forms them for one point.
    """

    terms: dict[tuple[InequalityKind, Side], np.ndarray]
    omega: np.ndarray
    psi: np.ndarray
    confidence: np.ndarray


def evaluate_grid(p, k, n, q, wor, inequalities: Iterable[InequalityKind]) -> GridBounds:
    """Every term and the combined bound over broadcast arrays of points.

    `wor` marks the points sampled without replacement; `n` only matters
    there. Each point must lie in the domain `model._check_point` states
    for one point: 0 < p <= 1, k >= 1, finite q >= 1, and k < n without
    replacement. p = 0 is rejected too: a caller gives those points their
    degenerate result itself, as `evaluate_confidence` does. The rule is
    checked on `k` and `n` as given, and a fractional `k` is used as it is,
    as on the scalar path. `inequalities`
    is the chosen set for both methods at once: a kind of the other method
    never applies to a point. Terms come from the scalar path's kernels,
    but numpy's exp and log may differ from libm's by an ulp.
    """
    chosen = frozenset(inequalities)
    p, q = np.asarray(p, dtype=np.float64), np.asarray(q, dtype=np.float64)
    k, n = _sizes(k), _sizes(n)
    p, k, n, q, wor = np.broadcast_arrays(p, k, n, q, np.asarray(wor, dtype=bool))
    inside = (p > 0.0) & (p <= 1.0) & (k >= 1) & (q >= 1.0) & (q < np.inf)
    inside &= ~wor | (k < n)
    for i in np.flatnonzero(~inside)[:1]:  # the rule's error for the first point outside
        method = SamplingMethod.WITHOUT_REPLACEMENT if wor.flat[i] else SamplingMethod.WITH_REPLACEMENT
        _check_point(method, p.flat[i], k.flat[i], q.flat[i], n.flat[i])
        raise AssertionError(f"the array rule and model._check_point disagree at {i}")

    terms = {(kind, side): np.full(p.shape, np.nan) for kind in InequalityKind for side in Side}
    wr = ~wor
    rho, zeta = without_replacement._coefficient_arrays(k[wor], n[wor])
    # Past q ~ 1e154 products overflow to inf; the kernels are formed so
    # that this only drives exponents to -inf, whose terms are 0.
    with np.errstate(over="ignore"):
        for rows, order, values in (
            (wr, with_replacement._ORDER, with_replacement._terms(np, p[wr], k[wr], q[wr])),
            (wor, without_replacement._ORDER,
             without_replacement._terms(np, p[wor], k[wor], q[wor], rho, zeta)),
        ):
            for key, value in zip(itertools.product(order, Side), values):
                terms[key][rows] = value
    omega, psi = (
        _side_min([terms[kind, side] for kind in chosen], p.shape) for side in Side
    )
    confidence = np.maximum(0.0, 1.0 - omega - psi)
    return GridBounds(terms=terms, omega=omega, psi=psi, confidence=confidence)


def _sizes(values) -> np.ndarray:
    """Sample or table sizes as given: float64 where any is a float, so a
    fractional or NaN value is neither truncated nor refused by the cast,
    else exact int64."""
    if np.asarray(values).dtype.kind == "f":
        return np.asarray(values, dtype=np.float64)
    try:
        return np.asarray(values, dtype=np.int64)
    except OverflowError:
        raise ValueError("k and n must be below 2**63") from None


def _side_min(values: list[np.ndarray], shape: tuple) -> np.ndarray:
    """NaN-skipping minimum of the terms; 1 where none applies."""
    best = np.full(shape, np.nan)
    for value in values:
        best = np.fmin(best, value)
    return np.where(np.isnan(best), 1.0, best)
