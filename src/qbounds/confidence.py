"""Single entry point for bound evaluation across sampling methods.

Handles the degenerate empty-predicate case: at p = 0 every exponential
term is vacuous, so the reported confidence is the (trivially valid)
lower bound 0, flagged as degenerate.

`evaluate_confidence` answers one point; `evaluate_grid` answers a whole
grid of points in one numpy pass. Each call site picks the one that fits:
a single point costs several times more through the array kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from . import with_replacement, without_replacement
from .model import SamplingMethod
from .terms import (
    DEFAULT_WOR_KINDS,
    DEFAULT_WR_KINDS,
    WITH_REPLACEMENT_KINDS,
    BoundResult,
    InequalityKind,
    Side,
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


def evaluate_confidence(
    method: SamplingMethod,
    p: float,
    k: int,
    q: float,
    n: Optional[int] = None,
    inequalities: Optional[Iterable[InequalityKind]] = None,
) -> BoundResult:
    """Lower bound on P(Q-error <= q) for the given sampling method."""
    if p == 0.0:
        return degenerate_result()
    if method is SamplingMethod.WITH_REPLACEMENT:
        return confidence_wr(p, k, q, inequalities)
    if n is None:
        raise ValueError("sampling without replacement needs the table size n")
    if k >= n:
        raise ValueError(f"sampling without replacement needs k < n, got k={k}, n={n}")
    return confidence_wor(p, k, n, q, inequalities)


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
    there. Each point must lie in the scalar path's domain: 0 < p <= 1,
    k >= 1, finite q >= 1, and k < n without replacement. `inequalities`
    is the chosen set for both methods at once: a kind of the other
    method never applies to a point. Terms are the scalar formulas in the
    same order, but numpy's exp and log may differ from libm's by an ulp.
    """
    chosen = frozenset(inequalities)
    p, q = np.asarray(p, dtype=np.float64), np.asarray(q, dtype=np.float64)
    try:
        k, n = np.asarray(k, dtype=np.int64), np.asarray(n, dtype=np.int64)
    except OverflowError:
        raise ValueError("k and n must be below 2**63") from None
    p, k, n, q, wor = np.broadcast_arrays(p, k, n, q, np.asarray(wor, dtype=bool))
    _reject(~((p > 0.0) & (p <= 1.0)), p, "selectivity must be in (0, 1]")
    _reject(k < 1, k, "sample size must be >= 1")
    _reject(~(np.isfinite(q) & (q >= 1.0)), q, "q must be finite and >= 1")
    too_big = wor & (k >= n)
    if too_big.any():
        raise ValueError(
            "sampling without replacement needs k < n, "
            f"got k={k[too_big][0]}, n={n[too_big][0]}"
        )

    terms = {(kind, side): np.full(p.shape, np.nan) for kind in InequalityKind for side in Side}
    wr = ~wor
    if wr.any():
        for key, values in with_replacement.grid_terms(p[wr], k[wr], q[wr]).items():
            terms[key][wr] = values
    if wor.any():
        wor_terms = without_replacement.grid_terms(p[wor], k[wor], n[wor], q[wor])
        for key, values in wor_terms.items():
            terms[key][wor] = values
    omega, psi = (
        _side_min([terms[kind, side] for kind in chosen], p.shape) for side in Side
    )
    confidence = np.maximum(0.0, 1.0 - omega - psi)
    return GridBounds(terms=terms, omega=omega, psi=psi, confidence=confidence)


def _reject(bad: np.ndarray, values: np.ndarray, message: str) -> None:
    if bad.any():
        raise ValueError(f"{message}, got {values[bad][0]}")


def _side_min(values: list[np.ndarray], shape: tuple) -> np.ndarray:
    """NaN-skipping minimum of the terms; 1 where none applies."""
    best = np.full(shape, np.nan)
    for value in values:
        best = np.fmin(best, value)
    return np.where(np.isnan(best), 1.0, best)
