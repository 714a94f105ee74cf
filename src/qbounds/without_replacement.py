"""Tail bounds for uniform sampling without replacement.

The hit count is Hypergeometric(n, C, k); the Hoeffding-Serfling and
Bernstein-Serfling inequalities carry finite-population coefficients rho
and zeta, defined piecewise around k = n/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .model import population_variance
from .terms import (
    DEFAULT_WOR_KINDS,
    WITHOUT_REPLACEMENT_KINDS,
    BoundResult,
    BoundTerm,
    InequalityKind,
    Side,
    combine_terms,
)


@dataclass(frozen=True)
class SerflingCoefficients:
    rho: float
    zeta: float


def serfling_coefficients(k: int, n: int) -> SerflingCoefficients:
    """Finite-population coefficients, branch chosen by the exact integer
    comparison 2k <= n (ties take the first branch)."""
    if n < 2:
        raise ValueError(f"population must have at least 2 rows, got n={n}")
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    rho, zeta = _coefficients(k, n)
    return SerflingCoefficients(rho=rho, zeta=zeta)


def _coefficients(k: int, n: int) -> tuple[float, float]:
    """(rho, zeta) for 1 <= k < n, in exact integer arithmetic up to the
    final divisions."""
    if 2 * k <= n:
        rho = 1.0 - (k - 1) / n
        zeta = 4.0 / 3.0 + math.sqrt(k * (k - 1) / (n * (n - k + 1)))
    else:
        rho = (1.0 - k / n) * (1.0 + 1.0 / k)
        zeta = 4.0 / 3.0 + math.sqrt((n - k - 1) * (n - k) / ((k + 1) * n))
    return rho, zeta


def _validate(p: float, q: float) -> None:
    if not 0.0 < p <= 1.0:
        raise ValueError(f"selectivity must be in (0, 1], got {p}")
    if q < 1.0:
        raise ValueError(f"q must be >= 1, got {q}")


def _epsilon(p: float, q: float, side: Side) -> float:
    return p * (q - 1.0) if side is Side.OVER else p * (1.0 - 1.0 / q)


def hoeffding_serfling_term(p: float, k: int, n: int, q: float, side: Side) -> float:
    """exp(-2 k eps^2 / rho), clamped to [0, 1]."""
    _validate(p, q)
    return _hoeffding_serfling(p, k, q, side, serfling_coefficients(k, n).rho)


def _hoeffding_serfling(p: float, k: int, q: float, side: Side, rho: float) -> float:
    eps = _epsilon(p, q, side)
    return min(1.0, math.exp(-2.0 * k * eps * eps / rho))


def bernstein_serfling_term(p: float, k: int, n: int, q: float, side: Side) -> float:
    """min(1, 2 exp(-(k / zeta^2) * inner)) with
    inner = -sqrt(2 zeta rho sigma^2 eps + rho^2 sigma^4) + eps zeta + sigma^2 rho.

    inner is evaluated through its rationalized equivalent
    (eps zeta)^2 / (eps zeta + sigma^2 rho + sqrt(...)), which avoids the
    cancellation between the square root and the linear part when eps is
    tiny. The rationalization also shows inner >= 0, so the exponential
    stays a valid probability bound before the 2x multiplier.
    """
    _validate(p, q)
    coeffs = serfling_coefficients(k, n)
    return _bernstein_serfling(p, k, q, side, coeffs.rho, coeffs.zeta)


def _bernstein_serfling(
    p: float, k: int, q: float, side: Side, rho: float, zeta: float
) -> float:
    var = population_variance(p)
    eps = _epsilon(p, q, side)
    root = math.sqrt(2.0 * zeta * rho * var * eps + (rho * var) ** 2)
    denom = eps * zeta + var * rho + root
    if denom == 0.0:
        inner = 0.0
    else:
        inner = (eps * zeta) ** 2 / denom
    return min(1.0, 2.0 * math.exp(-(k / (zeta * zeta)) * inner))


def confidence_wor(
    p: float,
    k: int,
    n: int,
    q: float,
    inequalities: Optional[Iterable[InequalityKind]] = None,
) -> BoundResult:
    """Combined lower bound on P(Q-error <= q) for sampling without
    replacement; the default set uses both Serfling-type inequalities."""
    kinds = DEFAULT_WOR_KINDS if inequalities is None else frozenset(inequalities)
    if not kinds:
        raise ValueError("inequality set must not be empty")
    invalid = kinds - WITHOUT_REPLACEMENT_KINDS
    if invalid:
        names = ", ".join(sorted(kind.value for kind in invalid))
        raise ValueError(f"not valid for sampling without replacement: {names}")
    _validate(p, q)
    coeffs = serfling_coefficients(k, n)

    terms: list[BoundTerm] = []
    if InequalityKind.HOEFFDING_SERFLING in kinds:
        for side in Side:
            terms.append(
                BoundTerm(
                    InequalityKind.HOEFFDING_SERFLING,
                    side,
                    _hoeffding_serfling(p, k, q, side, coeffs.rho),
                )
            )
    if InequalityKind.BERNSTEIN_SERFLING in kinds:
        for side in Side:
            terms.append(
                BoundTerm(
                    InequalityKind.BERNSTEIN_SERFLING,
                    side,
                    _bernstein_serfling(p, k, q, side, coeffs.rho, coeffs.zeta),
                )
            )
    return combine_terms(terms)


def grid_terms(p: np.ndarray, k: np.ndarray, n: np.ndarray, q: np.ndarray) -> dict:
    """Every Serfling-type term over 1-d arrays of in-domain points
    (0 < p <= 1, 1 <= k < n, q >= 1), keyed by (InequalityKind, Side).

    The arithmetic is the scalar terms' own, in the same order; rho and
    zeta come from the scalar helper once per distinct (k, n) pair, which
    a grid has few of, so they are bit-identical to the scalar path.
    """
    pairs, inverse = np.unique(np.stack([k, n], axis=1), axis=0, return_inverse=True)
    table = np.array([_coefficients(a, b) for a, b in pairs.tolist()]).reshape(-1, 2)
    rho, zeta = table[inverse.reshape(-1)].T
    var = p * (1.0 - p)
    out = {}
    for side in Side:
        eps = p * (q - 1.0) if side is Side.OVER else p * (1.0 - 1.0 / q)
        out[InequalityKind.HOEFFDING_SERFLING, side] = np.minimum(
            1.0, np.exp(-2.0 * k * eps * eps / rho)
        )
        root = np.sqrt(2.0 * zeta * rho * var * eps + (rho * var) ** 2)
        denom = eps * zeta + var * rho + root
        nonzero = denom != 0.0
        inner = np.where(nonzero, (eps * zeta) ** 2 / np.where(nonzero, denom, 1.0), 0.0)
        out[InequalityKind.BERNSTEIN_SERFLING, side] = np.minimum(
            1.0, 2.0 * np.exp(-(k / (zeta * zeta)) * inner)
        )
    return out
