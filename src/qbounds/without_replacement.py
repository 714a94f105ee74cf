"""Tail bounds for uniform sampling without replacement.

The hit count is Hypergeometric(n, C, k); the Hoeffding-Serfling and
Bernstein-Serfling inequalities carry finite-population coefficients rho
and zeta, defined piecewise around k = n/2.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional

from . import confidence
from .model import _WOR, _check_member, _check_point
from .terms import _SCALAR, _UNDER, BoundResult, InequalityKind, Side

# The kinds of `_terms`' output, each as its over then its under term.
_ORDER = (InequalityKind.HOEFFDING_SERFLING, InequalityKind.BERNSTEIN_SERFLING)


def serfling_coefficients(k: int, n: int) -> tuple[float, float]:
    """Finite-population coefficients (rho, zeta), branch chosen by the
    exact integer comparison 2k <= n (ties take the first branch)."""
    _check_point(_WOR, None, k, None, n)
    return _coefficients(k, n)


def _coefficients(k: int, n: int) -> tuple[float, float]:
    """(rho, zeta) for 1 <= k < n, in exact integer arithmetic up to the
    final divisions. For 2k > n, rho = (1 - k/n)(1 + 1/k) is one integer
    ratio: in floats 1 - k/n cancels, to 0 at k = n - 1 past n = 2**53."""
    if n >= 2**511:  # products of floats would overflow: an integer is taken as an int
        k, n = (int(v) if v == int(v) else v for v in (k, n))
    if 2 * k <= n:
        rho = 1.0 - (k - 1) / n
        zeta = 4.0 / 3.0 + math.sqrt(k * (k - 1) / (n * (n - k + 1)))
    else:
        rho = (n - k) * (k + 1) / (n * k)
        zeta = 4.0 / 3.0 + math.sqrt((n - k - 1) * (n - k) / ((k + 1) * n))
    return rho, zeta


def _terms(xp, p, k, q, rho, zeta) -> list:
    """Every Serfling-type term at in-domain points, in `_ORDER`: one
    point of Python floats with `xp = _SCALAR`, 1-d arrays with numpy.
    The formulas are in the docstrings of the public term functions.

    Squares are products, which overflow to inf where `** 2` raises on a
    Python float. No finite q reaches 0/0 or inf/inf: a Bernstein-Serfling
    denominator that is 0 (then eps = 0) or inf (then (eps zeta)^2 is) is
    replaced by 1.
    """
    var = p * (1.0 - p)
    rho_var = rho * var
    hoeffding, bernstein = [], []
    for eps in (p * (q - 1.0), p * (1.0 - 1.0 / q)):
        hoeffding.append(xp.minimum(1.0, xp.exp(-2.0 * k * eps * eps / rho)))
        root = xp.sqrt(2.0 * zeta * rho * var * eps + rho_var * rho_var)
        denom = eps * zeta + var * rho + root
        fits = (denom > 0.0) & (denom < math.inf)
        inner = (eps * zeta) * (eps * zeta) / xp.where(fits, denom, 1.0)
        bernstein.append(xp.minimum(1.0, 2.0 * xp.exp(-(k / (zeta * zeta)) * inner)))
    return hoeffding + bernstein


def _term(kind: InequalityKind, p: float, k: int, n: int, q: float, side: Side) -> float:
    _check_point(_WOR, p, k, q, n)
    _check_member(side, Side, "side")
    values = _terms(_SCALAR, p, k, q, *_coefficients(k, n))
    return values[2 * _ORDER.index(kind) + (side is _UNDER)]


def hoeffding_serfling_term(p: float, k: int, n: int, q: float, side: Side) -> float:
    """exp(-2 k eps^2 / rho), clamped to [0, 1]."""
    return _term(InequalityKind.HOEFFDING_SERFLING, p, k, n, q, side)


def bernstein_serfling_term(p: float, k: int, n: int, q: float, side: Side) -> float:
    """min(1, 2 exp(-(k / zeta^2) * inner)) with
    inner = -sqrt(2 zeta rho sigma^2 eps + rho^2 sigma^4) + eps zeta + sigma^2 rho.

    inner is evaluated through its rationalized equivalent
    (eps zeta)^2 / (eps zeta + sigma^2 rho + sqrt(...)), which avoids the
    cancellation between the square root and the linear part when eps is
    tiny. The rationalization also shows inner >= 0, so the exponential
    stays a valid probability bound before the 2x multiplier.
    """
    return _term(InequalityKind.BERNSTEIN_SERFLING, p, k, n, q, side)


def confidence_wor(
    p: float,
    k: int,
    n: int,
    q: float,
    inequalities: Optional[Iterable[InequalityKind]] = None,
) -> BoundResult:
    """Combined lower bound on P(Q-error <= q) for sampling without
    replacement; the default set uses both Serfling-type inequalities."""
    return confidence._checked_bound(_WOR, p, k, q, n, inequalities, p)
