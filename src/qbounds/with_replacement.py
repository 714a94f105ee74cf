"""Tail bounds for uniform sampling with replacement.

The hit count of k independent draws is Binomial(k, p), so the classic
Chernoff, Bernstein and Hoeffding inequalities apply directly. None of
these terms depend on the table size n. All terms are assembled in log
space (q**q overflows double precision near q = 143) and clamped to [0, 1].
"""

from __future__ import annotations

import math
from typing import Iterable, Optional

import numpy as np

from .model import population_variance
from .terms import (
    DEFAULT_WR_KINDS,
    WITH_REPLACEMENT_KINDS,
    BoundResult,
    BoundTerm,
    InequalityKind,
    Side,
    combine_terms,
)


def _validate(p: float, k: int, q: float) -> None:
    if not 0.0 < p <= 1.0:
        raise ValueError(f"selectivity must be in (0, 1], got {p}")
    if k < 1:
        raise ValueError(f"sample size must be >= 1, got {k}")
    if q < 1.0:
        raise ValueError(f"q must be >= 1, got {q}")


def chernoff_term(p: float, k: int, q: float, side: Side) -> float:
    """Chernoff tail term.

    Over:  (e^(q-1) / q^q)^(pk)
    Under: (e^(1/q - 1) * q^(1/q))^(pk)
    """
    _validate(p, k, q)
    lnq = math.log(q)
    if side is Side.OVER:
        exponent = p * k * ((q - 1.0) - q * lnq)
    else:
        exponent = p * k * ((1.0 / q - 1.0) + lnq / q)
    return min(1.0, math.exp(exponent))


def bernstein_term(p: float, k: int, q: float, side: Side) -> float:
    """Bernstein tail term exp(-k eps^2 / (2 sigma^2 + 2 eps / 3)).

    eps is p(q-1) for over-estimation and p(1 - 1/q) for under-estimation;
    q = 1 gives eps = 0 and the vacuous value 1.
    """
    _validate(p, k, q)
    eps = p * (q - 1.0) if side is Side.OVER else p * (1.0 - 1.0 / q)
    if eps <= 0.0:
        return 1.0
    var = population_variance(p)
    return min(1.0, math.exp(-k * eps * eps / (2.0 * var + 2.0 * eps / 3.0)))


def hoeffding_term(p: float, k: int, q: float, side: Side) -> BoundTerm:
    """Hoeffding tail term; the under side exists only when pq > 1.

    Over:  exp(-2 p^2 (q-1)^2 k)
    Under: exp(-2 k (pq-1)^2 / q^2), derived from the loosened event
           "hit count <= k/q", hence the pq > 1 applicability gate.
    """
    _validate(p, k, q)
    if side is Side.OVER:
        value = min(1.0, math.exp(-2.0 * p * p * (q - 1.0) ** 2 * k))
        return BoundTerm(InequalityKind.HOEFFDING, Side.OVER, value)
    if p * q <= 1.0:
        return BoundTerm(
            InequalityKind.HOEFFDING, Side.UNDER, math.nan, applicable=False
        )
    value = min(1.0, math.exp(-2.0 * k * (p * q - 1.0) ** 2 / (q * q)))
    return BoundTerm(InequalityKind.HOEFFDING, Side.UNDER, value)


def confidence_wr(
    p: float,
    k: int,
    q: float,
    inequalities: Optional[Iterable[InequalityKind]] = None,
) -> BoundResult:
    """Combined lower bound on P(Q-error <= q) for sampling with replacement.

    The default inequality set is {Chernoff, Bernstein}; adding Hoeffding
    can only tighten the result.
    """
    kinds = DEFAULT_WR_KINDS if inequalities is None else frozenset(inequalities)
    if not kinds:
        raise ValueError("inequality set must not be empty")
    invalid = kinds - WITH_REPLACEMENT_KINDS
    if invalid:
        names = ", ".join(sorted(kind.value for kind in invalid))
        raise ValueError(f"not valid for sampling with replacement: {names}")
    _validate(p, k, q)

    terms: list[BoundTerm] = []
    if InequalityKind.CHERNOFF in kinds:
        for side in Side:
            terms.append(
                BoundTerm(InequalityKind.CHERNOFF, side, chernoff_term(p, k, q, side))
            )
    if InequalityKind.BERNSTEIN in kinds:
        for side in Side:
            terms.append(
                BoundTerm(InequalityKind.BERNSTEIN, side, bernstein_term(p, k, q, side))
            )
    if InequalityKind.HOEFFDING in kinds:
        for side in Side:
            terms.append(hoeffding_term(p, k, q, side))
    return combine_terms(terms)


def grid_terms(p: np.ndarray, k: np.ndarray, q: np.ndarray) -> dict:
    """Every with-replacement term over 1-d arrays of in-domain points
    (0 < p <= 1, k >= 1, q >= 1), keyed by (InequalityKind, Side), with
    the scalar terms' arithmetic in the same order. The Hoeffding under
    term is NaN where pq <= 1."""
    lnq = np.log(q)
    var = p * (1.0 - p)
    exponents = {
        (InequalityKind.CHERNOFF, Side.OVER): p * k * ((q - 1.0) - q * lnq),
        (InequalityKind.CHERNOFF, Side.UNDER): p * k * ((1.0 / q - 1.0) + lnq / q),
        (InequalityKind.HOEFFDING, Side.OVER): -2.0 * p * p * (q - 1.0) ** 2 * k,
        (InequalityKind.HOEFFDING, Side.UNDER): -2.0 * k * (p * q - 1.0) ** 2 / (q * q),
    }
    for side in Side:
        eps = p * (q - 1.0) if side is Side.OVER else p * (1.0 - 1.0 / q)
        positive = eps > 0.0
        denom = np.where(positive, 2.0 * var + 2.0 * eps / 3.0, 1.0)
        exponents[InequalityKind.BERNSTEIN, side] = np.where(
            positive, -k * eps * eps / denom, 0.0
        )
    out = {key: np.minimum(1.0, np.exp(x)) for key, x in exponents.items()}
    hoeffding_under = (InequalityKind.HOEFFDING, Side.UNDER)
    out[hoeffding_under] = np.where(p * q > 1.0, out[hoeffding_under], np.nan)
    return out
