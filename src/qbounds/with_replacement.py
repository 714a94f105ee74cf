"""Tail bounds for uniform sampling with replacement.

The hit count of k independent draws is Binomial(k, p), so the classic
Chernoff, Bernstein and Hoeffding inequalities apply directly. None of
these terms depend on the table size n. All terms are assembled in log
space (q**q overflows double precision near q = 143) and clamped to [0, 1].
"""

from __future__ import annotations

import math
from typing import Iterable, Optional

from .model import SamplingMethod, _check_member, _check_point
from .terms import _SCALAR, BoundResult, InequalityKind, Side, _method_kinds, combine_terms

# The kinds of `_exponents`' output, each as its over then its under term.
_ORDER = (InequalityKind.CHERNOFF, InequalityKind.BERNSTEIN, InequalityKind.HOEFFDING)


def _exponents(xp, p, k, q) -> list:
    """The log of every with-replacement term, -k times a rate >= 0 free of
    k, at in-domain points in `_ORDER`: one point of Python floats with
    `xp = _SCALAR`, 1-d arrays with numpy. The formulas are in the public
    term functions' docstrings; Hoeffding's under one is NaN unless pq > 1.

    Squares are products, which overflow to inf where `** 2` raises on a
    Python float. No finite q reaches 0/0, 0 * inf or inf/inf, and an
    overflow only drives an exponent to -inf where the exact one is huge:
    a Bernstein denominator that is 0 (then eps = 0) or inf (then eps^2
    is) is replaced by 1; where (q-1)^2 or q^2 overflows (q > 1.3e154)
    the Hoeffding exponents are formed from p(q-1) and (pq-1)/q, and where
    q ln q does (q > 2.5e305) the Chernoff over exponent from pkq.
    """
    lnq = xp.log(q)
    var = p * (1.0 - p)
    eps_over = p * (q - 1.0)
    q_lnq = q * lnq
    exponents = [
        xp.where(
            q_lnq < math.inf,
            p * k * ((q - 1.0) - q_lnq),
            p * k * q * ((1.0 - 1.0 / q) - lnq),
        ),
        p * k * ((1.0 / q - 1.0) + lnq / q),
    ]
    for eps in (eps_over, p * (1.0 - 1.0 / q)):
        denom = 2.0 * var + 2.0 * eps / 3.0
        fits = (denom > 0.0) & (denom < math.inf)
        exponents.append(-k * eps * eps / xp.where(fits, denom, 1.0))
    square = (q - 1.0) * (q - 1.0)
    fits = square < math.inf
    exponents.append(xp.where(
        fits,
        -2.0 * p * p * xp.where(fits, square, 1.0) * k,
        -2.0 * (eps_over * eps_over) * k,
    ))
    d = p * q - 1.0
    square = q * q
    fits = square < math.inf
    exponents.append(xp.where(p * q > 1.0, xp.where(
        fits,
        -2.0 * k * (d * d) / xp.where(fits, square, 1.0),
        -2.0 * k * ((d / q) * (d / q)),
    ), math.nan))
    return exponents


def _terms(xp, p, k, q) -> list:
    """The terms min(1, e^x) of `_exponents`, NaN where x is NaN."""
    return [xp.minimum(1.0, xp.exp(x)) for x in _exponents(xp, p, k, q)]


def _term(kind: InequalityKind, p: float, k: int, q: float, side: Side) -> float:
    _check_point(SamplingMethod.WITH_REPLACEMENT, p, k, q)
    _check_member(side, Side, "side")
    return _terms(_SCALAR, p, k, q)[2 * _ORDER.index(kind) + (side is Side.UNDER)]


def chernoff_term(p: float, k: int, q: float, side: Side) -> float:
    """Chernoff tail term.

    Over:  (e^(q-1) / q^q)^(pk)
    Under: (e^(1/q - 1) * q^(1/q))^(pk)
    """
    return _term(InequalityKind.CHERNOFF, p, k, q, side)


def bernstein_term(p: float, k: int, q: float, side: Side) -> float:
    """Bernstein tail term exp(-k eps^2 / (2 sigma^2 + 2 eps / 3)).

    eps is p(q-1) for over-estimation and p(1 - 1/q) for under-estimation;
    q = 1 gives eps = 0 and the vacuous value 1.
    """
    return _term(InequalityKind.BERNSTEIN, p, k, q, side)


def hoeffding_term(p: float, k: int, q: float, side: Side) -> float:
    """Hoeffding tail term; the under side exists only when pq > 1 and is
    NaN (not applicable) otherwise.

    Over:  exp(-2 p^2 (q-1)^2 k)
    Under: exp(-2 k (pq-1)^2 / q^2), derived from the loosened event
           "hit count <= k/q", hence the pq > 1 applicability gate.
    """
    return _term(InequalityKind.HOEFFDING, p, k, q, side)


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
    kinds = _method_kinds(SamplingMethod.WITH_REPLACEMENT, inequalities)
    _check_point(SamplingMethod.WITH_REPLACEMENT, p, k, q)
    return combine_terms(_ORDER, _terms(_SCALAR, p, k, q), kinds)
