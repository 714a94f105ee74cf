"""Single entry point for bound evaluation at one point, across sampling
methods, and the one scalar route into the term kernel (`_prepared`).

It checks nothing: its callers, the bounds (through `_checked_bound`), the
solvers and `estimate_with_bounds`, check their inputs once, then trust them.

At p = 0 every exponential term is vacuous, so the reported confidence
is the (trivially valid) lower bound 0, flagged as degenerate.

Everything here is scalar and imports no numpy; `reports.evaluate_grid`
bounds a whole grid in one numpy pass, several times dearer for one point.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from . import with_replacement, without_replacement
from .model import _WR, SamplingMethod, _check_member, _check_point
from .terms import (
    _SCALAR,
    DEFAULT_WOR_KINDS,
    DEFAULT_WR_KINDS,
    WITH_REPLACEMENT_KINDS,
    BoundResult,
    InequalityKind,
    _combined,
    _method_kinds,
    combine_terms,
)

_DEGENERATE = (1.0, 1.0, 0.0, None, None, True, ((), (), frozenset()))  # a point of `_prepared`


def default_inequalities(
    method: SamplingMethod, with_hoeffding: bool = False
) -> frozenset[InequalityKind]:
    if method is _WR:
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
    """Lower bound on P(Q-error <= q) for the given sampling method (p = 0: degenerate)."""
    return _checked_bound(method, p, k, q, n, inequalities, None if p == 0.0 else p)


def _checked_bound(method, p, k, q, n, inequalities, checked_p) -> BoundResult:
    """The BoundResult at one point, after `_method_kinds`, then `_check_point` of `checked_p`."""
    kinds = _method_kinds(method, inequalities)
    _check_point(method, checked_p, k, q, n)
    return combine_terms(_prepared(method, p, n, kinds)(k, q))


def _prepared(
    method: SamplingMethod, p: float, n: Optional[int], kinds: frozenset[InequalityKind]
) -> Callable[[int, float], tuple]:
    """`at(k, q)`: `evaluate_confidence(method, p, k, q, n, kinds)`'s fields
    (`terms._combined`) at a point `_check_point` admits, with the kernel
    picked once and without replacement the coefficients once per k in a row."""
    if p == 0.0:
        return lambda k, q: _DEGENERATE
    if method is _WR:
        order, terms = with_replacement._ORDER, with_replacement._terms
        return lambda k, q: _combined(order, terms(_SCALAR, p, k, q), kinds)
    order, terms = without_replacement._ORDER, without_replacement._terms
    last_k, coefficients = None, ()

    def at(k, q):
        nonlocal last_k, coefficients
        if k != last_k:
            last_k, coefficients = k, without_replacement._coefficients(k, n)
        return _combined(order, terms(_SCALAR, p, k, q, *coefficients), kinds)

    return at
