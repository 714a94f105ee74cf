"""Per-inequality tail terms and their combination into a confidence bound.

A bound evaluation produces one term per (inequality, side); the
over-estimation probability is the minimum over the applicable "over"
terms, the under-estimation probability the minimum over the applicable
"under" terms, and the reported confidence is max(0, 1 - over - under).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Iterable, Optional


class InequalityKind(enum.Enum):
    CHERNOFF = "chernoff"
    BERNSTEIN = "bernstein"
    HOEFFDING = "hoeffding"
    HOEFFDING_SERFLING = "hoeffding_serfling"
    BERNSTEIN_SERFLING = "bernstein_serfling"


WITH_REPLACEMENT_KINDS = frozenset(
    {InequalityKind.CHERNOFF, InequalityKind.BERNSTEIN, InequalityKind.HOEFFDING}
)
WITHOUT_REPLACEMENT_KINDS = frozenset(
    {InequalityKind.HOEFFDING_SERFLING, InequalityKind.BERNSTEIN_SERFLING}
)

# Default sets: the always-useful pair per regime; Hoeffding is opt-in.
DEFAULT_WR_KINDS = frozenset({InequalityKind.CHERNOFF, InequalityKind.BERNSTEIN})
DEFAULT_WOR_KINDS = WITHOUT_REPLACEMENT_KINDS


class Side(enum.Enum):
    OVER = "over"
    UNDER = "under"


# The term kernels take their math from a backend: this one for a single
# point of Python floats, the numpy module itself for arrays. `where`
# evaluates both branches in either backend, so neither may fail, and
# `minimum` passes a NaN in its second argument on, as numpy's does.
_SCALAR = SimpleNamespace(
    where=lambda condition, a, b: a if condition else b,
    exp=math.exp,
    log=math.log,
    sqrt=math.sqrt,
    minimum=lambda a, b: a if a < b else b,
)


@dataclass(frozen=True)
class BoundTerm:
    """One tail probability term. `probability` is NaN when not applicable."""

    inequality: InequalityKind
    side: Side
    probability: float


@dataclass(frozen=True)
class BoundResult:
    """Combined lower-bound confidence with its per-inequality breakdown."""

    omega: float
    psi: float
    confidence: float
    terms: tuple[BoundTerm, ...]
    omega_source: Optional[InequalityKind] = None
    psi_source: Optional[InequalityKind] = None
    degenerate: bool = False


def combine_terms(terms: Iterable[BoundTerm]) -> BoundResult:
    """Take per-side minima over applicable terms and clamp the confidence.

    A side with no applicable term gets the vacuous bound 1.
    """
    terms = tuple(terms)
    omega, omega_src = _side_min(terms, Side.OVER)
    psi, psi_src = _side_min(terms, Side.UNDER)
    confidence = max(0.0, 1.0 - omega - psi)
    return BoundResult(
        omega=omega,
        psi=psi,
        confidence=confidence,
        terms=terms,
        omega_source=omega_src,
        psi_source=psi_src,
    )


def degenerate_result() -> BoundResult:
    """Trivial bound for an empty predicate (p = 0): confidence 0, flagged."""
    return BoundResult(
        omega=1.0, psi=1.0, confidence=0.0, terms=(), degenerate=True
    )


def _side_min(
    terms: tuple[BoundTerm, ...], side: Side
) -> tuple[float, Optional[InequalityKind]]:
    best = math.inf
    source = None
    for term in terms:
        # an inapplicable term's NaN never compares below `best`
        if term.side is side and term.probability < best:
            best = term.probability
            source = term.inequality
    if source is None:
        return 1.0, None
    return best, source


def _check_kinds(
    inequalities: Optional[Iterable[InequalityKind]],
    default: frozenset,
    allowed: frozenset,
    regime: str,
) -> frozenset:
    """The chosen inequality set (`default` for None); it must be a
    non-empty subset of the kinds valid for sampling `regime`."""
    kinds = default if inequalities is None else frozenset(inequalities)
    if not kinds:
        raise ValueError("inequality set must not be empty")
    invalid = kinds - allowed
    if invalid:
        names = ", ".join(sorted(kind.value for kind in invalid))
        raise ValueError(f"not valid for sampling {regime}: {names}")
    return kinds


def _select_terms(
    order: tuple[InequalityKind, ...], values: list, kinds: frozenset
) -> list[BoundTerm]:
    """BoundTerms of the chosen kinds from a term kernel's values, which
    hold the over then the under term of each kind in `order`. A NaN
    value is an inapplicable term."""
    terms = []
    for kind, over, under in zip(order, values[::2], values[1::2]):
        if kind in kinds:
            terms.append(BoundTerm(kind, Side.OVER, over))
            terms.append(BoundTerm(kind, Side.UNDER, under))
    return terms
