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

from .model import SamplingMethod, _check_member


class InequalityKind(enum.Enum):
    CHERNOFF = "chernoff"
    BERNSTEIN = "bernstein"
    HOEFFDING = "hoeffding"
    HOEFFDING_SERFLING = "hoeffding_serfling"
    BERNSTEIN_SERFLING = "bernstein_serfling"

    # Members are singletons that compare by identity, so the identity hash
    # agrees with equality; Enum's own hashes the name in Python, and every
    # bound evaluation tests each kind against the chosen set.
    __hash__ = object.__hash__


WITH_REPLACEMENT_KINDS = frozenset(
    {InequalityKind.CHERNOFF, InequalityKind.BERNSTEIN, InequalityKind.HOEFFDING}
)
WITHOUT_REPLACEMENT_KINDS = frozenset(
    {InequalityKind.HOEFFDING_SERFLING, InequalityKind.BERNSTEIN_SERFLING}
)

# Default sets: the always-useful pair per regime; Hoeffding is opt-in.
DEFAULT_WR_KINDS = frozenset({InequalityKind.CHERNOFF, InequalityKind.BERNSTEIN})
DEFAULT_WOR_KINDS = WITHOUT_REPLACEMENT_KINDS
# Per method: the kinds valid for it, and its default set.
_KINDS = {
    SamplingMethod.WITH_REPLACEMENT: (WITH_REPLACEMENT_KINDS, DEFAULT_WR_KINDS),
    SamplingMethod.WITHOUT_REPLACEMENT: (WITHOUT_REPLACEMENT_KINDS, DEFAULT_WOR_KINDS),
}


class Side(enum.Enum):
    OVER = "over"
    UNDER = "under"

    # Identity hash, as `InequalityKind` has: `reports.evaluate_grid` keys
    # its ten terms by (kind, side).
    __hash__ = object.__hash__


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


_OVER, _UNDER = Side.OVER, Side.UNDER  # an enum member lookup costs as much as a term
_FIELDS = ("omega", "psi", "confidence", "terms", "omega_source", "psi_source", "degenerate")


@dataclass(frozen=True, repr=False, eq=False)
class BoundResult:
    """Combined lower-bound confidence with its per-inequality breakdown.

    `terms` is not stored: each read derives it from the term kernel's
    values, as a BoundTerm for the over then the under term of each chosen
    kind in the kernel's order (a NaN probability is an inapplicable term),
    so a caller that reads only the combined bound never builds one. The
    repr lists `terms` as a field, and two results are equal when every
    field is, with two NaN probabilities counted equal.
    """

    omega: float
    psi: float
    confidence: float
    omega_source: Optional[InequalityKind] = None
    psi_source: Optional[InequalityKind] = None
    degenerate: bool = False
    # (kind order, kernel values, chosen kinds), laid out as `_combined` reads them
    _kernel: tuple = ((), (), frozenset())

    @property
    def terms(self) -> tuple[BoundTerm, ...]:
        order, values, kinds = self._kernel
        pairs = iter(values)
        return tuple(term for kind, over, under in zip(order, pairs, pairs) if kind in kinds
                     for term in (BoundTerm(kind, _OVER, over), BoundTerm(kind, _UNDER, under)))

    def _key(self) -> tuple:
        terms = tuple((t.inequality, t.side, None if t.probability != t.probability
                       else t.probability) for t in self.terms)
        return (self.omega, self.psi, self.confidence, terms, self.omega_source,
                self.psi_source, self.degenerate)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in _FIELDS)
        return f"{type(self).__qualname__}({fields})"


def combine_terms(point: tuple) -> BoundResult:
    """The BoundResult of a point of the scalar route (`confidence._prepared`)."""
    return BoundResult(*point)


def _combined(order: tuple[InequalityKind, ...], values: list, kinds: frozenset) -> tuple:
    """BoundResult's fields, in order, of a term kernel's values (the over then
    the under term of each kind in `order`) over the chosen `kinds`: omega and
    psi the least over and under term, confidence max(0, 1 - omega - psi). A
    NaN (inapplicable) term never binds; a side with no applicable term gets
    the vacuous 1 and no kind; on a tie the first kind in `order` binds."""
    omega = psi = math.inf
    omega_src = psi_src = None
    pairs = iter(values)
    for kind, over, under in zip(order, pairs, pairs):
        if kind in kinds:
            if over < omega:
                omega, omega_src = over, kind
            if under < psi:
                psi, psi_src = under, kind
    omega, psi = 1.0 if omega_src is None else omega, 1.0 if psi_src is None else psi
    return (omega, psi, max(0.0, 1.0 - omega - psi), omega_src, psi_src, False,
            (order, values, kinds))


def _method_kinds(
    method: SamplingMethod, inequalities: Optional[Iterable[InequalityKind]]
) -> frozenset:
    """The chosen inequality set (the method's default for None); `method`
    must be a SamplingMethod, and the set a non-empty collection of the
    InequalityKind members valid for sampling by it. Text is refused whole
    (it would iterate as its letters), and so is any value that is not a
    member, each named once, before the set is hashed."""
    _check_member(method, SamplingMethod, "sampling method")
    allowed, default = _KINDS[method]
    if inequalities is None:
        return default
    chosen = (inequalities,) if isinstance(inequalities, str) else tuple(inequalities)
    strangers = {repr(kind) for kind in chosen if type(kind) is not InequalityKind}
    if strangers:
        raise ValueError("inequality kinds must be members of InequalityKind, got "
                         + ", ".join(sorted(strangers)))
    kinds = frozenset(chosen)
    if not kinds:
        raise ValueError("inequality set must not be empty")
    invalid = kinds - allowed
    if invalid:
        names = ", ".join(sorted(kind.value for kind in invalid))
        regime = method.name.lower().replace("_", " ")
        raise ValueError(f"not valid for sampling {regime}: {names}")
    return kinds
