"""Shared domain types: population, sample design, and the Q-error metric;
the one cell rule of every printed table, and the id of the simulation's
random number scheme, which every JSON output names."""

from __future__ import annotations

import enum
import operator
import sys
from dataclasses import dataclass
from typing import Iterable, Optional

_FLOAT_MAX = sys.float_info.max

# the simulation's scheme (see `simulate`), named here so output metadata needs no numpy
RNG_SCHEME = "philox4x64-block4096-v2"


class SamplingMethod(enum.Enum):
    WITH_REPLACEMENT = "wr"
    WITHOUT_REPLACEMENT = "wor"

    # Identity hash, as `terms.InequalityKind` has: every bound evaluation
    # looks its method up in `terms._KINDS`, and Enum's own hash is Python.
    __hash__ = object.__hash__

    @classmethod
    def parse(cls, text: str) -> "SamplingMethod":
        try:
            return cls(text.lower())
        except ValueError:
            raise ValueError(f"unknown sampling method {text!r} (expected 'wr' or 'wor')") from None


# module constants cost less than a member lookup
_WR, _WOR = SamplingMethod.WITH_REPLACEMENT, SamplingMethod.WITHOUT_REPLACEMENT


@dataclass(frozen=True)
class PopulationSpec:
    """A table of `n` rows of which `cardinality` satisfy the predicate.

    The selectivity `p` is always derived as cardinality / n so the two
    integers stay authoritative.
    """

    n: int
    cardinality: int

    def __post_init__(self) -> None:
        _check_n(self.n)
        if not 0 <= self.cardinality <= self.n:
            raise ValueError(
                f"cardinality must be in [0, {self.n}], got {self.cardinality}"
            )

    @property
    def p(self) -> float:
        return self.cardinality / self.n


@dataclass(frozen=True)
class SampleDesign:
    """Sampling regime and sample size."""

    method: SamplingMethod
    k: int

    def __post_init__(self) -> None:
        _check_member(self.method, SamplingMethod, "sampling method")
        _check_point(None, None, self.k, None)


def _check_member(value, kind: type, what: str) -> None:
    """The rule for an enum argument: a member of `kind`, not its value or
    name as text (`SamplingMethod.parse` reads a method's), nor None."""
    if type(value) is not kind:
        raise ValueError(f"{what} must be a member of {kind.__name__}, got {value!r}")


def _check_n(n: int) -> None:
    """The rule for a table size n: 1 <= n <= the largest double."""
    if not n >= 1:
        raise ValueError(f"population size must be >= 1, got {n}")
    if not n <= _FLOAT_MAX:
        raise ValueError(f"population size must be finite and >= 1, got {n}")


def _check_point(
    method: Optional[SamplingMethod],
    p: Optional[float],
    k: Optional[int],
    q: Optional[float],
    n: Optional[int] = None,
) -> None:
    """The input domain of every query, in one place: 0 < p <= 1, k >= 1,
    q >= 1, k and q at most the largest double (so finite, and no Python
    int the term kernels cannot turn into a float), and without
    replacement a table size n with k < n and n - k >= 1 (so n >= 2), n
    also at most the largest double. The second test is made in the
    kernels' own arithmetic: for integer k and n the two agree, and they
    differ for a fractional k or n, or for a float k beside an int n past
    2**53, where n - k rounds below 1 (to 0 at k = 2**62, n = 2**62 + 1).
    None skips a value the caller does not take; p = 0 is the caller's
    degenerate case and never reaches this check. Each check asks whether
    a value is inside the domain, and NaN fails every comparison, so it is
    rejected like any out-of-domain value.

    `reports.evaluate_grid` applies the same rule to arrays.
    """
    if p is not None and not 0.0 < p <= 1.0:
        raise ValueError(f"selectivity must be in (0, 1], got {p}")
    if k is not None and not 1 <= k <= _FLOAT_MAX:
        raise ValueError(f"sample size must be finite and >= 1, got {k}")
    if q is not None and not 1.0 <= q <= _FLOAT_MAX:
        raise ValueError(f"q must be finite and >= 1, got {q}")
    if method is _WOR:
        if n is None:
            raise ValueError("sampling without replacement needs the table size n")
        if k < n:  # n first: past the largest double, an int n overflows n - k for a float k
            _check_n(n)
        _check_k_below_n(k, n)


def _check_k_below_n(k: int, n: int) -> None:
    """`_check_point`'s rule without replacement for a checked k and n."""
    if not k < n:
        raise ValueError(f"sampling without replacement needs k < n, got k={k}, n={n}")
    if not n - k >= 1:  # k in (n - 1, n), or n - k rounds below 1
        raise ValueError(f"sampling without replacement needs k <= n - 1, got k={k}, n={n}")


def _python_int(value):
    """A numpy integer as a Python int, so that no numpy type wraps in the
    arithmetic that follows; a bool or a non-integer as it is."""
    try:
        return value if isinstance(value, bool) else operator.index(value)
    except TypeError:
        return value


def validate_design(pop: PopulationSpec, design: SampleDesign) -> None:
    """Check the cross constraints between a population and a sample design:
    without replacement, k < n and n - k >= 1, with integers as Python ints.
    `PopulationSpec` has checked n, and `SampleDesign` the method and k, so
    neither is checked again."""
    if design.method is _WOR:
        _check_k_below_n(_python_int(design.k), _python_int(pop.n))


def q_error(est: float, truth: float) -> float:
    """Q-error of an estimate: max(true/est, est/true), both clamped to >= 1.

    The clamp avoids division by zero; 1.0 means a perfect prediction.
    """
    if not est >= 0:
        raise ValueError(f"estimate must be non-negative, got {est}")
    if not truth >= 0:
        raise ValueError(f"true cardinality must be non-negative, got {truth}")
    e = max(float(est), 1.0)
    t = max(float(truth), 1.0)
    return max(t / e, e / t)


def _text(value: str) -> str:
    """A string cell as itself, quoted per RFC 4180 when it must be."""
    if "," in value or '"' in value or "\n" in value or "\r" in value:
        return '"' + value.replace('"', '""') + '"'
    return value


def cells(values: Iterable, fmt: str) -> list[str]:
    """The printed cells of one column whose `%`-format is `fmt`.

    The one cell rule of every table: a string prints as itself (quoted
    when it holds a comma, a quote or a line break), None and NaN print
    NA, and any other value prints as `fmt % value`.

    `%.9g` prints more digits than a cancelled value holds: a confidence
    1 - omega - psi of about 1e-10 carries an absolute error of about
    1e-16, so its 8th and 9th printed digits are rounding noise and may
    differ between the scalar and the grid path. `%.2f` prints 1.00 only
    above 0.995 (the double nearest 0.995 lies below it, so it rounds
    down).
    """
    return [
        "NA" if v is None or v != v else _text(v) if isinstance(v, str) else fmt % v
        for v in values
    ]
