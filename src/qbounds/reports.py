"""Machine-readable reproductions: the golden confidence table and the
data series behind the bound-curve figures.

Everything lands in CSV with a fixed header, LF newlines, UTF-8, 9
significant digits in full-precision columns and the literal NA for
inapplicable terms. Rendering to images is out of scope; these files are
meant for external plotting.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import IO, Iterable, Optional, Sequence

import numpy as np

from .confidence import default_inequalities, evaluate_confidence, evaluate_grid
from .exact import exact_confidence
from .model import PopulationSpec, SampleDesign, SamplingMethod
from .simulate import SimulationConfig, run_simulation
from .terms import (
    DEFAULT_WOR_KINDS,
    DEFAULT_WR_KINDS,
    WITHOUT_REPLACEMENT_KINDS,
    InequalityKind,
    Side,
)

TABLE1_CARDINALITIES = (
    166, 333, 500, 666, 833, 1000, 1666, 3333, 5000, 6666, 8333, 10000,
    166666, 333333, 500000, 666666, 833333, 1000000,
)
TABLE1_SAMPLE_SIZES = (100, 1000, 10000)


def fmt9(value: Optional[float]) -> str:
    """Full-precision cell: 9 significant digits, NA for missing."""
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return "NA"
    return format(value, ".9g")


def rounded_cell(value: float) -> str:
    """Two-decimal display; 1.00 is only printed for values above 0.995."""
    if value > 0.995:
        return "1.00"
    return format(value, ".2f")


def table1(n: int = 1_000_000, q: float = 2.0) -> list[dict]:
    """Confidence that the Q-error is at most q, for the 18 standard
    cardinalities at sample sizes 100 / 1000 / 10000, with (R) and without
    (NR) replacement."""
    for c in TABLE1_CARDINALITIES:
        if c > n:
            raise ValueError(f"cardinality {c} exceeds table size {n}")
    ps = [c / n for c in TABLE1_CARDINALITIES]
    bounds = evaluate_grid(
        np.reshape(ps, (-1, 1, 1)),
        np.reshape(TABLE1_SAMPLE_SIZES, (1, -1, 1)),
        n,
        q,
        [False, True],
        DEFAULT_WR_KINDS | DEFAULT_WOR_KINDS,
    )
    rows = []
    for c, p, by_k in zip(TABLE1_CARDINALITIES, ps, bounds.confidence.tolist()):
        row: dict = {"c": c, "p": p}
        for k, (r, nr) in zip(TABLE1_SAMPLE_SIZES, by_k):
            row[f"r{k}"] = r
            row[f"nr{k}"] = nr
        rows.append(row)
    return rows


def write_table1_csv(rows: Sequence[dict], out: IO[str]) -> None:
    value_cols = [f"{m}{k}" for k in TABLE1_SAMPLE_SIZES for m in ("r", "nr")]
    header = ["c", "p"] + value_cols + [f"{col}_2dp" for col in value_cols]
    out.write(",".join(header) + "\n")
    for row in rows:
        cells = [str(row["c"]), fmt9(row["p"])]
        cells += [fmt9(row[col]) for col in value_cols]
        cells += [rounded_cell(row[col]) for col in value_cols]
        out.write(",".join(cells) + "\n")


_TERM_COLUMNS = [
    f"{kind.value}_{side.value}"
    for kind in InequalityKind
    for side in Side
]

SERIES_COLUMNS = (
    ["method", "n", "c", "p", "k", "q", "status"]
    + _TERM_COLUMNS
    + ["omega", "psi", "confidence", "exact", "empirical_rate", "standard_error"]
)


@dataclass(frozen=True)
class GridSpec:
    """Axes of a figure-series sweep. Exactly one of p / c drives the
    selectivity axis; with a p axis, exact and simulation columns use the
    nearest integer cardinality round(p * n)."""

    k: tuple[int, ...]
    q: tuple[float, ...]
    n: tuple[int, ...] = (1_000_000,)
    p: Optional[tuple[float, ...]] = None
    c: Optional[tuple[int, ...]] = None
    methods: tuple[SamplingMethod, ...] = (
        SamplingMethod.WITH_REPLACEMENT,
        SamplingMethod.WITHOUT_REPLACEMENT,
    )
    include_hoeffding: bool = False

    def __post_init__(self) -> None:
        if (self.p is None) == (self.c is None):
            raise ValueError("exactly one of the p and c axes must be given")
        for name in ("k", "q", "n", "methods"):
            if not getattr(self, name):
                raise ValueError(f"axis {name} must not be empty")
        if self.p is not None and any(not 0.0 <= v <= 1.0 for v in self.p):
            raise ValueError("p axis values must lie in [0, 1]")
        if any(not (math.isfinite(v) and v >= 1.0) for v in self.q):
            raise ValueError("q axis values must be finite and >= 1")
        for name in ("k", "n"):
            if any(not 1 <= v < 2**63 for v in getattr(self, name)):
                raise ValueError(f"{name} axis values must lie in [1, 2**63)")
        if self.c is not None:
            if any(v < 0 for v in self.c):
                raise ValueError("c axis values must be non-negative")
            if max(self.c) > min(self.n):
                raise ValueError(
                    f"cardinality {max(self.c)} exceeds table size {min(self.n)}"
                )


def _parse_axis_values(text: str) -> list[float]:
    text = text.strip()
    if text.startswith("log:") or text.startswith("lin:"):
        kind, *parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"range axis needs {kind}:LO:HI:COUNT, got {text!r}")
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
        if count < 1:
            raise ValueError(f"axis count must be >= 1, got {count}")
        if count == 1:
            return [lo]
        if kind == "log":
            if lo <= 0 or hi <= 0:
                raise ValueError("log axis endpoints must be positive")
            return np.geomspace(lo, hi, count).tolist()
        return np.linspace(lo, hi, count).tolist()
    return [float(part) for part in text.split(",") if part.strip()]


def _as_ints(values: Iterable[float], key: str) -> tuple[int, ...]:
    out = []
    for v in values:
        if not math.isfinite(v) or abs(v - round(v)) > 1e-9:
            raise ValueError(f"axis {key} needs integers, got {v}")
        out.append(int(round(v)))
    return tuple(out)


def parse_grid_file(text: str) -> GridSpec:
    """Parse the key=value grid file format.

    Keys: p | c | k | q | n | method | include_hoeffding. Values are a
    comma list (100,1000), lin:LO:HI:COUNT, or log:LO:HI:COUNT. '#' starts
    a comment.
    """
    fields: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"grid file line {lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.lower()
        if key in ("p", "q"):
            fields[key] = tuple(_parse_axis_values(value))
        elif key in ("c", "k", "n"):
            fields[key] = _as_ints(_parse_axis_values(value), key)
        elif key == "method":
            fields["methods"] = tuple(
                SamplingMethod.parse(part.strip()) for part in value.split(",")
            )
        elif key == "include_hoeffding":
            lowered = value.lower()
            if lowered not in ("true", "false"):
                raise ValueError(f"grid file line {lineno}: include_hoeffding must be true or false")
            fields["include_hoeffding"] = lowered == "true"
        else:
            raise ValueError(f"grid file line {lineno}: unknown key {key!r}")
    if "k" not in fields or "q" not in fields:
        raise ValueError("grid file must define the k and q axes")
    return GridSpec(**fields)


def figure_series(
    spec: GridSpec,
    with_exact: bool = False,
    with_simulation: bool = False,
    trials: int = 1000,
    seed: int = 0,
) -> list[dict]:
    """One record per grid point with every per-inequality term, the
    combined confidence, and optional exact / simulation columns.

    Points that violate preconditions are emitted with a degenerate or
    invalid status instead of being dropped. The bound columns come from
    one `evaluate_grid` call over the whole grid.
    """
    if spec.p is not None:
        sel = [(n, int(round(float(v) * n)), float(v)) for n in spec.n for v in spec.p]
    else:
        sel = [(n, int(c), c / n) for n in spec.n for c in spec.c]
    n_axis, c_axis, p_axis = zip(*sel)
    # rows in itertools.product(n, p or c, k, q, methods) order
    shape = (len(sel), len(spec.k), len(spec.q), len(spec.methods))
    size = math.prod(shape)

    def spread(values, axis: int, dtype=object) -> np.ndarray:
        """One axis's values at every grid point, in product order."""
        column = np.empty(len(values), dtype=dtype)
        column[:] = values
        dims = [1] * len(shape)
        dims[axis] = -1
        return np.broadcast_to(column.reshape(dims), shape).ravel()

    p, n = spread(p_axis, 0, np.float64), spread(n_axis, 0, np.int64)
    k, q = spread(spec.k, 1, np.int64), spread(spec.q, 2, np.float64)
    wor = spread([m is SamplingMethod.WITHOUT_REPLACEMENT for m in spec.methods], 3, bool)
    invalid = wor & (k >= n)
    degenerate = ~invalid & (p == 0.0)
    ok = ~invalid & ~degenerate
    chosen = default_inequalities(SamplingMethod.WITH_REPLACEMENT, spec.include_hoeffding)
    bounds = evaluate_grid(p[ok], k[ok], n[ok], q[ok], wor[ok], chosen | DEFAULT_WOR_KINDS)

    records = [dict.fromkeys(SERIES_COLUMNS) for _ in range(size)]

    def fill(col: str, values, rows=None) -> None:
        """Set one column on every record, or on the rows marked."""
        targets = records if rows is None else [records[i] for i in np.flatnonzero(rows).tolist()]
        for record, value in zip(targets, values):
            record[col] = value

    fill("method", spread([m.value for m in spec.methods], 3).tolist())
    fill("n", spread(n_axis, 0).tolist())
    fill("c", spread(c_axis, 0).tolist())
    fill("p", spread(p_axis, 0).tolist())
    fill("k", spread(spec.k, 1).tolist())
    fill("q", spread(spec.q, 2).tolist())
    for status, rows in (("ok", ok), ("degenerate", degenerate), ("invalid", invalid)):
        fill("status", itertools.repeat(status), rows)
    for (kind, side), values in bounds.terms.items():
        applies = ok & (wor == (kind in WITHOUT_REPLACEMENT_KINDS))
        fill(f"{kind.value}_{side.value}", values[applies[ok]].tolist(), applies)
    fill("omega", bounds.omega.tolist(), ok)
    fill("psi", bounds.psi.tolist(), ok)
    fill("confidence", bounds.confidence.tolist(), ok)
    fill("confidence", itertools.repeat(0.0), degenerate)

    if with_exact or with_simulation:
        valid = (record for record in records if record["status"] != "invalid")
        for index, record in enumerate(valid):
            pop = PopulationSpec(n=record["n"], cardinality=record["c"])
            design = SampleDesign(method=SamplingMethod(record["method"]), k=record["k"])
            if with_exact:
                record["exact"] = exact_confidence(pop, design, record["q"])
            if with_simulation:
                summary = run_simulation(SimulationConfig(
                    pop=pop, design=design, q=record["q"], trials=trials,
                    seed=(seed + 1_000_003 * index) % 2**64,
                ))
                record["empirical_rate"] = summary.empirical_rate
                record["standard_error"] = summary.standard_error
    return records


_TEXT_COLUMNS = ("method", "status")
_INT_COLUMNS = ("n", "c", "k")
_FLOAT_INDEXES = [
    i for i, col in enumerate(SERIES_COLUMNS) if col not in _TEXT_COLUMNS + _INT_COLUMNS
]
# One %-format per row: "%.9g" prints what fmt9 prints, and NaN as "nan",
# which no text or number cell can contain, so one replace turns it into NA.
_SERIES_ROW = ",".join(
    "%s" if col in _TEXT_COLUMNS else "%d" if col in _INT_COLUMNS else "%.9g"
    for col in SERIES_COLUMNS
) + "\n"
_SERIES_CHUNK = 64  # rows formatted per write: bounds the text held at once


def write_series_csv(records: Sequence[dict], out: IO[str]) -> None:
    """Series records as CSV: fmt9 cells, with None and NaN as NA."""
    out.write(",".join(SERIES_COLUMNS) + "\n")
    row_of = operator.itemgetter(*SERIES_COLUMNS)
    for start in range(0, len(records), _SERIES_CHUNK):
        columns = list(zip(*map(row_of, records[start:start + _SERIES_CHUNK])))
        for i in _FLOAT_INDEXES:  # None becomes NaN
            columns[i] = np.array(columns[i], dtype=np.float64).tolist()
        text = "".join(_SERIES_ROW % row for row in zip(*columns))
        out.write(text.replace("nan", "NA"))


@dataclass(frozen=True)
class ComparisonPoint:
    method: SamplingMethod
    n: int
    c: int
    k: int
    q: float


def default_comparison_points(
    lo: float = 0.005, hi: float = 0.98, minimum: int = 50
) -> list[ComparisonPoint]:
    """Grid points whose exact success probability sits strictly inside
    (lo, hi), so the simulation comparison is statistically meaningful."""
    n = 1_000_000
    candidates = []
    for c, k, q, method in itertools.product(
        (1000, 2000, 5000, 10000, 166666),
        (100, 300, 1000, 3000, 10000),
        (1.5, 2.0, 3.0),
        SamplingMethod,
    ):
        pop = PopulationSpec(n=n, cardinality=c)
        design = SampleDesign(method=method, k=k)
        exact = exact_confidence(pop, design, q)
        if lo <= exact <= hi:
            candidates.append(ComparisonPoint(method, n, c, k, q))
    if len(candidates) < minimum:
        raise RuntimeError(
            f"only {len(candidates)} usable comparison points, need {minimum}"
        )
    return candidates


def simulation_comparison(
    points: Sequence[ComparisonPoint], trials: int, seed: int
) -> list[dict]:
    """Empirical success rate next to the exact probability and the
    theoretical bound for each point; `conservatism` is how far the bound
    sits below what actually happens."""
    records = []
    for index, pt in enumerate(points):
        pop = PopulationSpec(n=pt.n, cardinality=pt.c)
        design = SampleDesign(method=pt.method, k=pt.k)
        exact = exact_confidence(pop, design, pt.q)
        bound = evaluate_confidence(
            pt.method, pop.p, pt.k, pt.q, n=pt.n
        ).confidence
        summary = run_simulation(SimulationConfig(
            pop=pop, design=design, q=pt.q, trials=trials,
            seed=(seed + 1_000_003 * index) % 2**64,
        ))
        records.append({
            "method": pt.method.value, "n": pt.n, "c": pt.c,
            "k": pt.k, "q": pt.q,
            "confidence": bound,
            "exact": exact,
            "empirical_rate": summary.empirical_rate,
            "standard_error": summary.standard_error,
            "successes": summary.successes,
            "trials": summary.trials,
            "conservatism": summary.empirical_rate - bound,
        })
    return records


COMPARISON_COLUMNS = (
    "method", "n", "c", "k", "q", "confidence", "exact",
    "empirical_rate", "standard_error", "successes", "trials", "conservatism",
)


def write_comparison_csv(records: Sequence[dict], out: IO[str]) -> None:
    out.write(",".join(COMPARISON_COLUMNS) + "\n")
    for record in records:
        cells = []
        for col in COMPARISON_COLUMNS:
            value = record[col]
            if col == "method":
                cells.append(str(value))
            elif col in ("n", "c", "k", "successes", "trials"):
                cells.append(str(int(value)))
            else:
                cells.append(fmt9(value))
        out.write(",".join(cells) + "\n")
