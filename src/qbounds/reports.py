"""Machine-readable reproductions: the golden confidence table and the
data series behind the bound-curve figures.

Both read the bound at every point of their grid from `evaluate_grid`,
one numpy pass over the scalar path's term kernels; a single point is
cheaper through `confidence.evaluate_confidence`. The figure series stays
in those numpy columns (`Series`): a record is built only when it is read.
A column spread from a grid axis or filled from a few values (method, n,
c, p, k, q, status, and the exact and simulation columns not asked for)
also keeps its levels: the typed values it was spread from, and each
row's code.

Everything lands in CSV through `write_csv`: a fixed header, LF
newlines, UTF-8, and one rule for every cell (see `model.cells`): 9
significant digits in full-precision columns, two decimals in the
table's rounded columns, the literal NA for missing values and
inapplicable terms. A `Series` column with levels prints each level once.
Its other float64 and int64 columns that share a format are printed
together, 4,096 rows at a time: each distinct bit pattern among them
once, by one `%` call. A list of records is printed cell by cell, through
the same rule. A file is written through `open_output`, which rewrites it
in place.
Rendering to images is out of scope; these files are meant for external
plotting.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import operator
import os
import stat
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from typing import IO, Optional

import numpy as np

from . import with_replacement, without_replacement
from .confidence import default_inequalities
from .exact import _exact_confidence
from .model import (PopulationSpec, SampleDesign, SamplingMethod, _check_member, _check_n,
                    _check_point, cells)
from .simulate import SimulationConfig, _check_seed, run_simulation
from .terms import (
    DEFAULT_WOR_KINDS,
    DEFAULT_WR_KINDS,
    WITHOUT_REPLACEMENT_KINDS,
    InequalityKind,
    Side,
)
from .without_replacement import _coefficients

TABLE1_CARDINALITIES = (
    166, 333, 500, 666, 833, 1000, 1666, 3333, 5000, 6666, 8333, 10000,
    166666, 333333, 500000, 666666, 833333, 1000000,
)
TABLE1_SAMPLE_SIZES = (100, 1000, 10000)


_CHUNK = 4096  # rows formatted per write: bounds the text held at once

# the dtypes whose columns print each distinct value once, told apart by bit pattern
_BY_BITS = (np.dtype(np.float64), np.dtype(np.int64))


def _distinct_cells(stacked: np.ndarray, fmt: str) -> list[list[str]]:
    """`cells(row, fmt)` for each row of a 2-d float64 or int64 array,
    with each distinct value of the whole array printed once.

    Values are told apart by their bit pattern, so -0.0 and 0.0 stay apart
    (they print differently), as does each NaN. One sort of the bit
    patterns finds the distinct values, one `%` call prints them, and a
    NaN is set to NA after.
    """
    bits = stacked.view(np.int64).ravel()
    order = np.argsort(bits)
    ordered = bits[order]
    first = np.empty(ordered.size, dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    values = ordered[first].view(stacked.dtype)
    del ordered  # each chunk-sized temporary goes once used, which lowers peak RSS
    inverse = np.empty(bits.size, dtype=np.intp)
    codes = np.cumsum(first)
    codes -= 1
    inverse[order] = codes
    del order, codes
    missing = np.flatnonzero(values != values).tolist()  # NaN prints NA
    items = values.tolist()
    for i in missing:
        items[i] = 0.0  # a stand-in that every format takes
    printed = ((fmt + "\n") * len(items) % tuple(items)).split("\n")
    for i in missing:
        printed[i] = "NA"
    return np.array(printed, dtype=object)[inverse.reshape(stacked.shape)].tolist()


def _series_blocks(series: "Series", names: list[str], fmts: list[str]) -> Iterator[list]:
    """A `Series`' printed cells, one list per column, a chunk of rows at a time.

    A column with levels prints each level once and indexes the printed
    levels by its codes. The other float64 and int64 columns are printed
    together with the columns that share their dtype and format, one
    `_distinct_cells` call per chunk; any other column cell by cell.
    """
    coded, grouped, rest = {}, {}, []
    for i, (name, fmt) in enumerate(zip(names, fmts)):
        level = series.levels(name)
        if level is not None:
            values, codes = level
            coded[i] = (np.array(cells(values.tolist(), fmt), dtype=object), codes)
        elif series.column(name).dtype in _BY_BITS:
            grouped.setdefault((series.column(name).dtype, fmt), []).append(i)
        else:
            rest.append(i)
    for start in range(0, len(series), _CHUNK):
        rows = slice(start, start + _CHUNK)
        block: list = [None] * len(names)
        for i, (printed, codes) in coded.items():
            block[i] = printed[codes[rows]].tolist()
        for (_, fmt), members in grouped.items():
            stacked = np.stack([series.column(names[i])[rows] for i in members])
            for i, column in zip(members, _distinct_cells(stacked, fmt)):
                block[i] = column
        for i in rest:
            block[i] = cells(series.column(names[i])[rows], fmts[i])
        yield block


def _record_blocks(records: Sequence[Mapping], names: list[str], fmts: list[str]) -> Iterator[list]:
    """A list of records' printed cells, one list per column, a chunk of
    rows at a time, cell by cell."""
    for start in range(0, len(records), _CHUNK):
        chunk = records[start:start + _CHUNK]
        yield [cells([record[name] for record in chunk], fmt) for name, fmt in zip(names, fmts)]


def write_csv(records: Sequence[Mapping], columns: Mapping[str, str], out: IO[str]) -> None:
    """Write `records` as CSV: `columns` maps each header, in order, to the
    `%`-format of its cells (`%s` text, `%d` integer, `%.9g` full
    precision, `%.2f` two decimals); each record needs every header as a
    key. Rows are formatted column by column, a bounded chunk at a time,
    each cell by `cells`' rule. A list of records is printed cell by cell.
    A `Series` is printed from its columns and builds no record: a column
    with levels prints each level once, and the float64 and int64 columns
    that share a format print each distinct bit pattern of a chunk once.
    """
    out.write(",".join(cells(columns, "%s")) + "\n")
    names, fmts = list(columns), list(columns.values())
    blocks = (_series_blocks if isinstance(records, Series) else _record_blocks)(
        records, names, fmts)
    for block in blocks:
        out.write("\n".join(map(",".join, zip(*block))) + "\n")


@contextlib.contextmanager
def open_output(path: str) -> Iterator[IO[str]]:
    """A text handle that writes `path` as a fresh write-mode `open` would
    (UTF-8, LF newlines, a new file's mode 0o666 less the umask), but in
    place: the file is opened without `O_TRUNC`, its old bytes are
    overwritten, and on leaving, a regular file is cut at the end of what
    was written, also when the writer raised. The inode, its mode, its hard
    links and a symlink to it stay as they were; a FIFO or device is not cut.

    Truncating a file to zero makes ext4 (`auto_da_alloc`) flush it on
    close, and the next truncation waits for that writeback: tens of ms
    for a file that takes 0.1 ms to write.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w", encoding="utf-8", newline="\n") as handle:
        try:
            yield handle
        finally:
            if stat.S_ISREG(os.fstat(fd).st_mode):
                handle.truncate()


@dataclass(frozen=True)
class GridBounds:
    """The bound at every point of a grid, in the grid's broadcast shape.

    `terms` holds all ten (inequality, side) terms; a term is NaN where
    it does not apply: the other method's kinds, and the Hoeffding under
    side at pq <= 1. `omega` and `psi` are the per-side minima over the
    chosen inequalities (1 where none applies), and `confidence` is
    max(0, 1 - omega - psi), as `confidence._prepared` forms them for one point.
    """

    terms: dict[tuple[InequalityKind, Side], np.ndarray]
    omega: np.ndarray
    psi: np.ndarray
    confidence: np.ndarray


def evaluate_grid(p, k, n, q, wor, inequalities: Iterable[InequalityKind]) -> GridBounds:
    """Every term and the combined bound over broadcast arrays of points.

    `wor` marks the points sampled without replacement; `n` only matters
    there. Each point must lie in the domain `model._check_point` states
    for one point: 0 < p <= 1, finite k >= 1, finite q >= 1, and without
    replacement k < n, n - k >= 1 and a finite n. p = 0 is rejected too: a
    caller gives those points their degenerate result itself, as
    `evaluate_confidence` does. The rule is checked on `k` and `n` as
    given, and a fractional `k` is used as it is, as on the scalar path.
    `inequalities` is the chosen set for both methods at once: a kind of
    the other method never applies to a point. Terms come from the scalar
    path's kernels, but numpy's exp and log may differ from libm's by an
    ulp.
    """
    chosen = frozenset(inequalities)
    p, q = np.asarray(p, dtype=np.float64), np.asarray(q, dtype=np.float64)
    k, n = _sizes(k), _sizes(n)
    p, k, n, q, wor = np.broadcast_arrays(p, k, n, q, np.asarray(wor, dtype=bool))
    inside = (p > 0.0) & (p <= 1.0) & (k >= 1) & (k < np.inf) & (q >= 1.0) & (q < np.inf)
    inside &= ~wor | ((k < n) & (n - k >= 1) & (n < np.inf))
    for i in np.flatnonzero(~inside)[:1]:  # the rule's error for the first point outside
        method = SamplingMethod.WITHOUT_REPLACEMENT if wor.flat[i] else SamplingMethod.WITH_REPLACEMENT
        # as Python scalars, so that k < n compares exactly, as on the scalar path
        _check_point(method, *(a.flat[i].item() for a in (p, k, q, n)))
        raise AssertionError(f"the array rule and model._check_point disagree at {i}")

    terms = {(kind, side): np.full(p.shape, np.nan) for kind in InequalityKind for side in Side}
    wr = ~wor
    rho, zeta = _coefficient_arrays(k[wor], n[wor])
    # Past q ~ 1e154 products overflow to inf; the kernels are formed so
    # that this only drives exponents to -inf, whose terms are 0.
    with np.errstate(over="ignore"):
        for rows, order, values in (
            (wr, with_replacement._ORDER, with_replacement._terms(np, p[wr], k[wr], q[wr])),
            (wor, without_replacement._ORDER,
             without_replacement._terms(np, p[wor], k[wor], q[wor], rho, zeta)),
        ):
            for key, value in zip(itertools.product(order, Side), values):
                terms[key][rows] = value
    omega, psi = (
        _side_min([terms[kind, side] for kind in chosen], p.shape) for side in Side
    )
    confidence = np.maximum(0.0, 1.0 - omega - psi)
    return GridBounds(terms=terms, omega=omega, psi=psi, confidence=confidence)


def _sizes(values) -> np.ndarray:
    """Sample or table sizes as given: float64 where any is a float, so a
    fractional or NaN value is neither truncated nor refused by the cast,
    else exact int64."""
    if np.asarray(values).dtype.kind == "f":
        return np.asarray(values, dtype=np.float64)
    try:
        return np.asarray(values, dtype=np.int64)
    except OverflowError:
        raise ValueError("k and n must be below 2**63") from None


def _side_min(values: list[np.ndarray], shape: tuple) -> np.ndarray:
    """NaN-skipping minimum of the terms; 1 where none applies."""
    best = np.full(shape, np.nan)
    for value in values:
        best = np.fmin(best, value)
    return np.where(np.isnan(best), 1.0, best)


def _coefficient_arrays(k: np.ndarray, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """rho and zeta over 1-d arrays of (k, n), from `_coefficients` once
    per distinct pair (a grid has few), so they equal the scalar path's.
    The pairs are sorted once; each run of equal pairs is one distinct pair,
    and each keeps its own dtype (int64 k is not rounded to float64 n)."""
    order = np.lexsort((n, k))
    k, n = k[order], n[order]
    first = np.ones(k.size, dtype=bool)
    first[1:] = (k[1:] != k[:-1]) | (n[1:] != n[:-1])
    inverse = np.empty(k.size, dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    pairs = zip(k[first].tolist(), n[first].tolist())
    table = np.array([_coefficients(a, b) for a, b in pairs]).reshape(-1, 2)
    rho, zeta = table[inverse].T
    return rho, zeta


def table1(n: int = 1_000_000, q: float = 2.0) -> list[dict]:
    """Confidence that the Q-error is at most q, for the 18 standard
    cardinalities at sample sizes 100 / 1000 / 10000, with (R) and without
    (NR) replacement."""
    _check_n(n)
    _check_point(None, None, None, q)
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


_TABLE1_VALUES = [f"{m}{k}" for k in TABLE1_SAMPLE_SIZES for m in ("r", "nr")]
_TABLE1_CSV = {
    "c": "%d", "p": "%.9g", **dict.fromkeys(_TABLE1_VALUES, "%.9g"),
    **{f"{col}_2dp": "%.2f" for col in _TABLE1_VALUES},
}


def write_table1_csv(rows: Sequence[dict], out: IO[str]) -> None:
    """Table 1 as CSV: each confidence in full precision, then again
    rounded to two decimals in its `_2dp` column."""
    records = [{**row, **{f"{col}_2dp": row[col] for col in _TABLE1_VALUES}} for row in rows]
    write_csv(records, _TABLE1_CSV, out)


# figure-series columns and the %-format of their cells
_SERIES_CSV = {
    "method": "%s", "n": "%d", "c": "%d", "p": "%.9g", "k": "%d", "q": "%.9g", "status": "%s",
    **{f"{kind.value}_{side.value}": "%.9g" for kind in InequalityKind for side in Side},
    **dict.fromkeys(
        ["omega", "psi", "confidence", "exact", "empirical_rate", "standard_error"], "%.9g"
    ),
}
SERIES_COLUMNS = list(_SERIES_CSV)


class Series(Sequence):
    """The figure-series records, kept as numpy columns and built when read.

    Indexing, slicing and iteration build one dict per grid point, keyed by
    `SERIES_COLUMNS` in order: `int` n, c and k, `float` p and q, and None
    where a term does not apply to the point's method or a column was not
    asked for. A term that applies but is undefined (Hoeffding's under
    term at pq <= 1) is NaN. A slice is a list of records. `write_csv`
    prints the columns themselves and builds no record.
    """

    def __init__(self, values: dict[str, np.ndarray], present: dict[str, np.ndarray],
                 levels: dict[str, tuple[np.ndarray, np.ndarray]]):
        self._values = values  # one 1-d array per column, NaN where a record holds None
        self._present = present  # rows holding a value, for columns that may hold None
        self._levels = levels  # (levels, codes) of the columns with few values: levels[codes]
        self._size = len(next(iter(values.values())))

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self._records(index)
        i = operator.index(index)
        if not -self._size <= i < self._size:
            raise IndexError("series index out of range")
        i %= self._size
        return self._records(slice(i, i + 1))[0]

    def __iter__(self):
        for start in range(0, self._size, _CHUNK):
            yield from self._records(slice(start, start + _CHUNK))

    def column(self, name: str) -> np.ndarray:
        """One column's values, NaN in the rows whose record holds None."""
        return self._values[name]

    def levels(self, name: str) -> Optional[tuple[np.ndarray, np.ndarray]]:
        """A column's levels and each row's code, such that the column is
        `levels[codes]`, or None for a column kept without levels."""
        return self._levels.get(name)

    def _records(self, rows: slice) -> list[dict]:
        columns = []
        for name in SERIES_COLUMNS:
            values = self._values[name][rows]
            if name in self._present:
                values = np.where(self._present[name][rows], values, None)
            columns.append(values.tolist())
        return [dict(zip(SERIES_COLUMNS, row)) for row in zip(*columns)]


@dataclass(frozen=True)
class GridSpec:
    """Axes of a figure-series sweep. Exactly one of p / c drives the
    selectivity axis; with a p axis, exact and simulation columns use the
    nearest integer cardinality round(p * n), at most n (p * n rounds up in
    floats past 2**53)."""

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
        for name in ("p" if self.p is not None else "c", "k", "q", "n", "methods"):
            if not getattr(self, name):
                raise ValueError(f"axis {name} must not be empty")
        if self.p is not None and any(not 0.0 <= v <= 1.0 for v in self.p):
            raise ValueError("p axis values must lie in [0, 1]")
        for method in self.methods:
            _check_member(method, SamplingMethod, "sampling method")
        for q in self.q:
            _check_point(None, None, None, q)
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
        if not math.isfinite(hi - lo):  # also where either endpoint is not finite
            raise ValueError(f"range axis endpoints and their span must be finite, got {text!r}")
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
    comma list (100,1000), lin:LO:HI:COUNT, or log:LO:HI:COUNT, and each
    key may be given once. '#' starts a comment.
    """
    fields: dict = {}
    given: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"grid file line {lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.lower()
        if key in given:
            raise ValueError(f"grid file line {lineno}: key {key!r} given twice")
        given.add(key)
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
) -> Series:
    """One record per grid point with every per-inequality term, the
    combined confidence, and optional exact / simulation columns.

    The records come as a `Series`: numpy columns from one `evaluate_grid`
    call over the whole grid, a record built only when it is read, and
    each distinct value of a column printed once by `write_series_csv`.
    Points that violate preconditions are emitted with a degenerate or
    invalid status instead of being dropped. The simulation draws the
    i-th point whose status is not invalid (from 0, in record order) under
    seed `(seed + 1_000_003 * i) % 2**64`, where `seed` must itself be an
    unsigned 64-bit integer; an invalid point takes no seed.
    """
    _check_seed(seed)
    seed = operator.index(seed)  # a numpy uint64 overflows the per-point sum
    if spec.p is not None:
        sel = [(n, min(round(float(v) * n), n), float(v)) for n in spec.n for v in spec.p]
    else:
        sel = [(n, int(c), c / n) for n in spec.n for c in spec.c]
    n_axis, c_axis, p_axis = zip(*sel)
    # rows in itertools.product(n, p or c, k, q, methods) order
    shape = (len(sel), len(spec.k), len(spec.q), len(spec.methods))

    levels: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def spread(name: str, values, axis: int, dtype) -> np.ndarray:
        """One axis's values at every grid point, in product order; the
        typed values are the column's levels, and each point's axis index
        its code."""
        dims = [1] * len(shape)
        dims[axis] = -1
        typed = np.array(values, dtype=dtype)
        codes = np.broadcast_to(np.arange(typed.size).reshape(dims), shape).ravel()
        levels[name] = (typed, codes)
        return typed[codes]

    p, n = spread("p", p_axis, 0, np.float64), spread("n", n_axis, 0, np.int64)
    k, q = spread("k", spec.k, 1, np.int64), spread("q", spec.q, 2, np.float64)
    c = spread("c", c_axis, 0, np.int64)
    method = spread("method", [m.value for m in spec.methods], 3, object)
    wor = np.array([m is SamplingMethod.WITHOUT_REPLACEMENT for m in spec.methods])[
        levels["method"][1]]
    invalid = wor & (k >= n)
    degenerate = ~invalid & (p == 0.0)
    ok = ~invalid & ~degenerate
    valid = ~invalid
    chosen = default_inequalities(SamplingMethod.WITH_REPLACEMENT, spec.include_hoeffding)
    bounds = evaluate_grid(p[ok], k[ok], n[ok], q[ok], wor[ok], chosen | DEFAULT_WOR_KINDS)

    codes = np.zeros(p.size, dtype=np.intp)
    codes[degenerate] = 1
    codes[invalid] = 2
    levels["status"] = (np.array(["ok", "degenerate", "invalid"], dtype=object), codes)
    status = levels["status"][0][codes]
    values = {"method": method, "n": n, "c": c, "p": p, "k": k, "q": q, "status": status}
    present: dict[str, np.ndarray] = {}

    def put(name: str, rows: np.ndarray, computed) -> None:
        """A float column: `computed` in the rows marked, None in the others."""
        values[name] = np.full(p.size, np.nan)
        values[name][rows] = computed
        present[name] = rows

    for (kind, side), term in bounds.terms.items():
        applies = ok & (wor == (kind in WITHOUT_REPLACEMENT_KINDS))
        put(f"{kind.value}_{side.value}", applies, term[applies[ok]])
    put("omega", ok, bounds.omega)
    put("psi", ok, bounds.psi)
    confidence = np.zeros(p.size)  # a degenerate point's confidence is 0
    confidence[ok] = bounds.confidence
    put("confidence", valid, confidence[valid])

    exact, rate, error = [], [], []
    if with_exact or with_simulation:
        points = zip(*(values[name][valid].tolist() for name in ("method", "n", "c", "k", "q")))
        for index, (method_i, n_i, c_i, k_i, q_i) in enumerate(points):
            if with_exact:  # the point passed GridSpec and the grid's array rule
                exact.append(_exact_confidence(SamplingMethod(method_i), n_i, c_i, k_i, q_i))
            if with_simulation:
                summary = run_simulation(SimulationConfig(
                    pop=PopulationSpec(n=n_i, cardinality=c_i),
                    design=SampleDesign(method=SamplingMethod(method_i), k=k_i),
                    q=q_i, trials=trials, seed=(seed + 1_000_003 * index) % 2**64,
                ))
                rate.append(summary.empirical_rate)
                error.append(summary.standard_error)
    nothing = np.zeros(p.size, dtype=bool)
    unasked = (np.array([np.nan]), np.zeros(p.size, dtype=np.intp))  # one level, NaN: NA
    for name, computed in (("exact", exact), ("empirical_rate", rate), ("standard_error", error)):
        put(name, valid if computed else nothing, computed)
        if not computed:
            levels[name] = unasked
    return Series(values, present, levels)


def write_series_csv(records: Sequence[dict], out: IO[str]) -> None:
    """Series records as CSV: 9 significant digits, None and NaN as NA;
    a `Series` is printed from its columns, each level or distinct value once."""
    write_csv(records, _SERIES_CSV, out)
