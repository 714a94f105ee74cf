"""Independent reference for the `grid` workload's outputs.

`expected_series` recomputes every row of a `figures` series.csv with
numpy, straight from the paper's five inequalities, and `compare_series`
checks a written file against it at the precision of the file's 9
significant digits. `reference_series.csv` beside this file is the
series the library wrote for `canonical_grid.txt` when the benchmark was
defined; the worker checks both the library and this module against it,
so a wrong reference cannot pass silently.
"""

from __future__ import annotations

import itertools
import os

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
CANONICAL_GRID = os.path.join(HERE, "canonical_grid.txt")
RECORDED_SERIES = os.path.join(HERE, "reference_series.csv")

KINDS = ("chernoff", "bernstein", "hoeffding", "hoeffding_serfling", "bernstein_serfling")
WR_KINDS = KINDS[:3]
WOR_KINDS = KINDS[3:]
TERM_COLUMNS = [f"{kind}_{side}" for kind in KINDS for side in ("over", "under")]
COLUMNS = (
    ["method", "n", "c", "p", "k", "q", "status"]
    + TERM_COLUMNS
    + ["omega", "psi", "confidence", "exact", "empirical_rate", "standard_error"]
)
TEXT_COLUMNS = ("method", "n", "c", "k", "status")

# A 9-significant-digit cell is within half a unit of its ninth digit of
# the value, and two such cells of equal values within one unit: 1e-8
# relative at most. The confidence 1 - omega - psi can cancel, so it also
# gets an absolute slack.
REL_TOL = 1.1e-8
ABS_TOL = {"confidence": 1e-14}

# Table 1 of the paper, two-decimal cells at n = 1e6, q = 2:
# (R@100, NR@100, R@1000, NR@1000, R@10000, NR@10000).
GOLDEN_TABLE1 = {
    166:     ("0.00", "0.00", "0.00", "0.00", "0.00", "0.00"),
    333:     ("0.00", "0.00", "0.00", "0.00", "0.12", "0.00"),
    500:     ("0.00", "0.00", "0.00", "0.00", "0.39", "0.00"),
    666:     ("0.00", "0.00", "0.00", "0.00", "0.56", "0.00"),
    833:     ("0.00", "0.00", "0.00", "0.00", "0.68", "0.00"),
    1000:    ("0.00", "0.00", "0.00", "0.00", "0.76", "0.00"),
    1666:    ("0.00", "0.00", "0.00", "0.00", "0.92", "0.42"),
    3333:    ("0.00", "0.00", "0.12", "0.00", "0.99", "0.85"),
    5000:    ("0.00", "0.00", "0.39", "0.00", "1.00", "0.96"),
    6666:    ("0.00", "0.00", "0.56", "0.00", "1.00", "0.99"),
    8333:    ("0.00", "0.00", "0.68", "0.00", "1.00", "1.00"),
    10000:   ("0.00", "0.00", "0.76", "0.00", "1.00", "1.00"),
    166666:  ("0.92", "0.75", "1.00", "1.00", "1.00", "1.00"),
    333333:  ("0.99", "1.00", "1.00", "1.00", "1.00", "1.00"),
    500000:  ("1.00", "1.00", "1.00", "1.00", "1.00", "1.00"),
    666666:  ("1.00", "1.00", "1.00", "1.00", "1.00", "1.00"),
    833333:  ("1.00", "1.00", "1.00", "1.00", "1.00", "1.00"),
    1000000: ("1.00", "1.00", "1.00", "1.00", "1.00", "1.00"),
}
TABLE1_CELLS = ("r100", "nr100", "r1000", "nr1000", "r10000", "nr10000")


def read_grid(text: str) -> dict:
    """The comma-list subset of the grid-file format that the benchmark writes."""
    axes = {}
    for line in text.splitlines():
        key, value = (part.strip() for part in line.split("=", 1))
        axes[key] = [part.strip() for part in value.split(",")]
    return {
        "methods": axes["method"],
        "hoeffding": axes["include_hoeffding"] == ["true"],
        "n": [int(v) for v in axes["n"]],
        "p": [float(v) for v in axes["p"]],
        "k": [int(v) for v in axes["k"]],
        "q": [float(v) for v in axes["q"]],
    }


def _clamped_exp(x):
    return np.minimum(1.0, np.exp(x))


def _wr_terms(p, k, q) -> dict:
    lnq = np.log(q)
    var = p * (1.0 - p)
    out = {
        "chernoff_over": _clamped_exp(p * k * ((q - 1.0) - q * lnq)),
        "chernoff_under": _clamped_exp(p * k * ((1.0 / q - 1.0) + lnq / q)),
        "hoeffding_over": _clamped_exp(-2.0 * p * p * (q - 1.0) ** 2 * k),
        "hoeffding_under": np.where(
            p * q > 1.0, _clamped_exp(-2.0 * k * (p * q - 1.0) ** 2 / (q * q)), np.nan
        ),
    }
    for side, eps in (("over", p * (q - 1.0)), ("under", p * (1.0 - 1.0 / q))):
        with np.errstate(divide="ignore", invalid="ignore"):
            value = _clamped_exp(-k * eps * eps / (2.0 * var + 2.0 * eps / 3.0))
        out[f"bernstein_{side}"] = np.where(eps <= 0.0, 1.0, value)
    return out


def _wor_terms(p, k, n, q) -> dict:
    first = 2 * k <= n
    rho = np.where(first, 1.0 - (k - 1) / n, (1.0 - k / n) * (1.0 + 1.0 / k))
    with np.errstate(invalid="ignore"):
        zeta = 4.0 / 3.0 + np.where(
            first,
            np.sqrt(k * (k - 1.0) / (n * (n - k + 1.0))),
            np.sqrt((n - k - 1.0) * (n - k) / ((k + 1.0) * n)),
        )
    var = p * (1.0 - p)
    out = {}
    for side, eps in (("over", p * (q - 1.0)), ("under", p * (1.0 - 1.0 / q))):
        out[f"hoeffding_serfling_{side}"] = _clamped_exp(-2.0 * k * eps * eps / rho)
        root = np.sqrt(2.0 * zeta * rho * var * eps + (rho * var) ** 2)
        denom = eps * zeta + var * rho + root
        with np.errstate(divide="ignore", invalid="ignore"):
            inner = np.where(denom == 0.0, 0.0, (eps * zeta) ** 2 / denom)
        out[f"bernstein_serfling_{side}"] = np.minimum(1.0, 2.0 * np.exp(-(k / (zeta * zeta)) * inner))
    return out


def _side_min(terms: dict, kinds, side: str):
    stacked = np.stack([terms[f"{kind}_{side}"] for kind in kinds])
    best = np.nanmin(np.where(np.isnan(stacked), np.inf, stacked), axis=0)
    return np.where(np.isinf(best), 1.0, best)


def expected_series(grid: dict) -> dict:
    """Column name -> array of expected values (NaN for NA; text columns
    as strings), one entry per row in the library's row order."""
    rows = list(itertools.product(grid["n"], grid["p"], grid["k"], grid["q"], grid["methods"]))
    n = np.array([r[0] for r in rows], dtype=np.float64)
    p = np.array([r[1] for r in rows])
    k = np.array([r[2] for r in rows], dtype=np.float64)
    q = np.array([r[3] for r in rows])
    method = np.array([r[4] for r in rows])
    c = np.round(p * n)
    wor = method == "wor"
    invalid = wor & (k >= n)
    degenerate = ~invalid & (p == 0.0)
    ok = ~invalid & ~degenerate

    out = {col: np.full(len(rows), np.nan) for col in COLUMNS if col not in TEXT_COLUMNS}
    out["p"], out["q"] = p, q
    out["method"] = method
    out["n"] = np.array([str(r[0]) for r in rows])
    out["k"] = np.array([str(r[2]) for r in rows])
    out["c"] = np.array([str(int(v)) for v in c])
    out["status"] = np.where(invalid, "invalid", np.where(degenerate, "degenerate", "ok"))
    out["confidence"][degenerate] = 0.0

    for is_wor, kinds, chosen in (
        (False, WR_KINDS, WR_KINDS if grid["hoeffding"] else WR_KINDS[:2]),
        (True, WOR_KINDS, WOR_KINDS),
    ):
        sel = ok & (wor == is_wor)
        if not sel.any():
            continue
        if is_wor:
            terms = _wor_terms(p[sel], k[sel], n[sel], q[sel])
        else:
            terms = _wr_terms(p[sel], k[sel], q[sel])
        for name, values in terms.items():
            out[name][sel] = values
        omega = _side_min(terms, chosen, "over")
        psi = _side_min(terms, chosen, "under")
        out["omega"][sel] = omega
        out["psi"][sel] = psi
        out["confidence"][sel] = np.maximum(0.0, 1.0 - omega - psi)
    return out


def parse_series(text: str) -> dict:
    """A series.csv read back into the column form of expected_series."""
    lines = text.splitlines()
    columns = zip(*(line.split(",") for line in lines[1:]))
    return {
        col: np.array(values) if col in TEXT_COLUMNS
        else np.array([v if v != "NA" else "nan" for v in values], dtype=np.float64)
        for col, values in zip(lines[0].split(","), columns)
    }


def check_oracle() -> list[str]:
    """Mismatches between this module and the recorded library output."""
    with open(CANONICAL_GRID, encoding="utf-8") as handle:
        grid = read_grid(handle.read())
    with open(RECORDED_SERIES, encoding="utf-8") as handle:
        return compare_series(handle.read(), expected_series(grid))


def compare_series(text: str, expected: dict) -> list[str]:
    """Mismatches between a written series.csv and the expected columns."""
    lines = text.splitlines()
    if not lines or lines[0].split(",") != COLUMNS:
        return [f"series header differs: {lines[:1]}"]
    cells = [line.split(",") for line in lines[1:]]
    n_rows = len(expected["status"])
    if len(cells) != n_rows or any(len(row) != len(COLUMNS) for row in cells):
        return [f"series has {len(cells)} rows, expected {n_rows}"]
    problems = []
    for col, values in zip(COLUMNS, zip(*cells)):
        want = expected[col]
        if col in TEXT_COLUMNS:
            bad = np.flatnonzero(np.array(values) != want)
        else:
            got = parse_series(f"{col}\n" + "\n".join(values))[col]
            same_na = np.isnan(got) == np.isnan(want)
            slack = REL_TOL * np.maximum(np.abs(got), np.abs(want)) + ABS_TOL.get(col, 0.0)
            with np.errstate(invalid="ignore"):
                close = np.isnan(got) | (np.abs(got - want) <= slack)
            bad = np.flatnonzero(~(same_na & close))
        for row in bad[:3]:
            problems.append(f"row {row + 1} column {col}: got {values[row]}, expected {want[row]}")
    return problems


def compare_table1(text: str) -> list[str]:
    """Mismatches between a table1 CSV and the 108 published two-decimal cells."""
    lines = text.splitlines()
    header = lines[0].split(",") if lines else []
    wanted = ["c"] + [f"{cell}_2dp" for cell in TABLE1_CELLS]
    if any(col not in header for col in wanted):
        return [f"table1 header lacks {wanted}: {header}"]
    index = [header.index(col) for col in wanted]
    rows = {}
    for line in lines[1:]:
        cells = line.split(",")
        rows[int(cells[index[0]])] = tuple(cells[i] for i in index[1:])
    if set(rows) != set(GOLDEN_TABLE1):
        return [f"table1 cardinalities differ: {sorted(rows)}"]
    return [
        f"table1 c={c} {cell}: got {got}, published {want}"
        for c, printed in GOLDEN_TABLE1.items()
        for cell, got, want in zip(TABLE1_CELLS, rows[c], printed)
        if got != want
    ]
