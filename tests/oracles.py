"""Independent high-precision evaluators that pin expected test values.

Everything here recomputes the closed forms with mpmath (50 digits) or by
brute-force enumeration, deliberately avoiding the library's own code
paths: the direct power forms instead of log-space assembly, the raw
minus-square-root expression instead of the rationalized one, plain
combinatorial sums instead of the pmf-ratio window. The CSV loader
is pinned by its original csv.reader record split and per-cell parser.
"""

import csv
import re

import mpmath as mp

mp.mp.dps = 50


def workdps(n):
    """Working precision for pmfs of a table of n rows: their log-gamma
    terms have size n ln n, so precision grows with the digits of n."""
    return mp.workdps(max(50, 30 + 2 * len(str(n))))


def chernoff(p, k, q, side):
    p, q = mp.mpf(p), mp.mpf(q)
    if side == "over":
        value = (mp.e ** (q - 1) / q**q) ** (p * k)
    else:
        value = (mp.e ** (1 / q - 1) * q ** (1 / q)) ** (p * k)
    return min(mp.mpf(1), value)


def bernstein(p, k, q, side):
    p, q = mp.mpf(p), mp.mpf(q)
    eps = p * q - p if side == "over" else p - p / q
    if eps == 0:
        return mp.mpf(1)
    var = p * (1 - p)
    return min(mp.mpf(1), mp.exp(-k * eps**2 / (2 * var + 2 * eps / 3)))


def hoeffding(p, k, q, side):
    """Returns None when the under side is inapplicable (pq <= 1)."""
    p, q = mp.mpf(p), mp.mpf(q)
    if side == "over":
        return min(mp.mpf(1), mp.exp(-2 * p**2 * (q - 1) ** 2 * k))
    if p * q <= 1:
        return None
    return min(mp.mpf(1), mp.exp(-2 * k * (p * q - 1) ** 2 / q**2))


def serfling_rho_zeta(k, n):
    km, nm = mp.mpf(k), mp.mpf(n)
    if 2 * k <= n:
        rho = 1 - (km - 1) / nm
        zeta = mp.mpf(4) / 3 + mp.sqrt(km * (km - 1) / (nm * (nm - km + 1)))
    else:
        rho = (1 - km / nm) * (1 + 1 / km)
        zeta = mp.mpf(4) / 3 + mp.sqrt((nm - km - 1) * (nm - km) / ((km + 1) * nm))
    return rho, zeta


def hoeffding_serfling(p, k, n, q, side):
    p, q = mp.mpf(p), mp.mpf(q)
    rho, _ = serfling_rho_zeta(k, n)
    eps = p * q - p if side == "over" else p - p / q
    return min(mp.mpf(1), mp.exp(-2 * k * eps**2 / rho))


def bernstein_serfling(p, k, n, q, side):
    p, q = mp.mpf(p), mp.mpf(q)
    rho, zeta = serfling_rho_zeta(k, n)
    var = p * (1 - p)
    eps = p * q - p if side == "over" else p - p / q
    inner = -mp.sqrt(2 * zeta * rho * var * eps + rho**2 * var**2) + eps * zeta + var * rho
    return min(mp.mpf(1), 2 * mp.exp(-(k / zeta**2) * inner))


def conf_wr(p, k, q, with_hoeffding=False):
    overs = [chernoff(p, k, q, "over"), bernstein(p, k, q, "over")]
    unders = [chernoff(p, k, q, "under"), bernstein(p, k, q, "under")]
    if with_hoeffding:
        overs.append(hoeffding(p, k, q, "over"))
        under = hoeffding(p, k, q, "under")
        if under is not None:
            unders.append(under)
    return max(mp.mpf(0), 1 - min(overs) - min(unders))


def conf_wor(p, k, n, q):
    overs = [hoeffding_serfling(p, k, n, q, "over"), bernstein_serfling(p, k, n, q, "over")]
    unders = [hoeffding_serfling(p, k, n, q, "under"), bernstein_serfling(p, k, n, q, "under")]
    return max(mp.mpf(0), 1 - min(overs) - min(unders))


def binom_sum(k, p, lo, hi):
    p = mp.mpf(p)
    total = mp.mpf(0)
    for x in range(max(lo, 0), min(hi, k) + 1):
        total += mp.binomial(k, x) * p**x * (1 - p) ** (k - x)
    return total


def hypergeom_sum(n, c, k, lo, hi):
    lo = max(lo, 0, k - (n - c))
    hi = min(hi, k, c)
    total = mp.mpf(0)
    for x in range(lo, hi + 1):
        total += mp.binomial(c, x) * mp.binomial(n - c, k - x) / mp.binomial(n, k)
    return total


def brute_q_error(est, truth):
    e = max(float(est), 1.0)
    t = max(float(truth), 1.0)
    return max(t / e, e / t)


def brute_admissible_set(n, c, k, q):
    """Every hit count whose scaled estimate passes the clamped metric."""
    return {x for x in range(k + 1) if brute_q_error(n * x / k, c) <= q}


# The loader's original cell-by-cell type inference -------------------------

_INT_RE = re.compile(r"[+-]?\d+\Z")


def parse_cell(text):
    if _INT_RE.match(text):
        return "integer", int(text)
    if "_" in text:
        return "text", text  # float() would accept 1_0; ids stay text
    try:
        return "real", float(text)
    except ValueError:
        return "text", text


def reference_column(cells):
    """(type, values) of one column of stripped cells."""
    parsed = [parse_cell(cell) for cell in cells]
    kinds = {kind for kind, _ in parsed}
    if "text" in kinds:
        return "text", list(cells)
    if "real" in kinds:
        return "real", [float(value) for _, value in parsed]
    return "integer", [value for _, value in parsed]


def reference_table(path, delimiter=",", header=True):
    """(column names, [(type, values)]) of a delimited file as the loader
    originally read it: csv.reader's records, blank ones skipped, every
    cell stripped, each column through `reference_column`. A file the
    loader rejects raises ValueError with the text after the path."""
    with open(path, newline="", encoding="utf-8") as handle:
        records = [(line, row)
                   for line, row in enumerate(csv.reader(handle, delimiter=delimiter), start=1)
                   if row]
    if header:
        if not records:
            raise ValueError("empty file")
        line, row = records.pop(0)
        names = [cell.strip() for cell in row]
        for i, name in enumerate(names):
            if name in names[:i]:
                raise ValueError(f"line {line}: duplicate column name {name!r}")
    if not records:
        raise ValueError("no data rows")
    if not header:
        names = [f"col{i}" for i in range(len(records[0][1]))]
    for line, row in records:
        if len(row) != len(names):
            raise ValueError(f"line {line}: expected {len(names)} fields, got {len(row)}")
    return names, [reference_column([row[i].strip() for _, row in records])
                   for i in range(len(names))]
