"""Seeded input generation for the three workloads.

Everything here runs in the benchmark's parent process, before the
workload process starts, so its time and memory are not charged to the
program. The same seed always gives byte-identical input files.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

# grid -----------------------------------------------------------------------

GRID_FILES = 6
GRID_P_POINTS = 9  # plus the p = 0 point
GRID_K_POINTS = 6  # plus one k in [n/2, n) and one k >= n, for n = 1e6
GRID_Q_POINTS = 8
GRID_HALF_K = (500_000, 750_000)
GRID_OVER_K = (1_000_000, 2_000_000)


def _floats(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def grid_file_text(rng: np.random.Generator) -> str:
    """One `figures` grid: both methods, Hoeffding on, n in {1e6, 1e9},
    log-uniform p in [1e-5, 0.5] plus p = 0, log-uniform k in [10, 1e5]
    plus one k in [n/2, n) and one k >= n (invalid for WOR) at n = 1e6,
    and log-uniform q in [1.05, 10]: 2 560 points."""
    p = np.sort(10 ** rng.uniform(-5, math.log10(0.5), GRID_P_POINTS))
    k = set(np.rint(10 ** rng.uniform(1, 5, GRID_K_POINTS)).astype(int).tolist())
    while len(k) < GRID_K_POINTS:
        k.add(int(rng.integers(10, 100_001)))
    k.add(int(rng.choice(GRID_HALF_K)))
    k.add(int(rng.choice(GRID_OVER_K)))
    q = np.sort(1.05 * (10 / 1.05) ** rng.uniform(0, 1, GRID_Q_POINTS))
    return (
        "method = wr,wor\n"
        "include_hoeffding = true\n"
        "n = 1000000,1000000000\n"
        f"p = 0,{_floats(p)}\n"
        f"k = {','.join(str(v) for v in sorted(k))}\n"
        f"q = {_floats(q)}\n"
    )


def make_grid(rng: np.random.Generator, out_dir: str) -> dict:
    files = []
    for i in range(GRID_FILES):
        path = os.path.join(out_dir, f"grid{i}.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(grid_file_text(rng))
        files.append(path)
    return {"grid_files": files}


# plan -----------------------------------------------------------------------

PLAN_ROUNDS = 3000
PLAN_POINTS = 6  # four bound questions and one per solver, each round
STRATA = 60
TARGETS = (0.9, 0.95, 0.99)
REJECT_SHARE = 0.02
METHODS = ("wr", "wor")


def _log_between(u: float, lo: float, hi: float) -> float:
    return float(10 ** (math.log10(lo) + u * (math.log10(hi) - math.log10(lo))))


def _stratified(rng, count: int) -> np.ndarray:
    """Uniforms in [0, 1) where each block of STRATA consecutive values has
    one value in each of STRATA equal strata. A run uses whole blocks, so
    every seed draws nearly the same distribution of each parameter and the
    latency percentiles do not move with the seed; the pairing of
    parameters and their order still do."""
    blocks = -(-count // STRATA)
    return ((rng.permuted(np.tile(np.arange(STRATA), (blocks, 1)), axis=1)
             + rng.random((blocks, STRATA))) / STRATA).ravel()[:count]


def _plan_point(u, method: str) -> dict:
    """n, k, c, q from four uniforms, as the planner draws them; p = c / n."""
    n = int(_log_between(u[0], 1e5, 1e9))
    k = int(_log_between(u[1], 10, min(1e7, n / 3)))
    c = max(1, round(_log_between(u[2], 1e-4, 0.5) * n))
    q = 1.0 + _log_between(u[3], 0.03, 10.0)
    return {"method": method, "n": n, "k": k, "c": c, "q": q}


# Out-of-domain variants each op type must reject with ValueError.
# Non-finite q or p is deliberately absent: the library's answer to it is
# not defined yet, so it cannot be scored.
_REJECT_KINDS = {
    "bound": ("q_below_1", "p_above_1", "wor_k_ge_n", "k_below_1"),
    "solve_k": ("q_below_1", "p_above_1"),
    "solve_q": ("p_above_1", "wor_k_ge_n", "k_below_1"),
    "exact": ("q_below_1", "p_above_1", "wor_k_ge_n", "k_below_1"),
    "simulate": ("q_below_1", "p_above_1", "wor_k_ge_n", "k_below_1"),
}


def _make_invalid(rng, op: str, point: dict) -> dict:
    point = dict(point)
    kind = _REJECT_KINDS[op][int(rng.integers(len(_REJECT_KINDS[op])))]
    if kind == "q_below_1":
        point["q"] = 1.0 - float(rng.uniform(0.01, 0.5))
    elif kind == "p_above_1":
        point["c"] = point["n"] + 1 + int(rng.integers(point["n"]))
    elif kind == "wor_k_ge_n":
        point["method"] = "wor"
        point["k"] = point["n"] + int(rng.integers(0, 3))
    else:
        point["k"] = -int(rng.integers(0, 3))
    point["reject"] = kind
    return point


def _plan_op(rng, op: str, point: dict, **links) -> dict:
    if rng.random() < REJECT_SHARE:
        point = _make_invalid(rng, op, point)
    return {"op": op, **point, **links}


def plan_round(rng, index: int, u: np.ndarray) -> list[dict]:
    """One planner round from a (PLAN_POINTS, 5) array of uniforms: four
    bound questions, a solve for k, a solve for q, the exact probability at
    each bound question's point (for soundness), and a simulation at the
    first one (for Monte Carlo agreement with its exact value).

    Methods alternate, so every kind of question is asked as often with
    as without replacement."""
    one, other = METHODS[index % 2], METHODS[1 - index % 2]
    points = [_plan_point(u[j], (one, other)[j % 2]) for j in range(PLAN_POINTS)]
    ops = [_plan_op(rng, "bound", points[j]) for j in range(4)]
    ops.append(_plan_op(rng, "solve_k", {**points[4], "target": TARGETS[index % 3]}))
    ops.append(_plan_op(rng, "solve_q", {**points[5], "target": TARGETS[(index + 1) % 3]}))
    ops += [_plan_op(rng, "exact", points[j], bound_op=j) for j in range(4)]
    trials = int(2 ** (14 + 4 * u[0][4]))
    ops.append(_plan_op(rng, "simulate", {**points[0], "trials": trials,
                                          "seed": int(rng.integers(2**63))}, exact_op=6))
    return ops


def make_plan(rng: np.random.Generator, out_dir: str) -> dict:
    u = np.stack([_stratified(rng, PLAN_ROUNDS) for _ in range(PLAN_POINTS * 5)], axis=1)
    u = u.reshape(PLAN_ROUNDS, PLAN_POINTS, 5)
    path = os.path.join(out_dir, "plan.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump([plan_round(rng, i, u[i]) for i in range(PLAN_ROUNDS)], handle)
    return {"rounds": path}


# estimate -------------------------------------------------------------------

TABLE_ROWS = 200_000
ESTIMATE_QUERIES = 600
NUM_MAX = 1_000_000
X_MAX = 1000.0
DELTA_MIN = -100_000
TAG_WORDS = 400


def _tag_vocabulary(rng) -> tuple[list[str], np.ndarray]:
    """Text ids with `_`, some carrying an apostrophe, under a Zipf-like
    frequency so that equality atoms span selectivities 1e-5 .. 0.2."""
    words = []
    for i in range(TAG_WORDS):
        stem = ("o'k", "it's", "tag", "id")[i % 4]
        words.append(f"{stem}_{i:04d}")
    weights = 1.0 / np.arange(1, TAG_WORDS + 1) ** 1.3
    weights = rng.permutation(weights / weights.sum())
    return words, weights


def _table(rng):
    words, weights = _tag_vocabulary(rng)
    cols = {
        "num": rng.integers(0, NUM_MAX, TABLE_ROWS),
        "x": np.round(rng.uniform(0.0, X_MAX, TABLE_ROWS), 4),
        "tag": rng.choice(TAG_WORDS, TABLE_ROWS, p=weights),  # index into words
        "delta": rng.integers(DELTA_MIN, 0, TABLE_ROWS),
    }
    # a real column must never print as an integer, or the loader would
    # type it integer; nudge exact integers off the grid
    whole = cols["x"] == np.floor(cols["x"])
    cols["x"][whole] += 0.5
    return cols, words


def _quote(text: str) -> str:
    return "'" + text.replace("'", "''") + "'"


def _atom(column: str, share: float, cols, words, freqs) -> tuple[str, np.ndarray]:
    """A predicate atom on `column` that selects about `share` of the rows,
    with the boolean mask the generator expects it to select."""
    if column == "num":
        t = max(1, int(round(share * NUM_MAX)))
        return f"num < {t}", cols["num"] < t
    if column == "x":
        t = round(X_MAX * (1.0 - share), 6)
        return f"x >= {t!r}", cols["x"] >= t
    if column == "delta":
        t = DELTA_MIN + max(1, int(round(share * -DELTA_MIN)))
        return f"delta < {t}", cols["delta"] < t
    if share > 0.5:
        word = int(np.argmin(np.abs((1.0 - freqs) - share)))
        return f"tag != {_quote(words[word])}", cols["tag"] != word
    word = int(np.argmin(np.abs(np.log(freqs + 1e-9) - math.log(share))))
    return f"tag = {_quote(words[word])}", cols["tag"] == word


def _estimate_query(rng, i: int, u, cols, words, freqs) -> dict:
    """Query i of a fixed pattern, so every seed has the same mix: methods
    alternate, 1-3 atoms cycle, every fourth block of six passes assume_p
    (a quarter), every twentieth a target confidence (5%) and every
    fiftieth is a bad predicate (2%). k and the selectivity come from
    stratified uniforms `u`."""
    method = METHODS[i % 2]
    k = int(_log_between(u[0], 100, 5e4))
    qs = sorted({round(1.1 + float(rng.uniform(0, 8.9)), 3) for _ in range(int(rng.integers(1, 4)))})
    query = {"method": method, "k": k, "qs": qs, "seed": int(rng.integers(2**63)),
             "assume_p": None, "target": None, "expect_cardinality": None, "bad": None}
    if i % 50 == 49:
        if i // 50 % 2:
            query["predicate"] = f"nosuch < {int(rng.integers(100))}"
            query["bad"] = "unknown_column"
        else:
            query["predicate"] = f"tag < {_quote(words[int(rng.integers(TAG_WORDS))])}"
            query["bad"] = "text_less_than"
        return query
    share = _log_between(u[1], 1e-4, 0.5)
    m = 1 + i // 2 % 3
    columns = rng.choice(["num", "x", "tag", "delta"], m, replace=False)
    texts, mask = [], np.ones(TABLE_ROWS, dtype=bool)
    for column in columns:
        text, atom_mask = _atom(str(column), share ** (1.0 / m), cols, words, freqs)
        texts.append(text)
        mask &= atom_mask
    query["predicate"] = " AND ".join(texts)
    if i // 6 % 4 == 1:
        query["assume_p"] = share
    else:
        query["expect_cardinality"] = int(np.count_nonzero(mask))
    if i % 20 == 10:
        query["target"] = TARGETS[int(rng.integers(3))]
    return query


def _write_csv(path: str, cols, words) -> None:
    lines = ["num,x,tag,delta"]
    lines += [
        f"{a},{b!r},{words[c]},{d}"
        for a, b, c, d in zip(cols["num"].tolist(), cols["x"].tolist(),
                              cols["tag"].tolist(), cols["delta"].tolist())
    ]
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


def _write_warmup_table(path: str) -> None:
    """A tiny fixed table for the warm-up, identical for every seed."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("num,x,tag,delta\n")
        for i in range(50):
            handle.write(f"{i},{i + 0.25},it's_{i % 5:04d},{-i - 1}\n")


def make_estimate(rng: np.random.Generator, out_dir: str) -> dict:
    warmup_path = os.path.join(out_dir, "warmup.csv")
    _write_warmup_table(warmup_path)
    cols, words = _table(rng)
    freqs = np.bincount(cols["tag"], minlength=TAG_WORDS) / TABLE_ROWS
    table_path = os.path.join(out_dir, "table.csv")
    _write_csv(table_path, cols, words)
    u = np.stack([_stratified(rng, ESTIMATE_QUERIES) for _ in range(2)], axis=1)
    queries = [_estimate_query(rng, i, u[i], cols, words, freqs) for i in range(ESTIMATE_QUERIES)]
    path = os.path.join(out_dir, "estimate.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(queries, handle)
    return {"table": table_path, "queries": path, "rows": TABLE_ROWS, "warmup_table": warmup_path}


MAKERS = {"grid": make_grid, "plan": make_plan, "estimate": make_estimate}


def generate(workload: str, seed: int, out_dir: str) -> dict:
    """Write the workload's seeded inputs under out_dir and return a manifest."""
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng([seed, sorted(MAKERS).index(workload)])
    return {"workload": workload, "seed": seed, **MAKERS[workload](rng, out_dir)}
