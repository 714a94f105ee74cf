"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import itertools
import math
import time
from pathlib import Path

import numpy as np
import pytest

from qbounds import (
    InequalityKind,
    PopulationSpec,
    SampleDesign,
    SamplingMethod,
    Side,
    Unreachable,
    estimate_with_bounds,
    evaluate_confidence,
    exact_confidence,
    figure_series,
    hoeffding_serfling_term,
    load_table,
    min_sample_size,
    parse_predicate,
    q_at_confidence,
    q_error,
    table1,
    true_cardinality,
)
from qbounds.reports import cells, parse_grid_file, write_series_csv

COMPARISON_GRID = Path(__file__).resolve().parent.parent / "scripts" / "comparison_grid.txt"

WR = SamplingMethod.WITH_REPLACEMENT
WOR = SamplingMethod.WITHOUT_REPLACEMENT
CB = frozenset({InequalityKind.CHERNOFF, InequalityKind.BERNSTEIN})
CBH = frozenset({InequalityKind.CHERNOFF, InequalityKind.BERNSTEIN,
                 InequalityKind.HOEFFDING})
HSBS = frozenset({InequalityKind.HOEFFDING_SERFLING,
                  InequalityKind.BERNSTEIN_SERFLING})


def _criterion(num, name):
    """Print the one-line verdict for a criterion, failing loudly."""
    class _Reporter:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            verdict = "PASS" if exc_type is None else "FAIL"
            print(f"ACCEPTANCE {num} ({name}): {verdict}")
            return False

    return _Reporter()


# Published two-decimal cells: (R@100, NR@100, R@1000, NR@1000, R@10000, NR@10000).
GOLDEN_TABLE = {
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
CELL_KEYS = ("r100", "nr100", "r1000", "nr1000", "r10000", "nr10000")


def test_criterion_1_golden_table():
    with _criterion(1, "golden table reproduction"):
        start = time.perf_counter()
        rows = table1(n=10**6, q=2.0)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"table1 took {elapsed:.3f}s"
        assert len(rows) == 18
        checked = 0
        for row in rows:
            printed = GOLDEN_TABLE[row["c"]]
            for key, want in zip(CELL_KEYS, printed):
                value = row[key]
                if want == "1.00":
                    assert value > 0.995, (row["c"], key, value)
                else:
                    assert value <= 0.995, (row["c"], key, value)
                    assert cells([value], "%.2f")[0] == want, (row["c"], key, value, want)
                checked += 1
        assert checked == 108


def test_criterion_2_spot_values():
    with _criterion(2, "full-precision spot values"):
        n = 10**6
        assert evaluate_confidence(WR, 0.005, 1000, 2.0).confidence == pytest.approx(0.39, abs=0.005)
        assert evaluate_confidence(WR, 166666 / n, 100, 2.0).confidence == pytest.approx(0.92, abs=0.005)
        assert evaluate_confidence(WOR, 166666 / n, 100, 2.0, n=n).confidence == pytest.approx(0.75, abs=0.005)
        assert evaluate_confidence(WOR, 1666 / n, 10000, 2.0, n=n).confidence == pytest.approx(0.42, abs=0.005)
        assert evaluate_confidence(WOR, 5000 / n, 10000, 2.0, n=n).confidence == pytest.approx(0.96, abs=0.005)


def _soundness_grid():
    p_targets = np.logspace(-5, 0, 10)
    ks = (10, 30, 100, 300, 1000, 3000, 10000, 30000, 100000)
    qs = (1.0, 1.1, 2.0, 5.0, 10.0, 100.0)
    points = set()
    for n in (10**6, 10**9):
        for pt, k, q in itertools.product(p_targets, ks, qs):
            c = max(1, round(pt * n))
            points.add((WR, n, c, k, q))
    for n in (10**3, 10**6, 10**9):
        for pt, k, q in itertools.product(p_targets, ks, qs):
            if k >= n:
                continue
            c = max(1, round(pt * n))
            points.add((WOR, n, c, k, q))
    return sorted(points, key=lambda t: (t[0].value, t[1], t[2], t[3], t[4]))


def test_criterion_3_soundness():
    with _criterion(3, "bound soundness vs exact oracle"):
        start = time.perf_counter()
        grid = _soundness_grid()
        assert len(grid) >= 2000, f"grid holds only {len(grid)} points"
        worst = math.inf
        for method, n, c, k, q in grid:
            pop = PopulationSpec(n=n, cardinality=c)
            exact = exact_confidence(pop, SampleDesign(method=method, k=k), q)
            p = c / n
            if method is WR:
                sets = (CB, CBH)
            else:
                sets = (HSBS,)
            for kinds in sets:
                bound = evaluate_confidence(method, p, k, q, n=n, inequalities=kinds).confidence
                worst = min(worst, exact - bound)
                assert exact >= bound - 1e-12, (method.value, n, c, k, q, exact, bound)
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"soundness sweep took {elapsed:.1f}s"
        print(f"  [soundness: {len(grid)} points, worst exact-bound margin "
              f"{worst:.3e}, {elapsed:.1f}s]")


def test_criterion_4_monte_carlo_agreement(tmp_path):
    with _criterion(4, "Monte Carlo agreement and conservatism report"):
        start = time.perf_counter()
        spec = parse_grid_file(COMPARISON_GRID.read_text(encoding="utf-8"))
        series = figure_series(spec, with_exact=True, with_simulation=True,
                               trials=100_000, seed=20240601)
        assert len(series) == 150
        records = [r for r in series if 0.005 <= r["exact"] <= 0.98]
        assert len(records) >= 50
        for record in records:
            band = 4.0 * record["standard_error"]
            assert abs(record["empirical_rate"] - record["exact"]) <= band, record
            assert record["empirical_rate"] >= record["confidence"] - band, record

        # conservative at small k, tight at larger k (same population, q)
        pop = PopulationSpec(n=10**6, cardinality=5000)
        gaps = {}
        for k in (100, 10000):
            exact = exact_confidence(pop, SampleDesign(method=WR, k=k), 2.0)
            bound = evaluate_confidence(WR, pop.p, k, 2.0).confidence
            gaps[k] = exact - bound
        assert gaps[100] > 0.1 > gaps[10000]
        assert gaps[10000] < 0.01

        report_path = tmp_path / "series.csv"
        with open(report_path, "w", encoding="utf-8", newline="\n") as handle:
            write_series_csv(series, handle)
        assert report_path.stat().st_size > 0
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0, f"Monte Carlo comparison took {elapsed:.1f}s"
        print(f"  [monte carlo: {len(records)} of {len(series)} points in range, {elapsed:.1f}s, "
              f"report at {report_path}]")


def test_criterion_5_visualization_claims():
    with _criterion(5, "published confidence claims at p=0.2"):
        # "more than 80% chance with q <= 2" at k = 100 (the k the
        # surrounding text implies); "almost always small" at k = 1000
        assert evaluate_confidence(WR, 0.2, 100, 2.0).confidence > 0.80
        assert evaluate_confidence(WR, 0.2, 1000, 2.0).confidence > 0.99


def test_criterion_6_solver_round_trips():
    with _criterion(6, "solver round trips"):
        rng = np.random.default_rng(20240809)
        k_max = 10**7

        for _ in range(100):  # sample-size queries
            method = WR if rng.random() < 0.5 else WOR
            p = float(10 ** rng.uniform(-5, 0))
            q = float(1.0 + 10 ** rng.uniform(-2, 1))
            target = float(rng.uniform(0.05, 0.999))
            n = int(rng.choice([10**4, 10**6])) if method is WOR else None
            answer = min_sample_size(method, p, q, target, n=n, k_max=k_max)
            if isinstance(answer, Unreachable):
                cap = int(answer.limit)
                assert cap == (k_max if method is WR else min(k_max, n - 1))
                at_cap = evaluate_confidence(method, p, cap, q, n=n).confidence
                assert at_cap < target
                assert at_cap == answer.confidence_at_limit
            else:
                assert evaluate_confidence(method, p, answer, q, n=n).confidence >= target
                if answer > 1:
                    assert evaluate_confidence(method, p, answer - 1, q, n=n).confidence < target

        for _ in range(100):  # q queries
            method = WR if rng.random() < 0.5 else WOR
            p = float(10 ** rng.uniform(-5, 0))
            target = float(rng.uniform(0.05, 0.999))
            n = int(rng.choice([10**4, 10**6])) if method is WOR else None
            k = int(10 ** rng.uniform(1, 5))
            if method is WOR:
                k = min(k, n - 1)
            answer = q_at_confidence(method, p, k, target, n=n)
            if isinstance(answer, Unreachable):
                assert evaluate_confidence(method, p, k, answer.limit, n=n).confidence < target
            else:
                assert evaluate_confidence(method, p, k, answer, n=n).confidence >= target
                backed = answer * (1 - 1e-6)
                if backed > 1.0:
                    assert evaluate_confidence(method, p, k, backed, n=n).confidence < target


def test_criterion_7_monotonicity():
    with _criterion(7, "monotonicity property sweep"):
        rng = np.random.default_rng(7)
        pairs = 0

        for _ in range(3000):  # q-monotonicity, with replacement
            p = float(10 ** rng.uniform(-6, 0))
            k = int(10 ** rng.uniform(0, 6))
            q1, q2 = sorted(10 ** rng.uniform(0, 6, size=2))
            kinds = CBH if rng.random() < 0.5 else CB
            c1 = evaluate_confidence(WR, p, k, float(q1), inequalities=kinds).confidence
            c2 = evaluate_confidence(WR, p, k, float(q2), inequalities=kinds).confidence
            assert c2 >= c1 - 1e-12
            pairs += 1

        for _ in range(3000):  # q-monotonicity, without replacement
            p = float(10 ** rng.uniform(-6, 0))
            n = int(10 ** rng.uniform(1, 9))
            k = max(1, min(n - 1, int(10 ** rng.uniform(0, 6))))
            q1, q2 = sorted(10 ** rng.uniform(0, 6, size=2))
            c1 = evaluate_confidence(WOR, p, k, float(q1), n=n).confidence
            c2 = evaluate_confidence(WOR, p, k, float(q2), n=n).confidence
            assert c2 >= c1 - 1e-12
            pairs += 1

        for _ in range(3000):  # k-monotonicity, all with-replacement sets
            p = float(10 ** rng.uniform(-6, 0))
            q = float(10 ** rng.uniform(0, 4))
            k1, k2 = sorted(int(10 ** rng.uniform(0, 6)) for _ in range(2))
            kinds = CBH if rng.random() < 0.5 else CB
            c1 = evaluate_confidence(WR, p, k1, q, inequalities=kinds).confidence
            c2 = evaluate_confidence(WR, p, k2, q, inequalities=kinds).confidence
            assert c2 >= c1 - 1e-12
            pairs += 1

        for _ in range(1500):  # k-monotonicity of the HS term
            p = float(10 ** rng.uniform(-6, 0))
            q = float(10 ** rng.uniform(0, 4))
            n = int(10 ** rng.uniform(2, 9))
            k2 = int(rng.integers(2, n))
            k1 = int(rng.integers(1, k2 + 1))
            for side in Side:
                t1 = hoeffding_serfling_term(p, k1, n, q, side)
                t2 = hoeffding_serfling_term(p, k2, n, q, side)
                assert t2 <= t1 + 1e-12
            pairs += 1

        assert pairs >= 10**4


def test_criterion_8_hoeffding_extension():
    with _criterion(8, "Hoeffding extension coverage"):
        p_values = np.logspace(-4, 0, 12)
        ks = (10, 100, 1000, 10000)
        qs = (1.0, 1.1, 2.0, 5.0, 10.0, 100.0)
        for p, k, q in itertools.product(p_values, ks, qs):
            p = float(p)
            base = evaluate_confidence(WR, p, k, q, inequalities=CB).confidence
            extended = evaluate_confidence(WR, p, k, q, inequalities=CBH)
            assert extended.confidence >= base - 1e-15
            under = next(t for t in extended.terms
                         if t.inequality is InequalityKind.HOEFFDING and t.side is Side.UNDER)
            assert (not math.isnan(under.probability)) == (p * q > 1.0), (p, k, q)


def test_criterion_9_end_to_end_ingest(tmp_path):
    with _criterion(9, "end-to-end sampling over a generated table"):
        n, c, k, q = 100_000, 500, 1000, 2.0
        path = tmp_path / "table.csv"
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write("id,value\n")
            for i in range(n):
                handle.write(f"{i},{i % 1000}\n")

        table = load_table(str(path))
        predicate = parse_predicate("value < 5")
        assert table.n == n
        truth = true_cardinality(table, predicate)
        assert truth == c

        design = SampleDesign(method=WOR, k=k)
        exact = exact_confidence(PopulationSpec(n=n, cardinality=c), design, q)
        assert exact == pytest.approx(0.86422130633236278, rel=1e-8)

        # one full-report call exercises the ground-truth path
        full = estimate_with_bounds(table, predicate, design, qs=(q,), seed=0)
        assert full.true_cardinality == c
        assert full.realized_q_error == q_error(full.estimate, c)

        seeds = 1000
        successes = 0
        for seed in range(seeds):
            report = estimate_with_bounds(
                table, predicate, design, qs=(q,), seed=seed, assume_p=c / n,
            )
            if q_error(report.estimate, truth) <= q:
                successes += 1
        rate = successes / seeds
        se = math.sqrt(exact * (1.0 - exact) / seeds)
        assert abs(rate - exact) <= 4.0 * se, (rate, exact, se)
        print(f"  [ingest: rate {rate:.4f} vs exact {exact:.4f}, 4se {4*se:.4f}]")
