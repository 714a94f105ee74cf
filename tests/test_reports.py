import csv
import io
import itertools
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from qbounds import (
    GridSpec,
    PopulationSpec,
    SampleDesign,
    SamplingMethod,
    SimulationConfig,
    confidence_wor,
    confidence_wr,
    default_inequalities,
    evaluate_confidence,
    exact_confidence,
    figure_series,
    parse_grid_file,
    run_simulation,
    table1,
)
from qbounds import reports
from qbounds.reports import evaluate_grid
from qbounds.reports import (
    SERIES_COLUMNS,
    TABLE1_CARDINALITIES,
    TABLE1_SAMPLE_SIZES,
    cells,
    write_csv,
    write_series_csv,
    write_table1_csv,
)
from qbounds.terms import (
    DEFAULT_WOR_KINDS,
    WITH_REPLACEMENT_KINDS,
    WITHOUT_REPLACEMENT_KINDS,
    InequalityKind,
    Side,
)
from qbounds.without_replacement import _coefficients

WR = SamplingMethod.WITH_REPLACEMENT
WOR = SamplingMethod.WITHOUT_REPLACEMENT


def _fmt9(value) -> str:
    """The full-precision cell, one value at a time: 9 significant
    digits, NA for None and NaN."""
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return "NA"
    return format(value, ".9g")


def _rounded(value: float) -> str:
    """The two-decimal cell of one value."""
    return cells([value], "%.2f")[0]


def test_table1_shape_and_defaults():
    rows = table1()
    assert len(rows) == 18
    assert tuple(row["c"] for row in rows) == TABLE1_CARDINALITIES
    for row in rows:
        assert row["p"] == row["c"] / 10**6
        for key in ("r100", "nr100", "r1000", "nr1000", "r10000", "nr10000"):
            assert 0.0 <= row[key] <= 1.0


@pytest.mark.parametrize("n, message", [
    (0, "population size must be >= 1, got 0"),
    (-5, "population size must be >= 1, got -5"),
    (10**400, "population size must be finite and >= 1"),
])
def test_table1_holds_n_to_the_table_size_rule_first(n, message):
    # before any cardinality is compared with n, and before q is checked
    with pytest.raises(ValueError, match=message):
        table1(n=n, q=math.nan)


def test_table1_known_cells():
    rows = {row["c"]: row for row in table1()}
    assert _rounded(rows[5000]["r1000"]) == "0.39"
    assert _rounded(rows[166]["r100"]) == "0.00"
    assert _rounded(rows[1000000]["r100"]) == "1.00"
    assert _rounded(rows[1000000]["nr10000"]) == "1.00"
    assert _rounded(rows[166666]["nr100"]) == "0.75"


def test_rounded_cell_rule():
    assert _rounded(0.9951) == "1.00"
    assert _rounded(0.995) == "0.99"   # only strictly above 0.995 prints 1.00
    assert _rounded(0.9949) == "0.99"
    assert _rounded(0.0009) == "0.00"
    assert _rounded(0.124432) == "0.12"
    # the rule was once a branch printing 1.00 above 0.995; format(v, ".2f")
    # agrees with it on random values and within 5 ulps of every multiple
    # of 0.005 in [0, 1]
    values = np.random.default_rng(5).random(100_000).tolist()
    for i in range(201):
        for v in (i * 0.005, i / 200):
            for _ in range(5):
                v = math.nextafter(v, -1.0)
            for _ in range(11):
                values.append(v)
                v = math.nextafter(v, 2.0)
    values = [v for v in values if 0.0 <= v <= 1.0]
    for v, cell in zip(values, cells(values, "%.2f")):
        assert cell == ("1.00" if v > 0.995 else format(v, ".2f")), v


def test_full_precision_cell_rule():
    assert cells([0.39072240102871197, None, math.nan], "%.9g") == ["0.390722401", "NA", "NA"]


def test_write_table1_csv():
    out = io.StringIO()
    write_table1_csv(table1(), out)
    lines = out.getvalue().split("\n")
    assert lines[0].startswith("c,p,r100,nr100,")
    assert lines[0].endswith("nr10000_2dp")
    assert len([line for line in lines if line]) == 19
    # first data row is the smallest cardinality with all-zero cells
    assert lines[1].startswith("166,0.000166,")
    assert ",0.00" in lines[1]
    for row, cells_of in zip(table1(), csv.DictReader(io.StringIO(out.getvalue()))):
        assert cells_of["c"] == str(row["c"]) and cells_of["p"] == _fmt9(row["p"])
        for k in TABLE1_SAMPLE_SIZES:
            for col in (f"r{k}", f"nr{k}"):
                assert cells_of[col] == _fmt9(row[col])
                assert cells_of[f"{col}_2dp"] == format(row[col], ".2f")


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(k=(10,), q=(2.0,))  # neither p nor c
    with pytest.raises(ValueError):
        GridSpec(k=(10,), q=(2.0,), p=(0.1,), c=(5,))  # both
    with pytest.raises(ValueError):
        GridSpec(k=(), q=(2.0,), p=(0.1,))
    with pytest.raises(ValueError):
        GridSpec(k=(10,), q=(2.0,), p=(1.5,))
    # every axis value outside its domain is rejected at construction
    for bad in (
        dict(p=(math.nan,)),
        dict(p=(math.inf,)),
        dict(q=(math.nan,)),
        dict(q=(math.inf,)),
        dict(q=(2.0, 0.5)),
        dict(k=(0,)),
        dict(k=(-3,)),
        dict(k=(2**63,)),
        dict(n=(0,)),
        dict(n=(2**63,)),
        dict(p=None, c=(0, 5), n=(0,)),
        dict(p=None, c=(0, 5), n=(100, 4)),
    ):
        axes = {"k": (10,), "q": (2.0,), "p": (0.1,), **bad}
        with pytest.raises(ValueError):
            GridSpec(**axes)


@pytest.mark.parametrize("q", [10**400, 0.5, math.inf, math.nan])
def test_grid_q_outside_its_domain_is_the_point_rule_error(q):
    # the q axis and table1's q are checked by model._check_point: a Python
    # int past the float range is a ValueError, not numpy's OverflowError
    message = f"^q must be finite and >= 1, got {q}$"
    with pytest.raises(ValueError, match=message):
        GridSpec(k=(1,), q=(2.0, q), p=(0.1,))
    with pytest.raises(ValueError, match=message):
        table1(q=q)


def test_parse_grid_file():
    spec = parse_grid_file(
        """
        # a comment
        p = log:1e-4:1:4
        k = 100,1000
        q = lin:1:3:3
        n = 1e6
        method = wr
        include_hoeffding = true
        """
    )
    assert len(spec.p) == 4
    assert spec.p[0] == pytest.approx(1e-4)
    assert spec.p[-1] == pytest.approx(1.0)
    assert spec.k == (100, 1000)
    assert spec.q == (1.0, 2.0, 3.0)
    assert all(type(v) is float for v in spec.p + spec.q)
    assert spec.n == (1_000_000,)
    assert spec.methods == (WR,)
    assert spec.include_hoeffding


def test_grid_spec_refuses_an_empty_selectivity_axis():
    with pytest.raises(ValueError, match="^axis p must not be empty$"):
        GridSpec(p=(), k=(10,), q=(2.0,))
    with pytest.raises(ValueError, match="^axis c must not be empty$"):
        GridSpec(c=(), k=(10,), q=(2.0,))


def test_parse_grid_file_refuses_a_key_given_twice():
    # the second k would otherwise win, silently dropping the first
    with pytest.raises(ValueError, match="^grid file line 4: key 'k' given twice$"):
        parse_grid_file("p = 0.1\nk = 10\nq = 2\nk = 20")
    with pytest.raises(ValueError, match="^grid file line 3: key 'p' given twice$"):
        parse_grid_file("P = 0.1\nk = 10 # one\np = 0.2\nq = 2")


def test_parse_grid_file_errors():
    with pytest.raises(ValueError):
        parse_grid_file("k = 100")  # q missing
    with pytest.raises(ValueError):
        parse_grid_file("k = 100\nq = 2\nbogus = 1\np = 0.1")
    with pytest.raises(ValueError):
        parse_grid_file("k = 100.5\nq = 2\np = 0.1")
    with pytest.raises(ValueError):
        parse_grid_file("k 100")
    with pytest.raises(ValueError):
        parse_grid_file("p = log:0:1:5\nk = 10\nq = 2")
    with pytest.raises(ValueError, match="log axis endpoints must be positive"):
        parse_grid_file("p = log:0:1:1\nk = 10\nq = 2")
    for axis in ("lin:inf:5:1", "lin:1:inf:2", "log:1:nan:1", "lin:1e308:-1e308:1"):
        with pytest.raises(ValueError, match="range axis endpoints and their span must be finite"):
            parse_grid_file(f"k = 10\nq = {axis}")
    with pytest.raises(ValueError):
        parse_grid_file("k = inf\nq = 2\np = 0.1")
    with pytest.raises(ValueError):
        parse_grid_file("k = 10\nq = nan\np = 0.1")


def test_figure_series_q_sweep_covers_published_claim():
    # p = 0.2, k = 100: more than 80% confidence at q = 2
    spec = GridSpec(p=(0.2,), k=(100,), q=tuple(1 + i * 0.5 for i in range(19)),
                    methods=(WR,))
    records = figure_series(spec)
    by_q = {record["q"]: record for record in records}
    assert by_q[2.0]["confidence"] > 0.80
    # per-inequality curves are present for every record
    for record in records:
        assert record["status"] == "ok"
        assert record["chernoff_over"] is not None
        assert record["bernstein_under"] is not None
    # emitted confidence is monotone along q
    qs = sorted(by_q)
    confs = [by_q[q]["confidence"] for q in qs]
    assert all(a <= b + 1e-12 for a, b in zip(confs, confs[1:]))


def test_figure_series_monotone_along_k_for_wr():
    spec = GridSpec(p=(0.01,), k=(10, 100, 1000, 10000), q=(2.0,), methods=(WR,))
    records = figure_series(spec)
    confs = [r["confidence"] for r in sorted(records, key=lambda r: r["k"])]
    assert all(a <= b + 1e-12 for a, b in zip(confs, confs[1:]))


def test_figure_series_degenerate_and_invalid_markers():
    spec = GridSpec(c=(0, 50), n=(100,), k=(10, 200), q=(2.0,), methods=(WOR,))
    records = figure_series(spec)
    status = {(r["c"], r["k"]): r["status"] for r in records}
    assert status[(0, 10)] == "degenerate"
    assert status[(50, 200)] == "invalid"
    assert status[(50, 10)] == "ok"
    degenerate = next(r for r in records if r["status"] == "degenerate")
    assert degenerate["confidence"] == 0.0


def test_figure_series_billion_row_grid():
    spec = GridSpec(p=(0.001,), n=(10**9,), k=(1000,), q=(2.0,))
    records = figure_series(spec)
    assert {r["method"] for r in records} == {"wr", "wor"}
    for record in records:
        assert record["status"] == "ok"
        assert 0.0 <= record["confidence"] <= 1.0


@pytest.mark.parametrize("with_exact", [False, True])
def test_figure_series_cardinality_is_at_most_n_at_the_largest_n(with_exact):
    # p * n rounds up to 2**63 in floats at p = 1 and n = 2**63 - 1
    n = 2**63 - 1
    records = figure_series(GridSpec(p=(1.0,), n=(n,), k=(10,), q=(2.0,)), with_exact=with_exact)
    assert [(r["n"], r["c"], r["status"]) for r in records] == [(n, n, "ok")] * 2
    # every sample is all hits, so the estimate is exact
    assert [r["exact"] for r in records] == [1.0 if with_exact else None] * 2
    out = io.StringIO()
    write_series_csv(records, out)
    rows = list(csv.DictReader(io.StringIO(out.getvalue())))
    assert [row["c"] for row in rows] == [str(n)] * 2


def test_figure_series_with_exact_and_simulation():
    spec = GridSpec(c=(5000,), n=(10**6,), k=(1000,), q=(2.0,), methods=(WR,))
    records = figure_series(spec, with_exact=True, with_simulation=True,
                            trials=2000, seed=13)
    record = records[0]
    assert record["exact"] == pytest.approx(0.8625113734390672, rel=1e-9)
    assert abs(record["empirical_rate"] - record["exact"]) <= 5 * record["standard_error"]
    # soundness visible in the emitted data
    assert record["exact"] >= record["confidence"] - 1e-12


def test_series_csv_na_literal_for_inapplicable_terms():
    # pq <= 1 keeps the Hoeffding under-term out of play
    spec = GridSpec(p=(0.3,), k=(100,), q=(2.0,), methods=(WR,))
    out = io.StringIO()
    write_series_csv(figure_series(spec), out)
    header, row = [line for line in out.getvalue().split("\n") if line]
    cols = dict(zip(header.split(","), row.split(",")))
    assert cols["hoeffding_under"] == "NA"
    assert cols["hoeffding_serfling_over"] == "NA"  # wrong-method term
    from qbounds import evaluate_confidence
    want = evaluate_confidence(WR, 0.3, 100, 2.0).confidence
    assert float(cols["confidence"]) == pytest.approx(want, rel=1e-8)


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_simulation_seed_counts_only_points_that_are_not_invalid(seed):
    # k = 2000 >= n is invalid and takes no seed: the next point draws under
    # `seed`, and the one after under seed + 1_000_003, modulo 2**64
    spec = GridSpec(c=(50,), n=(1000,), k=(2000, 500, 100), q=(1.5,), methods=(WOR,))
    records = figure_series(spec, with_simulation=True, trials=400, seed=seed)
    assert [r["status"] for r in records] == ["invalid", "ok", "ok"]
    assert records[0]["empirical_rate"] is None
    for i, record in enumerate(records[1:]):
        summary = run_simulation(SimulationConfig(
            pop=PopulationSpec(n=1000, cardinality=50),
            design=SampleDesign(method=WOR, k=record["k"]), q=1.5, trials=400,
            seed=(seed + 1_000_003 * i) % 2**64))
        assert record["empirical_rate"] == summary.empirical_rate
        assert record["standard_error"] == summary.standard_error


@pytest.mark.parametrize("seed", [-1, 2**64, 1.5, True])
def test_simulation_seed_is_checked_before_any_point(monkeypatch, seed):
    """figure_series holds its seed to the simulation's rule before it
    computes a point, instead of reducing each point's seed modulo 2**64."""
    from qbounds import reports

    def fail(*args, **kwargs):
        raise AssertionError("a point was computed before the seed check")

    for name in ("evaluate_grid", "_exact_confidence", "run_simulation"):
        monkeypatch.setattr(reports, name, fail)
    message = f"seed must be an unsigned 64-bit integer, got {seed}"
    with pytest.raises(ValueError, match=f"^{message}$"):
        figure_series(GridSpec(p=(0.2,), k=(100,), q=(2.0,)), with_simulation=True,
                      trials=10, seed=seed)


@pytest.mark.parametrize("seed", [3, 2**64 - 1])
def test_simulation_under_a_numpy_unsigned_seed_is_that_of_its_int(seed):
    # each point's seed is summed as a Python int, not in numpy uint64
    spec = GridSpec(p=(0.2,), k=(10, 100), q=(2.0,))
    want = repr(list(figure_series(spec, with_simulation=True, trials=10, seed=seed)))
    assert repr(list(figure_series(spec, with_simulation=True, trials=10, seed=np.uint64(seed)))) == want


def test_series_exact_and_simulation_cells():
    spec = GridSpec(c=(1000,), n=(10**6,), k=(1000,), q=(1.5, 2.0))
    records = figure_series(spec, with_exact=True, with_simulation=True, trials=2000, seed=5)
    out = io.StringIO()
    write_series_csv(records, out)
    lines = [line for line in out.getvalue().split("\n") if line]
    assert len(lines) == 5
    for record, cells_of in zip(records, csv.DictReader(io.StringIO(out.getvalue()))):
        assert 0.0 <= record["empirical_rate"] <= 1.0
        assert record["exact"] >= record["confidence"] - 1e-12
        assert list(cells_of) == SERIES_COLUMNS
        for col, cell in cells_of.items():
            value = record[col]
            if type(value) is str:
                want = value
            else:
                want = str(value) if type(value) is int else _fmt9(value)
            assert cell == want, col


def test_table1_matches_scalar_path():
    for n, q in ((1_000_000, 2.0), (10**9, 1.5), (1_000_000, 1.0)):
        for row in table1(n=n, q=q):
            assert type(row["p"]) is float and row["p"] == row["c"] / n
            for k in TABLE1_SAMPLE_SIZES:
                for key, method in ((f"r{k}", WR), (f"nr{k}", WOR)):
                    want = evaluate_confidence(method, row["p"], k, q, n=n).confidence
                    assert type(row[key]) is float
                    assert row[key] == pytest.approx(want, rel=0, abs=1e-13)
    with pytest.raises(ValueError):
        table1(q=math.nan)
    with pytest.raises(ValueError):
        table1(q=0.5)


def test_evaluate_grid_rejects_out_of_domain_points():
    kinds = WITH_REPLACEMENT_KINDS | WITHOUT_REPLACEMENT_KINDS
    good = dict(p=0.5, k=50, n=1000, q=2.0, wor=True, inequalities=kinds)
    assert 0.0 < evaluate_grid(**good).confidence <= 1.0
    for bad in (dict(p=0.0), dict(p=1.5), dict(p=math.nan), dict(k=0),
                dict(q=0.99), dict(q=math.nan), dict(q=math.inf),
                dict(k=[10, 1000]), dict(n=2**63)):
        with pytest.raises(ValueError):
            evaluate_grid(**{**good, **bad})


_ORACLES = {
    InequalityKind.CHERNOFF: oracles.chernoff,
    InequalityKind.BERNSTEIN: oracles.bernstein,
    InequalityKind.HOEFFDING: oracles.hoeffding,
    InequalityKind.HOEFFDING_SERFLING: oracles.hoeffding_serfling,
    InequalityKind.BERNSTEIN_SERFLING: oracles.bernstein_serfling,
}


@pytest.mark.parametrize("q", [1e200, sys.float_info.max])
def test_huge_q_terms_are_probabilities(q):
    # q^2 and (q-1)^2 overflow past q = 1.3e154 and p^2 underflows below
    # 1.5e-154; no term may turn into NaN, a warning or an OverflowError
    ps = [5e-324, 1e-300, 1e-200, 1e-10, 0.5, 0.8, 1.0]
    pairs = [(1, 2), (10, 100), (10**9, 10**12)]
    points = [(p, k, n) for p in ps for k, n in pairs]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grid = evaluate_grid(
            [p for p, _, _ in points], [k for _, k, _ in points], [n for _, _, n in points],
            q, [[False], [True]], WITH_REPLACEMENT_KINDS | WITHOUT_REPLACEMENT_KINDS,
        )
        for i, (p, k, n) in enumerate(points):
            scalar = (
                confidence_wr(p, k, q, WITH_REPLACEMENT_KINDS).terms
                + confidence_wor(p, k, n, q).terms
            )
            for term in scalar:
                kind, side = term.inequality, term.side
                wor = kind in WITHOUT_REPLACEMENT_KINDS
                on_grid = grid.terms[kind, side][int(wor), i]
                if kind is InequalityKind.HOEFFDING and side is Side.UNDER and p * q <= 1.0:
                    assert math.isnan(term.probability) and math.isnan(on_grid)
                    continue
                assert 0.0 <= term.probability <= 1.0
                assert on_grid == pytest.approx(term.probability, rel=1e-12, abs=1e-300)
                args = (p, k, n, q, side.value) if wor else (p, k, q, side.value)
                want = float(_ORACLES[kind](*args))
                assert term.probability == pytest.approx(want, rel=1e-9, abs=1e-300)
        for method in SamplingMethod:
            pop, design = PopulationSpec(n=100, cardinality=50), SampleDesign(method, 10)
            assert exact_confidence(pop, design, q) == 1.0
            config = SimulationConfig(pop=pop, design=design, q=q, trials=100, seed=1)
            assert run_simulation(config).successes == 100


_BOUND_COLUMNS = SERIES_COLUMNS[SERIES_COLUMNS.index("status") + 1 : SERIES_COLUMNS.index("exact")]


def _reference_record(record: dict, include_hoeffding: bool) -> dict:
    """The record `figure_series` must produce for one point, from the
    scalar path: every kind of the point's method for the term columns,
    the chosen set for omega, psi and confidence."""
    method = SamplingMethod(record["method"])
    n, p, k, q = record["n"], record["p"], record["k"], record["q"]
    want = {col: None for col in _BOUND_COLUMNS}
    if method is WOR and k >= n:
        want["status"] = "invalid"
        return want
    if p == 0.0:
        want.update(status="degenerate", confidence=0.0)
        return want
    kinds = WITH_REPLACEMENT_KINDS if method is WR else WITHOUT_REPLACEMENT_KINDS
    full = evaluate_confidence(method, p, k, q, n=n, inequalities=kinds)
    for term in full.terms:
        want[f"{term.inequality.value}_{term.side.value}"] = term.probability
    chosen = evaluate_confidence(
        method, p, k, q, n=n, inequalities=default_inequalities(method, include_hoeffding)
    )
    want.update(status="ok", omega=chosen.omega, psi=chosen.psi, confidence=chosen.confidence)
    return want


def _write_series_per_cell(records, out) -> None:
    """The per-cell writer that write_series_csv must match byte for byte."""
    out.write(",".join(SERIES_COLUMNS) + "\n")
    for record in records:
        cells = []
        for col in SERIES_COLUMNS:
            value = record.get(col)
            if col in ("method", "status"):
                cells.append(str(value))
            elif col in ("n", "c", "k"):
                cells.append(str(int(value)))
            else:
                cells.append(_fmt9(value))
        out.write(",".join(cells) + "\n")


@st.composite
def _grids(draw):
    n = draw(st.lists(
        st.sampled_from([1, 2, 3, 100, 101, 10**6, 10**9]) | st.integers(1, 10**9),
        min_size=1, max_size=3, unique=True,
    ))
    near = draw(st.sampled_from(n))
    k = draw(st.lists(
        st.sampled_from([1, max(1, near // 2), near // 2 + 1, max(1, near - 1), near, near + 1])
        | st.integers(1, 10**7),
        min_size=1, max_size=4, unique=True,
    ))
    q = draw(st.lists(
        st.sampled_from([1.0, 1.0 + 1e-12, 1.5, 2.0, 10.0]) | st.floats(1.0, 1e6),
        min_size=1, max_size=4,
    ))
    methods = draw(st.sampled_from([(WR,), (WOR,), (WR, WOR), (WOR, WR)]))
    hoeffding = draw(st.booleans())
    if draw(st.booleans()):
        p = draw(st.lists(
            st.sampled_from([0.0, 1e-9, 0.5, 0.75, 1.0]) | st.floats(0.0, 1.0),
            min_size=1, max_size=3,
        ))
        return GridSpec(p=tuple(p), k=tuple(k), q=tuple(q), n=tuple(n),
                        methods=methods, include_hoeffding=hoeffding)
    c = draw(st.lists(st.integers(0, min(n)), min_size=1, max_size=3))
    return GridSpec(c=tuple(c), k=tuple(k), q=tuple(q), n=tuple(n),
                    methods=methods, include_hoeffding=hoeffding)


@given(_grids())
@settings(max_examples=200, deadline=None)
@example(GridSpec(  # p = 0 and 1, q = 1, 2k = n, k = n - 1, k >= n, pq > 1, n = 1e9
    p=(0.0, 1e-6, 0.5, 1.0), n=(2, 100, 10**9), k=(1, 50, 99, 100, 101, 5 * 10**8),
    q=(1.0, 2.0, 3.0), include_hoeffding=True,
))
def test_figure_series_matches_scalar_path(spec):
    records = figure_series(spec)
    axes = (spec.n, spec.p or spec.c, spec.k, spec.q, spec.methods)
    assert len(records) == math.prod(len(axis) for axis in axes)
    for record in records:
        assert list(record) == SERIES_COLUMNS
        want = _reference_record(record, spec.include_hoeffding)
        assert all(type(record[col]) is int for col in ("n", "c", "k"))
        assert all(type(record[col]) is float for col in ("p", "q"))
        if spec.p is None:
            assert record["p"] == record["c"] / record["n"]
        else:
            assert record["c"] == round(record["p"] * record["n"])
        assert record["status"] == want["status"]
        for col in _BOUND_COLUMNS:
            got, expected = record[col], want[col]
            if expected is None:
                assert got is None, col
                continue
            assert type(got) is float, col
            if math.isnan(expected):
                assert math.isnan(got), col
            elif col == "confidence":
                assert got == pytest.approx(expected, rel=0, abs=1e-13), col
            else:
                assert math.isclose(got, expected, rel_tol=1e-10, abs_tol=1e-300), col
        assert record["exact"] is None and record["empirical_rate"] is None
    fast, per_cell = io.StringIO(), io.StringIO()
    write_series_csv(records, fast)
    _write_series_per_cell(records, per_cell)
    assert fast.getvalue() == per_cell.getvalue()


def test_write_csv_cell_rule():
    records = [
        {"text": "banana", "int": 7, "full": 0.1 + 0.2, "two": 0.995, "any": True},
        {"text": 'a,"nan"\nb', "int": None, "full": math.nan, "two": 0.99500001, "any": 2.5},
        {"text": "nan", "int": 2**70, "full": np.float64(1e-300), "two": None, "any": "x,y"},
    ]
    columns = {"text": "%s", "int": "%d", "full": "%.9g", "two": "%.2f", "any": "%s"}
    out = io.StringIO()
    write_csv(records, columns, out)
    assert out.getvalue() == (
        "text,int,full,two,any\n"
        "banana,7,0.3,0.99,True\n"
        '"a,""nan""\nb",NA,NA,1.00,2.5\n'
        f"nan,{2**70},1e-300,NA,\"x,y\"\n"
    )
    rows = list(csv.reader(io.StringIO(out.getvalue())))
    assert [row[0] for row in rows[1:]] == [r["text"] for r in records]
    # one column, and no records
    single, empty = io.StringIO(), io.StringIO()
    write_csv([{"a": 1}, {"a": None}], {"a": "%d"}, single)
    write_csv([], {"a": "%d", "b": "%s"}, empty)
    assert single.getvalue() == "a\n1\nNA\n" and empty.getvalue() == "a,b\n"


def test_a_writer_that_raises_leaves_the_file_cut_at_what_it_wrote(tmp_path):
    path = tmp_path / "out.csv"
    path.write_text("old bytes\n" * 100_000, encoding="utf-8")
    rows = [{"a": i} for i in range(10_000)]
    with pytest.raises(RuntimeError, match="^partway$"):
        with reports.open_output(str(path)) as handle:
            write_csv(rows, {"a": "%d"}, handle)
            handle.write("é\r\n")  # UTF-8, and no newline translation
            raise RuntimeError("partway")
    fresh = io.StringIO()
    write_csv(rows, {"a": "%d"}, fresh)
    assert path.read_bytes() == (fresh.getvalue() + "é\r\n").encode("utf-8")


@given(st.lists(st.none() | st.floats() | st.integers(-(10**20), 10**20), max_size=200))
def test_full_precision_cells_match_fmt9(values):
    assert cells(values, "%.9g") == [_fmt9(v) for v in values]


def _eager_series(spec, with_exact=False, with_simulation=False, trials=1000, seed=0):
    """The series as a list of dicts filled field by field from one
    `evaluate_grid` call over the ok points: the records a `Series` must
    build when read, types included."""
    if spec.p is not None:
        sel = [(n, int(round(float(v) * n)), float(v)) for n in spec.n for v in spec.p]
    else:
        sel = [(n, int(c), c / n) for n in spec.n for c in spec.c]
    records, ok = [], []
    for (n, c, p), k, q, method in itertools.product(sel, spec.k, spec.q, spec.methods):
        record = dict.fromkeys(SERIES_COLUMNS)
        record.update(method=method.value, n=n, c=c, p=p, k=k, q=q)
        if method is WOR and k >= n:
            record["status"] = "invalid"
        elif p == 0.0:
            record.update(status="degenerate", confidence=0.0)
        else:
            record["status"] = "ok"
            ok.append(record)
        records.append(record)
    if ok:
        chosen = default_inequalities(WR, spec.include_hoeffding) | DEFAULT_WOR_KINDS
        bounds = evaluate_grid(*([r[key] for r in ok] for key in ("p", "k", "n", "q")),
                               [r["method"] == WOR.value for r in ok], chosen)
        terms = {key: values.tolist() for key, values in bounds.terms.items()}
        combined = {name: getattr(bounds, name).tolist() for name in ("omega", "psi", "confidence")}
        for i, record in enumerate(ok):
            wor = record["method"] == WOR.value
            for (kind, side), values in terms.items():
                if (kind in WITHOUT_REPLACEMENT_KINDS) == wor:
                    record[f"{kind.value}_{side.value}"] = values[i]
            record.update({name: values[i] for name, values in combined.items()})
    valid = [record for record in records if record["status"] != "invalid"]
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


def _assert_same_records(got, want) -> None:
    """Equal records: the same keys in the same order, and values of the
    same type and value, a NaN only where the other holds a NaN."""
    assert type(got) is list and len(got) == len(want)
    for a, b in zip(got, want):
        assert type(a) is dict and list(a) == list(b)
        for key, expected in b.items():
            assert type(a[key]) is type(expected), key
            assert a[key] == expected or (a[key] != a[key] and expected != expected), key


@given(_grids(), st.data())
@settings(max_examples=100, deadline=None)
def test_series_records_equal_the_eager_records(spec, data):
    series = figure_series(spec)
    want = _eager_series(spec)
    assert len(series) == len(want)
    _assert_same_records(list(series), want)
    index = data.draw(st.integers(-len(want), len(want) - 1))
    _assert_same_records([series[index]], [want[index]])
    rows = data.draw(st.slices(len(want)))
    _assert_same_records(series[rows], want[rows])
    for outside in (len(want), -len(want) - 1):
        with pytest.raises(IndexError):
            series[outside]
    # the columns print as the records do, cell by cell
    by_column, by_record = io.StringIO(), io.StringIO()
    write_series_csv(series, by_column)
    write_series_csv(want, by_record)
    assert by_column.getvalue() == by_record.getvalue()


@pytest.mark.parametrize("chunk", [1, 5, 4096])
def test_series_read_and_printed_across_chunks(monkeypatch, chunk):
    spec = GridSpec(c=(0, 50, 600), n=(1000,), k=(2000, 500, 100), q=(1.0, 1.5, 2.0),
                    include_hoeffding=True)
    want = _eager_series(spec, with_exact=True)
    monkeypatch.setattr(reports, "_CHUNK", chunk)
    series = figure_series(spec, with_exact=True)
    _assert_same_records(list(series), want)
    by_column, per_cell = io.StringIO(), io.StringIO()
    write_series_csv(series, by_column)
    _write_series_per_cell(want, per_cell)
    assert by_column.getvalue() == per_cell.getvalue()


@pytest.mark.parametrize("with_exact, with_simulation", [(True, False), (False, True), (True, True)])
def test_series_exact_and_simulation_records_equal_the_eager_records(with_exact, with_simulation):
    # k = 2000 >= n is invalid without replacement and takes no seed
    spec = GridSpec(c=(0, 50, 600), n=(1000,), k=(2000, 500, 100), q=(1.5, 2.0))
    args = dict(with_exact=with_exact, with_simulation=with_simulation, trials=300, seed=2**64 - 1)
    _assert_same_records(list(figure_series(spec, **args)), _eager_series(spec, **args))


def _nan(sign: int, payload: int) -> float:
    """The NaN of this sign bit and (nonzero) mantissa payload."""
    return np.array([sign << 63 | 0x7FF << 52 | payload], dtype=np.uint64).view(np.float64)[0]


@st.composite
def _printed_columns(draw):
    """A column and a format: float64 and int64 arrays, whose distinct
    values are printed once, and lists and other arrays, printed cell by
    cell."""
    floats = (
        st.floats()
        | st.sampled_from([0.0, -0.0, math.inf, -math.inf, 0.995, 1e16, 5e-324])
        | st.builds(_nan, st.integers(0, 1), st.integers(1, 2**52 - 1))
    )
    ints = st.integers(-(2**63), 2**63 - 1) | st.sampled_from([0, -1, 2**63 - 1, -(2**63)])
    text = st.text(st.sampled_from('a,"\n\rNA x'), max_size=6)
    kind = draw(st.sampled_from(
        ["float64", "int64", "ints past int64", "bool and int", "np.float64", "text",
         "str only", "str and others"]
    ))
    if kind == "float64":
        column = np.array(draw(st.lists(floats, max_size=40)), dtype=np.float64)
        return column, draw(st.sampled_from(["%.9g", "%.2f", "%s"]))
    if kind == "int64":
        column = np.array(draw(st.lists(ints, max_size=40)), dtype=np.int64)
        return column, draw(st.sampled_from(["%d", "%s", "%.9g"]))
    if kind == "ints past int64":
        big = st.integers(-(10**30), 10**30) | st.sampled_from([2**63, -(2**63) - 1, 2**64])
        return draw(st.lists(big | st.none(), max_size=40)), draw(st.sampled_from(["%d", "%s"]))
    if kind == "bool and int":
        values = draw(st.lists(st.booleans() | st.integers(-2, 2), max_size=40))
        return draw(st.sampled_from([values, np.array(values, dtype=object)])), "%s"
    if kind == "np.float64":
        values = [np.float64(v) for v in draw(st.lists(floats, max_size=40))]
        return values, draw(st.sampled_from(["%.9g", "%.2f", "%s"]))
    if kind == "str only":  # an object array printed once per distinct string
        return np.array(draw(st.lists(text, max_size=40)), dtype=object), "%s"
    if kind == "str and others":  # equal under == but printed apart: never merged
        others = st.sampled_from([True, False, 1, 0, 1.0, 0.0, -0.0, math.nan, None, "1", "True"])
        values = draw(st.lists(text | others, max_size=40))
        return np.array(values, dtype=object), draw(st.sampled_from(["%s", "%.9g"]))
    values = draw(st.lists(text | st.none(), max_size=40))
    return draw(st.sampled_from([values, np.array(values, dtype=object)])), "%s"


@given(_printed_columns())
@example((np.array([-0.0, 0.0, 0.0, -0.0]), "%s"))
@example((np.array([0.0, -0.0]), "%.9g"))
@example((np.array([_nan(1, 1), math.nan, math.inf, -math.inf, _nan(0, 5)]), "%.9g"))
@example(([True, 1, False, 0, np.True_], "%s"))
@example((np.array(["a", True, 1, "a", 1, True], dtype=object), "%s"))
@example((np.array(["a", 0.0, -0.0, "a", -0.0], dtype=object), "%.9g"))
@example((np.array(["a", None, "NA", math.nan, None, "a"], dtype=object), "%s"))
@example((np.array(["b,", "b,", 'c"', "NA", ""], dtype=object), "%s"))
@example((np.array([], dtype=object), "%s"))
@example((np.array([], dtype=np.float64), "%d"))
@example((np.array([math.nan, 2.0, _nan(1, 3)]), "%d"))
def test_column_printer_equals_the_cell_rule(case):
    column, fmt = case
    assert reports._column_cells(column, fmt) == [cells([v], fmt)[0] for v in column]


def _size_pair():
    """One (k, n) with 1 <= k < n < 2**63, drawn where the coefficient rule
    changes branch or loses precision: ties 2k == n and their neighbours,
    and k = n - 1 past 2**53."""
    anywhere = st.integers(2, 2**63 - 1).flatmap(
        lambda n: st.tuples(st.integers(1, n - 1), st.just(n)))
    tie = st.integers(1, 2**62 - 1).flatmap(
        lambda k: st.sampled_from([(k, 2 * k), (k, 2 * k + 1), (k + 1, 2 * k + 1)]))
    last = st.integers(2**53, 2**63 - 1).map(lambda n: (n - 1, n))
    shared = st.sampled_from([(1, 2), (1, 10**6), (2, 4), (99, 100), (99, 10**6), (5000, 10**6),
                              (5000, 10**9), (10**6 - 1, 10**6)])  # a k or an n under two pairs
    return anywhere | tie | last | shared


@given(
    pool=st.lists(_size_pair(), min_size=1, max_size=6),
    picks=st.lists(st.integers(0, 5), max_size=30),
    dtypes=st.tuples(*[st.sampled_from([np.int64, np.float64])] * 2),
)
@example(pool=[(1, 2)], picks=[], dtypes=(np.int64, np.int64))  # a grid with no WOR point
@example(pool=[(2**53, 2**53 + 1), (2**53 + 1, 2**53 + 2)], picks=[0, 1, 0, 1],
         dtypes=(np.int64, np.float64))
@example(pool=[(10, 100), (10, 1000), (99, 100)], picks=[0, 1, 2, 1, 0],
         dtypes=(np.int64, np.int64))
@settings(max_examples=300, deadline=None)
def test_coefficient_arrays_equal_the_scalar_coefficients(pool, picks, dtypes):
    # every point gets the scalar path's rho and zeta bit for bit, on the
    # (k, n) as given, from one _coefficients call per distinct pair
    chosen = [pool[i % len(pool)] for i in picks]
    k = np.array([pair[0] for pair in chosen], dtype=dtypes[0])
    n = np.array([pair[1] for pair in chosen], dtype=dtypes[1])
    inside = k < n  # as evaluate_grid admits them: a float n may round onto k
    k, n = k[inside], n[inside]
    calls = []
    reports._coefficients = lambda a, b: calls.append((a, b)) or _coefficients(a, b)
    try:
        rho, zeta = reports._coefficient_arrays(k, n)
    finally:
        reports._coefficients = _coefficients
    assert sorted(calls) == sorted(set(zip(k.tolist(), n.tolist())))
    want = np.array([_coefficients(a, b) for a, b in zip(k.tolist(), n.tolist())]).reshape(-1, 2)
    assert rho.dtype == zeta.dtype == np.float64
    assert rho.shape == zeta.shape == k.shape
    assert np.array_equal(np.stack([rho, zeta], axis=1).view(np.int64), want.view(np.int64))
