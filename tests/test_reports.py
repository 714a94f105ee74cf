import io
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qbounds import (
    GridSpec,
    SamplingMethod,
    default_inequalities,
    evaluate_confidence,
    figure_series,
    parse_grid_file,
    table1,
)
from qbounds.confidence import evaluate_grid
from qbounds.reports import (
    SERIES_COLUMNS,
    TABLE1_CARDINALITIES,
    TABLE1_SAMPLE_SIZES,
    default_comparison_points,
    fmt9,
    rounded_cell,
    simulation_comparison,
    write_comparison_csv,
    write_series_csv,
    write_table1_csv,
)
from qbounds.terms import WITH_REPLACEMENT_KINDS, WITHOUT_REPLACEMENT_KINDS

WR = SamplingMethod.WITH_REPLACEMENT
WOR = SamplingMethod.WITHOUT_REPLACEMENT


def test_table1_shape_and_defaults():
    rows = table1()
    assert len(rows) == 18
    assert tuple(row["c"] for row in rows) == TABLE1_CARDINALITIES
    for row in rows:
        assert row["p"] == row["c"] / 10**6
        for key in ("r100", "nr100", "r1000", "nr1000", "r10000", "nr10000"):
            assert 0.0 <= row[key] <= 1.0


def test_table1_known_cells():
    rows = {row["c"]: row for row in table1()}
    assert rounded_cell(rows[5000]["r1000"]) == "0.39"
    assert rounded_cell(rows[166]["r100"]) == "0.00"
    assert rounded_cell(rows[1000000]["r100"]) == "1.00"
    assert rounded_cell(rows[1000000]["nr10000"]) == "1.00"
    assert rounded_cell(rows[166666]["nr100"]) == "0.75"


def test_rounded_cell_rule():
    assert rounded_cell(0.9951) == "1.00"
    assert rounded_cell(0.995) == "0.99"   # only strictly above 0.995 prints 1.00
    assert rounded_cell(0.9949) == "0.99"
    assert rounded_cell(0.0009) == "0.00"
    assert rounded_cell(0.124432) == "0.12"


def test_fmt9():
    assert fmt9(0.39072240102871197) == "0.390722401"
    assert fmt9(None) == "NA"
    assert fmt9(math.nan) == "NA"


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


def test_default_comparison_points_interior():
    points = default_comparison_points()
    assert len(points) >= 50
    records = simulation_comparison(points[:3], trials=2000, seed=5)
    out = io.StringIO()
    write_comparison_csv(records, out)
    lines = [line for line in out.getvalue().split("\n") if line]
    assert len(lines) == 4
    for record in records:
        assert 0.0 <= record["empirical_rate"] <= 1.0
        assert record["exact"] >= record["confidence"] - 1e-12


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
        value = term.probability if term.applicable else math.nan
        want[f"{term.inequality.value}_{term.side.value}"] = value
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
                cells.append(fmt9(value))
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
