import json

import pytest

from qbounds import __version__
from qbounds.cli import run
from qbounds.simulate import RNG_SCHEME


def _text_result(capsys):
    out = capsys.readouterr().out
    values = {}
    for line in out.strip().split("\n"):
        parts = line.split(" ")
        if parts[0] == "term":
            values[parts[1]] = parts[2]
        else:
            values[parts[0]] = parts[1]
    return values


def test_bound_text_matches_published_cell(capsys):
    code = run(["bound", "--method", "wr", "--p", "0.005", "--k", "1000", "--q", "2"])
    assert code == 0
    values = _text_result(capsys)
    assert abs(float(values["confidence"]) - 0.39) <= 0.005


def test_bound_population_from_integers(capsys):
    code = run(["bound", "--method", "wor", "--cardinality", "166666",
                "--rows", "1000000", "--k", "100", "--q", "2"])
    assert code == 0
    values = _text_result(capsys)
    assert abs(float(values["confidence"]) - 0.75) <= 0.005


def test_bound_json_schema(capsys):
    code = run(["bound", "--method", "wr", "--p", "0.005", "--k", "1000",
                "--q", "2", "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"query", "result", "terms", "meta"}
    assert payload["meta"]["version"] == __version__
    assert payload["meta"]["rng"] == RNG_SCHEME
    assert payload["query"]["method"] == "wr"
    assert {t["inequality"] for t in payload["terms"]} == {"chernoff", "bernstein"}
    assert all(t["applicable"] for t in payload["terms"])


def test_bound_with_hoeffding_inapplicable_under(capsys):
    code = run(["bound", "--method", "wr", "--p", "0.3", "--k", "100",
                "--q", "2", "--with-hoeffding", "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    under = next(t for t in payload["terms"]
                 if t["inequality"] == "hoeffding" and t["side"] == "under")
    assert under["applicable"] is False
    assert under["probability"] is None


def test_formats_print_identical_numbers(capsys):
    argv = ["bound", "--method", "wr", "--p", "0.005", "--k", "1000", "--q", "2"]
    run(argv)
    text = _text_result(capsys)
    run(argv + ["--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    run(argv + ["--format", "csv"])
    header, row = capsys.readouterr().out.strip().split("\n")
    csv_values = dict(zip(header.split(","), row.split(",")))
    for key in ("confidence", "omega", "psi"):
        assert text[key] == str(payload["result"][key]) == csv_values[key]


def test_degenerate_population(capsys):
    code = run(["bound", "--method", "wr", "--cardinality", "0",
                "--rows", "1000", "--k", "10", "--q", "2", "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["result"]["degenerate"] is True
    assert payload["result"]["confidence"] == 0.0


def test_bound_usage_errors(capsys):
    # both population styles at once
    assert run(["bound", "--method", "wr", "--p", "0.1", "--cardinality", "5",
                "--rows", "10", "--k", "5", "--q", "2"]) == 1
    # wor without --rows
    assert run(["bound", "--method", "wor", "--p", "0.1", "--k", "5", "--q", "2"]) == 1
    # unknown flag
    assert run(["bound", "--method", "wr", "--p", "0.1", "--k", "5", "--q", "2",
                "--bogus"]) == 1
    err = capsys.readouterr().err
    assert "usage" in err or "error" in err


def test_bound_domain_error_exit_code(capsys):
    # k >= n without replacement
    code = run(["bound", "--method", "wor", "--cardinality", "2", "--rows", "5",
                "--k", "10", "--q", "2"])
    assert code == 1
    assert "k < n" in capsys.readouterr().err


def test_solve_k_round_trip(capsys):
    code = run(["solve-k", "--method", "wr", "--p", "0.005", "--q", "2",
                "--confidence", "0.39", "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["result"]["unreachable"] is False
    assert 1 <= payload["result"]["k"] <= 1000


def test_solve_q_unreachable_exits_zero(capsys):
    code = run(["solve-q", "--method", "wr", "--p", "0.005", "--k", "10",
                "--confidence", "0.999", "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["result"]["unreachable"] is True
    assert payload["result"]["q"] is None
    assert payload["result"]["confidence_at_limit"] < 0.999


def test_exact_subcommand(capsys):
    code = run(["exact", "--method", "wr", "--cardinality", "5000",
                "--rows", "1000000", "--k", "1000", "--q", "2", "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["result"]["exact_confidence"] == pytest.approx(0.8625113734390672, rel=1e-9)
    assert payload["result"]["admissible_lo"] == 3
    assert payload["result"]["admissible_hi"] == 10


def test_simulate_subcommand_deterministic(capsys):
    argv = ["simulate", "--method", "wor", "--cardinality", "5000",
            "--rows", "1000000", "--k", "1000", "--q", "2",
            "--trials", "2000", "--seed", "9", "--format", "json"]
    assert run(argv) == 0
    first = json.loads(capsys.readouterr().out)
    assert run(argv) == 0
    second = json.loads(capsys.readouterr().out)
    assert first["result"] == second["result"]
    assert 0.0 <= first["result"]["empirical_rate"] <= 1.0


def test_table1_to_stdout_and_file(capsys, tmp_path):
    assert run(["table1"]) == 0
    out = capsys.readouterr().out
    lines = [line for line in out.split("\n") if line]
    assert len(lines) == 19
    assert lines[0].startswith("c,p,")

    target = tmp_path / "t1.csv"
    assert run(["table1", "--out", str(target)]) == 0
    capsys.readouterr()
    assert target.read_text(encoding="utf-8").split("\n")[0].startswith("c,p,")


def test_figures_end_to_end(capsys, tmp_path):
    grid = tmp_path / "grid.txt"
    grid.write_text(
        "p = 0.005,0.2\nk = 100,1000\nq = lin:1:3:3\nmethod = wr,wor\nn = 1e6\n",
        encoding="utf-8",
    )
    out_dir = tmp_path / "series"
    code = run(["figures", "--grid", str(grid), "--out", str(out_dir),
                "--with-exact", "--with-simulation", "--trials", "500", "--seed", "4"])
    assert code == 0
    path = capsys.readouterr().out.strip()
    lines = (out_dir / "series.csv").read_text(encoding="utf-8").strip().split("\n")
    assert path.endswith("series.csv")
    assert len(lines) == 1 + 2 * 2 * 3 * 2
    header = lines[0].split(",")
    for needed in ("chernoff_over", "hoeffding_serfling_under", "exact", "empirical_rate"):
        assert needed in header


def test_figures_bad_axis_is_domain_error(capsys, tmp_path):
    for axes in ("p = 0.1\nk = 10\nq = nan", "c = 0,5\nn = 0\nk = 10\nq = 2",
                 "p = 0.1\nk = 10\nq = 0.5", "p = 0.1\nk = 0\nq = 2",
                 "p = 0.1\nk = inf\nq = 2"):
        grid = tmp_path / "grid.txt"
        grid.write_text(axes + "\n", encoding="utf-8")
        assert run(["figures", "--grid", str(grid), "--out", str(tmp_path / "o")]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err
        assert not (tmp_path / "o").exists()
    assert run(["table1", "--q", "nan"]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_figures_missing_grid_file_is_io_error(capsys, tmp_path):
    code = run(["figures", "--grid", str(tmp_path / "absent.txt"),
                "--out", str(tmp_path / "o")])
    assert code == 2


def test_estimate_end_to_end(capsys, tmp_path):
    table = tmp_path / "data.csv"
    lines = ["id,grp"] + [f"{i},{i % 4}" for i in range(2000)]
    table.write_text("\n".join(lines) + "\n", encoding="utf-8")

    argv = ["estimate", "--input", str(table), "--predicate", "grp = 1",
            "--method", "wor", "--k", "200", "--q", "2,4", "--seed", "11",
            "--format", "json"]
    assert run(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    result = payload["result"]
    assert result["n"] == 2000
    assert result["true_cardinality"] == 500
    assert result["p_used"] == 0.25
    assert result["estimate"] == result["hits"] * 10.0
    assert result["realized_q_error"] >= 1.0
    # counts are plain ints: no numpy scalar (or float) reaches the output
    assert type(result["hits"]) is int and type(result["true_cardinality"]) is int
    assert "confidence_q2" in result and "confidence_q4" in result

    # determinism under the same seed
    assert run(argv) == 0
    again = json.loads(capsys.readouterr().out)
    assert again["result"] == result


def test_estimate_assume_p(capsys, tmp_path):
    table = tmp_path / "data.csv"
    table.write_text("v\n1\n2\n3\n4\n5\n6\n7\n8\n", encoding="utf-8")
    assert run(["estimate", "--input", str(table), "--predicate", "v <= 4",
                "--method", "wr", "--k", "4", "--assume-p", "0.5",
                "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["result"]["p_source"] == "assumed"
    assert type(payload["result"]["hits"]) is int
    assert payload["result"]["true_cardinality"] is None
    assert payload["result"]["realized_q_error"] is None


def test_estimate_missing_input_is_io_error(capsys, tmp_path):
    code = run(["estimate", "--input", str(tmp_path / "nope.csv"),
                "--predicate", "a = 1", "--method", "wr", "--k", "5"])
    assert code == 2


def test_estimate_bad_predicate_is_usage_error(capsys, tmp_path):
    table = tmp_path / "data.csv"
    table.write_text("a\n1\n2\n", encoding="utf-8")
    code = run(["estimate", "--input", str(table), "--predicate", "a = 1 OR a = 2",
                "--method", "wr", "--k", "1"])
    assert code == 1


def test_unknown_subcommand(capsys):
    assert run(["frobnicate"]) == 1
