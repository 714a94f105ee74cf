import builtins
import csv
import io
import json
import os
import stat
import subprocess
import sys
from pathlib import Path

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


def test_solve_q_echoes_the_default_q_max_as_the_float_it_parses(capsys):
    # argparse applies type=float to string defaults only: the default is a
    # float itself, so the echo reads as it does when --q-max is given
    argv = ["solve-q", "--method", "wr", "--p", "0.005", "--k", "10",
            "--confidence", "0.999", "--format", "json"]
    outputs = []
    for extra in ([], ["--q-max", "1000000"]):
        assert run(argv + extra) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert '"q_max": 1000000.0' in outputs[0]


def test_exact_subcommand(capsys):
    code = run(["exact", "--method", "wr", "--cardinality", "5000",
                "--rows", "1000000", "--k", "1000", "--q", "2", "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["result"]["exact_confidence"] == pytest.approx(0.8625113734390672, rel=1e-9)
    assert payload["result"]["admissible_lo"] == 3
    assert payload["result"]["admissible_hi"] == 10


@pytest.mark.parametrize("argv", [
    # c/n rounds to 1.0: the odds c/(n-c) come from the integers instead
    "--method wr --rows 1000000000000000000 --cardinality 999999999999999997 "
    "--k 100000000000000000 --q 1.5",
    "--method wr --rows 1000000000000000000 --cardinality 999999999999999000 "
    "--k 1000000000000000 --q 1.0000000000001",
    # the admissible range [2392877, 5298173] reaches 700 sd either side of the mean
    "--method wor --rows 149533246083845 --cardinality 38405147510443 --k 13863459 --q 1.488",
])
def test_exact_at_huge_n(capsys, argv):
    assert run(["exact"] + argv.split()) == 0
    assert _text_result(capsys)["exact_confidence"] == "1.0"


def test_exact_refusals_are_domain_errors(capsys):
    for argv in (
        "--method wr --rows 10000000000000000000 --cardinality 5 --k 10 --q 2",
        "--method wor --rows 10000000000000 --cardinality 5000000000000 --k 1000000000000 --q 2",
    ):
        assert run(["exact"] + argv.split()) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1


def test_runs_without_scipy():
    # scipy is a test dependency only: the library and the CLI must not need it
    code = "\n".join([
        "import sys",
        "sys.modules['scipy'] = None",
        "try:",
        "    import scipy",
        "except ImportError:",
        "    pass",
        "else:",
        "    raise SystemExit('scipy still importable')",
        "import qbounds",
        "from qbounds.cli import run",
        "assert run(['exact', '--method', 'wor', '--cardinality', '5000', '--rows', '1000000',",
        "            '--k', '1000', '--q', '2']) == 0",
        "assert run(['table1']) == 0",
    ])
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("exact_confidence 0.86268225720610")
    assert "c,p," in done.stdout


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


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_figures_simulation_seed_outside_rule_is_domain_error(capsys, tmp_path, seed):
    grid = tmp_path / "grid.txt"
    grid.write_text("p = 0.2\nk = 100\nq = 2\nmethod = wr\n", encoding="utf-8")
    out_dir = tmp_path / "series"
    assert run(["figures", "--grid", str(grid), "--out", str(out_dir),
                "--with-simulation", "--trials", "10", "--seed", seed]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: seed must be an unsigned 64-bit integer, got {seed}\n"
    assert not out_dir.exists()


def test_simulate_population_beyond_numpys_sampler_is_domain_error(capsys):
    assert run(["simulate", "--method", "wor", "--rows", "2000000000", "--cardinality", "10",
                "--k", "10", "--q", "2", "--trials", "10", "--seed", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: simulation without replacement needs C and n - C below "
                            "1,000,000,000, got C=10, n - C=1999999990\n")


@pytest.mark.parametrize("cardinality", ["0", "1000000000"])
def test_simulate_fixed_hit_count_beyond_numpys_sampler(capsys, cardinality):
    # C = 0 and C = n need no hypergeometric draw, so n = 1e9 is no limit
    assert run(["simulate", "--method", "wor", "--rows", "1000000000",
                "--cardinality", cardinality, "--k", "100", "--q", "2",
                "--trials", "1000", "--seed", "1", "--format", "json"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["successes"] == result["trials"] == 1000


def test_figures_simulation_with_empty_predicate_at_huge_n(capsys, tmp_path):
    grid = tmp_path / "grid.txt"
    grid.write_text("p = 0,0.001\nk = 100\nq = 2\nn = 1e9\nmethod = wor\n", encoding="utf-8")
    out_dir = tmp_path / "series"
    assert run(["figures", "--grid", str(grid), "--out", str(out_dir),
                "--with-simulation", "--trials", "1000", "--seed", "1"]) == 0
    capsys.readouterr()
    rows = list(csv.DictReader(io.StringIO((out_dir / "series.csv").read_text(encoding="utf-8"))))
    assert [(row["c"], row["status"]) for row in rows] == [("0", "degenerate"), ("1000000", "ok")]
    assert rows[0]["empirical_rate"] == "1"


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


@pytest.mark.parametrize("argv, message", [
    ("bound --method wr --p 0.1 --k 100 --q nan", "q must be finite"),
    ("bound --method wr --p 0.1 --k 100 --q inf", "q must be finite"),
    ("bound --method wor --p 0.1 --k 100 --rows 1000 --q=-inf", "q must be finite"),
    ("bound --method wr --p 0 --k 0 --q 0.5", "sample size"),
    ("bound --method wr --p nan --k 10 --q 2", "selectivity must be in (0, 1]"),
    ("solve-k --method wor --p 1.5 --rows 100 --q 2 --confidence 0.5", "selectivity"),
    ("exact --method wr --cardinality 10 --rows 100 --k 10 --q inf", "q must be finite"),
    ("exact --method wr --cardinality 10 --rows 100 --k 10 --q nan", "q must be finite"),
    ("simulate --method wor --cardinality 10 --rows 100 --k 10 --q inf --trials 10 --seed 1",
     "q must be finite"),
    ("solve-k --method wr --p 0.1 --q nan --confidence 0.5", "q must be finite"),
    ("solve-q --method wr --p 0.1 --k 100 --confidence 0.5 --q-max inf --format json",
     "q must be finite"),
    ("estimate --input {table} --predicate a<5 --method wr --k 10 --q nan", "q must be finite"),
])
def test_out_of_domain_input_is_domain_error(capsys, tmp_path, argv, message):
    table = tmp_path / "t.csv"
    table.write_text("a\n" + "".join(f"{i}\n" for i in range(20)), encoding="utf-8")
    assert run(argv.format(table=table).split()) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err
    assert message in captured.err


@pytest.mark.parametrize("argv", [
    "bound --method wr --p 0.1 --k 1" + "0" * 400 + " --q 2",
    "solve-k --method wr --p 0 --q 2 --confidence 0.9 --k-max 1" + "0" * 400,
    "simulate --method wr --cardinality 5 --rows 1" + "0" * 400
    + " --k 10 --q 2 --trials 10 --seed 1",
    "solve-k --method wor --cardinality 5 --rows 1" + "0" * 400 + " --q 2 --confidence 0.9",
    "bound --method wr --cardinality 5 --rows 1" + "0" * 400 + " --k 10 --q 2",
    "bound --method wor --p 0.5 --k 10 --rows 1" + "0" * 400 + " --q 2",
])
def test_sizes_past_the_float_range_are_domain_errors(capsys, argv):
    assert run(argv.split()) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "must be finite and >= 1" in captured.err


@pytest.mark.parametrize("method", ["wr", "wor"])
@pytest.mark.parametrize("rows, message", [
    ("-5", "population size must be >= 1, got -5"),
    ("0", "population size must be >= 1, got 0"),
    pytest.param("1" + "0" * 400, "population size must be finite and >= 1, got 1" + "0" * 400,
                 id="1e400"),
])
@pytest.mark.parametrize("command", [
    "bound --k 10 --q 2",
    "solve-k --q 2 --confidence 0.9",
    "solve-q --k 10 --confidence 0.9",
])
def test_rows_outside_the_table_size_rule_are_domain_errors(capsys, command, rows, message, method):
    # --rows with --p is held to PopulationSpec's rule for n with either method,
    # though sampling with replacement does not read n
    argv = command.split() + ["--method", method, "--p", "0.5", "--rows", rows]
    assert run(argv + ["--format", "json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("rows, message", [
    ("-5", "population size must be >= 1, got -5"),
    ("0", "population size must be >= 1, got 0"),
    pytest.param("1" + "0" * 400, "population size must be finite and >= 1, got 1" + "0" * 400,
                 id="1e400"),
])
def test_table1_rows_outside_the_table_size_rule_are_domain_errors(capsys, rows, message):
    # the table-size rule is named before any cardinality is held against n
    assert run(["table1", "--rows", rows]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [
    "bound --method wor --p 0.5 --k 10 --rows 100 --q 1e200",
    "bound --method wr --p 0.5 --k 10 --q 1e200 --with-hoeffding",
])
def test_huge_q_bound(capsys, argv):
    # `x ** 2` raises OverflowError on a Python float where x * x gives inf
    assert run(argv.split() + ["--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert 0.99 < payload["result"]["confidence"] <= 1.0
    assert all(t["applicable"] and 0.0 <= t["probability"] <= 1.0 for t in payload["terms"])


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


@pytest.mark.parametrize("method", ["wr", "wor"])
@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_estimate_seed_outside_rule_is_domain_error(capsys, tmp_path, method, seed):
    table = tmp_path / "data.csv"
    table.write_text("a\n" + "".join(f"{i}\n" for i in range(20)), encoding="utf-8")
    assert run(["estimate", "--input", str(table), "--predicate", "a < 5",
                "--method", method, "--k", "5", "--seed", seed]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: seed must be an unsigned 64-bit integer, got {seed}\n"


def test_estimate_long_quoted_cell_loads(capsys, tmp_path):
    # a quoted cell longer than csv.field_size_limit() loads as its quote-free
    # form does; the limit is process-wide and stays as it is
    limit = csv.field_size_limit()
    table = tmp_path / "long.csv"
    table.write_text('a,b\n1,"' + "x" * 200_000 + '"\n2,y\n', encoding="utf-8")
    assert run(["estimate", "--input", str(table), "--predicate", "a = 1",
                "--method", "wr", "--k", "1", "--seed", "1", "--format", "json"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["result"]["true_cardinality"] == 1
    assert csv.field_size_limit() == limit


@pytest.mark.parametrize("delimiter", ["ab", "", "\n", "\r", '"'])
def test_estimate_bad_delimiter_is_domain_error(capsys, tmp_path, delimiter):
    # `"` quotes a cell, so it splits none, even in a file it would split into a table
    table = tmp_path / "t.csv"
    table.write_text('a"b\n1"2\n' if delimiter == '"' else "a,b\n1,2\n", encoding="utf-8")
    assert run(["estimate", "--input", str(table), "--predicate", "a = 1", "--method", "wr",
                "--k", "1", "--seed", "1", "--delimiter", delimiter]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: the delimiter must be one character")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_estimate_missing_input_is_io_error(capsys, tmp_path):
    code = run(["estimate", "--input", str(tmp_path / "nope.csv"),
                "--predicate", "a = 1", "--method", "wr", "--k", "5"])
    assert code == 2


@pytest.mark.parametrize("qs", ["", ",", " , "])
def test_estimate_without_a_q_value_is_usage_error(capsys, tmp_path, qs):
    table = tmp_path / "t.csv"
    table.write_text("a\n" + "".join(f"{i}\n" for i in range(20)), encoding="utf-8")
    assert run(["estimate", "--input", str(table), "--predicate", "a < 5", "--method", "wr",
                "--k", "5", "--q", qs]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --q needs at least one q value\n"


@pytest.mark.parametrize("qs, item", [("2,abc", "abc"), ("abc", "abc"), ("1.5, 2x ,3", "2x")])
def test_estimate_q_list_with_a_non_number_is_usage_error(capsys, tmp_path, qs, item):
    table = tmp_path / "t.csv"
    table.write_text("a\n" + "".join(f"{i}\n" for i in range(20)), encoding="utf-8")
    assert run(["estimate", "--input", str(table), "--predicate", "a < 5", "--method", "wr",
                "--k", "5", "--q", qs]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --q lists {item!r}, which is not a number: {qs}\n"


def test_estimate_bad_predicate_is_usage_error(capsys, tmp_path):
    table = tmp_path / "data.csv"
    table.write_text("a\n1\n2\n", encoding="utf-8")
    code = run(["estimate", "--input", str(table), "--predicate", "a = 1 OR a = 2",
                "--method", "wr", "--k", "1"])
    assert code == 1


def test_unknown_subcommand(capsys):
    assert run(["frobnicate"]) == 1


def _csv_and_json(capsys, argv):
    """The csv record of a command, parsed, and its JSON values by column."""
    assert run(argv + ["--format", "csv"]) == 0
    header, *rows = csv.reader(io.StringIO(capsys.readouterr().out))
    assert len(rows) == 1 and len(rows[0]) == len(header) == len(set(header))
    assert run(argv + ["--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    values = {**payload["query"], **payload["result"]}
    values.update((f"{t['inequality']}_{t['side']}", t["probability"]) for t in payload["terms"])
    return dict(zip(header, rows[0])), values


def test_estimate_csv_quotes_text_cells(capsys, tmp_path):
    table = tmp_path / "t.csv"
    names = ['a,"nan"', "banana", "plain"]
    table.write_text(
        "name,v\n" + "".join(f'"{names[i % 3].replace(chr(34), 2 * chr(34))}",{i}\n'
                             for i in range(300)),
        encoding="utf-8",
    )
    predicate = """name = 'a,"nan"'"""
    argv = ["estimate", "--input", str(table), "--predicate", predicate,
            "--method", "wor", "--k", "50", "--q", "2,3", "--seed", "3"]
    cells, values = _csv_and_json(capsys, argv)
    assert list(cells) == list(values)
    assert cells["predicate"] == predicate and cells["true_cardinality"] == "100"
    for key, value in values.items():
        assert cells[key] == ("NA" if value is None else str(value)), key


@pytest.mark.parametrize("argv", [
    "bound --method wr --p 0.3 --k 100 --q 2 --with-hoeffding",
    "solve-q --method wr --p 0.005 --k 10 --confidence 0.999",
    "exact --method wor --cardinality 10 --rows 100 --k 10 --q 3",
    "simulate --method wr --cardinality 50 --rows 1000 --k 100 --q 2 --trials 100 --seed 1",
])
def test_csv_record_matches_json(capsys, argv):
    # one flat record: each column once (simulate's query and result both
    # hold `trials`, always equal), every cell the JSON value through str()
    cells, values = _csv_and_json(capsys, argv.split())
    assert list(cells) == list(values)
    for key, value in values.items():
        assert cells[key] == ("NA" if value is None else str(value)), key


def test_estimate_per_q_column_names(capsys, tmp_path):
    table = tmp_path / "t.csv"
    table.write_text("v\n" + "".join(f"{i}\n" for i in range(100)), encoding="utf-8")
    base = ["estimate", "--input", str(table), "--predicate", "v < 30",
            "--method", "wr", "--k", "20"]
    # names are q's shortest round-trip form: %g kept 6 digits and made
    # 2.000001 and 2.000002 one column
    cases = {
        "2,4": ["confidence_q2", "confidence_q4"],
        "2.000001,2.000002": ["confidence_q2.000001", "confidence_q2.000002"],
        "1.5,1e6,1234567.5": ["confidence_q1.5", "confidence_q1000000",
                              "confidence_q1234567.5"],
    }
    for qs, names in cases.items():
        cells, values = _csv_and_json(capsys, base + ["--q", qs])
        assert [key for key in values if key.startswith("confidence_q")] == names
        assert [key for key in cells if key.startswith("confidence_q")] == names
        assert run(base + ["--q", qs]) == 0
        text = capsys.readouterr().out.split("\n")
        assert [line.split(" ")[0] for line in text if line.startswith("confidence_q")] == names
    # a q listed twice would name one column twice
    for qs in ("2,2", "2,3,2.0"):
        assert run(base + ["--q", qs]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")


def test_bound_k_just_below_huge_n(capsys):
    # rho = (n - k)(k + 1) / (n k) in integers: 1 - k/n rounded to 0 here
    argv = ["bound", "--method", "wor", "--p", "0.5", "--k", "99999999999999999",
            "--rows", "100000000000000000", "--q", "2", "--format", "json"]
    assert run(argv) == 0
    assert json.loads(capsys.readouterr().out)["result"]["confidence"] == 1.0


def test_figures_on_the_canonical_grid_print_the_reference_series(capsys, tmp_path):
    # the grid path end to end, byte for byte against the recorded series
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    assert run(["figures", "--grid", str(bench / "canonical_grid.txt"), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert (tmp_path / "series.csv").read_bytes() == (bench / "reference_series.csv").read_bytes()


_DATA = Path(__file__).resolve().parent / "data"


@pytest.mark.parametrize("argv, recorded", [
    (["table1"], "table1.csv"),
    (["table1", "--rows", "3000000", "--q", "3.5"], "table1_rows3000000_q3.5.csv"),
])
def test_table1_prints_the_recorded_csv(capsys, argv, recorded):
    assert run(argv) == 0
    assert capsys.readouterr().out == (_DATA / recorded).read_text(encoding="utf-8")


def test_figures_with_exact_on_the_canonical_grid_print_the_recorded_series(capsys, tmp_path):
    grid = Path(__file__).resolve().parents[1] / "perfbench" / "canonical_grid.txt"
    assert run(["figures", "--grid", str(grid), "--with-exact", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    recorded = (_DATA / "canonical_series_exact.csv").read_bytes()
    assert (tmp_path / "series.csv").read_bytes() == recorded


def test_figures_with_exact_on_the_comparison_grid_print_the_recorded_series(capsys, tmp_path):
    # a c axis: the cardinalities are given, and p = c / n is printed from them
    grid = Path(__file__).resolve().parents[1] / "scripts" / "comparison_grid.txt"
    assert run(["figures", "--grid", str(grid), "--with-exact", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    recorded = (_DATA / "comparison_series_exact.csv").read_bytes()
    assert (tmp_path / "series.csv").read_bytes() == recorded


@pytest.mark.parametrize("text, message", [
    ("p =\nk = 10\nq = 2", "axis p must not be empty"),
    ("c = \nn = 100\nk = 10\nq = 2", "axis c must not be empty"),
    ("p = 0.1\nk = 10\nq = 2\nk = 20", "grid file line 4: key 'k' given twice"),
    ("p = 0.1\nmethod = wr\nk = 10\nq = 2\nMETHOD = wor", "grid file line 5: key 'method' given twice"),
])
def test_figures_bad_grid_file_is_domain_error(capsys, tmp_path, text, message):
    grid = tmp_path / "grid.txt"
    grid.write_text(text + "\n", encoding="utf-8")
    assert run(["figures", "--grid", str(grid), "--out", str(tmp_path / "o")]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"
    assert not (tmp_path / "o").exists()


# --out files are rewritten in place: opened without O_TRUNC, then cut at
# the end of what was written, so they end as a fresh write would leave them
_CANONICAL = Path(__file__).resolve().parents[1] / "perfbench" / "canonical_grid.txt"
_REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference_series.csv"


def _write_out(command, target):
    """Run `command` with --out naming `target`, the file it writes."""
    if command == "table1":
        argv = ["table1", "--out", str(target)]
    else:
        argv = ["figures", "--grid", str(_CANONICAL), "--out", str(target.parent)]
    return run(argv)


@pytest.mark.parametrize("command, recorded", [
    ("table1", _DATA / "table1.csv"),
    ("figures", _REFERENCE),
])
def test_out_over_a_longer_file_holds_the_bytes_of_a_fresh_write(capsys, tmp_path, command, recorded):
    target = tmp_path / "series.csv"
    target.write_bytes(b"junk,\xff\n" * (len(recorded.read_bytes()) // 3))
    inode = target.stat().st_ino
    os.link(target, tmp_path / "hard_link")
    assert _write_out(command, target) == 0
    assert capsys.readouterr().out == f"{target}\n"
    assert target.read_bytes() == recorded.read_bytes()
    assert target.stat().st_ino == inode
    assert (tmp_path / "hard_link").read_bytes() == recorded.read_bytes()


@pytest.mark.parametrize("command, recorded", [
    ("table1", _DATA / "table1.csv"),
    ("figures", _REFERENCE),
])
def test_out_through_a_symlink_writes_its_target(capsys, tmp_path, command, recorded):
    real = tmp_path / "real.csv"
    real.write_text("x" * 10**6, encoding="utf-8")
    (tmp_path / "out").mkdir()
    link = tmp_path / "out" / "series.csv"
    link.symlink_to(real)
    assert _write_out(command, link) == 0
    capsys.readouterr()
    assert link.is_symlink()
    assert real.read_bytes() == recorded.read_bytes()


def test_out_keeps_a_files_mode_and_creates_one_as_open_does(capsys, tmp_path):
    existing, new, reference = tmp_path / "existing.csv", tmp_path / "new.csv", tmp_path / "ref"
    existing.write_text("old", encoding="utf-8")
    existing.chmod(0o604)
    old_umask = os.umask(0o027)
    try:
        with open(reference, "w", encoding="utf-8"):
            pass
        assert run(["table1", "--out", str(existing)]) == 0
        assert run(["table1", "--out", str(new)]) == 0
    finally:
        os.umask(old_umask)
    capsys.readouterr()
    assert stat.S_IMODE(existing.stat().st_mode) == 0o604
    assert stat.S_IMODE(new.stat().st_mode) == stat.S_IMODE(reference.stat().st_mode) == 0o640
    assert new.read_bytes() == (_DATA / "table1.csv").read_bytes()


def test_table1_out_to_the_null_device_exits_zero(capsys):
    assert run(["table1", "--out", os.devnull]) == 0
    assert capsys.readouterr().out == f"{os.devnull}\n"


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_table1_out_to_a_fifo_is_written_and_not_cut(capsys, tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # so the writer's open does not block
    try:
        assert run(["table1", "--out", str(fifo)]) == 0
        got = os.read(reader, 1 << 16)
    finally:
        os.close(reader)
    capsys.readouterr()
    assert got == (_DATA / "table1.csv").read_bytes()


def test_out_naming_a_directory_is_the_io_error_of_open(capsys, tmp_path):
    with pytest.raises(OSError) as refused:
        open(tmp_path, "w", encoding="utf-8")  # noqa: SIM115 - only its error is wanted
    assert run(["table1", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"i/o error: {refused.value}\n"


def test_no_output_file_is_opened_with_o_trunc(capsys, tmp_path, monkeypatch):
    opened, texts = [], []
    os_open, builtin_open = os.open, builtins.open

    def record_os_open(path, flags, *args, **kwargs):
        opened.append((os.fspath(path), flags))
        return os_open(path, flags, *args, **kwargs)

    def record_open(file, mode="r", *args, **kwargs):
        texts.append((file, mode))
        return builtin_open(file, mode, *args, **kwargs)

    table, series = tmp_path / "t1.csv", tmp_path / "series.csv"
    for target in (table, series):
        target.write_text("x" * 10**6, encoding="utf-8")
    monkeypatch.setattr(os, "open", record_os_open)
    monkeypatch.setattr(builtins, "open", record_open)
    assert _write_out("table1", table) == 0
    assert _write_out("figures", series) == 0
    monkeypatch.undo()
    capsys.readouterr()
    assert [path for path, _ in opened] == [str(table), str(series)]
    assert not [flags for _, flags in opened if flags & os.O_TRUNC]
    # a path is only opened to be read; a write-mode open only wraps a descriptor
    assert all(isinstance(file, int) for file, mode in texts if set(mode) & set("wax+"))
    assert table.read_bytes() == (_DATA / "table1.csv").read_bytes()
    assert series.read_bytes() == _REFERENCE.read_bytes()
