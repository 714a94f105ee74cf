"""Every command-line invocation of the corpus prints the recorded bytes.

`tests/data/cli_corpus.json` holds, for each argv below, the stdout, the
stderr and the exit code of `qbounds.cli.run`, run in a directory holding
`FILES`. It covers every invocation of `test_cli.py`, every subcommand in
every format it takes, the usage, domain and I/O error paths, and the
help of the command and of each subcommand. To record it again after a
change that alters an output on purpose:

    PYTHONPATH=src python tests/test_cli_corpus.py
"""

import contextlib
import functools
import io
import json
import os
import shlex
import sys
import tempfile
from pathlib import Path

import pytest

from qbounds.cli import run

CORPUS = Path(__file__).resolve().parent / "data" / "cli_corpus.json"
CANONICAL_GRID = Path(__file__).resolve().parents[1] / "perfbench" / "canonical_grid.txt"

_QUOTED = ['a,"nan"', "banana", "plain"]
FILES = {
    "t.csv": "a\n" + "".join(f"{i}\n" for i in range(20)),
    "data.csv": "id,grp\n" + "".join(f"{i},{i % 4}\n" for i in range(2000)),
    "v8.csv": "v\n1\n2\n3\n4\n5\n6\n7\n8\n",
    "v100.csv": "v\n" + "".join(f"{i}\n" for i in range(100)),
    "a12.csv": "a\n1\n2\n",
    "ab.csv": "a,b\n1,2\n",
    "quote_delimited.csv": 'a"b\n1"2\n',
    "long.csv": 'a,b\n1,"' + "x" * 200_000 + '"\n2,y\n',
    "names.csv": "name,v\n" + "".join(
        f'"{_QUOTED[i % 3].replace(chr(34), 2 * chr(34))}",{i}\n' for i in range(300)),
    "grid.txt": "p = 0.005,0.2\nk = 100,1000\nq = lin:1:3:3\nmethod = wr,wor\nn = 1e6\n",
    "grid_seed.txt": "p = 0.2\nk = 100\nq = 2\nmethod = wr\n",
    "grid_huge.txt": "p = 0,0.001\nk = 100\nq = 2\nn = 1e9\nmethod = wor\n",
    "bad_q_nan.txt": "p = 0.1\nk = 10\nq = nan\n",
    "bad_n.txt": "c = 0,5\nn = 0\nk = 10\nq = 2\n",
    "bad_q_low.txt": "p = 0.1\nk = 10\nq = 0.5\n",
    "bad_k_zero.txt": "p = 0.1\nk = 0\nq = 2\n",
    "bad_k_inf.txt": "p = 0.1\nk = inf\nq = 2\n",
    "empty_p.txt": "p =\nk = 10\nq = 2\n",
    "empty_c.txt": "c = \nn = 100\nk = 10\nq = 2\n",
    "twice_k.txt": "p = 0.1\nk = 10\nq = 2\nk = 20\n",
    "twice_method.txt": "p = 0.1\nmethod = wr\nk = 10\nq = 2\nMETHOD = wor\n",
    "bad_c_neg.txt": "c = -1\nn = 100\nk = 10\nq = 2\n",
    "bad_k_log.txt": "p = 0.1\nk = log:1:2\nq = 2\n",
    "bad_k_count.txt": "p = 0.1\nk = lin:1:10:0\nq = 2\n",
    "bad_hoeffding.txt": "p = 0.1\nk = 10\nq = 2\ninclude_hoeffding = maybe\n",
    "a_file": "",
}

_HUGE = "1" + "0" * 400
_CI_POP = "--cardinality 5000 --rows 1000000"
_RESULTS = [
    # bound
    "bound --method wr --p 0.005 --k 1000 --q 2",
    "bound --method wr --p 0.005 --k 1000 --q 2 --format csv",
    "bound --method wr --p 0.005 --k 1000 --q 2 --format json",
    "bound --method wor --cardinality 166666 --rows 1000000 --k 100 --q 2",
    "bound --method wor --cardinality 166666 --rows 1000000 --k 100 --q 2 --format csv",
    "bound --method wor --cardinality 166666 --rows 1000000 --k 100 --q 2 --format json",
    "bound --method wor --p 0.01 --rows 5000 --k 100 --q 1.5 --with-hoeffding --format json",
    "bound --method wr --p 0.3 --k 100 --q 2 --with-hoeffding",
    "bound --method wr --p 0.3 --k 100 --q 2 --with-hoeffding --format csv",
    "bound --method wr --p 0.3 --k 100 --q 2 --with-hoeffding --format json",
    "bound --method wr --cardinality 0 --rows 1000 --k 10 --q 2",
    "bound --method wr --cardinality 0 --rows 1000 --k 10 --q 2 --format csv",
    "bound --method wr --cardinality 0 --rows 1000 --k 10 --q 2 --format json",
    "bound --method wr --p 0.5 --rows 100 --k 10 --q 2 --format json",
    "bound --method wor --p 0.5 --k 10 --rows 100 --q 1e200 --format json",
    "bound --method wr --p 0.5 --k 10 --q 1e200 --with-hoeffding --format json",
    "bound --method wor --p 0.5 --k 99999999999999999 --rows 100000000000000000 --q 2 --format json",
    f"bound --method wr {_CI_POP} --k 3919 --q 2 --with-hoeffding --format json",
    f"bound --method wor {_CI_POP} --k 3919 --q 2 --format json",
    # solve-k
    "solve-k --method wr --p 0.005 --q 2 --confidence 0.39",
    "solve-k --method wr --p 0.005 --q 2 --confidence 0.39 --format csv",
    "solve-k --method wr --p 0.005 --q 2 --confidence 0.39 --format json",
    f"solve-k --method wr {_CI_POP} --q 2 --confidence 0.95 --format json",
    f"solve-k --method wor {_CI_POP} --q 2 --confidence 0.95",
    f"solve-k --method wor {_CI_POP} --q 2 --confidence 0.95 --format csv",
    f"solve-k --method wor {_CI_POP} --q 2 --confidence 0.95 --format json",
    "solve-k --method wr --p 0.005 --q 1.01 --confidence 0.99 --k-max 1000 --with-hoeffding",
    "solve-k --method wr --p 0.005 --q 1.01 --confidence 0.99 --k-max 1000 --format json",
    "solve-k --method wr --p 0 --q 2 --confidence 0.9 --format json",
    # solve-q
    "solve-q --method wr --p 0.005 --k 10 --confidence 0.999",
    "solve-q --method wr --p 0.005 --k 10 --confidence 0.999 --format csv",
    "solve-q --method wr --p 0.005 --k 10 --confidence 0.999 --format json",
    "solve-q --method wr --p 0.005 --k 10 --confidence 0.999 --q-max 1000000 --format json",
    f"solve-q --method wr {_CI_POP} --k 3919 --confidence 0.95 --format json",
    f"solve-q --method wor {_CI_POP} --k 3919 --confidence 0.95",
    f"solve-q --method wor {_CI_POP} --k 3919 --confidence 0.95 --format csv",
    f"solve-q --method wor {_CI_POP} --k 3919 --confidence 0.95 --format json",
    "solve-q --method wor --p 0.2 --rows 100000 --k 500 --confidence 0.9 --with-hoeffding --format json",
    # exact
    "exact --method wr --cardinality 5000 --rows 1000000 --k 1000 --q 2",
    "exact --method wr --cardinality 5000 --rows 1000000 --k 1000 --q 2 --format csv",
    "exact --method wr --cardinality 5000 --rows 1000000 --k 1000 --q 2 --format json",
    "exact --method wor --cardinality 5000 --rows 1000000 --k 1000 --q 2",
    "exact --method wor --cardinality 10 --rows 100 --k 10 --q 3 --format csv",
    "exact --method wor --cardinality 10 --rows 100 --k 10 --q 3 --format json",
    "exact --method wr --rows 1000000000000000000 --cardinality 999999999999999997 "
    "--k 100000000000000000 --q 1.5",
    "exact --method wr --rows 1000000000000000000 --cardinality 999999999999999000 "
    "--k 1000000000000000 --q 1.0000000000001",
    "exact --method wor --rows 149533246083845 --cardinality 38405147510443 --k 13863459 --q 1.488",
    # simulate
    "simulate --method wor --cardinality 5000 --rows 1000000 --k 1000 --q 2 --trials 2000 --seed 9",
    "simulate --method wor --cardinality 5000 --rows 1000000 --k 1000 --q 2 --trials 2000 "
    "--seed 9 --format csv",
    "simulate --method wor --cardinality 5000 --rows 1000000 --k 1000 --q 2 --trials 2000 "
    "--seed 9 --format json",
    "simulate --method wr --cardinality 50 --rows 1000 --k 100 --q 2 --trials 100 --seed 1 --format csv",
    "simulate --method wr --cardinality 50 --rows 1000 --k 100 --q 2 --trials 100 --seed 1 --format json",
    "simulate --method wr --cardinality 5000 --rows 1000000 --k 1000 --q 2 --trials 10000 --seed 7",
    "simulate --method wor --rows 1000000000 --cardinality 0 --k 100 --q 2 --trials 1000 --seed 1 "
    "--format json",
    "simulate --method wor --rows 1000000000 --cardinality 1000000000 --k 100 --q 2 --trials 1000 "
    "--seed 1 --format json",
    # table1 and figures
    "table1",
    "table1 --rows 3000000 --q 3.5",
    "table1 --out t1.csv",
    "figures --grid grid.txt --out series --with-exact --with-simulation --trials 500 --seed 4",
    "figures --grid grid_huge.txt --out series_huge --with-simulation --trials 1000 --seed 1",
    "figures --grid canonical.txt --out canonical",
    "figures --grid canonical.txt --with-exact --out canonical_exact",
    # estimate
    "estimate --input data.csv --predicate 'grp = 1' --method wor --k 200 --q 2,4 --seed 11",
    "estimate --input data.csv --predicate 'grp = 1' --method wor --k 200 --q 2,4 --seed 11 "
    "--format csv",
    "estimate --input data.csv --predicate 'grp = 1' --method wor --k 200 --q 2,4 --seed 11 "
    "--format json",
    "estimate --input v8.csv --predicate 'v <= 4' --method wr --k 4 --assume-p 0.5 --format json",
    "estimate --input v8.csv --predicate 'v <= 4' --method wr --k 4 --assume-p 0.5",
    "estimate --input long.csv --predicate 'a = 1' --method wr --k 1 --seed 1 --format json",
    "estimate --input t.csv --predicate \"col0 = '5'\" --method wor --k 5 --no-header --delimiter ';'",
    "estimate --input names.csv --predicate \"name = 'a,\\\"nan\\\"'\" --method wor --k 50 "
    "--q 2,3 --seed 3 --format csv",
    "estimate --input names.csv --predicate \"name = 'a,\\\"nan\\\"'\" --method wor --k 50 "
    "--q 2,3 --seed 3 --format json",
]
for _qs in ("2,4", "2.000001,2.000002", "1.5,1e6,1234567.5"):
    for _fmt in ("text", "csv", "json"):
        _RESULTS.append(f"estimate --input v100.csv --predicate 'v < 30' --method wr --k 20 "
                        f"--q {_qs} --format {_fmt}")

_USAGE_ERRORS = [
    "",
    "frobnicate",
    "bound",
    "bound --method xx --p 0.1 --k 5 --q 2",
    "bound --method wr --p 0.1 --k abc --q 2",
    "bound --method wr --p 0.1 --k 5 --q 2 --format xml",
    "bound --method wr --p 0.1 --k 5 --q 2 --bogus",
    "bound --method wr --p 0.1 --cardinality 5 --rows 10 --k 5 --q 2",
    "bound --method wr --cardinality 5 --k 5 --q 2",
    "bound --method wr --k 5 --q 2",
    "bound --method wor --p 0.1 --k 5 --q 2",
    "solve-k --method wor --p 0.1 --q 2 --confidence 0.9",
    "solve-q --method wor --p 0.1 --k 5 --confidence 0.9 --format csv",
    "exact --method wr --cardinality 5 --k 5 --q 2",
    "simulate --method wr --cardinality 5 --rows 10 --k 5 --q 2 --trials 10",
    "table1 --rows abc",
    "figures --out o",
    "estimate --input t.csv --method wr --k 5",
    "estimate --input a12.csv --predicate 'a = 1 OR a = 2' --method wr --k 1",
    "estimate --input v100.csv --predicate 'v < 30' --method wr --k 20 --q 2,2",
    "estimate --input v100.csv --predicate 'v < 30' --method wr --k 20 --q 2,3,2.0",
    "estimate --input v100.csv --predicate 'v < 30' --method wr --k 20 --q ''",
    "estimate --input v100.csv --predicate 'v < 30' --method wr --k 20 --q ,",
    "estimate --input v100.csv --predicate 'v < 30' --method wr --k 20 --q 2,abc",
]

_DOMAIN_ERRORS = [
    "bound --method wor --cardinality 2 --rows 5 --k 10 --q 2",
    "bound --method wr --p 0.1 --k 100 --q nan",
    "bound --method wr --p 0.1 --k 100 --q inf",
    "bound --method wor --p 0.1 --k 100 --rows 1000 --q=-inf",
    "bound --method wr --p 0 --k 0 --q 0.5",
    "bound --method wr --p nan --k 10 --q 2",
    "bound --method wr --cardinality 11 --rows 10 --k 5 --q 2",
    "bound --method wr --cardinality 5 --rows 0 --k 5 --q 2",
    "solve-k --method wor --p 1.5 --rows 100 --q 2 --confidence 0.5",
    "solve-k --method wr --p 0.1 --q nan --confidence 0.5",
    "solve-k --method wr --p 0.1 --q 2 --confidence 1.5",
    "solve-q --method wr --p 0.1 --k 100 --confidence 0.5 --q-max inf --format json",
    "solve-q --method wr --p 0.1 --k 0 --confidence 0.5",
    "exact --method wr --cardinality 10 --rows 100 --k 10 --q inf",
    "exact --method wr --cardinality 10 --rows 100 --k 10 --q nan",
    "exact --method wor --cardinality 10 --rows 100 --k 100 --q 2",
    "exact --method wr --rows 10000000000000000000 --cardinality 5 --k 10 --q 2",
    "exact --method wor --rows 10000000000000 --cardinality 5000000000000 --k 1000000000000 --q 2",
    "simulate --method wor --cardinality 10 --rows 100 --k 10 --q inf --trials 10 --seed 1",
    "simulate --method wor --rows 2000000000 --cardinality 10 --k 10 --q 2 --trials 10 --seed 1",
    "simulate --method wr --cardinality 10 --rows 100 --k 10 --q 2 --trials 0 --seed 1",
    "simulate --method wr --cardinality 10 --rows 100 --k 10 --q 2 --trials 10 --seed -1",
    "estimate --input t.csv --predicate a<5 --method wr --k 10 --q nan",
    "estimate --input t.csv --predicate 'a < 5' --method wor --k 50",
    "estimate --input t.csv --predicate 'b < 5' --method wr --k 5",
    "estimate --input t.csv --predicate 'a < 5' --method wr --k 5 --assume-p 2",
    "estimate --input ab.csv --predicate 'AND = 1' --method wr --k 1",
    "estimate --input ab.csv --predicate 'a = b' --method wr --k 1",
    # an integer literal past int()'s digit limit (4,300 by default)
    f"estimate --input ab.csv --predicate 'a = {'9' * 5000}' --method wr --k 1",
    f"bound --method wr --p 0.1 --k {_HUGE} --q 2",
    f"solve-k --method wr --p 0 --q 2 --confidence 0.9 --k-max {_HUGE}",
    f"simulate --method wr --cardinality 5 --rows {_HUGE} --k 10 --q 2 --trials 10 --seed 1",
    f"solve-k --method wor --cardinality 5 --rows {_HUGE} --q 2 --confidence 0.9",
    f"bound --method wr --cardinality 5 --rows {_HUGE} --k 10 --q 2",
    f"bound --method wor --p 0.5 --k 10 --rows {_HUGE} --q 2",
    "table1 --q nan",
    "table1 --rows 0",
    "table1 --rows 500",
    "figures --grid bad_q_nan.txt --out o",
    "figures --grid bad_n.txt --out o",
    "figures --grid bad_q_low.txt --out o",
    "figures --grid bad_k_zero.txt --out o",
    "figures --grid bad_k_inf.txt --out o",
    "figures --grid empty_p.txt --out o",
    "figures --grid empty_c.txt --out o",
    "figures --grid twice_k.txt --out o",
    "figures --grid twice_method.txt --out o",
    "figures --grid bad_c_neg.txt --out o",
    "figures --grid bad_k_log.txt --out o",
    "figures --grid bad_k_count.txt --out o",
    "figures --grid bad_hoeffding.txt --out o",
    "figures --grid grid_seed.txt --out o --with-simulation --trials 10 --seed -1",
    f"figures --grid grid_seed.txt --out o --with-simulation --trials 10 --seed {2**64}",
]
for _method in ("wr", "wor"):
    for _seed in ("-1", str(2**64)):
        _DOMAIN_ERRORS.append(f"estimate --input t.csv --predicate 'a < 5' --method {_method} "
                              f"--k 5 --seed {_seed}")
for _delimiter, _table in (("ab", "ab.csv"), ("", "ab.csv"), ("\n", "ab.csv"),
                           ("\r", "ab.csv"), ('"', "quote_delimited.csv")):
    _DOMAIN_ERRORS.append(["estimate", "--input", _table, "--predicate", "a = 1", "--method",
                           "wr", "--k", "1", "--seed", "1", "--delimiter", _delimiter])
# --rows outside 1 <= n <= the largest double, whatever the method
for _rows in ("-5", "0"):
    _DOMAIN_ERRORS += [
        f"bound --method wr --p 0.5 --rows {_rows} --k 10 --q 2 --format json",
        f"bound --method wor --p 0.5 --rows {_rows} --k 10 --q 2",
        f"solve-k --method wr --p 0.5 --rows {_rows} --q 2 --confidence 0.9",
        f"solve-q --method wr --p 0.5 --rows {_rows} --k 10 --confidence 0.9",
    ]
_DOMAIN_ERRORS.append(f"bound --method wr --p 0.5 --rows {_HUGE} --k 10 --q 2")

_IO_ERRORS = [
    "figures --grid absent.txt --out o",
    "figures --grid grid_seed.txt --out a_file",
    "table1 --out no_such_dir/t1.csv",
    "estimate --input nope.csv --predicate 'a = 1' --method wr --k 5",
    "estimate --input . --predicate 'a = 1' --method wr --k 5",
]

_HELP = ["--help", "-h"] + [
    f"{command} --help"
    for command in ("bound", "solve-k", "solve-q", "exact", "simulate", "table1", "figures",
                    "estimate")
]


# a case is a shell-quoted line, or an argv list where shlex cannot quote an argument
CASES = [shlex.split(case) if isinstance(case, str) else case
         for case in _RESULTS + _USAGE_ERRORS + _DOMAIN_ERRORS + _IO_ERRORS + _HELP]


def _write_files(directory: Path) -> None:
    for name, text in FILES.items():
        (directory / name).write_text(text, encoding="utf-8")
    (directory / "canonical.txt").write_bytes(CANONICAL_GRID.read_bytes())


def _invoke(argv: list[str]) -> dict:
    """stdout, stderr and exit code of one run; --help exits through SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as stop:
            code = stop.code
    return {"argv": argv, "stdout": out.getvalue(), "stderr": err.getvalue(), "code": code}


@functools.cache
def _recorded() -> dict:
    return json.loads(CORPUS.read_text(encoding="utf-8"))


def _id(argv: list[str]) -> str:
    return " ".join(part if len(part) <= 24 else part[:12] + "..." for part in argv) or "(none)"


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("corpus")
    _write_files(directory)
    return directory


def test_corpus_holds_every_case_once():
    assert [entry["argv"] for entry in _recorded()["entries"]] == CASES


@pytest.mark.parametrize("index", range(len(CASES)), ids=[_id(argv) for argv in CASES])
def test_cli_prints_the_recorded_bytes(corpus_dir, monkeypatch, index):
    recorded = _recorded()
    want = recorded["entries"][index]
    if "usage:" in want["stdout"] + want["stderr"] and \
            list(sys.version_info[:2]) != recorded["python"]:
        pytest.skip("argparse lays out usage and help differently in each Python version")
    monkeypatch.chdir(corpus_dir)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    assert _invoke(want["argv"]) == want


def record() -> None:
    """Run every case and write the corpus."""
    os.environ["COLUMNS"] = "80"
    with tempfile.TemporaryDirectory() as scratch:
        _write_files(Path(scratch))
        here = os.getcwd()
        os.chdir(scratch)
        try:
            entries = [_invoke(argv) for argv in CASES]
        finally:
            os.chdir(here)
    corpus = {"python": list(sys.version_info[:2]), "entries": entries}
    CORPUS.write_text(json.dumps(corpus, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")


if __name__ == "__main__":
    record()
