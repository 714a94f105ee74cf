"""The package's one export list, each name resolved on first read, and a
scalar bound and solvers, in the library and on the command line, that run
without numpy."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qbounds
from qbounds import Side, SamplingMethod

SRC = Path(__file__).resolve().parents[1] / "src"

EXPORTS = [
    "AdmissibleRange", "BoundResult", "BoundTerm", "ColumnType", "EstimateReport", "GridSpec",
    "InequalityKind", "LoadOptions", "PopulationSpec", "Predicate", "RNG_SCHEME",
    "SampleDesign", "SamplingMethod", "Side", "SimulationConfig", "SimulationSummary",
    "TableData", "Unreachable", "admissible_range", "bernstein_serfling_term",
    "bernstein_term", "chernoff_term", "confidence_wor", "confidence_wr",
    "default_inequalities", "estimate_from_hits", "estimate_with_bounds",
    "evaluate_confidence", "exact_confidence", "figure_series", "hoeffding_serfling_term",
    "hoeffding_term", "load_table", "min_sample_size", "parse_grid_file", "parse_predicate",
    "q_at_confidence", "q_error", "run_simulation", "serfling_coefficients", "table1",
    "true_cardinality", "validate_design",
]


def test_export_list_names_each_public_name_once():
    assert sorted(qbounds.__all__) == EXPORTS
    source = (SRC / "qbounds" / "__init__.py").read_text(encoding="utf-8")
    for name in EXPORTS:
        assert len(re.findall(rf"\b{name}\b", source)) == 1, name
    assert set(EXPORTS) <= set(dir(qbounds))


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from qbounds import *", namespace)
    for name in EXPORTS:
        assert namespace[name] is getattr(qbounds, name), name


def test_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="^module 'qbounds' has no attribute 'no_such_name'$"):
        qbounds.no_such_name
    assert not hasattr(qbounds, "evaluate_grid")  # a module's name, not the package's


def test_a_name_is_resolved_once_then_bound(monkeypatch):
    resolved = []
    resolve = qbounds.__getattr__
    monkeypatch.setattr(qbounds, "__getattr__", lambda name: resolved.append(name) or resolve(name))
    monkeypatch.delitem(vars(qbounds), "q_error", raising=False)
    from qbounds import model

    assert qbounds.q_error is model.q_error
    assert qbounds.q_error is model.q_error
    assert resolved == ["q_error"]


_WITHOUT_NUMPY = """
import json, sys
sys.modules["numpy"] = None
import qbounds
assert not [name for name in sys.modules if name.startswith("qbounds.")]
WR, WOR = qbounds.SamplingMethod.WITH_REPLACEMENT, qbounds.SamplingMethod.WITHOUT_REPLACEMENT
over = qbounds.Side.OVER
answers = {
    "bound": [qbounds.evaluate_confidence(WR, 0.005, 3919, 2.0).confidence,
              qbounds.evaluate_confidence(WOR, 0.005, 3919, 2.0, n=10**6).confidence],
    "terms": [qbounds.chernoff_term(0.005, 3919, 2.0, over),
              qbounds.hoeffding_serfling_term(0.005, 3919, 10**6, 2.0, over)],
    "k": [qbounds.min_sample_size(WR, 0.005, 2.0, 0.95),
          qbounds.min_sample_size(WOR, 0.005, 2.0, 0.95, n=10**6)],
    "q": [qbounds.q_at_confidence(WR, 0.005, 3919, 0.95),
          qbounds.q_at_confidence(WOR, 0.005, 3919, 0.95, n=10**6)],
}
loaded = {name for name in sys.modules if name.startswith("qbounds.")}
assert not loaded & {f"qbounds.{name}" for name in ("reports", "exact", "simulate", "ingest", "cli")}
print(json.dumps({key: [repr(v) for v in value] for key, value in answers.items()}))
"""


def _run_without_numpy(code: str, *args: str) -> dict:
    """The JSON that `code` prints, run in a new interpreter with numpy blocked."""
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_scalar_bound_and_solvers_run_without_numpy():
    answers = _run_without_numpy(_WITHOUT_NUMPY)
    wr, wor = SamplingMethod.WITH_REPLACEMENT, SamplingMethod.WITHOUT_REPLACEMENT
    assert answers["bound"] == [
        repr(qbounds.evaluate_confidence(wr, 0.005, 3919, 2.0).confidence),
        repr(qbounds.evaluate_confidence(wor, 0.005, 3919, 2.0, n=10**6).confidence),
    ]
    assert answers["terms"] == [
        repr(qbounds.chernoff_term(0.005, 3919, 2.0, Side.OVER)),
        repr(qbounds.hoeffding_serfling_term(0.005, 3919, 10**6, 2.0, Side.OVER)),
    ]
    assert answers["k"] == ["3919", "9363"]
    assert answers["q"] == ["1.9999194421699238", "7.278930633725925"]


_CLI_WITHOUT_NUMPY = """
import contextlib, io, json, sys
sys.modules["numpy"] = None
from qbounds.cli import run
outputs = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    outputs.append([code, out.getvalue(), err.getvalue()])
loaded = sorted(name for name in sys.modules if name.startswith("qbounds."))
print(json.dumps({"outputs": outputs, "loaded": loaded}))
"""

_SCALAR_COMMANDS = [
    "bound --method wr --p 0.005 --k 3919 --q 2 --with-hoeffding",
    "bound --method wor --cardinality 5000 --rows 1000000 --k 3919 --q 2",
    "solve-k --method wr --cardinality 5000 --rows 1000000 --q 2 --confidence 0.95",
    "solve-q --method wor --cardinality 5000 --rows 1000000 --k 3919 --confidence 0.95",
]


def test_scalar_commands_run_without_numpy(capsys):
    from qbounds.cli import run

    argvs = [command.split() + ["--format", fmt]
             for command in _SCALAR_COMMANDS for fmt in ("text", "csv", "json")]
    answers = _run_without_numpy(_CLI_WITHOUT_NUMPY, json.dumps(argvs))
    modules = {f"qbounds.{name}" for name in ("exact", "simulate", "ingest", "reports")}
    assert not set(answers["loaded"]) & modules
    for argv, output in zip(argvs, answers["outputs"], strict=True):
        code = run(argv)
        captured = capsys.readouterr()
        assert output == [0, captured.out, captured.err] and code == 0, argv
