"""Each input is checked once, at the public function that takes it.

Every module's binding of the point, table-size and integer rules is
wrapped to count its calls: the solvers' steps, the figure series' exact
column and an estimate's bound at each q run none, and
`exact_confidence` checks its point once.
"""

import collections
import contextlib
import importlib
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from qbounds import (
    ColumnType,
    PopulationSpec,
    SampleDesign,
    SamplingMethod,
    TableData,
    estimate_with_bounds,
    exact_confidence,
    figure_series,
    min_sample_size,
    parse_grid_file,
    parse_predicate,
    q_at_confidence,
)
from qbounds import ingest

WR = SamplingMethod.WITH_REPLACEMENT
WOR = SamplingMethod.WITHOUT_REPLACEMENT
CANONICAL_GRID = Path(__file__).resolve().parents[1] / "perfbench" / "canonical_grid.txt"
_MODULES = ("cli", "confidence", "exact", "ingest", "model", "reports", "simulate", "solver",
            "terms", "with_replacement", "without_replacement")
_CHECKS = ("_check_point", "_check_n", "_check_integers")


@contextlib.contextmanager
def _counted_checks():
    """Counts of the calls of each check, through every module's binding."""
    counts = collections.Counter()
    with contextlib.ExitStack() as stack:
        for module in (importlib.import_module(f"qbounds.{name}") for name in _MODULES):
            for check in _CHECKS:
                if hasattr(module, check):
                    real = getattr(module, check)

                    def counting(*args, _real=real, _check=check):
                        counts[_check] += 1
                        return _real(*args)

                    stack.enter_context(mock.patch.object(module, check, counting))
        yield counts


@pytest.mark.parametrize("method, n", [(WR, None), (WOR, 10**6)])
def test_solvers_check_their_inputs_once_and_no_step(method, n):
    with _counted_checks() as counts:
        min_sample_size(method, 0.005, 2.0, 0.95, n=n)
    assert counts["_check_point"] == 1 and counts["_check_integers"] == 0
    with _counted_checks() as counts:
        q_at_confidence(method, 0.005, 3919, 0.95, n=n)
    assert counts["_check_point"] == 2 and counts["_check_integers"] == 0
    assert counts["_check_n"] == (1 if method is WOR else 0)


def test_exact_confidence_checks_its_point_once():
    pop, design = PopulationSpec(10**6, 5000), SampleDesign(WOR, 1000)
    with _counted_checks() as counts:
        exact_confidence(pop, design, 2.0)
    assert counts == {"_check_point": 1, "_check_n": 1, "_check_integers": 1}


def test_figure_series_exact_column_checks_no_point():
    spec = parse_grid_file(CANONICAL_GRID.read_text(encoding="utf-8"))
    with _counted_checks() as counts:
        series = figure_series(spec, with_exact=True)
    assert sum(record["exact"] is not None for record in series) == 648  # the valid points
    assert counts == {}


@pytest.mark.parametrize("method", [WR, WOR])
@pytest.mark.parametrize("assume_p", [None, 0.0, 0.3])
def test_estimate_checks_its_inputs_before_the_draw_and_no_bound(method, assume_p, monkeypatch):
    table = TableData(columns=["id", "grp"], types=[ColumnType.INTEGER] * 2,
                      data=[np.arange(1000), np.arange(1000) % 5])
    predicate, design = parse_predicate("grp = 0"), SampleDesign(method, 100)
    at_draw = collections.Counter()
    draw = ingest.sample_indices

    def counted_draw(*args):
        at_draw.update(counts)
        return draw(*args)

    monkeypatch.setattr(ingest, "sample_indices", counted_draw)
    wor = method is WOR
    with _counted_checks() as counts:
        estimate_with_bounds(table, predicate, design, qs=(1.5, 2.0, 4.0), assume_p=assume_p)
    # k once by the integer rule and once by the point rule with n; n by the
    # table-size rule, and again by the point rule without replacement; each q once
    assert at_draw == {"_check_integers": 1, "_check_point": 1 + 3, "_check_n": 1 + wor}
    assert counts == at_draw
    with _counted_checks() as counts:
        report = estimate_with_bounds(table, predicate, design, qs=(1.5, 2.0, 4.0),
                                      assume_p=assume_p, target_confidence=0.9)
    # and the q solver's own two checks, made where p is not 0
    solved = report.p_used > 0.0
    assert report.per_q and (report.q_at_target is not None) == solved
    assert counts == {"_check_integers": 1, "_check_point": 4 + 2 * solved,
                      "_check_n": 1 + wor + wor * solved}
