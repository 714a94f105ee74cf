"""Each input is checked once, at the public function that takes it.

Every module's binding of the point, table-size and integer rules is
wrapped to count its calls: the solvers' steps, the figure series' exact
column, an estimate's bound at each q and its q at the target run none,
and `exact_confidence`, `validate_design` and `SimulationConfig` check
only q and what their population and design have not.
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
    SimulationConfig,
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
_CHECKS = ("_check_point", "_check_n", "_check_k_below_n", "_check_integers", "_validate_target")


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
    assert counts["_validate_target"] == 1
    with _counted_checks() as counts:
        q_at_confidence(method, 0.005, 3919, 0.95, n=n)
    assert counts["_check_point"] == 2 and counts["_check_integers"] == 0
    assert counts["_check_n"] == (1 if method is WOR else 0) and counts["_validate_target"] == 1


@pytest.mark.parametrize("method", [WR, WOR])
def test_exact_confidence_checks_q_once_and_n_not_again(method):
    pop, design = PopulationSpec(10**6, 5000), SampleDesign(method, 1000)
    with _counted_checks() as counts:
        exact_confidence(pop, design, 2.0)
    assert counts == collections.Counter(_check_point=1, _check_integers=1,
                                         _check_k_below_n=method is WOR)


@pytest.mark.parametrize("method", [WR, WOR])
def test_simulation_config_checks_q_and_only_k_below_n_again(method):
    pop, design = PopulationSpec(10**6, 5000), SampleDesign(method, 1000)
    with _counted_checks() as counts:
        SimulationConfig(pop=pop, design=design, q=2.0, trials=10, seed=1)
    # q once; k and n were checked by the design and the population
    assert counts == collections.Counter(_check_integers=1, _check_point=1,
                                         _check_k_below_n=method is WOR)


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
    # k once by the integer rule, and without replacement against n; n by
    # the table-size rule; each q once. The design checked k's range and
    # the population checks n: neither is checked again.
    assert at_draw == collections.Counter(_check_integers=1, _check_point=3, _check_n=1,
                                          _check_k_below_n=wor)
    assert counts == at_draw
    with _counted_checks() as counts:
        report = estimate_with_bounds(table, predicate, design, qs=(1.5, 2.0, 4.0),
                                      assume_p=assume_p, target_confidence=0.9)
    # the target once, at entry: the q at the target, solved where p is
    # not 0, checks nothing again
    solved = report.p_used > 0.0
    assert report.per_q and (report.q_at_target is not None) == solved
    assert counts == collections.Counter(_check_integers=1, _check_point=3, _check_n=1,
                                         _check_k_below_n=wor, _validate_target=1)
