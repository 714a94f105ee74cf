"""Rigorous Q-error confidence bounds for sampling-based single-table
cardinality estimation: concentration-inequality lower bounds, exact tail
probabilities, Monte Carlo validation, and sample-size planning.

Each public name is listed once, under its module, and the module is
imported when one of its names is first read (PEP 562), then bound here,
so `import qbounds` imports no submodule and the scalar bound and solvers
import no numpy.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    name: module
    for module, names in (
        ("confidence", "default_inequalities evaluate_confidence"),
        ("exact", "AdmissibleRange admissible_range estimate_from_hits exact_confidence"),
        ("ingest", "ColumnType EstimateReport LoadOptions Predicate TableData "
                   "estimate_with_bounds load_table parse_predicate true_cardinality"),
        ("model", "PopulationSpec RNG_SCHEME SampleDesign SamplingMethod q_error validate_design"),
        ("reports", "GridSpec figure_series parse_grid_file table1"),
        ("simulate", "SimulationConfig SimulationSummary run_simulation"),
        ("solver", "Unreachable min_sample_size q_at_confidence"),
        ("terms", "BoundResult BoundTerm InequalityKind Side"),
        ("with_replacement", "bernstein_term chernoff_term confidence_wr hoeffding_term"),
        ("without_replacement", "bernstein_serfling_term confidence_wor "
                                "hoeffding_serfling_term serfling_coefficients"),
    )
    for name in names.split()
}
__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
