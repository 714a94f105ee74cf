"""Rigorous Q-error confidence bounds for sampling-based single-table
cardinality estimation: concentration-inequality lower bounds, exact tail
probabilities, Monte Carlo validation, and sample-size planning."""

__version__ = "0.1.0"

from .confidence import default_inequalities, evaluate_confidence
from .exact import AdmissibleRange, admissible_range, estimate_from_hits, exact_confidence
from .ingest import (
    ColumnType,
    EstimateReport,
    LoadOptions,
    Predicate,
    TableData,
    estimate_with_bounds,
    load_table,
    parse_predicate,
    true_cardinality,
)
from .model import (
    PopulationSpec,
    SampleDesign,
    SamplingMethod,
    q_error,
    validate_design,
)
from .reports import GridSpec, figure_series, parse_grid_file, table1
from .simulate import RNG_SCHEME, SimulationConfig, SimulationSummary, run_simulation
from .solver import Unreachable, min_sample_size, q_at_confidence
from .terms import BoundResult, BoundTerm, InequalityKind, Side
from .with_replacement import (
    bernstein_term,
    chernoff_term,
    confidence_wr,
    hoeffding_term,
)
from .without_replacement import (
    bernstein_serfling_term,
    confidence_wor,
    hoeffding_serfling_term,
    serfling_coefficients,
)

__all__ = [
    "AdmissibleRange",
    "BoundResult",
    "BoundTerm",
    "ColumnType",
    "EstimateReport",
    "GridSpec",
    "InequalityKind",
    "LoadOptions",
    "PopulationSpec",
    "Predicate",
    "RNG_SCHEME",
    "SampleDesign",
    "SamplingMethod",
    "Side",
    "SimulationConfig",
    "SimulationSummary",
    "TableData",
    "Unreachable",
    "admissible_range",
    "bernstein_serfling_term",
    "bernstein_term",
    "chernoff_term",
    "confidence_wor",
    "confidence_wr",
    "default_inequalities",
    "estimate_from_hits",
    "estimate_with_bounds",
    "evaluate_confidence",
    "exact_confidence",
    "figure_series",
    "hoeffding_serfling_term",
    "hoeffding_term",
    "load_table",
    "min_sample_size",
    "parse_grid_file",
    "parse_predicate",
    "q_at_confidence",
    "q_error",
    "run_simulation",
    "serfling_coefficients",
    "table1",
    "true_cardinality",
    "validate_design",
]
