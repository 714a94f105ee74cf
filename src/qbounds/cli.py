"""Command-line frontend.

Exit codes: 0 success (including unreachable solver targets, which are a
result, not an error), 1 domain or usage errors, 2 I/O errors. All
numeric output goes through str(), so text, csv and json show identical
values for the same invocation.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from typing import Optional

from . import __version__
from .confidence import default_inequalities, evaluate_confidence
from .exact import admissible_range, exact_confidence
from .ingest import LoadOptions, estimate_with_bounds, load_table, parse_predicate
from .model import PopulationSpec, SampleDesign, SamplingMethod
from .reports import (
    figure_series,
    parse_grid_file,
    table1,
    write_series_csv,
    write_table1_csv,
)
from .simulate import RNG_SCHEME, SimulationConfig, SimulationSummary, run_simulation
from .solver import DEFAULT_K_MAX, DEFAULT_Q_MAX, Unreachable, min_sample_size, q_at_confidence


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{message}\n{self.format_usage()}")


def _add_format(parser) -> None:
    parser.add_argument("--format", choices=("text", "csv", "json"), default="text")


def _add_population(parser, integers_only: bool = False) -> None:
    if not integers_only:
        parser.add_argument("--p", type=float, default=None,
                            help="selectivity in [0, 1]")
    parser.add_argument("--cardinality", type=int, default=None,
                        help="rows satisfying the predicate")
    parser.add_argument("--rows", type=int, default=None,
                        help="table row count n (required for --method wor)")


def _resolve_population(args) -> tuple[float, Optional[int]]:
    p_given = getattr(args, "p", None)
    c_given = args.cardinality
    n_given = args.rows
    if p_given is not None and c_given is not None:
        raise UsageError("give either --p or --cardinality/--rows, not both")
    if c_given is not None:
        if n_given is None:
            raise UsageError("--cardinality needs --rows")
        pop = PopulationSpec(n=n_given, cardinality=c_given)
        return pop.p, n_given
    if p_given is None:
        raise UsageError("population missing: give --p or --cardinality with --rows")
    if not 0.0 <= p_given <= 1.0:
        raise UsageError(f"--p must be in [0, 1], got {p_given}")
    return p_given, n_given


def _method(args) -> SamplingMethod:
    return SamplingMethod.parse(args.method)


def _require_n_for_wor(method: SamplingMethod, n: Optional[int]) -> None:
    if method is SamplingMethod.WITHOUT_REPLACEMENT and n is None:
        raise UsageError("--method wor needs --rows")


def _num(value) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return "NA"
    return str(value)


def _emit(args, query: dict, result: dict, terms: Optional[list[dict]] = None) -> None:
    terms = terms or []
    fmt = getattr(args, "format", "text")
    if fmt == "json":
        payload = {
            "query": query,
            "result": result,
            "terms": [
                {
                    "inequality": t["inequality"],
                    "side": t["side"],
                    "probability": None if _is_nan(t["probability"]) else t["probability"],
                    "applicable": t["applicable"],
                }
                for t in terms
            ],
            "meta": {"version": __version__, "rng": RNG_SCHEME},
        }
        print(json.dumps(payload, indent=2))
    elif fmt == "csv":
        header = list(query) + list(result) + [
            f"{t['inequality']}_{t['side']}" for t in terms
        ]
        row = (
            [_num(query[key]) for key in query]
            + [_num(result[key]) for key in result]
            + [_num(t["probability"]) for t in terms]
        )
        print(",".join(header))
        print(",".join(row))
    else:
        for key, value in result.items():
            print(f"{key} {_num(value)}")
        for t in terms:
            print(f"term {t['inequality']}_{t['side']} {_num(t['probability'])}")


def _is_nan(value) -> bool:
    return isinstance(value, float) and math.isnan(value)


def _terms_payload(result) -> list[dict]:
    return [
        {
            "inequality": term.inequality.value,
            "side": term.side.value,
            "probability": term.probability,
            "applicable": term.applicable,
        }
        for term in result.terms
    ]


# Subcommand handlers --------------------------------------------------------


def _cmd_bound(args) -> int:
    method = _method(args)
    p, n = _resolve_population(args)
    _require_n_for_wor(method, n)
    kinds = default_inequalities(method, with_hoeffding=args.with_hoeffding)
    result = evaluate_confidence(method, p, args.k, args.q, n=n, inequalities=kinds)
    query = {
        "command": "bound", "method": method.value, "p": p, "n": n,
        "k": args.k, "q": args.q, "with_hoeffding": args.with_hoeffding,
    }
    payload = {
        "confidence": result.confidence,
        "omega": result.omega,
        "psi": result.psi,
        "degenerate": result.degenerate,
        "omega_source": result.omega_source.value if result.omega_source else None,
        "psi_source": result.psi_source.value if result.psi_source else None,
    }
    _emit(args, query, payload, _terms_payload(result))
    return 0


def _solver_result_payload(answer, key: str) -> dict:
    if isinstance(answer, Unreachable):
        return {
            "unreachable": True,
            key: None,
            "limit": answer.limit,
            "confidence_at_limit": answer.confidence_at_limit,
        }
    return {"unreachable": False, key: answer, "limit": None, "confidence_at_limit": None}


def _cmd_solve_k(args) -> int:
    method = _method(args)
    p, n = _resolve_population(args)
    _require_n_for_wor(method, n)
    kinds = default_inequalities(method, with_hoeffding=args.with_hoeffding)
    answer = min_sample_size(
        method, p, args.q, args.confidence, n=n, inequalities=kinds, k_max=args.k_max
    )
    query = {
        "command": "solve-k", "method": method.value, "p": p, "n": n,
        "q": args.q, "confidence": args.confidence, "k_max": args.k_max,
        "with_hoeffding": args.with_hoeffding,
    }
    _emit(args, query, _solver_result_payload(answer, "k"))
    return 0


def _cmd_solve_q(args) -> int:
    method = _method(args)
    p, n = _resolve_population(args)
    _require_n_for_wor(method, n)
    kinds = default_inequalities(method, with_hoeffding=args.with_hoeffding)
    answer = q_at_confidence(
        method, p, args.k, args.confidence, n=n, inequalities=kinds, q_max=args.q_max
    )
    query = {
        "command": "solve-q", "method": method.value, "p": p, "n": n,
        "k": args.k, "confidence": args.confidence, "q_max": args.q_max,
        "with_hoeffding": args.with_hoeffding,
    }
    _emit(args, query, _solver_result_payload(answer, "q"))
    return 0


def _cmd_exact(args) -> int:
    method = _method(args)
    pop = PopulationSpec(n=args.rows, cardinality=args.cardinality)
    design = SampleDesign(method=method, k=args.k)
    value = exact_confidence(pop, design, args.q)
    rng = admissible_range(pop.n, pop.cardinality, design.k, args.q)
    query = {
        "command": "exact", "method": method.value, "cardinality": pop.cardinality,
        "rows": pop.n, "k": args.k, "q": args.q,
    }
    _emit(args, query, {
        "exact_confidence": value,
        "admissible_lo": rng.lo,
        "admissible_hi": rng.hi,
    })
    return 0


def _cmd_simulate(args) -> int:
    method = _method(args)
    pop = PopulationSpec(n=args.rows, cardinality=args.cardinality)
    design = SampleDesign(method=method, k=args.k)
    summary: SimulationSummary = run_simulation(SimulationConfig(
        pop=pop, design=design, q=args.q, trials=args.trials, seed=args.seed,
    ))
    query = {
        "command": "simulate", "method": method.value, "cardinality": pop.cardinality,
        "rows": pop.n, "k": args.k, "q": args.q, "trials": args.trials,
        "seed": args.seed,
    }
    _emit(args, query, {
        "successes": summary.successes,
        "trials": summary.trials,
        "empirical_rate": summary.empirical_rate,
        "standard_error": summary.standard_error,
    })
    return 0


def _cmd_table1(args) -> int:
    rows = table1(n=args.rows, q=args.q)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
            write_table1_csv(rows, handle)
        print(args.out)
    else:
        write_table1_csv(rows, sys.stdout)
    return 0


def _cmd_figures(args) -> int:
    with open(args.grid, encoding="utf-8") as handle:
        spec = parse_grid_file(handle.read())
    records = figure_series(
        spec,
        with_exact=args.with_exact,
        with_simulation=args.with_simulation,
        trials=args.trials,
        seed=args.seed,
    )
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "series.csv")
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        write_series_csv(records, handle)
    print(path)
    return 0


def _cmd_estimate(args) -> int:
    method = _method(args)
    qs = [float(part) for part in args.q.split(",") if part.strip()]
    options = LoadOptions(delimiter=args.delimiter, header=not args.no_header)
    table = load_table(args.input, options)
    predicate = parse_predicate(args.predicate)
    design = SampleDesign(method=method, k=args.k)
    report = estimate_with_bounds(
        table, predicate, design, qs=qs, seed=args.seed, assume_p=args.assume_p
    )
    query = {
        "command": "estimate", "input": args.input, "predicate": args.predicate,
        "method": method.value, "k": args.k, "seed": args.seed,
        "assume_p": args.assume_p,
    }
    result = {
        "n": report.n,
        "hits": report.hits,
        "estimate": report.estimate,
        "true_cardinality": report.true_cardinality,
        "realized_q_error": report.realized_q_error,
        "p_used": report.p_used,
        "p_source": report.p_source,
    }
    for entry in report.per_q:
        result[f"confidence_q{entry.q:g}"] = entry.confidence
    _emit(args, query, result)
    return 0


@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, and building all subcommands costs more than a short command."""
    parser = _Parser(prog="qbounds", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    bound = sub.add_parser("bound", help="confidence that Q-error <= q")
    bound.add_argument("--method", required=True, choices=("wr", "wor"))
    _add_population(bound)
    bound.add_argument("--k", type=int, required=True)
    bound.add_argument("--q", type=float, required=True)
    bound.add_argument("--with-hoeffding", action="store_true")
    _add_format(bound)
    bound.set_defaults(func=_cmd_bound)

    solve_k = sub.add_parser("solve-k", help="least sample size for a target")
    solve_k.add_argument("--method", required=True, choices=("wr", "wor"))
    _add_population(solve_k)
    solve_k.add_argument("--q", type=float, required=True)
    solve_k.add_argument("--confidence", type=float, required=True)
    solve_k.add_argument("--k-max", type=int, default=DEFAULT_K_MAX)
    solve_k.add_argument("--with-hoeffding", action="store_true")
    _add_format(solve_k)
    solve_k.set_defaults(func=_cmd_solve_k)

    solve_q = sub.add_parser("solve-q", help="best q guaranteed at a confidence")
    solve_q.add_argument("--method", required=True, choices=("wr", "wor"))
    _add_population(solve_q)
    solve_q.add_argument("--k", type=int, required=True)
    solve_q.add_argument("--confidence", type=float, required=True)
    solve_q.add_argument("--q-max", type=float, default=DEFAULT_Q_MAX)
    solve_q.add_argument("--with-hoeffding", action="store_true")
    _add_format(solve_q)
    solve_q.set_defaults(func=_cmd_solve_q)

    exact = sub.add_parser("exact", help="exact P(Q-error <= q) by tail summation")
    exact.add_argument("--method", required=True, choices=("wr", "wor"))
    exact.add_argument("--cardinality", type=int, required=True)
    exact.add_argument("--rows", type=int, required=True)
    exact.add_argument("--k", type=int, required=True)
    exact.add_argument("--q", type=float, required=True)
    _add_format(exact)
    exact.set_defaults(func=_cmd_exact)

    simulate = sub.add_parser("simulate", help="seeded Monte Carlo of the estimator")
    simulate.add_argument("--method", required=True, choices=("wr", "wor"))
    simulate.add_argument("--cardinality", type=int, required=True)
    simulate.add_argument("--rows", type=int, required=True)
    simulate.add_argument("--k", type=int, required=True)
    simulate.add_argument("--q", type=float, required=True)
    simulate.add_argument("--trials", type=int, required=True)
    simulate.add_argument("--seed", type=int, required=True)
    _add_format(simulate)
    simulate.set_defaults(func=_cmd_simulate)

    table1_cmd = sub.add_parser("table1", help="golden 18-row confidence table")
    table1_cmd.add_argument("--rows", type=int, default=1_000_000)
    table1_cmd.add_argument("--q", type=float, default=2.0)
    table1_cmd.add_argument("--out", default=None)
    table1_cmd.set_defaults(func=_cmd_table1)

    figures = sub.add_parser("figures", help="bound-curve data series for plotting")
    figures.add_argument("--grid", required=True, help="key=value grid file")
    figures.add_argument("--out", required=True, help="output directory")
    figures.add_argument("--with-exact", action="store_true")
    figures.add_argument("--with-simulation", action="store_true")
    figures.add_argument("--trials", type=int, default=1000)
    figures.add_argument("--seed", type=int, default=0)
    figures.set_defaults(func=_cmd_figures)

    estimate = sub.add_parser("estimate", help="sample a CSV table and estimate")
    estimate.add_argument("--input", required=True)
    estimate.add_argument("--predicate", required=True)
    estimate.add_argument("--method", required=True, choices=("wr", "wor"))
    estimate.add_argument("--k", type=int, required=True)
    estimate.add_argument("--q", default="2", help="comma list of q values")
    estimate.add_argument("--seed", type=int, default=0)
    estimate.add_argument("--assume-p", type=float, default=None)
    estimate.add_argument("--delimiter", default=",")
    estimate.add_argument("--no-header", action="store_true")
    _add_format(estimate)
    estimate.set_defaults(func=_cmd_estimate)

    return parser


def run(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
