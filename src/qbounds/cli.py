"""Command-line frontend.

Exit codes: 0 success (including unreachable solver targets, which are a
result, not an error), 1 domain or usage errors, 2 I/O errors. Text
prints the result and the terms, one name and value a line; csv prints
one flat record of the query, the result and the terms, a header line
and a row line. Both print each value in the cells of `model.cells` with
`%s` (str()), so text, csv and json show identical values for the same
invocation.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from typing import Callable

from . import __version__
from .model import RNG_SCHEME, PopulationSpec, SampleDesign, SamplingMethod, _check_n, cells
from .solver import DEFAULT_K_MAX, DEFAULT_Q_MAX


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{message}\n{self.format_usage()}")


def _emit(args, query: dict, result: dict, terms) -> None:
    if args.format == "json":
        payload = {
            "query": query,
            "result": result,
            "terms": [
                {
                    "inequality": t.inequality.value,
                    "side": t.side.value,
                    "probability": None if math.isnan(t.probability) else t.probability,
                    "applicable": not math.isnan(t.probability),
                }
                for t in terms
            ],
            "meta": {"version": __version__, "rng": RNG_SCHEME},
        }
        print(json.dumps(payload, indent=2, allow_nan=False))
        return
    by_term = {f"{t.inequality.value}_{t.side.value}": t.probability for t in terms}
    if args.format == "csv":
        record = {**query, **result, **by_term}
        print(",".join(cells(record, "%s")))
        print(",".join(cells(record.values(), "%s")))
    else:
        shown = {**result, **{f"term {name}": value for name, value in by_term.items()}}
        for key, cell in zip(shown, cells(shown.values(), "%s")):
            print(key, cell)


def _check(args) -> None:
    """The steps the commands share, each where its arguments are: the
    method; the population, from --p or from --cardinality with --rows,
    and --rows held to `PopulationSpec`'s rule for n with either method;
    --rows for sampling without replacement; the default inequalities."""
    if "method" in args:
        args.sampling = SamplingMethod(args.method)
    if "cardinality" in args:
        p = getattr(args, "p", None)
        if p is not None and args.cardinality is not None:
            raise UsageError("give either --p or --cardinality/--rows, not both")
        if args.cardinality is not None:
            if args.rows is None:
                raise UsageError("--cardinality needs --rows")
            args.pop = PopulationSpec(n=args.rows, cardinality=args.cardinality)
            p = args.pop.p
        elif p is None:
            raise UsageError("population missing: give --p or --cardinality with --rows")
        elif args.rows is not None:
            _check_n(args.rows)
        args.p, args.n = p, args.rows
        if args.sampling is SamplingMethod.WITHOUT_REPLACEMENT and args.n is None:
            raise UsageError("--method wor needs --rows")
    if "with_hoeffding" in args:
        from .confidence import default_inequalities

        args.kinds = default_inequalities(args.sampling, with_hoeffding=args.with_hoeffding)


# Each command's call imports what it calls when it runs, so `bound` and the
# solvers load no numpy, and a function wrapped in its module after this
# module was imported is the one called. It returns the result and the
# terms to print, or None once it has written its output itself.


def _bound(args):
    from .confidence import evaluate_confidence

    result = evaluate_confidence(
        args.sampling, args.p, args.k, args.q, n=args.n, inequalities=args.kinds
    )
    return {
        "confidence": result.confidence,
        "omega": result.omega,
        "psi": result.psi,
        "degenerate": result.degenerate,
        "omega_source": result.omega_source.value if result.omega_source else None,
        "psi_source": result.psi_source.value if result.psi_source else None,
    }, result.terms


def _solved(answer, key: str):
    from .solver import Unreachable

    if isinstance(answer, Unreachable):
        return {
            "unreachable": True,
            key: None,
            "limit": answer.limit,
            "confidence_at_limit": answer.confidence_at_limit,
        }, ()
    return {"unreachable": False, key: answer, "limit": None, "confidence_at_limit": None}, ()


def _solve_k(args):
    from .solver import min_sample_size

    return _solved(min_sample_size(args.sampling, args.p, args.q, args.confidence, n=args.n,
                                   inequalities=args.kinds, k_max=args.k_max), "k")


def _solve_q(args):
    from .solver import q_at_confidence

    return _solved(q_at_confidence(args.sampling, args.p, args.k, args.confidence, n=args.n,
                                   inequalities=args.kinds, q_max=args.q_max), "q")


def _exact(args):
    from .exact import _admissible_range, exact_confidence

    value = exact_confidence(args.pop, SampleDesign(method=args.sampling, k=args.k), args.q)
    rng = _admissible_range(args.pop.n, args.pop.cardinality, args.k, args.q)  # checked above
    return {"exact_confidence": value, "admissible_lo": rng.lo, "admissible_hi": rng.hi}, ()


def _simulate(args):
    from .simulate import SimulationConfig, run_simulation

    summary = run_simulation(SimulationConfig(
        pop=args.pop, design=SampleDesign(method=args.sampling, k=args.k), q=args.q,
        trials=args.trials, seed=args.seed,
    ))
    return asdict(summary), ()  # successes, trials, empirical_rate, standard_error


def _table1(args) -> None:
    from .reports import open_output, table1, write_table1_csv

    rows = table1(n=args.rows, q=args.q)
    if args.out:
        with open_output(args.out) as handle:
            write_table1_csv(rows, handle)
        print(args.out)
    else:
        write_table1_csv(rows, sys.stdout)


def _figures(args) -> None:
    from .reports import figure_series, open_output, parse_grid_file, write_series_csv

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
    with open_output(path) as handle:
        write_series_csv(records, handle)
    print(path)


def _estimate(args):
    from .ingest import LoadOptions, estimate_with_bounds, load_table, parse_predicate

    qs = []
    for part in filter(str.strip, args.q.split(",")):
        try:
            qs.append(float(part))
        except ValueError:
            raise UsageError(f"--q lists {part.strip()!r}, which is not a number: {args.q}") from None
    if not qs:
        raise UsageError("--q needs at least one q value")
    if len(set(qs)) < len(qs):
        raise UsageError(f"--q lists a value twice: {args.q}")
    options = LoadOptions(delimiter=args.delimiter, header=not args.no_header)
    table = load_table(args.input, options)
    predicate = parse_predicate(args.predicate)
    design = SampleDesign(method=args.sampling, k=args.k)
    report = estimate_with_bounds(
        table, predicate, design, qs=qs, seed=args.seed, assume_p=args.assume_p
    )
    result = {
        "n": report.n,
        "hits": report.hits,
        "estimate": report.estimate,
        "true_cardinality": report.true_cardinality,
        "realized_q_error": report.realized_q_error,
        "p_used": report.p_used,
        "p_source": report.p_source,
    }
    for entry in report.per_q:  # q's shortest round-trip form, less a trailing .0
        result[f"confidence_q{repr(entry.q).removesuffix('.0')}"] = entry.confidence
    return result, ()


@dataclass(frozen=True)
class _Command:
    """One subcommand: its help line, its arguments in order as (flag,
    `add_argument` keywords), the query keys it echoes from the checked
    arguments after its name, and its call."""

    help: str
    arguments: tuple
    echo: tuple
    call: Callable


def _required(flag: str, kind) -> tuple:
    return flag, {"type": kind, "required": True}


def _switch(flag: str) -> tuple:
    return flag, {"action": "store_true"}


_METHOD = ("--method", {"required": True, "choices": ("wr", "wor")})
_POPULATION = (
    ("--p", {"type": float, "help": "selectivity in [0, 1]"}),
    ("--cardinality", {"type": int, "help": "rows satisfying the predicate"}),
    ("--rows", {"type": int, "help": "table row count n (required for --method wor)"}),
)
_FORMAT = ("--format", {"choices": ("text", "csv", "json"), "default": "text"})
_HOEFFDING = _switch("--with-hoeffding")

COMMANDS = {
    "bound": _Command(
        "confidence that Q-error <= q",
        (_METHOD, *_POPULATION, _required("--k", int), _required("--q", float), _HOEFFDING,
         _FORMAT),
        ("method", "p", "n", "k", "q", "with_hoeffding"),
        _bound,
    ),
    "solve-k": _Command(
        "least sample size for a target",
        (_METHOD, *_POPULATION, _required("--q", float), _required("--confidence", float),
         ("--k-max", {"type": int, "default": DEFAULT_K_MAX}), _HOEFFDING, _FORMAT),
        ("method", "p", "n", "q", "confidence", "k_max", "with_hoeffding"),
        _solve_k,
    ),
    "solve-q": _Command(
        "best q guaranteed at a confidence",
        (_METHOD, *_POPULATION, _required("--k", int), _required("--confidence", float),
         ("--q-max", {"type": float, "default": float(DEFAULT_Q_MAX)}), _HOEFFDING, _FORMAT),
        ("method", "p", "n", "k", "confidence", "q_max", "with_hoeffding"),
        _solve_q,
    ),
    "exact": _Command(
        "exact P(Q-error <= q) by tail summation",
        (_METHOD, _required("--cardinality", int), _required("--rows", int),
         _required("--k", int), _required("--q", float), _FORMAT),
        ("method", "cardinality", "rows", "k", "q"),
        _exact,
    ),
    "simulate": _Command(
        "seeded Monte Carlo of the estimator",
        (_METHOD, _required("--cardinality", int), _required("--rows", int),
         _required("--k", int), _required("--q", float), _required("--trials", int),
         _required("--seed", int), _FORMAT),
        ("method", "cardinality", "rows", "k", "q", "trials", "seed"),
        _simulate,
    ),
    "table1": _Command(
        "golden 18-row confidence table",
        (("--rows", {"type": int, "default": 1_000_000}),
         ("--q", {"type": float, "default": 2.0}), ("--out", {})),
        (),
        _table1,
    ),
    "figures": _Command(
        "bound-curve data series for plotting",
        (("--grid", {"required": True, "help": "key=value grid file"}),
         ("--out", {"required": True, "help": "output directory"}),
         _switch("--with-exact"), _switch("--with-simulation"),
         ("--trials", {"type": int, "default": 1000}), ("--seed", {"type": int, "default": 0})),
        (),
        _figures,
    ),
    "estimate": _Command(
        "sample a CSV table and estimate",
        (("--input", {"required": True}), ("--predicate", {"required": True}), _METHOD,
         _required("--k", int), ("--q", {"default": "2", "help": "comma list of q values"}),
         ("--seed", {"type": int, "default": 0}), ("--assume-p", {"type": float}),
         ("--delimiter", {"default": ","}), _switch("--no-header"), _FORMAT),
        ("input", "predicate", "method", "k", "seed", "assume_p"),
        _estimate,
    ),
}


@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, and building all subcommands costs more than a short command."""
    parser = _Parser(prog="qbounds", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, command in COMMANDS.items():
        child = sub.add_parser(name, help=command.help)
        for flag, options in command.arguments:
            child.add_argument(flag, **options)
    return parser


def run(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        command = COMMANDS[args.subcommand]
        _check(args)
        answer = command.call(args)
        if answer is not None:
            query = {"command": args.subcommand, **{key: getattr(args, key) for key in command.echo}}
            _emit(args, query, *answer)
        return 0
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
