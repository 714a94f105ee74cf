"""Per-module spans, recorded from outside the library.

`Tracer.install` replaces each traced public function with a wrapper in
every loaded `qbounds` module that binds it (so `solver.evaluate_confidence`
and `reports.evaluate_confidence` are both covered, as are calls inside a
module through its globals). Each call becomes a span: function, parent
span, request id, start, end and a work count. Spans stay in memory until
`summary` folds them into per-function calls, busy time (span time) and
self time (span time minus direct child spans).
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter


def _first(args, kwargs, name):
    return args[0] if args else kwargs[name]


# module, function, name of its work count, how to read that count
TARGETS = (
    ("cli", "run", None, None),
    ("reports", "parse_grid_file", None, None),
    ("reports", "figure_series", None, None),
    ("reports", "write_series_csv", None, None),
    ("reports", "table1", None, None),
    ("reports", "write_table1_csv", None, None),
    ("confidence", "evaluate_confidence", None, None),
    ("with_replacement", "confidence_wr", None, None),
    ("with_replacement", "chernoff_term", None, None),
    ("with_replacement", "bernstein_term", None, None),
    ("with_replacement", "hoeffding_term", None, None),
    ("without_replacement", "confidence_wor", None, None),
    ("without_replacement", "serfling_coefficients", None, None),
    ("without_replacement", "hoeffding_serfling_term", None, None),
    ("without_replacement", "bernstein_serfling_term", None, None),
    ("terms", "combine_terms", None, None),
    ("solver", "min_sample_size", None, None),
    ("solver", "q_at_confidence", None, None),
    ("exact", "exact_confidence", None, None),
    ("exact", "admissible_range", None, None),
    ("exact", "binom_logpmf", "points", lambda a, kw, r: _first(a, kw, "xs").size),
    ("exact", "hypergeom_logpmf", "points", lambda a, kw, r: _first(a, kw, "xs").size),
    ("simulate", "run_simulation", "trials", lambda a, kw, r: _first(a, kw, "cfg").trials),
    ("simulate", "block_generator", None, None),
    ("ingest", "load_table", "cells", lambda a, kw, r: r.n * r.m),
    ("ingest", "parse_predicate", None, None),
    ("ingest", "bind_predicate", None, None),
    ("ingest", "true_cardinality", "rows_scanned", lambda a, kw, r: _first(a, kw, "table").n),
    ("ingest", "sample_indices", "rows_sampled", lambda a, kw, r: len(r)),
    ("ingest", "estimate_with_bounds", None, None),
    ("model", "validate_design", None, None),
    ("model", "q_error", None, None),
)
SOLVERS = ("solver.min_sample_size", "solver.q_at_confidence")


class Tracer:
    def __init__(self) -> None:
        self.names = [f"{module}.{func}" for module, func, _, _ in TARGETS]
        self.paused = False
        self.request = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.clear()

    def clear(self) -> None:
        self.fn: list[int] = []
        self.parent: list[int] = []
        self.req: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.units: list[int] = []

    def _wrap(self, index: int, original, count):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if tracer.paused:
                return original(*args, **kwargs)
            span = len(tracer.fn)
            tracer.fn.append(index)
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.req.append(tracer.request)
            tracer.units.append(0)
            tracer.end.append(0.0)
            tracer._stack.append(span)
            tracer.start.append(perf_counter())
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end[span] = perf_counter()
                tracer._stack.pop()
            if count is not None:
                tracer.units[span] = int(count(args, kwargs, result))
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "qbounds" or name.startswith("qbounds.")) and m is not None]
        for index, (module, func, _, count) in enumerate(TARGETS):
            if f"qbounds.{module}" not in sys.modules:
                continue  # never imported, so never called
            original = getattr(sys.modules[f"qbounds.{module}"], func)
            wrapper = self._wrap(index, original, count)
            for mod in modules:
                if getattr(mod, func, None) is original:
                    self._saved.append((mod, func, original))
                    setattr(mod, func, wrapper)

    def uninstall(self) -> None:
        for mod, func, original in self._saved:
            setattr(mod, func, original)
        self._saved.clear()

    def summary(self) -> dict:
        """Per-function calls, busy_s, self_s and work counts, plus
        solver.evals_per_solve, over the spans recorded since clear()."""
        n_fn = len(TARGETS)
        calls = [0] * n_fn
        busy = [0.0] * n_fn
        child = [0.0] * n_fn
        units = [0] * n_fn
        for span, f in enumerate(self.fn):
            took = self.end[span] - self.start[span]
            calls[f] += 1
            busy[f] += took
            units[f] += self.units[span]
            if self.parent[span] >= 0:
                child[self.fn[self.parent[span]]] += took
        out = {}
        for f, (module, func, unit_name, _) in enumerate(TARGETS):
            name = self.names[f]
            out[f"{name}.calls"] = calls[f]
            out[f"{name}.busy_s"] = busy[f]
            out[f"{name}.self_s"] = busy[f] - child[f]
            if unit_name == "trials":
                out["simulate.trials"] = units[f]
            elif unit_name is not None:
                out[f"{name}.{unit_name}"] = units[f]
        out["solver.evals_per_solve"] = self._evals_per_solve()
        return out

    def _evals_per_solve(self) -> float:
        solver_ids = {self.names.index(name) for name in SOLVERS}
        evaluate = self.names.index("confidence.evaluate_confidence")
        solves = sum(1 for f in self.fn if f in solver_ids)
        if solves == 0:
            return 0.0
        under = 0
        for span, f in enumerate(self.fn):
            if f != evaluate:
                continue
            up = self.parent[span]
            while up >= 0 and self.fn[up] not in solver_ids:
                up = self.parent[up]
            under += up >= 0
        return under / solves

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("span,function,parent,request,start,end,units\n")
            for span, f in enumerate(self.fn):
                handle.write(
                    f"{span},{self.names[f]},{self.parent[span]},{self.req[span]},"
                    f"{self.start[span]!r},{self.end[span]!r},{self.units[span]}\n"
                )
