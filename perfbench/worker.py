"""One workload process: import qbounds, warm up, run a closed loop with
one client, check every output, and write a result file.

    python3 perfbench/worker.py --workload W --manifest M --result R
        [--seconds S] [--trace 0|1] [--probe]

The process prints `ready` once `import qbounds` and the warm-up are done;
the parent times set-up up to that line. With --probe it exits there.
Otherwise it runs the workload's ops back to back, each issued only after
the previous one returned, for S seconds. Checks run between ops, outside
the timed calls. With --trace 1 it instead alternates an untraced and a
traced pass over a fixed prefix of the ops until S seconds are used, so
that per-module counts repeat exactly for a seed.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import resource
import statistics
import sys
from time import perf_counter
from typing import Iterator

from scipy.special import bdtr, bdtrc  # qbounds imports scipy.special itself

import calibration

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
CANONICAL_GRID = os.path.join(HERE, "canonical_grid.txt")

# the op types whose percentiles make up latency_p50_ms and latency_p90_ms
LATENCY_KINDS = {"grid": ("figures", "table1"), "plan": ("bound", "solve", "exact"),
                 "estimate": ("estimate",)}
LOADS = 3  # the load is one 2-second op; its median over three is steadier
TRACE_PASS = {"grid": 4, "plan": 11 * 100, "estimate": LOADS + 20}
SOUNDNESS_SLACK = 1e-12  # the same slack the library's own soundness test allows
# A simulation fails its check when its failure count lies in a binomial
# tail of probability below this. A run makes about 2 000 such tests, so
# correct code fails fewer than one run in 10^5.
SIMULATION_TAIL = 1e-9


class Op:
    """One request: `call()` issues it; `check(result)` returns problems.
    A rejection op (reject is the reason) succeeds only by raising ValueError."""

    __slots__ = ("kind", "call", "check", "reject", "work")

    def __init__(self, kind, call, check=None, reject=None, work=0):
        self.kind, self.call, self.check, self.reject, self.work = kind, call, check, reject, work


class Recorder:
    """Runs ops, scores them, and keeps each op's start and end, so that
    its time can be calibrated by the sampler that ran beside it."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.sampler: calibration.Sampler | None = None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.samples: dict[str, list[tuple[float, float]]] = {}
        self.work: dict[str, float] = {}

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)

    def _sample(self, kind: str, start: float, end: float) -> None:
        self.samples.setdefault(kind, []).append((start, end))

    def execute(self, op: Op) -> None:
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.request = self.attempted
        error = None
        start = perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # scored below; the run must go on
            result, error = None, exc
        end = perf_counter()
        if op.reject is not None:
            self._sample("reject", start, end)
            if not isinstance(error, ValueError):
                self.fail(f"{op.kind} {op.reject}: expected ValueError, got {error!r}")
            return
        if error is not None:
            self.fail(f"{op.kind}: raised {error!r}")
            return
        self._sample(op.kind, start, end)
        work = op.work(result) if callable(op.work) else op.work
        self.work[op.kind] = self.work.get(op.kind, 0) + work
        if op.check is None:
            return
        if self.tracer is not None:
            self.tracer.paused = True
        try:
            problems = op.check(result)
        except Exception as exc:  # a check that crashes is a failed check
            problems = [f"check raised {exc!r}"]
        finally:
            if self.tracer is not None:
                self.tracer.paused = False
        if problems:
            self.fail(f"{op.kind}: " + "; ".join(problems[:3]))

    def _times(self, samples) -> tuple[list[float], list[float]]:
        """Raw and calibrated seconds of each op, the sampler's handler time
        taken out of both; without a sampler both are the measured time."""
        raw, calibrated = [], []
        for start, end in samples:
            speed, handler = self.sampler.scale(start, end) if self.sampler else (1.0, 0.0)
            raw.append(end - start - handler)
            calibrated.append(raw[-1] * speed)
        return sorted(raw), sorted(calibrated)

    def summary(self) -> dict:
        """Per op type: sample count, calibrated p50/p90/total seconds, the
        same raw, and the work done."""
        out = {}
        for kind, samples in sorted(self.samples.items()):
            raw, scaled = self._times(samples)
            out[kind] = {
                "samples": len(samples),
                "p50_s": statistics.median(scaled),
                "p90_s": _percentile(scaled, 0.9),
                "total_s": math.fsum(scaled),
                "raw_p50_s": statistics.median(raw),
                "raw_p90_s": _percentile(raw, 0.9),
                "raw_total_s": math.fsum(raw),
                "work": self.work.get(kind, 0),
            }
        return out


def _percentile(ordered: list[float], share: float) -> float:
    """Linear interpolation between closest ranks, as numpy's default."""
    pos = share * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


# workloads ------------------------------------------------------------------


class Grid:
    """figures + table1 through qbounds.cli.run, as a batch user runs them."""

    def __init__(self, qb, manifest: dict, work_dir: str) -> None:
        import qbounds.cli  # the package does not import its command line

        self.qb = qb
        self.manifest = manifest
        self.series_dir = os.path.join(work_dir, "series")
        self.table1_path = os.path.join(work_dir, "table1.csv")

    def _figures(self, grid_path: str) -> int:
        return self.qb.cli.run(["figures", "--grid", grid_path, "--out", self.series_dir])

    def _table1(self) -> int:
        return self.qb.cli.run(["table1", "--out", self.table1_path])

    def warm_up(self) -> None:
        self._figures(CANONICAL_GRID)
        self._table1()

    def reference_ops(self) -> list[Op]:
        """The canonical grid against the series recorded when the
        benchmark was defined."""
        import oracle

        recorded = oracle.parse_series(_read(oracle.RECORDED_SERIES))
        return [Op("reference", lambda: self._figures(CANONICAL_GRID),
                   lambda code: self._check_series(code, recorded))]

    def _check_series(self, code: int, expected: dict) -> list[str]:
        import oracle

        if code != 0:
            return [f"figures exited {code}"]
        return oracle.compare_series(_read(os.path.join(self.series_dir, "series.csv")), expected)

    def _check_table1(self, code: int) -> list[str]:
        import oracle

        if code != 0:
            return [f"table1 exited {code}"]
        return oracle.compare_table1(_read(self.table1_path))

    def ops(self) -> Iterator[Op]:
        import oracle

        figures = []
        for path in self.manifest["grid_files"]:
            expected = oracle.expected_series(oracle.read_grid(_read(path)))
            figures.append(Op(
                "figures",
                lambda path=path: self._figures(path),
                lambda code, expected=expected: self._check_series(code, expected),
                work=len(expected["status"]),
            ))
        table1 = Op("table1", self._table1, self._check_table1, work=108)
        return itertools.chain.from_iterable((op, table1) for op in itertools.cycle(figures))


class Plan:
    """Single planner questions through the library API."""

    def __init__(self, qb, manifest: dict, work_dir: str) -> None:
        self.qb = qb
        self.manifest = manifest
        self.methods = {"wr": qb.SamplingMethod.WITH_REPLACEMENT,
                        "wor": qb.SamplingMethod.WITHOUT_REPLACEMENT}

    def warm_up(self) -> None:
        for op in self._round(_WARM_ROUND):
            op.call()

    def reference_ops(self) -> list[Op]:
        return []

    def _conf(self, m, p, k, q, n) -> float:
        return self.qb.evaluate_confidence(m, p, k, q, n=n).confidence

    def _round(self, spec: list[dict]) -> list[Op]:
        qb = self.qb
        results: dict[int, float] = {}  # op index -> value, for accepted in-domain ops
        ops = []
        for i, d in enumerate(spec):
            m = self.methods[d["method"]]
            n, k, c, q = d["n"], d["k"], d["c"], d["q"]
            p = c / n
            kind = d["op"]
            if kind == "bound":
                call = lambda m=m, p=p, k=k, q=q, n=n: qb.evaluate_confidence(m, p, k, q, n=n)
                check = lambda r, i=i: self._check_bound(r, i, results)
            elif kind == "solve_k":
                t = d["target"]
                call = lambda m=m, p=p, q=q, n=n, t=t: qb.min_sample_size(m, p, q, t, n=n)
                check = lambda r, m=m, p=p, q=q, n=n, t=t: self._check_solve_k(r, m, p, q, n, t)
            elif kind == "solve_q":
                t = d["target"]
                call = lambda m=m, p=p, k=k, n=n, t=t: qb.q_at_confidence(m, p, k, t, n=n)
                check = lambda r, m=m, p=p, k=k, n=n, t=t: self._check_solve_q(r, m, p, k, n, t)
            elif kind == "exact":
                call = lambda m=m, n=n, c=c, k=k, q=q: qb.exact_confidence(
                    qb.PopulationSpec(n=n, cardinality=c), qb.SampleDesign(method=m, k=k), q)
                check = lambda r, i=i, j=d["bound_op"]: self._check_exact(r, i, j, results)
            else:
                trials, seed = d["trials"], d["seed"]
                call = lambda m=m, n=n, c=c, k=k, q=q, trials=trials, seed=seed: qb.run_simulation(
                    qb.SimulationConfig(pop=qb.PopulationSpec(n=n, cardinality=c),
                                        design=qb.SampleDesign(method=m, k=k),
                                        q=q, trials=trials, seed=seed))
                check = lambda r, j=d["exact_op"]: self._check_simulation(r, j, results)
            ops.append(Op(
                "solve" if kind.startswith("solve") else kind, call, check,
                reject=d.get("reject"),
                work=(lambda r: r.trials) if kind == "simulate" else 0,
            ))
        return ops

    @staticmethod
    def _check_bound(result, i: int, results: dict) -> list[str]:
        if not 0.0 <= result.confidence <= 1.0:
            return [f"confidence {result.confidence} outside [0, 1]"]
        results[i] = result.confidence
        return []

    def _check_solve_k(self, answer, m, p, q, n, target) -> list[str]:
        if isinstance(answer, self.qb.Unreachable):
            if answer.confidence_at_limit >= target:
                return [f"unreachable but confidence {answer.confidence_at_limit} at limit"]
            return []
        if self._conf(m, p, answer, q, n) < target:
            return [f"k={answer} misses target {target}"]
        if answer > 1 and self._conf(m, p, answer - 1, q, n) >= target:
            return [f"k={answer} is not the least: k-1 reaches {target}"]
        return []

    def _check_solve_q(self, answer, m, p, k, n, target) -> list[str]:
        if isinstance(answer, self.qb.Unreachable):
            if answer.confidence_at_limit >= target:
                return [f"unreachable but confidence {answer.confidence_at_limit} at limit"]
            return []
        if answer < 1.0 or self._conf(m, p, k, answer, n) < target:
            return [f"q={answer!r} misses target {target}"]
        below = max(1.0, answer * (1.0 - 2e-9))
        if answer > 1.0 and self._conf(m, p, k, below, n) >= target:
            return [f"q={answer!r} is not the least: q(1-2e-9) reaches {target}"]
        return []

    @staticmethod
    def _check_exact(exact: float, i: int, bound_op: int, results: dict) -> list[str]:
        if not 0.0 <= exact <= 1.0:
            return [f"exact {exact} outside [0, 1]"]
        results[i] = exact
        bound = results.get(bound_op)
        if bound is not None and bound > exact + SOUNDNESS_SLACK:
            return [f"bound {bound!r} exceeds exact {exact!r}"]
        return []

    @staticmethod
    def _check_simulation(summary, exact_op: int, results: dict) -> list[str]:
        t = summary.trials
        if not 0 <= summary.successes <= t or summary.empirical_rate != summary.successes / t:
            return [f"inconsistent summary {summary.successes}/{t}"]
        exact = results.get(exact_op)
        if exact is None:
            return []
        # Failures are Binomial(t, 1 - exact). A normal band is wrong when
        # exact is near 0 or 1, so test the exact binomial tails, each at the
        # end of exact's float error that favours the count.
        misses = t - summary.successes
        miss_lo = max(0.0, 1.0 - exact - SOUNDNESS_SLACK)
        miss_hi = min(1.0, 1.0 - exact + SOUNDNESS_SLACK)
        tail = min(bdtrc(misses - 1, t, miss_hi), bdtr(misses, t, miss_lo))
        if tail < SIMULATION_TAIL:
            return [f"{misses} misses in {t} trials vs exact {exact!r}: tail {tail:.3g}"]
        return []

    def ops(self) -> Iterator[Op]:
        with open(self.manifest["rounds"], encoding="utf-8") as handle:
            rounds = json.load(handle)
        return itertools.chain.from_iterable(self._round(spec) for spec in itertools.cycle(rounds))


# one fixed planner round for the warm-up
_WARM_POINT = {"n": 1_000_000, "k": 1000, "c": 5000, "q": 2.0}
_WARM_ROUND = [
    {"op": "bound", "method": "wr", **_WARM_POINT},
    {"op": "bound", "method": "wor", **_WARM_POINT},
    {"op": "solve_k", "method": "wor", "target": 0.9, **_WARM_POINT},
    {"op": "solve_q", "method": "wr", "target": 0.9, **_WARM_POINT},
    {"op": "exact", "method": "wr", "bound_op": 0, **_WARM_POINT},
    {"op": "exact", "method": "wor", "bound_op": 1, **_WARM_POINT},
    {"op": "simulate", "method": "wr", "trials": 4096, "seed": 1, "exact_op": 4, **_WARM_POINT},
    {"op": "simulate", "method": "wor", "trials": 4096, "seed": 1, "exact_op": 5, **_WARM_POINT},
]


class Estimate:
    """load_table, then parse_predicate + estimate_with_bounds."""

    COLUMN_TYPES = ("integer", "real", "text", "integer")

    def __init__(self, qb, manifest: dict, work_dir: str) -> None:
        self.qb = qb
        self.manifest = manifest
        self.table = None
        self.methods = {"wr": qb.SamplingMethod.WITH_REPLACEMENT,
                        "wor": qb.SamplingMethod.WITHOUT_REPLACEMENT}

    def warm_up(self) -> None:
        table = self.qb.load_table(self.manifest["warmup_table"])
        for method in self.methods.values():
            for assume_p in (None, 0.1):
                self.qb.estimate_with_bounds(
                    table, self.qb.parse_predicate("num < 20 AND tag != 'it''s_0001'"),
                    self.qb.SampleDesign(method=method, k=10), qs=(2.0,),
                    assume_p=assume_p, target_confidence=0.9)

    def reference_ops(self) -> list[Op]:
        return []

    def _load(self):
        self.table = None  # a repeated pass must not load beside a live table
        self.table = self.qb.load_table(self.manifest["table"])
        return self.table

    def _check_table(self, table) -> list[str]:
        types = tuple(t.value for t in table.types)
        if table.n != self.manifest["rows"] or types != self.COLUMN_TYPES:
            return [f"loaded {table.n} rows typed {types}"]
        return []

    def _estimate(self, q: dict):
        qb = self.qb
        return qb.estimate_with_bounds(
            self.table, qb.parse_predicate(q["predicate"]),
            qb.SampleDesign(method=self.methods[q["method"]], k=q["k"]),
            qs=q["qs"], seed=q["seed"], assume_p=q["assume_p"],
            target_confidence=q["target"])

    def _check_estimate(self, report, q: dict) -> list[str]:
        problems = []
        n, k = self.table.n, q["k"]
        if not 0 <= report.hits <= k:
            problems.append(f"hits {report.hits} outside [0, {k}]")
        if report.estimate != n * report.hits / k:
            problems.append(f"estimate {report.estimate!r} != n*hits/k")
        want = q["expect_cardinality"]
        if want is not None and report.true_cardinality != want:
            problems.append(f"true_cardinality {report.true_cardinality}, generator counted {want}")
        if len(report.per_q) != len(q["qs"]) or any(
                not 0.0 <= e.confidence <= 1.0 for e in report.per_q):
            problems.append("per-q confidences missing or outside [0, 1]")
        return problems

    def ops(self) -> Iterator[Op]:
        with open(self.manifest["queries"], encoding="utf-8") as handle:
            queries = json.load(handle)
        load = Op("load", self._load, self._check_table, work=self.manifest["rows"])
        return itertools.chain([load] * LOADS, (
            Op("estimate", lambda q=q: self._estimate(q),
               lambda r, q=q: self._check_estimate(r, q), reject=q["bad"])
            for q in itertools.cycle(queries)))


WORKLOADS = {"grid": Grid, "plan": Plan, "estimate": Estimate}


# loops ----------------------------------------------------------------------


def run_for(recorder: Recorder, ops, seconds: float) -> float:
    """Closed loop: issue ops one after another until `seconds` have
    passed, with the calibration sampler running."""
    start = perf_counter()
    deadline = start + seconds
    with calibration.Sampler() as sampler:
        for op in ops:
            if perf_counter() >= deadline:
                break
            recorder.execute(op)
    recorder.sampler = sampler
    return perf_counter() - start


def run_traced(recorder: Recorder, tracer, prefix: list[Op], seconds: float, spans_path: str) -> dict:
    """Alternate untraced and traced passes over `prefix` until `seconds`
    have passed; report per-pass layer numbers and the tracing overhead,
    the median calibrated traced pass minus the median untraced one. The
    sampler runs throughout, so spans include its handler time (about 2%)."""
    start = perf_counter()
    plain, traced, layers = [], [], []
    with calibration.Sampler() as sampler:
        for op in prefix:  # an uncounted first pass, so both sides start warm
            recorder.execute(op)
        while not plain or perf_counter() - start < seconds:
            t0 = perf_counter()
            for op in prefix:
                recorder.execute(op)
            plain.append((t0, perf_counter()))
            tracer.clear()
            tracer.install()
            try:
                t0 = perf_counter()
                for op in prefix:
                    recorder.execute(op)
                traced.append((t0, perf_counter()))
            finally:
                tracer.uninstall()
            layers.append(tracer.summary())
    tracer.write_spans(spans_path)

    def calibrated(passes) -> float:
        times = []
        for t0, t1 in passes:
            speed, handler = sampler.scale(t0, t1)
            times.append((t1 - t0 - handler) * speed)
        return statistics.median(times)

    out = {}
    for name, first in layers[0].items():
        values = [layer[name] for layer in layers]
        if name.endswith("_s"):
            out[name] = math.fsum(values) / len(values)
        else:
            out[name] = first
            if any(v != first for v in values):
                recorder.fail(f"trace count {name} differs between passes: {values}")
    out["trace.overhead_s"] = calibrated(traced) - calibrated(plain)
    out["trace.passes"] = len(traced)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--manifest", required=True)
    parser.add_argument("--result")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)
    with open(args.manifest, encoding="utf-8") as handle:
        manifest = json.load(handle)
    work_dir = os.path.dirname(os.path.abspath(args.manifest))

    import qbounds

    workload = WORKLOADS[args.workload](qbounds, manifest, work_dir)
    workload.warm_up()
    print("ready", flush=True)
    if args.probe:
        return 0

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    recorder = Recorder(tracer)
    for op in workload.reference_ops():
        recorder.execute(op)
    result: dict = {"workload": args.workload, "seed": manifest["seed"], "trace": args.trace}
    if args.trace:
        prefix = list(itertools.islice(workload.ops(), TRACE_PASS[args.workload]))
        spans = os.path.join(work_dir, "spans.csv")
        result["layers"] = run_traced(recorder, tracer, prefix, args.seconds, spans)
    else:
        result["wall_s"] = run_for(recorder, workload.ops(), args.seconds)
        took = sorted(recorder.sampler.took)
        result["calibration"] = {"samples": len(took), "median_s": statistics.median(took),
                                 "p10_s": _percentile(took, 0.1), "p90_s": _percentile(took, 0.9)}
    result.update(
        attempted=recorder.attempted,
        failed=recorder.failed,
        failures=recorder.failures,
        ops=recorder.summary(),
        latency_kinds=LATENCY_KINDS[args.workload],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
