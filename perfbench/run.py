"""qbounds benchmark: three seeded closed-loop workloads with checked outputs.

    python3 perfbench/run.py --workload grid|plan|estimate --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a source checkout. For one workload it writes the
seeded inputs, times set-up in fresh processes, runs the workload in a
process of its own, prints every metric by name with its unit, and ends
with one JSON line: the end-to-end metrics of BENCHMARK.json with
--trace 0, its per-layer metrics with --trace 1. `all` runs each workload
untraced and twice traced, prints the per-workload metrics and checks that
the traced counts repeat exactly. Files go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from importlib import metadata
from time import perf_counter

import calibration

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("grid", "plan", "estimate")
SETUP_PROBES = 7
DEADLINE_S = 170  # the whole run, set-up probes included
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# The per-workload metrics each workload reports, with their units.
NAMED = {
    "grid": (("grid_points_per_s", "1/s"),),
    "plan": (("bound_p50_us", "us"), ("bound_p90_us", "us"), ("solve_p50_us", "us"),
             ("solve_p90_us", "us"), ("exact_p50_ms", "ms"), ("exact_p90_ms", "ms"),
             ("simulate_trials_per_s", "1/s")),
    "estimate": (("load_rows_per_s", "1/s"), ("estimate_p50_ms", "ms"),
                 ("estimate_p90_ms", "ms")),
}
COMMON = (("setup_s", "s"), ("peak_rss_mb", "MiB"), ("error_rate", "ratio"))
# The named metric each workload reports as throughput_per_s.
THROUGHPUT = {"grid": "grid_points_per_s", "plan": "simulate_trials_per_s",
              "estimate": "load_rows_per_s"}
REPEATING = (".calls", ".points", ".cells", ".rows_scanned", ".rows_sampled",
             "simulate.trials", "solver.evals_per_solve")


class BenchError(Exception):
    """The run cannot produce a result; reported without a JSON line."""


def environment() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            model = next((line.split(":", 1)[1].strip() for line in handle
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "loadavg_at_start": os.getloadavg(),
        "thread_env": {var: os.environ[var] for var in THREAD_VARS},
    }


def spawn(args: list[str], deadline: float) -> tuple[float, int]:
    """Start a worker, return (seconds until it printed `ready`, exit code)."""
    start = perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER, *args], cwd=ROOT,
                            stdout=subprocess.PIPE, text=True)
    try:
        line = "start"
        while line and line.strip() != "ready":  # the library prints too
            line = proc.stdout.readline()
        ready = perf_counter() - start
        proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("workload process ran past the deadline") from None
    if line.strip() != "ready":
        raise BenchError(f"workload process failed before warm-up ended (exit {proc.returncode})")
    return ready, proc.returncode


def run_workload(workload: str, seed: int, seconds: int, trace: int, deadline: float) -> dict:
    import inputs

    env_info = environment()
    run_dir = os.path.join(OUT, f"{workload}-seed{seed}-trace{trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    manifest = inputs.generate(workload, seed, run_dir)
    manifest_path = os.path.join(run_dir, "manifest.json")
    with open(manifest_path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle)
    if workload == "grid":
        import oracle

        problems = oracle.check_oracle()
        if problems:
            raise BenchError(f"the numpy reference disagrees with the recorded series: {problems[:3]}")

    base = ["--workload", workload, "--manifest", manifest_path]
    setups = []
    if not trace:
        before = calibration.sample()
        for _ in range(SETUP_PROBES):
            ready, code = spawn(base + ["--probe"], deadline)
            if code != 0:
                raise BenchError(f"set-up probe exited {code}")
            after = calibration.sample()
            setups.append(ready * calibration.factor(before + after))
            before = after
    result_path = os.path.join(run_dir, "result.json")
    _, code = spawn(base + ["--result", result_path, "--seconds", str(seconds),
                                "--trace", str(trace)], deadline)
    if code != 0:
        raise BenchError(f"workload process exited {code}")
    with open(result_path, encoding="utf-8") as handle:
        result = json.load(handle)
    result["environment"] = env_info
    result["setup_samples_s"] = setups
    if not trace:
        result["named"] = named_metrics(workload, result, statistics.median(setups))
        result["metrics"] = end_to_end(workload, result)
    with open(os.path.join(OUT, f"{workload}-seed{seed}-trace{trace}.json"), "w",
              encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)
    return result


def _op(result: dict, kind: str) -> dict:
    stats = result["ops"].get(kind)
    if not stats:
        raise BenchError(f"no successful {kind} op to measure")
    return stats


def _rate(result: dict, kinds) -> float:
    ops = [_op(result, kind) for kind in kinds]
    return sum(op["work"] for op in ops) / math.fsum(op["total_s"] for op in ops)


def _median_rate(result: dict, kind: str) -> float:
    op = _op(result, kind)
    return op["work"] / op["samples"] / op["p50_s"]


def named_metrics(workload: str, result: dict, setup_s: float) -> dict:
    """The per-workload metrics, by the names later changes refer to.
    Times and rates, set-up included, are calibrated; memory is as measured."""
    out = {
        "setup_s": setup_s,
        "peak_rss_mb": result["peak_rss_mb"],
        "error_rate": result["failed"] / result["attempted"],
    }
    if workload == "grid":
        out["grid_points_per_s"] = _rate(result, ("figures", "table1"))
    elif workload == "plan":
        for kind, scale, unit in (("bound", 1e6, "us"), ("solve", 1e6, "us"), ("exact", 1e3, "ms")):
            out[f"{kind}_p50_{unit}"] = _op(result, kind)["p50_s"] * scale
            out[f"{kind}_p90_{unit}"] = _op(result, kind)["p90_s"] * scale
        out["simulate_trials_per_s"] = _rate(result, ("simulate",))
    else:
        out["load_rows_per_s"] = _median_rate(result, "load")
        out["estimate_p50_ms"] = _op(result, "estimate")["p50_s"] * 1e3
        out["estimate_p90_ms"] = _op(result, "estimate")["p90_s"] * 1e3
    return out


def end_to_end(workload: str, result: dict) -> dict:
    """BENCHMARK.json's end-to-end metrics, which every workload reports:
    throughput_per_s is the workload's bulk rate, and latency_p50_ms /
    latency_p90_ms the geometric mean, over its request types, of each
    type's percentile."""
    kinds = result["latency_kinds"]

    def geomean(key: str) -> float:
        return 1e3 * math.exp(math.fsum(math.log(_op(result, k)[key]) for k in kinds) / len(kinds))

    return {
        "setup_s": result["named"]["setup_s"],
        "peak_rss_mb": result["peak_rss_mb"],
        "throughput_per_s": result["named"][THROUGHPUT[workload]],
        "latency_p50_ms": geomean("p50_s"),
        "latency_p90_ms": geomean("p90_s"),
    }


def contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def result_line(result: dict, listed: list[dict], values: dict) -> dict:
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
    }


def print_report(workload: str, result: dict) -> None:
    print(f"== {workload}  seed {result['seed']}  trace {result['trace']}  "
          f"attempted {result['attempted']}  failed {result['failed']}")
    for message in result["failures"]:
        print(f"   FAILED {message}")
    if result["trace"]:
        for name, value in sorted(result["layers"].items()):
            if value:
                print(f"   {name:50s} {value!r}")
    else:
        units = dict(COMMON + NAMED[workload])
        for name, value in result["named"].items():
            print(f"   {name:28s} {value:.6g} {units[name]}")
        cal = result["calibration"]
        print(f"   calibration loop: {cal['samples']} samples, p10 {cal['p10_s'] * 1e6:.1f} us, "
              f"median {cal['median_s'] * 1e6:.1f} us, p90 {cal['p90_s'] * 1e6:.1f} us")
    samples = "  ".join(f"{kind}={op['samples']}" for kind, op in result["ops"].items())
    print(f"   samples: {samples}")


def repeat_problems(first: dict, second: dict) -> list[str]:
    return [
        f"{name}: {first[name]} then {second[name]}"
        for name in sorted(first)
        if name.endswith(REPEATING) and first[name] != second[name]
    ]


def run_all(seed: int, seconds: int) -> dict:
    """Every workload untraced, then traced twice: the 14 named metrics and
    a check that the traced counts repeat exactly."""
    line = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        runs = [run_workload(workload, seed, seconds, trace, perf_counter() + DEADLINE_S)
                for trace in (0, 1, 1)]
        print_report(workload, runs[0])
        print_report(workload, runs[1])
        problems = repeat_problems(runs[1]["layers"], runs[2]["layers"])
        print(f"   traced counts repeat: {'yes' if not problems else problems}")
        units = dict(COMMON + NAMED[workload])
        for run in runs:
            line["attempted"] += run["attempted"]
            line["failed"] += run["failed"]
        line["correct"] &= line["failed"] == 0 and not problems
        for name, value in runs[0]["named"].items():
            line["metrics"][f"{workload}.{name}"] = {"value": value, "unit": units[name]}
    return line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    deadline = perf_counter() + DEADLINE_S
    try:
        if not os.path.isfile(os.path.join(ROOT, "src", "qbounds", "__init__.py")):
            raise BenchError(f"no qbounds sources under {ROOT}/src")
        os.makedirs(OUT, exist_ok=True)
        if args.workload == "all":
            line = run_all(args.seed, args.seconds)
        else:
            bench = contract()
            result = run_workload(args.workload, args.seed, args.seconds, args.trace, deadline)
            print_report(args.workload, result)
            if args.trace:
                line = result_line(result, bench["per_layer"], result["layers"])
            else:
                line = result_line(result, bench["end_to_end"], result["metrics"])
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
