"""Every call of the corpus returns or raises what was recorded.

`tests/data/refusal_corpus.json` holds, for each call below, what a
public library function makes of its inputs: the repr of what it returns,
or the type and message of the exception it raises. The calls are a few
written by hand and seeded random ones, each argument drawn from a pool
of good and bad values of its own (NaN, +-inf, 0, -1, fractional values,
10**400, floats past 2**53, True, numpy scalars), so many calls hold
several bad values at once and the corpus pins which error wins. Each
call is Python source, evaluated in `_NAMESPACE`, and runs with warnings
raised as errors. To record it again after a change that alters an
outcome on purpose:

    PYTHONPATH=src python tests/test_refusal_corpus.py
"""

import functools
import json
import math
import random
import warnings
from pathlib import Path

import numpy as np

import qbounds
from qbounds import ColumnType, InequalityKind, SamplingMethod, Side, TableData
from qbounds.reports import Series

CORPUS = Path(__file__).resolve().parent / "data" / "refusal_corpus.json"

_TABLE = TableData(columns=["id", "grp"], types=[ColumnType.INTEGER, ColumnType.INTEGER],
                   data=[np.arange(1000), np.arange(1000) % 5])
_NAMESPACE = {
    **{name: getattr(qbounds, name) for name in qbounds.__all__},
    "math": math, "np": np, "K": InequalityKind, "OVER": Side.OVER, "UNDER": Side.UNDER,
    "WR": SamplingMethod.WITH_REPLACEMENT, "WOR": SamplingMethod.WITHOUT_REPLACEMENT,
    "TABLE": _TABLE, "GRP0": qbounds.parse_predicate("grp = 0"),
}

_BAD_NUMBERS = ["math.nan", "math.inf", "-math.inf", "0", "-1", "10**400", "True"]
# (good values, bad values) of each argument; a value is bad with probability _BAD
_POOLS = {
    "method": (["WR", "WOR"], ["'wr'", "None"]),
    "p": (["0.005", "0.3", "1.0", "0.0", "-0.0", "np.float64(0.2)", "1e-300", "5e-324"],
          ["-0.1", "1.5", *_BAD_NUMBERS]),
    "k": (["1", "10", "100", "np.int64(50)", "999", "10.0"],
          ["2.5", "2.0**60", "float(2**62)", "2**63", *_BAD_NUMBERS]),
    "q": (["2.0", "1.0", "1.5", "1e200", "np.float64(3.0)", "1.000000001", "4"],
          ["0.5", *_BAD_NUMBERS]),
    "n": (["1000", "10**6", "np.int64(1000)", "2**62 + 1", "1e300", "2.0**60", "2"],
          ["1", "2.5", "10**6 + 0.5", *_BAD_NUMBERS]),
    "opt_n": (["", "None", "1000", "10**6", "2**62 + 1", "2.0**60", "1e300"],
              ["2", "2.5", *_BAD_NUMBERS]),
    "c": (["0", "5", "500", "np.int64(7)", "1000"], ["2.5", "2**62", "-1", "math.nan", "True"]),
    "side": (["OVER", "UNDER"], ["'over'"]),
    "kinds": (["None", "None", "{K.CHERNOFF}", "{K.BERNSTEIN, K.HOEFFDING}",
               "{K.HOEFFDING_SERFLING}", "{K.BERNSTEIN_SERFLING, K.HOEFFDING_SERFLING}"],
              ["set()", "{K.CHERNOFF, K.BERNSTEIN_SERFLING}", "['chernoff']"]),
    "target": (["0.95", "0.5", "1e-9", "0.99", "1 - 2.0**-53"],
               ["0.0", "1.0", "1.5", "-0.1", "math.nan", "True"]),
    "k_max": (["10**9", "100", "2**62", "1e308", "1", "3000.5"],
              ["0", "0.5", "math.inf", "math.nan", "10**400"]),
    "q_max": (["10**6", "10.0", "1.0", "1e300", "2"], ["0.5", "math.inf", "math.nan", "10**400"]),
    "trials": (["100", "1", "np.int64(10)"], ["0", "-5", "2.5", "True"]),
    "seed": (["0", "7", "2**64 - 1", "np.uint64(3)"], ["-1", "2**64", "1.5", "True", "math.nan"]),
    "qs": (["(2.0,)", "(1.5, 4.0)", "[1.0]"], ["()", "(0.5,)", "(math.nan,)", "[2.0, math.inf]"]),
    "assume_p": (["None", "None", "0.2", "0.0", "1.0"], ["1.5", "-0.1", "math.nan"]),
    "target_or_none": (["None", "None", "0.95", "0.5"], ["1.0", "math.nan"]),
    "table_k": (["10", "100", "999", "np.int64(30)", "1000", "1"],
                ["2.5", "10.0", "0", "True", "2**63"]),
    "table_q": (["2.0", "3.5", "1.0", "1e300"], ["0.5", "math.nan", "math.inf", "10**400"]),
    "table_n": (["10**6", "3 * 10**6", "np.int64(10**6)", "1e300", "2.0**60"],
                ["10**5", "10**400", "0", "math.nan", "2.5"]),
    "axis": (["(100,)", "(10, 100)", "(1000,)"], ["()", "(0,)", "(2**63,)"]),
    "q_axis": (["(2.0,)", "(1.5, 3.0)"], ["(0.5,)", "(math.nan,)", "()"]),
    "p_axis": (["(0.2,)", "(0.0, 0.01)", "(1.0,)"], ["(1.5,)", "(math.nan,)"]),
    "n_axis": (["(1000,)", "(10**6,)", "(50,)"], ["(10**12,)"]),
    "methods": (["(WR,)", "(WOR,)", "(WR, WOR)"], ["()"]),
    "flag": (["False", "True"], []),
}
_BAD = 0.2

# (function, [(keyword or None for a positional argument, pool), ...], random calls);
# an argument in (brackets) is a constructor's arguments
_FUNCTIONS = [
    ("evaluate_confidence", [(None, "method"), (None, "p"), (None, "k"), (None, "q"),
                             ("n", "opt_n"), ("inequalities", "kinds")], 400),
    ("confidence_wr", [(None, "p"), (None, "k"), (None, "q"), ("inequalities", "kinds")], 150),
    ("confidence_wor", [(None, "p"), (None, "k"), (None, "n"), (None, "q"),
                        ("inequalities", "kinds")], 200),
    ("chernoff_term", [(None, "p"), (None, "k"), (None, "q"), (None, "side")], 60),
    ("bernstein_term", [(None, "p"), (None, "k"), (None, "q"), (None, "side")], 60),
    ("hoeffding_term", [(None, "p"), (None, "k"), (None, "q"), (None, "side")], 60),
    ("hoeffding_serfling_term", [(None, "p"), (None, "k"), (None, "n"), (None, "q"),
                                 (None, "side")], 80),
    ("bernstein_serfling_term", [(None, "p"), (None, "k"), (None, "n"), (None, "q"),
                                 (None, "side")], 80),
    ("serfling_coefficients", [(None, "k"), (None, "n")], 100),
    ("admissible_range", [(None, "n"), (None, "c"), (None, "k"), (None, "q")], 250),
    ("exact_confidence", [(None, "(PopulationSpec n c)"), (None, "(SampleDesign method k)"),
                          (None, "q")], 300),
    ("SimulationConfig", [(None, "(PopulationSpec n c)"), (None, "(SampleDesign method k)"),
                          (None, "q"), (None, "trials"), (None, "seed")], 250),
    ("min_sample_size", [(None, "method"), (None, "p"), (None, "q"), (None, "target"),
                         ("n", "opt_n"), ("inequalities", "kinds"), ("k_max", "k_max")], 400),
    ("q_at_confidence", [(None, "method"), (None, "p"), (None, "k"), (None, "target"),
                         ("n", "opt_n"), ("inequalities", "kinds"), ("q_max", "q_max")], 400),
    ("PopulationSpec", [(None, "n"), (None, "c")], 100),
    ("SampleDesign", [(None, "method"), (None, "k")], 60),
    ("validate_design", [(None, "(PopulationSpec n c)"), (None, "(SampleDesign method k)")],
     150),
    ("table1", [("n", "table_n"), ("q", "table_q")], 25),
    ("figure_series", [(None, "(GridSpec k=axis q=q_axis n=n_axis p=p_axis methods=methods)"),
                       ("with_exact", "flag"), ("with_simulation", "flag"),
                       ("trials", "trials"), ("seed", "seed")], 60),
    ("estimate_with_bounds", [(None, "TABLE"), (None, "GRP0"),
                              (None, "(SampleDesign method table_k)"), ("qs", "qs"),
                              ("seed", "seed"), ("assume_p", "assume_p"),
                              ("target_confidence", "target_or_none")], 150),
]

_HAND = [
    # a float n past 2**53 at which n - 1 rounds to n, the solver's cap
    "min_sample_size(WOR, 0.5, 1.000000001, 0.99, n=2.0**60, k_max=2**62)",
    "min_sample_size(WOR, 0.5, 2.0, 0.99, n=1e300, k_max=1e308)",
    "min_sample_size(WOR, 0.005, 2.0, 0.95, n=10**6)",
    "min_sample_size(WR, 0.005, 2.0, 0.95)",
    # a bad p beside a bad inequality set, and beside a bad target or size
    "q_at_confidence(WR, 1.5, 10, 0.9)",
    "q_at_confidence(WR, 1.5, 10, 0.9, inequalities={K.HOEFFDING_SERFLING})",
    "q_at_confidence(WR, math.nan, 10, 0.9, inequalities=set())",
    "q_at_confidence(WOR, -0.1, 10, 0.9, n=100, inequalities={K.CHERNOFF})",
    "q_at_confidence(WR, 1.5, 0, 0.9, inequalities=set())",
    "q_at_confidence(WR, 1.5, 10, 1.5, inequalities=set())",
    "min_sample_size(WR, 1.5, 2.0, 0.9, inequalities={K.HOEFFDING_SERFLING})",
    "min_sample_size(WR, math.nan, 0.5, 0.9, inequalities=set())",
    "q_at_confidence(WOR, 0.005, 3919, 0.95, n=10**6)",
    "q_at_confidence(WR, 0.0, 10, 0.9)",
    "q_at_confidence(WR, -0.0, 10, 0.9, q_max=math.nan)",
    # the points a solver step refused
    *(f"q_at_confidence({m}, {p}, {k}, 0.9, n={n}, q_max={q})" for m, p, k, q, n in [
        ("WR", "1.5", "10", "2.0", "None"), ("WR", "math.nan", "10", "2.0", "None"),
        ("WR", "0.1", "0", "2.0", "None"), ("WR", "0.1", "10", "0.5", "None"),
        ("WR", "0.1", "10", "math.inf", "None"), ("WR", "0.0", "10", "math.nan", "None"),
        ("WOR", "-0.1", "10", "2.0", "100"), ("WOR", "0.1", "100", "2.0", "100"),
        ("WOR", "0.0", "100", "2.0", "100"), ("WOR", "0.1", "10", "math.nan", "100")]),
    "exact_confidence(PopulationSpec(2.5, 1), SampleDesign(WR, 1), 2.0)",
    "exact_confidence(PopulationSpec(10, 1), SampleDesign(WR, 1.5), 0.5)",
    "exact_confidence(PopulationSpec(2**63, 1), SampleDesign(WOR, 10), 2.0)",
    "exact_confidence(PopulationSpec(10**12, 5 * 10**11), SampleDesign(WR, 10**11), 1.01)",
    "figure_series(GridSpec(k=(0,), q=(2.0,), p=(0.2,)), seed=-1)",
    "figure_series(GridSpec(k=(100,), q=(2.0,), p=(0.2,)), with_simulation=True, trials=0,"
    " seed=-1)",
    "figure_series(GridSpec(k=(100,), q=(2.0,), n=(10**12,), c=(5,), methods=(WOR,)),"
    " with_simulation=True, seed=2**64)",
    "figure_series(GridSpec(k=(10**11,), q=(1.01,), n=(10**12,), p=(0.5,)), with_exact=True)",
    "figure_series(GridSpec(k=(10, 2000), q=(1.5, 4.0), n=(1000,), c=(0, 50, 1000)),"
    " with_exact=True)",
    "table1()",
    "estimate_with_bounds(TABLE, GRP0, SampleDesign(WOR, 2.5), qs=(), seed=-1)",
    # an inequality set given as text, or holding an unhashable value, at p > 0 and at p = 0
    "evaluate_confidence(WR, 0.1, 100, 2.0, inequalities='chernoff')",
    "evaluate_confidence(WR, 0.1, 100, 2.0, inequalities=[['chernoff']])",
    "evaluate_confidence(WR, 0.0, 100, 2.0, inequalities=[['chernoff']])",
    "evaluate_confidence(WOR, 0.0, 100, 2.0, n=1000, inequalities='hoeffding_serfling')",
    "evaluate_confidence(WOR, 0.1, 100, 2.0, n=1000, inequalities=[K.HOEFFDING_SERFLING, ['x']])",
    "confidence_wr(0.1, 100, 2.0, inequalities='chernoff')",
    "confidence_wor(0.1, 100, 1000, 2.0, inequalities=[['hoeffding_serfling']])",
    "min_sample_size(WR, 0.005, 2.0, 0.95, inequalities='chernoff')",
    "min_sample_size(WOR, 0.0, 2.0, 0.95, n=10**6, inequalities=[['hoeffding_serfling']])",
    "q_at_confidence(WR, 0.005, 3919, 0.95, inequalities=[['chernoff']])",
    "q_at_confidence(WOR, 0.0, 10, 0.9, n=100, inequalities='hoeffding_serfling')",
]
_SEED = 26


def _argument(rng: random.Random, pool: str) -> str:
    """A value of `pool`, or of each pool of a bracketed constructor."""
    if not pool.startswith("("):
        good, bad = _POOLS.get(pool, ([pool], []))
        return rng.choice(bad if bad and rng.random() < _BAD else good)
    name, *params = pool[1:-1].split()
    args = []
    for param in params:
        keyword, _, inner = param.rpartition("=")
        args.append(f"{keyword}={_argument(rng, inner)}" if keyword else _argument(rng, inner))
    return f"{name}({', '.join(args)})"


def cases() -> list[str]:
    rng = random.Random(_SEED)
    calls = list(_HAND)
    for function, params, count in _FUNCTIONS:
        for _ in range(count):
            args = [f"{keyword}={value}" if keyword else value
                    for keyword, pool in params if (value := _argument(rng, pool))]
            calls.append(f"{function}({', '.join(args)})")
    return list(dict.fromkeys(calls))


def outcome(call: str) -> dict:
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = eval(call, dict(_NAMESPACE))  # noqa: S307 - the corpus's own source
    except Exception as error:  # noqa: BLE001 - the type is part of the outcome
        return {"call": call, "error": type(error).__name__, "message": str(error)}
    return {"call": call, "return": repr(list(value) if isinstance(value, Series) else value)}


@functools.cache
def _recorded() -> list[dict]:
    return json.loads(CORPUS.read_text(encoding="utf-8"))


def test_corpus_holds_every_case_once():
    assert [entry["call"] for entry in _recorded()] == cases()


def test_corpus_covers_both_outcomes_for_every_function():
    for function, _, _ in _FUNCTIONS:
        entries = [entry for entry in _recorded() if entry["call"].startswith(function + "(")]
        returned = sum("return" in entry for entry in entries)
        assert returned >= 3 and len(entries) - returned >= 3, function


def test_every_call_returns_or_raises_as_recorded():
    changed = [(entry, got) for entry in _recorded() if (got := outcome(entry["call"])) != entry]
    assert not changed, f"{len(changed)} outcomes changed, first: {changed[0]}"


def record() -> None:
    entries = [outcome(call) for call in cases()]
    lines = ",\n".join(json.dumps(entry) for entry in entries)  # one entry a line
    CORPUS.write_text(f"[\n{lines}\n]\n", encoding="utf-8")


if __name__ == "__main__":
    record()
