#!/usr/bin/env python3
"""Emit the standard bound-curve datasets for external plotting.

Four sweeps land in the output directory (default ./out):
  q_sweep.csv        per-inequality terms vs q at p=0.2, k in {100, 1000}
  p_sweep.csv        confidence vs p at q=2 for the usual sample sizes
  q95_sweep.csv      smallest q guaranteed at 95% confidence, vs p
  billion_rows.csv   with/without-replacement comparison at n = 1e9

Usage: python scripts/bound_curves.py [OUTDIR]
"""

import os
import sys

import numpy as np

from qbounds import GridSpec, SamplingMethod, Unreachable, figure_series, q_at_confidence
from qbounds.reports import open_output, write_csv, write_series_csv


def _write(records, path):
    with open_output(path) as handle:
        write_series_csv(records, handle)
    print(path)


def q95_sweep(path: str) -> None:
    ps = np.geomspace(1e-4, 1.0, 60)
    ks = (100, 1000, 10000)
    n = 10**6
    records = []
    for method in SamplingMethod:
        for p in ps:
            for k in ks:
                if method is SamplingMethod.WITHOUT_REPLACEMENT and k >= n:
                    continue
                answer = q_at_confidence(method, float(p), k, 0.95, n=n)
                records.append({
                    "method": method.value, "p": float(p), "k": k,
                    "q95": None if isinstance(answer, Unreachable) else answer,
                })
    with open_output(path) as handle:
        write_csv(records, {"method": "%s", "p": "%.9g", "k": "%d", "q95": "%.9g"}, handle)
    print(path)


def main() -> None:
    out_dir = sys.argv[1] if len(sys.argv) > 1 else "out"
    os.makedirs(out_dir, exist_ok=True)

    q_axis = tuple(np.linspace(1.0, 10.0, 91))
    _write(
        figure_series(GridSpec(p=(0.2,), k=(100, 1000), q=q_axis,
                               methods=(SamplingMethod.WITH_REPLACEMENT,),
                               include_hoeffding=True)),
        os.path.join(out_dir, "q_sweep.csv"),
    )

    p_axis = tuple(np.geomspace(1e-4, 1.0, 80))
    _write(
        figure_series(GridSpec(p=p_axis, k=(100, 1000, 10000), q=(2.0,))),
        os.path.join(out_dir, "p_sweep.csv"),
    )

    q95_sweep(os.path.join(out_dir, "q95_sweep.csv"))

    _write(
        figure_series(GridSpec(p=p_axis, n=(10**9,), k=(100, 1000, 10000), q=(2.0,))),
        os.path.join(out_dir, "billion_rows.csv"),
    )


if __name__ == "__main__":
    main()
