"""Seeded Monte Carlo simulation of the sampling estimator.

Trials are grouped into fixed-size blocks; block b draws from a Philox
counter stream keyed by (seed, b), so results are bit-identical whether
blocks run sequentially or in parallel and aggregation is a plain sum.
The sampled estimate (`ingest.estimate_with_bounds`) draws its rows from
block 0 of the same scheme, under the same seed rule. The scheme
identifier is exported for output metadata.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exact import admissible_range
from .model import PopulationSpec, SampleDesign, SamplingMethod, _check_point

RNG_SCHEME = "philox4x64-block4096-v2"
_BLOCK = 4096
# numpy's hypergeometric draw refuses C or n - C at or above this; C = 0
# and C = n need no draw (the hit count is 0 or k)
_HYPERGEOMETRIC_LIMIT = 10**9


@dataclass(frozen=True)
class SimulationConfig:
    pop: PopulationSpec
    design: SampleDesign
    q: float
    trials: int
    seed: int

    def __post_init__(self) -> None:
        _check_point(self.design.method, None, self.design.k, self.q, self.pop.n)
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        _check_seed(self.seed)
        n, c = self.pop.n, self.pop.cardinality
        if (self.design.method is SamplingMethod.WITHOUT_REPLACEMENT
                and 0 < c < n and max(c, n - c) >= _HYPERGEOMETRIC_LIMIT):
            raise ValueError(f"simulation without replacement needs C and n - C below "
                             f"{_HYPERGEOMETRIC_LIMIT:,}, got C={c}, n - C={n - c}")


def _check_seed(seed: int) -> None:
    """The seed rule of every seeded draw: an unsigned 64-bit integer."""
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed}")


@dataclass(frozen=True)
class SimulationSummary:
    successes: int
    trials: int
    empirical_rate: float
    standard_error: float


def block_generator(seed: int, block_index: int) -> np.random.Generator:
    """Generator for one trial block, derived purely from (seed, block)."""
    bitgen = np.random.Philox(key=seed, counter=[0, 0, 0, block_index])
    return np.random.Generator(bitgen)


def run_simulation(cfg: SimulationConfig) -> SimulationSummary:
    """Repeat the draw-and-estimate experiment and count Q-error successes.

    Success of a trial with hit count x means q_error(n*x/k, C) <= q,
    which is exactly membership of x in the admissible hit-count range.
    """
    n, c, k = cfg.pop.n, cfg.pop.cardinality, cfg.design.k
    p = cfg.pop.p
    rng = admissible_range(n, c, k, cfg.q)

    successes = 0
    n_blocks = (cfg.trials + _BLOCK - 1) // _BLOCK
    for b in range(n_blocks):
        size = min(_BLOCK, cfg.trials - b * _BLOCK)
        gen = block_generator(cfg.seed, b)
        if cfg.design.method is SamplingMethod.WITH_REPLACEMENT:
            hits = gen.binomial(k, p, size=size)
        elif 0 < c < n:
            hits = gen.hypergeometric(c, n - c, k, size=size)
        else:
            hits = np.full(size, k if c else 0)
        successes += int(np.count_nonzero((hits >= rng.lo) & (hits <= rng.hi)))

    rate = successes / cfg.trials
    return SimulationSummary(
        successes=successes,
        trials=cfg.trials,
        empirical_rate=rate,
        standard_error=math.sqrt(rate * (1.0 - rate) / cfg.trials),
    )
