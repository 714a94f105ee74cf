"""Seeded Monte Carlo simulation of the sampling estimator.

Trials are grouped into fixed-size blocks; block b draws from a Philox
counter stream keyed by (seed, b), and aggregation is a plain sum of
integer hit counts. A run of more than one block draws its blocks on the
calling thread plus helper threads, one thread per CPU the process may
use and never more than there are blocks; numpy's array draws release
the GIL, so the threads draw at once. Each thread draws each block from
its own generator, re-keyed to the block's stream (`_generator`), as the
sampled estimate (`ingest.estimate_with_bounds`) draws its rows from
block 0; so the results, and every output byte, are the same for any
thread count or order. A point whose admissible range holds none, or
all, of the hit counts the draw can give draws no block and starts no
thread: it counts 0 or every trial, as a draw would. The scheme's
identifier, `RNG_SCHEME`, is set in `model`, so output metadata names it
without numpy.
"""

from __future__ import annotations

import math
import operator
import os
import threading
from dataclasses import dataclass

import numpy as np

from .exact import (AdmissibleRange, _admissible_range, _check_integers, _decided, _is_integer,
                    _support)
from .model import (_WOR, _WR, RNG_SCHEME, PopulationSpec, SampleDesign, _check_k_below_n,
                    _check_point)

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
        # n, k and the method were checked by the population and the design; as
        # Python ints, no numpy integer type wraps in n - k or n - C
        n, c, k, _ = _check_integers("to simulate", ("population size", self.pop.n),
                                     ("cardinality", self.pop.cardinality),
                                     ("sample size", self.design.k), ("trials", self.trials))
        _check_point(None, None, None, self.q)
        if self.design.method is _WOR:
            _check_k_below_n(k, n)
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        _check_seed(self.seed)
        if self.design.method is _WOR and 0 < c < n and max(c, n - c) >= _HYPERGEOMETRIC_LIMIT:
            raise ValueError(f"simulation without replacement needs C and n - C below "
                             f"{_HYPERGEOMETRIC_LIMIT:,}, got C={c}, n - C={n - c}")


def _check_seed(seed: int) -> None:
    """The seed rule of every seeded draw: an unsigned 64-bit integer."""
    if not (_is_integer(seed) and 0 <= seed < 2**64):
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed}")


@dataclass(frozen=True)
class SimulationSummary:
    successes: int
    trials: int
    empirical_rate: float
    standard_error: float


def block_generator(seed: int, block_index: int) -> np.random.Generator:
    """Generator for one trial block, derived purely from (seed, block)."""
    return np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, 0, block_index]))


_THREAD = threading.local()


def _generator(seed: int, block: int) -> np.random.Generator:
    """The calling thread's own generator, set to the state that
    `block_generator(seed, block)` starts in (counter (0, 0, 0, block), key
    (seed, 0), no buffered bits), so that it draws the same values at about
    a tenth of the cost of building a Philox."""
    generator = getattr(_THREAD, "generator", None)
    if generator is None:
        generator = _THREAD.generator = np.random.Generator(np.random.Philox(0))
    generator.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, block), "key": (seed, 0)},
        "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    return generator


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def run_simulation(cfg: SimulationConfig) -> SimulationSummary:
    """Repeat the draw-and-estimate experiment and count Q-error successes.

    Success of a trial with hit count x means q_error(n*x/k, C) <= q,
    which is exactly membership of x in the admissible hit-count range.
    A point whose range holds none, or all, of the hit counts the draw can
    give (`exact._support`) counts 0 or `trials` successes, as any draw
    would, without drawing a block or starting a thread; every other point
    draws its blocks. n, C, k and the trials are taken as Python integers,
    so no numpy integer type wraps in the range or reaches the summary.
    """
    n, c, k, trials = (operator.index(v) for v in (cfg.pop.n, cfg.pop.cardinality,
                                                   cfg.design.k, cfg.trials))
    wr = cfg.design.method is _WR
    rng = _admissible_range(n, c, k, cfg.q)
    decided = _decided(rng, *_support(wr, n, c, k))
    if decided is None:
        successes = _drawn_successes(cfg.seed, wr, n, c, k, trials, rng)
    else:
        successes = decided * trials

    rate = successes / trials
    return SimulationSummary(successes, trials, rate, math.sqrt(rate * (1.0 - rate) / trials))


def _drawn_successes(seed: int, wr: bool, n: int, c: int, k: int, trials: int,
                     rng: AdmissibleRange) -> int:
    """The trials whose hit count, drawn block by block, lies in `rng`.
    Each thread takes the next block index from one shared iterator and
    sums its own blocks' successes; the helpers are joined before this
    returns, and an error in any block is raised here."""
    p = c / n
    n_blocks = (trials + _BLOCK - 1) // _BLOCK
    blocks = iter(range(n_blocks))
    lock = threading.Lock()
    sums: list[int] = []
    errors: list[BaseException] = []

    def drain() -> None:
        """Draw blocks until none is left (or a thread has failed)."""
        total = 0
        try:
            while True:
                with lock:
                    b = None if errors else next(blocks, None)
                if b is None:
                    break
                gen = _generator(seed, b)
                size = min(_BLOCK, trials - b * _BLOCK)
                hits = gen.binomial(k, p, size) if wr else gen.hypergeometric(c, n - c, k, size)
                total += int(np.count_nonzero((hits >= rng.lo) & (hits <= rng.hi)))
        except BaseException as exc:  # re-raised by the calling thread
            errors.append(exc)
        sums.append(total)

    helpers: list[threading.Thread] = []
    try:  # a helper that started is joined even if the next one cannot start
        for _ in range(min(_cpu_count(), n_blocks) - 1):
            helper = threading.Thread(target=drain)
            helper.start()
            helpers.append(helper)
        drain()
    finally:
        for helper in helpers:
            helper.join()
    if errors:
        raise errors[0]
    return sum(sums)
