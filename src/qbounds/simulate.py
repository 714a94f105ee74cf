"""Seeded Monte Carlo simulation of the sampling estimator.

Trials are grouped into fixed-size blocks; block b draws from a Philox
counter stream keyed by (seed, b), and aggregation is a plain sum of
integer hit counts. A run of more than one block draws its blocks on the
calling thread plus helper threads, one thread per CPU the process may
use and never more than there are blocks; numpy's array draws release
the GIL, so the threads draw at once. A one-block run stays on the
calling thread. Every block's draws depend on (seed, b) alone, so the
results, and every output byte, are the same for any thread count or
order. The sampled estimate (`ingest.estimate_with_bounds`) draws its
rows from block 0 of the same scheme, under the same seed rule, but from
one generator per thread that each estimate re-keys (`_block0_generator`)
rather than a new one: building a Philox costs more than a small
estimate's draw. A simulation keeps one new generator per block, as its
helper threads are new on every run. The scheme's identifier,
`RNG_SCHEME`, is set in `model`, so output metadata names it without
numpy.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .exact import _admissible_range, _check_integers, _is_integer
from .model import RNG_SCHEME, PopulationSpec, SampleDesign, SamplingMethod, _check_point

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
        _check_integers("to simulate", ("population size", self.pop.n),
                        ("cardinality", self.pop.cardinality),
                        ("sample size", self.design.k), ("trials", self.trials))
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
    bitgen = np.random.Philox(key=seed, counter=[0, 0, 0, block_index])
    return np.random.Generator(bitgen)


_THREAD = threading.local()


def _block0_generator(seed: int) -> np.random.Generator:
    """The calling thread's generator, re-keyed to the state that
    `block_generator(seed, 0)` starts in, so that it draws the same rows:
    the counter at 0, the key (seed, 0), an empty buffer and no spare 32
    bits. A Philox built with a key first seeds itself from OS entropy and
    then has that key replaced; setting the state costs about a tenth of
    that. Each thread has its own generator, so threads that draw at once
    never share one."""
    generator = getattr(_THREAD, "generator", None)
    if generator is None:
        generator = _THREAD.generator = np.random.Generator(np.random.Philox(0))
    generator.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": (seed, 0)},
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
    Each thread takes the next block index from one shared iterator and
    sums its own blocks' successes; the helpers are joined before this
    returns, and an error in any block is raised here.
    """
    n, c, k = cfg.pop.n, cfg.pop.cardinality, cfg.design.k
    p = cfg.pop.p
    rng = _admissible_range(n, c, k, cfg.q)
    n_blocks = (cfg.trials + _BLOCK - 1) // _BLOCK
    blocks = iter(range(n_blocks))
    lock = threading.Lock()
    sums: list[int] = []
    errors: list[BaseException] = []

    def drain() -> None:
        """Draw blocks until none is left (or a thread has failed)."""
        total = 0
        try:
            while True:
                # one block index each, and block_generator called by one
                # thread at a time, so a wrapper of it needs no lock of its own
                with lock:
                    b = None if errors else next(blocks, None)
                    if b is None:
                        break
                    gen = block_generator(cfg.seed, b)
                size = min(_BLOCK, cfg.trials - b * _BLOCK)
                if cfg.design.method is SamplingMethod.WITH_REPLACEMENT:
                    hits = gen.binomial(k, p, size=size)
                elif 0 < c < n:
                    hits = gen.hypergeometric(c, n - c, k, size=size)
                else:
                    hits = np.full(size, k if c else 0)
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

    successes = sum(sums)
    rate = successes / cfg.trials
    return SimulationSummary(
        successes=successes,
        trials=cfg.trials,
        empirical_rate=rate,
        standard_error=math.sqrt(rate * (1.0 - rate) / cfg.trials),
    )
