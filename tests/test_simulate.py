import json
import sys
import threading

import numpy as np
import pytest

from qbounds import (
    PopulationSpec,
    RNG_SCHEME,
    SampleDesign,
    SamplingMethod,
    SimulationConfig,
    admissible_range,
    estimate_from_hits,
    exact_confidence,
    q_error,
    run_simulation,
    simulate,
)
from qbounds.cli import run

WR = SamplingMethod.WITH_REPLACEMENT
WOR = SamplingMethod.WITHOUT_REPLACEMENT


def _cfg(n, c, k, q, trials, seed, method=WR, **kw):
    return SimulationConfig(
        pop=PopulationSpec(n=n, cardinality=c),
        design=SampleDesign(method=method, k=k),
        q=q, trials=trials, seed=seed, **kw,
    )


def test_deterministic_given_config():
    cfg = _cfg(10**6, 5000, 1000, 2.0, trials=20000, seed=7)
    a = run_simulation(cfg)
    b = run_simulation(cfg)
    assert a.successes == b.successes
    assert a.empirical_rate == b.empirical_rate


def test_seed_changes_the_draws():
    a = run_simulation(_cfg(10**6, 5000, 1000, 2.0, trials=20000, seed=1))
    b = run_simulation(_cfg(10**6, 5000, 1000, 2.0, trials=20000, seed=2))
    assert a.successes != b.successes


def test_full_selectivity_is_always_perfect():
    summary = run_simulation(_cfg(1000, 1000, 50, 1.0, trials=100, seed=0))
    assert summary.empirical_rate == 1.0
    summary = run_simulation(_cfg(1000, 1000, 50, 1.0, trials=100, seed=0, method=WOR))
    assert summary.empirical_rate == 1.0


def test_empty_predicate_with_clamp():
    # C = 0 draws no hits; est = 0 clamps to 1 against truth clamped to 1
    summary = run_simulation(_cfg(10**6, 0, 1000, 2.0, trials=100, seed=3))
    assert summary.empirical_rate == 1.0
    summary = run_simulation(_cfg(10**6, 0, 1000, 2.0, trials=100, seed=3, method=WOR))
    assert summary.empirical_rate == 1.0


def test_agrees_with_exact_probability():
    pop = PopulationSpec(n=10**6, cardinality=5000)
    for method, seed in ((WR, 11), (WOR, 12)):
        design = SampleDesign(method=method, k=1000)
        exact = exact_confidence(pop, design, 2.0)
        summary = run_simulation(SimulationConfig(
            pop=pop, design=design, q=2.0, trials=100_000, seed=seed))
        assert abs(summary.empirical_rate - exact) <= 4 * summary.standard_error
        assert summary.standard_error == pytest.approx(
            np.sqrt(summary.empirical_rate * (1 - summary.empirical_rate) / summary.trials))


def _recorded_hits(monkeypatch) -> list:
    """The hit counts run_simulation draws, one array per block, as it draws them."""
    drawn = []
    make = simulate.block_generator

    class Recorder:
        def __init__(self, gen):
            self.gen = gen

        def binomial(self, *args, **kwargs):
            hits = self.gen.binomial(*args, **kwargs)
            drawn.append(hits)  # blocks on other threads may append in between
            return hits

        def hypergeometric(self, *args, **kwargs):
            hits = self.gen.hypergeometric(*args, **kwargs)
            drawn.append(hits)
            return hits

    monkeypatch.setattr(simulate, "block_generator", lambda seed, b: Recorder(make(seed, b)))
    return drawn


@pytest.mark.parametrize("method", [WR, WOR])
def test_successes_are_the_hit_counts_in_the_admissible_range(monkeypatch, method):
    # a trial succeeds when its estimate's Q-error is at most q: the hit
    # count lies in exact.admissible_range, over every block
    drawn = _recorded_hits(monkeypatch)
    summary = run_simulation(_cfg(10**6, 5000, 1000, 2.0, trials=5000, seed=5, method=method))
    hits = np.concatenate(drawn)
    assert len(drawn) == 2 and len(hits) == 5000
    admissible = admissible_range(10**6, 5000, 1000, 2.0)
    assert summary.successes == sum(x in admissible for x in hits.tolist())
    assert summary.successes == sum(
        q_error(estimate_from_hits(10**6, 1000, x), 5000) <= 2.0 for x in hits.tolist())


def test_wor_draws_respect_population_composition(monkeypatch):
    # n=10, C=3, k=8: hit counts can only be 1..3, whose Q-errors are 2.4,
    # 1.2 and 1.25; anything else would mean drawing more satisfying (or
    # non-satisfying) rows than the table holds
    drawn = _recorded_hits(monkeypatch)
    summary = run_simulation(_cfg(10, 3, 8, 1.25, trials=5000, seed=9, method=WOR))
    hits = np.concatenate(drawn)
    assert set(hits.tolist()) <= {1, 2, 3}
    admissible = admissible_range(10, 3, 8, 1.25)
    assert [x in admissible for x in (1, 2, 3)] == [False, True, True]
    assert summary.successes == int(np.count_nonzero(hits >= 2))


def test_config_validation():
    with pytest.raises(ValueError):
        _cfg(10, 3, 10, 2.0, trials=10, seed=0, method=WOR)  # k = n
    with pytest.raises(ValueError):
        _cfg(10, 3, 5, 0.5, trials=10, seed=0)
    with pytest.raises(ValueError):
        _cfg(10, 3, 5, 2.0, trials=0, seed=0)
    with pytest.raises(ValueError):
        _cfg(10, 3, 5, 2.0, trials=10, seed=-1)


def test_rng_scheme_is_versioned():
    assert isinstance(RNG_SCHEME, str) and RNG_SCHEME


@pytest.mark.parametrize("n, c", [(2 * 10**9, 10), (2 * 10**9, 2 * 10**9 - 5),
                                  (10**9 + 1, 1), (2 * 10**9, 10**9)])
def test_wor_population_beyond_numpys_sampler_is_rejected(n, c):
    """numpy's hypergeometric draw refuses C or n - C of 1e9 or more; the
    config refuses such a point first, in its own words."""
    with pytest.raises(ValueError, match=r"^simulation without replacement needs C and n - C "
                                         r"below 1,000,000,000, got C="):
        _cfg(n, c, 10, 2.0, trials=10, seed=1, method=WOR)
    _cfg(n, c, 10, 2.0, trials=10, seed=1)  # with replacement draws a binomial


def test_wor_population_just_below_the_limit_simulates():
    limit = 10**9 - 1
    summary = run_simulation(_cfg(2 * limit, limit, 10, 2.0, trials=100, seed=1, method=WOR))
    assert summary.trials == 100 and 0 <= summary.successes <= 100


class _NoDraws:
    def hypergeometric(self, *args, **kwargs):
        raise AssertionError("a fixed hit count needs no draw")


@pytest.mark.parametrize("n, c", [(10**9, 0), (10**9, 10**9), (5 * 10**18, 0),
                                  (5 * 10**18, 5 * 10**18), (1000, 0), (1000, 1000)])
def test_wor_fixed_hit_counts_simulate_at_any_n(monkeypatch, n, c):
    """C = 0 and C = n fix the hit count at 0 and k: accepted at any n,
    and counted without numpy's hypergeometric draw."""
    monkeypatch.setattr(simulate, "block_generator", lambda seed, block: _NoDraws())
    summary = run_simulation(_cfg(n, c, 100, 1.0, trials=5000, seed=1, method=WOR))
    assert summary.successes == summary.trials == 5000  # every Q-error is 1


def _reference_successes(cfg) -> int:
    """The sequential definition: the sum over blocks b of the in-range hit
    counts drawn by block_generator(seed, b)."""
    n, c, k = cfg.pop.n, cfg.pop.cardinality, cfg.design.k
    admissible = admissible_range(n, c, k, cfg.q)
    total = 0
    for b in range(-(-cfg.trials // 4096)):
        size = min(4096, cfg.trials - 4096 * b)
        gen = simulate.block_generator(cfg.seed, b)
        if cfg.design.method is WR:
            hits = gen.binomial(k, c / n, size=size)
        elif 0 < c < n:
            hits = gen.hypergeometric(c, n - c, k, size=size)
        else:
            hits = np.full(size, k if c else 0)
        total += int(np.count_nonzero((hits >= admissible.lo) & (hits <= admissible.hi)))
    return total


@pytest.mark.parametrize("cpus", [1, 4])
@pytest.mark.parametrize("trials", [1, 4095, 4096, 4097, 16 * 4096 + 3])
@pytest.mark.parametrize("method, c", [(WR, 5000), (WOR, 5000), (WOR, 0), (WOR, 10**6)])
def test_threaded_blocks_equal_the_sequential_sum(monkeypatch, cpus, trials, method, c):
    monkeypatch.setattr(simulate, "_cpu_count", lambda: cpus)
    cfg = _cfg(10**6, c, 1000, 1.5, trials=trials, seed=2**64 - 3, method=method)
    summary = run_simulation(cfg)
    assert summary.successes == _reference_successes(cfg)
    assert summary.trials == trials


def test_blocks_are_each_counted_once_under_frequent_thread_switches(monkeypatch):
    """More threads than cores, switching every microsecond: a block taken
    twice or lost, or a sum lost, would change the count."""
    monkeypatch.setattr(simulate, "_cpu_count", lambda: 8)
    cfg = _cfg(10**6, 5000, 100, 2.0, trials=64 * 4096 + 5, seed=11)
    expected = _reference_successes(cfg)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            assert run_simulation(cfg).successes == expected
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("cpus, blocks, helpers", [(4, 1, 0), (4, 2, 1), (4, 17, 3), (1, 17, 0)])
def test_helper_threads_are_capped_at_cpus_and_blocks(monkeypatch, cpus, blocks, helpers):
    """One thread per CPU, never more than there are blocks, and the
    calling thread is one of them: a one-block run starts no thread."""
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(simulate, "_cpu_count", lambda: cpus)
    monkeypatch.setattr(simulate.threading, "Thread", Counted)
    run_simulation(_cfg(10**6, 5000, 100, 2.0, trials=4096 * blocks, seed=1))
    assert len(started) == helpers
    assert not any(thread.is_alive() for thread in started)


def test_cpu_count_is_the_affinity_set(monkeypatch):
    assert simulate._cpu_count() >= 1
    monkeypatch.setattr(simulate.os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
    assert simulate._cpu_count() == 3
    monkeypatch.delattr(simulate.os, "sched_getaffinity")
    monkeypatch.setattr(simulate.os, "cpu_count", lambda: 6)
    assert simulate._cpu_count() == 6


@pytest.mark.parametrize("cpus", [1, 4])
def test_an_error_in_any_block_is_raised_and_no_thread_outlives_the_call(monkeypatch, cpus):
    """A lost block would silently count 0 successes."""
    make = simulate.block_generator

    def failing(seed, b):
        if b == 5:
            raise RuntimeError("block 5 failed")
        return make(seed, b)

    monkeypatch.setattr(simulate, "_cpu_count", lambda: cpus)
    monkeypatch.setattr(simulate, "block_generator", failing)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="^block 5 failed$"):
        run_simulation(_cfg(10**6, 5000, 1000, 2.0, trials=16 * 4096, seed=3))
    assert threading.active_count() == before


def test_a_helper_that_cannot_start_leaves_no_thread_running(monkeypatch):
    started = []

    class SecondFails(threading.Thread):
        def start(self):
            if started:
                raise RuntimeError("can't start new thread")
            started.append(self)
            super().start()

    monkeypatch.setattr(simulate, "_cpu_count", lambda: 4)
    monkeypatch.setattr(simulate.threading, "Thread", SecondFails)
    with pytest.raises(RuntimeError, match="^can't start new thread$"):
        run_simulation(_cfg(10**6, 5000, 1000, 2.0, trials=16 * 4096, seed=3))
    assert len(started) == 1 and not started[0].is_alive()


def test_a_failed_block_stops_the_other_threads(monkeypatch):
    """After an error no thread takes a new block, so an interrupt (or a
    failure) ends a long run without drawing the rest of it."""
    taken = []
    make = simulate.block_generator

    def failing(seed, b):
        taken.append(b)
        if b == 0:
            raise KeyboardInterrupt
        return make(seed, b)

    monkeypatch.setattr(simulate, "_cpu_count", lambda: 4)
    monkeypatch.setattr(simulate, "block_generator", failing)
    with pytest.raises(KeyboardInterrupt):
        run_simulation(_cfg(10**6, 5000, 1000, 2.0, trials=256 * 4096, seed=3))
    assert len(taken) <= 16  # of 256 blocks


@pytest.mark.parametrize("method, successes", [("wr", 86302), ("wor", 86384)])
def test_multi_block_stream_is_pinned(capsys, method, successes):
    """25 blocks, the last one partial: the counts the sequential block loop
    gave, whatever the number of threads."""
    assert run(["simulate", "--method", method, "--cardinality", "5000", "--rows", "1000000",
                "--k", "1000", "--q", "2", "--trials", "100003", "--seed", "7",
                "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["successes"] == successes


@pytest.mark.parametrize("field, value, message", [
    ("trials", 2.5, "trials must be an integer to simulate, got 2.5"),
    ("trials", 1e4, "trials must be an integer to simulate, got 10000.0"),
    ("trials", True, "trials must be an integer to simulate, got True"),
    ("seed", 1.5, "seed must be an unsigned 64-bit integer, got 1.5"),
    ("seed", True, "seed must be an unsigned 64-bit integer, got True"),
    ("seed", np.float64(7.0), "seed must be an unsigned 64-bit integer, got 7.0"),
    ("k", 10.5, "sample size must be an integer to simulate, got 10.5"),
    ("k", 100.0, "sample size must be an integer to simulate, got 100.0"),
    ("n", 10.0**6, "population size must be an integer to simulate, got 1000000.0"),
    ("c", 5000.5, "cardinality must be an integer to simulate, got 5000.5"),
])
def test_simulation_inputs_must_be_integers(field, value, message):
    """At the parent of this rule 2.5 and 1e4 trials ended in range()'s
    TypeError, True trials ran as one trial, seed 1.5 drew seed 1's stream
    and k = 10.5 counted 0 successes."""
    args = {"n": 10**6, "c": 5000, "k": 1000, "trials": 10**4, "seed": 1}
    args[field] = value
    with pytest.raises(ValueError, match=f"^{message}$"):
        _cfg(args["n"], args["c"], args["k"], 2.0, trials=args["trials"], seed=args["seed"])


def test_numpy_integers_are_simulation_inputs():
    plain = run_simulation(_cfg(10**6, 5000, 1000, 2.0, trials=10**4, seed=1))
    numpy = run_simulation(_cfg(np.int64(10**6), np.int32(5000), np.int64(1000), 2.0,
                                trials=np.int64(10**4), seed=np.uint64(1)))
    assert numpy.successes == plain.successes == 8675
