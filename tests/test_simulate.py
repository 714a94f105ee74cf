import json
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    make = simulate._generator

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

    monkeypatch.setattr(simulate, "_generator", lambda seed, b: Recorder(make(seed, b)))
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
    monkeypatch.setattr(simulate, "_generator", lambda seed, block: _NoDraws())
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
    make = simulate._generator

    def failing(seed, b):
        if b == 5:
            raise RuntimeError("block 5 failed")
        return make(seed, b)

    monkeypatch.setattr(simulate, "_cpu_count", lambda: cpus)
    monkeypatch.setattr(simulate, "_generator", failing)
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
    make = simulate._generator

    def failing(seed, b):
        taken.append(b)
        if b == 0:
            raise KeyboardInterrupt
        return make(seed, b)

    monkeypatch.setattr(simulate, "_cpu_count", lambda: 4)
    monkeypatch.setattr(simulate, "_generator", failing)
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


@pytest.mark.parametrize("dtype", [np.int16, np.int32, np.uint32, np.int64, np.uint64])
@pytest.mark.parametrize("n, c, k, q", [
    (10**6, 5000, 1000, 2.0),  # drawn
    (10**6, 100, 10, 2.0),  # no trial succeeds
    (1000, 10, 5, 1e6),  # every trial succeeds
])
def test_numpy_trials_give_the_python_ints_summary(dtype, n, c, k, q):
    plain = run_simulation(_cfg(n, c, k, q, trials=10**4, seed=1))
    summary = run_simulation(_cfg(n, c, k, q, trials=dtype(10**4), seed=1))
    assert repr(summary) == repr(plain)
    assert type(summary.trials) is int and type(summary.empirical_rate) is float


@pytest.mark.parametrize("method", [WR, WOR])
def test_no_block_builds_a_new_generator(monkeypatch, method):
    """Every block is drawn from a thread's re-keyed generator; the one that
    `block_generator` builds is only the reference."""
    cfg = _cfg(10**6, 5000, 1000, 2.0, trials=16 * 4096 + 3, seed=2**64 - 1, method=method)
    expected = _reference_successes(cfg)
    monkeypatch.setattr(simulate, "_cpu_count", lambda: 4)
    monkeypatch.setattr(simulate, "block_generator",
                        lambda seed, b: pytest.fail("a Philox was built for a block"))
    assert run_simulation(cfg).successes == expected


def test_numpy_integers_are_simulation_inputs():
    plain = run_simulation(_cfg(10**6, 5000, 1000, 2.0, trials=10**4, seed=1))
    numpy = run_simulation(_cfg(np.int64(10**6), np.int32(5000), np.int64(1000), 2.0,
                                trials=np.int64(10**4), seed=np.uint64(1)))
    assert numpy.successes == plain.successes == 8675


@st.composite
def _points(draw):
    """C at an edge of [0, n] or inside it, and without replacement k at
    1, n - 1 or inside."""
    method = draw(st.sampled_from([WR, WOR]))
    n = draw(st.integers(2, 10**6))
    c = draw(st.sampled_from([0, 1, n - 1, n, None]))
    if c is None:
        c = draw(st.integers(0, n))
    top = n - 1 if method is WOR else 2 * 10**6
    k = draw(st.sampled_from([1, top, None]))
    if k is None:
        k = draw(st.integers(1, top))
    q = draw(st.sampled_from([1.0, 1e200]) | st.floats(0.0, 200.0).map(lambda e: 10.0**e))
    trials = draw(st.sampled_from([1, 4095, 4097]))
    seed = draw(st.integers(0, 2**64 - 1))
    return _cfg(n, c, k, q, trials=trials, seed=seed, method=method)


@given(cfg=_points(), cpus=st.sampled_from([1, 4]))
@example(cfg=_cfg(10**6, 100, 10, 2.0, trials=4097, seed=1), cpus=4)  # no hit count admissible
@example(cfg=_cfg(1000, 10, 5, 1e6, trials=4097, seed=1, method=WOR), cpus=4)  # every one
@example(cfg=_cfg(1000, 500, 100, 1.05, trials=4097, seed=1, method=WOR), cpus=1)  # some
@settings(max_examples=200, deadline=None)
def test_simulation_equals_the_block_by_block_draw(cfg, cpus):
    """Decided or drawn, a point counts what drawing each block counts."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulate, "_cpu_count", lambda: cpus)
        summary = run_simulation(cfg)
    assert summary.successes == _reference_successes(cfg)
    assert summary.trials == cfg.trials


def _counted_draws(monkeypatch) -> tuple[list, list]:
    """The block indices `_generator` is called with, and the threads
    started, during a run."""
    blocks, started = [], []
    make = simulate._generator

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    def counted(seed, b):
        blocks.append(b)
        return make(seed, b)

    monkeypatch.setattr(simulate, "_cpu_count", lambda: 4)
    monkeypatch.setattr(simulate, "_generator", counted)
    monkeypatch.setattr(simulate.threading, "Thread", Counted)
    return blocks, started


@pytest.mark.parametrize("method", [WR, WOR])
@pytest.mark.parametrize("n, c, k, q, successes", [
    (10**6, 100, 10, 2.0, 0),  # k p = 0.001: no hit count estimates within a factor 2
    (1000, 10, 5, 1e6, 16 * 4096 + 3),  # every hit count in [0, 5] is within 1e6
    (1000, 0, 50, 1.0, 16 * 4096 + 3),  # the hit count is 0, and so is C
    (1000, 1000, 50, 1.0, 16 * 4096 + 3),  # the hit count is k, and C is n
])
def test_a_decided_point_draws_nothing(monkeypatch, method, n, c, k, q, successes):
    blocks, started = _counted_draws(monkeypatch)
    summary = run_simulation(_cfg(n, c, k, q, trials=16 * 4096 + 3, seed=1, method=method))
    assert summary.successes == successes
    assert blocks == [] and started == []


@pytest.mark.parametrize("method", [WR, WOR])
def test_an_undecided_point_draws_every_block(monkeypatch, method):
    blocks, started = _counted_draws(monkeypatch)
    summary = run_simulation(_cfg(10**6, 5000, 1000, 2.0, trials=16 * 4096 + 3, seed=1,
                                  method=method))
    assert sorted(blocks) == list(range(17)) and len(started) == 3
    assert 0 < summary.successes < summary.trials


# (method, n, C, k, q): the first at C k / n = 1000 puts k C past 2**31, so
# an int32 k wrapped in the admissible range and counted 0 of 4,096; in the
# second an uint64 k wrapped in k - (n - C) and counted 0 in place of 4,096;
# the rest hold n, C or k on both sides of 2**31 and 2**32
_WIDE_POINTS = [
    (WOR, 5 * 10**8, 5 * 10**6, 100_000, 1.05),
    (WOR, 1000, 500, 100, 1e6),
    (WOR, 1000, 500, 100, 1.05),
    (WR, 2**31 - 1, 2**30, 30_000, 1.01),
    (WR, 2**31 + 1, 2**31 - 1, 2**31 - 1, 1.0001),
    (WR, 2**32 - 1, 2**31 + 1, 2**31 + 1, 1.0001),
    (WR, 2**33 + 1, 2**32 + 7, 2**32 - 1, 1.00001),
    (WR, 2**32 + 5, 10, 2**32 + 1, 1.1),
    (WOR, 2**32 + 1, 0, 2**32, 1.0),
    (WOR, 2**31 + 1, 2**31 + 1, 2**31 - 1, 1.0),
    (WOR, 2 * 10**9 - 2, 10**9 - 1, 10**9, 1.0001),
]


def _fits(dtype, value) -> bool:
    info = np.iinfo(dtype)
    return info.min <= value <= info.max


@pytest.mark.parametrize("method, n, c, k, q, dtype", [
    (*point, dtype) for point in _WIDE_POINTS
    for dtype in (np.int16, np.int32, np.uint32, np.int64, np.uint64)
    if any(_fits(dtype, v) for v in point[1:4])])
def test_numpy_integer_sizes_simulate_as_python_ints(method, n, c, k, q, dtype):
    """n, C and k in any numpy integer type that holds them, each alone
    and all three at once, give the summary of the Python-int call."""
    plain = repr(run_simulation(_cfg(n, c, k, q, trials=4096, seed=1, method=method)))
    fits = [_fits(dtype, v) for v in (n, c, k)]
    for given_as in ([0], [1], [2], [0, 1, 2]):
        if not all(fits[i] for i in given_as):
            continue
        sizes = [dtype(v) if i in given_as else v for i, v in enumerate((n, c, k))]
        assert repr(run_simulation(_cfg(*sizes, q, trials=4096, seed=1, method=method))) == plain


def test_an_int32_sample_size_counts_the_python_ints_successes():
    summary = run_simulation(_cfg(5 * 10**8, 5 * 10**6, np.int32(100_000), 1.05, trials=4096,
                                  seed=1, method=WOR))
    assert summary.successes == 3643
