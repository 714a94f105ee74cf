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
            drawn.append(self.gen.binomial(*args, **kwargs))
            return drawn[-1]

        def hypergeometric(self, *args, **kwargs):
            drawn.append(self.gen.hypergeometric(*args, **kwargs))
            return drawn[-1]

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
