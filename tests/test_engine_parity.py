"""Bit-for-bit parity of `engine.run` with the previous engine (engine_oracle)."""

import numpy as np
import pytest

import engine_oracle
from ncsim.control import PlantSpec
from ncsim.engine import Scenario, make_two_hop_scenario, run

ARRAY_FIELDS = ("injected", "delivered", "delay_sum", "cost_sum", "backlog_sum",
                "diverging", "error_trace", "delta_trace")


def assert_parity(scenario, tables, **options):
    new = run(scenario, tables, **options)
    old = engine_oracle.run(scenario, tables, **options)
    for name in ARRAY_FIELDS:
        got, want = getattr(new, name), getattr(old, name)
        assert (got is None) == (want is None), name
        assert got is None or np.array_equal(got, want), name
    assert new.delivered_births == old.delivered_births
    return new


def mixed_scenario(n: int, horizon: int, seed: int) -> Scenario:
    """Every third loop on a one-hop path, the rest on three hops.

    Hop capacities 3/1/2, so a tie tier larger than the remaining capacity
    of 3 exercises the sampled-without-replacement tie-break.
    """
    plants = []
    for i in range(n):
        a = 0.75 if i % 2 == 0 else 1.25
        plants.append(PlantSpec(A=a, B=1.0, Z=1.0, Qx=1.0, Qu=0.0))
    hops = tuple(3 if i % 3 else 1 for i in range(n))
    return Scenario(plants=plants, hops=hops,
                    capacities=(3, 1, 2),
                    slots_per_step=10, horizon=horizon, seed=seed)


@pytest.mark.parametrize("L", [2, 4, 20, 44])
def test_congestion_sweep_points(tables, L):
    assert_parity(make_two_hop_scenario(L, seed=100 + L, horizon=2000), tables, theta=0.8)


def test_starving_loops_at_low_theta(tables):
    m = assert_parity(make_two_hop_scenario(44, seed=3, horizon=2000), tables, theta=0.05)
    starved = m.delivered == 0
    assert np.any(starved)  # the regime where loops starve
    # a loop that delivered nothing has no delay, and class means leave it out
    delay = m.delay_per_loop
    assert np.all(np.isnan(delay[starved])) and np.all(np.isfinite(delay[~starved]))
    means = m.class_means(delay)
    assert np.all(starved[:22]) and not np.any(starved[22:])  # the stable class starves
    assert np.isnan(means["stable"])
    assert means["unstable"] == means["all"] == delay[~starved].mean()


def test_forced_delta_with_recorded_traces(tables):
    force = np.random.default_rng(1).random((1000, 4)) < 0.5
    assert_parity(make_two_hop_scenario(4, seed=5, horizon=1000), tables, theta=0.8,
                  force_delta=force, record_errors=True)


def test_conservation_check_under_load(tables):
    assert_parity(make_two_hop_scenario(24, seed=2, horizon=1000), tables, theta=0.8,
                  check_conservation=True)


def test_mixed_path_lengths_and_capacities(tables):
    m = assert_parity(mixed_scenario(10, horizon=1500, seed=4), tables, theta=0.8,
                      check_conservation=True)
    assert m.delivered.sum() > 0
