"""Bit-for-bit parity of `engine.run` with the previous engine on random scenarios.

Off the two-hop scenario: one to eight loops of either standard plant
class, paths of one to four hops, one to four links per path position, one
to twelve slots per period, short horizons, theta from starving to light
load, and optionally a forced sampling pattern with the traces recorded.
Every case also runs the packet conservation check.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ncsim.engine import TWO_HOP_PLANTS, Scenario
from test_engine_parity import assert_parity, tables  # noqa: F401 - fixture


@st.composite
def scenarios(draw) -> Scenario:
    L = draw(st.integers(1, 8))
    hops = tuple(draw(st.lists(st.integers(1, 4), min_size=L, max_size=L)))
    return Scenario(
        plants=draw(st.lists(st.sampled_from(TWO_HOP_PLANTS), min_size=L, max_size=L)),
        hops=hops,
        capacities=tuple(draw(st.lists(st.integers(1, 4), min_size=max(hops),
                                       max_size=max(hops)))),
        slots_per_step=draw(st.integers(1, 12)),
        horizon=draw(st.integers(20, 300)),
        seed=draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=150, deadline=None)
@given(scenario=scenarios(), theta=st.sampled_from([0.05, 0.3, 0.8, 2.0]),
       forced=st.none() | st.floats(0.0, 1.0))
def test_random_scenarios(tables, scenario, theta, forced):
    options = {}
    if forced is not None:
        rng = np.random.default_rng(scenario.seed)
        options = dict(record_errors=True,
                       force_delta=rng.random((scenario.horizon, len(scenario.plants))) < forced)
    assert_parity(scenario, tables, theta=theta, check_conservation=True, **options)
