"""Bit-for-bit parity of `engine.run` with the previous engine on random scenarios.

Off the two-hop scenario: one to eight loops of either standard plant
class, paths of one to four hops, one to four links per path position, one
to twelve slots per period, short horizons, theta from starving to light
load, and optionally a forced sampling pattern with the traces recorded.
Every case also runs the packet conservation check and the invariants that
need no oracle: births delivered in FIFO order, finite rate, backlog and
cost, a rate of at most one per period, and a delay that is NaN exactly
where nothing was delivered and non-negative elsewhere.  On the same
scenarios, every slot moves at most its hops' capacities and lists its
picks in hop order, and the in-flight count summed over the boundaries
obeys Little's identity, and in the traced cases each loop's cost obeys
the LQG cost identity (`test_cost_identity`).
"""

from collections import Counter
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncsim import engine
from ncsim.engine import TWO_HOP_PLANTS, Scenario, make_two_hop_scenario, run
from test_cost_identity import assert_cost_identity
from test_engine_parity import assert_parity


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
@given(scenario=scenarios(), theta=st.sampled_from([0.01, 0.05, 0.3, 0.8, 2.0, 5.0]),
       forced=st.none() | st.floats(0.0, 1.0))
def test_random_scenarios(tables, scenario, theta, forced):
    options = {}
    if forced is not None:
        rng = np.random.default_rng(scenario.seed)
        options = dict(record_errors=True,
                       force_delta=rng.random((scenario.horizon, len(scenario.plants))) < forced)
    m = assert_parity(scenario, tables, theta=theta, check_conservation=True, **options)
    if forced is not None:  # the traced samples past warm-up are the injected tally
        warmup = int(scenario.horizon * engine.WARMUP_FRAC)
        assert np.array_equal(m.delta_trace[warmup:].sum(axis=0), m.injected)
        assert_cost_identity(scenario, m)
    for births in m.delivered_births:
        assert births == sorted(births)
    for values in (m.rate_per_loop, m.backlog_per_loop, m.cost_per_loop):
        assert np.all(np.isfinite(values))
    assert np.all(m.rate_per_loop <= 1)
    delay, undelivered = m.delay_per_loop, m.delivered == 0
    assert np.array_equal(np.isnan(delay), undelivered)
    assert np.all(delay[~undelivered] >= 0)


@settings(max_examples=150, deadline=None)
@given(scenario=scenarios(), theta=st.sampled_from([0.01, 0.05, 0.3, 0.8, 2.0, 5.0]))
def test_each_slot_moves_within_capacity(tables, scenario, theta):
    slots = []  # per transmit call, its (position, loop) pairs and the loops it delivered
    transmit = engine.transmit

    def recording(buffers, assignments):
        delivered = transmit(buffers, assignments)
        slots.append((list(assignments), delivered))
        return delivered

    with patch.object(engine, "transmit", recording):
        run(scenario, tables, theta=theta)
    for assignments, delivered in slots:
        assert len(set(assignments)) == len(assignments)  # no link picked twice
        positions = [pos for pos, _ in assignments]
        assert positions == sorted(positions)  # hop by hop, upstream first, as transmit needs
        per_position = Counter(pos for pos, _ in assignments)
        assert all(n <= scenario.capacities[pos] for pos, n in per_position.items())
        assert len(delivered) <= len(assignments)


def assert_little_identity(scenario, tables, theta):
    """Samples in flight before injection, summed over the boundaries, equal the
    delivered samples' delays plus horizon - 1 - birth for each one still in flight.

    With no warm-up every birth and delivery is counted; the births still in
    flight are each loop's births after its delivered ones, queues being FIFO.
    """
    with patch.object(engine, "WARMUP_FRAC", 0):
        m = run(scenario, tables, theta=theta, record_errors=True, check_conservation=True)
    horizon = scenario.horizon
    undelivered = sum(horizon - 1 - int(birth)
                      for i, births in enumerate(m.delivered_births)
                      for birth in np.flatnonzero(m.delta_trace[:, i])[len(births):])
    assert isinstance(m.inflight_sum, int)
    assert m.inflight_sum == int(m.delay_sum.sum()) + undelivered
    return m


@settings(max_examples=100, deadline=None)
@given(scenario=scenarios(), theta=st.sampled_from([0.01, 0.05, 0.3, 0.8, 2.0, 5.0]))
def test_little_identity(tables, scenario, theta):
    assert_little_identity(scenario, tables, theta)


@pytest.mark.parametrize("theta", [0.05, 0.8])
def test_little_identity_two_hop_l44(tables, theta):
    m = assert_little_identity(make_two_hop_scenario(44, seed=5, horizon=1500), tables, theta)
    assert m.inflight_sum > 0
