"""Bit-for-bit parity of `engine.run` with the previous engine off the two-hop capacities.

The two-hop scenario's hops fit two links per slot, so its ties are broken
by the ordered-pair draw.  These scenarios reach the single draw (capacity
1) and the sampled-without-replacement draw (capacity 3 and 4) on tiers of
up to 44 loops, and a network whose period is a single slot.
"""

import dataclasses

import pytest

from ncsim.control import PlantSpec
from ncsim.engine import Scenario, make_two_hop_scenario
from test_engine_parity import assert_parity, tables  # noqa: F401 - fixture


@pytest.mark.parametrize("theta", [0.8, 0.3])
@pytest.mark.parametrize("capacities", [(1, 1), (3, 4)])
def test_two_hop_capacities(tables, capacities, theta):
    scenario = dataclasses.replace(
        make_two_hop_scenario(44, seed=7 + sum(capacities), horizon=1000),
        capacities=capacities)
    m = assert_parity(scenario, tables, theta=theta)
    assert m.delivered.sum() > 0


def test_single_hop_one_slot_per_period(tables):
    """Twelve loops straight from source to target, three links per one-slot period."""
    plants = [PlantSpec(A=0.75 if i % 2 else 1.25, B=1.0, Z=1.0, Qx=1.0, Qu=0.0)
              for i in range(12)]
    scenario = Scenario(plants=plants, hops=(1,) * 12, capacities=(3,),
                        slots_per_step=1, horizon=2000, seed=11)
    m = assert_parity(scenario, tables, theta=0.8, check_conservation=True)
    assert m.delivered.sum() > 0
