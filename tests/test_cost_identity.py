"""The LQG cost identity: the cost `run` reports, rebuilt from quantities it does not use.

For a loop x[j+1] = a x[j] + b u[j] + w[j] under any inputs, with p the
stationary Riccati solution, s = qu + b p b and k the LQG gain,

    qx x^2 + qu u^2 = p x^2 - p (a x + b u)^2 + s (u + k x)^2,

so the stage costs over the costed periods j = warmup .. horizon - 2 sum to

    p (x[warmup]^2 - x[horizon-1]^2) + p sum(2 (a x + b u) w + w^2) + s sum((u + k x)^2).

The states are rebuilt from x[0] = 0, the recorded noise and the recorded
inputs; the identity is exact in real arithmetic, and holds in floats to
1e-12 of the sum of the terms' magnitudes only if p solves the Riccati
equation to about that precision.  The parity oracle keeps the same books
as the engine, so it cannot see both books wrong the same way; this can.
"""

import numpy as np
import pytest

from ncsim.control import PlantSpec, design_lqg
from ncsim.engine import WARMUP_FRAC, Scenario, make_two_hop_scenario, run
from ncsim.sampler import ThresholdTable, plant_class_id

REL_BOUND = 1e-12  # measured gaps are ~1e-15; never raise this to make a change pass


def assert_cost_identity(scenario: Scenario, m) -> None:
    """Check each loop's `cost_sum` against the identity, on a run made with record_errors."""
    horizon = scenario.horizon
    warmup = int(horizon * WARMUP_FRAC)
    costed = slice(warmup, horizon - 1)
    for i, plant in enumerate(scenario.plants):
        sol = design_lqg(plant)
        a, b, p, k = plant.a, plant.b, sol.p, sol.k
        s = plant.qu + b * p * b
        u, w = m.input_trace[:, i], m.noise[:, i]
        x = [0.0] * horizon
        for j in range(horizon - 1):
            x[j + 1] = a * x[j] + b * u[j] + w[j]
        x = np.array(x)
        xj, uj, wj = x[costed], u[costed], w[costed]
        terms = np.concatenate((
            [p * x[warmup] ** 2, -p * x[-1] ** 2],
            p * (2 * (a * xj + b * uj) * wj + wj * wj),
            s * (uj + k * xj) ** 2,
        ))
        gap = abs(m.cost_sum[i] - terms.sum())
        assert gap <= REL_BOUND * np.abs(terms).sum(), (i, gap, np.abs(terms).sum())


@pytest.mark.parametrize("L", [4, 20])
@pytest.mark.parametrize("theta", [0.05, 0.8, 2.0])
def test_two_hop_runs(tables, L, theta):
    sc = make_two_hop_scenario(L, seed=23, horizon=2000)
    m = run(sc, tables, theta=theta, record_errors=True)
    assert np.all(m.cost_sum > 0)
    assert_cost_identity(sc, m)


def test_class_with_an_input_cost_under_forced_sampling():
    # qu > 0, so p is not qx and the identity needs the Riccati equation to hold
    spec = PlantSpec(A=1.1, B=1.0, Z=1.0, Qx=1.0, Qu=0.3)
    sol = design_lqg(spec)
    assert sol.p != spec.qx
    cid = plant_class_id(spec, sol)
    tables = {cid: ThresholdTable(np.zeros(1), np.zeros(1), cid)}
    sc = Scenario(plants=[spec] * 4, hops=(2,) * 4, capacities=(1, 1),
                  slots_per_step=3, horizon=2000, seed=31)
    force = np.random.default_rng(31).random((sc.horizon, 4)) < 0.4
    m = run(sc, tables, force_delta=force, record_errors=True)
    assert m.delay_sum.sum() > 0  # late deliveries, so the estimate is rolled forward
    assert_cost_identity(sc, m)
