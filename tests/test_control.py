"""LQG design, per-period dynamics as the engine runs them, delayed-delivery replay."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncsim.control import (InputLog, PlantSpec, ReplayError,
                           RiccatiDivergenceError, compute_gain, design_lqg,
                           estimator_deliver, solve_riccati)
from ncsim.engine import WARMUP_FRAC, make_two_hop_scenario, run
from ncsim.sampler import ThresholdTable, plant_class_id

GOLDEN = (1 + math.sqrt(5)) / 2


def scalar_spec(a, b=1.0, z=1.0, qx=1.0, qu=0.0):
    return PlantSpec(A=a, B=b, Z=z, Qx=qx, Qu=qu)


class TestRiccati:
    def test_deadbeat_stable(self):
        p = solve_riccati(scalar_spec(0.75))
        assert abs(p[0, 0] - 1.0) <= 1e-9

    def test_deadbeat_unstable(self):
        p = solve_riccati(scalar_spec(1.25))
        assert abs(p[0, 0] - 1.0) <= 1e-9

    def test_memoryless_plant_returns_state_weight(self):
        p = solve_riccati(scalar_spec(0.0, qx=3.7, qu=2.0))
        assert abs(p[0, 0] - 3.7) <= 1e-9

    def test_golden_ratio_fixed_point(self):
        p = solve_riccati(scalar_spec(1.0, qx=1.0, qu=1.0))
        assert abs(p[0, 0] - GOLDEN) <= 1e-9

    def test_residual_at_convergence(self):
        for a, qu in ((0.75, 0.0), (1.25, 0.0), (1.0, 1.0)):
            spec = scalar_spec(a, qu=qu)
            p = solve_riccati(spec)
            bp = spec.B.T @ p
            gain_term = np.linalg.solve(spec.Qu + bp @ spec.B, bp)
            rhs = spec.Qx + spec.A.T @ (p - p @ spec.B @ gain_term) @ spec.A
            assert np.max(np.abs(p - rhs)) <= 1e-9

    def test_divergence_error_names_spec(self):
        # unstable and uncontrollable: B = 0
        spec = PlantSpec(A=2.0, B=0.0, Z=1.0, Qx=1.0, Qu=1.0)
        with pytest.raises(RiccatiDivergenceError, match="A="):
            solve_riccati(spec, max_iter=500)


class TestGain:
    def test_deadbeat_gain_equals_a(self):
        spec = scalar_spec(0.75)
        sol = compute_gain(np.array([[1.0]]), spec)
        assert sol.K[0, 0] == pytest.approx(0.75, abs=1e-12)

    def test_golden_gain(self):
        spec = scalar_spec(1.0, qx=1.0, qu=1.0)
        sol = compute_gain(np.array([[GOLDEN]]), spec)
        assert sol.K[0, 0] == pytest.approx(GOLDEN / (1 + GOLDEN), abs=1e-9)

    def test_zero_system_matrix_zero_gain(self):
        spec = scalar_spec(0.0, qu=1.0)
        sol = compute_gain(np.array([[5.0]]), spec)
        assert sol.K[0, 0] == 0.0

    def test_deadbeat_identities(self):
        # K = A, Qe = A^2 P, closed loop A - BK = 0 for every scalar Qu=0 spec
        for a in (0.75, 1.25, 0.3, 2.0):
            spec = scalar_spec(a)
            sol = design_lqg(spec)
            assert sol.K[0, 0] == pytest.approx(a, abs=1e-9)
            assert sol.Qe[0, 0] == pytest.approx(a * a * sol.P[0, 0], abs=1e-9)
            assert abs(spec.A[0, 0] - spec.B[0, 0] * sol.K[0, 0]) <= 1e-9

    def test_floor_cost_is_trace(self):
        spec = PlantSpec(A=np.eye(2) * 0.5, B=np.eye(2), Z=np.diag([1.0, 2.0]),
                         Qx=np.eye(2), Qu=np.eye(2))
        sol = design_lqg(spec)
        assert sol.floor_cost == pytest.approx(float(np.trace(sol.P @ spec.Z)))


def forced_run(L, horizon, always):
    """engine.run on the two-hop scenario with every sampling decision forced."""
    sc = make_two_hop_scenario(L, seed=17, horizon=horizon)
    tables = {}
    for p in sc.plants:
        cid = plant_class_id(p, design_lqg(p))
        tables[cid] = ThresholdTable(np.zeros(1), np.zeros(1), cid)
    force = np.full((horizon, L), always)
    return sc, run(sc, tables, force_delta=force, record_errors=True)


class TestDynamics:
    """The engine's per-period plant, control and stage-cost updates against a scalar replay."""

    def test_stage_cost(self):
        # never transmitting leaves the estimate at 0, so u = 0 and x+ = a x + w
        sc, m = forced_run(2, 400, always=False)
        warmup = int(400 * WARMUP_FRAC)
        for i, spec in enumerate(sc.plants):
            a, qx = spec.A[0, 0], spec.Qx[0, 0]
            x = cost = 0.0
            for k in range(399):
                if k >= warmup:
                    cost += qx * x * x
                x = a * x + m.noise[k, i]
            assert m.cost_sum[i] == cost

    def test_control_input(self):
        # at L=2 every sample arrives within its own period: u = -K x exactly
        sc, m = forced_run(2, 400, always=True)
        assert m.delay_sum.sum() == 0 and m.delivered.sum() > 0
        warmup = int(400 * WARMUP_FRAC)
        for i, spec in enumerate(sc.plants):
            a, b, qx, qu = (spec.A[0, 0], spec.B[0, 0], spec.Qx[0, 0], spec.Qu[0, 0])
            k_gain = design_lqg(spec).K[0, 0]
            x = cost = 0.0
            for k in range(399):
                u = -k_gain * x
                if k >= warmup:
                    cost += qx * x * x + qu * u * u
                x = a * x + b * u + m.noise[k, i]
            assert m.cost_sum[i] == cost


def powers(a, horizon=64):
    """a^j for j = horizon-1 .. 0, the row the engine slices for estimator_deliver."""
    return a ** np.arange(horizon - 1, -1, -1, dtype=float)


class TestEstimatorDeliver:
    def test_zero_delay_is_assignment(self):
        assert estimator_deliver(1.25, 1.0, powers(1.25), 3.2, np.zeros(0)) == 3.2

    def test_one_step_replay(self):
        out = estimator_deliver(1.25, 1.0, powers(1.25), 1.0, np.array([-0.5]))
        assert out == pytest.approx(0.75)

    def test_zero_state_zero_inputs(self):
        assert estimator_deliver(1.25, 1.0, powers(1.25), 0.0, np.zeros(6)) == 0.0

    def test_delay_d_with_zero_inputs_is_power(self):
        for d in (1, 2, 5):
            out = estimator_deliver(1.25, 1.0, powers(1.25), 2.0, np.zeros(d))
            assert out == pytest.approx(2.0 * 1.25 ** d)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([0.75, 1.25]), st.floats(-2.0, 2.0), st.floats(-100.0, 100.0),
       st.lists(st.floats(-100.0, 100.0), max_size=60))
def test_estimator_deliver_matches_step_by_step_replay(a, b, x, inputs):
    """The closed form equals rolling the sample forward z = a*z + b*u, input by input."""
    z = x
    scale = abs(x)  # the largest magnitude the sum passes through bounds its rounding
    for u in inputs:
        z = a * z + b * u
        scale = a * scale + abs(b * u)
    got = estimator_deliver(a, b, powers(a), x, np.array(inputs))
    assert abs(got - z) <= 1e-9 * scale


class TestInputLog:
    def test_window_and_prune(self):
        log = InputLog(1, 6)
        for step in range(6):
            log.record(step, float(step))
        assert list(log.window(0, 2, 5)) == [2.0, 3.0, 4.0]
        log.prune(0, 3)
        assert list(log.window(0, 3, 6)) == [3.0, 4.0, 5.0]
        with pytest.raises(ReplayError):
            log.window(0, 2, 5)

    def test_prune_is_per_loop_and_unrecorded_steps_are_gaps(self):
        log = InputLog(2, 6)
        for step in range(4):
            log.record(step, [float(step), -float(step)])
        log.prune(0, 3)
        assert list(log.window(1, 1, 4)) == [-1.0, -2.0, -3.0]
        with pytest.raises(ReplayError):
            log.window(1, 2, 5)

    def test_out_of_order_record_rejected(self):
        log = InputLog(1, 3)
        log.record(0, 1.0)
        with pytest.raises(ValueError):
            log.record(2, 1.0)


def test_always_transmit_cost_converges_to_floor():
    """Closed loop with perfect state knowledge: J -> Tr(P Z) within 2%."""
    for a, qu in ((0.75, 0.0), (1.0, 1.0)):
        spec = scalar_spec(a, qu=qu)
        sol = design_lqg(spec)
        k = sol.K[0, 0]
        rng = np.random.default_rng(99)
        w = rng.normal(size=200_000)
        x = 0.0
        total = 0.0
        for wk in w:
            u = -k * x
            total += x * x * spec.Qx[0, 0] + u * u * spec.Qu[0, 0]
            x = a * x + u + wk
        avg = total / w.size
        assert avg == pytest.approx(sol.floor_cost, rel=0.02)


class TestPlantSpecValidation:
    def test_asymmetric_noise_rejected(self):
        with pytest.raises(ValueError, match="Z"):
            PlantSpec(A=np.eye(2), B=np.eye(2), Z=np.array([[1.0, 0.5], [0.0, 1.0]]),
                      Qx=np.eye(2), Qu=np.eye(2))

    def test_negative_definite_cost_rejected(self):
        with pytest.raises(ValueError, match="Qx"):
            PlantSpec(A=1.0, B=1.0, Z=1.0, Qx=-1.0, Qu=0.0)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            PlantSpec(A=np.eye(2), B=np.ones((3, 1)), Z=np.eye(2),
                      Qx=np.eye(2), Qu=np.eye(1))
