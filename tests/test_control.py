"""LQG design, plant/estimator/error dynamics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncsim.control import (InputLog, PlantSpec, ReplayError,
                           RiccatiDivergenceError, compute_gain, control_input,
                           design_lqg, error_step, estimator_deliver,
                           estimator_predict, plant_step, solve_riccati,
                           stage_cost)

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


class TestDynamics:
    def test_plant_step_direct(self):
        spec = scalar_spec(0.75)
        out = plant_step(np.array([2.0]), np.array([-1.5]), np.array([0.3]), spec)
        assert out[0] == pytest.approx(0.3)

    def test_plant_step_identity(self):
        spec = scalar_spec(1.0)
        x = np.array([4.2])
        assert plant_step(x, np.array([0.0]), np.array([0.0]), spec)[0] == x[0]

    def test_plant_step_noise_passthrough(self):
        spec = scalar_spec(0.75)
        assert plant_step(np.zeros(1), np.zeros(1), np.array([0.7]), spec)[0] == 0.7

    def test_control_input(self):
        sol = design_lqg(scalar_spec(0.75))
        assert control_input(np.array([2.0]), sol)[0] == pytest.approx(-1.5)
        assert control_input(np.zeros(1), sol)[0] == 0.0
        sol_u = design_lqg(scalar_spec(1.25))
        assert control_input(np.array([-1.0]), sol_u)[0] == pytest.approx(1.25)

    def test_estimator_predict_deadbeat_collapses(self):
        spec = scalar_spec(0.75)
        sol = design_lqg(spec)
        assert estimator_predict(np.array([3.3]), sol, spec)[0] == pytest.approx(0.0)

    def test_estimator_predict_golden(self):
        spec = scalar_spec(1.0, qx=1.0, qu=1.0)
        sol = design_lqg(spec)
        out = estimator_predict(np.array([1.0]), sol, spec)
        assert out[0] == pytest.approx(1 - GOLDEN / (1 + GOLDEN), abs=1e-9)

    def test_estimator_predict_zero(self):
        spec = scalar_spec(1.25)
        sol = design_lqg(spec)
        assert estimator_predict(np.zeros(1), sol, spec)[0] == 0.0

    def test_error_step(self):
        spec = scalar_spec(1.25)
        assert error_step(np.array([7.0]), 1, np.array([-0.2]), spec)[0] == -0.2
        assert error_step(np.array([2.0]), 0, np.array([-0.5]), spec)[0] == pytest.approx(2.0)
        assert error_step(np.zeros(1), 0, np.zeros(1), spec)[0] == 0.0

    def test_stage_cost(self):
        spec = scalar_spec(0.75)
        assert stage_cost(np.array([2.0]), np.array([9.9]), spec) == pytest.approx(4.0)
        assert stage_cost(np.zeros(1), np.zeros(1), spec) == 0.0
        spec2 = scalar_spec(1.0, qx=1.0, qu=1.0)
        assert stage_cost(np.ones(1), np.ones(1), spec2) == pytest.approx(2.0)


class TestEstimatorDeliver:
    def test_zero_delay_is_assignment(self):
        spec = scalar_spec(1.25)
        out = estimator_deliver(np.array([3.2]), 5, 5, [], spec)
        assert out[0] == 3.2

    def test_one_step_replay(self):
        spec = scalar_spec(1.25)
        out = estimator_deliver(np.array([1.0]), 3, 4, [np.array([-0.5])], spec)
        assert out[0] == pytest.approx(0.75)

    def test_zero_state_zero_inputs(self):
        spec = scalar_spec(1.25)
        out = estimator_deliver(np.zeros(1), 0, 6, [np.zeros(1)] * 6, spec)
        assert out[0] == 0.0

    def test_delay_d_with_zero_inputs_is_power(self):
        spec = scalar_spec(1.25)
        for d in (1, 2, 5):
            out = estimator_deliver(np.array([2.0]), 0, d, [np.zeros(1)] * d, spec)
            assert out[0] == pytest.approx(2.0 * 1.25 ** d)

    def test_short_history_raises(self):
        spec = scalar_spec(1.25)
        with pytest.raises(ReplayError):
            estimator_deliver(np.array([1.0]), 0, 4, [np.zeros(1)] * 2, spec)


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


@settings(max_examples=50, deadline=None)
@given(st.lists(st.booleans(), min_size=1, max_size=60), st.integers(0, 2**32 - 1))
def test_error_recursion_matches_independent_replay(deltas, seed):
    """Forced decision sequence: simulated errors equal the bare recursion."""
    spec = scalar_spec(1.25)
    rng = np.random.default_rng(seed)
    noise = rng.normal(size=len(deltas))
    e = np.zeros(1)
    trace = []
    for delta, w in zip(deltas, noise):
        e = error_step(e, int(delta), np.array([w]), spec)
        trace.append(e[0])
    # independent replay, same arithmetic order
    ref = 0.0
    for (delta, w, got) in zip(deltas, noise, trace):
        ref = (1 - int(delta)) * 1.25 * ref + w
        assert got == ref


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
