"""LQG design, per-period dynamics as the engine runs them, delayed-delivery replay."""

import dataclasses
import math
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncsim.control import (InputLog, PlantSpec, ReplayError,
                           RiccatiDivergenceError, design_lqg,
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
        for a, b, qx, qu in ((0.75, 1.0, 1.0, 0.0), (1.25, 1.0, 1.0, 0.0),
                             (1.0, 1.0, 1.0, 1.0), (-1.7, 0.4, 2.5, 0.3)):
            p = solve_riccati(PlantSpec(A=a, B=b, Z=1.0, Qx=qx, Qu=qu))[0, 0]
            rhs = qx + a * a * p - (a * b * p) ** 2 / (qu + b * b * p)
            assert abs(p - rhs) <= 1e-9

    def test_divergence_error_names_spec(self):
        # no input channel and a costed mode that does not decay: no finite p
        for a in (2.0, 1.0, -1.0):
            spec = PlantSpec(A=a, B=0.0, Z=1.0, Qx=1.0, Qu=1.0)
            start = time.perf_counter()
            with pytest.raises(RiccatiDivergenceError,
                               match=re.escape(f"no finite solution for A={a!r}, B=0.0: |A| >= 1")):
                solve_riccati(spec)
            assert time.perf_counter() - start < 0.05

    def test_overflowing_solution_raises_at_once(self):
        # p ~ qu a^2 / b^2 = 1e400 is past the float range
        spec = PlantSpec(A=1e200, B=1.0, Z=1.0, Qx=1.0, Qu=1.0)
        with pytest.raises(RiccatiDivergenceError, match=re.escape(
                "Riccati solution overflows for A=1e+200, B=1.0, Qx=1.0, Qu=1.0")):
            solve_riccati(spec)

    def test_tiny_state_weight(self):
        # the root is sqrt(qx qu) / |b| + qx / 2 + ...; an absolute tolerance of 1e-9 misses it
        p = solve_riccati(scalar_spec(1.0, qx=1e-12, qu=1.0))[0, 0]
        assert p == pytest.approx(1.0000005000001248e-6, rel=1e-12, abs=0)

    @pytest.mark.parametrize("a, p, k", [(1.25, 0.5625, 0.45), (0.75, 0.0, 0.0)])
    def test_zero_state_weight_takes_the_stabilising_root(self, a, p, k):
        # the roots are 0 and qu (a^2 - 1) / b^2; the larger moves an unstable pole to 1 / a
        sol = design_lqg(scalar_spec(a, qx=0.0, qu=1.0))
        assert sol.p == pytest.approx(p, rel=1e-15, abs=0)
        assert sol.k == pytest.approx(k, rel=1e-15, abs=0)
        assert abs(a - sol.k) == pytest.approx(min(abs(a), 1 / abs(a)), rel=1e-15)

    def test_plant_below_the_float_spacing_of_p_returns_at_once(self):
        # p ~ 2.5e7, whose float spacing is ~4e-9, so no iterate came within 1e-9
        a, b, qx, qu = 1.7633340824605739, 0.00864024281804987, 12.831935787995521, 881.5401626545174
        start = time.perf_counter()
        sol = design_lqg(PlantSpec(A=a, B=b, Z=1.0, Qx=qx, Qu=qu))
        assert time.perf_counter() - start < 0.05
        assert sol.p == pytest.approx(qx + a * a * sol.p * qu / (qu + b * b * sol.p), rel=1e-14)
        assert abs(a - b * sol.k) < 1

    @pytest.mark.parametrize("a", [0.5, -0.9])
    def test_no_input_channel_with_a_decaying_mode(self, a):
        sol = design_lqg(PlantSpec(A=a, B=0.0, Z=1.0, Qx=2.0, Qu=1.0))
        assert sol.p == pytest.approx(2.0 / (1 - a * a), rel=1e-15) and sol.k == 0.0

    @pytest.mark.parametrize("a", [1.0, 3.0])
    def test_no_input_channel_and_no_state_cost(self, a):
        sol = design_lqg(PlantSpec(A=a, B=0.0, Z=1.0, Qx=0.0, Qu=1.0))
        assert sol.p == 0.0 and sol.k == 0.0


@settings(max_examples=300, deadline=None)
@given(a=st.floats(-4.0, 4.0), b=st.floats(1e-3, 10.0), sign=st.sampled_from([-1.0, 1.0]),
       qx=st.floats(1e-6, 1e3), qu=st.floats(0.0, 1e3))
def test_riccati_residual_and_closed_loop(a, b, sign, qx, qu):
    """Over a in [-4, 4], |b| in [1e-3, 10], qx in [1e-6, 1e3], qu in [0, 1e3]:
    p solves p = qx + a^2 p qu / (qu + b^2 p), the Riccati equation in a form
    with no cancellation, to 1e-12 relative, and the closed loop is stable."""
    b *= sign
    sol = design_lqg(PlantSpec(A=a, B=b, Z=1.0, Qx=qx, Qu=qu))
    rhs = qx + a * a * sol.p * qu / (qu + b * b * sol.p)
    assert abs(sol.p - rhs) <= 1e-12 * sol.p
    assert abs(a - b * sol.k) < 1


class TestGain:
    def test_deadbeat_gain_equals_a(self):
        sol = design_lqg(scalar_spec(0.75))
        assert sol.K[0, 0] == pytest.approx(0.75, abs=1e-12)

    def test_golden_gain(self):
        sol = design_lqg(scalar_spec(1.0, qx=1.0, qu=1.0))
        assert sol.K[0, 0] == pytest.approx(GOLDEN / (1 + GOLDEN), abs=1e-9)

    def test_zero_system_matrix_zero_gain(self):
        sol = design_lqg(scalar_spec(0.0, qu=1.0))
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
        # the trace of P Z for a scalar plant is p z
        spec = PlantSpec(A=0.5, B=1.0, Z=2.0, Qx=1.0, Qu=1.0)
        sol = design_lqg(spec)
        assert sol.floor_cost == sol.p * 2.0 == sol.P[0, 0] * spec.Z[0, 0]
        assert sol.p > 1.0

    @pytest.mark.parametrize("b, qx", [(1.0, 0.0), (0.0, 1.0)])
    def test_undefined_gain_names_the_plant(self, b, qx):
        # qu + b p b = 0: at p = qx = 0, or with no input channel at all
        spec = PlantSpec(A=1.0, B=b, Z=1.0, Qx=qx, Qu=0.0)
        named = re.escape(f"gain is undefined for A=1.0, B={b}, Qx={qx}, Qu=0.0: qu + b p b = 0")
        with pytest.raises(ValueError, match=named):
            design_lqg(spec)

    @pytest.mark.parametrize("a, b, z, qx, overflowing", [
        (1e200, 1.0, 1.0, 1.0, "qe=inf"),            # k = 1e200, k s k overflows
        (1e200, 1e-150, 1.0, 1.0, "k=inf"),          # k = a / b overflows
        (0.5, 1.0, 1e10, 1e300, "p z=inf"),           # p = qx finite, p z overflows
    ])
    def test_overflowing_design_names_the_plant(self, a, b, z, qx, overflowing):
        spec = PlantSpec(A=a, B=b, Z=z, Qx=qx, Qu=0.0)
        named = re.escape(f"LQG design overflows for A={a!r}, B={b!r}, Z={z!r}, Qx={qx!r}, "
                          "Qu=0.0: ")
        with pytest.raises(ValueError, match=f"^{named}.*{re.escape(overflowing)}"):
            design_lqg(spec)


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


class TestEstimatorDeliver:
    def test_zero_delay_is_assignment(self):
        assert estimator_deliver(1.25, 1.0, 3.2, np.zeros(0)) == 3.2

    def test_one_step_replay(self):
        out = estimator_deliver(1.25, 1.0, 1.0, np.array([-0.5]))
        assert out == pytest.approx(0.75)

    def test_zero_state_zero_inputs(self):
        assert estimator_deliver(1.25, 1.0, 0.0, np.zeros(6)) == 0.0

    def test_delay_d_with_zero_inputs_is_power(self):
        for d in (1, 2, 5):
            out = estimator_deliver(1.25, 1.0, 2.0, np.zeros(d))
            assert out == pytest.approx(2.0 * 1.25 ** d)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([0.75, 1.25]), st.floats(-2.0, 2.0), st.floats(-100.0, 100.0),
       st.lists(st.floats(-100.0, 100.0), max_size=60))
def test_estimator_deliver_matches_step_by_step_replay(a, b, x, inputs):
    """The delivery rolls the sample forward z = a*z + b*u, input by input, exactly."""
    z = x
    for u in inputs:
        z = a * z + b * u
    got = estimator_deliver(a, b, x, np.array(inputs))
    assert got == z


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
    def test_negative_definite_cost_rejected(self):
        with pytest.raises(ValueError, match="Qx"):
            PlantSpec(A=1.0, B=1.0, Z=1.0, Qx=-1.0, Qu=0.0)

    def test_dimension_mismatch_rejected(self):
        # one number per field: a 2 x 2 A is rejected, naming A
        with pytest.raises(ValueError, match="^A must be one number"):
            PlantSpec(A=np.eye(2), B=1.0, Z=1.0, Qx=1.0, Qu=1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["A", "B", "Z", "Qx", "Qu", "weight"])
    def test_non_finite_field_rejected_at_once(self, name, value):
        fields = dict(A=0.75, B=1.0, Z=1.0, Qx=1.0, Qu=0.0, weight=1.0)
        fields[name] = value
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"^{name} must be .*finite"):
            PlantSpec(**fields)
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize("value", ["0.75", b"1", True, np.True_, None, ["0.75"]])
    @pytest.mark.parametrize("name", ["A", "Qu", "weight"])
    def test_non_numbers_rejected_as_given(self, name, value):
        # NumPy would turn a string, bytes or a bool into a float, and None into nan
        fields = dict(A=0.75, B=1.0, Z=1.0, Qx=1.0, Qu=0.0, weight=1.0)
        fields[name] = value
        with pytest.raises(ValueError, match=f"^{name} must be one number, got {re.escape(repr(value))}$"):
            PlantSpec(**fields)

    def test_one_element_arrays_are_numbers(self):
        spec = PlantSpec(A=np.array([[0.75]]), B=np.array([1.0]), Z=1, Qx=1.0, Qu=0.0)
        assert (spec.a, spec.b, spec.z, spec.weight) == (0.75, 1.0, 1.0, 1.0)
        assert spec == scalar_spec(0.75) and hash(spec) == hash(scalar_spec(0.75))
        assert dataclasses.replace(spec, Z=2.0).Z[0, 0] == 2.0
        with pytest.raises(ValueError, match="read-only"):
            spec.A[0, 0] = 1.25
