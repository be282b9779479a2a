"""Threshold design: value iteration, tables, the online decision as the engine makes it."""

import dataclasses

import numpy as np
import pytest

from ncsim.control import PlantSpec, design_lqg
from ncsim.engine import make_two_hop_scenario, run
from ncsim.sampler import (ThresholdTable, ValueIterationError, ViConfig,
                           build_table, default_lambda_grid, design_threshold,
                           plant_class_id)


@pytest.fixture(scope="module")
def stable():
    spec = PlantSpec(A=0.75, B=1.0, Z=1.0, Qx=1.0, Qu=0.0)
    return spec, design_lqg(spec)


@pytest.fixture(scope="module")
def unstable():
    spec = PlantSpec(A=1.25, B=1.0, Z=1.0, Qx=1.0, Qu=0.0)
    return spec, design_lqg(spec)


class TestDesignThreshold:
    def test_free_transmission_means_zero_threshold(self, stable, unstable):
        for spec, sol in (stable, unstable):
            assert design_threshold(0.0, spec, sol) == 0.0

    def test_stable_class_spot_value(self, stable):
        m = design_threshold(10.0, *stable)
        assert m == pytest.approx(3.95, rel=0.15)

    def test_unstable_class_spot_value(self, unstable):
        m = design_threshold(10.0, *unstable)
        assert m == pytest.approx(1.55, rel=0.15)

    def test_rejects_negative_price(self, stable):
        with pytest.raises(ValueError):
            design_threshold(-1.0, *stable)

    def test_rejects_vector_plant(self):
        spec = PlantSpec(A=np.eye(2), B=np.eye(2), Z=np.eye(2),
                         Qx=np.eye(2), Qu=np.eye(2))
        with pytest.raises(ValueError, match="scalar"):
            design_threshold(1.0, spec, design_lqg(spec))

    def test_iteration_cap_raises(self, stable):
        cfg = ViConfig(max_iter=2)
        with pytest.raises(ValueIterationError):
            design_threshold(50.0, stable[0], stable[1], cfg)


class TestBuildTable:
    def test_singleton_grid(self, stable):
        table = build_table([0.0], *stable)
        assert table.lambdas.tolist() == [0.0]
        assert table.thresholds.tolist() == [0.0]

    def test_three_knot_grid_matches_published_curve(self, stable):
        table = build_table([0.0, 10.0, 100.0], *stable)
        assert table.thresholds[0] == 0.0
        assert table.thresholds[1] == pytest.approx(3.95, rel=0.15)
        assert table.thresholds[2] == pytest.approx(11.75, rel=0.15)

    def test_monotone_output(self, unstable):
        table = build_table([0.0, 0.5, 1.0, 2.0, 5.0, 20.0, 50.0], *unstable)
        assert np.all(np.diff(table.thresholds) >= 0)

    def test_grid_must_start_at_zero(self, stable):
        with pytest.raises(ValueError):
            build_table([1.0, 2.0], *stable)

    def test_class_ordering_on_default_grid(self, stable, unstable):
        grid = default_lambda_grid()
        t_s = build_table(grid, *stable)
        t_u = build_table(grid, *unstable)
        assert np.all(t_s.thresholds[1:] >= t_u.thresholds[1:])
        assert np.all(np.diff(t_s.thresholds) >= 0)
        assert np.all(np.diff(t_u.thresholds) >= 0)


class TestLookup:
    def make_table(self):
        return ThresholdTable(lambdas=np.array([0.0, 10.0]),
                              thresholds=np.array([0.0, 4.0]),
                              class_id="toy")

    def test_linear_interpolation(self):
        assert self.make_table().lookup_many(np.array([5.0]))[0] == pytest.approx(2.0)

    def test_knot_exact(self):
        assert self.make_table().lookup_many(np.array([10.0]))[0] == 4.0

    def test_clamp_beyond_grid(self):
        assert self.make_table().lookup_many(np.array([1e6]))[0] == 4.0


def run_with_table(thresholds, L=2, z=1.0, theta=1.0, horizon=300):
    """engine.run on the two-hop scenario, every class priced by one table over lambda 0, 1, 2."""
    sc = make_two_hop_scenario(L, seed=3, horizon=horizon)
    sc = dataclasses.replace(sc, plants=[dataclasses.replace(p, Z=z) for p in sc.plants])
    tables = {}
    for p in sc.plants:
        cid = plant_class_id(p, design_lqg(p))
        tables[cid] = ThresholdTable(lambdas=np.array([0.0, 1.0, 2.0]),
                                     thresholds=np.asarray(thresholds, dtype=float),
                                     class_id=cid)
    return run(sc, tables, theta=theta, record_errors=True)


class TestSamplingDecision:
    """engine.run transmits at step k iff |e| > M(theta * source backlog).

    e is the error closed at step k-1, recorded in error_trace[k-1].
    """

    def test_error_above_threshold_transmits(self):
        m = run_with_table([1.0, 1.0, 1.0])
        above = np.abs(m.error_trace[:-1]) > 1.0
        assert above.any() and not above.all()
        assert np.array_equal(m.delta_trace[1:], above)

    def test_zero_error_never_transmits(self):
        # every loop starts with zero error; against a zero threshold the comparison is strict
        m = run_with_table([0.0, 0.0, 0.0])
        assert not m.delta_trace[0].any()
        assert m.delta_trace[1:].all()

    def test_empty_network_transmits_any_nonzero_error(self):
        # two loops leave the network empty at every boundary: price 0, threshold 0,
        # even though any backlog would raise the threshold to 3
        m = run_with_table([0.0, 3.0, 3.0])
        assert m.delta_trace[1:].all()

    def test_scaling_invariance(self):
        # scaling the noise, hence e, and M by the same power of two is exact,
        # so congested runs make the same decisions
        base = run_with_table([0.0, 1.0, 2.5], L=24)
        assert not base.delta_trace[1:].all()  # the backlog price holds samples back
        for c in (0.5, 4.0):
            scaled = run_with_table([0.0, c, 2.5 * c], L=24, z=c * c)
            assert np.array_equal(scaled.error_trace, c * base.error_trace)
            assert np.array_equal(scaled.delta_trace, base.delta_trace)

    def test_nonpositive_theta_rejected(self):
        for theta in (0.0, -1.0):
            with pytest.raises(ValueError, match="theta"):
                run_with_table([0.0, 1.0, 2.0], theta=theta)


class TestSerialization:
    def test_round_trip_exact(self, tmp_path, unstable):
        table = build_table([0.0, 1.0, 10.0], *unstable)
        path = tmp_path / "table.txt"
        table.save(path)
        loaded = ThresholdTable.load(path)
        assert loaded.class_id == table.class_id
        assert np.array_equal(loaded.lambdas, table.lambdas)
        assert np.array_equal(loaded.thresholds, table.thresholds)

    def test_save_replaces_existing_table(self, tmp_path, stable, unstable):
        path = tmp_path / "table.txt"
        build_table([0.0, 1.0], *stable).save(path)
        table = build_table([0.0, 2.0, 5.0], *unstable)
        table.save(path)
        loaded = ThresholdTable.load(path)
        assert loaded.class_id == table.class_id
        assert np.array_equal(loaded.lambdas, table.lambdas)
        assert np.array_equal(loaded.thresholds, table.thresholds)
        assert list(tmp_path.glob("*.tmp")) == []

    def test_header_names_class(self, tmp_path, stable):
        table = build_table([0.0], *stable)
        path = tmp_path / "t.txt"
        table.save(path)
        first = path.read_text().splitlines()[0]
        assert first.startswith("# threshold-table class=")
        assert plant_class_id(*stable) in first

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("0 0\n")
        with pytest.raises(ValueError):
            ThresholdTable.load(path)


class TestViConfig:
    def test_coarse_grid_rejected(self):
        with pytest.raises(ValueError):
            ViConfig(e_max=1.0, e_step=0.5)

    def test_nonpositive_tolerance_rejected(self):
        with pytest.raises(ValueError):
            ViConfig(span_tol=0.0)


class TestThresholdTableInvariants:
    def test_decreasing_thresholds_rejected(self):
        with pytest.raises(ValueError):
            ThresholdTable(lambdas=np.array([0.0, 1.0]),
                           thresholds=np.array([1.0, 0.5]), class_id="x")

    def test_unsorted_grid_rejected(self):
        with pytest.raises(ValueError):
            ThresholdTable(lambdas=np.array([1.0, 0.0]),
                           thresholds=np.array([0.0, 1.0]), class_id="x")
