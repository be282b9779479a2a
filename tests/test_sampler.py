"""Threshold design: value iteration, tables, the online decision as the engine makes it."""

import dataclasses
import hashlib
import math
import re

import numpy as np
import pytest
import vi_oracle

from ncsim import sampler
from ncsim.control import PlantSpec, design_lqg
from ncsim.engine import TWO_HOP_PLANTS, make_two_hop_scenario, run
from ncsim.sampler import (ThresholdStructureError, ThresholdTable, ValueIterationError,
                           ViConfig, _class_params, _ErrorGridMdp, _solve_threshold,
                           build_table, default_lambda_grid, design_threshold, plant_class_id)


@pytest.fixture(scope="module")
def stable():
    spec = PlantSpec(A=0.75, B=1.0, Z=1.0, Qx=1.0, Qu=0.0)
    return spec, design_lqg(spec)


@pytest.fixture(scope="module")
def unstable():
    spec = PlantSpec(A=1.25, B=1.0, Z=1.0, Qx=1.0, Qu=0.0)
    return spec, design_lqg(spec)


class TenIterations(ViConfig):
    max_iter = 10


def no_solve(*args):
    raise AssertionError("a price was solved")


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

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_price_up_front(self, stable, lam):
        # ten iterations would end a solve of a nan price in a ValueIterationError
        with pytest.raises(ValueError, match=re.escape(repr(lam))):
            design_threshold(lam, *stable, cfg=TenIterations())

    def test_overflowing_class_raises_at_the_first_iteration(self):
        # design_lqg's k and qe are finite; weight * qe overflows to inf
        spec = PlantSpec(A=1e150, B=1.0, Z=1.0, Qx=1.0, Qu=0.0, weight=1e10)
        with pytest.raises(ValueIterationError,
                           match=r"^non-finite values at lambda=1: span nan after 1 iterations$"):
            design_threshold(1.0, spec, design_lqg(spec))

    def test_iteration_cap_raises(self, stable, monkeypatch):
        monkeypatch.setattr(ViConfig, "max_iter", 2)
        with pytest.raises(ValueIterationError, match="after 2 iterations"):
            design_threshold(50.0, *stable)

    @pytest.mark.parametrize("lam", [500.0, 1000.0])
    def test_threshold_at_the_grid_edge_raises(self, lam):
        # Z = 100 spreads the errors past e_max = 25; the grid's clamp would return 25.0
        spec = PlantSpec(A=0.75, B=1.0, Z=100.0, Qx=1.0, Qu=0.0)
        with pytest.raises(ThresholdStructureError,
                           match=rf"^threshold at lambda={lam:g} reaches the grid's edge e_max=25 "
                                 r"for the class a=0.75, weight\*qe=0.5625, z=100$"):
            design_threshold(lam, spec, design_lqg(spec))

    @pytest.mark.parametrize("lam, expected", [(100.0, 15.55), (300.0, 23.95)])
    def test_threshold_inside_the_grid_is_returned(self, lam, expected):
        spec = PlantSpec(A=0.75, B=1.0, Z=100.0, Qx=1.0, Qu=0.0)
        assert design_threshold(lam, spec, design_lqg(spec)) == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("spec", [PlantSpec(A=0.0, B=1.0, Z=1.0, Qx=1.0, Qu=0.0),
                                      PlantSpec(A=0.75, B=1.0, Z=1.0, Qx=1.0, Qu=0.0, weight=0.0)])
    def test_class_whose_errors_cost_nothing_never_samples_at_a_price(self, spec):
        sol = design_lqg(spec)
        assert design_threshold(1.0, spec, sol) == ViConfig.e_max
        assert design_threshold(0.0, spec, sol) == 0.0


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

    @pytest.mark.parametrize("grid", [[0.0, 2.0, 1.0], [0.0, 1.0, 1.0]])
    def test_grid_must_be_strictly_ascending(self, stable, grid, monkeypatch):
        monkeypatch.setattr(sampler, "_solve_threshold", no_solve)
        with pytest.raises(ValueError, match="^lambda grid must be strictly ascending$"):
            build_table(grid, *stable)

    @pytest.mark.parametrize("grid", [[0.0, math.nan], [0.0, 1.0, math.inf],
                                      [0.0, math.inf, math.inf], [-math.inf, 0.0]])
    def test_non_finite_price_rejected_before_any_solve(self, stable, grid, monkeypatch):
        monkeypatch.setattr(sampler, "_solve_threshold", no_solve)
        with pytest.raises(ValueError, match=r"prices must be finite, got \[-?(nan|inf)"):
            build_table(grid, *stable, cfg=TenIterations())

    def test_class_ordering_on_default_grid(self, stable, unstable):
        grid = default_lambda_grid()
        t_s = build_table(grid, *stable)
        t_u = build_table(grid, *unstable)
        assert np.all(t_s.thresholds[1:] >= t_u.thresholds[1:])
        assert np.all(np.diff(t_s.thresholds) >= 0)
        assert np.all(np.diff(t_u.thresholds) >= 0)


def grid_mdp(spec):
    return _ErrorGridMdp(*_class_params(spec, design_lqg(spec)), ViConfig())


class TestExpectedValue:
    """The value iteration's step against its formula, on the standard classes and one more."""

    @staticmethod
    def formula(h, mdp, coeffs):
        lo, hi, fr = coeffs[0], coeffs[1], coeffs[3]
        return (h[lo] * (1.0 - fr) + h[hi] * fr) @ mdp.w_wts

    @pytest.mark.parametrize(
        "spec", [*TWO_HOP_PLANTS, PlantSpec(A=0.9, B=1.0, Z=2.0, Qx=1.0, Qu=0.0)],
        ids=["stable", "unstable", "a0.9_z2"])
    def test_same_doubles_as_the_formula(self, spec):
        mdp = grid_mdp(spec)
        rng = np.random.default_rng(17)
        for scale in (1.0, 1e-3, 1e4):
            h = scale * rng.standard_normal(mdp.grid.size)  # the half e >= 0 of an even h
            eh_stay = self.formula(h, mdp, mdp.stay)
            assert np.array_equal(mdp.expected_value(h, mdp.stay), eh_stay)
            assert mdp.expected_value(h, mdp.send) == self.formula(h, mdp, mdp.send)
            for rows in (4, 120, 500):  # the leading rows a cut leaves, in blocks of four
                leading = mdp.expected_value(h, [c[:rows] for c in mdp.stay])
                assert np.array_equal(leading, eh_stay[:rows])

    def test_values_handed_to_the_next_price_are_a_fresh_computation(self, unstable):
        """The next price starts from h alone, as the full-row iteration started from h and
        its expected values computed afresh; the h handed to it is never written."""
        spec, sol = unstable
        mdp = grid_mdp(spec)
        full = vi_oracle._ErrorGridMdp(*_class_params(spec, sol), ViConfig())
        _, h = _solve_threshold(1.0, mdp)
        kept = h.copy()
        threshold, h2 = _solve_threshold(2.0, mdp, h)
        mirrored = np.concatenate((h[:0:-1], h))  # the full grid the oracle iterates on
        want, (want_h2, _) = vi_oracle._solve_threshold(
            2.0, full, (mirrored, full.expected_values(mirrored)))
        assert threshold == want and np.array_equal(h2, want_h2[mdp.mid:])
        assert np.array_equal(h, kept)


OFF_STANDARD = {"a0.9_z2": PlantSpec(A=0.9, B=1.0, Z=2.0, Qx=1.0, Qu=0.0),
                "a-0.8": PlantSpec(A=-0.8, B=1.0, Z=1.0, Qx=1.0, Qu=0.0)}


class TestPinnedThresholds:
    """Two classes off the standard pair, pinned from the iteration over the full
    error grid that averaged each iterate with its mirror image."""

    TABLE_SHA256 = {  # of the default-grid table's thresholds.tobytes()
        "a0.9_z2": "4da16e9aad5697e0b2128e0f31fb9faa2d3f15ee98339128f2103e0224a8e1da",
        "a-0.8": "584e488fbd74ed28abec3b9d6bce816b13f832934bec45ac7715360a2f257e40",
    }
    SPOT = {"a0.9_z2": {0.3: 0.7000000000000001, 7.0: 2.6, 40.0: 4.7},
            "a-0.8": {0.3: 0.8500000000000001, 7.0: 2.95, 40.0: 6.050000000000001}}

    @pytest.mark.parametrize("name", OFF_STANDARD)
    def test_default_grid_table(self, name):
        spec = OFF_STANDARD[name]
        table = build_table(default_lambda_grid(), spec, design_lqg(spec))
        assert hashlib.sha256(table.thresholds.tobytes()).hexdigest() == self.TABLE_SHA256[name]

    @pytest.mark.parametrize("name", OFF_STANDARD)
    def test_spot_thresholds(self, name):
        spec = OFF_STANDARD[name]
        sol = design_lqg(spec)
        assert {lam: design_threshold(lam, spec, sol) for lam in self.SPOT[name]} == self.SPOT[name]

    @pytest.mark.parametrize("spec", [*TWO_HOP_PLANTS, *OFF_STANDARD.values()],
                             ids=["stable", "unstable", *OFF_STANDARD])
    def test_end_value_function_is_even_and_stay_values_cover_the_half(self, spec):
        """The stay values on the rows before the cut and the send value past it give
        the full-row iterate: past the cut, staying costs at least as much as sending."""
        mdp = grid_mdp(spec)
        _, h = _solve_threshold(7.0, mdp)
        assert h.size == mdp.grid.size  # the half e >= 0 of the even value function
        send, stay = mdp.backup(h, 7.0)
        rows = stay.size
        assert rows == mdp.grid.size or (rows % 4 == 0 and rows < mdp.grid.size)
        full = mdp.stay_cost + mdp.expected_value(h, mdp.stay)
        assert np.array_equal(stay, full[:rows])
        assert np.all(full[rows:] >= send)


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

    def test_rejects_truncated_file(self, tmp_path, stable):
        # cut inside the last threshold: the lambda knots still match the grid
        path = tmp_path / "t.txt"
        build_table([0.0, 1.0, 10.0], *stable).save(path)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(ValueError, match="truncated"):
            ThresholdTable.load(path)

    @pytest.mark.parametrize("line", ["\n", "# a comment\n"])
    def test_rejects_a_line_that_is_not_two_numbers(self, tmp_path, stable, line):
        path = tmp_path / "t.txt"
        build_table([0.0, 1.0, 10.0], *stable).save(path)
        header, rest = path.read_text().split("\n", 1)
        path.write_text(f"{header}\n{line}{rest}")
        with pytest.raises(ValueError):
            ThresholdTable.load(path)


class TestPlantClassId:
    def test_standard_ids(self, stable, unstable):
        assert plant_class_id(*stable) == "a0.75_qe0.5625_z1"
        assert plant_class_id(*unstable) == "a1.25_qe1.5625_z1"

    def test_plants_six_digits_alike_get_distinct_ids(self, stable):
        spec = PlantSpec(A=0.7500001, B=1.0, Z=1.0, Qx=1.0, Qu=0.0)
        assert plant_class_id(spec, design_lqg(spec)) != plant_class_id(*stable)


class TestThresholdTableInvariants:
    def test_decreasing_thresholds_rejected(self):
        with pytest.raises(ValueError):
            ThresholdTable(lambdas=np.array([0.0, 1.0]),
                           thresholds=np.array([1.0, 0.5]), class_id="x")

    def test_unsorted_grid_rejected(self):
        with pytest.raises(ValueError):
            ThresholdTable(lambdas=np.array([1.0, 0.0]),
                           thresholds=np.array([0.0, 1.0]), class_id="x")

    @pytest.mark.parametrize("lambdas, thresholds, message", [
        ([0.0, 1.0], [0.0], "matching 1-D arrays"), ([], [], "matching 1-D arrays"),
        ([[0.0, 1.0]], [[0.0, 1.0]], "matching 1-D arrays"),
        ([-1.0, 1.0], [0.0, 1.0], "prices must be non-negative")])
    def test_malformed_knots_rejected(self, lambdas, thresholds, message):
        with pytest.raises(ValueError, match=message):
            ThresholdTable(lambdas=np.array(lambdas), thresholds=np.array(thresholds),
                           class_id="x")

    @pytest.mark.parametrize("lambdas, thresholds", [
        ([0.0, 1.0, 2.0], [0.0, math.nan, 2.0]), ([0.0, 1.0, 2.0], [0.0, 1.0, math.inf]),
        ([0.0, math.nan, 2.0], [0.0, 1.0, 2.0]), ([0.0, 1.0, math.inf], [0.0, 1.0, 2.0])])
    def test_non_finite_knots_rejected(self, lambdas, thresholds):
        with pytest.raises(ValueError, match="finite"):
            ThresholdTable(lambdas=np.array(lambdas), thresholds=np.array(thresholds),
                           class_id="x")
