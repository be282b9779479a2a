"""Co-simulation engine: scenario generator, run loop, sweep aggregation."""

import dataclasses
import itertools
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncsim import engine
from ncsim.control import PlantSpec, design_lqg
from ncsim.engine import (TWO_HOP_PLANTS, NonFiniteError, Scenario,
                          make_two_hop_scenario, run, run_seed, sweep)
from ncsim.network import ActionSet, TieStream, pick_max_weight, wsr_schedule
from ncsim.sampler import ThresholdTable, plant_class_id
from test_network import tier_map


def two_hop_action_set(sc):
    """The WSR oracle's joint actions: per hop up to its capacity of unit-rate links,
    link (pos, i) moving loop i's packets on from path position pos."""
    links = [[(pos, i) for i in range(len(sc.plants))] for pos in range(len(sc.capacities))]
    choices = [[c for size in range(capacity + 1)
                for c in itertools.combinations(range(len(hop)), size)]
               for capacity, hop in zip(sc.capacities, links)]

    def rate_fn(link_state, action):
        return {links[h][i]: 1 for h, picked in enumerate(action) for i in picked}
    return ActionSet(actions=list(itertools.product(*choices)), rate_fn=rate_fn)


def open_loop_overflow_step(seed, loop, a, horizon, warmup):
    """First step at which x, x^2 or the costed sum of x^2 is not finite for
    x[k+1] = a x[k] + w[k] from 0, w the loop's N(0, 1) noise as a scenario of `seed`
    draws it: the stage cost of a loop with Qx = 1, Qu = 0 whose input stays 0."""
    w = np.random.default_rng(np.random.SeedSequence([seed, loop])).normal(0.0, 1.0, horizon)
    x = np.zeros(horizon)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, horizon):
            x[k] = a * x[k - 1] + w[k - 1]
        cost = x * x
        total = np.cumsum(np.where(np.arange(horizon) >= warmup, cost, 0.0))
    return int(np.argmax(~(np.isfinite(x) & np.isfinite(cost) & np.isfinite(total))))


class TestScenarioGenerator:
    def test_classes_split_evenly(self):
        sc = make_two_hop_scenario(2, seed=0)
        assert sc.class_labels == ["stable", "unstable"]
        assert sc.plants[0].A[0, 0] == 0.75
        assert sc.plants[1].A[0, 0] == 1.25
        assert sc.slots_per_step == 10

    def test_odd_count_rejected(self):
        with pytest.raises(ValueError):
            make_two_hop_scenario(3, seed=0)

    def test_loop_count_must_be_an_integer(self):
        with pytest.raises(ValueError, match=r"L must be an integer, got 2\.0"):
            make_two_hop_scenario(2.0, seed=0)

    def test_uplink_action_count_for_four_loops(self):
        actions = two_hop_action_set(make_two_hop_scenario(4, seed=0)).actions
        per_hop = 1 + 4 + 6  # C(4,0)+C(4,1)+C(4,2)
        assert per_hop == 11
        assert len(actions) == per_hop * per_hop
        uplink_choices = {a[0] for a in actions}
        assert len(uplink_choices) == 11

    def test_transmission_opportunities_per_period(self):
        sc = make_two_hop_scenario(6, seed=0)
        per_hop_capacity = sc.capacities[0]
        assert per_hop_capacity * sc.slots_per_step == 20

    def test_paths_are_two_hops_via_base_station(self):
        for L in (2, 44):
            assert make_two_hop_scenario(L, seed=0).hops == (2,) * L


class TestScenarioValidation:
    def test_one_hop_count_per_loop(self):
        sc = make_two_hop_scenario(2, seed=0)
        for hops in ((2,), (2, 2, 2)):
            with pytest.raises(ValueError, match=f"one path length per loop, 2 loops, "
                                                 f"got {len(hops)}"):
                dataclasses.replace(sc, hops=hops)

    @pytest.mark.parametrize("hops, message", [((2, 0), "loop 1 must be at least 1, got 0"),
                                               ((2.0, 2), r"loop 0 must be an integer, got 2\.0")])
    def test_hop_count_must_be_a_positive_integer(self, hops, message):
        sc = make_two_hop_scenario(2, seed=0)
        with pytest.raises(ValueError, match=f"hops of {message}"):
            dataclasses.replace(sc, hops=hops)

    @pytest.mark.parametrize("value", [2, None])
    @pytest.mark.parametrize("name", ["capacities", "hops"])
    def test_counts_must_be_a_sequence(self, name, value):
        sc = make_two_hop_scenario(2, seed=0)
        with pytest.raises(ValueError, match=f"{name} must be a sequence of counts, got {value}"):
            dataclasses.replace(sc, **{name: value})

    @pytest.mark.parametrize("plants", [2, None])
    def test_plants_must_be_a_sequence(self, plants):
        sc = make_two_hop_scenario(2, seed=0)
        with pytest.raises(ValueError, match=f"plants must be a sequence of PlantSpec, got {plants}"):
            dataclasses.replace(sc, plants=plants)

    @pytest.mark.parametrize("plants, loop", [([1, 2], 0), ([TWO_HOP_PLANTS[0], None], 1)])
    def test_each_plant_must_be_a_plant_spec(self, plants, loop):
        sc = make_two_hop_scenario(2, seed=0)
        with pytest.raises(ValueError, match=f"plant of loop {loop} must be a PlantSpec, "
                                             f"got {plants[loop]}"):
            dataclasses.replace(sc, plants=plants)

    @pytest.mark.parametrize("capacities", [
        (2, 2, 2),  # no path reaches position 2
        (2,),  # nothing serves position 1: its packets would starve
        (),
    ], ids=["too_many", "too_few", "none"])
    def test_one_capacity_per_path_position(self, capacities):
        sc = make_two_hop_scenario(2, seed=0)
        with pytest.raises(ValueError, match=r"one capacity per path position, 2 for the "
                                             rf"longest path, got {len(capacities)}"):
            dataclasses.replace(sc, capacities=capacities)

    @pytest.mark.parametrize("horizon", [0, -1])
    def test_horizon_must_be_positive(self, horizon):
        sc = make_two_hop_scenario(2, seed=0)
        with pytest.raises(ValueError, match=f"horizon must be at least 1, got {horizon}"):
            dataclasses.replace(sc, horizon=horizon)

    def test_horizon_must_be_an_integer(self):
        sc = make_two_hop_scenario(2, seed=0)
        with pytest.raises(ValueError, match=r"horizon must be an integer, got 100\.5"):
            dataclasses.replace(sc, horizon=100.5)

    @pytest.mark.parametrize("slots, message", [(2.5, "an integer"), (0, "at least 1")])
    def test_slots_per_step_must_be_a_positive_integer(self, slots, message):
        sc = make_two_hop_scenario(2, seed=0)
        with pytest.raises(ValueError, match=f"slots_per_step must be {message}, got {slots}"):
            dataclasses.replace(sc, slots_per_step=slots)

    @pytest.mark.parametrize("seed, message", [(-1, "at least 0"), (1.5, "an integer")])
    def test_seed_must_be_a_non_negative_integer(self, seed, message):
        sc = make_two_hop_scenario(2, seed=0)
        with pytest.raises(ValueError, match=f"seed must be {message}, got {seed}"):
            dataclasses.replace(sc, seed=seed)

    @pytest.mark.parametrize("capacity", [0, 1.5])
    def test_capacity_must_be_a_positive_integer(self, capacity):
        sc = make_two_hop_scenario(2, seed=0)
        with pytest.raises(ValueError, match="capacity"):
            dataclasses.replace(sc, capacities=(capacity, 2))

    def test_class_labels_follow_the_plants(self):
        plants = [PlantSpec(A=a, B=1.0, Z=1.0, Qx=1.0, Qu=0.0) for a in (0.5, 1.1, 0.9)]
        sc = Scenario(plants=plants, hops=(1, 1, 1), capacities=(3,),
                      slots_per_step=1, horizon=200, seed=1)
        assert sc.class_labels == ["stable", "unstable", "stable"]
        tables = {}
        for p in plants:
            cid = plant_class_id(p, design_lqg(p))
            tables[cid] = ThresholdTable(lambdas=np.array([0.0, 1.0]),
                                         thresholds=np.array([1.0, 1.0]), class_id=cid)
        assert run(sc, tables).class_labels == ["stable", "unstable", "stable"]


class TestRun:
    def test_low_load_plateau_short(self, tables):
        sc = make_two_hop_scenario(2, seed=7, horizon=2000)
        m = run(sc, tables)
        assert np.all(m.rate_per_loop == 1.0)
        assert np.all(m.delay_per_loop == 0.0)
        assert m.class_means(m.cost_per_loop)["all"] == pytest.approx(1.0, abs=0.1)

    def test_determinism(self, tables):
        a = run(make_two_hop_scenario(4, seed=11, horizon=1500), tables)
        b = run(make_two_hop_scenario(4, seed=11, horizon=1500), tables)
        for field in ("injected", "delivered", "delay_sum", "cost_sum", "backlog_sum"):
            assert np.array_equal(getattr(a, field), getattr(b, field))

    def test_forced_always_transmit_matches_error_recursion(self, tables):
        sc = make_two_hop_scenario(2, seed=3, horizon=800)
        force = np.ones((800, 2), dtype=bool)
        m = run(sc, tables, force_delta=force, record_errors=True)
        a = np.array([0.75, 1.25])
        e = np.zeros(2)
        for k in range(799):
            e = (1.0 - m.delta_trace[k]) * a * e + m.noise[k]
            assert np.array_equal(m.error_trace[k], e)

    def test_forced_random_pattern_matches_error_recursion(self, tables):
        horizon = 600
        rng = np.random.default_rng(0)
        force = rng.random((horizon, 2)) < 0.4
        sc = make_two_hop_scenario(2, seed=5, horizon=horizon)
        m = run(sc, tables, force_delta=force, record_errors=True)
        a = np.array([0.75, 1.25])
        e = np.zeros(2)
        for k in range(horizon - 1):
            e = (1.0 - m.delta_trace[k]) * a * e + m.noise[k]
            assert np.array_equal(m.error_trace[k], e)

    def test_forced_always_transmit_hits_cost_floor(self, tables):
        sc = make_two_hop_scenario(2, seed=13, horizon=20_000)
        force = np.ones((20_000, 2), dtype=bool)
        m = run(sc, tables, force_delta=force)
        for cost in m.cost_per_loop:
            assert cost == pytest.approx(1.0, rel=0.03)

    def test_noiseless_single_loop_never_transmits(self):
        spec = PlantSpec(A=0.75, B=1.0, Z=0.0, Qx=1.0, Qu=0.0)
        sol = design_lqg(spec)
        cid = plant_class_id(spec, sol)
        sc = Scenario(plants=[spec], hops=(2,),
                      capacities=(2, 2), slots_per_step=10,
                      horizon=500, seed=1)
        table = ThresholdTable(lambdas=np.array([0.0, 1.0]),
                               thresholds=np.array([0.0, 0.0]), class_id=cid)
        m = run(sc, {cid: table})
        assert m.injected.sum() == 0
        assert m.cost_per_loop[0] == 0.0

    def test_conservation_and_fifo_under_load(self, tables):
        sc = make_two_hop_scenario(24, seed=2, horizon=400)
        m = run(sc, tables, check_conservation=True)
        assert m.delivered_births is not None
        for births in m.delivered_births:
            assert births == sorted(births)

    def test_conservation_check_sees_a_lost_count(self, tables, monkeypatch):
        """A transport that loses one relayed packet, delivering nothing for it,
        breaks conservation on the next check."""
        real = engine.transmit
        lost = []

        def lossy(buffers, assignments):
            delivered = real(buffers, assignments)
            relay = buffers.backlog[1]
            if not lost and any(relay):
                loop = next(i for i, n in enumerate(relay) if n)
                relay[loop] -= 1
                lost.append(loop)
            return delivered

        monkeypatch.setattr(engine, "transmit", lossy)
        sc = make_two_hop_scenario(4, seed=2, horizon=200)
        with pytest.raises(AssertionError, match="packet conservation broken"):
            run(sc, tables, check_conservation=True)
        assert lost

    @pytest.mark.parametrize("shape", [(100, 6), (100, 2), (50, 4)])
    def test_force_delta_must_be_horizon_by_loops(self, tables, shape):
        sc = make_two_hop_scenario(4, seed=0, horizon=100)
        with pytest.raises(ValueError, match=r"force_delta must have shape \(100, 4\)"):
            run(sc, tables, force_delta=np.ones(shape, dtype=bool))

    def test_force_delta_may_be_a_nested_list(self, tables):
        """Bools or 0/1 ints in nested lists force the same pattern as the array."""
        horizon = 300
        force = np.random.default_rng(1).random((horizon, 4)) < 0.4
        sc = make_two_hop_scenario(4, seed=2, horizon=horizon)
        want = run(sc, tables, force_delta=force, record_errors=True)
        for nested in (force.tolist(), force.astype(int).tolist()):
            got = run(sc, tables, force_delta=nested, record_errors=True)
            assert np.array_equal(got.delta_trace, want.delta_trace)
            assert np.array_equal(got.error_trace, want.error_trace)

    @pytest.mark.filterwarnings("error")
    def test_price_past_the_float_range_is_the_top_knot(self, tables):
        """At theta = 1e306, theta * B overflows to inf for the largest backlogs
        of a 1000-step run; the row clamps it to the top knot without a warning,
        as it clamps any price above 200, so the run equals one at theta = 1e300."""
        sc = make_two_hop_scenario(4, seed=6, horizon=1000)
        huge, large = (run(sc, tables, theta=theta, record_errors=True, check_conservation=True)
                       for theta in (1e306, 1e300))
        for f in dataclasses.fields(huge):
            got, want = getattr(huge, f.name), getattr(large, f.name)
            assert (np.array_equal(got, want) if isinstance(got, np.ndarray)
                    else got == want), f.name

    @pytest.mark.parametrize("L, flagged", [(18, 0), (20, 0), (22, 22), (24, 24)])
    def test_stability_flag_follows_the_capacity_bound(self, tables, L, flagged):
        # each hop carries 2 links x 10 slots = 20 packets per period; with
        # every loop sampling every period, the queues grow once L > 20
        sc = make_two_hop_scenario(L, seed=3, horizon=1000)
        m = run(sc, tables, force_delta=np.ones((1000, L), dtype=bool))
        assert m.diverging.sum() == flagged

    @pytest.mark.parametrize("horizon, flagged", [(1, 0), (2, 1), (3, 0), (4, 0)])
    def test_stability_flag_halves_leave_out_an_odd_middle(self, tables, horizon, flagged):
        # both loops sample once, at step 0, onto hops of one link per slot and
        # one slot per period: the loser of the first pick still has its
        # packet at the source at boundary 1, and nothing is left at boundary 2
        sc = dataclasses.replace(make_two_hop_scenario(2, seed=5, horizon=horizon),
                                 capacities=(1, 1), slots_per_step=1)
        force = np.zeros((horizon, 2), dtype=bool)
        force[0] = True
        assert run(sc, tables, force_delta=force).diverging.sum() == flagged

    def test_l44_settles_at_theta_08_and_is_flagged_at_06(self, tables):
        # pins the edge between settling and diverging; 911 steps is the shortest
        # horizon at which both hold for all four seeds
        for s in range(4):
            sc = make_two_hop_scenario(44, seed=run_seed(s, 44, 0), horizon=911)
            assert not run(sc, tables, theta=0.8).diverging.any()
            assert run(sc, tables, theta=0.6).diverging.any()

    def test_cost_at_theta_08_exceeds_twice_the_cost_at_theta_2(self, tables):
        """At L=44 the price scale theta=0.8 costs well over twice theta=2.

        A fact about the model, not a bound on noise: the all-loop cost ratio
        was 6.43/2.38 = 2.70 at seed 0 and 7.26/2.40 = 3.03 at seed 1, a margin
        of at least 35% over the factor 2 asserted.  A model change that
        flips the ordering must say so.
        """
        for seed in (0, 1):
            cost = {}
            for theta in (0.8, 2.0):
                m = run(make_two_hop_scenario(44, seed=seed, horizon=2000), tables, theta=theta)
                cost[theta] = m.class_means(m.cost_per_loop)["all"]
            assert cost[0.8] > 2 * cost[2.0], (seed, cost)

    def test_class_symmetry_under_relabeling(self, tables):
        # swapping same-class loop entries leaves every aggregate unchanged
        sc1 = make_two_hop_scenario(4, seed=9, horizon=1000)
        sc2 = make_two_hop_scenario(4, seed=9, horizon=1000)
        sc2.plants[0], sc2.plants[1] = sc2.plants[1], sc2.plants[0]
        m1 = run(sc1, tables)
        m2 = run(sc2, tables)
        for metric in ("rate_per_loop", "delay_per_loop", "cost_per_loop"):
            assert m1.class_means(getattr(m1, metric)) == m2.class_means(getattr(m2, metric))

    @pytest.mark.filterwarnings("error")  # the error, not NumPy overflow warnings, reports it
    def test_overflow_is_an_error_naming_the_loops(self, tables):
        sc = make_two_hop_scenario(4, seed=0, horizon=5000)
        never = np.zeros((5000, 4), dtype=bool)  # the unstable loops 2 and 3 run open loop
        steps = [open_loop_overflow_step(0, i, 1.25, 5000, 500) for i in (2, 3)]
        assert 500 < min(steps) and max(steps) < 4999  # the costed sum, not the last state
        with pytest.raises(NonFiniteError,
                           match=rf"loops \[2, 3\] \(seed 0\), first at steps \[{steps[0]}, "
                                 rf"{steps[1]}\]$"):
            run(sc, tables, theta=0.8, force_delta=never)

    @pytest.mark.filterwarnings("error")
    def test_replay_deeper_than_the_float_range_of_a_power(self, tables):
        """An unstable loop's sample delivered over 3200 periods late: 1.25**d is inf.

        Two stable loops hog a one-hop link of capacity 1 (one slot per
        period) for 3300 periods; the unstable loop's one sample, from step 5,
        waits until their queues have drained.  Its plant state overflows
        meanwhile, which the run reports, not the replay.
        """
        horizon = 7000
        plants = ([PlantSpec(A=0.75, B=1.0, Z=1.0, Qx=1.0, Qu=0.0)] * 2
                  + [PlantSpec(A=1.25, B=1.0, Z=1.0, Qx=1.0, Qu=0.0)])
        sc = Scenario(plants=plants, hops=(1, 1, 1), capacities=(1,), slots_per_step=1,
                      horizon=horizon, seed=1)
        force = np.zeros((horizon, 3), dtype=bool)
        force[:3300, :2] = True
        force[5, 2] = True
        # the sample waits past the overflow, so loop 2's input stays 0 until then
        step = open_loop_overflow_step(1, 2, 1.25, horizon, horizon // 10)
        assert step < 3300
        with pytest.raises(NonFiniteError, match=rf"loops \[2\] \(seed 1\), first at steps \[{step}\]$"):
            run(sc, tables, theta=0.8, force_delta=force)

    def test_cost_is_undefined_until_a_period_closes(self, tables):
        """A one-step run closes no period, so it has no stage cost: nan, not 0."""
        one = run(make_two_hop_scenario(2, seed=0, horizon=1), tables)
        assert one.steps_cost == 0 and np.all(np.isnan(one.cost_per_loop))
        two = run(make_two_hop_scenario(2, seed=0, horizon=2), tables)
        assert two.steps_cost == 1 and np.all(np.isfinite(two.cost_per_loop))
        cell = sweep([2], 2, 0, tables, horizon=1).cell(2, "all", "cost")
        assert math.isnan(cell.mean) and math.isnan(cell.ci95)

    def test_non_finite_theta_rejected(self, tables):
        sc = make_two_hop_scenario(2, seed=0, horizon=1000)
        for theta in (math.nan, math.inf, "1", None):
            with pytest.raises(ValueError, match="theta"):
                run(sc, tables, theta=theta)

    def test_missing_table_is_reported(self):
        sc = make_two_hop_scenario(2, seed=0, horizon=1000)
        with pytest.raises(KeyError, match="threshold table"):
            run(sc, {})


class TestRunProperties:
    @settings(max_examples=40, deadline=None)
    @given(L=st.sampled_from([2, 4, 6]), theta=st.floats(0.01, 5.0),
           horizon=st.integers(20, 300), slots=st.integers(1, 12),
           forced=st.none() | st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
    def test_small_random_scenarios(self, tables, L, theta, horizon, slots, forced, seed):
        """Conservation, FIFO births and finite metrics, or an explicit overflow error."""
        sc = dataclasses.replace(make_two_hop_scenario(L, seed=seed, horizon=horizon),
                                 slots_per_step=slots)
        force = None
        if forced is not None:
            force = np.random.default_rng(seed).random((horizon, L)) < forced
        try:
            m = run(sc, tables, theta=theta, force_delta=force, check_conservation=True)
        except NonFiniteError:
            return
        for births in m.delivered_births:
            assert births == sorted(births)
        for values in (m.rate_per_loop, m.backlog_per_loop, m.cost_per_loop):
            assert np.all(np.isfinite(values))
        assert np.array_equal(np.isnan(m.delay_per_loop), m.delivered == 0)


class TestSchedulerFastPath:
    def test_engine_choice_matches_exhaustive_wsr_objective(self, tables):
        """The engine's per-hop pick scores the argmax over the enumerated action set."""
        sc = make_two_hop_scenario(4, seed=0, horizon=1000)
        uplinks = [(0, i) for i in range(4)]
        downlinks = [(1, i) for i in range(4)]
        action_set = two_hop_action_set(sc)
        rng = np.random.default_rng(21)
        for _ in range(60):
            src = rng.integers(0, 5, size=4)
            mid = rng.integers(0, 5, size=4)
            weights = {}
            for i in range(4):
                weights[uplinks[i]] = max(src[i] - mid[i], 0)
                weights[downlinks[i]] = mid[i]
            choice = wsr_schedule(None, weights, action_set, np.random.default_rng(0))
            total = 0.0
            for capacity, links in zip(sc.capacities, (uplinks, downlinks)):
                hop = [weights[link] for link in links]
                picked = pick_max_weight(tier_map(hop), capacity,
                                         TieStream(np.random.PCG64(0)))
                total += sum(hop[j] for j in picked)
            assert choice.value == total


class TestSweep:
    def test_aggregation_and_ci(self, tables):
        result = sweep([2], replications=3, master_seed=5, tables=tables,
                       horizon=1200)
        cell = result.cell(2, "all", "rate")
        assert cell.n == 3
        assert cell.mean == pytest.approx(1.0, abs=0.01)
        assert result.cell(2, "all", "delay").mean == 0.0
        costs = []
        for rep in range(3):
            m = run(make_two_hop_scenario(2, seed=run_seed(5, 2, rep), horizon=1200), tables)
            costs.append(m.class_means(m.cost_per_loop)["all"])
        cost = result.cell(2, "all", "cost")
        assert cost.ci95 > 0
        assert cost.ci95 == engine._t975(2) * np.std(costs, ddof=1) / math.sqrt(3)

    @pytest.mark.parametrize("dof, printed", [(1, 12.706), (2, 4.303), (9, 2.262), (29, 2.045)])
    def test_t_quantile_matches_printed_tables(self, dof, printed):
        assert engine._t975(dof) == pytest.approx(printed, abs=5e-4)

    def test_t_quantile_matches_the_closed_forms_at_one_and_two_dof(self):
        assert engine._t975(1) == pytest.approx(math.tan(0.475 * math.pi), rel=1e-14)
        assert engine._t975(2) == pytest.approx(0.95 * math.sqrt(2 / (1 - 0.95 ** 2)), rel=1e-14)

    def test_one_replication_has_no_interval(self, tables):
        result = sweep([2], replications=1, master_seed=5, tables=tables, horizon=200)
        assert all(cell.n == 1 and math.isnan(cell.ci95) for cell in result.metrics.values())

    def test_parallel_equals_serial(self, tables, monkeypatch):
        monkeypatch.setattr(engine, "usable_cpus", lambda: 2)  # a pool even on one CPU
        serial = sweep([2, 4], replications=2, master_seed=8, tables=tables,
                       horizon=1000, workers=1)
        parallel = sweep([2, 4], replications=2, master_seed=8, tables=tables,
                         horizon=1000, workers=2)
        assert serial.metrics.keys() == parallel.metrics.keys()
        for key in serial.metrics:
            assert serial.metrics[key] == parallel.metrics[key]

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        """Sizes of the pools `sweep` starts, each a stand-in running its tasks in-process,
        on a stand-in box of four usable CPUs."""
        sizes = []
        monkeypatch.setattr(engine, "usable_cpus", lambda: 4)

        class InProcessPool:
            """Records the pool size; runs each task when its result is read."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(engine, "_pool", InProcessPool)
        return sizes

    def test_pool_has_no_more_workers_than_tasks(self, tables, pool_sizes):
        sweep([2], replications=2, master_seed=8, tables=tables, horizon=200, workers=8)
        assert pool_sizes == [2]
        sweep([2], replications=1, master_seed=8, tables=tables, horizon=200, workers=8)
        assert pool_sizes == [2]  # one task runs in-process

    def test_pool_has_no_more_workers_than_usable_cpus(self, tables, pool_sizes):
        # clamped, not rejected: a config asking for more still runs
        sweep([2, 4], replications=3, master_seed=8, tables=tables, horizon=200, workers=8)
        assert pool_sizes == [4]

    def test_importing_loads_no_process_pool(self):
        # a workers=1 run never pays for concurrent.futures and multiprocessing
        code = ("import sys, ncsim.cli, ncsim.engine; print(sorted(m for m in sys.modules "
                "if m.split('.')[0] in ('concurrent', 'multiprocessing')))")
        src = os.path.dirname(os.path.dirname(engine.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True, timeout=60)
        assert done.stdout.strip() == "[]"

    def test_usable_cpus_is_the_affinity_set_else_the_cpu_count(self, monkeypatch):
        monkeypatch.setattr(engine.os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        assert engine.usable_cpus() == 3
        monkeypatch.delattr(engine.os, "sched_getaffinity")
        monkeypatch.setattr(engine.os, "cpu_count", lambda: 6)
        assert engine.usable_cpus() == 6
        monkeypatch.setattr(engine.os, "cpu_count", lambda: None)  # undeterminable
        assert engine.usable_cpus() == 1

    def test_progress_reports_each_L_once_its_runs_are_in(self, tables, pool_sizes, monkeypatch):
        events = []
        one_task = engine._one_sweep_task

        def task(args):
            events.append(("task", args[1]))
            return one_task(args)

        monkeypatch.setattr(engine, "_one_sweep_task", task)
        sweep([2, 4], replications=2, master_seed=8, tables=tables, horizon=200, workers=2,
              progress=lambda L, result: events.append(("progress", L)))
        assert pool_sizes == [2]
        assert events == [("task", 2), ("task", 2), ("progress", 2),
                          ("task", 4), ("task", 4), ("progress", 4)]

    @pytest.mark.parametrize("field, value, message", [
        ("workers", 0, "at least 1"), ("replications", 1.5, "an integer"),
        ("master_seed", -1, "at least 0")])
    def test_malformed_arguments_rejected(self, tables, field, value, message):
        args = dict(replications=2, master_seed=8, workers=1) | {field: value}
        with pytest.raises(ValueError, match=f"{field} must be {message}, got {value}"):
            sweep([2], tables=tables, horizon=200, **args)

    @pytest.mark.parametrize("L_values, message, args", [
        ([], "L_values must not be empty", {}), ([2.0], "L must be an integer, got 2.0", {}),
        ([2, 3], "L must be an even number of loops, got 3", {}),
        ([2], "theta must be positive and finite, got nan", {"theta": math.nan}),
        ([2], "theta must be positive and finite, got '1'", {"theta": "1"}),
        ([2], "horizon must be at least 1, got 0", {"horizon": 0}),
        ([2], "horizon must be an integer, got 100.5", {"horizon": 100.5}),
        ([2, 4], "theta must be positive and finite, got inf", {"theta": math.inf, "workers": 2})])
    def test_malformed_loop_counts_rejected_before_any_run(self, L_values, message, args,
                                                           monkeypatch):
        def no_run(*a, **kw):
            raise AssertionError("a run or pool started for a malformed argument")
        monkeypatch.setattr(engine, "_one_sweep_task", no_run)
        monkeypatch.setattr(engine, "_pool", no_run)
        monkeypatch.setattr(engine, "usable_cpus", lambda: 2)  # workers=2 would start a pool
        args = dict(replications=1, master_seed=8, tables={}, horizon=200) | args
        with pytest.raises(ValueError, match=message):
            sweep(L_values, **args)

    def test_missing_table_rejected_before_any_run(self, monkeypatch):
        def no_run(*a, **kw):
            raise AssertionError("a run or pool started without a table")
        monkeypatch.setattr(engine, "_one_sweep_task", no_run)
        monkeypatch.setattr(engine, "_pool", no_run)
        monkeypatch.setattr(engine, "usable_cpus", lambda: 2)  # workers=2 would start a pool
        with pytest.raises(KeyError, match="a0.75_qe0.5625_z1"):
            sweep([2, 4], 1, 1, {}, horizon=100, workers=2)

    def test_repeated_L_rejected(self):
        # two copies of the same seeded runs would narrow that L's CI
        with pytest.raises(ValueError, match="distinct"):
            sweep([2, 4, 2], replications=2, master_seed=8, tables={}, horizon=1000)

    def test_run_seed_is_stable(self):
        assert run_seed(1, 10, 3) == run_seed(1, 10, 3)
        assert run_seed(1, 10, 3) != run_seed(1, 10, 4)
        assert run_seed(1, 10, 3) != run_seed(2, 10, 3)
