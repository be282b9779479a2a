"""Co-simulation engine: scenario generator, run loop, sweep aggregation."""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncsim.cli import RunConfig, load_or_build_tables
from ncsim.control import PlantSpec, design_lqg
from ncsim.engine import (HopGroup, NonFiniteError, Scenario,
                          make_two_hop_scenario, run, run_seed, sweep)
from ncsim.network import ActionSet, TieStream, Topology, pick_max_weight, wsr_schedule
from ncsim.sampler import ThresholdTable, plant_class_id


@pytest.fixture(scope="module")
def tables():
    return load_or_build_tables(RunConfig(L_values=(2,)), log=lambda *a: None)


def two_hop_action_set(sc):
    """The WSR oracle's joint actions: per hop up to its group's capacity of unit-rate links."""
    hops = [[sc.topology.paths[i][g.position] for i in range(len(sc.plants))]
            for g in sc.hop_groups]
    choices = [[c for size in range(g.capacity + 1)
                for c in itertools.combinations(range(len(links)), size)]
               for g, links in zip(sc.hop_groups, hops)]

    def rate_fn(link_state, action):
        return {hops[h][i]: 1 for h, picked in enumerate(action) for i in picked}
    return ActionSet(actions=list(itertools.product(*choices)), rate_fn=rate_fn)


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

    def test_uplink_action_count_for_four_loops(self):
        actions = two_hop_action_set(make_two_hop_scenario(4, seed=0)).actions
        per_hop = 1 + 4 + 6  # C(4,0)+C(4,1)+C(4,2)
        assert per_hop == 11
        assert len(actions) == per_hop * per_hop
        uplink_choices = {a[0] for a in actions}
        assert len(uplink_choices) == 11

    def test_transmission_opportunities_per_period(self):
        sc = make_two_hop_scenario(6, seed=0)
        per_hop_capacity = sc.hop_groups[0].capacity
        assert per_hop_capacity * sc.slots_per_step == 20

    def test_paths_are_two_hops_via_base_station(self):
        sc = make_two_hop_scenario(2, seed=0)
        for i in range(2):
            path = sc.topology.paths[i]
            assert len(path) == 2
            assert path[0][1] == "bs" and path[1][0] == "bs"


class TestScenarioValidation:
    def test_paths_must_be_keyed_by_loop_index(self):
        sc = make_two_hop_scenario(2, seed=0)
        paths = {i + 1: path for i, path in sc.topology.paths.items()}
        topo = dataclasses.replace(sc.topology, paths=paths,
                                   src={i + 1: n for i, n in sc.topology.src.items()},
                                   dst={i + 1: n for i, n in sc.topology.dst.items()})
        with pytest.raises(ValueError, match="0..L-1"):
            dataclasses.replace(sc, topology=topo)

    def test_hop_positions_must_be_distinct(self):
        sc = make_two_hop_scenario(2, seed=0)
        with pytest.raises(ValueError, match="distinct"):
            dataclasses.replace(sc, hop_groups=[HopGroup(0, 2), HopGroup(0, 1)])

    def test_hop_position_must_be_on_a_path(self):
        sc = make_two_hop_scenario(2, seed=0)
        with pytest.raises(ValueError, match="no path reaches"):
            dataclasses.replace(sc, hop_groups=[HopGroup(0, 2), HopGroup(2, 2)])

    def test_non_scalar_plant_rejected_naming_the_loop(self):
        sc = make_two_hop_scenario(2, seed=0)
        plants = [sc.plants[0], PlantSpec(A=np.eye(2), B=np.ones((2, 1)), Z=np.eye(2),
                                          Qx=np.eye(2), Qu=1.0)]
        with pytest.raises(ValueError, match="loop 1: .*scalar"):
            dataclasses.replace(sc, plants=plants)

    @pytest.mark.parametrize("capacity, rate, field", [(0, 1, "capacity"), (1.5, 1, "capacity"),
                                                       (2, 0, "rate"), (2, 1.0, "rate")])
    def test_capacity_and_rate_must_be_positive_integers(self, capacity, rate, field):
        sc = make_two_hop_scenario(2, seed=0)
        with pytest.raises(ValueError, match=field):
            dataclasses.replace(sc, hop_groups=[HopGroup(0, capacity, rate), HopGroup(1, 2)])


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
        links = [("s", "bs"), ("bs", "d")]
        topo = Topology(nodes=frozenset(["s", "bs", "d"]),
                        links=frozenset(links),
                        paths={0: tuple(links)}, src={0: "s"}, dst={0: "d"})
        sc = Scenario(plants=[spec], class_labels=["stable"], topology=topo,
                      hop_groups=[HopGroup(0, 2), HopGroup(1, 2)], slots_per_step=10,
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

    def test_class_symmetry_under_relabeling(self, tables):
        # swapping same-class loop entries leaves every aggregate unchanged
        sc1 = make_two_hop_scenario(4, seed=9, horizon=1000)
        sc2 = make_two_hop_scenario(4, seed=9, horizon=1000)
        sc2.plants[0], sc2.plants[1] = sc2.plants[1], sc2.plants[0]
        sc2.class_labels[0], sc2.class_labels[1] = sc2.class_labels[1], sc2.class_labels[0]
        m1 = run(sc1, tables)
        m2 = run(sc2, tables)
        for metric in ("rate_per_loop", "delay_per_loop", "cost_per_loop"):
            assert m1.class_means(getattr(m1, metric)) == m2.class_means(getattr(m2, metric))

    @pytest.mark.filterwarnings("error")  # the error, not NumPy overflow warnings, reports it
    def test_overflow_is_an_error_naming_the_loops(self, tables):
        sc = make_two_hop_scenario(4, seed=0, horizon=5000)
        never = np.zeros((5000, 4), dtype=bool)  # the unstable loops 2 and 3 run open loop
        with pytest.raises(NonFiniteError, match=r"loops \[2, 3\]"):
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
        links = [(f"s{i}", f"d{i}") for i in range(3)]
        topo = Topology(nodes=frozenset(n for link in links for n in link),
                        links=frozenset(links), paths={i: (links[i],) for i in range(3)},
                        src={i: f"s{i}" for i in range(3)}, dst={i: f"d{i}" for i in range(3)})
        sc = Scenario(plants=plants, class_labels=["stable", "stable", "unstable"],
                      topology=topo, hop_groups=[HopGroup(0, 1)], slots_per_step=1,
                      horizon=horizon, seed=1)
        force = np.zeros((horizon, 3), dtype=bool)
        force[:3300, :2] = True
        force[5, 2] = True
        with pytest.raises(NonFiniteError, match=r"loops \[2\]"):
            run(sc, tables, theta=0.8, force_delta=force)

    def test_non_finite_theta_rejected(self, tables):
        sc = make_two_hop_scenario(2, seed=0, horizon=1000)
        for theta in (math.nan, math.inf):
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
        uplinks = [sc.topology.paths[i][0] for i in range(4)]
        downlinks = [sc.topology.paths[i][1] for i in range(4)]
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
            for group, links in zip(sc.hop_groups, (uplinks, downlinks)):
                hop = [weights[link] for link in links]
                picked = pick_max_weight(hop, group.capacity, TieStream(np.random.PCG64(0)))
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

    def test_parallel_equals_serial(self, tables):
        serial = sweep([2, 4], replications=2, master_seed=8, tables=tables,
                       horizon=1000, workers=1)
        parallel = sweep([2, 4], replications=2, master_seed=8, tables=tables,
                         horizon=1000, workers=2)
        assert serial.metrics.keys() == parallel.metrics.keys()
        for key in serial.metrics:
            assert serial.metrics[key] == parallel.metrics[key]

    def test_run_seed_is_stable(self):
        assert run_seed(1, 10, 3) == run_seed(1, 10, 3)
        assert run_seed(1, 10, 3) != run_seed(1, 10, 4)
        assert run_seed(1, 10, 3) != run_seed(2, 10, 3)
