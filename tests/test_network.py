"""Buffers, Lindley dynamics, flow prioritization, WSR scheduling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import engine_oracle
from engine_oracle import differential_backlog
from ncsim.network import (ActionSet, BufferSet, Packet, RateContractError,
                           TieStream, Topology, assign_flow, pick_max_weight,
                           stability_diagnostic, transmit, wsr_schedule)


def line_topology():
    """Two loops sharing a relay: s0/s1 -> relay -> d0/d1."""
    links = [("s0", "r"), ("s1", "r"), ("r", "d0"), ("r", "d1")]
    return Topology(
        nodes=frozenset(["s0", "s1", "r", "d0", "d1"]),
        links=frozenset(links),
        paths={0: (("s0", "r"), ("r", "d0")), 1: (("s1", "r"), ("r", "d1"))},
        src={0: "s0", 1: "s1"},
        dst={0: "d0", 1: "d1"},
    )


class TestTopology:
    def test_path_nodes_excludes_target(self):
        topo = line_topology()
        assert topo.path_nodes(0) == ("s0", "r")

    def test_disconnected_path_rejected(self):
        with pytest.raises(ValueError, match="connected"):
            Topology(nodes=frozenset("abc"),
                     links=frozenset([("a", "b"), ("c", "b")]),
                     paths={0: (("a", "b"), ("c", "b"))},
                     src={0: "a"}, dst={0: "b"})

    def test_cycle_rejected(self):
        with pytest.raises(ValueError, match="revisits"):
            Topology(nodes=frozenset("ab"),
                     links=frozenset([("a", "b"), ("b", "a")]),
                     paths={0: (("a", "b"), ("b", "a"))},
                     src={0: "a"}, dst={0: "a"})

    def test_unknown_link_rejected(self):
        with pytest.raises(ValueError, match="not in topology"):
            Topology(nodes=frozenset("ab"), links=frozenset(),
                     paths={0: (("a", "b"),)}, src={0: "a"}, dst={0: "b"})


class TestCcAdmit:
    def test_single_packet_pass_through(self):
        buffers = BufferSet(line_topology())
        buffers.cc_push(Packet(0, 0, 1.5))
        assert buffers.cc_admit(0) == 1
        assert buffers.cc_backlog(0) == 0
        assert buffers.tx_backlog("s0", 0) == 1

    def test_empty_admits_nothing(self):
        buffers = BufferSet(line_topology())
        assert buffers.cc_admit(0) == 0

    def test_whole_backlog_admitted(self):
        buffers = BufferSet(line_topology())
        for k in range(3):
            buffers.cc_push(Packet(0, k, 0.0))
        assert buffers.cc_admit(0) == 3
        assert buffers.tx_backlog("s0", 0) == 3


def source_queue_after(y, r, mu):
    """Loop 0's source queue and relay queue: y resident, r admitted, one slot serving mu."""
    buffers = BufferSet(line_topology())
    for count in (y, r):
        for _ in range(count):
            buffers.cc_push(Packet(0, 0, 0.0))
        buffers.cc_admit(0)
    transmit(buffers, [(("s0", "r"), 0, mu)], slot=0)
    return buffers.tx_backlog("s0", 0), buffers.tx_backlog("r", 0)


class TestLindley:
    """BufferSet's source queue follows y+ = max(y + r - mu, 0)."""

    def test_service_exceeds_arrivals(self):
        assert source_queue_after(3, 2, 4) == (1, 4)

    def test_clamped_at_zero(self):
        assert source_queue_after(0, 0, 5) == (0, 0)

    def test_accumulates(self):
        assert source_queue_after(1, 1, 0) == (2, 0)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 30), st.integers(0, 30), st.integers(0, 30))
    def test_never_negative(self, y, r, mu):
        assert source_queue_after(y, r, mu) == (max(y + r - mu, 0), min(y + r, mu))


class TestDifferentialBacklog:
    def test_positive_gradient(self):
        assert differential_backlog(5, 2) == 3

    def test_negative_gradient_clamped(self):
        assert differential_backlog(2, 5) == 0

    def test_equal_backlogs(self):
        assert differential_backlog(4, 4) == 0

    def test_theta_scales(self):
        assert differential_backlog(5, 2, theta=0.5) == 1.5


class TestAssignFlow:
    def test_argmax_wins(self):
        rng = np.random.default_rng(0)
        assert assign_flow({1: 3.0, 2: 1.0}, rng) == 1

    def test_all_zero_is_idle(self):
        rng = np.random.default_rng(0)
        assert assign_flow({1: 0.0, 2: 0.0}, rng) is None

    def test_tie_statistics(self):
        rng = np.random.default_rng(42)
        n = 10_000
        wins = sum(assign_flow({1: 2.0, 2: 2.0}, rng) == 1 for _ in range(n))
        sigma = (n * 0.25) ** 0.5
        assert abs(wins - n / 2) <= 3 * sigma


class TestPickMaxWeight:
    @settings(max_examples=400, deadline=None)
    @given(weights=st.lists(st.integers(-2, 4), max_size=14),
           capacity=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_matches_previous_engine_picker(self, weights, capacity, seed):
        """Same ids in the same order and the same tie-break draws as the old picker."""
        ids = [i for i, w in enumerate(weights) if w > 0]
        old_rng = np.random.default_rng(seed)
        want = engine_oracle._pick_max_weight([weights[i] for i in ids], ids,
                                              capacity, old_rng)
        ties = TieStream(np.random.PCG64(seed))
        given_weights = list(weights)
        assert pick_max_weight(weights, capacity, ties) == want
        # both streams drew as many 32-bit halves
        assert ties.integers(2**32 - 1) == old_rng.integers(2**32 - 1)
        assert weights == given_weights


def choice_draws(max_n: int, max_size: int):
    return st.integers(1, max_n).flatmap(
        lambda n: st.tuples(st.just("choice"), st.just(n), st.integers(0, min(n, max_size))))


tie_draws = st.one_of(
    st.tuples(st.just("integers"), st.integers(1, 50)),
    # past 2**31 about half the 32-bit draws are rejected and redrawn
    st.tuples(st.just("integers"), st.integers(2**31 + 1, 2**32 - 1)),
    choice_draws(40, 40), choice_draws(TieStream.MAX_CHOICE, 8),
    # past MAX_CHOICE the Generator keeps Floyd's algorithm for k <= n // 50
    st.tuples(st.just("choice"), st.integers(TieStream.MAX_CHOICE + 1, 2**32 - 1),
              st.integers(0, 8)))


class TestTieStream:
    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), block=st.integers(1, 300),
           draws=st.lists(tie_draws, max_size=25))
    def test_matches_generator_draw_for_draw(self, seed, block, draws):
        rng = np.random.default_rng(seed)
        ties = TieStream(np.random.PCG64(seed))
        ties.BLOCK = block  # small blocks make the draws cross refills
        for draw in draws:
            if draw[0] == "integers":
                assert ties.integers(draw[1]) == rng.integers(draw[1])
            else:
                _, n, k = draw
                assert ties.choice(n, k) == rng.choice(n, size=k, replace=False).tolist()

    def test_out_of_range_rejected(self):
        ties = TieStream(np.random.PCG64(0))
        for n in (0, 2**32):
            with pytest.raises(ValueError):
                ties.integers(n)
        for n, k in ((TieStream.MAX_CHOICE + 1, (TieStream.MAX_CHOICE + 1) // 50 + 1),
                     (3, 4), (0, 0)):
            with pytest.raises(ValueError):
                ties.choice(n, k)


def dict_action_set(actions_to_rates):
    """ActionSet over explicit {action_name: {link: rate}} tables."""
    names = list(actions_to_rates)
    return ActionSet(actions=names,
                     rate_fn=lambda q, name: actions_to_rates[name])


def exhaustive_oracle(link_weights, actions_to_rates):
    """Independent brute-force WSR maximizer (set of argmax actions)."""
    scored = {
        name: sum(link_weights.get(link, 0.0) * rate
                  for link, rate in rates.items())
        for name, rates in actions_to_rates.items()
    }
    best = max(scored.values())
    return best, {name for name, val in scored.items() if val == best}


class TestWsrSchedule:
    def test_picks_heavier_link(self):
        actions = dict_action_set({"a": {("x", "y"): 1}, "b": {("y", "z"): 1}})
        choice = wsr_schedule(None, {("x", "y"): 3.0, ("y", "z"): 1.0},
                              actions, np.random.default_rng(0))
        assert choice.action == "a"
        assert choice.value == 3.0

    def test_all_weights_zero(self):
        actions = dict_action_set({"a": {("x", "y"): 1}, "b": {}})
        choice = wsr_schedule(None, {}, actions, np.random.default_rng(0))
        assert choice.value == 0.0

    def test_empty_action_set_rejected(self):
        with pytest.raises(ValueError):
            wsr_schedule(None, {}, ActionSet(actions=[], rate_fn=lambda q, a: {}),
                         np.random.default_rng(0))

    def test_matches_independent_oracle_on_random_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            links = [(i, i + 1) for i in range(4)]
            table = {}
            for name in range(rng.integers(1, 8)):
                active = rng.random(4) < 0.5
                table[name] = {links[j]: int(rng.integers(1, 4))
                               for j in range(4) if active[j]}
            weights = {link: float(rng.integers(0, 5)) for link in links}
            choice = wsr_schedule(None, weights, dict_action_set(table), rng)
            best, argmax_set = exhaustive_oracle(weights, table)
            assert choice.value == best
            assert choice.action in argmax_set

    def test_tie_breaking_uniform(self):
        actions = dict_action_set({"a": {("x", "y"): 1}, "b": {("y", "z"): 1}})
        weights = {("x", "y"): 2.0, ("y", "z"): 2.0}
        rng = np.random.default_rng(5)
        n = 10_000
        wins = sum(wsr_schedule(None, weights, actions, rng).action == "a"
                   for _ in range(n))
        sigma = (n * 0.25) ** 0.5
        assert abs(wins - n / 2) <= 3 * sigma

    def test_argmax_set_invariant_under_positive_scaling(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            links = [(i, i + 1) for i in range(3)]
            table = {n: {links[j]: int(rng.integers(1, 3))
                         for j in range(3) if rng.random() < 0.6}
                     for n in range(5)}
            weights = {link: float(rng.integers(0, 4)) for link in links}
            _, base_set = exhaustive_oracle(weights, table)
            for c in (0.25, 7.0, 1e3):
                scaled = {link: c * w for link, w in weights.items()}
                _, scaled_set = exhaustive_oracle(scaled, table)
                assert scaled_set == base_set


class TestTransmit:
    def setup_buffers(self):
        buffers = BufferSet(line_topology())
        for k in range(2):
            buffers.cc_push(Packet(0, k, float(k)))
        buffers.cc_admit(0)
        return buffers

    def test_fifo_pop_respects_rate(self):
        buffers = self.setup_buffers()
        delivered = transmit(buffers, [(("s0", "r"), 0, 1)], slot=0)
        assert delivered == []
        assert buffers.tx_backlog("s0", 0) == 1
        assert buffers.tx_backlog("r", 0) == 1
        # the moved packet is the oldest one
        delivered = transmit(buffers, [(("r", "d0"), 0, 1)], slot=1)
        assert [p.birth_step for _, p in delivered] == [0]

    def test_empty_buffer_no_movement(self):
        buffers = BufferSet(line_topology())
        assert transmit(buffers, [(("s0", "r"), 0, 5)], slot=0) == []

    def test_relayed_data_waits_one_slot(self):
        buffers = self.setup_buffers()
        transmit(buffers, [(("s0", "r"), 0, 1)], slot=4)
        # arrived at the relay during slot 4: not transmittable until slot 5
        assert transmit(buffers, [(("r", "d0"), 0, 1)], slot=4) == []
        delivered = transmit(buffers, [(("r", "d0"), 0, 1)], slot=5)
        assert [p.birth_step for _, p in delivered] == [0]

    def test_delivery_at_target_is_emitted_not_buffered(self):
        buffers = self.setup_buffers()
        transmit(buffers, [(("s0", "r"), 0, 2)], slot=0)
        delivered = transmit(buffers, [(("r", "d0"), 0, 2)], slot=1)
        assert len(delivered) == 2
        assert buffers.tx_backlog("d0", 0) == 0  # target buffers do not exist

    def test_rate_contract_violation(self):
        buffers = self.setup_buffers()
        with pytest.raises(RateContractError):
            transmit(buffers, [(("s0", "r"), 0, 3)], slot=0,
                     link_capacity={("s0", "r"): 2})

    def test_source_admission_same_slot_allowed(self):
        buffers = BufferSet(line_topology())
        buffers.cc_push(Packet(0, 0, 0.0))
        buffers.cc_admit(0)
        delivered = transmit(buffers, [(("s0", "r"), 0, 1)], slot=9)
        assert delivered == []
        assert buffers.tx_backlog("r", 0) == 1


def relay_topology(hops: list) -> Topology:
    """Loop i runs s_i -> r1 -> r2 -> d_i cut to hops[i] links (1 to 3)."""
    paths = {}
    for i, h in enumerate(hops):
        nodes = [f"s{i}", "r1", "r2"][:h] + [f"d{i}"]
        paths[i] = tuple(zip(nodes, nodes[1:]))
    return Topology(nodes=frozenset(n for path in paths.values() for link in path for n in link),
                    links=frozenset(link for path in paths.values() for link in path),
                    paths=paths, src={i: path[0][0] for i, path in paths.items()},
                    dst={i: path[-1][1] for i, path in paths.items()})


assignment_lists = st.lists(st.tuples(st.integers(0, 2), st.integers(0, 3), st.integers(1, 3)),
                            max_size=4)  # (hop, loop, rate), hop and loop wrapped to the topology
slot_rounds = st.lists(st.tuples(
    st.lists(st.integers(0, 3), max_size=4),              # loops that push one packet each
    st.lists(st.integers(0, 3), max_size=3),              # loops whose CC buffer is admitted
    st.lists(assignment_lists, min_size=1, max_size=3),   # transmit calls within the slot
), max_size=12)


class TestCountsTransport:
    @settings(max_examples=300, deadline=None)
    @given(hops=st.lists(st.integers(1, 3), min_size=1, max_size=4), rounds=slot_rounds)
    def test_matches_deque_transport(self, hops, rounds):
        """Same deliveries, backlogs and residents as the deque buffers after
        every call, and diff rows equal to [B_p - B_p+1]+ of their lengths."""
        topo = relay_topology(hops)
        new, old = BufferSet(topo), engine_oracle.BufferSet(topo)

        def assert_same_state():
            assert new.resident() == old.resident()
            lengths = []
            for i, h in enumerate(hops):
                assert new.cc_backlog(i) == old.cc_backlog(i)
                for node in topo.path_nodes(i) + (topo.dst[i],):
                    assert new.tx_backlog(node, i) == old.tx_backlog(node, i)
                lengths.append([old.tx_backlog(node, i) for node in topo.path_nodes(i)]
                               + [0] * (4 - h))
            for p, row in enumerate(new.diff):
                assert row == [differential_backlog(q[p], q[p + 1]) for q in lengths]

        births = 0
        for slot, (pushes, admits, calls) in enumerate(rounds):
            for loop in pushes:
                loop %= len(hops)
                new.cc_push(Packet(loop, births, float(births)))
                old.cc_push(engine_oracle.Packet(loop, births, float(births)))
                births += 1
                assert_same_state()
            for loop in admits:
                loop %= len(hops)
                assert new.cc_admit(loop) == old.cc_admit(loop, slot)
                assert_same_state()
            for call in calls:
                assignments = []
                for p, loop, rate in call:
                    loop %= len(hops)
                    assignments.append((topo.paths[loop][p % hops[loop]], loop, rate))
                got = transmit(new, assignments, slot)
                want = engine_oracle.transmit(old, assignments, slot)
                assert ([(i, pk.birth_step, pk.payload) for i, pk in got]
                        == [(i, pk.birth_step, pk.payload) for i, pk in want])
                assert_same_state()


class TestStabilityDiagnostic:
    def test_constant_trace(self):
        diag = stability_diagnostic([2, 2, 2])
        assert diag.mean == 2.0
        assert not diag.diverging

    def test_ramp_mean(self):
        assert stability_diagnostic([0, 1, 2, 3]).mean == 1.5

    def test_linear_growth_flagged(self):
        trace = np.arange(1000, dtype=float)
        assert stability_diagnostic(trace).diverging

    def test_stationary_noise_not_flagged(self):
        rng = np.random.default_rng(0)
        trace = np.abs(rng.normal(5, 1, size=1000))
        assert not stability_diagnostic(trace).diverging

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            stability_diagnostic([])
