"""Buffers, Lindley dynamics, flow prioritization, WSR scheduling."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import engine_oracle
from ncsim.network import (ActionSet, BufferSet, TieStream, assign_flow,
                           pick_max_weight, stability_diagnostic, transmit,
                           wsr_schedule)


def tier_map(weights) -> dict:
    """A weight row indexed as `BufferSet.tiers` holds it: positive weight -> ascending ids."""
    tiers = {}
    for i, w in enumerate(weights):
        if w > 0:
            tiers.setdefault(w, []).append(i)
    return tiers


LINE = (2, 2)  # two loops, each source -> relay -> target


class TestCcAdmit:
    def test_single_packet_pass_through(self):
        buffers = BufferSet(LINE)
        buffers.cc_push(0)
        assert buffers.cc_admit(0) == 1
        assert buffers.cc[0] == 0
        assert buffers.backlog[0][0] == 1

    def test_empty_admits_nothing(self):
        buffers = BufferSet(LINE)
        assert buffers.cc_admit(0) == 0

    def test_whole_backlog_admitted(self):
        buffers = BufferSet(LINE)
        for _ in range(3):
            buffers.cc_push(0)
        assert buffers.cc_admit(0) == 3
        assert buffers.backlog[0][0] == 3


def source_queue_after(y, r, mu):
    """Loop 0's source queue and relay queue: y resident, r admitted, one slot serving mu."""
    buffers = BufferSet(LINE)
    for count in (y, r):
        for _ in range(count):
            buffers.cc_push(0)
        buffers.cc_admit(0)
    transmit(buffers, [(0, 0)] * mu)
    return buffers.backlog[0][0], buffers.backlog[1][0]


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

    def test_nan_weight_is_skipped(self):
        # a NaN is not a positive weight, wherever it comes in the map
        rng = np.random.default_rng(0)
        assert assign_flow({1: float("nan"), 2: 1.0}, rng) == 2
        assert assign_flow({1: float("nan")}, rng) is None

    @staticmethod
    def scanning_assign_flow(weights, rng):
        """The former list-scanning `assign_flow`, kept as the reference."""
        best = None
        tied = []
        for loop, w in weights.items():
            if w <= 0:
                continue
            if best is None or w > best:
                best = w
                tied = [loop]
            elif w == best:
                tied.append(loop)
        if not tied:
            return None
        if len(tied) == 1:
            return tied[0]
        return tied[int(rng.integers(len(tied)))]

    @settings(max_examples=300, deadline=None)
    @given(weights=st.dictionaries(
               st.integers(0, 40),
               st.one_of(st.integers(-2, 4), st.integers(-2, 4).map(float),
                         st.floats(allow_nan=False)),
               max_size=12),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_the_scanning_pick(self, weights, seed):
        """Same winner and the same Generator draws as the list-scanning pick."""
        rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        assert assign_flow(weights, rng) == self.scanning_assign_flow(weights, want_rng)
        assert rng.bit_generator.state == want_rng.bit_generator.state


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
        tiers = tier_map(weights)
        assert pick_max_weight(tiers, capacity, ties) == want
        # both streams drew as many 32-bit halves
        assert ties.integers(2**32 - 1) == old_rng.integers(2**32 - 1)
        assert tiers == tier_map(weights)

    @staticmethod
    def sequential_pick(tiers, capacity, rng):
        """The tie rule written once: whole tiers from the top while they fit, then
        one draw per pick among the tied loops not yet drawn."""
        chosen = []
        for weight in sorted(tiers, reverse=True):
            rest, need = list(tiers[weight]), capacity - len(chosen)
            chosen += rest if len(rest) <= need else [
                rest.pop(rng.integers(len(rest))) for _ in range(need)]
            if len(chosen) == capacity:
                break
        return chosen

    @settings(max_examples=300, deadline=None)
    @given(weights=st.lists(st.integers(-1, 3), max_size=16),
           seed=st.integers(0, 2**32 - 1))
    def test_one_rule_at_every_capacity(self, weights, seed):
        """The unrolled one- and two-pick draws are the general sequential draw."""
        tiers = tier_map(weights)
        for capacity in range(1, 7):
            ties, rng = TieStream(np.random.PCG64(seed)), np.random.default_rng(seed)
            assert pick_max_weight(tiers, capacity, ties) == self.sequential_pick(
                tiers, capacity, rng)
            assert ties.integers(2**32 - 1) == rng.integers(2**32 - 1)

    def test_empty_map_picks_nothing_and_draws_nothing(self):
        for capacity in (1, 2, 3):
            ties = TieStream(np.random.PCG64(capacity))
            assert pick_max_weight({}, capacity, ties) == []
            assert ties.integers(2**32 - 1) == np.random.default_rng(capacity).integers(2**32 - 1)

    def test_one_weight_matches_the_sequential_pick(self):
        """A map of one weight, at need 1, 2 and 3, for ties of 1 to 5 loops."""
        for tied in range(1, 6):
            tiers = {3: list(range(10, 10 + tied))}
            for capacity in (1, 2, 3):
                for seed in range(20):
                    ties, rng = TieStream(np.random.PCG64(seed)), np.random.default_rng(seed)
                    assert pick_max_weight(tiers, capacity, ties) == self.sequential_pick(
                        tiers, capacity, rng)
                    assert ties.integers(2**32 - 1) == rng.integers(2**32 - 1)

    def test_generator_never_repeats_a_loop(self):
        for seed in range(200):
            picks = pick_max_weight({1: list(range(6))}, 4, np.random.default_rng(seed))
            assert len(picks) == len(set(picks)) == 4

    def test_ties_are_uniform_over_subsets(self):
        """3 picks from a 5-loop tie: each of the 10 subsets within 5 sigma of n/10."""
        ties, n = TieStream(np.random.PCG64(7)), 20_000
        counts = Counter(frozenset(pick_max_weight({2: [0, 1, 2, 3, 4]}, 3, ties))
                         for _ in range(n))
        assert len(counts) == 10
        sigma = (n * 0.1 * 0.9) ** 0.5
        assert all(abs(c - n / 10) <= 5 * sigma for c in counts.values())


tie_draws = st.one_of(
    st.integers(1, 50),
    # past 2**31 about half the 32-bit draws are rejected and redrawn
    st.integers(2**31 + 1, 2**32 - 1))


class TestTieStream:
    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), block=st.integers(1, 300),
           draws=st.lists(tie_draws, max_size=25))
    def test_matches_generator_draw_for_draw(self, seed, block, draws):
        rng = np.random.default_rng(seed)
        ties = TieStream(np.random.PCG64(seed))
        ties.BLOCK = block  # small blocks make the draws cross refills
        for n in draws:
            assert ties.integers(n) == rng.integers(n)

    def test_out_of_range_rejected(self):
        ties = TieStream(np.random.PCG64(0))
        for n in (0, 2**32):
            with pytest.raises(ValueError):
                ties.integers(n)


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
        buffers = BufferSet(LINE)
        for _ in range(2):
            buffers.cc_push(0)
        buffers.cc_admit(0)
        return buffers

    def test_fifo_pop_respects_rate(self):
        buffers = self.setup_buffers()
        delivered = transmit(buffers, [(0, 0)])
        assert delivered == []
        assert buffers.backlog[0][0] == 1
        assert buffers.backlog[1][0] == 1
        assert transmit(buffers, [(1, 0)]) == [0]

    def test_empty_buffer_no_movement(self):
        buffers = BufferSet(LINE)
        assert transmit(buffers, [(0, 0)] * 5) == []

    def test_relayed_data_waits_one_slot(self):
        buffers = BufferSet(LINE)
        buffers.cc_push(0)
        buffers.cc_admit(0)
        # the relay pair runs first, before the packet reaches the relay
        assert transmit(buffers, [(0, 0), (1, 0)]) == []
        assert [row[0] for row in buffers.backlog] == [0, 1, 0]

    def test_delivery_at_target_is_emitted_not_buffered(self):
        buffers = self.setup_buffers()
        transmit(buffers, [(0, 0)] * 2)
        assert transmit(buffers, [(1, 0)] * 2) == [0, 0]
        assert [row[0] for row in buffers.backlog] == [0, 0, 0]  # target buffers do not exist
        assert buffers.resident() == 0

    def test_move_that_keeps_a_weight_keeps_its_tiers(self):
        """Row 0's gap goes from -2 to -1 on a relay move: its weight stays 0."""
        buffers = BufferSet((3,))
        buffers.cc_push(0)
        buffers.cc_push(0)
        buffers.cc_admit(0)
        transmit(buffers, [(0, 0)])
        transmit(buffers, [(0, 0)])
        assert [row[0] for row in buffers.backlog] == [0, 2, 0, 0]
        transmit(buffers, [(1, 0)])
        assert [row[0] for row in buffers.backlog] == [0, 1, 1, 0]
        assert [row[0] for row in buffers.diff] == [0, 0, 1]
        for p, row in enumerate(buffers.diff):
            assert buffers.tiers[p] == tier_map(row)

    def test_source_admission_same_slot_allowed(self):
        buffers = BufferSet(LINE)
        buffers.cc_push(0)
        buffers.cc_admit(0)
        delivered = transmit(buffers, [(0, 0)])
        assert delivered == []
        assert buffers.backlog[1][0] == 1


assignment_lists = st.lists(st.tuples(st.integers(0, 2), st.integers(0, 3), st.integers(1, 3)),
                            max_size=4)  # (hop, loop, rate), hop and loop wrapped to the paths
slot_rounds = st.lists(st.tuples(
    st.lists(st.integers(0, 3), max_size=4),              # loops that push one packet each
    st.lists(st.integers(0, 3), max_size=3),              # loops whose CC buffer is admitted
    st.lists(assignment_lists, min_size=1, max_size=3),   # one slot, one transmit call each
), max_size=12)


class TestCountsTransport:
    @settings(max_examples=300, deadline=None)
    @given(hops=st.lists(st.integers(1, 3), min_size=1, max_size=4), rounds=slot_rounds)
    def test_matches_deque_transport(self, hops, rounds):
        """Same deliveries per loop and residents as the deque buffers
        after every slot, each loop's backlog column equal to its deque lengths
        along the path (zero past it), and diff rows equal to [B_p - B_p+1]+ of
        those.  A rate r is r (hop, loop) pairs in the slot's one call, which
        lists its pairs in ascending hop order, as `engine.run` does."""
        paths = engine_oracle.line_paths(hops)
        new, old = BufferSet(hops), engine_oracle.BufferSet(paths)

        def assert_same_state():
            assert new.resident() == old.resident()
            lengths = []
            for i, path in paths.items():
                assert new.cc[i] == old.cc_backlog(i)
                assert (path[-1][1], i) not in old.tx  # no buffer at the target
                want = ([old.tx_backlog(m, i) for m, _ in path]
                        + [0] * (len(new.backlog) - len(path)))
                assert [row[i] for row in new.backlog] == want
                lengths.append(want)
            for p, row in enumerate(new.diff):
                assert row == [max(q[p] - q[p + 1], 0) for q in lengths]
                assert new.tiers[p] == tier_map(row)

        births = 0
        slot = 0
        for pushes, admits, calls in rounds:
            for loop in pushes:
                loop %= len(hops)
                new.cc_push(loop)
                old.cc_push(engine_oracle.Packet(loop, births, float(births)))
                births += 1
                assert_same_state()
            for loop in admits:
                loop %= len(hops)
                assert new.cc_admit(loop) == old.cc_admit(loop, slot)
                assert_same_state()
            for call in calls:
                pairs, links = [], []
                for p, loop, rate in call:
                    loop %= len(hops)
                    p %= hops[loop]
                    pairs += [(p, loop)] * rate
                    links.append((paths[loop][p], loop, rate))
                got = transmit(new, sorted(pairs))
                want = engine_oracle.transmit(old, links, slot)
                assert sorted(got) == sorted(i for i, _ in want)
                assert_same_state()
                slot += 1

    @settings(max_examples=200, deadline=None)
    @given(hops=st.lists(st.integers(1, 3), min_size=1, max_size=4), rounds=slot_rounds,
           rng=st.randoms(use_true_random=False))
    def test_order_within_a_hop_does_not_matter(self, hops, rounds, rng):
        """Each call's pairs in hop order, each hop's pairs once as drawn and once
        shuffled: the same counts, weights and tiers, and the same deliveries."""
        drawn, shuffled = BufferSet(hops), BufferSet(hops)
        for pushes, admits, calls in rounds:
            for buffers in (drawn, shuffled):
                for loop in pushes:
                    buffers.cc_push(loop % len(hops))
                for loop in admits:
                    buffers.cc_admit(loop % len(hops))
            for call in calls:
                by_hop = [[] for _ in range(max(hops))]
                for p, loop, rate in call:
                    loop %= len(hops)
                    p %= hops[loop]
                    by_hop[p] += [(p, loop)] * rate
                pairs = [pair for group in by_hop for pair in group]
                for group in by_hop:
                    rng.shuffle(group)
                got = transmit(shuffled, [pair for group in by_hop for pair in group])
                assert Counter(got) == Counter(transmit(drawn, pairs))
                assert shuffled.backlog == drawn.backlog
                assert shuffled.diff == drawn.diff
                assert shuffled.tiers == drawn.tiers


class TestPicksMoveOnePacket:
    @settings(max_examples=200, deadline=None)
    @given(hops=st.lists(st.integers(1, 3), min_size=1, max_size=6),
           rounds=st.lists(st.tuples(st.lists(st.integers(0, 5), max_size=6),
                                     st.lists(st.integers(1, 3), min_size=3, max_size=3)),
                           max_size=15),
           seed=st.integers(0, 2**32 - 1))
    def test_every_pick_moves_exactly_one_packet(self, hops, rounds, seed):
        """What the engine relies on: the links `pick_max_weight` takes from the
        tiers at the start of a slot each move one packet in `transmit`, so
        a pick lowers its hop's backlog by one and raises the next hop's (or
        delivers) by one.  After every cc_admit and transmit, each hop's
        tiers index its diff row."""
        buffers = BufferSet(hops)
        ties = TieStream(np.random.PCG64(seed))

        def assert_tiers_index_diff():
            for p, row in enumerate(buffers.diff):
                assert buffers.tiers[p] == tier_map(row)

        for pushes, capacities in rounds:
            for loop in pushes:
                loop %= len(hops)
                buffers.cc_push(loop)
                buffers.cc_admit(loop)
                assert_tiers_index_diff()
            picks = {(p, i) for p, tiers in enumerate(buffers.tiers)
                     for i in pick_max_weight(tiers, capacities[p], ties)}
            before = [list(row) for row in buffers.backlog]
            # upstream first, as the engine lists its hop groups
            delivered = transmit(buffers, sorted(picks))
            assert_tiers_index_diff()
            for i, h in enumerate(hops):
                for p in range(h):
                    moved_in = p > 0 and (p - 1, i) in picks
                    assert buffers.backlog[p][i] == before[p][i] - ((p, i) in picks) + moved_in
            assert sorted(delivered) == sorted(i for p, i in picks if p == hops[i] - 1)


def half_sums(trace) -> tuple:
    """Per column of a (steps, loops) trace, its sums over the first and the last steps // 2 rows."""
    trace = np.asarray(trace)
    half = trace.shape[0] // 2
    return trace[:half].sum(axis=0), trace[trace.shape[0] - half:].sum(axis=0)


class TestStabilityDiagnostic:
    def test_constant_trace(self):
        assert not stability_diagnostic(*half_sums([[2], [2], [2]]))[0]

    def test_linear_growth_flagged(self):
        assert stability_diagnostic(*half_sums(np.arange(1000)[:, None]))[0]

    def test_stationary_noise_not_flagged(self):
        rng = np.random.default_rng(0)
        trace = rng.poisson(5, size=(1000, 1))
        assert not stability_diagnostic(*half_sums(trace))[0]

    def test_one_flag_per_column(self):
        rng = np.random.default_rng(0)
        trace = np.column_stack([rng.poisson(5, size=1000), np.arange(1000)])
        assert stability_diagnostic(*half_sums(trace)).tolist() == [False, True]

    def test_empty_halves_flag_nothing(self):
        # a one-step run has no boundary in either half
        assert stability_diagnostic([0, 0], [0, 0]).tolist() == [False, False]

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda loops: st.lists(
        st.lists(st.integers(0, 8) | st.integers(0, 2**31 - 1),
                 min_size=loops, max_size=loops),
        min_size=1, max_size=60)))
    def test_sums_flag_as_the_half_averages_do(self, rows):
        trace = np.array(rows, dtype=np.int64)
        got = stability_diagnostic(*half_sums(trace)).tolist()
        assert got == [engine_oracle.stability_diagnostic(trace[:, i]).diverging
                       for i in range(trace.shape[1])]
