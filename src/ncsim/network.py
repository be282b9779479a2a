"""Packet transport over a fixed-route multi-hop network.

Buffers follow Lindley dynamics, congestion control is pass-through (the
network-aware sampler already throttles injection), and per-slot link use
is decided by back-pressure: flows are prioritized by differential backlog
[B_source - B_nexthop]+ and the joint action maximizes the weighted sum
rate over an enumerable action set.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable, Mapping, Sequence

import numpy as np

Node = Hashable
Link = tuple  # (from_node, to_node)


class RateContractError(RuntimeError):
    """A flow was assigned more rate than its link supports."""


@dataclass(frozen=True)
class Topology:
    """Nodes, directed links, and one fixed path per loop."""

    nodes: frozenset
    links: frozenset
    paths: dict  # loop id -> tuple of links
    src: dict    # loop id -> source node
    dst: dict    # loop id -> target node

    def __post_init__(self):
        for loop, path in self.paths.items():
            if not path:
                raise ValueError(f"loop {loop}: path is empty")
            if path[0][0] != self.src[loop]:
                raise ValueError(f"loop {loop}: path does not start at its source")
            if path[-1][1] != self.dst[loop]:
                raise ValueError(f"loop {loop}: path does not end at its target")
            visited = {path[0][0]}
            prev_end = path[0][0]
            for link in path:
                m, n_ = link
                if link not in self.links:
                    raise ValueError(f"loop {loop}: link {link} not in topology")
                if m != prev_end:
                    raise ValueError(f"loop {loop}: path is not connected at {link}")
                if n_ in visited:
                    raise ValueError(f"loop {loop}: path revisits node {n_}")
                visited.add(n_)
                prev_end = n_
            for node in visited:
                if node not in self.nodes:
                    raise ValueError(f"loop {loop}: node {node} not in topology")

    def path_nodes(self, loop) -> tuple:
        """Nodes along the loop's path, source first, excluding the target."""
        return tuple(link[0] for link in self.paths[loop])


@dataclass(frozen=True)
class Packet:
    """One sampled state in flight; size is in whole information units."""

    loop_id: int
    birth_step: int
    payload: float
    size: int = 1

    def __post_init__(self):
        if self.size <= 0:
            raise ValueError("packet size must be positive")


class BufferSet:
    """Per-loop CC buffers at the sources plus per-(node, loop) MAC buffers.

    MAC entries are (ready_slot, packet): data admitted from the CC buffer
    is transmittable in the admission slot, data received over a link only
    from the next slot.  Destination buffers do not exist; arrivals there
    are handed straight up.
    """

    def __init__(self, topology: Topology):
        self.topology = topology
        self.cc = {loop: deque() for loop in topology.paths}
        self.tx = {(node, loop): deque()
                   for loop in topology.paths
                   for node in topology.path_nodes(loop)}

    def cc_push(self, packet: Packet) -> None:
        self.cc[packet.loop_id].append(packet)

    def cc_admit(self, loop, slot: int) -> int:
        """Pass-through congestion control: admit the whole CC backlog."""
        queue = self.cc[loop]
        target = self.tx[(self.topology.src[loop], loop)]
        admitted = len(queue)
        while queue:
            target.append((slot, queue.popleft()))
        return admitted

    def tx_backlog(self, node, loop) -> int:
        return len(self.tx.get((node, loop), ()))

    def cc_backlog(self, loop) -> int:
        return len(self.cc[loop])

    def resident(self) -> int:
        """Packets currently held anywhere (CC plus MAC)."""
        return (sum(len(q) for q in self.cc.values())
                + sum(len(q) for q in self.tx.values()))


def lindley_step(y: float, r: float, mu: float) -> float:
    """Queue recursion y+ = max(y + arrivals - service, 0)."""
    if y < 0 or r < 0 or mu < 0:
        raise ValueError("backlog, arrivals and service must be non-negative")
    return max(y + r - mu, 0.0)


def differential_backlog(b_m: float, b_n: float, theta: float = 1.0) -> float:
    """Back-pressure weight theta * [B_m - B_n]+ of a flow on link (m, n)."""
    return theta * max(b_m - b_n, 0.0)


def assign_flow(weights: Mapping, rng: np.random.Generator):
    """Loop that wins a link: argmax weight, uniform among ties, None if all zero."""
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


def pick_max_weight(weights: list, capacity: int, rng: np.random.Generator) -> list:
    """Indices of up to `capacity` largest positive weights, uniform among ties.

    Per-hop max-weight selection: weights are taken tier by tier from the
    top; a tier larger than the remaining capacity is sampled without
    replacement from `rng`.  Entries taken are masked while picking and
    restored before returning, so `weights` is left as it was given.
    """
    chosen: list = []
    masked: list = []  # (tier, weight) of whole tiers hidden from later rounds
    need = capacity
    while need > 0:
        top = max(weights, default=0)
        if top <= 0:
            break
        tied = weights.count(top)
        if tied == 1:
            take = [weights.index(top)]
        else:
            tier = []
            j = -1
            for _ in range(tied):
                j = weights.index(top, j + 1)
                tier.append(j)
            if tied <= need:
                take = tier
            elif need == 1:
                take = [tier[int(rng.integers(tied))]]
            elif need == 2:
                # uniform unordered pair without replacement
                first = int(rng.integers(tied))
                second = int(rng.integers(tied - 1))
                if second >= first:
                    second += 1
                take = [tier[first], tier[second]]
            else:
                take = [tier[j] for j in rng.choice(tied, size=need, replace=False)]
        chosen += take
        need -= len(take)
        if need > 0:  # the whole tier was taken
            for j in take:
                weights[j] = 0
            masked.append((take, top))
    for tier, top in masked:
        for j in tier:
            weights[j] = top
    return chosen


@dataclass(frozen=True)
class ActionSet:
    """Enumerable joint actions plus the rate function R(Q, A) per link."""

    actions: Iterable
    rate_fn: Callable  # (link_state, action) -> {link: rate}

    def rates(self, link_state, action) -> Mapping:
        return self.rate_fn(link_state, action)


@dataclass(frozen=True)
class ScheduleChoice:
    action: object
    rates: Mapping
    value: float


def wsr_schedule(link_state, link_weights: Mapping, action_set: ActionSet,
                 rng: np.random.Generator) -> ScheduleChoice:
    """Weighted-sum-rate maximization by exhaustive enumeration.

    Evaluates sum_{mn} W_mn * R_mn(Q, A) for every action and returns a
    maximizer, chosen uniformly at random among exact-value ties.
    """
    best_value = None
    best: list = []
    for action in action_set.actions:
        rates = action_set.rate_fn(link_state, action)
        value = 0.0
        for link, rate in rates.items():
            w = link_weights.get(link, 0.0)
            if w:
                value += w * rate
        if best_value is None or value > best_value:
            best_value = value
            best = [(action, rates)]
        elif value == best_value:
            best.append((action, rates))
    if best_value is None:
        raise ValueError("action set is empty")
    action, rates = best[int(rng.integers(len(best)))] if len(best) > 1 else best[0]
    return ScheduleChoice(action=action, rates=rates, value=best_value)


def transmit(buffers: BufferSet, assignments: Sequence, slot: int,
             link_capacity: Mapping | None = None) -> list:
    """Move packets for one slot; returns [(loop, packet)] delivered packets.

    `assignments` is a sequence of (link, loop, rate).  Whole packets move
    FIFO, at most floor(rate) per assignment, and only packets already
    transmittable this slot (relayed data waits one slot).  Packets that
    reach the loop's target node are emitted, never buffered.
    """
    if link_capacity is not None:
        totals: dict = {}
        for link, _, rate in assignments:
            totals[link] = totals.get(link, 0.0) + rate
        for link, total in totals.items():
            cap = link_capacity.get(link, 0.0)
            if total > cap + 1e-12:
                raise RateContractError(
                    f"link {link}: assigned rate {total:g} exceeds capacity {cap:g}")

    delivered = []
    for link, loop, rate in assignments:
        m, n = link
        queue = buffers.tx[(m, loop)]
        to_target = n == buffers.topology.dst[loop]
        budget = int(rate)
        while budget > 0 and queue and queue[0][0] <= slot:
            _, packet = queue.popleft()
            budget -= packet.size
            if budget < 0:
                # whole packets only: put it back if it does not fit
                queue.appendleft((slot, packet))
                break
            if to_target:
                delivered.append((loop, packet))
            else:
                buffers.tx[(n, loop)].append((slot + 1, packet))
    return delivered


@dataclass(frozen=True)
class BacklogDiagnostic:
    mean: float
    diverging: bool


def stability_diagnostic(trace: Sequence[float]) -> BacklogDiagnostic:
    """Time-average backlog plus a linear-growth flag.

    The trace is flagged as diverging when the average over its second half
    exceeds twice the average over the first half.
    """
    arr = np.asarray(trace, dtype=float)
    if arr.size == 0:
        raise ValueError("backlog trace is empty")
    mean = float(arr.mean())
    half = arr.size // 2
    diverging = False
    if half >= 1:
        first = float(arr[:half].mean())
        second = float(arr[arr.size - half:].mean())
        diverging = second > 2.0 * first and second > 0.0
    return BacklogDiagnostic(mean=mean, diverging=diverging)


@dataclass(frozen=True)
class ConstantLinkState:
    """Stationary link-state process with a fixed quality for every link."""

    quality: float = 1.0
    constant: bool = True

    def sample(self, rng: np.random.Generator, slot: int) -> float:
        return self.quality
