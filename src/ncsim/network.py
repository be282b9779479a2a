"""Packet transport over a fixed-route multi-hop network.

Packets are unit-size and FIFO per loop, so every queue is an integer count
that `BufferSet` keeps, with its differential backlog [B_source - B_nexthop]+,
as Lindley dynamics move packets.  Congestion control is pass-through (the
network-aware sampler already throttles injection), and per-slot link use is
decided by back-pressure: flows are prioritized by differential backlog and
the joint action maximizes the weighted sum rate over an enumerable action set.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Mapping, NamedTuple, Sequence

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


class Packet(NamedTuple):
    """One sampled state in flight; every packet is one unit of data."""

    loop_id: int
    birth_step: int
    payload: float


class BufferSet:
    """Queue state as integer counts, for loops 0..L-1 along H hops at most.

    backlog[p][i] counts loop i's packets in the MAC buffer at hop p of its
    path (0 past the path; row H is all zero) and diff[p][i] is the weight
    [backlog[p][i] - backlog[p+1][i]]+; cc_admit and transmit update both
    for the loops they move.  A loop's resident packets, CC buffer included,
    form one deque in birth order, whose head is the next to be delivered.
    Admitted data is transmittable in the admission slot, data received over
    a link only from the next slot: arrived[p][i] = (slot, count) stamps the
    latest arrivals at hop p.  Slots never decrease.  Destination buffers do
    not exist; arrivals there are handed straight up.
    """

    def __init__(self, topology: Topology):
        loops = range(len(topology.paths))
        self.last = [len(topology.paths[i]) - 1 for i in loops]  # hop that reaches the target
        self.hop = {(node, i): p for i in loops
                    for p, node in enumerate(topology.path_nodes(i))}
        hops = max(self.last, default=-1) + 1
        self.backlog = [[0] * len(loops) for _ in range(hops + 1)]
        self.diff = [[0] * len(loops) for _ in range(hops)]
        self.arrived = [[(None, 0)] * len(loops) for _ in range(hops)]
        self.packets = [deque() for _ in loops]
        self.cc = [0] * len(loops)

    def cc_push(self, packet: Packet) -> None:
        self.packets[packet.loop_id].append(packet)
        self.cc[packet.loop_id] += 1

    def cc_admit(self, loop) -> int:
        """Pass-through congestion control: admit the whole CC backlog now."""
        admitted = self.cc[loop]
        if admitted:
            self.cc[loop] = 0
            q0 = self.backlog[0]
            q0[loop] += admitted
            gap = q0[loop] - self.backlog[1][loop]
            self.diff[0][loop] = gap if gap > 0 else 0
        return admitted

    def tx_backlog(self, node, loop) -> int:
        p = self.hop.get((node, loop))
        return 0 if p is None else self.backlog[p][loop]

    def cc_backlog(self, loop) -> int:
        return self.cc[loop]

    def resident(self) -> int:
        """Packets currently held anywhere (CC plus MAC)."""
        return sum(map(len, self.packets))


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


class TieStream:
    """The draws `integers(n)` and `choice(n, k)` (no replacement) of a Generator.

    Reads the bit generator's raw 64-bit outputs BLOCK at a time and returns,
    draw for draw, what a Generator on it would: 32-bit halves, low half
    first, scaled by Lemire's method with rejection; `choice` is Floyd's
    algorithm, then a Fisher-Yates shuffle of the k picks.  The Generator
    leaves that `choice` path when n > 10000 and k > n // 50; that is rejected.
    """

    BLOCK = 256
    MAX_CHOICE = 10_000

    def __init__(self, bit_generator: np.random.BitGenerator):
        self._raw = bit_generator.random_raw
        self._halves: list = []  # 32-bit halves not yet read, next one last

    def _next32(self) -> int:
        if not self._halves:
            # little-endian order puts each output's low half first
            self._halves = self._raw(self.BLOCK).astype("<u8").view("<u4")[::-1].tolist()
        return self._halves.pop()

    def integers(self, n: int) -> int:
        """Uniform on 0..n-1 for 1 <= n < 2**32; n = 1 reads nothing."""
        if not 1 <= n < 2**32:
            raise ValueError(f"n must be in 1..2**32-1, got {n}")
        if n == 1:
            return 0
        m = self._next32() * n
        if m & 0xFFFFFFFF < n:
            threshold = (0x100000000 - n) % n
            while m & 0xFFFFFFFF < threshold:
                m = self._next32() * n
        return m >> 32

    def choice(self, n: int, size: int) -> list:
        if n < 1 or not 0 <= size <= n or n > self.MAX_CHOICE and size > n // 50:
            raise ValueError(f"not a sample the Generator draws by Floyd: n={n}, size={size}")
        picks: list = []
        taken = set()
        for j in range(n - size, n):
            val = self.integers(j + 1)
            if val in taken:
                val = j
            taken.add(val)
            picks.append(val)
        for i in range(size - 1, 0, -1):
            j = self.integers(i + 1)
            picks[i], picks[j] = picks[j], picks[i]
        return picks


def pick_max_weight(weights: list, capacity: int, rng: TieStream) -> list:
    """Indices of up to `capacity` largest positive weights, uniform among ties.

    Per-hop max-weight selection: weights are taken tier by tier from the
    top; a tier larger than the remaining capacity is sampled without
    replacement from the TieStream `rng`.  Entries taken are masked while
    picking and restored before returning, so `weights` is left as it was
    given.
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
                take = [tier[j] for j in rng.choice(tied, need)]
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
    backlog, diff, arrived = buffers.backlog, buffers.diff, buffers.arrived
    hops = len(diff)
    for (m, _), loop, rate in assignments:
        p = buffers.hop[m, loop]
        here = backlog[p]
        stamp, fresh = arrived[p][loop]
        moved = min(int(rate), here[loop] - fresh if stamp == slot else here[loop])
        if moved <= 0:
            continue
        here[loop] -= moved
        if p == buffers.last[loop]:
            pop = buffers.packets[loop].popleft
            for _ in range(moved):
                delivered.append((loop, pop()))
        else:
            backlog[p + 1][loop] += moved
            stamp, fresh = arrived[p + 1][loop]
            arrived[p + 1][loop] = (slot, fresh + moved if stamp == slot else moved)
        for q in range(p - 1 if p else 0, min(p + 2, hops)):  # weights reading hop p or p+1
            gap = backlog[q][loop] - backlog[q + 1][loop]
            diff[q][loop] = gap if gap > 0 else 0
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

