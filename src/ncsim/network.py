"""Packet transport over a fixed-route multi-hop network.

Each loop has one fixed path, and a hop is addressed by its position on
that path: hop 0 leaves the source, the path's last hop reaches the target.
No queue is shared between loops, so a path is just its number of hops.
Packets are unit-size and FIFO per loop, so every queue is an integer count
that `BufferSet` keeps per (position, loop), with its differential backlog
[B_p - B_p+1]+, as Lindley dynamics move packets: each scheduled link moves
one packet per slot, downstream hops first.  Congestion control is
pass-through (the network-aware sampler already throttles injection), and
per-slot link use is decided by back-pressure: flows are prioritized by
differential backlog and the joint action maximizes the weighted sum rate
over an enumerable action set.  `BufferSet` also keeps, per hop position,
the loops bucketed by their positive differential backlog, so a per-hop
max-weight pick reads the top buckets instead of every loop.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np


class BufferSet:
    """Queue state as integer counts for loops 0..L-1, loop i's path `hops[i]` links long.

    backlog[p][i] counts loop i's packets in the MAC buffer at position p of
    its path (0 past the path; row H = max(hops) is all zero) and diff[p][i]
    is the weight [backlog[p][i] - backlog[p+1][i]]+.  tiers[p] indexes row
    diff[p] by weight: it maps each positive weight w to the ascending list
    of the loops i with diff[p][i] == w, and holds no empty list and no key 0.
    cc_admit and transmit update all three for the loops they move.  cc[i]
    counts loop i's packets held by congestion control, not yet admitted to
    position 0.  The network holds counts only: what a packet carries stays
    with its loop, which sees the packet leave in FIFO order.  Admitted
    data is transmittable in the admission slot, data relayed by `transmit`
    only from its next call.  Destination buffers do not exist; arrivals
    there are handed straight up.
    """

    def __init__(self, hops: Sequence):
        L = len(hops)
        self.last = [h - 1 for h in hops]  # per loop, the hop that reaches its target
        H = max(hops, default=0)
        self.backlog = [[0] * L for _ in range(H + 1)]
        self.diff = [[0] * L for _ in range(H)]
        self.tiers = [{} for _ in range(H)]
        # per hop p, the weight rows reading backlog[p] or backlog[p+1]
        self.affected = [range(p - 1 if p else 0, min(p + 2, H)) for p in range(H)]
        self.cc = [0] * L

    def cc_push(self, loop: int) -> None:
        self.cc[loop] += 1

    def cc_admit(self, loop) -> int:
        """Pass-through congestion control: admit the whole CC backlog now."""
        admitted = self.cc[loop]
        if admitted:
            self.cc[loop] = 0
            q0 = self.backlog[0]
            q0[loop] += admitted
            gap = q0[loop] - self.backlog[1][loop]
            if gap > 0:  # else the weight was 0 and stays 0
                _reweigh(self.diff[0], self.tiers[0], loop, gap)
        return admitted

    def resident(self) -> int:
        """Packets currently held anywhere (CC plus MAC), summed from the counts."""
        return sum(self.cc) + sum(map(sum, self.backlog))


def _reweigh(diff: list, tiers: dict, loop: int, weight: int) -> None:
    """Set diff[loop] to `weight`, a new value, moving the loop to that weight's tier."""
    old = diff[loop]
    diff[loop] = weight
    if old:
        tier = tiers[old]
        tier.remove(loop)
        if not tier:
            del tiers[old]
    if weight:
        insort(tiers.setdefault(weight, []), loop)


def assign_flow(weights: Mapping, rng: np.random.Generator):
    """Loop that wins a link, as `pick_max_weight` of one picks; None if no weight is positive."""
    tiers: dict = {}
    for loop, w in weights.items():
        if w > 0:
            tiers.setdefault(w, []).append(loop)
    return next(iter(pick_max_weight(tiers, 1, rng)), None)


class TieStream:
    """The draws `integers(n)` of a Generator.

    Reads the bit generator's raw 64-bit outputs BLOCK at a time and returns,
    draw for draw, what a Generator on it would: 32-bit halves, low half
    first, scaled by Lemire's method with rejection.
    """

    BLOCK = 256

    def __init__(self, bit_generator: np.random.BitGenerator):
        self._raw = bit_generator.random_raw
        self._halves: list = []  # 32-bit halves not yet read, next one last

    def _refill(self) -> list:
        # little-endian order puts each output's low half first
        self._halves = self._raw(self.BLOCK).astype("<u8").view("<u4")[::-1].tolist()
        return self._halves

    def integers(self, n: int) -> int:
        """Uniform on 0..n-1 for 1 <= n < 2**32; n = 1 reads nothing."""
        if not 1 <= n < 2**32:
            raise ValueError(f"n must be in 1..2**32-1, got {n}")
        if n == 1:
            return 0
        m = (self._halves or self._refill()).pop() * n
        if m & 0xFFFFFFFF < n:
            threshold = (0x100000000 - n) % n
            while m & 0xFFFFFFFF < threshold:
                m = (self._halves or self._refill()).pop() * n
        return m >> 32


def pick_max_weight(tiers: dict, capacity: int, rng: TieStream) -> list:
    """Up to `capacity` loops of the largest weights, uniform among ties.

    Per-hop max-weight selection over one hop's `BufferSet.tiers` map: tiers
    are taken whole from the top weight down while they fit; the first tier
    larger than the remaining capacity is sampled without replacement, one
    `rng.integers` draw per pick among the tied loops not yet drawn (`rng` a
    `TieStream` or a numpy Generator).  `tiers` is only read.
    """
    chosen: list = []
    need = capacity
    for weight in sorted(tiers, reverse=True) if len(tiers) > 1 else tiers:
        tier = tiers[weight]
        tied = len(tier)
        if tied <= need:
            chosen += tier
            need -= tied
            if need:
                continue
        elif need == 1:
            chosen.append(tier[rng.integers(tied)])
        elif need == 2:
            # the general draw below, unrolled: the second pick skips the first
            first = rng.integers(tied)
            second = rng.integers(tied - 1)
            if second >= first:
                second += 1
            chosen += (tier[first], tier[second])
        else:
            rest = tier[:]
            chosen += [rest.pop(rng.integers(len(rest))) for _ in range(need)]
        break
    return chosen


@dataclass(frozen=True)
class ActionSet:
    """Enumerable joint actions plus the rate function R(Q, A) per link."""

    actions: Iterable
    rate_fn: Callable  # (link_state, action) -> {link: rate}


@dataclass(frozen=True)
class ScheduleChoice:
    action: object
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
            best = [action]
        elif value == best_value:
            best.append(action)
    if best_value is None:
        raise ValueError("action set is empty")
    action = best[int(rng.integers(len(best)))] if len(best) > 1 else best[0]
    return ScheduleChoice(action=action, value=best_value)


def transmit(buffers: BufferSet, assignments: Sequence) -> list:
    """Move one packet per scheduled link; returns the loops whose packet was delivered.

    `assignments` lists (hop, loop) pairs in ascending hop order, as
    `engine.run` picks them; `hop` is the position on the loop's path.  Each
    pair moves one of the loop's packets at that hop one hop on, if the buffer
    there holds one.  Pairs run last first, so downstream hops move first and
    a packet relayed in this call waits for the next one.  A packet leaving its
    path's last hop is emitted, never buffered: its loop is listed per packet.
    """
    delivered = []
    backlog, diff, tiers = buffers.backlog, buffers.diff, buffers.tiers
    last, affected = buffers.last, buffers.affected
    for p, loop in reversed(assignments):
        here = backlog[p]
        if not here[loop]:
            continue
        here[loop] -= 1
        if p == last[loop]:
            delivered.append(loop)
        else:
            backlog[p + 1][loop] += 1
        for q in affected[p]:
            gap = backlog[q][loop] - backlog[q + 1][loop]
            if gap < 0:
                gap = 0
            if gap != diff[q][loop]:
                _reweigh(diff[q], tiers[q], loop, gap)
    return delivered


def stability_diagnostic(first, second) -> np.ndarray:
    """Per loop, a linear-growth flag from its backlog summed over each half of the steps.

    A loop is flagged as diverging when its second-half sum exceeds twice
    its first-half sum.  Over halves of h steps each, that is the rule on
    the half-averages, second/h > 2 first/h: the sums are exact integers
    below 2**52, so dividing them by h keeps their order.  The first half
    starts from empty queues, so over a short run their filling up reads as
    growth: at L=44, theta=0.8, 50-step runs flag 4/3/2/0 loops for master
    seeds 0..3, while 150 to 1000 steps flag none.
    """
    first, second = np.asarray(first), np.asarray(second)
    return (second > 2 * first) & (second > 0)
