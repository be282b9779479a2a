"""The engine and transport as they were before the counts-based transport.

Kept as the parity oracle for `ncsim.engine.run` and `ncsim.network`: for
the same scenario, tables and options the two engines must return identical
`RunMetrics` (tests/test_engine_parity.py), and the count table of
`ncsim.network.BufferSet` must match these deque buffers after every call
(tests/test_network.py).  The deque `BufferSet`, `Packet`, `transmit`, the
list `InputLog`, `RunMetrics` and the per-trace
`stability_diagnostic` are copied verbatim from earlier versions, so the
oracle imports nothing the engine has since changed.  `_replay_scalar`
rolls a late sample forward step by step, the estimator's recursion.  A
`Scenario` gives each loop's path as its hop count, so `line_paths` names
the links of a path of h hops n0 -> n1 -> ... -> nh, and the oracle reads
each loop's source, target and path nodes off those paths; its buffers are
keyed by (node, loop), so loops share no node's queue.  It defines its own
`RateContractError` and `ReplayError`, and moves one packet per scheduled
link and slot, the only rate a path position takes.  Its logic is
unchanged but for one rule: a tie that needs three or more picks is drawn
one `integers` draw per pick among the tied ids not yet drawn, as one and
two picks always were, in place of one `Generator.choice` draw, so that
`ncsim.network` has a single tie rule at every capacity.  Draws differ only
where a hop's capacity is at least 3.  Not a test module itself.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ncsim.control import design_lqg
from ncsim.engine import _TIE_STREAM, _loop_rng_seed
from ncsim.sampler import plant_class_id


def line_paths(hops) -> dict:
    """Per loop i, its path of hops[i] links n0 -> n1 -> ..., as (from, to) node pairs."""
    return {i: tuple((f"n{p}", f"n{p + 1}") for p in range(h)) for i, h in enumerate(hops)}


class RateContractError(RuntimeError):
    """A flow was assigned more rate than its link supports."""


class ReplayError(RuntimeError):
    """Input history does not cover the steps needed to replay a delivery."""


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

    def __init__(self, paths: dict):
        self.paths = paths
        self.cc = {loop: deque() for loop in paths}
        self.tx = {(link[0], loop): deque()
                   for loop in paths
                   for link in paths[loop]}

    def cc_push(self, packet: Packet) -> None:
        self.cc[packet.loop_id].append(packet)

    def cc_admit(self, loop, slot: int) -> int:
        """Pass-through congestion control: admit the whole CC backlog."""
        queue = self.cc[loop]
        target = self.tx[(self.paths[loop][0][0], loop)]
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
        to_target = n == buffers.paths[loop][-1][1]
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


class InputLog:
    """Applied-input history indexed by control step, pruned as samples land.

    Grows on demand; prune(step) drops everything before `step`, which is
    safe once a sample born at `step` has been applied because older
    deliveries are discarded as stale.
    """

    def __init__(self, start_step: int = 0):
        self._base = start_step
        self._items: list = []

    def record(self, step: int, u) -> None:
        expected = self._base + len(self._items)
        if step != expected:
            raise ValueError(f"inputs must be recorded in order: expected step {expected}, got {step}")
        self._items.append(u)

    def window(self, start: int, stop: int) -> list:
        """Inputs for steps start..stop-1; raises ReplayError on any gap."""
        if start < self._base:
            raise ReplayError(f"input history starts at {self._base}, need {start}")
        if stop > self._base + len(self._items):
            raise ReplayError(f"input history ends at {self._base + len(self._items)}, need {stop}")
        lo = start - self._base
        return self._items[lo:lo + (stop - start)]

    def prune(self, keep_from: int) -> None:
        drop = keep_from - self._base
        if drop > 0:
            del self._items[:drop]
            self._base = keep_from

    def __len__(self) -> int:
        return len(self._items)


@dataclass
class RunMetrics:
    """Per-loop tallies from one run, measured after warm-up."""

    class_labels: list
    injected: np.ndarray
    delivered: np.ndarray
    delay_sum: np.ndarray
    cost_sum: np.ndarray
    backlog_sum: np.ndarray
    steps_rate: int
    steps_cost: int
    slots_backlog: int
    diverging: np.ndarray
    noise: np.ndarray | None = None
    error_trace: np.ndarray | None = None
    delta_trace: np.ndarray | None = None
    delivered_births: list | None = None

    @property
    def rate_per_loop(self) -> np.ndarray:
        return self.injected / self.steps_rate

    @property
    def delay_per_loop(self) -> np.ndarray:
        out = np.zeros_like(self.delay_sum)
        mask = self.delivered > 0
        out[mask] = self.delay_sum[mask] / self.delivered[mask]
        return out

    @property
    def cost_per_loop(self) -> np.ndarray:
        return self.cost_sum / self.steps_cost

    @property
    def backlog_per_loop(self) -> np.ndarray:
        return self.backlog_sum / self.slots_backlog

    def class_means(self, values: np.ndarray) -> dict:
        labels = np.asarray(self.class_labels)
        out = {"all": float(values.mean())}
        for label in dict.fromkeys(self.class_labels):
            out[label] = float(values[labels == label].mean())
        return out


def _replay_scalar(a: float, b: float, x_sampled: float, inputs) -> float:
    """Scalar delivery replay: roll the sample forward z = a z + b u, input by input.

    Matches control.estimator_deliver, operation for operation.
    """
    z = x_sampled
    for u in inputs:
        z = a * z + b * u
    return z


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


def run(scenario, tables: dict, theta: float = 1.0,
        warmup_frac: float = 0.1, force_delta: np.ndarray | None = None,
        record_errors: bool = False, check_conservation: bool = False) -> RunMetrics:
    """Simulate one seeded scenario and collect metrics.

    `tables` maps plant class ids to ThresholdTable.  `force_delta`, when
    given as a (horizon, L) boolean array, overrides the threshold sampler
    (used by oracle tests).
    """
    if theta <= 0:
        raise ValueError("theta must be positive")
    plants = scenario.plants
    L = len(plants)
    horizon = scenario.horizon
    spst = scenario.slots_per_step
    warmup = int(horizon * warmup_frac)

    a = np.array([p.A[0, 0] for p in plants])
    b = np.array([p.B[0, 0] for p in plants])
    qx = np.array([p.Qx[0, 0] for p in plants])
    qu = np.array([p.Qu[0, 0] for p in plants])
    k_gain = np.empty(L)
    class_ids = []
    sol_cache = {}
    for i, p in enumerate(plants):
        key = (p.A[0, 0], p.B[0, 0], p.Z[0, 0], p.Qx[0, 0], p.Qu[0, 0], p.weight)
        if key not in sol_cache:
            sol_cache[key] = design_lqg(p)
        sol = sol_cache[key]
        k_gain[i] = sol.K[0, 0]
        class_ids.append(plant_class_id(p, sol))
    for cid in class_ids:
        if cid not in tables:
            raise KeyError(f"no threshold table for plant class {cid}")

    # one noise stream per loop, one more for scheduler tie-breaks
    noise = np.empty((horizon, L))
    for i, p in enumerate(plants):
        gen = _loop_rng_seed(scenario.seed, i)
        noise[:, i] = gen.normal(0.0, math.sqrt(p.Z[0, 0]), size=horizon)
    tie_rng = _loop_rng_seed(scenario.seed, _TIE_STREAM)

    # per-class threshold lookup indices
    unique_cids = list(dict.fromkeys(class_ids))
    cid_index = {cid: np.array([i for i, c in enumerate(class_ids) if c == cid])
                 for cid in unique_cids}

    paths = line_paths(scenario.hops)
    buffers = BufferSet(paths)
    chains = [[buffers.tx[(link[0], i)] for link in paths[i]]
              for i in range(L)]

    x = np.zeros(L)
    xhat = np.zeros(L)
    err = np.zeros(L)
    input_logs = [InputLog() for _ in range(L)]
    last_applied = [-1] * L
    pending: list = [[] for _ in range(L)]  # (birth_step, payload) delivered, not yet applied

    injected = np.zeros(L)
    delivered_cnt = np.zeros(L)
    delay_sum = np.zeros(L)
    cost_sum = np.zeros(L)
    backlog_acc = [0] * L
    backlog_trace = np.zeros((horizon, L), dtype=np.int32)
    error_trace = np.zeros((horizon, L)) if record_errors else None
    delta_trace = np.zeros((horizon, L), dtype=np.int8) if record_errors else None
    delivered_births = [[] for _ in range(L)] if check_conservation else None
    injected_total = 0
    delivered_total = 0

    warmup_slot = warmup * spst
    total_slots = horizon * spst

    for slot in range(total_slots):
        if slot % spst == 0:
            m = slot // spst
            if m > 0:
                # close period m-1: deliveries first, then the input they inform
                fresh = []  # loops whose newest sample arrived with zero delay
                late = []   # loops corrected by an older delivery this boundary
                for i in range(L):
                    if pending[i]:
                        birth, payload = max(pending[i], key=lambda t: t[0])
                        pending[i].clear()
                        if birth > last_applied[i]:
                            inputs = input_logs[i].window(birth, m - 1)
                            xhat[i] = _replay_scalar(a[i], b[i], payload, inputs)
                            last_applied[i] = birth
                            input_logs[i].prune(birth)
                            (fresh if birth == m - 1 else late).append(i)
                u = -k_gain * xhat
                for i in range(L):
                    input_logs[i].record(m - 1, u[i])
                w = noise[m - 1]
                if m - 1 >= warmup:
                    cost_sum += qx * x * x + qu * u * u
                x = a * x + b * u + w
                xhat = a * xhat + b * u
                # sampler error: Eq-18 style coast/reset, resynchronized to the
                # true estimation error whenever a delivery arrived late
                err = a * err + w
                for i in fresh:
                    err[i] = w[i]
                for i in late:
                    err[i] = x[i] - xhat[i]
                if record_errors:
                    error_trace[m - 1] = err

            # sampling decision at step m against the instantaneous source backlog
            src_backlog = np.array([len(chain[0]) for chain in chains], dtype=float)
            backlog_trace[m] = src_backlog
            if force_delta is not None:
                delta = force_delta[m].astype(float)
            else:
                thresholds = np.empty(L)
                for cid in unique_cids:
                    idx = cid_index[cid]
                    thresholds[idx] = tables[cid].lookup_many(theta * src_backlog[idx])
                delta = (np.abs(err) > thresholds).astype(float)
            if record_errors:
                delta_trace[m] = delta
            for i in np.flatnonzero(delta):
                buffers.cc_push(Packet(loop_id=int(i), birth_step=m, payload=float(x[i])))
                buffers.cc_admit(int(i), slot)
                injected_total += 1
                if m >= warmup:
                    injected[i] += 1

        # back-pressure slot: snapshot weights, pick per-hop winners, move packets
        if injected_total == delivered_total:
            continue  # all buffers empty, nothing to schedule
        lens = [[len(q) for q in chain] for chain in chains]
        if slot >= warmup_slot:
            for i in range(L):
                backlog_acc[i] += lens[i][0]
        assignments = []
        for pos, capacity in enumerate(scenario.capacities):
            cand_w = []
            cand_i = []
            for i in range(L):
                chain_len = len(chains[i])
                if pos >= chain_len:
                    continue
                backlog = lens[i][pos]
                if backlog == 0:
                    continue
                ahead = lens[i][pos + 1] if pos + 1 < chain_len else 0
                wgt = theta * (backlog - ahead)
                if wgt > 0:
                    cand_w.append(wgt)
                    cand_i.append(i)
            for i in _pick_max_weight(cand_w, cand_i, capacity, tie_rng):
                assignments.append((paths[i][pos], i, 1))
        if assignments:
            for loop, packet in transmit(buffers, assignments, slot):
                delivered_total += 1
                delay_steps = (slot - packet.birth_step * spst) // spst
                pending[loop].append((packet.birth_step, packet.payload))
                if delivered_births is not None:
                    delivered_births[loop].append(packet.birth_step)
                if packet.birth_step >= warmup:
                    delivered_cnt[loop] += 1
                    delay_sum[loop] += delay_steps

        if check_conservation:
            if injected_total != delivered_total + buffers.resident():
                raise AssertionError(
                    f"packet conservation broken at slot {slot}: "
                    f"{injected_total} injected vs {delivered_total} delivered "
                    f"+ {buffers.resident()} resident")

    diverging = np.array([stability_diagnostic(backlog_trace[:, i]).diverging
                          for i in range(L)])
    return RunMetrics(
        class_labels=list(scenario.class_labels),
        injected=injected, delivered=delivered_cnt, delay_sum=delay_sum,
        cost_sum=cost_sum, backlog_sum=np.array(backlog_acc, dtype=float),
        steps_rate=horizon - warmup, steps_cost=max(horizon - 1 - warmup, 1),
        slots_backlog=total_slots - warmup_slot,
        diverging=diverging, noise=noise if record_errors else None,
        error_trace=error_trace, delta_trace=delta_trace,
        delivered_births=delivered_births,
    )


def _pick_max_weight(weights: list, ids: list, capacity: int,
                     rng: np.random.Generator) -> list:
    """Up to `capacity` ids with the largest weights, uniform among ties."""
    if not ids:
        return []
    chosen: list = []
    remaining_w = list(weights)
    remaining_i = list(ids)
    while remaining_i and len(chosen) < capacity:
        top = max(remaining_w)
        tier = [j for j, w in enumerate(remaining_w) if w == top]
        need = capacity - len(chosen)
        if len(tier) <= need:
            take = tier
        elif need == 1:
            take = [tier[int(rng.integers(len(tier)))]]
        elif need == 2:
            # uniform unordered pair without replacement
            first = int(rng.integers(len(tier)))
            second = int(rng.integers(len(tier) - 1))
            if second >= first:
                second += 1
            take = [tier[first], tier[second]]
        else:
            rest = tier[:]
            take = [rest.pop(int(rng.integers(len(rest)))) for _ in range(need)]
        chosen.extend(remaining_i[j] for j in take)
        for j in sorted(take, reverse=True):
            del remaining_w[j]
            del remaining_i[j]
    return chosen
