"""The engine's slot loop as it was before the incremental back-pressure state.

Kept verbatim as the parity oracle for `ncsim.engine.run`: for the same
scenario, tables and options the two must return identical `RunMetrics`
(tests/test_engine_parity.py).  Not a test module itself.
"""

from __future__ import annotations

import math

import numpy as np

from ncsim.control import InputLog, design_lqg
from ncsim.engine import (_TIE_STREAM, RunMetrics, Scenario, _loop_rng_seed,
                          _replay_scalar)
from ncsim.network import BufferSet, Packet, stability_diagnostic, transmit
from ncsim.sampler import plant_class_id


def run(scenario: Scenario, tables: dict, theta: float = 1.0,
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

    buffers = BufferSet(scenario.topology)
    chains = [[buffers.tx[(node, i)] for node in scenario.topology.path_nodes(i)]
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
    groups = scenario.hop_groups

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
        for group in groups:
            pos = group.position
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
            for i in _pick_max_weight(cand_w, cand_i, group.capacity, tie_rng):
                assignments.append((scenario.topology.paths[i][pos], i, group.rate))
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
            take = [tier[j] for j in rng.choice(len(tier), size=need, replace=False)]
        chosen.extend(remaining_i[j] for j in take)
        for j in sorted(take, reverse=True):
            del remaining_w[j]
            del remaining_i[j]
    return chosen
