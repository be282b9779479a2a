"""Slotted co-simulation of control loops over a back-pressure network.

Each control period spans `slots_per_step` network slots.  At a period
boundary `run` makes one pass per plant class, its constants bound once,
over the class's loops in Python floats: each loop closes the previous
period (the input from its estimate, corrected by its newest delivery, then
the plant, estimator, sampler-error and stage-cost updates), decides whether
to sample, |e| > M(theta * B) at its source backlog B, M from the class's
row, and injects at once.  A delivery born in the period just closed is the
estimate itself; only a late one is rolled forward (`estimator_deliver`).
Then the period's slots run, the scheduler picking links by differential
backlog and moving packets, until the network drains: nothing enters it
before the next boundary, so the period's remaining slots are skipped.

The network holds counts only: `BufferSet` keeps queue lengths and
differential backlogs per hop and loop, and per hop the loops bucketed by
positive differential backlog (`tiers`); `cc_admit` and `transmit` update
both for the loops they move.  Each hop picks up to its capacity from its
top buckets, and the source row prices the sampling decision, so a slot's
work scales with the loops it touches and picks, not with L.  `run` keeps
each loop's samples in flight; a delivery of the loop is its oldest.

The control input for period k is computed at the *end* of the period, so
a sample that traverses the network within its own period is used with
zero effective delay; this is what produces the paper-style zero-delay,
cost-floor plateau at light load.
"""

from __future__ import annotations

import math
import numbers
import os
from collections import deque
from collections.abc import Sequence
from contextlib import nullcontext
from dataclasses import dataclass, field
from operator import add

import numpy as np

from .control import InputLog, PlantSpec, design_lqg, estimator_deliver
from .network import BufferSet, TieStream, pick_max_weight, stability_diagnostic, transmit
from .sampler import plant_class_id

# the two-hop scenario's plant classes: stable (the first L/2 loops), then unstable
TWO_HOP_PLANTS = tuple(PlantSpec(A=a, B=1.0, Z=1.0, Qx=1.0, Qu=0.0) for a in (0.75, 1.25))
SLOTS_PER_STEP = 10  # network slots per control period in the two-hop scenario
WARMUP_FRAC = 0.1  # leading share of every run left out of the metrics

_TIE_STREAM = 1_000_003  # reserved seed-sequence key for scheduler tie-breaks


class NonFiniteError(ArithmeticError):
    """A loop's plant state or cost overflowed to inf or nan."""


def _check_count(value, name: str, least: int) -> None:
    """Raise ValueError naming `name` unless `value` is an integer of at least `least`."""
    if not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value!r}")


def _check_theta(theta) -> None:
    """Raise ValueError naming theta unless it is a positive, finite real number."""
    if not (isinstance(theta, numbers.Real) and 0 < theta < math.inf):
        raise ValueError(f"theta must be positive and finite, got {theta!r}")


@dataclass
class Scenario:
    """Everything one run needs: loops, transport, timing, seeding."""

    plants: list
    hops: tuple  # per loop, the links on its path from source to target
    capacities: tuple  # per path position, its links per slot; a link moves one packet
    slots_per_step: int
    horizon: int
    seed: int

    def __post_init__(self):
        _check_count(self.horizon, "horizon", 1)
        _check_count(self.slots_per_step, "slots_per_step", 1)
        _check_count(self.seed, "seed", 0)
        for name, kind in (("plants", "PlantSpec"), ("hops", "counts"), ("capacities", "counts")):
            value = getattr(self, name)
            if not isinstance(value, Sequence):
                raise ValueError(f"{name} must be a sequence of {kind}, got {value!r}")
        for i, plant in enumerate(self.plants):
            if not isinstance(plant, PlantSpec):
                raise ValueError(f"plant of loop {i} must be a PlantSpec, got {plant!r}")
        if len(self.hops) != len(self.plants):
            raise ValueError(f"hops must give one path length per loop, "
                             f"{len(self.plants)} loops, got {len(self.hops)}")
        for i, h in enumerate(self.hops):
            _check_count(h, f"hops of loop {i}", 1)
        for pos, capacity in enumerate(self.capacities):
            _check_count(capacity, f"capacity at path position {pos}", 1)
        reach = max(self.hops, default=0)
        if len(self.capacities) != reach:  # else a packet may wait at an unserved hop
            raise ValueError(f"capacities must give one capacity per path position, "
                             f"{reach} for the longest path, got {len(self.capacities)}")

    @property
    def class_labels(self) -> list:
        """Per loop "stable" if its plant has |A| < 1, else "unstable"."""
        return ["stable" if abs(p.a) < 1 else "unstable" for p in self.plants]


def _check_loop_count(L) -> None:
    """Raise ValueError naming L unless it is an even integer of at least 2."""
    _check_count(L, "L", 2)
    if L % 2:
        raise ValueError(f"L must be an even number of loops, got {L!r}")


def make_two_hop_scenario(L: int, seed: int, horizon: int = 10_000) -> Scenario:
    """Desk-scale cellular setup: L/2 stable and L/2 unstable scalar loops.

    Every loop's path is source -> base station -> sink, two hops; the
    uplink and downlink each fit two unit-rate transmissions per slot.
    """
    _check_loop_count(L)

    plants = [TWO_HOP_PLANTS[i >= L // 2] for i in range(L)]
    return Scenario(plants=plants, hops=(2,) * L, capacities=(2, 2),
                    slots_per_step=SLOTS_PER_STEP, horizon=horizon, seed=seed)


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
    inflight_sum: int  # samples in flight before injection, summed over all boundaries
    noise: np.ndarray | None = None
    error_trace: np.ndarray | None = None
    input_trace: np.ndarray | None = None  # u per period and loop; the last period is never closed
    delta_trace: np.ndarray | None = None
    delivered_births: list | None = None

    @property
    def rate_per_loop(self) -> np.ndarray:
        return self.injected / self.steps_rate

    @property
    def delay_per_loop(self) -> np.ndarray:
        """Mean delay per loop; NaN, undefined, for a loop that delivered nothing."""
        with np.errstate(invalid="ignore"):
            return self.delay_sum / self.delivered

    @property
    def cost_per_loop(self) -> np.ndarray:
        """Mean stage cost per loop; NaN, undefined, for a run that closed no costed period."""
        with np.errstate(invalid="ignore"):
            return self.cost_sum / self.steps_cost

    @property
    def backlog_per_loop(self) -> np.ndarray:
        return self.backlog_sum / self.slots_backlog

    def class_means(self, values: np.ndarray) -> dict:
        """Mean over all loops and per class of the finite `values`; NaN if none is."""
        labels = np.asarray(self.class_labels)
        finite = np.isfinite(values)
        out = {"all": _mean(values[finite])}
        for label in dict.fromkeys(self.class_labels):
            out[label] = _mean(values[(labels == label) & finite])
        return out


def _mean(values: np.ndarray) -> float:
    return float(values.mean()) if values.size else math.nan


def _loop_rng_seed(seed: int, key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, key]))


def _design(plant: PlantSpec, tables: dict):
    """The plant's LQG solution and its class's threshold table; KeyError if `tables` has none."""
    sol = design_lqg(plant)
    cid = plant_class_id(plant, sol)
    if cid not in tables:
        raise KeyError(f"no threshold table for plant class {cid}")
    return sol, tables[cid]


def _first_non_finite_step(plant: PlantSpec, warmup: int, inputs: list, noise: list) -> int:
    """The first step at which the loop's state, stage cost or cost sum is not finite.

    Rebuilt after the fact from the inputs the run applied and its noise, with
    the boundary pass's arithmetic; if every closed period is finite, it is the
    final state's step, len(inputs).
    """
    a, b, qx, qu = plant.a, plant.b, plant.qx, plant.qu
    x = total = 0.0
    for k, (u, w) in enumerate(zip(inputs, noise)):
        cost = qx * x * x + qu * u * u
        if k >= warmup:
            total += cost
        if not (math.isfinite(x) and math.isfinite(cost) and math.isfinite(total)):
            return k
        x = a * x + b * u + w
    return len(inputs)


def run(scenario: Scenario, tables: dict, theta: float = 1.0,
        force_delta: np.ndarray | None = None, record_errors: bool = False,
        check_conservation: bool = False) -> RunMetrics:
    """Simulate one seeded scenario and collect metrics.

    `tables` maps plant class ids to ThresholdTable.  `force_delta`, when
    given as (horizon, L) booleans (an array or nested lists), overrides the
    threshold sampler (used by oracle tests); any other shape is a
    ValueError.  Raises NonFiniteError, naming the loops and each one's first
    non-finite step, if a plant state or cost overflowed; loop state is Python
    floats, which overflow to inf and nan without a warning.
    """
    _check_theta(theta)
    plants = scenario.plants
    L = len(plants)
    horizon = scenario.horizon
    if force_delta is not None:
        if np.shape(force_delta) != (horizon, L):
            raise ValueError(f"force_delta must have shape {(horizon, L)}, got {np.shape(force_delta)}")
        force_delta = np.asarray(force_delta, dtype=bool)
    spst = scenario.slots_per_step
    warmup = int(horizon * WARMUP_FRAC)

    # one pass over the plants: each class's design, threshold row and loops, each loop's noise
    classes = {}  # plant -> (a, b, -K, threshold row, Qx, Qu, loops in ascending order)
    noise = np.empty((horizon, L))
    for i, p in enumerate(plants):
        if p not in classes:
            sol, table = _design(p, tables)
            # M(theta * B) for every source backlog B a run can reach: a source
            # holds at most one packet per elapsed period; a price past the
            # float range is inf, which the lookup clamps to the top knot
            with np.errstate(over="ignore"):
                row = table.lookup_many(theta * np.arange(horizon + 1)).tolist()
            classes[p] = (p.a, p.b, -sol.k, row, p.qx, p.qu, [])
        classes[p][-1].append(i)
        noise[:, i] = _loop_rng_seed(scenario.seed, i).normal(0.0, math.sqrt(p.z), horizon)
    # scheduler tie-breaks draw from a seeded stream of their own
    ties = TieStream(_loop_rng_seed(scenario.seed, _TIE_STREAM).bit_generator)

    x = [0.0] * L
    xhat = [0.0] * L
    err = [0.0] * L
    input_log = InputLog(L, horizon)
    # per loop, its (birth step, state) samples in the network, oldest first,
    # since queues are FIFO per loop, and its newest delivery not yet applied
    inflight = [deque() for _ in range(L)]
    newest = [None] * L

    injected = [0] * L
    delivered_cnt = [0] * L
    delay_sum = [0] * L
    cost_sum = [0.0] * L
    # backlog_acc sums the source backlog over the slots past warm-up; a change
    # of it is added once, times every such slot from the change to the end
    # of the run, so no slot needs a pass over the loops
    backlog_acc = [0] * L
    # for the stability flag: the source backlog summed over each half of the boundaries
    half = horizon // 2
    first_half, second_half = [0] * L, [0] * L
    error_trace = np.zeros((horizon, L)) if record_errors else None
    input_trace = np.zeros((horizon, L)) if record_errors else None
    delta_trace = np.zeros((horizon, L), dtype=np.int8) if record_errors else None
    delivered_births = [[] for _ in range(L)] if check_conservation else None
    injected_total = 0
    delivered_total = 0
    inflight_sum = 0

    warmup_slot = warmup * spst
    total_slots = horizon * spst

    buffers = BufferSet(scenario.hops)
    q0 = buffers.backlog[0]
    # per hop: (position on the paths, its loops by weight, capacity)
    sched = [(pos, buffers.tiers[pos], capacity)
             for pos, capacity in enumerate(scenario.capacities)]
    window, prune, record = input_log.window, input_log.prune, input_log.record
    cc_push, cc_admit = buffers.cc_push, buffers.cc_admit

    u = [0.0] * L  # the inputs of the period being closed, by loop
    for m in range(horizon):
        # boundary 0 closes a virtual period -1 with no noise and no cost,
        # which leaves every loop's x, xhat and e at 0.0
        w = noise[m - 1].tolist() if m else [0.0] * L
        costed = m - 1 >= warmup
        forced = force_delta[m].tolist() if force_delta is not None else None
        # read before any injection: the source backlogs' half sums, the samples in flight
        if m < half:
            first_half = list(map(add, first_half, q0))
        elif m >= horizon - half:
            second_half = list(map(add, second_half, q0))
        inflight_sum += injected_total - delivered_total
        first_slot = m * spst
        remaining = total_slots - max(first_slot, warmup_slot)
        # one pass per plant class over its loops: close period m-1 (the
        # newest delivery first, then plant, estimator, sampler error and
        # stage cost under the input u = -K xhat), decide at step m against
        # the instantaneous source backlog, and inject a sample at once
        sampled = []
        for ai, bi, neg_k, row, qxi, qui, members in classes.values():
            for i in members:
                sample = newest[i]
                if sample is not None:
                    newest[i] = None
                    birth, payload = sample
                    late = birth < m - 1  # else the sample is the estimate itself
                    xhat[i] = (estimator_deliver(ai, bi, payload, window(i, birth, m - 1).tolist())
                               if late else payload)
                    prune(i, birth)
                xi = x[i]
                ui = u[i] = neg_k * xhat[i]
                if costed:
                    cost_sum[i] += qxi * xi * xi + qui * ui * ui
                wi = w[i]
                xi = x[i] = ai * xi + bi * ui + wi
                xhat[i] = ai * xhat[i] + bi * ui
                # sampler error: Eq-18 style coast/reset, resynchronized to
                # the true estimation error whenever a delivery arrived late
                if sample is None:
                    e = ai * err[i] + wi
                else:
                    e = xi - xhat[i] if late else wi
                err[i] = e
                if (abs(e) > row[q0[i]]) if forced is None else forced[i]:
                    sampled.append(i)
                    inflight[i].append((m, xi))
                    cc_push(i)
                    backlog_acc[i] += cc_admit(i) * remaining
                    if m >= warmup:
                        injected[i] += 1
        if m > 0:
            record(m - 1, u)
            if record_errors:
                error_trace[m - 1] = err
                input_trace[m - 1] = u
        if record_errors:
            delta_trace[m, sampled] = 1
        injected_total += len(sampled)

        # back-pressure slots: pick per-hop winners by weight, move packets;
        # once every buffer is empty nothing enters before the next period
        for slot in range(first_slot, first_slot + spst):
            if injected_total == delivered_total:
                break
            # a pick has positive weight [B_p - B_p+1]+, so it moves one packet: a
            # source pick lowers the source backlog by one from the next slot on
            remaining = total_slots - max(slot + 1, warmup_slot)
            assignments = []
            for pos, tiers, capacity in sched:
                if not tiers:  # no positive weight at this hop: nothing to pick
                    continue
                for i in pick_max_weight(tiers, capacity, ties):
                    assignments.append((pos, i))
                    if pos == 0:
                        backlog_acc[i] -= remaining
            for loop in transmit(buffers, assignments):
                delivered_total += 1
                newest[loop] = sample = inflight[loop].popleft()
                birth = sample[0]
                if delivered_births is not None:
                    delivered_births[loop].append(birth)
                if birth >= warmup:
                    delivered_cnt[loop] += 1
                    delay_sum[loop] += m - birth  # whole periods since the sample

            if check_conservation:
                if injected_total != delivered_total + buffers.resident():
                    raise AssertionError(
                        f"packet conservation broken at slot {slot}: "
                        f"{injected_total} injected vs {delivered_total} delivered "
                        f"+ {buffers.resident()} resident")

    overflowed = [i for i, (c, xi) in enumerate(zip(cost_sum, x))
                  if not (math.isfinite(c) and math.isfinite(xi))]
    if overflowed:
        steps = [_first_non_finite_step(plants[i], warmup, input_log.applied(i).tolist(),
                                        noise[:, i].tolist()) for i in overflowed]
        raise NonFiniteError(f"plant state or cost is not finite on loops {overflowed} "
                             f"(seed {scenario.seed}), first at steps {steps}")
    diverging = stability_diagnostic(first_half, second_half)
    return RunMetrics(
        class_labels=list(scenario.class_labels),
        injected=np.array(injected, dtype=float),
        delivered=np.array(delivered_cnt, dtype=float),
        delay_sum=np.array(delay_sum, dtype=float),
        cost_sum=np.array(cost_sum), backlog_sum=np.array(backlog_acc, dtype=float),
        steps_rate=horizon - warmup, steps_cost=horizon - 1 - warmup,
        slots_backlog=total_slots - warmup_slot,
        diverging=diverging, inflight_sum=inflight_sum,
        noise=noise if record_errors else None,
        error_trace=error_trace, input_trace=input_trace, delta_trace=delta_trace,
        delivered_births=delivered_births,
    )


def run_seed(master_seed: int, L: int, rep: int) -> int:
    """Deterministic per-run seed derived from (master, L, replication)."""
    return int(np.random.SeedSequence([master_seed, L, rep]).generate_state(1)[0])


@dataclass
class SweepCell:
    mean: float
    ci95: float
    n: int


@dataclass
class SweepResult:
    """Aggregated metrics over replications for each swept loop count."""

    L_values: list
    metrics: dict = field(default_factory=dict)  # (L, class, metric) -> SweepCell
    diverging: dict = field(default_factory=dict)  # L -> bool
    class_order: list = field(default_factory=list)

    def cell(self, L: int, cls: str, metric: str) -> SweepCell:
        return self.metrics[(L, cls, metric)]


METRIC_NAMES = ("rate", "backlog", "delay", "cost")


def _one_sweep_task(args):
    master_seed, L, rep, horizon, theta, tables = args
    scenario = make_two_hop_scenario(L, seed=run_seed(master_seed, L, rep), horizon=horizon)
    metrics = run(scenario, tables, theta=theta)
    per_metric = {name: metrics.class_means(getattr(metrics, f"{name}_per_loop"))
                  for name in METRIC_NAMES}
    return per_metric, bool(metrics.diverging.any())


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity set, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _pool(workers: int):
    """A process pool of `workers`; imported here, so a run that starts none never loads it."""
    from concurrent.futures import ProcessPoolExecutor
    return ProcessPoolExecutor(max_workers=workers)


def _check_sweep_args(L_values, replications, master_seed, horizon, theta, workers) -> None:
    """Raise ValueError naming the first `sweep` argument that no run could take."""
    if not L_values:
        raise ValueError("L_values must not be empty")
    for k, L in enumerate(L_values):
        _check_loop_count(L)
        if L in L_values[:k]:  # two copies of the same seeded runs would narrow the CI
            raise ValueError(f"L_values must be distinct, got {L} twice")
    _check_count(replications, "replications", 1)
    _check_count(master_seed, "master_seed", 0)
    _check_count(horizon, "horizon", 1)
    _check_theta(theta)
    _check_count(workers, "workers", 1)


def _t975(dof: int) -> float:
    """Student's t quantile t(0.975, dof), the t with P(|T| <= t) = 0.95, by bisection.

    With theta = atan(t / sqrt(dof)), P(|T| <= t) is a finite series in cos^2 theta
    for an integer dof (Abramowitz & Stegun 26.7.3-4), increasing in theta.
    """
    odd = dof % 2

    def coverage(theta):
        c2, term, total = math.cos(theta) ** 2, 1.0, 0.0
        for j in range(dof // 2):
            total += term
            term *= c2 * (2 * j + 1 + odd) / (2 * j + 2 + odd)
        if odd:
            return (theta + math.sin(theta) * math.cos(theta) * total) * 2 / math.pi
        return math.sin(theta) * total

    lo, hi = 0.0, math.pi / 2
    while lo < (mid := (lo + hi) / 2) < hi:
        lo, hi = (mid, hi) if coverage(mid) < 0.95 else (lo, mid)
    return math.sqrt(dof) * math.tan(hi)


def sweep(L_values, replications: int, master_seed: int, tables: dict,
          horizon: int = 10_000, theta: float = 1.0, workers: int = 1,
          progress=None) -> SweepResult:
    """Independent seeded runs for every (L, replication), then Student-t CIs.

    Checks `L_values`, the counts, `theta` and that `tables` has both plant classes before
    any run or pool.  Uses at most `workers` processes, no more than tasks or usable CPUs;
    `workers=1` runs all in this process.
    """
    L_values = list(L_values)
    _check_sweep_args(L_values, replications, master_seed, horizon, theta, workers)
    for plant in TWO_HOP_PLANTS:
        _design(plant, tables)
    tasks = [(master_seed, L, rep, horizon, theta, tables)
             for L in L_values for rep in range(replications)]
    # a pool starts all its workers at the first submit, and more than the
    # CPUs only contend for them
    workers = min(workers, len(tasks), usable_cpus())
    result = SweepResult(L_values=L_values)
    t = _t975(replications - 1) if replications > 1 else math.nan
    with _pool(workers) if workers > 1 else nullcontext() as pool:
        # read in task order as runs finish, so each L is reported once its own runs are in
        raw = pool.map(_one_sweep_task, tasks) if pool else map(_one_sweep_task, tasks)
        for L in L_values:
            runs = [next(raw) for _ in range(replications)]
            rows = [per_metric for per_metric, _ in runs]
            result.diverging[L] = any(div for _, div in runs)
            if not result.class_order:  # every run reports the same classes
                result.class_order = list(rows[0]["rate"])
            for metric in METRIC_NAMES:
                for cls in result.class_order:
                    vals = np.array([row[metric][cls] for row in rows])
                    n = vals.size
                    ci = t * vals.std(ddof=1) / math.sqrt(n) if n > 1 else math.nan
                    result.metrics[(L, cls, metric)] = SweepCell(
                        mean=float(vals.mean()), ci95=float(ci), n=n)
            if progress is not None:
                progress(L, result)
    return result
