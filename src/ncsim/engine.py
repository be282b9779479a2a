"""Slotted co-simulation of control loops over a back-pressure network.

Each control period spans `slots_per_step` network slots.  At a period
boundary every loop closes the previous period (apply deliveries, compute
the input, advance plant / estimator / error) and then makes its sampling
decision against the current source backlog.  Within every slot the
scheduler picks links by differential backlog and moves packets.

The scheduler reads the transport's own state: `BufferSet` keeps the count
table of queue lengths and differential backlogs per hop and loop, and
`cc_admit` and `transmit` update it for the loops they move.  Each hop
group picks from its row of that table in place, and the source row prices
the sampling decision, so a slot's work scales with the loops it touches,
not with L.

The control input for period k is computed at the *end* of the period, so
a sample that traverses the network within its own period is used with
zero effective delay; this is what produces the paper-style zero-delay,
cost-floor plateau at light load.
"""

from __future__ import annotations

import itertools
import math
import numbers
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .control import InputLog, PlantSpec, design_lqg
from .network import (ActionSet, BufferSet, ConstantLinkState, Packet,
                      Topology, pick_max_weight, stability_diagnostic,
                      transmit)
from .sampler import ViConfig, build_table, default_lambda_grid, plant_class_id

STABLE_A = 0.75
UNSTABLE_A = 1.25
CLASS_LABELS = {STABLE_A: "stable", UNSTABLE_A: "unstable"}

_TIE_STREAM = 1_000_003  # reserved seed-sequence key for scheduler tie-breaks


class NonFiniteError(ArithmeticError):
    """A loop's plant state or cost overflowed to inf or nan."""


@dataclass(frozen=True)
class HopGroup:
    """One shared hop: links at `position` along every path, `capacity` of them per slot."""

    position: int
    capacity: int
    rate: int = 1


@dataclass
class Scenario:
    """Everything one run needs: loops, transport, timing, seeding."""

    plants: list
    class_labels: list
    topology: Topology
    action_set: ActionSet
    hop_groups: list
    link_state: ConstantLinkState
    slots_per_step: int
    horizon: int
    seed: int

    def __post_init__(self):
        if self.slots_per_step < 1:
            raise ValueError("slots_per_step must be at least 1")
        if len(self.plants) != len(self.class_labels):
            raise ValueError("one class label per plant required")
        paths = self.topology.paths
        if set(paths) != set(range(len(self.plants))):
            raise ValueError("topology.paths must be keyed by the loops 0..L-1")
        positions = [group.position for group in self.hop_groups]
        if len(set(positions)) != len(positions):
            raise ValueError(f"hop group positions must be distinct, got {positions}")
        reach = max(map(len, paths.values()), default=0)
        for group in self.hop_groups:
            if not 0 <= group.position < reach:
                raise ValueError(f"hop group at position {group.position}: no path reaches it")
            for name, value in (("capacity", group.capacity), ("rate", group.rate)):
                if not isinstance(value, numbers.Integral) or value < 1:
                    raise ValueError(f"hop group at position {group.position}: {name} "
                                     f"must be an integer >= 1, got {value!r}")


class _TwoHopActions:
    """Lazy enumeration of joint actions: pick <= cap loops per hop."""

    def __init__(self, uplinks, downlinks, cap: int):
        self.uplinks = tuple(uplinks)
        self.downlinks = tuple(downlinks)
        self.cap = cap

    def _subsets(self, links):
        for size in range(self.cap + 1):
            yield from itertools.combinations(range(len(links)), size)

    def __iter__(self):
        for up in self._subsets(self.uplinks):
            for down in self._subsets(self.downlinks):
                yield (up, down)

    def __len__(self):
        def count(n):
            return sum(math.comb(n, size) for size in range(self.cap + 1))
        return count(len(self.uplinks)) * count(len(self.downlinks))


def make_two_hop_scenario(L: int, seed: int, horizon: int = 10_000,
                          slots_per_step: int = 10) -> Scenario:
    """Desk-scale cellular setup: L/2 stable and L/2 unstable scalar loops.

    Every loop's path is source -> base station -> sink; the uplink and
    downlink hops each fit two unit-rate transmissions per slot.
    """
    if L < 2 or L % 2 != 0:
        raise ValueError("L must be an even number of loops, at least 2")

    plants = []
    labels = []
    for i in range(L):
        a = STABLE_A if i < L // 2 else UNSTABLE_A
        plants.append(PlantSpec(A=a, B=1.0, Z=1.0, Qx=1.0, Qu=0.0))
        labels.append(CLASS_LABELS[a])

    bs = "bs"
    uplinks = [(f"src{i}", bs) for i in range(L)]
    downlinks = [(bs, f"dst{i}") for i in range(L)]
    topology = Topology(
        nodes=frozenset([bs] + [f"src{i}" for i in range(L)] + [f"dst{i}" for i in range(L)]),
        links=frozenset(uplinks + downlinks),
        paths={i: (uplinks[i], downlinks[i]) for i in range(L)},
        src={i: f"src{i}" for i in range(L)},
        dst={i: f"dst{i}" for i in range(L)},
    )

    def rate_fn(link_state, action):
        up, down = action
        rates = {uplinks[i]: 1 for i in up}
        rates.update({downlinks[i]: 1 for i in down})
        return rates

    action_set = ActionSet(actions=_TwoHopActions(uplinks, downlinks, cap=2),
                           rate_fn=rate_fn)
    hop_groups = [HopGroup(position=0, capacity=2), HopGroup(position=1, capacity=2)]
    return Scenario(plants=plants, class_labels=labels, topology=topology,
                    action_set=action_set, hop_groups=hop_groups,
                    link_state=ConstantLinkState(), slots_per_step=slots_per_step,
                    horizon=horizon, seed=seed)


def build_scenario_tables(scenario: Scenario, cfg: ViConfig = ViConfig(),
                          lambda_grid=None) -> dict:
    """Threshold table per distinct plant class in the scenario."""
    grid = default_lambda_grid() if lambda_grid is None else lambda_grid
    tables = {}
    for spec in scenario.plants:
        sol = design_lqg(spec)
        cid = plant_class_id(spec, sol)
        if cid not in tables:
            tables[cid] = build_table(grid, spec, sol, cfg)
    return tables


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
        """Mean delay per loop; NaN, undefined, for a loop that delivered nothing."""
        with np.errstate(invalid="ignore"):
            return self.delay_sum / self.delivered

    @property
    def cost_per_loop(self) -> np.ndarray:
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


def _replay_scalar(a: float, b: float, powers: np.ndarray, x_sampled: float,
                   inputs: np.ndarray) -> float:
    """Closed-form scalar delivery replay: a^d x + sum_j a^(d-1-j) b u_j.

    Matches control.estimator_deliver; `powers` ends in a^(d-1), ..., a^0,
    and the dot-product form keeps long replays (heavily congested runs)
    from dominating the runtime.
    """
    d = len(inputs)
    if d == 0:
        return x_sampled
    if d == 1:
        return a * x_sampled + b * inputs[0]
    return (a ** d) * x_sampled + b * float(powers[-d:] @ inputs)


def run(scenario: Scenario, tables: dict, theta: float = 1.0,
        warmup_frac: float = 0.1, force_delta: np.ndarray | None = None,
        record_errors: bool = False, check_conservation: bool = False) -> RunMetrics:
    """Simulate one seeded scenario and collect metrics.

    `tables` maps plant class ids to ThresholdTable.  `force_delta`, when
    given as a (horizon, L) boolean array, overrides the threshold sampler
    (used by oracle tests).  Raises NonFiniteError, naming the loops, if a
    plant state or cost overflowed.
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

    # per plant class a^j for j = horizon-1 .. 0, sliced by _replay_scalar; a
    # power past the float range is inf and read only by a replay that deep
    with np.errstate(over="ignore"):
        rows = {ai: ai ** np.arange(horizon - 1, -1, -1, dtype=float) for ai in set(a.tolist())}
    powers = [rows[ai] for ai in a.tolist()]

    x = np.zeros(L)
    xhat = np.zeros(L)
    err = np.zeros(L)
    input_log = InputLog(L, horizon)
    last_applied = [-1] * L
    # loop -> its newest delivered packet not yet applied; queues are FIFO,
    # so a loop's last delivery is its newest
    newest: dict = {}

    injected = np.zeros(L)
    delivered_cnt = [0] * L
    delay_sum = [0] * L
    cost_sum = np.zeros(L)
    # backlog_acc sums the source backlog over the slots past warm-up; a change
    # of it is added once, times every such slot from the change to the end
    # of the run, so no slot needs a pass over the loops
    backlog_acc = [0] * L
    backlog_trace = np.zeros((horizon, L), dtype=np.int32)
    error_trace = np.zeros((horizon, L)) if record_errors else None
    delta_trace = np.zeros((horizon, L), dtype=np.int8) if record_errors else None
    delivered_births = [[] for _ in range(L)] if check_conservation else None
    injected_total = 0
    delivered_total = 0

    warmup_slot = warmup * spst
    total_slots = horizon * spst

    buffers = BufferSet(scenario.topology)
    q0 = buffers.backlog[0]
    paths = scenario.topology.paths
    sched = []  # per hop group: (weights, each loop's link at the hop, capacity, rate, at source)
    for group in scenario.hop_groups:
        pos = group.position
        links = [paths[i][pos] if pos < len(paths[i]) else None for i in range(L)]
        sched.append((buffers.diff[pos], links, group.capacity, group.rate, pos == 0))

    for slot in range(total_slots):
        if slot % spst == 0:
            m = slot // spst
            if m > 0:
                # close period m-1: deliveries first, then the input they inform
                fresh = []  # loops whose newest sample arrived with zero delay
                late = []   # loops corrected by an older delivery this boundary
                for i in sorted(newest):
                    _, birth, payload = newest[i]
                    if birth > last_applied[i]:
                        inputs = input_log.window(i, birth, m - 1)
                        xhat[i] = _replay_scalar(a[i], b[i], powers[i], payload, inputs)
                        last_applied[i] = birth
                        input_log.prune(i, birth)
                        (fresh if birth == m - 1 else late).append(i)
                newest.clear()
                u = -k_gain * xhat
                input_log.record(m - 1, u)
                w = noise[m - 1]
                if m - 1 >= warmup:
                    cost_sum += qx * x * x + qu * u * u
                x = a * x + b * u + w
                xhat = a * xhat + b * u
                # sampler error: Eq-18 style coast/reset, resynchronized to the
                # true estimation error whenever a delivery arrived late
                err = a * err + w
                err[fresh] = w[fresh]
                err[late] = x[late] - xhat[late]
                if record_errors:
                    error_trace[m - 1] = err

            # sampling decision at step m against the instantaneous source backlog
            src_backlog = np.array(q0, dtype=float)
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
            remaining = total_slots - max(slot, warmup_slot)
            sampled = np.flatnonzero(delta).tolist()
            payloads = x.tolist()
            for i in sampled:
                buffers.cc_push(Packet(i, m, payloads[i]))
                backlog_acc[i] += buffers.cc_admit(i) * remaining
            injected_total += len(sampled)
            if m >= warmup:
                injected += delta

        # back-pressure slot: pick per-hop winners by weight, move packets
        if injected_total == delivered_total:
            continue  # all buffers empty, nothing to schedule
        assignments = []
        leaving = []  # (loop, source backlog before the move) of loops sent from the source
        for weights, links, capacity, rate, at_source in sched:
            for i in pick_max_weight(weights, capacity, tie_rng):
                assignments.append((links[i], i, rate))
                if at_source:
                    leaving.append((i, q0[i]))
        if assignments:
            for loop, packet in transmit(buffers, assignments, slot):
                delivered_total += 1
                newest[loop] = packet
                birth = packet.birth_step
                if delivered_births is not None:
                    delivered_births[loop].append(birth)
                if birth >= warmup:
                    delivered_cnt[loop] += 1
                    delay_sum[loop] += m - birth  # whole periods since the sample
            remaining = total_slots - max(slot + 1, warmup_slot)
            for i, before in leaving:
                backlog_acc[i] += (q0[i] - before) * remaining

        if check_conservation:
            if injected_total != delivered_total + buffers.resident():
                raise AssertionError(
                    f"packet conservation broken at slot {slot}: "
                    f"{injected_total} injected vs {delivered_total} delivered "
                    f"+ {buffers.resident()} resident")

    overflowed = np.flatnonzero(~(np.isfinite(cost_sum) & np.isfinite(x)))
    if overflowed.size:
        raise NonFiniteError(f"plant state or cost is not finite on loops "
                             f"{overflowed.tolist()} (seed {scenario.seed})")
    diverging = np.array([stability_diagnostic(backlog_trace[:, i]).diverging
                          for i in range(L)])
    return RunMetrics(
        class_labels=list(scenario.class_labels),
        injected=injected, delivered=np.array(delivered_cnt, dtype=float),
        delay_sum=np.array(delay_sum, dtype=float),
        cost_sum=cost_sum, backlog_sum=np.array(backlog_acc, dtype=float),
        steps_rate=horizon - warmup, steps_cost=max(horizon - 1 - warmup, 1),
        slots_backlog=total_slots - warmup_slot,
        diverging=diverging, noise=noise if record_errors else None,
        error_trace=error_trace, delta_trace=delta_trace,
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
    replications: int
    metrics: dict = field(default_factory=dict)  # (L, class, metric) -> SweepCell
    diverging: dict = field(default_factory=dict)  # L -> bool
    class_order: list = field(default_factory=list)

    def cell(self, L: int, cls: str, metric: str) -> SweepCell:
        return self.metrics[(L, cls, metric)]

    def series(self, cls: str, metric: str):
        return [self.metrics[(L, cls, metric)] for L in self.L_values]


METRIC_NAMES = ("rate", "backlog", "delay", "cost")


def _one_sweep_task(args):
    master_seed, L, rep, horizon, theta, tables, slots_per_step = args
    scenario = make_two_hop_scenario(L, seed=run_seed(master_seed, L, rep),
                                     horizon=horizon, slots_per_step=slots_per_step)
    metrics = run(scenario, tables, theta=theta)
    per_metric = {
        "rate": metrics.class_means(metrics.rate_per_loop),
        "backlog": metrics.class_means(metrics.backlog_per_loop),
        "delay": metrics.class_means(metrics.delay_per_loop),
        "cost": metrics.class_means(metrics.cost_per_loop),
    }
    return L, rep, per_metric, bool(metrics.diverging.any())


def sweep(L_values, replications: int, master_seed: int, tables: dict,
          horizon: int = 10_000, theta: float = 1.0, slots_per_step: int = 10,
          workers: int = 1, progress=None) -> SweepResult:
    """Independent seeded runs for every (L, replication), then normal CIs."""
    if replications < 1:
        raise ValueError("need at least one replication")
    L_values = list(L_values)
    tasks = [(master_seed, L, rep, horizon, theta, tables, slots_per_step)
             for L in L_values for rep in range(replications)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            raw = list(pool.map(_one_sweep_task, tasks))
    else:
        raw = [_one_sweep_task(t) for t in tasks]

    by_L: dict = {L: [] for L in L_values}
    diverging = {L: False for L in L_values}
    for L, rep, per_metric, div in raw:
        by_L[L].append((rep, per_metric))
        diverging[L] = diverging[L] or div

    result = SweepResult(L_values=L_values, replications=replications,
                         diverging=diverging)
    classes_seen: list = []
    for L in L_values:
        rows = [pm for _, pm in sorted(by_L[L], key=lambda item: item[0])]
        for metric in METRIC_NAMES:
            classes = list(rows[0][metric].keys())
            for cls in classes:
                if cls not in classes_seen:
                    classes_seen.append(cls)
                vals = np.array([row[metric][cls] for row in rows])
                n = vals.size
                ci = 1.96 * vals.std(ddof=1) / math.sqrt(n) if n > 1 else 0.0
                result.metrics[(L, cls, metric)] = SweepCell(
                    mean=float(vals.mean()), ci95=float(ci), n=n)
        if progress is not None:
            progress(L, result)
    result.class_order = classes_seen
    return result
