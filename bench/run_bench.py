"""ncsim benchmark: closed-loop workloads driven through the public API.

    python3 bench/run_bench.py --workload congested --seed 1 --seconds 30 --trace 0

Workloads (see bench/README.md for why each was chosen):

  congested  engine.run() on make_two_hop_scenario, L=44, theta=0.8, warm table cache
  light      the same at L=4, on the zero-delay plateau
  sweep      ncsim.cli.main over L in {4, 20, 44}, 4 replications, 2 workers,
             fresh output directory and empty table cache every call

Each workload is a closed loop: the next unit (one engine.run, or one CLI
call) starts when the previous one returns, until --seconds have passed and
at least MIN_UNITS units ran.  Unit i draws its scenario or master seed from
(--seed, i).  Every unit's output is checked; a unit that raises or fails
the check counts as failed.

--trace 0 prints the end-to-end metrics, measured with ncsim untouched.
--trace 1 alternates untraced and traced passes of fixed work and prints
the per-layer metrics from the traced ones (tracing.py).

The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import hostspeed
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

THETA = 0.8
SETUP_REPS = 7      # set-ups per run; setup_s takes their median
IMPORT_PROBES = 15  # fresh-interpreter imports per run; setup_s takes their median
MIN_UNITS = 3       # units per run however short --seconds is
DIGEST_UNITS = 3    # the digest covers units 0..DIGEST_UNITS-1, whatever the run length
CLASSES = ("all", "stable", "unstable")
CSV_METRICS = ("rate", "backlog", "delay", "cost")
CSV_HEADER = ["L", "class", "mean", "ci95_halfwidth", "replications"]


@dataclass(frozen=True)
class Workload:
    L: tuple
    horizon: int
    traced_units: int      # units per traced pass
    replications: int = 1  # sweep only
    workers: int = 1       # sweep only

    @property
    def is_sweep(self) -> bool:
        return len(self.L) > 1


WORKLOADS = {
    "congested": Workload(L=(44,), horizon=1000, traced_units=2),
    "light": Workload(L=(4,), horizon=5000, traced_units=3),
    "sweep": Workload(L=(4, 20, 44), horizon=1000, traced_units=1,
                      replications=4, workers=2),
}

END_TO_END_UNITS = {"loop_steps_per_s": "loop-steps/s", "wall_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB", "ok_frac": "ratio"}

PER_LAYER_UNITS = {
    "engine.run_s": "s", "engine.slot_us": "us", "engine.self_s": "s",
    "engine.self_frac": "ratio", "engine.active_slot_frac": "ratio",
    "network.transmit_calls": "count", "network.transmit_s": "s",
    "network.assignments_per_call": "count",
    "network.cc_calls": "count", "network.cc_s": "s", "network.diag_s": "s",
    "sampler.lookup_calls": "count", "sampler.lookup_s": "s",
    "control.input_log_calls": "count", "control.input_log_s": "s",
    "sampler.table_build_s": "s", "control.riccati_s": "s", "cli.tables_s": "s",
    "cli.cache_miss": "count", "sampler.table_load_s": "s", "sampler.table_save_s": "s",
    "cli.cache_hit": "count", "engine.sweep_s": "s", "engine.pool_overhead_s": "s",
    "engine.task_pickle_bytes": "B", "cli.csv_write_s": "s", "trace.overhead_frac": "ratio",
}


@dataclass
class Unit:
    """One closed-loop unit: its timings, what the output check found, what the digest hashes."""

    wall_s: float
    sim_s: float
    loop_steps: int
    problems: list
    summary: str


def unit_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def _quartiles(values) -> str:
    if len(values) < 2:
        return f"median {values[0]:.6g}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"median {q2:.6g}, quartiles {q1:.6g} .. {q3:.6g}"


def _quiet(_msg) -> None:
    pass


def import_seconds() -> float:
    """Normalised time to import ncsim (and NumPy with it) in a fresh interpreter.

    The child times the reference kernel itself, right after the import and
    on the same CPU.
    """
    code = ("import time; t = time.perf_counter(); import ncsim.cli; "
            "t = time.perf_counter() - t; import hostspeed, statistics; "
            "k = statistics.median(hostspeed.reference_kernel() for _ in range(3)); "
            "print(t * hostspeed.REFERENCE_KERNEL_S / k)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), str(BENCH), os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout.strip().splitlines()[-1])


def check_run(m) -> list:
    """Output check of one RunMetrics; an empty list means it passed."""
    per_loop = {"rate": m.rate_per_loop, "backlog": m.backlog_per_loop,
                "delay": m.delay_per_loop, "cost": m.cost_per_loop}
    problems = [f"{name} not finite" for name, v in per_loop.items()
                if not np.all(np.isfinite(v))]
    if np.any(per_loop["rate"] < 0) or np.any(per_loop["rate"] > 1):
        problems.append("rate outside [0, 1]")
    if np.any(m.delivered > m.injected):
        problems.append("a loop delivered more than it injected")
    if np.any(per_loop["backlog"] < 0):
        problems.append("negative backlog")
    if np.any(m.diverging):
        problems.append(f"queue divergence flagged on loops {np.flatnonzero(m.diverging).tolist()}")
    return problems


def _read_csv(path: Path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def check_sweep_outputs(out: Path, wl: Workload) -> list:
    """Five CSVs, fixed header, one row per (L, class) in order, sane values."""
    expected_keys = [[str(L), cls] for L in wl.L for cls in CLASSES]
    problems = []
    all_rows = []
    for metric in CSV_METRICS:
        path = out / f"{metric}.csv"
        if not path.is_file():
            problems.append(f"{path.name} missing")
            continue
        header, rows = _read_csv(path)
        if header != CSV_HEADER:
            problems.append(f"{path.name}: header {header}")
        if [row[:2] for row in rows] != expected_keys:
            problems.append(f"{path.name}: rows are not one per (L, class)")
        for row in rows:
            all_rows.append([metric] + row)
            try:
                mean, ci = float(row[2]), float(row[3])
            except (IndexError, ValueError):
                problems.append(f"{path.name}: malformed row {row}")
                continue
            if not (math.isfinite(mean) and math.isfinite(ci)) or mean < 0:
                problems.append(f"{path.name}: bad value in {row}")
            elif metric == "rate" and mean > 1:
                problems.append(f"rate.csv: rate above 1 in {row}")
            if row[4] != str(wl.replications):
                problems.append(f"{path.name}: replications {row[4]}")
    summary = out / "summary.csv"
    if not summary.is_file():
        problems.append("summary.csv missing")
    elif _read_csv(summary) != (["metric"] + CSV_HEADER, all_rows):
        problems.append("summary.csv does not match the metric CSVs")
    return problems


class SweepPhaseClock:
    """Times the sweep phase inside one ncsim.cli.main call from the files it writes.

    The phase starts when the CLI opens the last threshold table it writes to
    the (initially empty) cache and ends when it opens the first CSV; in
    between run the process pool and the aggregation.  An audit hook sees the
    opens, so no ncsim attribute is touched.  Audit hooks cannot be removed;
    this one returns at once unless a call is being timed.
    """

    def __init__(self):
        self._dirs = None
        self._opens: list = []
        sys.addaudithook(self._hook)

    def _hook(self, event, args):
        if self._dirs is None or event != "open":
            return
        path, mode = args[0], args[1]
        if isinstance(path, str) and isinstance(mode, str) and "w" in mode:
            self._opens.append((perf_counter(), path))

    def start(self, cache_dir: Path, out_dir: Path) -> None:
        self._dirs = (str(cache_dir) + os.sep, str(out_dir) + os.sep)
        self._opens = []

    def stop(self):
        """Seconds from the last cache write to the first CSV write, or None if not seen."""
        cache_prefix, out_prefix = self._dirs
        self._dirs = None
        cache = [t for t, p in self._opens if p.startswith(cache_prefix)]
        if not cache:
            return None
        begin = max(cache)
        out = [t for t, p in self._opens if p.startswith(out_prefix) and t > begin]
        return min(out) - begin if out else None


class Bench:
    """One workload's set-up and units, bound to the imported ncsim modules."""

    def __init__(self, wl: Workload, seed: int, work: Path, cpus=None):
        from ncsim import cli, engine
        self.cli, self.engine = cli, engine
        self.wl = wl
        self.seed = seed
        self.work = work
        self.cache_dir = work / "cache"
        self.clock = SweepPhaseClock() if self.wl.is_sweep else None
        self.speed = hostspeed.HostSpeed(cpus or sorted(os.sched_getaffinity(0)))
        self._fresh = 0

    def fresh_dir(self, stem: str) -> Path:
        self._fresh += 1
        return self.work / f"{stem}{self._fresh}"

    def config(self, cache_dir: Path):
        return self.cli.RunConfig(L_values=self.wl.L, horizon=self.wl.horizon,
                                  theta=THETA, cache_dir=str(cache_dir))

    def prepare(self) -> None:
        """Warm the table cache the engine workloads load from (untimed)."""
        if not self.wl.is_sweep:
            self.cli.load_or_build_tables(self.config(self.cache_dir), log=_quiet)

    def setup(self):
        """One set-up: the tables (warm cache load, or a cold build for sweep) and a scenario."""
        if self.wl.is_sweep:
            cache = self.fresh_dir("setup-cache")
        else:
            cache = self.cache_dir
        t0 = perf_counter()
        tables = self.cli.load_or_build_tables(self.config(cache), log=_quiet)
        self.engine.make_two_hop_scenario(self.wl.L[0], seed=unit_seed(self.seed, 0),
                                          horizon=self.wl.horizon)
        elapsed = perf_counter() - t0
        if self.wl.is_sweep:
            shutil.rmtree(cache)
        return elapsed, tables

    def unit(self, index: int, tables) -> Unit:
        seed = unit_seed(self.seed, index)
        if self.wl.is_sweep:
            return self._sweep_unit(seed)
        return self._engine_unit(seed, tables)

    def _engine_unit(self, seed: int, tables) -> Unit:
        engine = self.engine
        L, horizon = self.wl.L[0], self.wl.horizon
        t0 = perf_counter()
        scenario = engine.make_two_hop_scenario(L, seed=seed, horizon=horizon)
        t1 = perf_counter()
        m = engine.run(scenario, tables, theta=THETA)
        t2 = perf_counter()
        means = {name: m.class_means(getattr(m, f"{name}_per_loop")) for name in CSV_METRICS}
        wall = perf_counter() - t0
        return Unit(wall_s=wall, sim_s=t2 - t1, loop_steps=L * horizon,
                    problems=check_run(m), summary=json.dumps(means, sort_keys=True))

    def _sweep_unit(self, seed: int) -> Unit:
        wl = self.wl
        root = self.fresh_dir("sweep")
        out, cache = root / "out", root / "cache"
        argv = ["--L", ",".join(map(str, wl.L)), "--replications", str(wl.replications),
                "--horizon", str(wl.horizon), "--theta", str(THETA), "--seed", str(seed),
                "--workers", str(wl.workers), "--out", str(out), "--cache", str(cache)]
        stdout, stderr = io.StringIO(), io.StringIO()
        self.clock.start(cache, out)
        with redirect_stdout(stdout), redirect_stderr(stderr):
            t0 = perf_counter()
            code = self.cli.main(argv)
            wall = perf_counter() - t0
        sim = self.clock.stop()
        problems = [] if code == 0 else [f"exit code {code}: {stderr.getvalue().strip()}"]
        problems += check_sweep_outputs(out, wl)
        if sim is None:
            problems.append("sweep phase not observed")
        summary_path = out / "summary.csv"
        summary = summary_path.read_text(encoding="utf-8") if summary_path.is_file() else ""
        shutil.rmtree(root)
        loop_steps = sum(wl.L) * wl.replications * wl.horizon
        return Unit(wall_s=wall, sim_s=sim if sim is not None else wall,
                    loop_steps=loop_steps, problems=problems, summary=summary)

    def traced_pass(self):
        """Fixed work: one set-up (engine workloads) and units 0..traced_units-1."""
        tables = None
        if not self.wl.is_sweep:
            _, tables = self.setup()
        units, errors = [], []
        for index in range(self.wl.traced_units):
            try:
                units.append(self.unit(index, tables))
            except Exception as exc:  # noqa: BLE001 - a failed unit is counted, not fatal
                errors.append(f"unit {index}: {type(exc).__name__}: {exc}")
        return units, errors


def digest(units_by_index: dict) -> str:
    h = hashlib.sha256()
    for index in range(DIGEST_UNITS):
        if index in units_by_index:
            h.update(f"{index}\n{units_by_index[index].summary}\n".encode())
    return h.hexdigest()[:16]


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def measure(bench: Bench, seconds: float):
    """Untraced closed loop: SETUP_REPS set-ups, then units for `seconds`.

    Every timing is normalised to the reference box's speed (hostspeed.py);
    the raw medians and the scale are printed beside the metrics.
    """
    baseline = tracing.snapshot()
    import_s = statistics.median(import_seconds() for _ in range(IMPORT_PROBES))
    bench.prepare()
    setups = [bench.speed.timed(bench.setup) for _ in range(SETUP_REPS)]
    tables = setups[-1][0][1]
    units: dict = {}
    scales: dict = {}
    errors: list = []
    index = 0
    deadline = perf_counter() + seconds
    while index < MIN_UNITS or perf_counter() < deadline:
        try:
            units[index], _, scales[index] = bench.speed.timed(bench.unit, index, tables)
        except Exception as exc:  # noqa: BLE001 - a failed unit is counted, not fatal
            errors.append(f"unit {index}: {type(exc).__name__}: {exc}")
        index += 1
    failed = len(errors) + sum(1 for u in units.values() if u.problems)
    errors += [f"unit {i}: {'; '.join(u.problems)}" for i, u in units.items() if u.problems]
    if not units:
        raise RuntimeError("every unit raised: " + "; ".join(errors[:3]))
    raw_throughput = [u.loop_steps / u.sim_s for u in units.values()]
    raw_walls = [u.wall_s for u in units.values()]
    tables_s = statistics.median(t * scale for (t, _), _, scale in setups)
    metrics = {
        "loop_steps_per_s": statistics.median(
            u.loop_steps / (u.sim_s * scales[i]) for i, u in units.items()),
        "wall_s": statistics.median(u.wall_s * scales[i] for i, u in units.items()),
        "setup_s": import_s + tables_s,
        "peak_rss_mb": peak_rss_mb(),
        "ok_frac": (index - failed) / index,
    }
    notes = [f"units {index}, set-ups {SETUP_REPS}, import probes {IMPORT_PROBES}; "
             f"set-up = import {import_s:.4f} s "
             f"+ tables and scenario {tables_s:.4f} s",
             f"fail_frac {failed / index:.6g} ratio ({failed} of {index})",
             f"host speed scale over units: {_quartiles(list(scales.values()))}",
             f"raw loop_steps_per_s over units: {_quartiles(raw_throughput)}",
             f"raw wall_s over units: {_quartiles(raw_walls)}",
             f"digest {digest(units)} (units 0..{DIGEST_UNITS - 1})"]
    touched = tracing.changed(baseline, tracing.snapshot())
    errors += [f"the untraced run changed {name}" for name in touched]
    return index, failed, metrics, notes, errors, not touched


def _merge(parent: dict, workers: list) -> dict:
    merged = {key: dict(parent[key]) for key in ("calls", "total", "self", "counts")}
    for tallies in workers:
        for key in merged:
            for name, value in tallies[key].items():
                if key == "counts" and name == "pickle_bytes":
                    continue  # a worker pickles results, not tasks
                merged[key][name] = merged[key].get(name, 0) + value
    return merged


def layer_metrics(parent: dict, workers: list) -> tuple:
    """Per-layer metrics of one traced pass, and the exact counts that must repeat."""
    t = _merge(parent, workers)
    calls, total, self_t, counts = t["calls"], t["total"], t["self"], t["counts"]
    slots = counts.get("slots", 0)
    run_s = total.get("engine.run", 0.0)
    transmit = calls.get("network.transmit", 0)
    sweep_s = parent["total"].get("engine.sweep", 0.0)
    busiest = max((w["total"].get("engine.run", 0.0) for w in workers),
                  default=parent["total"].get("engine.run", 0.0))
    metrics = {
        "engine.run_s": run_s,
        "engine.slot_us": 1e6 * run_s / slots if slots else 0.0,
        "engine.self_s": self_t.get("engine.run", 0.0),
        "engine.self_frac": self_t.get("engine.run", 0.0) / run_s if run_s else 0.0,
        "engine.active_slot_frac": transmit / slots if slots else 0.0,
        "network.transmit_calls": transmit,
        "network.transmit_s": total.get("network.transmit", 0.0),
        "network.assignments_per_call": counts.get("assignments", 0) / transmit if transmit else 0.0,
        "network.cc_calls": calls.get("network.cc", 0),
        "network.cc_s": total.get("network.cc", 0.0),
        "network.diag_s": total.get("network.diag", 0.0),
        "sampler.lookup_calls": calls.get("sampler.lookup", 0),
        "sampler.lookup_s": total.get("sampler.lookup", 0.0),
        "control.input_log_calls": calls.get("control.input_log", 0),
        "control.input_log_s": total.get("control.input_log", 0.0),
        "sampler.table_build_s": total.get("sampler.table_build", 0.0),
        "control.riccati_s": total.get("control.riccati", 0.0),
        "cli.tables_s": total.get("cli.tables", 0.0),
        "cli.cache_miss": calls.get("sampler.table_build", 0),
        "sampler.table_load_s": total.get("sampler.table_load", 0.0),
        "sampler.table_save_s": total.get("sampler.table_save", 0.0),
        "cli.cache_hit": counts.get("cache_hit", 0),
        "engine.sweep_s": sweep_s,
        "engine.pool_overhead_s": sweep_s - busiest if sweep_s else 0.0,
        "engine.task_pickle_bytes": parent["counts"].get("pickle_bytes", 0),
        "cli.csv_write_s": total.get("cli.csv_write", 0.0),
    }
    exact = {**{f"calls {k}": v for k, v in sorted(calls.items())},
             **{k: counts.get(k, 0) for k in ("slots", "assignments", "cache_hit")}}
    return metrics, exact


def run_traced_pass(bench: Bench, tracer: tracing.Tracer, baseline: dict):
    """One traced pass with the wrappers installed only for its duration."""
    tracer.worker_dir = str(bench.fresh_dir("trace"))
    os.makedirs(tracer.worker_dir)
    tracer.install()
    try:
        (units, errors), raw, scale = bench.speed.timed(bench.traced_pass)
    finally:
        tracer.uninstall()
    problems = [f"attribute not restored: {name}"
                for name in tracing.changed(baseline, tracing.snapshot())]
    workers = tracer.worker_tallies()
    if bench.wl.workers > 1 and not workers:
        problems.append("no pool worker reported its spans")
    metrics, exact = layer_metrics(tracer.tallies(), workers)
    for name in metrics:
        if PER_LAYER_UNITS[name] in ("s", "us"):
            metrics[name] *= scale
    shutil.rmtree(tracer.worker_dir)
    return raw * scale, units, errors, problems, metrics, exact


def measure_traced(bench: Bench, seconds: float):
    """Alternate untraced and traced passes of the same fixed work for `seconds`."""
    bench.prepare()
    baseline = tracing.snapshot()
    tracer = tracing.Tracer()
    untraced_walls, traced_walls, layer_runs, exacts = [], [], [], []
    attempted, errors, problems = 0, [], []
    deadline = perf_counter() + seconds
    while len(traced_walls) < 2 or perf_counter() < deadline:
        (units, errs), raw, scale = bench.speed.timed(bench.traced_pass)
        untraced_walls.append(raw * scale)
        problems += [f"untraced pass changed {name}"
                     for name in tracing.changed(baseline, tracing.snapshot())]
        attempted += bench.wl.traced_units
        errors += errs + ["; ".join(u.problems) for u in units if u.problems]

        wall, units, errs, trace_problems, metrics, exact = run_traced_pass(bench, tracer, baseline)
        traced_walls.append(wall)
        layer_runs.append(metrics)
        exacts.append(exact)
        attempted += bench.wl.traced_units
        errors += errs + ["; ".join(u.problems) for u in units if u.problems]
        problems += trace_problems
    if any(e != exacts[0] for e in exacts[1:]):
        problems.append("call counts differ between traced passes of the same seed")
    metrics = {name: statistics.median(run[name] for run in layer_runs)
               for name in layer_runs[0]}
    u_med, t_med = statistics.median(untraced_walls), statistics.median(traced_walls)
    metrics["trace.overhead_frac"] = (t_med - u_med) / u_med
    notes = [f"passes {len(traced_walls)} traced + {len(untraced_walls)} untraced, "
             f"wall median {t_med:.4f} s traced vs {u_med:.4f} s untraced",
             "exact counts: " + json.dumps(exacts[0], sort_keys=True)]
    return attempted, len(errors), metrics, notes, errors + problems, not problems


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ncsim" / "__init__.py").is_file():
        print(f"run_bench: ncsim sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        wl = WORKLOADS[args.workload]
        cpus = sorted(os.sched_getaffinity(0))
        if not wl.is_sweep:  # one CPU, so the host-speed kernel runs where the units run
            cpus = cpus[-1:]
            os.sched_setaffinity(0, cpus)
        bench = Bench(wl, args.seed, work, cpus)
        run = measure_traced if args.trace else measure
        attempted, failed, metrics, notes, errors, clean = run(bench, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run's directory is still there

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for line in notes + [f"error: {e}" for e in errors]:
        print(line)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    for name, value in metrics.items():
        print(f"{name:<30} {value:.6g} {units[name]}")
    result = {"correct": clean and failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
