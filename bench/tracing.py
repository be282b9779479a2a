"""Span tracing for the benchmark's traced run.

`Tracer.install()` replaces the public ncsim names each caller looks up with
timing wrappers; `uninstall()` puts the original objects back.  A wrapper
records, per span name, the calls, the total time and the self time (total
minus the time of wrapped spans it called).  The engine binds `transmit`,
`design_lqg` and `stability_diagnostic` at import, so those are wrapped on
`ncsim.engine`; the CLI binds `sweep`, `build_table`, `design_lqg`,
`load_or_build_tables` and `write_metric_csvs`, so those are wrapped on
`ncsim.cli`.  Methods are wrapped on their class.

A caller's self time leaves out the whole of each wrapped call, the
wrapper's own bookkeeping included, so the tracer's cost is charged to no
span.

Pool workers are forked with the wrappers in place.  While the tracer is
installed, a multiprocessing after-fork hook clears each worker's copy of
the parent's tallies and registers a finalizer that writes the worker's
tallies to `<worker_dir>/worker-<pid>.json` when the worker exits.  (An
`os.register_at_fork` hook would not do: a multiprocessing child clears its
finalizers after that hook has run.)

Only for measurement; nothing here is imported by ncsim.
"""

from __future__ import annotations

import functools
import json
import os
from collections import Counter
from multiprocessing import reduction, util
from time import perf_counter


def _scenario_slots(args, kwargs):
    scenario = kwargs["scenario"] if "scenario" in kwargs else args[0]
    return scenario.horizon * scenario.slots_per_step


def _assignment_count(args, kwargs):
    return len(kwargs["assignments"] if "assignments" in kwargs else args[1])


def ncsim_modules():
    import ncsim
    from ncsim import cli, control, engine, network, sampler
    return (ncsim, control, network, sampler, engine, cli)


def snapshot() -> dict:
    """Every attribute of every ncsim module and ncsim class, by identity.

    `__slotnames__` is left out: copyreg caches it on a class the first time
    an instance is pickled, as the sweep does with the threshold tables.
    """
    out = {}
    for module in ncsim_modules():
        for name, value in vars(module).items():
            out[(module.__name__, name)] = value
            if isinstance(value, type) and value.__module__.startswith("ncsim"):
                for attr, member in vars(value).items():
                    if attr != "__slotnames__":
                        out[(f"{value.__module__}.{value.__qualname__}", attr)] = member
    out[("multiprocessing.reduction.ForkingPickler", "dumps")] = \
        vars(reduction.ForkingPickler)["dumps"]
    return out


def changed(before: dict, after: dict) -> list:
    """Names whose object differs between two snapshots."""
    keys = set(before) | set(after)
    return sorted(".".join(k) for k in keys
                  if k not in before or k not in after or before[k] is not after[k])


class Tracer:
    """Per-process span tallies plus the wrappers that feed them."""

    def __init__(self):
        self.worker_dir = None  # set before each pass that may fork workers
        self._saved: list = []
        self.reset()
        util.register_after_fork(self, Tracer._after_fork)

    def reset(self) -> None:
        self.calls: Counter = Counter()
        self.total: Counter = Counter()
        self.self_time: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list = []  # time spent in wrapped children of each open span

    def tallies(self) -> dict:
        return {"calls": dict(self.calls), "total": dict(self.total),
                "self": dict(self.self_time), "counts": dict(self.counts)}

    def _after_fork(self) -> None:
        if self._saved:  # installed, so this is a worker of a traced pass
            self.reset()
            util.Finalize(None, self._dump_worker, exitpriority=100)

    def _dump_worker(self) -> None:
        path = os.path.join(self.worker_dir, f"worker-{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.tallies(), fh)

    def _span(self, name: str, fn, count=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t_entry = perf_counter()
            stack = tracer._stack
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                children = stack.pop()
                tracer.calls[name] += 1
                tracer.total[name] += dt
                tracer.self_time[name] += dt - children
                if count is not None:
                    tracer.counts[count[0]] += count[1](args, kwargs)
                if stack:  # the caller's self time leaves out this wrapper too
                    stack[-1] += perf_counter() - t_entry
        return wrapper

    def _tables_span(self, fn):
        """cli.load_or_build_tables: a table it returned without building it was a cache hit."""
        tracer = self
        span = self._span("cli.tables", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            built = tracer.calls["sampler.table_build"]
            tables = span(*args, **kwargs)
            tracer.counts["cache_hit"] += len(tables) - (tracer.calls["sampler.table_build"] - built)
            return tables
        return wrapper

    def _pickle_counter(self, fn):
        """Bytes the pool's queues pickle (runs on the queue feeder thread, so no span)."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            data = fn(*args, **kwargs)
            tracer.counts["pickle_bytes"] += len(data)
            return data
        return wrapper

    def _wrap(self, owner, attr: str, make) -> None:
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        else:
            new = make(raw)
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, new)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        from ncsim import cli, engine
        from ncsim.control import InputLog
        from ncsim.network import BufferSet
        from ncsim.sampler import ThresholdTable

        def span(name, count=None):
            return lambda fn: self._span(name, fn, count)

        self.reset()
        plan = [
            (engine, "run", span("engine.run", ("slots", _scenario_slots))),
            (engine, "transmit", span("network.transmit", ("assignments", _assignment_count))),
            (engine, "design_lqg", span("control.riccati")),
            (engine, "stability_diagnostic", span("network.diag")),
            (cli, "design_lqg", span("control.riccati")),
            (cli, "build_table", span("sampler.table_build")),
            (cli, "load_or_build_tables", self._tables_span),
            (cli, "sweep", span("engine.sweep")),
            (cli, "write_metric_csvs", span("cli.csv_write")),
            (InputLog, "record", span("control.input_log")),
            (InputLog, "window", span("control.input_log")),
            (InputLog, "prune", span("control.input_log")),
            (ThresholdTable, "lookup_many", span("sampler.lookup")),
            (ThresholdTable, "load", span("sampler.table_load")),
            (ThresholdTable, "save", span("sampler.table_save")),
            (BufferSet, "cc_push", span("network.cc")),
            (BufferSet, "cc_admit", span("network.cc")),
            (reduction.ForkingPickler, "dumps", self._pickle_counter),
        ]
        try:
            for owner, attr, make in plan:
                self._wrap(owner, attr, make)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def worker_tallies(self) -> list:
        """Tallies dumped by pool workers that have exited."""
        out = []
        for name in sorted(os.listdir(self.worker_dir)):
            if name.startswith("worker-") and name.endswith(".json"):
                with open(os.path.join(self.worker_dir, name), encoding="utf-8") as fh:
                    out.append(json.load(fh))
        return out
