"""Self-test of the benchmark's tracing.

    python3 bench/selftest.py            # or: python3 -m pytest bench/selftest.py

Two traced passes of the same seed must give exactly the same call counts,
the wrappers must be gone after each pass, and a wrapper left installed must
show up in the attribute check.  The file is not named test_*, so a plain
pytest run from the repository root does not collect it.
"""

import sys

import pytest

import run_bench
import tracing

sys.path.insert(0, str(run_bench.SRC))

# A smaller sweep than the benchmark's, with the same pool and cold cache.
SMALL_SWEEP = run_bench.Workload(L=(2, 4), horizon=1000, traced_units=1,
                                 replications=2, workers=2)


def two_traced_passes(wl, work):
    bench = run_bench.Bench(wl, seed=7, work=work)
    bench.prepare()
    baseline = tracing.snapshot()
    tracer = tracing.Tracer()
    return [run_bench.run_traced_pass(bench, tracer, baseline) for _ in range(2)]


@pytest.mark.parametrize("wl, slot_frac", [
    (run_bench.WORKLOADS["congested"], (0.95, 1.0)),
    (run_bench.WORKLOADS["light"], (0.0, 0.5)),
    (SMALL_SWEEP, (0.0, 1.0)),
])
def test_counts_repeat_and_wrappers_are_removed(wl, slot_frac, tmp_path):
    first, second = two_traced_passes(wl, tmp_path)
    for _, units, errors, problems, _, _ in (first, second):
        assert not errors and not problems
        assert units and not any(u.problems for u in units)
    metrics, exact = first[4], first[5]
    assert exact == second[5]
    assert exact["calls network.transmit"] > 0 and exact["calls sampler.lookup"] > 0
    assert exact["calls network.cc"] > 0 and exact["calls control.input_log"] > 0
    low, high = slot_frac
    assert low <= metrics["engine.active_slot_frac"] <= high


def test_sweep_spans_come_from_the_workers(tmp_path):
    first, _ = two_traced_passes(SMALL_SWEEP, tmp_path)
    metrics, exact = first[4], first[5]
    tasks = len(SMALL_SWEEP.L) * SMALL_SWEEP.replications
    assert exact["calls engine.run"] == tasks
    assert exact["calls sampler.table_build"] == 2 and exact["cache_hit"] == 0
    assert metrics["engine.sweep_s"] > 0 and metrics["engine.task_pickle_bytes"] > 0


def test_leaked_wrapper_is_reported(tmp_path):
    run_bench.Bench(run_bench.WORKLOADS["light"], seed=7, work=tmp_path)  # imports ncsim
    baseline = tracing.snapshot()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        leaked = tracing.changed(baseline, tracing.snapshot())
    finally:
        tracer.uninstall()
    for name in ("ncsim.engine.run", "ncsim.engine.transmit", "ncsim.cli.sweep",
                 "ncsim.control.InputLog.record", "ncsim.sampler.ThresholdTable.load",
                 "ncsim.network.BufferSet.cc_admit"):
        assert name in leaked
    assert not tracing.changed(baseline, tracing.snapshot())


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q", "-p", "no:cacheprovider"]))
