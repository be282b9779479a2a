"""The benchmark's seed-4242 digests, pinned.

bench/run_bench.py hashes the class means of units 0..DIGEST_UNITS-1 of each
workload.  A change to the engine that keeps every number keeps these
digests; one that moves any draw, packet or float changes them.  The units
run in a subprocess with bench/ and src/ on its path, because the sweep
workload's phase clock installs an audit hook that cannot be removed.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

DIGESTS = {
    "congested": "3eb5d9b7bf1f2f37",
    "light": "281a4fa0588268e0",
    "sweep": "02691f45d81d533b",
}

PROBE = """
import sys
from pathlib import Path

import run_bench

work, want = Path(sys.argv[1]), dict(zip(sys.argv[2::2], sys.argv[3::2]))
for name, expected in want.items():
    bench = run_bench.Bench(run_bench.WORKLOADS[name], 4242, work / name)
    bench.prepare()
    tables = None if bench.wl.is_sweep else bench.setup()[1]
    units = {i: bench.unit(i, tables) for i in range(run_bench.DIGEST_UNITS)}
    problems = [f"unit {i}: {p}" for i, u in units.items() for p in u.problems]
    assert not problems, (name, problems)
    got = run_bench.digest(units)
    assert got == expected, f"{name}: digest {got}, pinned {expected}"
    print(name, got)
"""


def test_seed_4242_digests(tmp_path):
    env_path = os.pathsep.join([str(ROOT / "bench"), str(ROOT / "src")])
    argv = [str(tmp_path)] + [item for pair in DIGESTS.items() for item in pair]
    done = subprocess.run([sys.executable, "-c", PROBE, *argv], cwd=ROOT,
                          env={**os.environ, "PYTHONPATH": env_path},
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
    assert done.stdout.split() == [item for pair in DIGESTS.items() for item in pair]
