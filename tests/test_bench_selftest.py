"""The benchmark's tracing contract, run as part of the test suite.

bench/tracing.py wraps ncsim names (engine.transmit, BufferSet.cc_push and
cc_admit, InputLog.record/window/prune, ThresholdTable.lookup_many, ...) and
bench/selftest.py asserts that a traced run calls each of them.  Running it
here makes an engine change that stops calling a traced name fail the suite.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftest_passes():
    done = subprocess.run([sys.executable, str(ROOT / "bench" / "selftest.py")], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
