"""The benchmark's own correctness checks pass on the library.

perfbench/smoke.py runs each workload once at N=32, checks its output and
checks that every check rejects a corrupted copy of it, one PASS or FAIL
line each.  Running it here makes a library change that breaks a
workload or a check fail in the tests.  Its last line, "every per-layer
metric recorded", still fails on the stale span names that
tests/test_bench_spans.py pins; that line is the only FAIL let through.
"""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
PER_LAYER = "every per-layer metric recorded"


def test_smoke_checks_pass_but_the_per_layer_line():
    done = subprocess.run([sys.executable, str(ROOT / "perfbench" / "smoke.py")],
                          capture_output=True, text=True, timeout=300,
                          cwd=ROOT)
    lines = done.stdout.splitlines()
    # the per-layer line is printed last: the script ran to its end
    assert lines and PER_LAYER in lines[-1], done.stderr
    failed = [line for line in lines if line.startswith("FAIL")]
    assert all(PER_LAYER in line for line in failed), failed
    # 38 checks and corruption rejections over the three workloads
    assert sum(line.startswith("PASS") for line in lines) >= 38
    assert done.returncode == (1 if failed else 0)
