"""Benchmark of sgtorus: one workload, one seed, one process.

    python3 perfbench/run.py --workload timeloop --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from its
src/ directory.  Set-up is timed from process start to the first timed op
(imports, seeded inputs, cold solve, one warm-up op), here and in
SETUP_REPS - 1 fresh child processes, so every repetition is cold; then
whole rounds run until about --seconds of timed work have passed.  The last line of standard output is one JSON
object: correct, attempted, failed and metrics (end-to-end metrics with
--trace 0, per-layer metrics with --trace 1).  Results and spans are also
written under perfbench/out/.
"""

import os
import sys
import time

T_START = time.perf_counter()

# one BLAS/OpenMP thread: a second thread on a 2-core machine only adds
# contention noise; must be set before numpy is imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPS = 3


def parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time one cold set-up, print it and exit "
                        "(the child processes of the set-up repetitions)")
    return p.parse_args(argv)


def child_setup_s(args):
    """Set-up time of the workload in a fresh process."""
    cmd = [sys.executable, os.path.abspath(__file__),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                          check=True)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def tail(samples):
    """Highest whole percentile with at least ten samples beyond it; a run
    with fewer than 40 ops has no tail worth the name."""
    n = len(samples)
    if n < 40:
        return None
    pct = (100 * (n - 10)) // n
    return {"percentile": pct, "samples": n,
            "value": statistics.quantiles(samples, n=100)[pct - 1]}


def main(argv=None):
    args = parse(argv)
    if not os.path.isfile(os.path.join(SRC, "sgtorus", "__init__.py")):
        print(f"no sgtorus sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import numpy
    import scipy
    import sgtorus
    import spans
    import workloads

    if not os.path.abspath(sgtorus.__file__).startswith(SRC + os.sep):
        print(f"sgtorus imported from {sgtorus.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    imports_s = time.perf_counter() - T_START

    wl = workloads.WORKLOADS[args.workload](args.seed)
    wl.setup()
    setup_runs = [time.perf_counter() - T_START]
    if args.setup_only:
        print(json.dumps({"setup_s": setup_runs[0]}))
        return 0
    setup_runs += [child_setup_s(args) for _ in range(SETUP_REPS - 1)]
    wl.op_ms.clear()
    wl.failed = 0

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.instrument(tracer)

    # whole rounds, stopping where the timed part lands closest to --seconds
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    rounds, timed, round_s, verdicts = 0, 0.0, [], {}
    while rounds == 0 or timed + 0.5 * timed / rounds < args.seconds:
        out = None  # the previous round's output is not the program's memory
        t = time.perf_counter()
        try:
            out = wl.round()
        except sgtorus.SGTorusError as exc:
            print(f"round {rounds} stopped: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            out = None
        dt = time.perf_counter() - t
        timed += dt
        round_s.append(dt)
        rounds += 1
        if out:
            for name, (ok, value) in wl.check(out).items():
                prev = verdicts.get(name, (True, value))
                verdicts[name] = (prev[0] and bool(ok), value)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    if tracer is not None:
        tracer.restore()

    correct = bool(verdicts) and all(ok for ok, _ in verdicts.values())
    for name, (ok, value) in verdicts.items():
        if not ok:
            print(f"check {name} failed: {value!r}", file=sys.stderr)
    e2e = {
        "setup_s": {"value": statistics.median(setup_runs), "unit": "s"},
        "wall_s": {"value": statistics.median(round_s), "unit": "s"},
        "op_ms.p50": {"value": statistics.median(wl.op_ms), "unit": "ms"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MB"},
    }
    metrics = e2e if tracer is None else spans.per_layer_metrics(tracer, rounds)
    result = {"correct": correct, "attempted": len(wl.op_ms),
              "failed": wl.failed, "metrics": metrics}
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": rounds, "timed_s": timed,
        "ops_per_round": len(wl.op_ms) / rounds,
        "minor_faults_per_round": faults / rounds,
        "op_ms_tail": tail(wl.op_ms),
        "setup_runs_s": setup_runs, "imports_s": imports_s,
        "checks": {k: {"passed": ok, "value": v} for k, (ok, v) in verdicts.items()},
        "env": {k: os.environ[k] for k in THREAD_VARS} | {
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "python": sys.version.split()[0], "nproc": os.cpu_count()},
        "end_to_end": e2e,
    }
    os.makedirs(OUT, exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    with open(os.path.join(OUT, f"result-{stem}.json"), "w") as fh:
        json.dump(info | result, fh, indent=1)
    if tracer is not None:
        with open(os.path.join(OUT, f"trace-{stem}.json"), "w") as fh:
            json.dump({"spans": tracer.dump(), "counts": tracer.counts}, fh)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
