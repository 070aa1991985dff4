"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --runs 10 [--workload timeloop ...] [--tag a]

Runs perfbench/run.py once per seed, one process at a time, with the run
length from BENCHMARK.json.  For each workload and end-to-end metric it
prints the median, the quartiles (statistics.quantiles, n=4) and the
quartile spread (q3 - q1) / median next to the metric's bound, and
writes everything to perfbench/out/spread-<tag>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", action="append",
                   help="workload to run (repeatable; default all)")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--tag", default="latest")
    args = p.parse_args()
    names = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    report = {}
    for name in names:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = bench["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]),
                "--trace", "0"]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=600, check=True)
            runs.append(json.loads(done.stdout.strip().splitlines()[-1]))
            print(name, seed, json.dumps(runs[-1]), flush=True)
        summary = {
            "correct": all(r["correct"] for r in runs),
            "failed_share": sorted({r["failed"] / r["attempted"] for r in runs}),
        }
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            summary[metric] = {"median": med, "q1": q1, "q3": q3,
                               "spread": (q3 - q1) / med if med else 0.0,
                               "bound": bounds.get(metric), "values": values}
        report[name] = summary
        for metric, s in summary.items():
            if isinstance(s, dict):
                print(f"{name:13s} {metric:26s} median {s['median']:12.5g}  "
                      f"spread {s['spread']:7.2%}  bound {s['bound']}")
        print(f"{name:13s} correct {summary['correct']}  "
              f"failed share {summary['failed_share']}", flush=True)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", f"spread-{args.tag}.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
