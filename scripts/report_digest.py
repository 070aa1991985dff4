"""sha256 of every report file the CLI writes, to check byte-identity.

    python3 scripts/report_digest.py [--src DIR]

Runs each report-writing command at its defaults, then `sg-run --n 128`,
`polar-run --n 128` and `verify`, each in a fresh temporary directory
with one BLAS thread (as the tests pin it).  Prints one line
`<command>: <file> <sha256>` per report file, and `<command>: exit
<code>` for a command that fails.  metadata.json (wall-clock times) is
skipped, and suite.json is hashed without its elapsed_s fields.  --src
points at the src/ directory of the checkout to run (default: this
one), so two versions can be compared line by line.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNS = (
    ("ma-solve",),
    ("sg-run",),
    ("lma-dirichlet",),
    ("green-report",),
    ("sections-report",),
    ("regularity-report",),
    ("polar-run",),
    ("sg-run", "--n", "128"),
    ("polar-run", "--n", "128"),
    ("verify",),
)


def digest(path):
    with open(path, "rb") as fh:
        data = fh.read()
    if os.path.basename(path) == "suite.json":
        suite = json.loads(data)
        for check in suite.values():
            check.pop("elapsed_s", None)
        data = json.dumps(suite, indent=1, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def run(argv, env):
    """Exit code and digest lines of one CLI command run in a fresh
    directory."""
    label = " ".join(argv)
    with tempfile.TemporaryDirectory() as tmp:
        done = subprocess.run([sys.executable, "-m", "sgtorus.cli", *argv],
                              cwd=tmp, env=env, capture_output=True)
        lines = [] if done.returncode == 0 else [
            f"{label}: exit {done.returncode}"]
        for base, _, files in sorted(os.walk(tmp)):
            for name in sorted(files):
                if name == "metadata.json":
                    continue
                path = os.path.join(base, name)
                lines.append(f"{label}: {os.path.relpath(path, tmp)} "
                             f"{digest(path)}")
    return done.returncode, lines


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--src", default=os.path.join(ROOT, "src"))
    args = p.parse_args()
    env = dict(os.environ, PYTHONPATH=os.path.abspath(args.src),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    failed = False
    for argv in RUNS:
        code, lines = run(argv, env)
        failed = failed or code != 0
        for line in lines:
            print(line, flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
