"""Reference figures beside the benchmark (not part of a benchmark run).

    python3 perfbench/reference.py

Re-measures the per-layer baseline table at N = 64/128/256 on the
two-mode preset (median of a few repeats, one BLAS thread), the timeloop
step at N=256 on the seed-1 two-bump density, and the wall time of a full
`sgtorus verify` in a child process.  Prints a table and writes
perfbench/out/reference.json.
"""

import json
import os
import statistics
import subprocess
import sys
import time

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import inputs  # noqa: E402
from sgtorus import TorusGrid, dynamics, extract_section, lma  # noqa: E402
from sgtorus.ma import cofactor, legendre, solve_ma_periodic  # noqa: E402
from sgtorus.presets import two_mode_density  # noqa: E402


def median_s(fn, repeats):
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def layers(n):
    grid = TorusGrid(n)
    rho, lam, Lam = two_mode_density(grid)
    big = n >= 256
    pot = solve_ma_periodic(rho, lam=lam, Lam=Lam)
    cof = cofactor(pot)
    sec = extract_section(pot, (0.5, 0.5), 0.02)
    vel = dynamics.velocity_from_potential(pot)
    return {
        "cold_ma_s": median_s(lambda: solve_ma_periodic(rho, lam=lam, Lam=Lam),
                              1 if big else 3),
        "newton_iters": pot.newton_iters,
        "legendre_s": median_s(lambda: legendre(pot), 1 if big else 3),
        "lma_assembly_ms": 1e3 * median_s(
            lambda: lma.DivergenceFormOperator(grid, cof), 5),
        "green_ms": 1e3 * median_s(
            lambda: lma.green_function(cof, sec.mask, sec.center_index, grid), 5),
        "transport_ms": 1e3 * median_s(
            lambda: dynamics.transport_step(rho.values, vel, 2e-3, grid), 5),
    }


def step_256(steps=5):
    grid = TorusGrid(256)
    rho, lam, Lam = inputs.two_bump(256, np.random.default_rng(1))
    state = dynamics.SGState.from_density(rho, grid, lam=lam, Lam=Lam)
    times = []
    for _ in range(steps):
        t = time.perf_counter()
        state = dynamics.step(state, 2.5e-4)
        times.append(time.perf_counter() - t)
    return statistics.median(times), state.pot.newton_iters


def verify_wall():
    out = os.path.join(HERE, "out", "verify")
    code = ("import sys; from sgtorus.cli import main; "
            f"sys.exit(main(['verify', '--out', {out!r}]))")
    env = dict(os.environ, PYTHONPATH=SRC)
    t = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=900)
    return time.perf_counter() - t, done.returncode


def main():
    ref = {"layers": {}}
    for n in (64, 128, 256):
        ref["layers"][n] = layers(n)
        print(n, json.dumps(ref["layers"][n]), flush=True)
    ref["timeloop_step_256_s"], ref["timeloop_step_256_newton"] = step_256()
    print("timeloop step at N=256:", ref["timeloop_step_256_s"], flush=True)
    ref["verify_wall_s"], ref["verify_exit"] = verify_wall()
    print("sgtorus verify:", ref["verify_wall_s"], "exit", ref["verify_exit"],
          flush=True)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "reference.json"), "w") as fh:
        json.dump(ref, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
