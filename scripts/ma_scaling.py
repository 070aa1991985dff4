"""MA solve, step, Legendre, masked Green and Holder-report times against N.

    python3 scripts/ma_scaling.py --n 64 128 256 512 [--src DIR] [--steps 5]
    python3 scripts/ma_scaling.py --n 128 256 --pinch 4 100 2500 [--src DIR]

For each N, in a fresh process with one BLAS thread: COLD_REPS cold
solves of the two-bump preset density, then one untimed time-loop step
(dt = 2.5e-4) warm-started from the last of them and --steps timed ones
from there (their median is step_s), then LEGENDRE_REPS
Legendre transforms of the cold potential, then, for each section
S(GREEN_CENTRE, h) of the cold potential with h in GREEN_HEIGHTS,
GREEN_REPS masked Green's functions (operator set-up plus CG solve at
rtol 1e-12) with the pole at the section's centre, then GREEN_REPS
builds of its masked DivergenceFormOperator alone (rows, Ritz probes
and V-cycle hierarchy), after the Green's functions so that they do not
move the Green timing; the untimed call before each Legendre and Green
timing takes the first call's one-time costs (the scipy.sparse import
of the first masked operator, say) out of the median, and the untimed
Green's function warms the operator builds.  Then
dynamics.lma_residual on each interior record of the timed steps with its
centred dP*/dt (their median is lma_residual_s), then
dynamics.dtp_regularity, the Holder fits alone (the polar series adds
the L^(1+kappa) gradient norms itself), at HOLDER_CENTRES seeded centres
on the centred dP*/dt of the timed steps: once on the first (holder_first_s,
which builds any per-centre tables) and HOLDER_REPS times on the next ones
in turn (their median is holder_s).  Prints one JSON object per N: the
median cold_s and step_s, legendre_s, lma_residual_s and holder_s,
holder_first_s, Newton and Krylov iteration counts, operator_s, green_s
and green_iters (the median operator build, the median Green time and the
CG iterations of one Green solve, keyed by h), and the child's peak RSS.
With --pinch, each N instead times cold solves of the two-bump density
mapped onto [P^-1/2, P^1/2] for each pinch P (the pinch Lambda/lambda is
P before the mass normalization), PINCH_REPS solves each, and then
PINCH_REPS periodic LMA solves div(Phi grad u) = div F with the cofactor
Phi of the cold potential and the bounded, discontinuous flux
F = (sign sin 2 pi (3 x1 + 2 x2), 1{x1 + x2/2 < 0.62}), each the build
of the periodic operator and its CG solve at the default tolerance, as
lma.solve_periodic_lma runs them, then, after one untimed call,
PINCH_REPS masked Green's functions on S(GREEN_CENTRE, 0.02) of the
cold potential as above: one JSON object per (N, P) with the median
cold_s, periodic_s and green_s, the Newton, Krylov, periodic CG and
Green CG iteration counts (the same in every solve; green_s and
green_iters keyed by h) and the density's actual lambda and Lambda.
--src points at the src/ directory of the checkout to measure (default:
this one), so two versions can be timed with the same script.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COLD_REPS = 5
LEGENDRE_REPS = 7
HOLDER_CENTRES = 20
HOLDER_REPS = 3
GREEN_CENTRE = (0.3, 0.3)
GREEN_HEIGHTS = (0.02, 0.08)
GREEN_REPS = 7
PINCH_REPS = 3
DT = 2.5e-4


def count_cg(lma, iters):
    """Make lma.cg append the iteration count of every solve to iters;
    returns the original, to put back."""
    cg = lma.cg

    def counted_cg(*args, **kwargs):
        x, k, converged = cg(*args, **kwargs)
        iters.append(k)
        return x, k, converged

    lma.cg = counted_cg
    return cg


def measure(n, steps):
    import resource
    import statistics
    import time

    import numpy as np

    from sgtorus import dynamics, lma, ma, presets, sections
    from sgtorus.grid import TorusGrid, mean_zero

    grid = TorusGrid(n)
    rho, lam, Lam = presets.two_bump_density(grid)
    dynamics.SGState.from_density(rho, grid, lam=lam, Lam=Lam)
    cold_s = []
    for _ in range(COLD_REPS):
        t = time.perf_counter()
        state = dynamics.SGState.from_density(rho, grid, lam=lam, Lam=Lam)
        cold_s.append(time.perf_counter() - t)
    cold = state.pot
    state = dynamics.step(state, DT)
    step_s, newton, krylov = [], 0, 0
    history = [state]
    for _ in range(steps):
        t = time.perf_counter()
        state = dynamics.step(state, DT)
        step_s.append(time.perf_counter() - t)
        newton += state.pot.newton_iters
        krylov += state.pot.linear_iters
        history.append(state)
    ma.legendre(cold)
    legendre_s = []
    for _ in range(LEGENDRE_REPS):
        t = time.perf_counter()
        ma.legendre(cold)
        legendre_s.append(time.perf_counter() - t)
    cof = ma.cofactor(cold)
    cg_iters, green_iters, green_s, operator_s = [], {}, {}, {}
    cg = count_cg(lma, cg_iters)
    for h in GREEN_HEIGHTS:
        sec = sections.extract_section(cold, GREEN_CENTRE, h)
        lma.green_function(cof, sec.mask, sec.center_index, grid)
        times = []
        for _ in range(GREEN_REPS):
            t = time.perf_counter()
            lma.green_function(cof, sec.mask, sec.center_index, grid)
            times.append(time.perf_counter() - t)
        green_s[repr(h)] = statistics.median(times)
        green_iters[repr(h)] = cg_iters[-1]
        times = []
        for _ in range(GREEN_REPS):
            t = time.perf_counter()
            lma.DivergenceFormOperator(grid, cof, mask=sec.mask)
            times.append(time.perf_counter() - t)
        operator_s[repr(h)] = statistics.median(times)
    lma.cg = cg
    # (state, dP*/dt) at the interior records, centred as RunResult.dtp_field
    records = [(history[k],
                mean_zero((history[k + 1].pot.q - history[k - 1].pot.q)
                          / (2.0 * DT)))
               for k in range(1, len(history) - 1)]
    lma_residual_s = []
    for state, dtp in records:
        t = time.perf_counter()
        dynamics.lma_residual(state.pot, state.rho, state.velocity, dtp)
        lma_residual_s.append(time.perf_counter() - t)
    centers = np.random.default_rng(0).random((HOLDER_CENTRES, 2))
    holder_s = []
    for r in range(HOLDER_REPS + 1):
        _, dtp = records[r % len(records)]
        t = time.perf_counter()
        dynamics.dtp_regularity(dtp, centers, grid)
        holder_s.append(time.perf_counter() - t)
    return {
        "n": n, "cold_s": statistics.median(cold_s),
        "step_s": statistics.median(step_s),
        "legendre_s": statistics.median(legendre_s),
        "lma_residual_s": statistics.median(lma_residual_s),
        "holder_first_s": holder_s[0],
        "holder_s": statistics.median(holder_s[1:]),
        "operator_s": operator_s, "green_s": green_s,
        "green_iters": green_iters,
        "steps": steps, "cold_newton_iters": cold.newton_iters,
        "cold_linear_iters": cold.linear_iters,
        "step_newton_iters": newton, "step_linear_iters": krylov or None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def measure_pinch(n, pinch):
    import resource
    import statistics
    import time

    import numpy as np

    from sgtorus import lma, ma, presets, sections
    from sgtorus.grid import TorusGrid

    grid = TorusGrid(n)
    rho, lam, Lam = presets.two_bump_density(grid, lo=pinch**-0.5,
                                             hi=pinch**0.5)
    cold_s = []
    for _ in range(PINCH_REPS):
        t = time.perf_counter()
        pot = ma.solve_ma_periodic(rho, lam=lam, Lam=Lam)
        cold_s.append(time.perf_counter() - t)
    newton, krylov = pot.newton_iters, pot.linear_iters
    x1, x2 = grid.centers()
    flux = (np.sign(np.sin(2.0 * np.pi * (3.0 * x1 + 2.0 * x2))),
            (x1 + x2 / 2.0 < 0.62).astype(float))
    cof = ma.cofactor(pot)
    periodic_s, cg_iters = [], []
    cg = count_cg(lma, cg_iters)
    for _ in range(PINCH_REPS):
        t = time.perf_counter()
        op = lma.DivergenceFormOperator(grid, cof)
        rhs = -op.divergence_rhs(*flux)
        op.solve(rhs - rhs.mean())
        periodic_s.append(time.perf_counter() - t)
    periodic_iters = cg_iters[-1]
    h = GREEN_HEIGHTS[0]
    sec = sections.extract_section(pot, GREEN_CENTRE, h)
    lma.green_function(cof, sec.mask, sec.center_index, grid)
    green_s = []
    for _ in range(PINCH_REPS):
        t = time.perf_counter()
        lma.green_function(cof, sec.mask, sec.center_index, grid)
        green_s.append(time.perf_counter() - t)
    lma.cg = cg
    return {
        "n": n, "pinch": pinch, "lambda": lam, "Lambda": Lam,
        "cold_s": statistics.median(cold_s), "newton_iters": newton,
        "linear_iters": krylov, "linear_per_newton": krylov / max(newton, 1),
        "periodic_s": statistics.median(periodic_s),
        "periodic_cg_iters": periodic_iters,
        "green_s": {repr(h): statistics.median(green_s)},
        "green_iters": {repr(h): cg_iters[-1]},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--n", type=int, nargs="+", required=True)
    p.add_argument("--steps", type=int, default=5)
    p.add_argument("--pinch", type=float, nargs="+",
                   help="time cold solves at these pinches instead")
    p.add_argument("--src", default=os.path.join(ROOT, "src"))
    p.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args()
    if args.steps < 2:
        p.error("--steps must be at least 2 for a centred dP*/dt")
    if args.pinch and min(args.pinch) < 1.0:
        p.error("--pinch values must be at least 1")
    if args.child:
        sys.path.insert(0, os.path.abspath(args.src))
        if args.pinch:
            print(json.dumps(measure_pinch(args.n[0], args.pinch[0])))
        else:
            print(json.dumps(measure(args.n[0], args.steps)))
        return 0
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    runs = ([["--steps", str(args.steps)]] if not args.pinch
            else [["--pinch", repr(pinch)] for pinch in args.pinch])
    for n in args.n:
        for extra in runs:
            done = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--child",
                 "--n", str(n), "--src", args.src, *extra],
                env=env, capture_output=True, text=True, check=True)
            print(done.stdout.strip(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
