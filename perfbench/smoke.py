"""Smoke test of the benchmark at N=32: every correctness check passes on
the real output and rejects a corrupted copy of it.

    python3 perfbench/smoke.py

Exits 1 if a check fails on real output or accepts a corrupted one.
"""

import copy
import os
import sys

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

N = 32
H = 1.0 / N


def _set(key, value):
    def corrupt(out):
        out[key] = value
    return corrupt


def _timeloop_corruptions():
    x1, _ = inputs.centers(N)

    def scale_mass(out):
        out["rho"][3] = out["rho"][3] * (1.0 + 1e-6)

    def escape(out):
        out["rho"][2][0, 0] = out["Lam"] * 1.01

    def fast(out):
        out["q"][2] = out["q"][2] + 0.12 * np.sin(inputs.TWO_PI * x1)

    def off_ma(out):
        out["q"][2] = out["q"][2] + 1e-7 * np.cos(inputs.TWO_PI * x1)

    def off_identity(out):
        out["lma_residual"][1] = 0.7

    return {
        "mass": scale_mass,
        "density_envelope": escape,
        "velocity_bound": fast,
        "ma_residual": off_ma,
        "linearized_identity": off_identity,
        "gamma_min": _set("gamma_min", -0.1),
        "r2_fraction": _set("r2_ok_fraction", 0.4),
    }


def _lma_corruptions():
    def first(fn):
        def corrupt(ops):
            fn(ops[0])
        return corrupt

    def steep(op):
        op["green_mass"] = [m * ht**0.5
                            for m, ht in zip(op["green_mass"], op["heights"])]

    def tall(op):
        op["heights"][0] *= 20.0

    def shrink(op):
        A, b = op["john"][0]
        op["john"][0] = (0.3 * A, b)

    def front(op):
        # a sharp front through the centre: nested masks keep every ratio
        # under 1, but the oscillation barely decays down the ladder
        x1, _ = inputs.centers(N)
        d = inputs.wrap_delta(x1 - op["center"][0])
        op["uh"] = np.arctan(d / (0.25 * H))

    def reported(op):
        op["decay_ratios"][0] += 1e-6

    def bump(op):
        inner = np.argwhere(op["masks"][-1])
        i, j = inner[len(inner) // 2]
        op["uh"] = op["uh"].copy()
        op["uh"][i, j] += 1e-3 * np.max(np.abs(op["uh"]))

    def nudge(op):
        op["u"] = op["u"] + 1e-6 * op["flux_mask"]

    return {
        "green_symmetry": first(lambda op: op.update(symmetry_defect=1e-3)),
        "green_positivity": first(lambda op: op.update(positivity_floor=-1e-3)),
        "green_mass_slope": first(steep),
        "area_height_spread": first(tall),
        "john_containment": first(shrink),
        "oscillation_ratio": first(front),
        "oscillation_report": first(reported),
        "homogeneous_residual": first(bump),
        "flux_residual": first(nudge),
    }


def _polar_corruptions():
    def off_g(out):
        g1, g2 = out["g"][0]
        out["g"][0] = (g1 + 2.0 * H, g2)

    def off_p(out):
        p1, p2 = out["grad_p"][0]
        p1 = p1.copy()
        p1[0, 0] += 2.0 * H
        out["grad_p"][0] = (p1, p2)

    return {
        "g_is_shear": off_g,
        "grad_p_closed_form": off_p,
        "gamma_min": _set("gamma_min", -0.1),
    }


def main():
    cases = [
        (workloads.TimeLoop(1, n=N), _timeloop_corruptions()),
        (workloads.LmaSections(1, n=N, centres=2, rungs=3),
         _lma_corruptions()),
        (workloads.PolarSeries(1, n=N), _polar_corruptions()),
    ]
    tracer = spans.Tracer()
    spans.instrument(tracer)
    problems = 0
    for wl, table in cases:
        wl.setup()
        out = wl.round()
        verdicts = wl.check(out)
        for name, (ok, value) in verdicts.items():
            print(f"{'PASS' if ok else 'FAIL'} {wl.name} {name} = {value:.4g}")
            problems += not ok
        if set(table) != set(verdicts):
            print(f"FAIL {wl.name}: corruptions cover {sorted(table)}, "
                  f"checks are {sorted(verdicts)}")
            problems += 1
        for name, corrupt in table.items():
            bad = copy.deepcopy(out)
            corrupt(bad)
            ok, value = wl.check(bad)[name]
            print(f"{'FAIL' if ok else 'PASS'} {wl.name} {name} rejects "
                  f"corrupted output ({value:.4g})")
            problems += ok
    tracer.restore()
    layers = spans.per_layer_metrics(tracer, 1)
    # no section here needs the hull fallback, so that count stays 0
    silent = [k for k, v in layers.items()
              if v["value"] == 0 and k != "sections.john_hull"]
    print(f"{'PASS' if not silent else 'FAIL'} every per-layer metric "
          f"recorded{': missing ' + ', '.join(silent) if silent else ''}")
    problems += bool(silent)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
