"""Batch command-line driver.

Eight subcommands map the library onto files: solve a potential, run the
time loop, solve Dirichlet problems on sections, emit Green's-function /
section-geometry / regularity reports, factor map series, and run the
verification suite.  Configs are plain key=value text overridden by
flags; with a fixed seed every report file is byte-identical across runs
(wall-clock timestamps live in a separate metadata file).

Exit codes: 0 success, 1 bad configuration, 2 solver failure,
3 invariant violation (certificate name on stderr).
"""

import argparse
import csv
import datetime
import json
import os
import sys
import time

import numpy as np

from . import acceptance, dynamics, polar, presets, regularity
from . import grid as gridmod
from .errors import ConfigError, GridMismatch, InvariantViolation, SGTorusError
from .fitting import dyadic_ladder
from .grid import TorusField, TorusGrid
from .lma import green_integrability_report, solve_dirichlet_lma
from .ma import cofactor, solve_ma_periodic
from .sections import extract_section, john_normalize, section_ladder

# potential commands also accept a density, whose solved potential they use
POTENTIAL_PRESETS = {
    "quadratic": presets.quadratic_potential,
    "cosine": presets.perturbed_potential,
}


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; remap to the config code
    def error(self, message):
        raise ConfigError(message)


def load_config(path):
    cfg = {}
    try:
        with open(path) as fh:
            for line_no, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{line_no}: expected key=value")
                key, value = line.split("=", 1)
                cfg[key.strip()] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    return cfg


def _merge(args, cfg, key, cast, default):
    """Flag > config file > default."""
    flag_val = getattr(args, key.replace("-", "_"), None)
    if flag_val is not None:
        return flag_val
    if key in cfg:
        try:
            return cast(cfg[key])
        except ValueError:
            raise ConfigError(f"config key {key}={cfg[key]!r} is not {cast.__name__}")
    return default


def _positive(value, name):
    if value is None or (np.isfinite(value) and value > 0):
        return value
    raise ConfigError(f"{name} must be positive and finite, got {value}")


def _grid_size(args, cfg, default):
    n = _merge(args, cfg, "n", int, default)
    if n < 4:
        raise ConfigError(f"n must be at least 4, got {n}")
    return n


def _seed(args, cfg):
    seed = _merge(args, cfg, "seed", int, 0)
    if seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed}")
    return seed


def _parse_center(text):
    try:
        center = tuple(float(x) for x in text.split(","))
    except ValueError:
        center = ()
    if len(center) != 2 or not np.all(np.isfinite(center)):
        raise ConfigError(f"center must be 'x1,x2', both finite, got {text!r}")
    return center


def _out_dir(args):
    out = args.out or "sgtorus_out"
    os.makedirs(out, exist_ok=True)
    return out


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True, default=str)
        fh.write("\n")


def _write_csv(path, header, rows):
    """CSV of a header and rows: floats as their repr, None as "" (the
    csv module's empty field), anything else as csv writes it."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([repr(float(v)) if isinstance(v, float) else v
                          for v in row] for row in rows)


def _write_metadata(out, args, started, elapsed):
    # the one file allowed to differ between identical runs
    _write_json(os.path.join(out, "metadata.json"), {
        "command": args.command,
        "argv": sys.argv[1:],
        "started": datetime.datetime.fromtimestamp(started).isoformat(),
        "elapsed_s": elapsed,
    })


def _resolve_density(name, grid):
    if name in presets.DENSITY_PRESETS:
        return presets.DENSITY_PRESETS[name](grid)
    if os.path.exists(name):
        try:
            field = (gridmod.field_from_binary(name) if name.endswith(".bin")
                     else gridmod.field_from_csv(name))
        except ValueError as exc:
            raise ConfigError(f"bad density file {name}: {exc}")
        if field.shape[0] != grid.n:
            raise ConfigError(
                f"density file is {field.shape[0]}^2 but n={grid.n} requested"
            )
        vals = field / field.mean()
        return TorusField(grid, vals), float(vals.min()), float(vals.max())
    raise ConfigError(
        f"unknown density {name!r} (presets: {', '.join(presets.DENSITY_PRESETS)})"
    )


def _resolve_potential(name, grid):
    if name in POTENTIAL_PRESETS:
        return POTENTIAL_PRESETS[name](grid)
    if name not in presets.DENSITY_PRESETS and not os.path.exists(name):
        raise ConfigError(
            f"unknown potential {name!r} (presets: "
            f"{', '.join(POTENTIAL_PRESETS)}; or a density preset: "
            f"{', '.join(presets.DENSITY_PRESETS)}; or a density file)"
        )
    rho, lam, Lam = _resolve_density(name, grid)
    return solve_ma_periodic(rho, lam=lam, Lam=Lam)


# --- subcommands ---------------------------------------------------------------

def cmd_ma_solve(args, cfg):
    n = _grid_size(args, cfg, 64)
    tol = _positive(_merge(args, cfg, "tol", float, None), "tol")
    rho0 = args.preset or cfg.get("rho0", "perturbed")
    grid = TorusGrid(n)
    rho, lam, Lam = _resolve_density(rho0, grid)
    pot = solve_ma_periodic(rho, lam=lam, Lam=Lam, tol=tol)
    out = _out_dir(args)
    gridmod.field_to_binary(pot.q, os.path.join(out, "q.bin"))
    gridmod.field_to_binary(pot.det, os.path.join(out, "det.bin"))
    _write_json(os.path.join(out, "solution.json"), pot.header_dict())
    return 0


def cmd_sg_run(args, cfg):
    n = _grid_size(args, cfg, 64)
    dt = _positive(_merge(args, cfg, "dt", float, 2e-3), "dt")
    t_end = _positive(_merge(args, cfg, "t_end", float, 0.1), "t_end")
    tol = _positive(_merge(args, cfg, "tol", float, None), "tol")
    every = _positive(_merge(args, cfg, "report_every", int, 1), "report_every")
    rho0 = args.preset or cfg.get("rho0", "perturbed")
    lam = _positive(_merge(args, cfg, "lambda", float, None), "lambda")
    Lam = _positive(_merge(args, cfg, "Lambda", float, None), "Lambda")
    if round(t_end / dt) < 1:
        raise ConfigError(f"t_end={t_end} rounds to no step of dt={dt}")

    grid = TorusGrid(n)
    rho, lam0, Lam0 = _resolve_density(rho0, grid)
    res = dynamics.run(rho, grid,
                       dt=dt, t_end=t_end,
                       lam=lam if lam is not None else lam0,
                       Lam=Lam if Lam is not None else Lam0,
                       tol=tol)
    out = _out_dir(args)
    _write_csv(os.path.join(out, "certificates.csv"),
               dynamics.CERTIFICATE_COLUMNS,
               [[c[col] for col in dynamics.CERTIFICATE_COLUMNS]
                for c in res.certificates[::every]])
    gridmod.field_to_binary(res.rho_history[-1],
                            os.path.join(out, "final_rho.bin"))
    gridmod.field_to_binary(res.q_history[-1],
                            os.path.join(out, "final_q.bin"))
    violated = [(k, v) for k, c in enumerate(res.certificates)
                for v in c.get("violations", [])]
    _write_json(os.path.join(out, "summary.json"), {
        "n": n, "dt": dt, "steps": res.n_steps,
        "final": {k: v for k, v in res.certificates[-1].items()
                  if k != "violations"},
        "lma_residual_max": max(c["lma_residual"] for c in res.certificates),
        "violations": [f"step {k}: {v}" for k, v in violated],
    })
    if violated:
        name = violated[0][1]
        if args.soft:
            print(f"warning: certificate {name} violated "
                  f"({len(violated)} rows)", file=sys.stderr)
        else:
            raise InvariantViolation(name, f"{len(violated)} violated rows")
    return 0


def cmd_lma_dirichlet(args, cfg):
    n = _grid_size(args, cfg, 64)
    height = _positive(_merge(args, cfg, "h0", float, 0.05), "h0")
    center = _parse_center(args.center or cfg.get("center", "0.5,0.5"))
    name = args.preset or cfg.get("potential", "cosine")
    seed = _seed(args, cfg)

    grid = TorusGrid(n)
    pot = _resolve_potential(name, grid)
    sec = extract_section(pot, center, height)
    rng = np.random.default_rng(seed)
    x1, x2 = grid.centers()
    # random low-frequency flux field to drive the solve
    a = rng.standard_normal(4)
    F1 = a[0] * np.sin(2 * np.pi * x1) + a[1] * np.cos(2 * np.pi * x2)
    F2 = a[2] * np.cos(2 * np.pi * x1) + a[3] * np.sin(2 * np.pi * x2)
    u, info = solve_dirichlet_lma(cofactor(pot), sec.mask, grid, F=(F1, F2),
                                  tol=1e-12)
    out = _out_dir(args)
    gridmod.field_to_binary(u, os.path.join(out, "u.bin"))
    _write_json(os.path.join(out, "solve.json"), {
        "n": n, "height": height, "center": list(center),
        "cells": info["cells"], "relative_residual": info["relative_residual"],
        "seed": seed,
    })
    return 0


def cmd_green_report(args, cfg):
    n = _grid_size(args, cfg, 128)
    h0 = _positive(_merge(args, cfg, "h0", float, 0.02), "h0")
    rungs = _positive(_merge(args, cfg, "rungs", int, 4), "rungs")
    center = _parse_center(args.center or cfg.get("center", "0.5,0.5"))
    name = args.preset or cfg.get("potential", "quadratic")

    grid = TorusGrid(n)
    pot = _resolve_potential(name, grid)
    report = green_integrability_report(pot, center, dyadic_ladder(h0, rungs))
    out = _out_dir(args)
    columns = ["h", "p", "kappa", "norm", "slope", "r2"]
    _write_csv(os.path.join(out, "green_rows.csv"), columns,
               [[row[c] for c in columns] for row in report["rows"]])
    _write_json(os.path.join(out, "green_summary.json"), {
        "potential": name, "n": n, "heights": report["heights"],
        "mass_slope": next(r["slope"] for r in report["rows"] if r["p"] == 1.0),
        "symmetry_defect": report["symmetry_defect"],
        "positivity_floor": report["positivity_floor"],
        "level_set_decay": report["level_set_decay"],
    })
    return 0


def cmd_sections_report(args, cfg):
    n = _grid_size(args, cfg, 128)
    h0 = _positive(_merge(args, cfg, "h0", float, 0.02), "h0")
    rungs = _positive(_merge(args, cfg, "rungs", int, 4), "rungs")
    n_centers = _positive(_merge(args, cfg, "centers", int, 5), "centers")
    seed = _seed(args, cfg)
    name = args.preset or cfg.get("potential", "perturbed")

    grid = TorusGrid(n)
    pot = _resolve_potential(name, grid)
    rng = np.random.default_rng(seed)
    centers = rng.random((n_centers, 2))
    rows, ratios = [], []
    for c in centers:
        for sec in section_ladder(pot, c, h0, rungs):
            h = sec.height
            try:
                john = john_normalize(sec)
                semi = [float(s) for s in john.semi_axes]
                det_a = john.det_A
            except SGTorusError:
                semi, det_a = [float("nan")] * 2, float("nan")
            rows.append([c[0], c[1], h, sec.n_cells, sec.area,
                         sec.diameter(), sec.area / h, semi[0], semi[1],
                         det_a])
            ratios.append(sec.area / h)
    out = _out_dir(args)
    _write_csv(os.path.join(out, "sections.csv"),
               ["c1", "c2", "h", "n_cells", "area", "diameter",
                "area_over_h", "semi_major", "semi_minor", "det_A"], rows)
    _write_json(os.path.join(out, "sections_summary.json"), {
        "potential": name, "n": n, "seed": seed,
        "ratio_min": min(ratios), "ratio_max": max(ratios),
        "spread": max(ratios) / min(ratios),
    })
    return 0


def cmd_regularity_report(args, cfg):
    n = _grid_size(args, cfg, 128)
    h0 = _positive(_merge(args, cfg, "h0", float, 0.08), "h0")
    rungs = _positive(_merge(args, cfg, "rungs", int, 4), "rungs")
    center = _parse_center(args.center or cfg.get("center", "0.5,0.5"))
    name = args.preset or cfg.get("potential", "cosine")

    grid = TorusGrid(n)
    pot = _resolve_potential(name, grid)
    u, decay = regularity.boundary_data_decay(pot, center, h0, rungs=rungs)
    radius = np.sqrt(2.0 * h0)
    [fit] = regularity.holder_fits(
        u, [center], grid,
        radii=np.geomspace(3.0 * grid.spacing, 0.45 * radius, 8),
    )
    out = _out_dir(args)
    _write_csv(os.path.join(out, "oscillation.csv"),
               ["h", "osc_h", "osc_half", "ratio"],
               [[row.h, row.osc_h, row.osc_half, row.ratio]
                for row in decay.rows])
    _write_csv(os.path.join(out, "shells.csv"), ["r", "m_r"], fit.shells)
    _write_json(os.path.join(out, "regularity_summary.json"), {
        "potential": name, "n": n, "center": list(center), "h0": h0,
        "gamma_hat": fit.gamma, "C_hat": fit.prefactor, "r2": fit.r2,
        "beta_hat_max": decay.beta_max, "constant": decay.constant,
    })
    return 0


def cmd_polar_run(args, cfg):
    seed = _seed(args, cfg)
    lam = _positive(_merge(args, cfg, "lambda", float, None), "lambda")
    Lam = _positive(_merge(args, cfg, "Lambda", float, None), "Lambda")
    if args.series:
        # the series fixes its own grid and timestamps
        for flag in ("--n", "--steps", "--t-end"):
            if getattr(args, flag[2:].replace("-", "_")) is not None:
                raise ConfigError(f"{flag} does not apply with --series")
        try:
            series = polar.read_series(args.series)
        except (OSError, KeyError, ValueError, GridMismatch) as exc:
            # a missing file, a manifest key, a malformed or missized field
            raise ConfigError(f"bad series {args.series}: "
                              f"{type(exc).__name__}: {exc}")
        if len(series.times) < 3:
            raise ConfigError(f"series needs at least 3 timestamps, "
                              f"got {len(series.times)}")
    else:
        n = _grid_size(args, cfg, 64)
        steps = _merge(args, cfg, "steps", int, 6)
        t_end = _merge(args, cfg, "t_end", float, 0.5)
        # the family starts at t = 0.1 and needs three timestamps
        if steps < 3:
            raise ConfigError(f"steps must be at least 3, got {steps}")
        if not t_end > 0.1:
            raise ConfigError(f"t_end must exceed 0.1, got {t_end}")
        times = [0.1 + k * (t_end - 0.1) / (steps - 1) for k in range(steps)]
        if not np.all(np.isfinite(times)):
            raise ConfigError(f"t_end={t_end} gives timestamps that are not finite")
        series = presets.cosine_family_series(TorusGrid(n), times)
    report = polar.polar_time_regularity(series, lam=lam, Lam=Lam, seed=seed)
    out = _out_dir(args)
    with open(os.path.join(out, "polar_rows.jsonl"), "w") as fh:
        for row in report["rows"]:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    keys = sorted(report["summary"])
    _write_csv(os.path.join(out, "polar_summary.csv"), keys,
               [[report["summary"][k] for k in keys]])
    return 0


def cmd_verify(args, cfg):
    results = acceptance.run_all()
    out = _out_dir(args)
    for r in results:
        print(r.line())
    _write_json(os.path.join(out, "suite.json"), {
        r.name: {"passed": r.passed, "details": r.details,
                 "elapsed_s": round(r.elapsed, 2)}
        for r in results
    })
    failed = [r.name for r in results if not r.passed]
    if failed:
        if args.soft:
            print(f"warning: failed checks: {', '.join(failed)}",
                  file=sys.stderr)
            return 0
        raise InvariantViolation(failed[0], f"{len(failed)} checks failed")
    return 0


# every flag a command can declare, with its argparse keywords; dests
# follow the flag names (--t-end -> t_end, --Lambda -> Lambda), which are
# also the config keys
FLAGS = {
    "--config": dict(help="key=value config file"),
    "--out": dict(help="output directory (default sgtorus_out)"),
    "--n": dict(type=int, help="grid cells per axis"),
    "--dt": dict(type=float, help="time step"),
    "--t-end": dict(type=float, help="final time"),
    "--tol": dict(type=float, help="solver tolerance"),
    "--seed": dict(type=int, help="RNG seed (reports are byte-identical "
                   "for a fixed seed)"),
    "--preset": dict(help="density or potential preset name"),
    "--center": dict(help="section center as 'x1,x2'"),
    "--h0": dict(type=float, help="top section height"),
    "--rungs": dict(type=int, help="dyadic ladder length"),
    "--centers": dict(type=int, help="number of sampled centers"),
    "--lambda": dict(type=float, help="certified lower density bound"),
    "--Lambda": dict(type=float, help="certified upper density bound"),
    "--report-every": dict(type=int,
                           help="thin certificate rows by this factor"),
    "--series": dict(help="directory with a map-series manifest"),
    "--steps": dict(type=int, help="timestamps in the preset family"),
    "--soft": dict(action="store_true",
                   help="downgrade invariant violations to warnings"),
}

# command -> (handler, the flags it reads besides --out)
COMMANDS = {
    "ma-solve": (cmd_ma_solve, ("--config", "--n", "--tol", "--preset")),
    "sg-run": (cmd_sg_run, ("--config", "--n", "--dt", "--t-end", "--tol",
                            "--preset", "--lambda", "--Lambda",
                            "--report-every", "--soft")),
    "lma-dirichlet": (cmd_lma_dirichlet, ("--config", "--n", "--h0",
                                          "--center", "--preset", "--seed")),
    "green-report": (cmd_green_report, ("--config", "--n", "--h0", "--rungs",
                                        "--center", "--preset")),
    "sections-report": (cmd_sections_report,
                        ("--config", "--n", "--h0", "--rungs", "--centers",
                         "--seed", "--preset")),
    "regularity-report": (cmd_regularity_report,
                          ("--config", "--n", "--h0", "--rungs", "--center",
                           "--preset")),
    "polar-run": (cmd_polar_run, ("--config", "--n", "--seed", "--lambda",
                                  "--Lambda", "--series", "--steps",
                                  "--t-end")),
    "verify": (cmd_verify, ("--soft",)),
}


def build_parser():
    parser = _Parser(prog="sgtorus",
                     description="Dual semigeostrophic laboratory on the torus")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)
    for name, (_, flags) in COMMANDS.items():
        p = sub.add_parser(name)
        for flag in ("--out",) + flags:
            p.add_argument(flag, **FLAGS[flag])
    return parser


def main(argv=None):
    started = time.time()
    try:
        args = build_parser().parse_args(argv)
        cfg = load_config(args.config) if getattr(args, "config", None) else {}
        code = COMMANDS[args.command][0](args, cfg)
        _write_metadata(_out_dir(args), args, started,
                        round(time.time() - started, 3))
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except InvariantViolation as exc:
        print(exc.name, file=sys.stderr)
        if exc.detail:
            print(exc.detail, file=sys.stderr)
        return 3
    except SGTorusError as exc:
        print(f"solver error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
