"""Command-line front end.

    endspec COMMAND --config PATH [--out DIR] [--seed N] [--strict]

COMMAND selects which experiment blocks run:

    check       condition verification / constant extraction
    solve       resolvent solve, exported as CSV
    lap         lap and besov_energy sweeps
    radiation   radiation-condition sweeps
    hoelder     Hoelder-continuity estimates
    rellich     eigenvalue scans with artifact classification
    sommerfeld  outgoing-vs-shift comparisons
    riccati     phase construction and Riccati residual fits

The selected blocks run one after another, in config order; each writes a
CSV (and optionally an SVG) into the output directory and prints a one-line
verdict.  Exit status: 0 if every verdict passes, 2 if any is inconclusive,
1 on failure or error (--strict turns inconclusive into failure).
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .config import (ExperimentConfig, RunConfig, _given, build_model,
                     parse_config)
from .errors import ConfigError, EndspecError
from .experiments import (Bump, besov_energy_check, hoelder_estimate,
                          lap_sweep, radiation_sweep, sommerfeld_compare)
from .phase import phase_a, r_lambda, riccati_residual
from .solver import resolve
from .svgplot import write_loglog_svg
from .tableio import write_csv


def _meta(cfg: RunConfig):
    return {"tool": "endspec", "version": __version__,
            "config_hash": cfg.config_hash}


def _psi(opt):
    return Bump(**_given(opt, "psi_a", "psi_b", "psi_amp"))


def _svg(cfg, exp, out_dir, command, series, x_label, y_label):
    """Write the block's log-log plot if the config asks for SVGs."""
    if cfg.output["svg"]:
        write_loglog_svg(out_dir / f"{exp.name}.svg", f"{command} {exp.name}",
                         series, x_label, y_label, meta=_meta(cfg))


def _run_check(cfg, model, exp, out_dir):
    report = model.conditions()
    report.to_csv(out_dir / f"{exp.name}.csv", extra_meta=_meta(cfg))
    verdict = report.overall()
    detail = (f"sigma={report.sigma:.4g} tau={report.tau:.4g} "
              f"rho'={report.rho_prime:.4g} rho={report.rho:.4g} "
              f"lambda0={report.lambda0:.6g} beta_c={report.beta_c:.4g}")
    return verdict, detail


def _run_solve(cfg, model, exp, out_dir):
    opt = exp.options
    grid = model.make_grid(cfg.grid["r_max"], cfg.grid["h"])
    psi_vals = _psi(opt).normalized(grid)
    z = complex(opt["lambda"], opt.get("gammas", [0.01])[0])
    op = model.operator(0.0, grid, z)
    sol = resolve(op, psi_vals, allow_unabsorbed=True)
    rows = [[float(r), float(v.real), float(v.imag)]
            for r, v in zip(grid.radii, sol.phi)]
    write_csv(out_dir / f"{exp.name}.csv",
              {**_meta(cfg), "experiment": exp.name, "z": z,
               "residual": sol.residual},
              ["r", "re_phi", "im_phi"], rows)
    return "pass", f"residual={sol.residual:.2e}"


def _run_lap(cfg, model, exp, out_dir):
    opt = exp.options
    table = lap_sweep(model, opt["lambda"], psi=_psi(opt), h=cfg.grid["h"],
                      base_r_max=cfg.grid["r_max"],
                      mode_cap=cfg.grid["mode_cap"], **_given(opt, "gammas"))
    table.to_csv(out_dir / f"{exp.name}.csv", extra_meta=_meta(cfg))
    g = table.column("gamma")
    _svg(cfg, exp, out_dir, "lap",
         [(c, g, table.column(c)) for c in
          ("phi_bstar", "pr_phi_bstar", "h_form_sqrt", "h0_phi_bstar")],
         "gamma", "norm")
    return table.verdict, f"max ratio {max(v for k, v in table.meta.items() if k.startswith('ratio')):.3g}"


def _run_besov_energy(cfg, model, exp, out_dir):
    opt = exp.options
    given = _given(opt, "delta", "nus")
    if "gammas" in opt:  # the decade below the block's first gamma runs
        g = opt["gammas"][0]
        given["gammas"] = [g, g / math.sqrt(10.0), g / 10.0]
    table = besov_energy_check(model, opt["lambda"], psi=_psi(opt),
                               h=cfg.grid["h"], mode_cap=cfg.grid["mode_cap"],
                               **given)
    table.to_csv(out_dir / f"{exp.name}.csv", extra_meta=_meta(cfg))
    return table.verdict, (f"n={table.meta['n']} spread="
                           f"{table.meta['constant_spread']:.3g}")


def _run_radiation(cfg, model, exp, out_dir):
    opt = exp.options
    table = radiation_sweep(model, opt["lambda"], psi=_psi(opt), h=cfg.grid["h"],
                            base_r_max=cfg.grid["r_max"],
                            mode_cap=cfg.grid["mode_cap"],
                            **_given(opt, "gammas", "betas", "sign"))
    table.to_csv(out_dir / f"{exp.name}.csv", extra_meta=_meta(cfg))
    series = []
    for b in sorted({row[1] for row in table.rows}):
        rows = [(row[0], row[2]) for row in table.rows if row[1] == b]
        series.append((f"beta={b:g}", [p[0] for p in rows], [p[1] for p in rows]))
    _svg(cfg, exp, out_dir, "radiation", series, "gamma", "weighted B* norm")
    return table.verdict, (f"discrimination x"
                           f"{table.meta['discrimination_at_gamma_min']:.3g}")


def _run_hoelder(cfg, model, exp, out_dir):
    opt = exp.options
    table = hoelder_estimate(model, opt["lambda"], h=cfg.grid["h"],
                             mode_cap=cfg.grid["mode_cap"],
                             **_given(opt, "s", "gamma_top", "n_pairs",
                                      "n_probes", "seed"))
    table.to_csv(out_dir / f"{exp.name}.csv", extra_meta=_meta(cfg))
    _svg(cfg, exp, out_dir, "hoelder",
         [("diff", [row[0] - row[1] for row in table.rows],
           [row[2] for row in table.rows])],
         "|z - z'|", "operator difference")
    return table.verdict, (f"eps_emp={table.meta['epsilon_emp']:.3g} "
                           f"floor={table.meta['predicted_floor']:.3g}")


def _run_rellich(cfg, model, exp, out_dir):
    opt = exp.options
    interval = (opt["interval_lo"], opt["interval_hi"])
    lam0 = model.lambda0()
    scan = model.scan(interval, cfg.grid["r_max"], cfg.grid["h"])
    rows = [[e.eigenvalue, e.refined, e.drift, e.profile_slope,
             e.artifact, e.near_threshold] for e in scan.entries]
    write_csv(out_dir / f"{exp.name}.csv",
              {**_meta(cfg), "experiment": exp.name, "lambda0": lam0,
               "interval_lo": interval[0], "interval_hi": interval[1]},
              ["eigenvalue", "refined", "drift", "profile_slope",
               "artifact", "near_threshold"], rows)
    embedded = scan.embedded(lam0)
    return scan.verdict(lam0), (
        f"{len(scan.entries)} eigenvalues, {len(scan.artifacts())} artifacts, "
        f"{len(embedded)} unexplained above lambda0")


def _run_sommerfeld(cfg, model, exp, out_dir):
    opt = exp.options
    rep = sommerfeld_compare(model, opt["lambda"], psi=_psi(opt), h=cfg.grid["h"],
                             **_given(opt, "sign", "window_r_max", "gamma_top",
                                      "tol", window_r_max=cfg.grid["r_max"]))
    write_csv(out_dir / f"{exp.name}.csv",
              {**_meta(cfg), "experiment": exp.name, **rep.meta},
              ["disc_weighted", "disc_bstar", "rel_weighted",
               "radiation_slope", "verdict"],
              [[rep.disc_weighted, rep.disc_bstar, rep.rel_weighted,
                rep.radiation_slope if rep.radiation_slope is not None else "",
                rep.verdict]])
    return rep.verdict, f"disc={rep.disc_weighted:.3e}"


def _run_riccati(cfg, model, exp, out_dir):
    opt = exp.options
    lam = opt["lambda"]
    grid = model.make_grid(cfg.grid["r_max"], cfg.grid["h"])
    z = complex(lam, opt.get("gammas", [0.0])[0])
    r_lam = r_lambda(model.profile, model.potential, lam, lambda0=model.lambda0())
    ph = phase_a(model.profile, model.potential, z, opt.get("sign", 1), grid,
                 r_lam=r_lam)
    resid = riccati_residual(ph, model.potential)
    rows = [[float(r), float(a.real), float(a.imag), float(v)]
            for r, a, v in zip(grid.radii, ph.a,
                               np.interp(grid.radii, resid.r, resid.residual))]
    write_csv(out_dir / f"{exp.name}.csv",
              {**_meta(cfg), "experiment": exp.name, "z": z,
               "r_lambda": ph.r_lambda, "slope": resid.slope,
               "r_squared": resid.r_squared},
              ["r", "re_a", "im_a", "riccati_residual"], rows)
    _svg(cfg, exp, out_dir, "riccati", [("residual", resid.r, resid.residual)],
         "r", "residual")
    if resid.negligible:
        return resid.verdict, f"residual at floor ({resid.max_residual:.1e})"
    return resid.verdict, f"slope={resid.slope:.3g}" + (
        "" if resid.reliable else " (unreliable fit)")


# block kind -> (the command that runs it, its runner)
_RUNNERS = {
    "check": ("check", _run_check), "solve": ("solve", _run_solve),
    "lap": ("lap", _run_lap), "besov_energy": ("lap", _run_besov_energy),
    "radiation": ("radiation", _run_radiation),
    "hoelder": ("hoelder", _run_hoelder), "rellich": ("rellich", _run_rellich),
    "sommerfeld": ("sommerfeld", _run_sommerfeld),
    "riccati": ("riccati", _run_riccati),
}


def run(cfg: RunConfig, command: str, out_dir=None, seed: int = 0,
        strict: bool = False) -> int:
    """Execute the experiment blocks selected by the command, in config order.

    Returns the exit status (0 pass, 2 inconclusive, 1 failure/error).
    """
    kinds = {kind for kind, (cmd, _) in _RUNNERS.items() if cmd == command}
    if not kinds:
        print(f"error: unknown command {command!r}", file=sys.stderr)
        return 1
    out_dir = Path(out_dir or cfg.output["directory"])
    out_dir.mkdir(parents=True, exist_ok=True)
    selected = [e for e in cfg.experiments if e.kind in kinds]
    if not selected and command == "check":
        selected = [ExperimentConfig(name="check", kind="check", options={})]
    if not selected:
        print(f"error: no experiment blocks of kind {sorted(kinds)} in config",
              file=sys.stderr)
        return 1
    try:
        model = build_model(cfg)
    except (EndspecError, OSError, ValueError) as exc:
        print(f"error: cannot build the model: {exc}", file=sys.stderr)
        return 1

    status = 0
    for exp in selected:
        try:
            # --seed is the fallback of a block's own seed key
            verdict, detail = _RUNNERS[exp.kind][1](
                cfg, model, replace(exp, options={"seed": seed, **exp.options}),
                out_dir)
        except EndspecError as exc:
            verdict, detail = "error", str(exc)
        print(f"{exp.name}: {verdict.upper()} ({detail})")
        if verdict in ("fail", "error"):
            status = 1
        elif verdict == "inconclusive" and status == 0:
            status = 1 if strict else 2
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="endspec",
        description="Spectral-theory laboratory for warped-product ends")
    parser.add_argument("command",
                        choices=sorted({cmd for cmd, _ in _RUNNERS.values()}))
    parser.add_argument("--config", required=True, help="run configuration file")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--strict", action="store_true",
                        help="treat inconclusive verdicts as failures")
    args = parser.parse_args(argv)
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    try:
        cfg = parse_config(text)
    except ConfigError as exc:
        for v in exc.violations:
            print(f"config error: {v}", file=sys.stderr)
        return 1
    return run(cfg, args.command, out_dir=args.out, seed=args.seed,
               strict=args.strict)


if __name__ == "__main__":
    sys.exit(main())
