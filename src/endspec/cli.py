"""Command-line front end.

    endspec COMMAND --config PATH [--out DIR] [--seed N] [--jobs N] [--strict]

COMMAND selects which experiment blocks run:

    check       condition verification / constant extraction
    solve       resolvent solve, exported as CSV
    lap         lap and besov_energy sweeps
    radiation   radiation-condition sweeps
    hoelder     Hoelder-continuity estimates
    rellich     eigenvalue scans with artifact classification
    sommerfeld  outgoing-vs-shift comparisons
    riccati     phase construction and Riccati residual fits

Each experiment writes a CSV (and optionally an SVG) into the output
directory and prints a one-line verdict.  Exit status: 0 if every verdict
passes, 2 if any is inconclusive, 1 on failure or error (--strict turns
inconclusive into failure).
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .conditions import (check_escape_2d, disk_complement_field,
                         hyperbola_field, sawtooth_field)
from .config import MODEL_NEEDS, ExperimentConfig, RunConfig, parse_config
from .errors import ConfigError, ContractError, EndspecError
from .experiments import (Bump, besov_energy_check, hoelder_estimate,
                          lap_sweep, radiation_sweep, sommerfeld_compare)
from .models import (euclidean_model, exp_model, free_model,
                     hyperbolic_model, multiend_model, power_model,
                     square_well_model, stretched_exp_model, tabulated_model)
from .phase import phase_a, r_lambda, riccati_residual
from .radial import OuterPolicy
from .solver import eigen_scan, eigen_scan_tridiag, resolve
from .svgplot import write_loglog_svg
from .tableio import write_csv

_COMMAND_KINDS = {
    "check": {"check"},
    "solve": {"solve"},
    "lap": {"lap", "besov_energy"},
    "radiation": {"radiation"},
    "hoelder": {"hoelder"},
    "rellich": {"rellich"},
    "sommerfeld": {"sommerfeld"},
    "riccati": {"riccati"},
}


# Config keys whose callee parameter has another name.
_PARAM_OF = {"well_a": "a", "well_b": "b",
             "psi_a": "a", "psi_b": "b", "psi_amp": "amplitude"}

# kind -> (builder, optional keys); the builder's positional keys are
# config.MODEL_NEEDS.  tabulated and escape_* are built in build_model.
_BUILDERS = {
    "free": (free_model, ()),
    "power": (power_model, ()),
    "euclidean": (euclidean_model, ()),
    "exponential": (exp_model, ("amp", "lower_c", "lower_theta")),
    "stretchedexp": (stretched_exp_model, ()),
    "hyperbolic": (hyperbolic_model, ()),
    "well": (square_well_model, ("depth", "well_a", "well_b")),
    "multiend": (multiend_model, ("lambda0", "lambda1", "x_min")),
}


def _given(opt, *keys, **fallback):
    """Keyword arguments for those of ``keys`` that ``opt`` sets, under the
    callee's parameter names, over the CLI's own ``fallback`` values; an
    absent key keeps the callee's default."""
    return {**fallback, **{_PARAM_OF.get(k, k): opt[k] for k in keys if k in opt}}


def build_model(cfg: RunConfig):
    m = cfg.model
    kind = m["kind"]
    if kind.startswith("escape_"):
        return None  # handled directly by the check runner
    args = [m[k] for k in MODEL_NEEDS.get(kind, ())]
    if kind == "tabulated":
        table = np.loadtxt(args[0], delimiter=",", comments="#", ndmin=2)
        if table.shape[1] < 2:
            raise ContractError(f"{args[0]}: a tabulated warp needs the columns r,f")
        return tabulated_model(table[:, 0], table[:, 1], *args[1:],
                               **_given(m, "r0"))
    builder, keys = _BUILDERS[kind]
    return builder(*args, **_given(m, "r0", *keys))


def _escape_field(cfg: RunConfig):
    kind = cfg.model["kind"]
    K = cfg.model.get("obstacle_k", 3.0)
    if kind == "escape_disk":
        return disk_complement_field()
    if kind == "escape_hyperbola":
        return hyperbola_field(K=K)
    return sawtooth_field(K=max(K, 1.0))


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


def _run_check(cfg, model, exp, out_dir, seed):
    if model is None:
        report = check_escape_2d(_escape_field(cfg))
    else:
        report = model.conditions()
    report.to_csv(out_dir / f"{exp.name}.csv", extra_meta=_meta(cfg))
    verdict = report.overall()
    detail = (f"sigma={report.sigma:.4g} tau={report.tau:.4g} "
              f"rho'={report.rho_prime:.4g} rho={report.rho:.4g} "
              f"lambda0={report.lambda0:.6g} beta_c={report.beta_c:.4g}")
    return verdict, detail


def _run_solve(cfg, model, exp, out_dir, seed):
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


def _run_lap(cfg, model, exp, out_dir, seed):
    opt = exp.options
    table = lap_sweep(model, opt["lambda"], opt["gammas"], psi=_psi(opt),
                      h=cfg.grid["h"], base_r_max=cfg.grid["r_max"],
                      mode_cap=cfg.grid["mode_cap"],
                      **_given(opt, "bound_factor"))
    table.to_csv(out_dir / f"{exp.name}.csv", extra_meta=_meta(cfg))
    g = table.column("gamma")
    _svg(cfg, exp, out_dir, "lap",
         [(c, g, table.column(c)) for c in
          ("phi_bstar", "pr_phi_bstar", "h_form_sqrt", "h0_phi_bstar")],
         "gamma", "norm")
    return table.verdict, f"max ratio {max(v for k, v in table.meta.items() if k.startswith('ratio')):.3g}"


def _run_besov_energy(cfg, model, exp, out_dir, seed):
    opt = exp.options
    table = besov_energy_check(model, complex(opt["lambda"], opt.get("gammas", [0.1])[0]),
                               psi=_psi(opt), h=cfg.grid["h"],
                               mode_cap=cfg.grid["mode_cap"],
                               **_given(opt, "delta", "nus", "bound_factor"))
    table.to_csv(out_dir / f"{exp.name}.csv", extra_meta=_meta(cfg))
    return table.verdict, (f"n={table.meta['n']} spread="
                           f"{table.meta['constant_spread']:.3g}")


def _run_radiation(cfg, model, exp, out_dir, seed):
    opt = exp.options
    table = radiation_sweep(model, opt["lambda"], opt["gammas"], opt["betas"],
                            psi=_psi(opt), h=cfg.grid["h"],
                            base_r_max=cfg.grid["r_max"],
                            mode_cap=cfg.grid["mode_cap"],
                            **_given(opt, "bound_factor", "sign"))
    table.to_csv(out_dir / f"{exp.name}.csv", extra_meta=_meta(cfg))
    series = []
    for b in sorted({row[1] for row in table.rows}):
        rows = [(row[0], row[2]) for row in table.rows if row[1] == b]
        series.append((f"beta={b:g}", [p[0] for p in rows], [p[1] for p in rows]))
    _svg(cfg, exp, out_dir, "radiation", series, "gamma", "weighted B* norm")
    return table.verdict, (f"discrimination x"
                           f"{table.meta['discrimination_at_gamma_min']:.3g}")


def _run_hoelder(cfg, model, exp, out_dir, seed):
    opt = exp.options
    table = hoelder_estimate(model, opt["lambda"], h=cfg.grid["h"],
                             **_given(opt, "s", "gamma_top", "n_pairs",
                                      "n_probes", "seed", s=1.0, seed=seed))
    table.to_csv(out_dir / f"{exp.name}.csv", extra_meta=_meta(cfg))
    _svg(cfg, exp, out_dir, "hoelder",
         [("diff", [row[0] - row[1] for row in table.rows],
           [row[2] for row in table.rows])],
         "|z - z'|", "operator difference")
    return table.verdict, (f"eps_emp={table.meta['epsilon_emp']:.3g} "
                           f"floor={table.meta['predicted_floor']:.3g}")


def _run_rellich(cfg, model, exp, out_dir, seed):
    opt = exp.options
    interval = (opt["interval_lo"], opt["interval_hi"])
    grid = model.make_grid(cfg.grid["r_max"], cfg.grid["h"])
    lam0 = model.lambda0()
    if model.line is not None:
        op = model.operator(0.0, grid, 0.0, OuterPolicy.dirichlet(),
                            resolution_action="warn")
        grid2 = model.make_grid(2.0 * cfg.grid["r_max"], cfg.grid["h"])
        op2 = model.operator(0.0, grid2, 0.0, OuterPolicy.dirichlet(),
                             resolution_action="warn")
        scan = eigen_scan_tridiag(op.dd.real, op.dl.real, grid, interval,
                                  dd2=op2.dd.real, dl2=op2.dl.real, grid2=grid2,
                                  thresholds=model.thresholds, lambda0=lam0)
    else:
        scan = eigen_scan(model.profile, model.potential, 0.0, grid, interval,
                          thresholds=model.thresholds, lambda0=lam0,
                          cutoffs=model.cutoffs)
    rows = [[e.eigenvalue, e.refined, e.drift, e.profile_slope,
             e.artifact, e.near_threshold] for e in scan.entries]
    write_csv(out_dir / f"{exp.name}.csv",
              {**_meta(cfg), "experiment": exp.name, "lambda0": lam0,
               "interval_lo": interval[0], "interval_hi": interval[1]},
              ["eigenvalue", "refined", "drift", "profile_slope",
               "artifact", "near_threshold"], rows)
    spurious = [e for e in scan.genuine() if e.eigenvalue > lam0 + 1e-9]
    verdict = "pass" if not spurious else "fail"
    detail = (f"{len(scan.entries)} eigenvalues, "
              f"{len(scan.artifacts())} artifacts, "
              f"{len(spurious)} unexplained above lambda0")
    return verdict, detail


def _run_sommerfeld(cfg, model, exp, out_dir, seed):
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


def _run_riccati(cfg, model, exp, out_dir, seed):
    opt = exp.options
    lam = opt["lambda"]
    grid = model.make_grid(cfg.grid["r_max"], cfg.grid["h"])
    z = complex(lam, opt.get("gammas", [0.0])[0])
    lam0 = model.lambda0()
    report = model.conditions()
    r_lam = r_lambda(model.profile, model.potential, lam, lambda0=lam0)
    ph = phase_a(model.profile, model.potential, z, opt.get("sign", 1), grid,
                 cutoffs=model.cutoffs, r_lam=r_lam)
    resid = riccati_residual(ph, model.profile, model.potential, grid)
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
    threshold = -(1.0 + 0.5 * min(report.rho / 2.0, report.tau)) + 0.2
    if resid.negligible:
        verdict = "pass"
        detail = f"residual at floor ({resid.max_residual:.1e})"
    elif not resid.reliable:
        verdict = "inconclusive"
        detail = f"slope={resid.slope:.3g} (unreliable fit)"
    else:
        verdict = "pass" if resid.slope <= max(threshold, -1.0 + 0.2) else "fail"
        detail = f"slope={resid.slope:.3g}"
    return verdict, detail


_RUNNERS = {
    "check": _run_check, "solve": _run_solve, "lap": _run_lap,
    "besov_energy": _run_besov_energy, "radiation": _run_radiation,
    "hoelder": _run_hoelder, "rellich": _run_rellich,
    "sommerfeld": _run_sommerfeld, "riccati": _run_riccati,
}


def run(cfg: RunConfig, command: str, out_dir=None, seed: int = 0,
        jobs: int = 1, strict: bool = False) -> int:
    """Execute the experiment blocks selected by the command.

    Returns the exit status (0 pass, 2 inconclusive, 1 failure/error).
    """
    if command not in _COMMAND_KINDS:
        print(f"error: unknown command {command!r}", file=sys.stderr)
        return 1
    out_dir = Path(out_dir or cfg.output["directory"])
    out_dir.mkdir(parents=True, exist_ok=True)
    kinds = _COMMAND_KINDS[command]
    selected = [e for e in cfg.experiments if e.kind in kinds]
    if not selected and command == "check":
        selected = [ExperimentConfig(name="check", kind="check", options={},
                                     line_no=0)]
    if not selected:
        print(f"error: no experiment blocks of kind {sorted(kinds)} in config",
              file=sys.stderr)
        return 1
    try:
        model = build_model(cfg)
    except (EndspecError, OSError, ValueError) as exc:
        print(f"error: cannot build the model: {exc}", file=sys.stderr)
        return 1

    def _one(exp):
        try:
            return (exp.name, *_RUNNERS[exp.kind](cfg, model, exp, out_dir, seed))
        except EndspecError as exc:
            return exp.name, "error", str(exc)

    if jobs > 1 and len(selected) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_one, selected))
    else:
        results = [_one(e) for e in selected]

    status = 0
    for name, verdict, detail in results:
        print(f"{name}: {verdict.upper()} ({detail})")
        if verdict in ("fail", "error"):
            status = 1
        elif verdict == "inconclusive" and status == 0:
            status = 1 if strict else 2
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="endspec",
        description="Spectral-theory laboratory for warped-product ends")
    parser.add_argument("command", choices=sorted(_COMMAND_KINDS))
    parser.add_argument("--config", required=True, help="run configuration file")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--jobs", type=int, default=1)
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
               jobs=args.jobs, strict=args.strict)


if __name__ == "__main__":
    sys.exit(main())
