"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a one-line verdict (run with -s or -v to see them) and
enforces its runtime budget.
"""

import time

import numpy as np
import pytest

import test_properties as props
from endspec.experiments import (hoelder_estimate, lap_sweep, radiation_sweep,
                                 sommerfeld_compare)
from endspec.geometry import critical_energy, geometric_split, power_profile, exp_profile
from endspec.models import (euclidean_model, free_model,
                            multiend_model, power_model, square_well_model)
from endspec.phase import phase_a, riccati_residual
from endspec.radial import OuterPolicy, l2_norm, smooth_bump, uniform_grid
from endspec.solver import eigen_scan, resolve
from endspec.conditions import check_conditions
from endspec.geometry import const_profile

from oracles import free_kernel_wronskian, free_resolvent, well_bound_states


def _verdict(num, name, ok, detail, t0, budget):
    elapsed = time.monotonic() - t0
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"criterion {num} ({name}): {status} ({detail}) [{elapsed:.1f}s "
          f"budget {budget:.0f}s]")
    assert ok, f"criterion {num}: {detail}"
    assert elapsed < budget, f"criterion {num} exceeded {budget}s ({elapsed:.1f}s)"


def test_criterion_1_resolvent_oracle():
    t0 = time.monotonic()
    z = 1.0 + 0.1j
    k = np.sqrt(2.0 * z)
    w, expected = free_kernel_wronskian(z)
    assert abs(w - expected) < 1e-10  # oracle sanity before use
    m = free_model()
    errs = []
    for h in (0.01, 0.005):
        grid = uniform_grid(64.0, h)
        psi = smooth_bump(grid.radii, 2.0, 3.0).astype(complex)
        sol = resolve(m.operator(0.0, grid, z, OuterPolicy.outgoing(k, +1)), psi)
        ref = free_resolvent(grid, z, psi, 3.0)
        errs.append(l2_norm(sol.phi - ref, grid) / l2_norm(ref, grid))
    order = float(np.log2(errs[0] / errs[1]))
    ok = errs[0] < 1e-3 and 1.7 <= order <= 2.3
    _verdict(1, "resolvent oracle", ok,
             f"rel err {errs[0]:.2e} (tol 1e-3), order {order:.2f}", t0, 5.0)


def test_criterion_2_critical_energies():
    t0 = time.monotonic()
    worst = 0.0
    for theta in (1.0, 2.0):
        for d in (2, 3):
            prof = power_profile(theta, d)
            worst = max(worst, abs(critical_energy(prof, geometric_split(prof)).value))
    for kappa in (1.0, 2.0):
        for d in (2, 3):
            prof = exp_profile(kappa, d)
            val = critical_energy(prof, geometric_split(prof)).value
            worst = max(worst, abs(val - (d - 1) ** 2 * kappa**2 / 32.0))
    _verdict(2, "critical energies", worst < 1e-6,
             f"worst deviation {worst:.2e} (tol 1e-6)", t0, 1.0)


def test_criterion_3_condition_constants():
    t0 = time.monotonic()
    ok, details = True, []
    for theta in (1.0, 2.0):
        rep = power_model(theta, 3).conditions()
        ok &= rep.overall() == "pass" and theta - 0.05 <= rep.sigma <= theta
        details.append(f"theta={theta:g}: sigma={rep.sigma:.4f}")
    prof = const_profile(d=2)
    rep_cyl = check_conditions(prof, geometric_split(prof))
    conv = [r for r in rep_cyl.rows if r.name == "convexity"][0]
    ok &= rep_cyl.overall() == "fail" and conv.verdict == "fail" \
        and np.isfinite(conv.witness_r)
    details.append(f"cylinder fails at r={conv.witness_r:.3g}")
    _verdict(3, "condition constants", ok, "; ".join(details), t0, 10.0)


def test_criterion_4_rellich_surrogate():
    t0 = time.monotonic()
    oracle = well_bound_states(5.0, width=1.0)
    m = square_well_model(depth=5.0, a=1.0, b=2.0)
    grid = uniform_grid(32.0, 0.01)
    scan = eigen_scan(m.profile, m.potential, 0.0, grid, (-5.0, 10.0))
    bound = [e for e in scan.genuine() if e.eigenvalue < 0.0]
    above = [e for e in scan.entries if e.eigenvalue > 1e-9]
    err = abs(bound[0].refined - oracle[0]) if len(bound) == 1 else np.inf
    all_artifact = bool(above) and all(
        e.artifact and e.profile_slope > -0.25 and e.drift > 1e-5 for e in above)
    ok = len(bound) == 1 and err < 1e-6 and all_artifact
    _verdict(4, "Rellich surrogate", ok,
             f"bound-state err {err:.2e} (tol 1e-6); "
             f"{len(above)} points above 0, all artifacts: {all_artifact}",
             t0, 30.0)


def test_criterion_5_lap_boundedness():
    t0 = time.monotonic()
    gammas = [0.1, 0.01, 0.001]
    ok, details = True, []
    for model, lams in ((free_model(), (0.5, 1.0, 2.0)),
                        (multiend_model(0.0, 4.0), (1.0, 2.0, 3.0))):
        for lam in lams:
            tab = lap_sweep(model, lam, gammas, h=0.05)
            ratios = [v for kk, v in tab.meta.items() if kk.startswith("ratio")]
            ok &= tab.verdict == "pass" and max(ratios) <= 2.0
        details.append(f"{model.name}: max ratio {max(ratios):.2f}")
    _verdict(5, "LAP boundedness", ok, "; ".join(details), t0, 60.0)


def test_criterion_6_radiation_condition():
    t0 = time.monotonic()
    m = euclidean_model(3)
    beta_c = m.conditions().beta_c
    tab = radiation_sweep(m, 2.0, [0.1, 0.01, 0.001], [0.0, 0.5, 0.9], h=0.05)
    ratios = {kk: v for kk, v in tab.meta.items() if kk.startswith("ratio")}
    disc = tab.meta["discrimination_at_gamma_min"]
    ok = (beta_c >= 1.0 - 1e-9 and tab.verdict == "pass"
          and max(ratios.values()) <= 2.0 and disc >= 10.0)
    _verdict(6, "radiation condition", ok,
             f"beta_c={beta_c:.3f}, max ratio {max(ratios.values()):.2f}, "
             f"wrong/right x{disc:.0f} (need >= 10)", t0, 60.0)


def test_criterion_7_hoelder_exponent():
    t0 = time.monotonic()
    tab = hoelder_estimate(free_model(), 1.0, 1.0, seed=0, h=0.02)
    eps = tab.meta["epsilon_emp"]
    floor = tab.meta["predicted_floor"]
    ok = tab.verdict == "pass" and eps >= 0.23 and abs(floor - 1.0 / 3.0) < 1e-12
    _verdict(7, "Hoelder exponent", ok,
             f"eps_emp={eps:.3f} >= 0.23, floor={floor:.3f}, "
             f"R2={tab.meta['r_squared']:.3f}", t0, 120.0)


def test_criterion_8_sommerfeld_uniqueness():
    t0 = time.monotonic()
    out = sommerfeld_compare(free_model(), 2.0, h=0.01)
    inc = sommerfeld_compare(free_model(), 2.0, h=0.01, sign=-1)
    ok = (out.verdict == "pass" and out.disc_weighted <= 1e-4
          and inc.disc_weighted >= 1e-1)
    _verdict(8, "Sommerfeld uniqueness", ok,
             f"outgoing disc {out.disc_weighted:.2e} (tol 1e-4), "
             f"incoming disc {inc.disc_weighted:.2e} (need >= 0.1)", t0, 60.0)


def test_criterion_9_riccati_quality():
    t0 = time.monotonic()
    m = euclidean_model(2)
    grid = uniform_grid(1024.0, 0.02)
    lam0 = m.lambda0()
    ph = phase_a(m.profile, m.potential, 2.0 + 0.0j, +1, grid,
                 lambda0=lam0)
    res = riccati_residual(ph, m.potential)
    ph0 = phase_a(m.profile, m.potential, 2.0 + 0.0j, +1, grid,
                  lambda0=lam0, with_correction=False)
    res0 = riccati_residual(ph0, m.potential)
    ok = (res.reliable and res.slope <= -1.3
          and res0.reliable and res0.slope > res.slope)
    _verdict(9, "Riccati quality", ok,
             f"slope {res.slope:.2f} (tol -1.3), without correction "
             f"{res0.slope:.2f} (strictly raised)", t0, 10.0)


def test_criterion_10_invariant_suite():
    t0 = time.monotonic()
    suites = {
        "cutoff partition": props.run_cutoff_partition,
        "A symmetry": props.run_A_symmetry,
        "Besov duality": props.run_besov_duality,
        "resolvent identity": props.run_resolvent_identity,
        "Theta concavity": props.run_theta_concavity,
        "branch conjugation": props.run_branch_conjugation,
        "quadrature consistency": props.run_quadrature_consistency,
        "mode monotonicity": props.run_mode_monotonicity,
    }
    failures = {name: fn(100) for name, fn in suites.items()}
    ok = all(v == 0 for v in failures.values())
    _verdict(10, "invariant suite", ok,
             f"{len(suites)} properties x 100 instances, violations: "
             f"{sum(failures.values())}", t0, 120.0)
