"""Randomized property suites for the module invariants.

Each helper runs ``n`` independently seeded instances and returns the number
of violations; the pytest wrappers demand zero.  The acceptance suite reuses
the same helpers at n = 100.
"""

import numpy as np

from endspec.cutoffs import CutoffSpec
from endspec.experiments import WeightSpec
from endspec.geometry import (const_profile, exp_profile, geometric_split,
                              power_profile)
from endspec.models import free_model
from endspec.phase import apply_A, phase_a
from endspec.radial import (assemble_radial_operator,
                            besov_norms, inner, l2_norm, smooth_bump,
                            uniform_grid)
from endspec.solver import resolve

SEED = 20260810


def _profiles(rng):
    choice = rng.integers(0, 3)
    if choice == 0:
        return power_profile(float(rng.uniform(0.5, 3.0)), int(rng.integers(2, 5)))
    if choice == 1:
        return exp_profile(float(rng.uniform(0.5, 2.0)), int(rng.integers(2, 4)))
    return const_profile(d=int(rng.integers(1, 4)))


def run_cutoff_partition(n=100, seed=SEED):
    rng = np.random.default_rng(seed)
    bad = 0
    for _ in range(n):
        cut = CutoffSpec(r0=float(rng.uniform(2.0, 6.0)))
        r = np.sort(rng.uniform(1.0, 5000.0, size=64))
        m = int(rng.integers(0, 12))
        if np.any(cut.chi_n(r, m) + cut.chibar_n(r, m) != 1.0):
            bad += 1
    return bad


def run_A_symmetry(n=100, seed=SEED):
    rng = np.random.default_rng(seed)
    bad = 0
    grid = uniform_grid(24.0, 0.02)
    for _ in range(n):
        a, b = np.sort(rng.uniform(3.0, 20.0, size=2))
        if b - a < 0.5:
            b = a + 0.5
        phi = smooth_bump(grid.radii, a, b) * np.exp(1j * rng.uniform(0.2, 2.0) * grid.radii)
        psi = smooth_bump(grid.radii, a * 0.9 + 0.3, b)
        lhs = inner(apply_A(phi, grid), psi, grid)
        rhs = inner(phi, apply_A(psi, grid), grid)
        scale = max(l2_norm(phi, grid) * l2_norm(psi, grid), 1e-30)
        if abs(lhs - rhs) > 1e-5 * scale:
            bad += 1
    return bad


def run_besov_duality(n=100, seed=SEED):
    rng = np.random.default_rng(seed)
    bad = 0
    grid = uniform_grid(128.0, 0.05)
    for _ in range(n):
        phi = rng.normal(size=grid.n) + 1j * rng.normal(size=grid.n)
        psi = rng.normal(size=grid.n)
        lhs = abs(inner(phi, psi, grid))
        bound = besov_norms(phi, grid).bstar * besov_norms(psi, grid).b
        if lhs > bound * (1.0 + 1e-10):
            bad += 1
    return bad


def run_resolvent_identity(n=100, seed=SEED):
    rng = np.random.default_rng(seed)
    bad = 0
    m = free_model()
    grid = uniform_grid(16.0, 0.05)
    psi = smooth_bump(grid.radii, 2.0, 3.0).astype(complex)
    for _ in range(n):
        z1 = complex(rng.uniform(0.3, 3.0), rng.uniform(0.05, 0.9))
        z2 = complex(rng.uniform(0.3, 3.0), rng.uniform(0.05, 0.9))
        r1 = resolve(m.operator(0.0, grid, z1), psi, allow_unabsorbed=True).phi
        r2 = resolve(m.operator(0.0, grid, z2), psi, allow_unabsorbed=True).phi
        r12 = resolve(m.operator(0.0, grid, z1), r2, allow_unabsorbed=True).phi
        resid = l2_norm(r1 - r2 - (z1 - z2) * r12, grid)
        if resid > 1e-8 * max(l2_norm(r1, grid), 1e-30):
            bad += 1
    return bad


def run_theta_concavity(n=100, seed=SEED):
    rng = np.random.default_rng(seed)
    bad = 0
    r = np.geomspace(1.0, 2.0**14, 300)
    for _ in range(n):
        w = WeightSpec(delta=float(rng.uniform(0.05, 0.99)),
                       nu=int(rng.integers(0, 14)))
        th, dth, d2th = w.theta(r), w.dtheta(r), w.d2theta(r)
        ok = (np.all(th >= 0.0) and np.all(th <= 1.0 / w.delta + 1e-12)
              and np.all(dth > 0.0) and np.all(d2th <= 0.0))
        if not ok:
            bad += 1
    return bad


def run_branch_conjugation(n=100, seed=SEED):
    rng = np.random.default_rng(seed)
    bad = 0
    grid = uniform_grid(64.0, 0.25)
    for _ in range(n):
        prof = _profiles(rng)
        pot = geometric_split(prof)
        from endspec.geometry import critical_energy
        lam0 = critical_energy(prof, pot).value
        z = complex(lam0 + rng.uniform(0.5, 3.0), rng.uniform(0.0, 0.9))
        try:
            upper = phase_a(prof, pot, z, +1, grid, lambda0=lam0)
            lower = phase_a(prof, pot, np.conj(z), -1, grid, lambda0=lam0,
                            r_lam=upper.r_lambda)
        except Exception:
            bad += 1
            continue
        if np.max(np.abs(np.conj(lower.a) - upper.a)) > 1e-12:
            bad += 1
    return bad


def run_quadrature_consistency(n=100, seed=SEED):
    rng = np.random.default_rng(seed)
    bad = 0
    grid = uniform_grid(64.0, 0.05)
    for _ in range(n):
        phi = rng.normal(size=grid.n) + 1j * rng.normal(size=grid.n)
        prof = besov_norms(phi, grid)
        if abs(np.sum(prof.annulus_norms**2) - l2_norm(phi, grid) ** 2) \
                > 1e-10 * l2_norm(phi, grid) ** 2:
            bad += 1
    return bad


def run_mode_monotonicity(n=100, seed=SEED):
    rng = np.random.default_rng(seed)
    bad = 0
    grid = uniform_grid(16.0, 0.05)
    for _ in range(n):
        prof = _profiles(rng)
        pot = geometric_split(prof)
        mus = np.sort(rng.uniform(0.0, 20.0, size=3))
        diags = [assemble_radial_operator(prof, pot, mu, grid, 0.0).potential_diag
                 for mu in mus]
        if not (np.all(diags[1] >= diags[0] - 1e-15)
                and np.all(diags[2] >= diags[1] - 1e-15)):
            bad += 1
    return bad


# --- pytest wrappers (smaller n keeps the unit suite snappy; the acceptance
# --- suite runs every helper at n = 100)

def test_cutoff_partition():
    assert run_cutoff_partition(40) == 0


def test_A_symmetry():
    assert run_A_symmetry(40) == 0


def test_besov_duality():
    assert run_besov_duality(40) == 0


def test_resolvent_identity():
    assert run_resolvent_identity(40) == 0


def test_theta_concavity():
    assert run_theta_concavity(40) == 0


def test_branch_conjugation():
    assert run_branch_conjugation(40) == 0


def test_quadrature_consistency():
    assert run_quadrature_consistency(40) == 0


def test_mode_monotonicity():
    assert run_mode_monotonicity(40) == 0
