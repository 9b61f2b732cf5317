import numpy as np
import pytest

from endspec.errors import BranchError, ContractError
from endspec.geometry import PotentialSplit, const_profile
from endspec.models import euclidean_model, free_model, multiend_model
from endspec.judges import FIT_R2_MIN, RICCATI_SLOPE_MAX
from endspec.phase import (ResidualProfile, _central_derivative, apply_A,
                           grid_phase, phase_a, r_lambda, riccati_exact,
                           riccati_residual)
from endspec.radial import uniform_grid

from oracles import threshold_radius_bisection

_ZERO = lambda r: np.zeros_like(np.asarray(r, dtype=float))


def _free():
    m = free_model()
    return m.profile, m.potential


# --- threshold radius ---------------------------------------------------------

def test_r_lambda_trivial():
    prof, pot = _free()
    assert r_lambda(prof, pot, 1.0, lambda0=0.0) == 2.0


def test_r_lambda_slow_decay_oracle():
    # q1 = r^{-1/2}, lambda0 = 0 (limsup), lambda = 0.1:
    # 2 q1(R/2) = 0.1 crosses at R = 800, so the dyadic answer is 1024
    q1 = lambda r: np.asarray(r, float) ** -0.5
    pot = PotentialSplit(V=q1, q1=q1, dq1=lambda r: -0.5 * np.asarray(r, float) ** -1.5)
    prof = const_profile(d=1)
    oracle = threshold_radius_bisection(lambda r: r**-0.5, 0.1, 0.0)
    got = r_lambda(prof, pot, 0.1, lambda0=0.0)
    assert got == oracle == 1024.0


def test_r_lambda_monotone_in_energy():
    q1 = lambda r: np.asarray(r, float) ** -0.5
    pot = PotentialSplit(V=q1, q1=q1)
    prof = const_profile(d=1)
    values = [r_lambda(prof, pot, lam, lambda0=0.0)
              for lam in (0.05, 0.1, 0.3, 1.0, 3.0)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_r_lambda_contract():
    prof, pot = _free()
    with pytest.raises(ContractError):
        r_lambda(prof, pot, -1.0, lambda0=0.0)


# --- the phase ----------------------------------------------------------------

def test_phase_trivial_real():
    prof, pot = _free()
    grid = uniform_grid(32.0, 0.05)
    ph = phase_a(prof, pot, 2.0 + 0.0j, +1, grid, lambda0=0.0)
    far = grid.radii >= 2.0
    np.testing.assert_allclose(ph.a[far], 2.0, atol=1e-14)
    assert np.all(ph.a[grid.radii <= 1.0] == 0.0)


def test_phase_branch_upper_halfplane():
    prof, pot = _free()
    grid = uniform_grid(32.0, 0.05)
    ph = phase_a(prof, pot, 2.0 + 0.3j, +1, grid, lambda0=0.0)
    far = grid.radii >= 2.0
    a = ph.a[far]
    np.testing.assert_allclose(a, np.sqrt(4.0 + 0.6j), atol=1e-14)
    assert np.all(a.real > 0.0) and np.all(a.imag > 0.0)


def test_phase_extended_precision_reevaluation():
    # d = 2 Euclidean end: q1 = q11 = -1/(8 r^2); upper sign at z = 2
    mp = pytest.importorskip("mpmath")
    m = euclidean_model(2)
    grid = uniform_grid(64.0, 0.25)
    ph = phase_a(m.profile, m.potential, 2.0 + 0.0j, +1, grid,
                 lambda0=m.lambda0())
    with mp.workdps(40):
        for j in (40, 120, 250):
            r = mp.mpf(grid.radii[j])
            q1 = -1 / (8 * r**2)
            dq11 = 1 / (4 * r**3)
            expected = mp.sqrt(2 * (2 - q1)) + mp.mpc(0, -1) * dq11 / (4 * (2 - q1))
            assert abs(complex(expected) - ph.a[j]) < 1e-13


def test_phase_branch_error_surfaces():
    # force the cutoff on while z - q1 sits on the cut
    big = lambda r: np.full_like(np.asarray(r, float), 5.0)
    pot = PotentialSplit(V=big, q1=big)
    prof = const_profile(d=1)
    grid = uniform_grid(16.0, 0.1)
    with pytest.raises(BranchError):
        phase_a(prof, pot, 2.0 + 0.0j, +1, grid, r_lam=2.0)


def test_phase_gamma_contract():
    prof, pot = _free()
    grid = uniform_grid(16.0, 0.1)
    with pytest.raises(ContractError):
        phase_a(prof, pot, 2.0 + 1.5j, +1, grid, lambda0=0.0)


# --- Riccati residual -----------------------------------------------------------

def test_residual_constant_coefficients():
    prof, pot = _free()
    grid = uniform_grid(256.0, 0.05)
    ph = phase_a(prof, pot, 2.0 + 0.0j, +1, grid, lambda0=0.0)
    res = riccati_residual(ph, pot)
    assert res.max_residual < 1e-11 and res.negligible


def test_residual_decay_and_correction_gain():
    m = euclidean_model(2)
    grid = uniform_grid(1024.0, 0.02)
    lam0 = m.lambda0()
    ph = phase_a(m.profile, m.potential, 2.0 + 0.0j, +1, grid,
                 lambda0=lam0)
    res = riccati_residual(ph, m.potential)
    # rho = 6, tau at cap: bound exponent -(1 + min(rho/2, tau/2)) = -4
    assert res.reliable and res.slope <= -4.0 + 0.2
    ph0 = phase_a(m.profile, m.potential, 2.0 + 0.0j, +1, grid,
                  lambda0=lam0, with_correction=False)
    res0 = riccati_residual(ph0, m.potential)
    assert res0.reliable and res0.slope > res.slope + 0.5


def _profile(size, slope, r_squared):
    return ResidualProfile(r=np.geomspace(2.0, 256.0, 8),
                           residual=np.full(8, size), slope=slope,
                           r_squared=r_squared,
                           reliable=bool(r_squared >= FIT_R2_MIN))


@pytest.mark.parametrize("profile, verdict", [
    (_profile(1e-11, np.nan, 0.0), "pass"),                    # at the floor
    (_profile(1e-3, -3.0, FIT_R2_MIN - 0.05), "inconclusive"),  # unreliable fit
    (_profile(1e-3, -0.79, 0.99), "fail"),
    (_profile(1e-3, RICCATI_SLOPE_MAX, 0.99), "pass"),
    (_profile(1e-3, -0.81, 0.99), "pass"),
], ids=["floor", "unreliable", "slope-0.79", "slope-at-max", "slope-0.81"])
def test_riccati_verdict_branches(profile, verdict):
    assert RICCATI_SLOPE_MAX == -0.8
    assert profile.verdict == verdict


# --- exact Riccati phase --------------------------------------------------------

def test_exact_free_is_constant():
    prof, pot = _free()
    grid = uniform_grid(64.0, 0.05)
    sol = riccati_exact(prof, pot, 2.0 + 0.0j, +1, grid)
    np.testing.assert_allclose(sol.a, np.sqrt(4.0 + 0j), atol=1e-8)


def test_exact_converges_to_phase():
    # q1 = c/r long-range tail: the exact phase approaches the two-term one
    c = 0.3
    q1 = lambda r: c / np.asarray(r, float)
    pot = PotentialSplit(V=q1, q1=q1, dq1=lambda r: -c / np.asarray(r, float) ** 2,
                         dq11=lambda r: -c / np.asarray(r, float) ** 2)
    prof = const_profile(d=1)
    grid = uniform_grid(512.0, 0.05)
    sol = riccati_exact(prof, pot, 2.0 + 0.0j, +1, grid, r_lam=2.0)
    ph = phase_a(prof, pot, 2.0 + 0.0j, +1, grid, r_lam=2.0, lambda0=0.0)
    diff = np.abs(sol.a - ph.a[grid.radii >= sol.r[0] - 1e-12])
    n = diff.size
    early = np.max(diff[n // 8: n // 4])
    late = np.max(diff[-n // 8:])
    assert late < 0.2 * early  # positive decay toward the horizon


def test_exact_self_consistent_residual():
    c = 0.3
    q1 = lambda r: c / np.asarray(r, float)
    pot = PotentialSplit(V=q1, q1=q1, dq1=lambda r: -c / np.asarray(r, float) ** 2)
    prof = const_profile(d=1)
    grid = uniform_grid(64.0, 0.02)
    sol = riccati_exact(prof, pot, 2.0 + 0.0j, +1, grid, r_lam=2.0)
    # plug a_exact into the Riccati equation with its own derivative
    da = np.gradient(sol.a, sol.r)
    resid = np.abs(-1j * da + sol.a**2 - 2.0 * (2.0 - q1(sol.r)))
    assert np.max(resid[2:-2]) < 5e-4  # FD-differentiation floor, not ODE error


def test_exact_fixed_step_convergence_order():
    # fourth-order Magnus: halving the sub-step should show ~4th order
    c = 0.5
    q1 = lambda r: c / np.asarray(r, float)
    pot = PotentialSplit(V=q1, q1=q1, dq1=lambda r: -c / np.asarray(r, float) ** 2)
    prof = const_profile(d=1)
    grid = uniform_grid(32.0, 0.5)
    ref = riccati_exact(prof, pot, 2.0 + 0.0j, +1, grid, step=0.0625 / 16, r_lam=2.0)
    errs = []
    for step in (0.25, 0.125, 0.0625):
        sol = riccati_exact(prof, pot, 2.0 + 0.0j, +1, grid, step=step, r_lam=2.0)
        errs.append(np.max(np.abs(sol.b - ref.b)))
    orders = [np.log2(errs[j] / errs[j + 1]) for j in range(len(errs) - 1)]
    assert min(orders) >= 4.0 - 0.3


def test_exact_matches_coulomb_functions():
    # q1 = c/r at z = k^2/2: b'' + (k^2 - 2c/r) b = 0 is the L = 0 Coulomb
    # equation in rho = k r with eta = c/k, so b = alpha F_0 + beta G_0
    mp = pytest.importorskip("mpmath")
    c, k = 0.5, 2.0
    q1 = lambda r: c / np.asarray(r, float)
    pot = PotentialSplit(V=q1, q1=q1, dq1=lambda r: -c / np.asarray(r, float) ** 2)
    prof = const_profile(d=1)
    grid = uniform_grid(64.0, 0.05)
    z = 0.5 * k**2 + 0.0j
    sol = riccati_exact(prof, pot, z, +1, grid, r_lam=2.0)
    # initial data b = 1, db/drho = i a(R_max) / k at the outer edge
    p = 1j * phase_a(prof, pot, z, +1, grid, r_lam=2.0).a[-1] / k
    eta = c / k
    idx = np.searchsorted(sol.r, [2.0, 4.0, 8.0, 16.0, 32.0])
    with mp.workdps(20):
        rho = k * sol.r[-1]
        F0, F1 = mp.coulombf(0, eta, rho), mp.coulombf(1, eta, rho)
        G0, G1 = mp.coulombg(0, eta, rho), mp.coulombg(1, eta, rho)
        # u_0' = (1/rho + eta) u_0 - sqrt(1 + eta^2) u_1 for u = F, G
        dF = (1 / rho + eta) * F0 - mp.sqrt(1 + eta**2) * F1
        dG = (1 / rho + eta) * G0 - mp.sqrt(1 + eta**2) * G1
        # Wronskian F' G - F G' = 1
        alpha, beta = G0 * p - dG, dF - F0 * p
        ref = [complex(alpha * mp.coulombf(0, eta, k * sol.r[j])
                       + beta * mp.coulombg(0, eta, k * sol.r[j])) for j in idx]
    np.testing.assert_allclose(sol.b[idx], ref, rtol=0.0, atol=5e-8)


# --- the operator A -------------------------------------------------------------

def test_apply_A_cylinder_plane_wave():
    grid = uniform_grid(32.0, 0.01)
    k = 1.0
    phi = np.exp(1j * k * grid.radii)
    out = apply_A(phi, grid)
    interior = slice(5, -5)
    np.testing.assert_allclose(out[interior], k * phi[interior], atol=2e-5)


def test_apply_A_symmetric():
    grid = uniform_grid(32.0, 0.01)
    from endspec.radial import inner, smooth_bump
    phi = smooth_bump(grid.radii, 5.0, 9.0) * np.exp(1j * grid.radii)
    psi = smooth_bump(grid.radii, 6.0, 11.0)
    a_phi = apply_A(phi, grid)
    a_psi = apply_A(psi, grid)
    lhs = inner(a_phi, psi, grid)
    rhs = inner(phi, a_psi, grid)
    assert abs(lhs - rhs) < 1e-6


@pytest.mark.parametrize("grid", [uniform_grid(32.0, 0.05),
                                  multiend_model().make_grid(32.0, 0.05)],
                         ids=["uniform", "line"])
def test_apply_A_from_a_supplied_derivative_is_bitwise(grid):
    # the sweeps take u' once and build A u from it
    rng = np.random.default_rng(0)
    u = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
    du = _central_derivative(u, grid.h)
    assert apply_A(u, grid, du).tobytes() == apply_A(u, grid).tobytes()


def test_apply_A_line_uses_escape_derivatives():
    # on the two-ended line A = -i (r' d/dx + r''/2): for u = e^{ix} that is
    # (r' - i r''/2) u, with r' = 0 on the left end and r'' != 0 in the blend
    m = multiend_model()
    grid = m.make_grid(16.0, 0.005)
    u = np.exp(1j * grid.nodes)
    out = apply_A(u, grid)
    expected = (grid.dr - 0.5j * grid.d2r) * u
    interior = slice(5, -5)
    np.testing.assert_allclose(out[interior], expected[interior], atol=2e-5)
    assert np.max(np.abs(grid.d2r)) > 0.1 and np.min(grid.dr) == 0.0


# --- invariants ------------------------------------------------------------------

def test_branch_continuity_along_z_path():
    m = euclidean_model(2)
    grid = uniform_grid(64.0, 0.1)
    lam0 = m.lambda0()
    path = [2.0 + 1e-3j * (1 + t) for t in np.linspace(0.0, 300.0, 60)]
    prev = None
    for z in path:
        ph = phase_a(m.profile, m.potential, z, +1, grid, lambda0=lam0, r_lam=2.0)
        if prev is not None:
            assert np.max(np.abs(ph.a - prev)) < 0.05
        prev = ph.a


def test_conjugation_symmetry():
    m = euclidean_model(2)
    grid = uniform_grid(64.0, 0.1)
    lam0 = m.lambda0()
    z = 2.0 + 0.2j
    upper = phase_a(m.profile, m.potential, z, +1, grid, lambda0=lam0, r_lam=2.0)
    lower = phase_a(m.profile, m.potential, np.conj(z), -1, grid,
                    lambda0=lam0, r_lam=2.0)
    np.testing.assert_allclose(np.conj(lower.a), upper.a, atol=1e-14)


def test_im_a_lower_bound():
    # Im a >= -C r^{-1-min(rho', rho/2)} pointwise
    m = euclidean_model(2)
    grid = uniform_grid(512.0, 0.05)
    rep = m.conditions()
    ph = phase_a(m.profile, m.potential, 2.0 + 0.0j, +1, grid,
                 lambda0=m.lambda0())
    expo = 1.0 + min(rep.rho_prime, rep.rho / 2.0)
    bound = -2.0 * grid.radii ** (-expo)
    assert np.all(ph.a.imag >= bound)


def test_grid_phase_matches_stencil_dispersion():
    h = 0.05
    for a in (1.0 + 0.0j, 2.0 + 0.1j):
        kappa_h = np.arccos(1.0 - (a * h) ** 2 / 2.0)
        assert abs(grid_phase(a, h) - np.sin(kappa_h) / h) < 1e-12
