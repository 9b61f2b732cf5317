import dataclasses
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import zgttrf, zgttrs

import endspec.experiments
import endspec.radial
import endspec.solver
from endspec.errors import (AbsorptionError, BranchError, ConditioningError,
                            ContractError, ResolutionError)
from endspec.experiments import (besov_energy_check, hoelder_estimate, lap_sweep,
                                 radiation_sweep, sommerfeld_compare)
from endspec.geometry import geometric_split, geometry_at, power_profile
from endspec.models import (Model, euclidean_model, exp_model, free_model,
                            hyperbolic_model, multiend_model, power_model,
                            square_well_model, stretched_exp_model,
                            tabulated_model)
from endspec.phase import r_lambda
from endspec.radial import (FIRST_UNKNOWN, OuterPolicy, RadialOperator,
                            assemble_mode_operators, l2_norm, smooth_bump,
                            uniform_grid)
from endspec.solver import (_RESIDUAL_BLOCK, EigenEntry, eigen_scan,
                            eigen_scan_tridiag, outgoing_row, resolve)

from oracles import free_kernel_wronskian, free_resolvent, well_bound_states


def _outgoing(m, grid, lam, psi):
    """Outgoing (sign +1) solve of the mu = 0 mode of ``m`` at lambda = lam."""
    policy, _ = outgoing_row(m.profile, m.potential, grid, complex(lam), +1,
                             r_lambda(m.profile, m.potential, lam, lambda0=0.0))
    return resolve(m.operator(0.0, grid, complex(lam), policy), psi)


def test_outgoing_row_refuses_unresolved_edge_phase():
    # free model at lambda = 2: a = 2, so a h = 2.4 > 2 at h = 1.2 and the
    # dispersion-matched phase a sqrt(1 - (a h / 2)^2) has no real part
    m = free_model()
    grid = uniform_grid(13.0, 1.2)
    with pytest.raises(BranchError):
        outgoing_row(m.profile, m.potential, grid, 2.0 + 0.0j, +1,
                     r_lambda(m.profile, m.potential, 2.0, lambda0=0.0))


def _free_setup(r_max=64.0, h=0.01, z=1.0 + 0.1j, policy=None):
    m = free_model()
    grid = uniform_grid(r_max, h)
    psi = smooth_bump(grid.radii, 2.0, 3.0).astype(complex)
    op = m.operator(0.0, grid, z, policy)
    return m, grid, psi, op


def test_wronskian_constancy():
    for z in (1.0 + 0.1j, 2.0 + 0.0j):
        for r in (3.0, 17.0, 41.0):
            w, expected = free_kernel_wronskian(z, r)
            assert abs(w - expected) < 1e-10


def test_free_resolvent_matches_analytic_kernel():
    z = 1.0 + 0.1j
    k = np.sqrt(2.0 * z)
    m, grid, psi, op = _free_setup(policy=OuterPolicy.outgoing(k, +1))
    sol = resolve(op, psi)
    ref = free_resolvent(grid, z, psi, 3.0)
    err = l2_norm(sol.phi - ref, grid) / l2_norm(ref, grid)
    assert err < 2e-4


def test_free_resolvent_second_order():
    z = 1.0 + 0.1j
    k = np.sqrt(2.0 * z)
    errs = []
    for h in (0.02, 0.01, 0.005):
        m, grid, psi, op = _free_setup(h=h, policy=OuterPolicy.outgoing(k, +1))
        sol = resolve(op, psi)
        ref = free_resolvent(grid, z, psi, 3.0)
        errs.append(l2_norm(sol.phi - ref, grid) / l2_norm(ref, grid))
    orders = [np.log2(errs[j] / errs[j + 1]) for j in range(2)]
    assert all(1.7 <= o <= 2.3 for o in orders)


def test_zero_source_zero_solution():
    m, grid, psi, op = _free_setup()
    sol = resolve(op, np.zeros(grid.n, dtype=complex), allow_unabsorbed=True)
    assert l2_norm(sol.phi, grid) == 0.0
    out = _outgoing(m, grid, 2.0, np.zeros(grid.n, dtype=complex))
    assert l2_norm(out.phi, grid) == 0.0


def test_adjoint_symmetry():
    # <psi2, R(z) psi1> = <R(zbar) psi2, psi1> for the Dirichlet shift solve
    m = free_model()
    grid = uniform_grid(128.0, 0.02)
    psi1 = smooth_bump(grid.radii, 2.0, 3.0).astype(complex)
    psi2 = smooth_bump(grid.radii, 5.0, 7.0).astype(complex)
    z = 1.0 + 0.2j
    s1 = resolve(m.operator(0.0, grid, z), psi1, allow_unabsorbed=True)
    s2 = resolve(m.operator(0.0, grid, np.conj(z)), psi2, allow_unabsorbed=True)
    lhs = np.sum(grid.weights * np.conj(psi2) * s1.phi)
    rhs = np.sum(grid.weights * np.conj(s2.phi) * psi1)
    assert abs(lhs - rhs) < 1e-10 * max(abs(lhs), 1.0)


def test_outgoing_modulus_constant_beyond_source():
    m = free_model()
    grid = uniform_grid(64.0, 0.01)
    psi = smooth_bump(grid.radii, 2.0, 3.0).astype(complex)
    sol = _outgoing(m, grid, 2.0, psi)
    tail = np.abs(sol.phi[grid.radii > 3.5])
    assert np.max(tail) / np.min(tail) < 1.0 + 1e-6


def test_outgoing_agrees_with_shift_as_gamma_vanishes():
    m = free_model()
    lam, h, r_win = 2.0, 0.02, 32.0
    grid_w = uniform_grid(r_win, h)
    psi_w = smooth_bump(grid_w.radii, 2.0, 3.0).astype(complex)
    out = _outgoing(m, grid_w, lam, psi_w)
    diffs = []
    for gamma in (4e-2, 1e-2, 2.5e-3):
        grid_b = uniform_grid(2.0 ** np.ceil(np.log2(1.0 + 8.0 / gamma)), h)
        psi_b = smooth_bump(grid_b.radii, 2.0, 3.0).astype(complex)
        sol = resolve(m.operator(0.0, grid_b, complex(lam, gamma)), psi_b)
        diff = sol.phi[:grid_w.n] - out.phi
        w = grid_w.weights * grid_w.radii**-2
        diffs.append(float(np.sqrt(np.sum(w * np.abs(diff) ** 2))))
    assert diffs[2] < diffs[1] < diffs[0]


def test_first_resolvent_identity():
    m = free_model()
    grid = uniform_grid(64.0, 0.02)
    psi = smooth_bump(grid.radii, 2.0, 3.0).astype(complex)
    z1, z2 = 1.0 + 0.2j, 0.7 + 0.35j
    r1 = resolve(m.operator(0.0, grid, z1), psi, allow_unabsorbed=True).phi
    r2 = resolve(m.operator(0.0, grid, z2), psi, allow_unabsorbed=True).phi
    r12 = resolve(m.operator(0.0, grid, z1), r2, allow_unabsorbed=True).phi
    resid = r1 - r2 - (z1 - z2) * r12
    assert l2_norm(resid, grid) < 1e-9 * l2_norm(r1, grid)


def test_absorption_guard():
    m = free_model()
    grid = uniform_grid(32.0, 0.02)
    psi = smooth_bump(grid.radii, 2.0, 3.0).astype(complex)
    with pytest.raises(AbsorptionError):
        resolve(m.operator(0.0, grid, 1.0 + 0.01j), psi)
    resolve(m.operator(0.0, grid, 1.0 + 0.01j), psi, allow_unabsorbed=True)


def test_shift_requires_complex_z():
    m = free_model()
    grid = uniform_grid(32.0, 0.02)
    psi = smooth_bump(grid.radii, 2.0, 3.0).astype(complex)
    with pytest.raises(ContractError):
        resolve(m.operator(0.0, grid, 2.0 + 0.0j), psi)


def test_near_singular_reports_conditioning():
    # place z essentially on a Dirichlet eigenvalue of the truncated problem
    m = square_well_model()
    grid = uniform_grid(32.0, 0.01)
    scan = eigen_scan(m.profile, m.potential, 0.0, grid, (-5.0, -0.5))
    lam = scan.entries[0].eigenvalue
    psi = smooth_bump(grid.radii, 1.2, 1.8).astype(complex)
    with pytest.raises(ConditioningError):
        resolve(m.operator(0.0, grid, complex(lam, 1e-15)), psi,
                allow_unabsorbed=True)


def test_eigen_scan_square_well_against_matching_oracle():
    oracle = well_bound_states(5.0, width=1.0)
    assert len(oracle) == 1
    m = square_well_model(depth=5.0, a=1.0, b=2.0)
    grid = uniform_grid(32.0, 0.01)
    scan = eigen_scan(m.profile, m.potential, 0.0, grid, (-5.0, 10.0))
    genuine = scan.genuine()
    below = [e for e in genuine if e.eigenvalue < 0.0]
    assert len(below) == 1
    assert abs(below[0].refined - oracle[0]) < 1e-6
    # everything above lambda0 = 0 is a truncation artifact
    above = [e for e in scan.entries if e.eigenvalue > 1e-9]
    assert above and all(e.artifact for e in above)
    # artifact fingerprints: flat profile and drift under domain doubling
    assert all(e.profile_slope > -0.25 and e.drift > 1e-5 for e in above)


def test_eigen_scan_eigenvector_orthogonality():
    m = square_well_model(depth=30.0, a=1.0, b=3.0)
    grid = uniform_grid(24.0, 0.01)
    scan = eigen_scan(m.profile, m.potential, 0.0, grid, (-30.0, -0.5))
    vecs = [e for e in scan.entries]
    assert len(vecs) >= 2
    # reconstruct eigenvectors by re-solving is overkill; orthogonality of
    # distinct bound states follows from symmetric tridiagonal eigensolves,
    # checked here through the annulus profiles being distinct and decaying
    assert all(e.profile_slope < -0.25 for e in vecs if e.eigenvalue < -0.5)


def test_multiend_scan_continuous_spectrum_only():
    m = multiend_model(0.0, 4.0, x_min=-24.0)
    grid = m.make_grid(48.0, 0.02)
    op = m.operator(0.0, grid, 0.0, OuterPolicy.dirichlet())
    grid2 = m.make_grid(96.0, 0.02)
    op2 = m.operator(0.0, grid2, 0.0, OuterPolicy.dirichlet())
    scan = eigen_scan_tridiag(op.dd.real, op.dl.real, grid, (0.05, 6.0),
                              dd2=op2.dd.real, dl2=op2.dl.real,
                              thresholds=m.thresholds)
    keep = [e for e in scan.entries if not e.near_threshold]
    assert keep and all(e.artifact for e in keep)


def test_eigen_scans_refuse_an_unresolved_interval():
    # at h = 0.5 the top of (0.05, 50) has k = 10, 1.26 points per wavelength;
    # both scans refuse it before any eigensolve, as the assemblers refuse
    # such a z, while (0.05, 0.5) (12.6 points) is scanned.  An empty or
    # reversed interval is refused too, never handed to LAPACK's bisection
    m = free_model()
    grid = m.make_grid(64.0, 0.5)
    op = m.operator(0.0, grid, 0.0, OuterPolicy.dirichlet())
    for scan in (lambda iv: eigen_scan(m.profile, m.potential, 0.0, grid, iv),
                 lambda iv: eigen_scan_tridiag(op.dd.real, op.dl.real, grid, iv)):
        with pytest.raises(ResolutionError, match="points per wavelength"):
            scan((0.05, 50.0))
        with pytest.raises(ResolutionError):
            scan((-50.0, 0.05))        # the end of larger |lambda| decides
        for degenerate in ((1.0, 1.0), (2.0, 1.0)):
            with pytest.raises(ContractError, match="non-degenerate"):
                scan(degenerate)
        assert scan((0.05, 0.5)).entries


# --- sources given as their support ---------------------------------------------

def _pivoting_operator(grid, z):
    """A Dirichlet operator with a random potential diagonal in (-2/h^2, 0):
    |d| < |dl| on some rows, so the elimination swaps rows there."""
    h = grid.h
    w = np.random.default_rng(3).uniform(-2.0 / h**2, 0.0, grid.n)
    return RadialOperator(mu=0.0, z=z, policy=OuterPolicy.dirichlet(), grid=grid,
                          potential_diag=w)


@pytest.mark.parametrize("policy", [None, OuterPolicy.outgoing(np.sqrt(2.0), +1),
                                    "pivoting"])
def test_support_source_matches_full_grid_source(policy):
    # a source given as (start, values) and the same source on the full
    # grid: the same phi, bit for bit.  Spans at
    # the inner wall, over the whole grid and on the last unknown included;
    # entries at the wall and past the last unknown are dropped either way.
    # Two residual blocks: one span crosses the edge between them.
    m = free_model()
    grid = uniform_grid(256.0, 0.02)
    assert grid.n > _RESIDUAL_BLOCK + 1000
    z = 1.0 + 0.2j
    if policy == "pivoting":
        op = _pivoting_operator(grid, z)
    else:
        op = m.operator(0.0, grid, z, policy)
    n, last = grid.n, FIRST_UNKNOWN + op.n_unknowns - 1
    rng = np.random.default_rng(11)
    spans = [(0, 1), (0, 5), (0, n), (1, 7), (40, 300), (_RESIDUAL_BLOCK - 100, 900),
             (last - 5, 6), (last, 1), (n - 9, 9), (n - 1, 1)]
    def solve(psi):
        return resolve(op, psi, allow_unabsorbed=True)

    for start, size in spans:
        vals = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        full = np.zeros(n, dtype=complex)
        full[start:start + size] = vals
        ref, got = solve(full), solve((start, vals))
        assert np.array_equal(got.phi.view(np.uint64), ref.phi.view(np.uint64))
        # ||rhs|| summed over the support instead of the unknowns
        assert got.growth == pytest.approx(ref.growth, rel=1e-14, abs=0.0)
        assert got.residual == pytest.approx(ref.residual, rel=1e-14, abs=0.0)
        if start + size <= FIRST_UNKNOWN or start > last:
            assert not np.any(got.phi)
    # the values of a support lie on the grid
    for start, size in ((-1, 3), (n - 2, 3), (n, 1)):
        with pytest.raises(ContractError):
            solve((start, np.ones(size, dtype=complex)))
    with pytest.raises(ContractError):
        solve((0, np.ones((2, 2), dtype=complex)))


def test_resolvent_guards_on_reuse():
    m = free_model()
    grid = uniform_grid(32.0, 0.02)
    psi = smooth_bump(grid.radii, 2.0, 3.0).astype(complex)
    op = m.operator(0.0, grid, 1.0 + 0.01j)
    with pytest.raises(AbsorptionError):
        resolve(op, psi)
    resolve(op, psi, allow_unabsorbed=True)
    bad = psi.copy()
    for value in (np.nan, np.inf):
        bad[grid.n // 2] = value
        with np.errstate(invalid="ignore"), pytest.raises(ValueError):
            resolve(op, bad, allow_unabsorbed=True)
    with pytest.raises(ContractError):
        resolve(op, psi[:-1], allow_unabsorbed=True)
    resolve(op, psi, allow_unabsorbed=True)  # a refused source leaves op usable

    # z on a Dirichlet eigenvalue of the truncated problem, every source
    w = square_well_model()
    grid = uniform_grid(32.0, 0.01)
    lam = eigen_scan(w.profile, w.potential, 0.0, grid,
                     (-5.0, -0.5)).entries[0].eigenvalue
    op = w.operator(0.0, grid, complex(lam, 1e-15))
    for a, b in ((1.2, 1.8), (1.1, 1.9)):
        with pytest.raises(ConditioningError):
            resolve(op, smooth_bump(grid.radii, a, b).astype(complex),
                    allow_unabsorbed=True)


def test_resolvent_singular_matrix():
    # diagonal [1, 3/4, 1/2] (the last is the halved outgoing row) with
    # off-diagonals -1/2: the pivots 1, 1/2, 0 are exact, the matrix singular
    grid = uniform_grid(4.0, 1.0)
    op = RadialOperator(mu=0.0, z=0j, policy=OuterPolicy.outgoing(0.0), grid=grid,
                        potential_diag=np.array([0.0, 0.0, -0.25, 0.0]))
    np.testing.assert_array_equal(op.dd, [1.0, 0.75, 0.5])
    with pytest.raises(LinAlgError):
        resolve(op, np.ones(grid.n, dtype=complex))


def _count_geometry(monkeypatch):
    """Record a copy of the radii of each geometry_at call, per calling module."""
    calls = {"experiments": [], "radial": []}
    for name in calls:
        module = getattr(endspec, name)
        original = module.geometry_at

        def counting(profile, r, seen=calls[name], original=original):
            seen.append(np.array(r))
            return original(profile, r)

        monkeypatch.setattr(module, "geometry_at", counting)
    return calls


def _assert_blocks_cover(calls, grid):
    """The calls took every node of ``grid`` once, in order, in blocks of
    at most ``radial._ASSEMBLY_BLOCK`` radii, one per block."""
    block = endspec.radial._ASSEMBLY_BLOCK
    assert len(calls) == -(-grid.n // block)
    assert all(r.size <= block for r in calls)
    assert np.array_equal(np.concatenate(calls), grid.radii)


def test_hoelder_evaluates_geometry_once_per_grid(monkeypatch):
    # the shared grid's potential diagonals are built block by block, both
    # modes from each block's geometry: every node's geometry is taken once,
    # and never on more than _ASSEMBLY_BLOCK radii at a time.  (Before, one
    # call took the whole grid, and the GeometryPoint it returned, dropped
    # after one diagonal per mode, set the estimate's peak memory.)
    calls = _count_geometry(monkeypatch)
    m = euclidean_model(3)
    modes = m.modes(2.5)
    assert len(modes) == 2
    table = hoelder_estimate(m, 1.0, 1.0, gamma_top=0.064, n_pairs=2,
                             n_probes=3, h=0.02, mode_cap=2.5)
    assert len(table.rows) == 2
    grid = m.make_grid(table.meta["r_max"], 0.02)
    assert grid.n == 51151 and len(calls["radial"]) == 2
    assert calls["experiments"] == []
    _assert_blocks_cover(calls["radial"], grid)


def test_sommerfeld_evaluates_geometry_once_on_the_long_grid(monkeypatch):
    # one assembly on the long grid, block by block, serves the shift
    # solves and, as views of its first nodes, the window's outgoing solve
    calls = _count_geometry(monkeypatch)
    m = euclidean_model(3)
    rep = sommerfeld_compare(m, 2.0, h=0.05, gamma_top=2e-2, mode_cap=2.5)
    grid = m.make_grid(rep.meta["r_big"], 0.05)
    assert grid.n == 81901 and len(calls["radial"]) == 3
    assert calls["experiments"] == []
    _assert_blocks_cover(calls["radial"], grid)


# --- the in-place solve path ------------------------------------------------------

_POLICIES = [None, OuterPolicy.outgoing(np.sqrt(2.0), +1)]


def _reference_solve(op, psi):
    """zgttrs on a scaled copy of the source, then zero-padded to the grid."""
    lu = zgttrf(op.dl, op.dd, op.du)[:-1]
    scale = np.ones(op.n_unknowns)
    if op.policy.kind == "outgoing":
        scale[-1] = 0.5
    i0 = FIRST_UNKNOWN
    rhs = psi[i0:i0 + op.n_unknowns] * scale
    u, _ = zgttrs(*lu, rhs)
    phi = np.zeros(op.grid.n, dtype=complex)
    phi[i0:i0 + u.size] = u
    return phi, rhs, u


@pytest.mark.parametrize("policy", _POLICIES)
def test_in_place_solve_matches_reference_recipe(policy):
    m = free_model()
    grid = uniform_grid(64.0, 0.02)
    op = m.operator(0.0, grid, 1.0 + 0.2j, policy)
    for a, b in ((2.0, 3.0), (20.0, 63.99)):
        psi = smooth_bump(grid.radii, a, b).astype(complex)
        psi_before = psi.copy()
        sol = resolve(op, psi)
        phi, rhs, u = _reference_solve(op, psi)
        assert np.array_equal(sol.phi.view(np.uint64), phi.view(np.uint64))
        assert np.array_equal(psi.view(np.uint64), psi_before.view(np.uint64))
        scale = np.linalg.norm(rhs)
        resid = np.linalg.norm(op.matvec(u) - rhs) / scale
        np.testing.assert_allclose(sol.residual, resid, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(sol.growth, np.linalg.norm(u) / scale,
                                   rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("policy", _POLICIES)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.inf)])
def test_non_finite_source_is_refused(policy, bad):
    m, grid, psi, op = _free_setup(policy=policy)
    for j in (1, grid.n // 2, grid.n - 2):
        psi_bad = psi.copy()
        psi_bad[j] = bad
        with pytest.raises(ValueError):
            resolve(op, psi_bad, allow_unabsorbed=True)



def test_non_finite_potential_is_refused():
    # a NaN on the potential diagonal is caught before LAPACK sees it
    m, grid, psi, op = _free_setup()
    diag = op.potential_diag.copy()
    diag[grid.n // 2] = np.nan
    with pytest.raises(ValueError, match="infs or NaNs"):
        resolve(dataclasses.replace(op, potential_diag=diag), psi,
                allow_unabsorbed=True)

def test_huge_finite_source_is_not_refused_as_non_finite():
    # ||psi||^2 overflows, yet every entry is finite: the exact elementwise
    # check decides, as it does for every source whose sum is not finite
    m, grid, psi, op = _free_setup()
    with np.errstate(over="ignore", invalid="ignore"):
        resolve(op, 1e200 * psi, allow_unabsorbed=True)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_solution_reports_conditioning(monkeypatch, bad):
    # the solution is the fourth array zgtsv returns
    m, grid, psi, op = _free_setup()
    routine = endspec.solver.zgtsv

    def corrupting(*args, **kwargs):
        out = routine(*args, **kwargs)
        out[3][len(out[3]) // 2] = bad
        return out

    monkeypatch.setattr(endspec.solver, "zgtsv", corrupting)
    with pytest.raises(ConditioningError, match="non-finite"):
        resolve(op, psi, allow_unabsorbed=True)


@pytest.mark.parametrize("policy", _POLICIES)
def test_growth_and_residual_guards_fire(monkeypatch, policy):
    m, grid, psi, op = _free_setup(policy=policy)
    for limit, value, message in (("BLOWUP_LIMIT", 1e-3, "grew"),
                                  ("RESIDUAL_TOL", 0.0, "residual")):
        with monkeypatch.context() as patched:
            patched.setattr(endspec.solver, limit, value)
            with pytest.raises(ConditioningError, match=message):
                resolve(op, psi, allow_unabsorbed=True)


def test_one_source_solve_peak_memory_in_grid_vectors():
    # one zgtsv sweep holds the diagonals dd, dl, du and the solution phi;
    # the residual's block scratch is small.  Factors kept for reuse would
    # add du2 and the pivots (5.25 vectors in all).
    m = free_model()
    grid = uniform_grid(4001.0, 0.02)
    assert grid.n == 200001
    psi = smooth_bump(grid.radii, 2.0, 3.0).astype(complex)
    op = m.operator(0.0, grid, 1.0 + 0.2j)
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        sol = resolve(op, psi)
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    assert sol.phi.size == grid.n
    assert peak / (16.0 * grid.n) <= 4.5
    # the source given as its support, (start, values): the same solve, and
    # no full-grid copy of the source anywhere
    span = slice(40, 110)
    assert not np.any(psi[:span.start]) and not np.any(psi[span.stop:])
    vals = psi[span].copy()
    del psi
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        compact = resolve(op, (span.start, vals))
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    assert np.array_equal(compact.phi.view(np.uint64), sol.phi.view(np.uint64))
    assert peak / (16.0 * grid.n) <= 4.5


@pytest.mark.parametrize("gammas", [[0.5], [0.3, 0.5, 0.8]])
def test_lap_sweep_evaluates_geometry_once(monkeypatch, gammas):
    calls = _count_geometry(monkeypatch)
    m = euclidean_model(3)
    assert len(m.modes(6.5)) == 3
    # V on the sweep grid is evaluated once too: the operators' diagonals
    # and the H0 phi = psi + (z - V) phi of every row read the same array
    v_calls, v_of = [], m.potential.V

    def counting_v(x):
        v_calls.append(np.array(x))
        return v_of(x)

    m = dataclasses.replace(m, potential=dataclasses.replace(m.potential, V=counting_v))
    table = lap_sweep(m, 1.0, gammas, h=0.05, mode_cap=6.5)
    assert len(table.rows) == len(gammas)
    assert len(calls["experiments"]) == 1
    assert calls["radial"] == []
    grid = m.make_grid(table.meta["r_max"], 0.05)
    assert sum(np.array_equal(x, grid.nodes) for x in v_calls) == 1


@pytest.mark.parametrize("sweep", [
    lambda m: radiation_sweep(m, 2.0, [0.1, 0.05], [0.0, 0.5], h=0.05,
                              base_r_max=64.0, mode_cap=6.5),
    lambda m: besov_energy_check(m, 2.0, h=0.05, mode_cap=6.5,
                                 nus=(0, 1, 2)),
], ids=["radiation_sweep", "besov_energy_check"])
def test_sweeps_evaluate_geometry_once_for_all_modes(monkeypatch, sweep):
    calls = _count_geometry(monkeypatch)
    m = euclidean_model(3)
    assert len(m.modes(6.5)) == 3
    assert sweep(m).rows
    assert len(calls["experiments"]) == 1
    assert calls["radial"] == []


def test_shared_geometry_diagonals_match_per_mode_assembly():
    m = euclidean_model(3)
    grid = m.make_grid(64.0, 0.05)
    modes = m.modes(6.5)
    pt = geometry_at(m.profile, grid.radii)
    ops = endspec.experiments._mode_operators(m, grid, modes, 2.0 + 0.1j,
                                              (pt, m.potential.V(grid.nodes)))
    assert pt is not None
    for mu, _ in modes:
        fresh = m.operator(mu, grid, 2.0 + 0.1j)
        assert np.array_equal(ops[mu].potential_diag.view(np.uint64),
                              fresh.potential_diag.view(np.uint64))


def _assembly_presets():
    rt = np.linspace(1.0, 128.0, 509)
    return {"free": free_model(), "power1-d3": power_model(1.0, 3),
            "euclidean-d2": euclidean_model(2), "euclidean-d3": euclidean_model(3),
            "exp-lower": exp_model(1.0, 3, lower_c=0.5, lower_theta=0.5),
            "stretchedexp": stretched_exp_model(1.0, 0.5, 3),
            "tabulated": tabulated_model(rt, rt**1.5 + rt, 3),
            "hyperbolic-d3": hyperbolic_model(3), "square-well": square_well_model(),
            "multiend": multiend_model(),
            # q_geom, mu/(2f) and V all nonzero, so the operand order shows
            "power1-d3-coulomb": Model(
                name="coulomb", profile=power_profile(1.0, 3),
                potential=geometric_split(power_profile(1.0, 3),
                                          V_long=lambda r: 0.3 / r,
                                          dV_long=lambda r: -0.3 / r**2,
                                          d2V_long=lambda r: 0.6 / r**3))}


@pytest.mark.parametrize("blocks", ["n<B", "n=5B", "n=4B+1", "band-split"])
@pytest.mark.parametrize("preset", list(_assembly_presets()))
def test_blocked_diagonals_equal_whole_grid_assembly(preset, blocks, monkeypatch):
    # the diagonals built block by block are q_geom + mu/(2f) + V of one
    # whole-grid evaluation, bit for bit, for every mode: on a grid shorter
    # than a block, on whole blocks only, with a one-node last block, and
    # with block edges at nodes 7 and 14 inside the band r < r0 = 2 (nodes
    # 0-19), where the cutoff terms are evaluated; the multiend line grid
    # runs from x = -24 with r clamped at 1
    m = _assembly_presets()[preset]
    grid = m.make_grid(101.2, 0.05)
    assert grid.n == (2505 if preset == "multiend" else 2005)
    block = {"n<B": grid.n + 1, "n=5B": grid.n // 5, "n=4B+1": (grid.n - 1) // 4,
             "band-split": 7}[blocks]
    monkeypatch.setattr(endspec.radial, "_ASSEMBLY_BLOCK", block)
    mus = [mu for mu, _ in m.modes(6.5)]
    pt = geometry_at(m.profile, grid.radii)
    v = np.asarray(m.potential.V(grid.nodes), dtype=float)
    ops = assemble_mode_operators(m.profile, m.potential, mus, grid, 1.0 + 0.1j)
    assert [op.mu for op in ops] == mus
    # _mode_operators from the whole-grid (GeometryPoint, V), as the sweeps
    # call it, and block by block, as the solve-only callers do
    given = endspec.experiments._mode_operators(m, grid, m.modes(6.5), 1.0 + 0.1j, (pt, v))
    blocked = endspec.experiments._mode_operators(m, grid, m.modes(6.5), 1.0 + 0.1j)
    for mu, op in zip(mus, ops):
        whole = pt.q_geom + mu / (2.0 * pt.f) + v
        assert op.potential_diag.tobytes() == whole.tobytes()
        single = m.operator(mu, grid, 1.0 + 0.1j)
        assert single.potential_diag.tobytes() == whole.tobytes()
        assert given[mu].potential_diag.tobytes() \
            == blocked[mu].potential_diag.tobytes() == whole.tobytes()


# --- NaN growth and residual --------------------------------------------------------

@pytest.mark.parametrize("policy", _POLICIES)
def test_overflowing_source_norm_gives_finite_growth_and_residual(policy):
    # ||psi||^2 overflows for both factors.  2^665 (~1.3e200) scales the
    # solve exactly, so its residual is the unscaled one up to the rounding
    # of the norms; 1e200 changes the roundoff of the solve itself.
    m, grid, psi, op = _free_setup(policy=policy)

    def res(source):
        return resolve(op, source, allow_unabsorbed=True)

    plain = res(psi)
    with np.errstate(over="ignore"):
        exact, huge = res(2.0 ** 665 * psi), res(1e200 * psi)
    for sol in (exact, huge):
        assert np.isfinite(sol.growth) and np.isfinite(sol.residual)
        assert sol.growth == pytest.approx(plain.growth, rel=1e-12, abs=0.0)
    assert exact.residual == pytest.approx(plain.residual, rel=1e-12, abs=0.0)
    assert huge.residual <= endspec.solver.RESIDUAL_TOL


def test_nan_residual_is_refused(monkeypatch):
    original = endspec.solver._residual_sq

    def poisoning(*args, **kwargs):
        return original(*args, **kwargs) * np.nan

    m, grid, psi, op = _free_setup()
    monkeypatch.setattr(endspec.solver, "_residual_sq", poisoning)
    with pytest.raises(ConditioningError, match="residual"):
        resolve(op, psi, allow_unabsorbed=True)


# --- the residual summed in blocks ----------------------------------------------

def _rows_rhs(op, psi):
    """The full-grid source psi on the unknowns, scaled like their rows: the
    outgoing last row is halved."""
    b = psi[FIRST_UNKNOWN:FIRST_UNKNOWN + op.n_unknowns].copy()
    if op.policy.kind == "outgoing":
        b[-1] *= 0.5
    return b


@pytest.mark.parametrize("policy", _POLICIES)
@pytest.mark.parametrize("n", [100, 2 * _RESIDUAL_BLOCK, 2 * _RESIDUAL_BLOCK + 1],
                         ids=["below_block", "block_multiple", "past_multiple"])
def test_block_residual_matches_matvec(policy, n):
    h = 0.01
    grid = uniform_grid(1.0 + h * (n + (2 if policy is None else 1) - 1), h)
    op = free_model().operator(0.0, grid, 1.0 + 0.2j, policy)
    assert op.n_unknowns == n
    i0 = FIRST_UNKNOWN
    rng = np.random.default_rng(n)
    psi = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
    rhs = _rows_rhs(op, psi)
    # the verified solve: its residual is roundoff, which vectorized and
    # scalar loops round differently, so it is compared as in the test above
    sol = resolve(op, psi, allow_unabsorbed=True)
    ref = np.linalg.norm(op.matvec(sol.phi[i0:i0 + n]) - rhs) / np.linalg.norm(rhs)
    np.testing.assert_allclose(sol.residual, ref, rtol=1e-12, atol=1e-12)
    # a vector that solves nothing: every row, block edges included, counts
    phi = np.zeros(grid.n, dtype=complex)
    phi[i0:i0 + n] = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    ref = np.linalg.norm(op.matvec(phi[i0:i0 + n]) - rhs)
    got = np.sqrt(endspec.solver._residual_sq(op, phi, 0, psi[i0:i0 + n]))
    assert got == pytest.approx(ref, rel=1e-12, abs=0.0)
    # a source on a few rows, across a block edge and up to the last row:
    # subtracted only where it lies, the rest of every block as it is
    for first, m in ((0, 3), (_RESIDUAL_BLOCK - 2, 5), (n - 4, 4), (n - 1, 1)):
        if first < 0 or first + m > n:
            continue
        b = psi[i0 + first:i0 + first + m]
        compact = np.zeros(grid.n, dtype=complex)
        compact[i0 + first:i0 + first + m] = b
        ref = np.linalg.norm(op.matvec(phi[i0:i0 + n]) - _rows_rhs(op, compact))
        got = np.sqrt(endspec.solver._residual_sq(op, phi, first, b))
        assert got == pytest.approx(ref, rel=1e-12, abs=0.0)


# --- companion eigen-scans compute values only ------------------------------------

def _entries_equal(a: EigenEntry, b: EigenEntry) -> bool:
    for name in EigenEntry.__dataclass_fields__:
        x, y = getattr(a, name), getattr(b, name)
        if not (x == y or (np.isnan(x) and np.isnan(y))):
            return False
    return True


def _scan_with_all_vectors(monkeypatch, scan):
    """``scan()`` twice: as it runs, and with every companion scan also
    computing eigenvectors (the reference).  Returns both results and the
    number of values-only calls of the first run."""
    original = endspec.solver.eigh_tridiagonal
    values_only = []

    def counting(d, e, eigvals_only=False, **kw):
        values_only.append(eigvals_only)
        return original(d, e, eigvals_only=eigvals_only, **kw)

    def with_vectors(d, e, eigvals_only=False, **kw):
        vals, vecs = original(d, e, **kw)
        return vals if eigvals_only else (vals, vecs)

    monkeypatch.setattr(endspec.solver, "eigh_tridiagonal", counting)
    got = scan()
    monkeypatch.setattr(endspec.solver, "eigh_tridiagonal", with_vectors)
    ref = scan()
    return got, ref, sum(values_only)


@pytest.mark.parametrize("model", [free_model(), euclidean_model(3)],
                         ids=["free", "euclidean3"])
def test_eigen_scan_values_only_companions_match_reference(monkeypatch, model):
    grid = model.make_grid(32.0, 0.05)
    got, ref, n_values_only = _scan_with_all_vectors(monkeypatch, lambda: eigen_scan(
        model.profile, model.potential, 2.0, grid, (0.05, 3.0),
        thresholds=model.thresholds))
    assert n_values_only == 2
    assert len(got.entries) == len(ref.entries) > 0
    assert all(_entries_equal(a, b) for a, b in zip(got.entries, ref.entries))


def test_eigen_scan_tridiag_values_only_companion_matches_reference(monkeypatch):
    m = multiend_model()
    grid = m.make_grid(32.0, 0.05)
    grid2 = m.make_grid(64.0, 0.05)
    op = m.operator(0.0, grid, 0.0)
    op2 = m.operator(0.0, grid2, 0.0)
    got, ref, n_values_only = _scan_with_all_vectors(monkeypatch, lambda: eigen_scan_tridiag(
        op.dd.real, op.dl.real, grid, (0.05, 3.0), dd2=op2.dd.real, dl2=op2.dl.real,
        thresholds=m.thresholds))
    assert n_values_only == 1
    assert len(got.entries) == len(ref.entries) > 0
    assert all(_entries_equal(a, b) for a, b in zip(got.entries, ref.entries))
