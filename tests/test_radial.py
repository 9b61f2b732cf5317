import numpy as np
import pytest

from endspec.errors import ContractError, ResolutionError
from endspec.geometry import (const_profile, exp_profile, geometric_split,
                              power_profile)
from endspec.radial import (BesovProfile, OuterPolicy, assemble_line_operator,
                            assemble_radial_operator,
                            besov_from_modes, besov_norms, inner, l2_norm,
                            line_grid, mode_spectrum, profile_modes, smooth_bump,
                            uniform_grid, weighted_norm)


# --- mode spectra -------------------------------------------------------------

def test_circle_spectrum():
    # S^1 at d = 2: mu = k^2, multiplicity 2 for k >= 1
    ms = mode_spectrum(5.0, 2)
    assert list(ms) == [(0.0, 1), (1.0, 2), (4.0, 2)]


def test_sphere_spectrum_d3():
    ms = mode_spectrum(7.0, 3)
    assert list(ms) == [(0.0, 1), (2.0, 3), (6.0, 5)]


def test_sphere_spectrum_d4():
    # S^3: mu = l(l+2), multiplicity (l+1)^2
    ms = mode_spectrum(9.0, 4)
    assert list(ms) == [(0.0, 1), (3.0, 4), (8.0, 9)]


def test_spectrum_refusals():
    with pytest.raises(ContractError):
        mode_spectrum(-1.0, 3)
    with pytest.raises(ContractError):
        mode_spectrum(1.0, 1)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_profile_modes_refuse_a_negative_cap_at_every_d(d):
    # d = 1 has the one mode mu = 0 whatever the cap, yet a negative cap is
    # refused there as on the spheres (it used to return ((0.0, 1),))
    prof = const_profile(d=d)
    assert profile_modes(prof, 0.0) == ((0.0, 1),)
    with pytest.raises(ContractError, match="cap"):
        profile_modes(prof, -1.0)


# --- grids and norms ----------------------------------------------------------

def test_grid_weights_sum():
    grid = uniform_grid(64.0, 0.01)
    assert np.sum(grid.weights) == pytest.approx(63.0, rel=1e-12)


def _lazy_field_grids():
    from endspec.models import multiend_model
    return {"dyadic": uniform_grid(64.0, 0.05),
            "non_dyadic": uniform_grid(100.0, 0.03),
            "short_edge": uniform_grid(128.0, 0.03),
            "line": multiend_model().make_grid(64.0, 0.02),
            "prefix": uniform_grid(256.0, 0.05).prefix(1001),
            "section": multiend_model().make_grid(64.0, 0.02).section(slice(500, 1700))}


@pytest.mark.parametrize("name", sorted(_lazy_field_grids()))
def test_grid_fields_built_on_first_read_match_eager_formulas(name):
    grid = _lazy_field_grids()[name]
    # the formulas the grid builder used to apply to every grid up front
    w = np.full(grid.n, grid.h)
    w[0] = w[-1] = 0.5 * grid.h
    nu = np.floor(np.log2(np.maximum(grid.radii, 1.0))).astype(int)
    partial = bool(grid.radii[-1] < 2.0 ** (nu[-1] + 1) - 1e-12)
    # nothing but the nodes until a field is read; partial_outer reads the
    # last radius only
    assert "weights" not in vars(grid) and "nu" not in vars(grid)
    assert grid.partial_outer is partial
    assert "nu" not in vars(grid)
    assert grid.weights.dtype == w.dtype and grid.weights.tobytes() == w.tobytes()
    assert grid.nu.dtype == nu.dtype and grid.nu.tobytes() == nu.tobytes()
    # built once, kept, read-only
    assert "weights" in vars(grid) and "nu" in vars(grid)
    assert grid.weights is grid.weights and grid.nu is grid.nu
    for name in ("weights", "nu"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(grid, name)[0] = 0


def _identity_coords(x):
    # r = x (clamped to r >= 1 by the grid), r' = 1, r'' = 0
    return np.asarray(x, float), np.ones(np.shape(x)), np.zeros(np.shape(x))


@pytest.mark.parametrize("lo, hi, h, line", [
    (1.0, 64.0, 0.05, False), (1.0, 100.0, 0.03, False), (1.0, 16384.0, 0.02, False),
    (1.0, 2.0**15, 0.01, False), (-24.0, 64.0, 0.02, True), (-10.0, 32.0, 0.1, True),
    (-3.7, 50.3, 0.013, True)])
def test_grid_nodes_equal_integer_arange_formula(lo, hi, h, line):
    # the nodes formed in place from a float arange are lo + h k with k the
    # integer arange, bit for bit
    grid = line_grid(lo, hi, h, _identity_coords) if line else uniform_grid(hi, h)
    expected = lo + h * np.arange(grid.n)
    assert grid.nodes.dtype == expected.dtype
    assert np.array_equal(grid.nodes.view(np.uint64), expected.view(np.uint64))


def test_uniform_grid_radii_share_read_only_nodes():
    grid = uniform_grid(64.0, 0.01)
    assert np.shares_memory(grid.radii, grid.nodes)
    assert grid.radii[0] == grid.nodes[0] == 1.0
    # r' = 1 and r'' = 0 exactly, as zero-stride views that hold no memory
    assert np.all(grid.dr == 1.0) and np.all(grid.d2r == 0.0)
    assert grid.dr.strides == grid.d2r.strides == (0,)
    assert grid.dr.shape == grid.d2r.shape == (grid.n,)
    line = line_grid(-10.0, 32.0, 0.1, _identity_coords)
    for g in (grid, line):
        for name in ("nodes", "radii", "dr", "d2r", "weights", "nu"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(g, name)[1] = 0


def test_annuli_partition_and_consistency():
    grid = uniform_grid(64.0, 0.01)
    rng = np.random.default_rng(0)
    phi = rng.normal(size=grid.n) + 1j * rng.normal(size=grid.n)
    prof = besov_norms(phi, grid)
    total = np.sum(prof.annulus_norms**2)
    assert total == pytest.approx(l2_norm(phi, grid) ** 2, rel=1e-12)


def _parity_grids():
    from endspec.models import multiend_model
    line = multiend_model().make_grid(64.0, 0.02)
    assert line.radii[0] == 1.0 and line.nodes[0] < 0.0   # clamped left end
    return {"uniform": uniform_grid(64.0, 0.01),
            "non_dyadic": uniform_grid(50.0, 0.03),
            "line": line}


@pytest.mark.parametrize("name", ["uniform", "non_dyadic", "line"])
def test_annuli_and_besov_match_sorted_search(name):
    grid = _parity_grids()[name]
    nus = np.unique(grid.nu)
    assert np.array_equal(grid.annuli(), nus)
    assert grid.annuli() is grid.annuli()
    rng = np.random.default_rng(3)
    funcs = [(rng.normal(size=grid.n) + 1j * rng.normal(size=grid.n), mult)
             for mult in (1, 3, 5)]
    # the aggregation before annuli were found once per grid, kept as reference
    sq = np.zeros(nus.size)
    for phi, mult in funcs:
        dens = grid.weights * np.abs(phi) ** 2
        sq += mult * np.bincount(np.searchsorted(nus, grid.nu),
                                 weights=dens, minlength=nus.size)
    prof = besov_from_modes(funcs, grid)
    assert np.array_equal(prof.nus, nus)
    assert np.array_equal(prof.annulus_norms.view(np.uint64),
                          np.sqrt(sq).view(np.uint64))
    assert prof.b == float(np.sum(np.sqrt(2.0 ** nus) * np.sqrt(sq)))


def test_besov_single_annulus():
    grid = uniform_grid(64.0, 0.01)
    phi = np.where((grid.radii >= 2.0) & (grid.radii < 4.0), 1.0, 0.0)
    phi = phi / l2_norm(phi, grid)
    prof = besov_norms(phi, grid)
    assert prof.b == pytest.approx(np.sqrt(2.0), rel=1e-12)
    assert prof.bstar == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-12)


def test_besov_borderline_annulus_norms_flat():
    # phi = r^{-1/2}: every full annulus contributes exactly ln 2, so the
    # annulus norms are flat and the B-sum diverges with the horizon while
    # the B*-sup stays bounded: the borderline of the scale
    grid = uniform_grid(4096.0, 0.05)
    phi = grid.radii**-0.5
    prof = besov_norms(phi, grid)
    full = prof.annulus_norms[:-1] if prof.partial_outer else prof.annulus_norms
    np.testing.assert_allclose(full, np.sqrt(np.log(2.0)), rtol=0.02)
    assert prof.bstar <= 1.0 and prof.b > 6.0


def test_besov_compact_support_vanishes():
    grid = uniform_grid(256.0, 0.05)
    phi = smooth_bump(grid.radii, 2.0, 3.0)
    prof = besov_norms(phi, grid)
    assert np.all(prof.annulus_norms[prof.nus >= 2] == 0.0)


def test_besov_duality():
    grid = uniform_grid(128.0, 0.02)
    rng = np.random.default_rng(7)
    for _ in range(20):
        phi = rng.normal(size=grid.n)
        psi = rng.normal(size=grid.n)
        lhs = abs(inner(phi, psi, grid))
        assert lhs <= besov_norms(phi, grid).bstar * besov_norms(psi, grid).b * (1 + 1e-12)


def test_weighted_norm_examples():
    grid = uniform_grid(64.0, 0.001)
    ind = np.where(grid.radii <= 2.0, 1.0, 0.0)
    assert weighted_norm(ind, grid, 0.0) == pytest.approx(1.0, rel=1e-3)
    phi = 1.0 / grid.radii
    assert weighted_norm(phi, grid, 1.0) == pytest.approx(np.sqrt(63.0), rel=1e-12)


def test_weighted_norm_log_space():
    # || r^s ||^2 = (R^{2s+1} - 1)/(2s+1), checked in the log domain
    grid = uniform_grid(2.0**14, 1.0)
    phi = np.ones(grid.n)
    s = 40.0
    v = weighted_norm(phi, grid, s)
    assert np.isfinite(v) and v > 1e160
    expected_log = 0.5 * ((2 * s + 1) * np.log(grid.r_max) - np.log(2 * s + 1))
    assert np.log(v) == pytest.approx(expected_log, abs=1e-4)



def test_weighted_norm_log_space_of_zero_is_zero():
    # s log r_max = 100 log 64 > 300 takes the log-space branch, where a
    # function with no nonzero term has no largest term to shift by
    grid = uniform_grid(64.0, 0.5)
    assert weighted_norm(np.zeros(grid.n), grid, 100.0) == 0.0


def test_tail_slope_of_a_vanishing_annulus_is_minus_infinity():
    prof = BesovProfile.from_squares([0, 1, 2, 3], [1.0, 1.0, 0.0, 1.0],
                                     partial_outer=False)
    assert prof.tail_slope() == -np.inf

def test_weighted_norm_log_space_matches_an_exact_sum():
    # the log-space branch (|s| log r_max >= 300) where r^{2s} alone
    # overflows (16384^80 ~ 1e338) but the norm does not, with zeros in phi:
    # the quadrature sum in 40-digit arithmetic (6e-15 relative here)
    mpmath = pytest.importorskip("mpmath")
    grid = uniform_grid(2.0**14, 1.0)
    s = 40.0
    with np.errstate(over="ignore"):
        assert not np.all(np.isfinite(grid.radii ** (2.0 * s)))
    phi = 1e-150 * np.cos(grid.radii) * (np.arange(grid.n) % 5 != 2)
    with mpmath.workdps(40):
        exact = mpmath.sqrt(mpmath.fsum(
            mpmath.mpf(float(w)) * mpmath.mpf(float(r)) ** 80 * mpmath.mpf(float(p)) ** 2
            for w, r, p in zip(grid.weights, grid.radii, phi)))
        assert weighted_norm(phi, grid, s) == pytest.approx(float(exact), rel=1e-13)


def test_nesting_inequalities():
    # || phi ||_{H_{-s}} <= c_s || phi ||_{B*} (s > 1/2) and
    # || phi ||_{B*} <= sqrt(2) || phi ||_{H_{-1/2}}
    grid = uniform_grid(512.0, 0.05)
    rng = np.random.default_rng(3)
    s = 1.0
    c_s = np.sqrt(1.0 / (1.0 - 2.0 ** (1.0 - 2.0 * s)))
    for _ in range(10):
        phi = rng.normal(size=grid.n)
        bstar = besov_norms(phi, grid).bstar
        assert weighted_norm(phi, grid, -s) <= c_s * bstar * (1 + 1e-12)
        assert bstar <= np.sqrt(2.0) * weighted_norm(phi, grid, -0.5) * (1 + 1e-12)


# --- operator assembly --------------------------------------------------------

def test_free_stencil_entries():
    prof = const_profile(d=1)
    grid = uniform_grid(16.0, 0.1)
    z = 0.5 + 0.2j
    op = assemble_radial_operator(prof, geometric_split(prof), 0.0, grid, z)
    h = grid.h
    np.testing.assert_allclose(op.dd, 1.0 / h**2 - z, rtol=1e-12)
    np.testing.assert_allclose(op.dl, -0.5 / h**2, rtol=1e-12)
    np.testing.assert_allclose(op.du, -0.5 / h**2, rtol=1e-12)


def test_potential_entries_euclid3_vanish():
    prof = power_profile(2.0, 3)
    grid = uniform_grid(32.0, 0.05)
    op = assemble_radial_operator(prof, geometric_split(prof), 0.0, grid, 0.0)
    sel = grid.radii[1:-1] >= prof.r0
    assert np.max(np.abs(op.potential_diag[1:-1][sel])) < 1e-14


def test_potential_entry_exponential_mode():
    prof = exp_profile(2.0, 2)
    grid = uniform_grid(16.0, 0.05)
    op = assemble_radial_operator(prof, geometric_split(prof), 1.0, grid, 0.0)
    j = int(round((5.0 - 1.0) / grid.h))
    expected = 0.125 + 0.5 * np.exp(-10.0)
    assert op.potential_diag[j] == pytest.approx(expected, rel=1e-12)


def test_symmetry_real_shift_dirichlet():
    prof = power_profile(2.0, 2)
    grid = uniform_grid(16.0, 0.05)
    op = assemble_radial_operator(prof, geometric_split(prof), 2.0, grid, 0.0)
    assert np.all(op.dd.imag == 0.0)
    np.testing.assert_array_equal(op.dl, op.du)


def test_mode_monotonicity():
    prof = power_profile(2.0, 3)
    grid = uniform_grid(16.0, 0.05)
    pot = geometric_split(prof)
    ops = [assemble_radial_operator(prof, pot, mu, grid, 0.0)
           for mu in (0.0, 2.0, 6.0)]
    assert np.all(np.diff([op.potential_diag for op in ops], axis=0) >= 0.0)


def test_resolution_guard():
    prof = const_profile(d=1)
    grid = uniform_grid(16.0, 0.5)
    with pytest.raises(ResolutionError):
        assemble_radial_operator(prof, geometric_split(prof), 0.0, grid, 30.0)


def test_line_grid_radii_clamped():
    grid = line_grid(-10.0, 32.0, 0.1, _identity_coords)
    assert np.all(grid.radii >= 1.0)
    assert grid.nu[0] == 0
    assert np.all(grid.dr == 1.0) and np.all(grid.d2r == 0.0)
    # the multiend grid carries its escape function's r' and r'' at the nodes
    from endspec.models import multiend_model
    m = multiend_model()
    line = m.make_grid(64.0, 0.02)
    _, dr, d2r = m.line.coords(line.nodes)
    np.testing.assert_array_equal(line.dr, dr)
    np.testing.assert_array_equal(line.d2r, d2r)
    assert np.any(line.d2r != 0.0)
    for name in ("dr", "d2r"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(line, name)[1] = 0


def test_multiend_diagonal_is_the_line_potential_bitwise():
    # the line goes through the warped assembly, where its constant d = 1
    # profile makes q_geom and mu/(2f) exactly zero
    from endspec.models import multiend_model
    m = multiend_model()
    grid = m.make_grid(64.0, 0.02)
    z = 2.0 + 0.1j
    ref = np.asarray(m.potential.V(grid.nodes), dtype=float)
    for op in (m.operator(0.0, grid, z), assemble_line_operator(m.potential.V, grid, z)):
        got = op.potential_diag
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


def test_shifted_operator_shares_diagonal_and_matches_assembly():
    prof = power_profile(2.0, 3)
    pot = geometric_split(prof)
    grid = uniform_grid(32.0, 0.05)
    op = assemble_radial_operator(prof, pot, 2.0, grid, 1.0 + 0.5j)
    for z, policy in ((0.5 + 0.1j, None), (2.0 + 0.0j, OuterPolicy.outgoing(2.0, -1))):
        moved = op.shifted(z, policy)
        fresh = assemble_radial_operator(prof, pot, 2.0, grid, z, policy)
        assert moved.potential_diag is op.potential_diag
        assert moved.policy == fresh.policy
        np.testing.assert_array_equal(moved.dd, fresh.dd)
        assert moved.n_unknowns == fresh.n_unknowns
    with pytest.raises(ResolutionError):
        op.shifted(2000.0 + 0.1j)
