import numpy as np
import pytest

from endspec.errors import ContractError
from endspec.experiments import (Bump, WeightSpec, besov_energy_check,
                                 hoelder_estimate, lap_sweep, radiation_sweep,
                                 shift_r_max, sommerfeld_compare)
from endspec.models import (euclidean_model, free_model, multiend_model,
                            square_well_model)


def test_weight_spec_invariants():
    r = np.geomspace(1.0, 1e4, 400)
    for delta in (0.2, 0.6, 0.95):
        for nu in (0, 3, 7):
            w = WeightSpec(delta=delta, nu=nu)
            th, dth, d2th = w.theta(r), w.dtheta(r), w.d2theta(r)
            assert np.all(th >= 0.0) and np.all(th <= 1.0 / delta + 1e-12)
            assert np.all(dth > 0.0)
            assert np.all(d2th <= 0.0)
    with pytest.raises(ContractError):
        WeightSpec(delta=0.0, nu=0)
    with pytest.raises(ContractError):
        WeightSpec(delta=0.5, nu=-1)


def test_shift_domain_guard():
    assert shift_r_max(0.001) >= 1.0 + 8.0 / 0.001
    assert shift_r_max(0.5, base=64.0) == 64.0


def test_lap_free_bounded():
    tab = lap_sweep(free_model(), 1.0, [0.1, 0.01], h=0.05)
    assert tab.verdict == "pass"
    for key, v in tab.meta.items():
        if key.startswith("ratio"):
            assert v <= 2.0


def test_lap_below_critical_energy_rejected():
    with pytest.raises(ContractError):
        lap_sweep(square_well_model(), -2.3, [0.1], h=0.05)


def test_lap_multiend_window():
    m = multiend_model(0.0, 4.0)
    tab = lap_sweep(m, 2.0, [0.1, 0.01], h=0.05)
    assert tab.verdict == "pass"
    with pytest.raises(ContractError):
        lap_sweep(m, 5.0, [0.1], h=0.05)        # above the second threshold
    with pytest.raises(ContractError):
        lap_sweep(m, 3.99, [0.1], h=0.05)       # on the threshold window


def test_radiation_beta_zero_consistent_with_lap():
    # at beta = 0 the radiation table shares the Gamma column and stays bounded
    m = euclidean_model(3)
    tab = radiation_sweep(m, 2.0, [0.1, 0.01], [0.0], h=0.05)
    assert tab.verdict == "pass"
    assert sorted({row[0] for row in tab.rows}) == [0.01, 0.1]


def test_radiation_sign_discrimination():
    m = euclidean_model(3)
    tab = radiation_sweep(m, 2.0, [0.1, 0.01, 0.001], [0.0, 0.5], h=0.05)
    assert tab.verdict == "pass"
    assert tab.meta["discrimination_at_gamma_min"] >= 10.0


def test_radiation_outside_theorem_flagged():
    m = euclidean_model(3)
    tab = radiation_sweep(m, 2.0, [0.1], [0.0, 1.5], h=0.05)
    flags = {row[1]: row[6] for row in tab.rows}
    assert flags[1.5] is True and flags[0.0] is False
    # exploratory rows do not decide the verdict
    assert tab.verdict == "pass"


def test_hoelder_zero_separation_is_zero():
    # z = z': identical solves, difference identically zero
    m = free_model()
    grid = m.make_grid(64.0, 0.05)
    from endspec.radial import smooth_bump, weighted_norm
    from endspec.solver import resolve
    psi = smooth_bump(grid.nodes, 2.0, 3.0).astype(complex)
    a = resolve(m.operator(0.0, grid, 1.0 + 0.05j), psi, allow_unabsorbed=True)
    b = resolve(m.operator(0.0, grid, 1.0 + 0.05j), psi, allow_unabsorbed=True)
    assert weighted_norm(a.phi - b.phi, grid, -1.0) == 0.0


def test_hoelder_requires_s_above_half():
    with pytest.raises(ContractError):
        hoelder_estimate(free_model(), 1.0, 0.5)


def test_sommerfeld_zero_source():
    rep = sommerfeld_compare(free_model(), 2.0, psi=Bump(2.0, 3.0, amplitude=0.0),
                             h=0.02, window_r_max=32.0, gamma_top=8e-3)
    assert rep.disc_weighted == 0.0 and rep.disc_bstar == 0.0


def test_sommerfeld_symmetry_of_discrepancy():
    rep = sommerfeld_compare(free_model(), 2.0, h=0.02, window_r_max=32.0,
                             gamma_top=8e-3)
    # the discrepancy is a norm of the difference: symmetric by construction;
    # check it is reported small and positive for a genuine source
    assert 0.0 < rep.disc_weighted < 1e-3


def test_sommerfeld_incoming_differs():
    out = sommerfeld_compare(free_model(), 2.0, h=0.02, window_r_max=32.0,
                             gamma_top=8e-3)
    inc = sommerfeld_compare(free_model(), 2.0, h=0.02, window_r_max=32.0,
                             gamma_top=8e-3, sign=-1)
    assert inc.disc_weighted > 100.0 * out.disc_weighted


def test_besov_energy_uniform_constant():
    tab = besov_energy_check(free_model(), 2.0 + 0.1j, gammas=[0.1, 0.01, 0.001],
                             h=0.05)
    assert tab.verdict == "pass"
    assert tab.meta["constant_spread"] <= 2.0
    assert tab.meta["n"] == 0  # smallest workable n reported


def test_besov_energy_delta_contract():
    with pytest.raises(ContractError):
        besov_energy_check(free_model(), 2.0 + 0.1j, delta=5.0)


def test_besov_energy_zero_source():
    tab = besov_energy_check(free_model(), 2.0 + 0.1j, gammas=[0.1],
                             psi=Bump(2.0, 3.0, amplitude=0.0), h=0.05,
                             nus=(0, 1, 2))
    for row in tab.rows:
        assert row[3] == 0.0 and row[4] == 0.0


def test_sweep_csv_deterministic(tmp_path):
    tab1 = lap_sweep(free_model(), 1.0, [0.1, 0.01], h=0.05)
    tab2 = lap_sweep(free_model(), 1.0, [0.1, 0.01], h=0.05)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    tab1.to_csv(p1)
    tab2.to_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()

def test_radiation_beta_zero_shares_lap_columns():
    # at beta = 0 the source reference and the quadratic-form column agree
    # with the lap sweep within the difference of the two outer treatments
    m = euclidean_model(3)
    lap = lap_sweep(m, 2.0, [0.1], h=0.05)
    rad = radiation_sweep(m, 2.0, [0.1], [0.0], h=0.05)
    assert rad.rows[0][5] == pytest.approx(lap.rows[0][5], rel=1e-12)  # psi_B
    assert rad.rows[0][3] == pytest.approx(lap.rows[0][3], rel=2e-3)   # h-form


def test_verdict_rederivable_from_csv(tmp_path):
    # the lap verdict is a deterministic function of the exported rows
    tab = lap_sweep(free_model(), 1.0, [0.1, 0.01], h=0.05)
    path = tmp_path / "lap.csv"
    tab.to_csv(path)
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    rows = [l.split(",") for l in lines[1:]]
    rederived = "pass"
    for col in ("phi_bstar", "pr_phi_bstar", "h_form_sqrt", "h0_phi_bstar"):
        j = header.index(col)
        vals = [float(r[j]) for r in rows if r[header.index("unreliable")] == "false"]
        if max(vals) / min(vals) > float(tab.meta["bound_factor"]):
            rederived = "fail"
    assert rederived == tab.verdict


def test_hoelder_slope_matches_analytic_kernel():
    # the empirical exponent tracks the slope measured on the exact kernels
    # for the same probe set and Gamma ladder
    from endspec.experiments import probe_set
    from endspec.radial import uniform_grid, weighted_norm
    from oracles import free_resolvent
    tab = hoelder_estimate(free_model(), 1.0, 1.0, n_probes=2, h=0.05, seed=0)
    grid = uniform_grid(tab.meta["r_max"], 0.05)
    probes = probe_set(grid, 2, 0)
    diffs, seps = [], []
    for g, g2, _ in tab.rows:
        best = 0.0
        for p in probes:
            psi = p.values(grid)
            a = free_resolvent(grid, 1.0 + 1j * g, psi, p.b)
            b = free_resolvent(grid, 1.0 + 1j * g2, psi, p.b)
            best = max(best, weighted_norm(a - b, grid, -1.0)
                       / weighted_norm(psi, grid, 1.0))
        diffs.append(best)
        seps.append(g - g2)
    slope_analytic = float(np.polyfit(np.log(seps), np.log(diffs), 1)[0])
    assert tab.meta["epsilon_emp"] == pytest.approx(slope_analytic, abs=0.05)


@pytest.mark.parametrize("s", [1.0, 0.75])
def test_hoelder_probe_slices_match_full_grid_probes(s):
    # the probe difference from in-support slices and weights taken once is
    # bit-equal to the full-grid probes and weighted_norm of every call
    from endspec.experiments import _mode_operators, _probe_diff, _probe_sources, probe_set
    from endspec.radial import weighted_norm, weighted_norm_on
    from endspec.solver import resolve
    m = euclidean_model(3)
    grid = m.make_grid(256.0, 0.05)
    modes = m.modes(2.5)
    probes = probe_set(grid, 4, seed=5)
    z1, z2 = 1.0 + 0.064j, 1.0 + 0.032j
    ops = _mode_operators(m, grid, modes, z1)[0]
    got = _probe_diff(ops, modes, z1, z2, _probe_sources(probes, grid, s), grid,
                      weighted_norm_on(grid, -s))
    ref = 0.0
    for p in probes:
        psi = p.values(grid)
        num_sq = sum(mult * weighted_norm(
            resolve(ops[mu].shifted(z1), psi, allow_unabsorbed=True).phi
            - resolve(ops[mu].shifted(z2), psi, allow_unabsorbed=True).phi,
            grid, -s) ** 2 for mu, mult in modes)
        ref = max(ref, np.sqrt(num_sq) / weighted_norm(psi, grid, s))
    assert got == ref
