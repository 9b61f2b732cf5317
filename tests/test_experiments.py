import cmath
import dataclasses
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import endspec.closure
import endspec.experiments
from endspec.closure import far_field, frozen_from
from endspec.conditions import check_conditions
from endspec.errors import AbsorptionError, ConditioningError, ContractError
from endspec.experiments import (Bump, WeightSpec, _ratio_verdict, _shift_grid,
                                 besov_energy_check, hoelder_estimate, lap_sweep,
                                 probe_set, radiation_sweep, sommerfeld_compare)
from endspec.geometry import const_profile, geometric_split, geometry_at
from endspec.models import (Model, euclidean_model, exp_model, free_model,
                            hyperbolic_model, multiend_model, power_model,
                            square_well_model, stretched_exp_model)
from endspec.phase import phase_a, riccati_residual
from endspec.radial import (RadialGrid, l2_norm, smooth_bump, uniform_grid,
                            weighted_norm)
from endspec.solver import ABSORPTION, resolve


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


# a model whose grids have two nodes, the wall and R itself (h = R - 1), so
# the shift domain's doubling is seen at the ulp edges without a long grid
_TWO_NODE = SimpleNamespace(make_grid=lambda r_max, h: uniform_grid(r_max, r_max - 1.0))


def _shift_r_max(gamma, base=64.0):
    return _shift_grid(_TWO_NODE, gamma, 1.0, base=base).r_max


def test_shift_domain_guard():
    assert _shift_r_max(0.001) >= 1.0 + 8.0 / 0.001
    assert _shift_r_max(0.5, base=64.0) == 64.0
    # 1 + 8/Gamma lands a few ulp above 64 (128), where log2 still rounds to
    # 6 (7): the domain must double until the guard's own product admits it
    assert _shift_r_max(0.12698412698412695) == 128.0
    assert _shift_r_max(0.06299212598425195) == 256.0
    for k in range(7, 24):
        edge = ABSORPTION / (2.0**k - 1.0)
        for gamma in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1.0)):
            r_max = _shift_r_max(gamma)
            assert gamma * (r_max - 1.0) >= ABSORPTION
            assert gamma * (0.5 * r_max - 1.0) < ABSORPTION
    # the lap sweep then solves its smallest Gamma on an absorbing domain
    tab = lap_sweep(free_model(), 1.0, [0.12698412698412695, 0.5], h=0.05)
    assert tab.meta["r_max"] == 128.0 and not tab.rows[0][-1]
    # no doubling admits a Gamma <= 0
    for gamma in (0.0, -0.1, float("nan")):
        with pytest.raises(ContractError, match="Gamma > 0"):
            _shift_r_max(gamma)


def test_absorption_guard_is_live_on_the_sweeps(monkeypatch, experiment_solves):
    # a domain too short for Gamma = 0.01 (0.01 * 63 < 8) is refused at the
    # solve: the lap sweep used to flag the row, the Besov check to solve it
    monkeypatch.setattr(endspec.experiments, "_shift_grid",
                        lambda model, gamma_min, h, base=64.0: model.make_grid(64.0, h))
    n = free_model().make_grid(64.0, 0.05).n - 2
    with pytest.raises(AbsorptionError):
        lap_sweep(free_model(), 1.0, [0.01], h=0.05)
    with pytest.raises(AbsorptionError):
        besov_energy_check(free_model(), 2.0, gammas=[0.01], h=0.05,
                           nus=(0, 1, 2))
    assert experiment_solves == [(0.01, n, "dirichlet")] * 2


@pytest.mark.parametrize("call, ladder", [
    (lambda m: lap_sweep(m, 1.0, []), "Gamma"),
    (lambda m: radiation_sweep(m, 1.0, [0.1], []), "beta"),
    (lambda m: radiation_sweep(m, 1.0, [], [0.0]), "Gamma"),
    (lambda m: besov_energy_check(m, 2.0, gammas=[]), "Gamma"),
    (lambda m: besov_energy_check(m, 2.0, nus=()), "nu"),
], ids=["lap_gammas", "radiation_betas", "radiation_gammas",
        "besov_energy_gammas", "besov_energy_nus"])
def test_an_empty_ladder_is_refused_before_any_solve(call, ladder,
                                                     experiment_solves):
    with pytest.raises(ContractError, match=f"the {ladder} ladder is empty"):
        call(free_model())
    assert experiment_solves == []


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


def test_declared_threshold_closes_the_window_for_every_model():
    m = dataclasses.replace(free_model(), thresholds=(3.0,))
    with pytest.raises(ContractError, match="certified window"):
        lap_sweep(m, 3.5, [0.1], h=0.05)


def test_h_form_on_the_line_keeps_the_escape_curvature():
    # reference: the line density (max((1 - eta) r'', 0) + 2 C r^(-1-tau)) |u'|^2
    from endspec.experiments import _h_densities, _h_form, _mode_operators
    from endspec.phase import _central_derivative
    m = multiend_model()
    grid = m.make_grid(64.0, 0.05)
    modes = m.modes(6.5)
    pt = geometry_at(m.profile, grid.radii)
    ops = _mode_operators(m, grid, modes, complex(2.0, 0.1), (pt, m.potential.V(grid.nodes)))
    sols = {0.0: resolve(ops[0.0], Bump().normalized(grid), allow_unabsorbed=True).phi}
    rep = m.conditions()
    rr = grid.radii
    curv = np.maximum((1.0 - m.profile.cutoffs.eta(rr)) * m.line.coords(grid.nodes)[2], 0.0)
    assert np.any(curv > 0.0)
    du = _central_derivative(sols[0.0], grid.h)
    dens = (curv + 2.0 * rep.constant * rr ** (-1.0 - rep.tau)) * np.abs(du) ** 2
    densities = _h_densities(grid, pt, rep, sols, {0.0: du})
    got = _h_form(grid, densities, modes)
    assert got == float(np.sum(grid.weights * dens))


@pytest.fixture
def derivative_calls(monkeypatch):
    """The size of every central derivative taken, through either name."""
    import endspec.phase
    original = endspec.phase._central_derivative
    sizes = []

    def counted(values, h):
        sizes.append(values.size)
        return original(values, h)

    monkeypatch.setattr(endspec.phase, "_central_derivative", counted)
    monkeypatch.setattr(endspec.experiments, "_central_derivative", counted)
    return sizes


@pytest.mark.parametrize("experiment, n_gammas", [
    (lambda m: lap_sweep(m, 2.0, [0.1, 0.01], h=0.05), 2),
    (lambda m: radiation_sweep(m, 2.0, [0.1, 0.01], [0.0, 0.5, 1.0], h=0.05), 2),
    (lambda m: besov_energy_check(m, 2.0, h=0.05), 3),
    # only the outgoing solve is differentiated, once per mode
    (lambda m: sommerfeld_compare(m, 2.0, h=0.05, gamma_top=0.02,
                                  window_r_max=32.0, mode_cap=6.5), 1),
], ids=["lap", "radiation", "besov_energy", "sommerfeld"])
def test_each_solution_is_differentiated_once(derivative_calls, experiment,
                                              n_gammas):
    m = euclidean_model(3)
    experiment(m)
    assert len(derivative_calls) == n_gammas * len(m.modes(6.5)) == n_gammas * 3


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


def test_radiation_undecided_beta_makes_the_sweep_inconclusive(monkeypatch):
    # one beta whose ratio test cannot decide (no finite positive norm to
    # compare) leaves the sweep undecided, as in lap and the condition report;
    # the other betas' ratio tests run as they are
    ratio_verdict = endspec.experiments._ratio_verdict
    calls = []

    def first_undecided(values, *rest):
        calls.append(values)
        if len(calls) == 1:
            return "inconclusive", float("nan")
        return ratio_verdict(values, *rest)

    monkeypatch.setattr(endspec.experiments, "_ratio_verdict", first_undecided)
    tab = radiation_sweep(euclidean_model(3), 2.0, [0.1, 0.01], [0.0, 0.5], h=0.05)
    # beta = 0.5 is decided, and it passes
    assert len(calls) == 2 and tab.meta["ratio_beta_0.5"] <= 2.0
    assert tab.verdict == "inconclusive"



def test_ratio_verdict_without_a_positive_finite_value_is_undecided():
    verdict, ratio = _ratio_verdict([0.0, float("nan")])
    assert verdict == "inconclusive" and math.isnan(ratio)

@pytest.mark.xfail(strict=True, raises=ConditioningError,
                   reason="ROADMAP item 3: the incoming (sign=-1) outgoing-row solve "
                          "at Gamma = 0.1 misses the solver's residual tolerance "
                          "(1.95e-07 above 1e-08), so the wrong-sign control cannot "
                          "run over the decade the outgoing sweep uses.  On R = 256 "
                          "the incoming solution grows like e^{Im k (R - 1)}, "
                          "6.6e7 at Gamma = 0.1 (6.07 and 1.2 at 0.01 and 0.001; "
                          "growth ||phi||/||psi|| = 5.4e6, 50 and 17), and the "
                          "residual is relative to ||psi||, so its roundoff floor "
                          "grows with ||phi|| (1.9e-12 and 7.5e-13 at the lower "
                          "Gammas); the guard or the control must change")
def test_incoming_radiation_control_runs_at_the_top_gamma():
    radiation_sweep(free_model(), 1.0, [0.1], [0.0], h=0.05, sign=-1)


# --- the verdict matrix: checkers against the paper's model class -------------
# Each cell asserts the verdict the theorem predicts.  A cell that gives the
# wrong verdict today is a strict expected failure that names its defect, so
# a fix shows as an XPASS.

_SOMMERFELD = dict(h=0.02, window_r_max=32.0, gamma_top=0.004, tol=1e-3)


def _rellich(model, interval):
    # the CLI's rellich block at the demo grid (r_max = 64, h = 0.02)
    return model.scan(interval, 64.0, 0.02).verdict(model.lambda0())


def _defect(reason):
    return pytest.mark.xfail(strict=True, raises=AssertionError, reason=reason)


_CELLS = [
    pytest.param(
        lambda: radiation_sweep(power_model(1.0, 3), 1.0, [0.1, 0.01, 0.001], [0.0],
                                mode_cap=6.5).verdict,
        id="radiation-power1-d3-cap6.5",
        marks=_defect("ROADMAP item 3: rad_bstar saturates as Gamma falls (a "
                      "bounded quantity), yet the two-sided ratio test fails it "
                      "at ratio 2.316")),
    pytest.param(
        lambda: sommerfeld_compare(power_model(1.0, 3), 2.0, mode_cap=6.5,
                                   **_SOMMERFELD).verdict,
        id="sommerfeld-power1-d3-cap6.5",
        marks=_defect("ROADMAP item 6: the shared outgoing row leaves mu/(2f) out "
                      "of every mu > 0 mode (disc 3.87e-2 against tol 1e-3)")),
    pytest.param(
        lambda: sommerfeld_compare(euclidean_model(3), 2.0, mode_cap=6.5,
                                   **_SOMMERFELD).verdict,
        id="sommerfeld-euclidean-d3-cap6.5",
        marks=_defect("ROADMAP item 6: the shared outgoing row closes the mu > 0 "
                      "modes; disc 8.12e-4 is under tol, but the decay leg fails "
                      "(radiation_slope is None)")),
    pytest.param(
        lambda: sommerfeld_compare(power_model(1.0, 3), 2.0, mode_cap=0.5,
                                   **_SOMMERFELD).verdict,
        id="sommerfeld-power1-d3-cap0.5"),
    pytest.param(
        lambda: sommerfeld_compare(euclidean_model(3), 2.0, mode_cap=0.5,
                                   **_SOMMERFELD).verdict,
        id="sommerfeld-euclidean-d3-cap0.5"),
    pytest.param(lambda: _rellich(square_well_model(), (-5.0, 10.0)),
                 id="rellich-square-well"),
    pytest.param(lambda: _rellich(multiend_model(), (0.05, 6.0)),
                 id="rellich-multiend"),
]

# the presets of the paper's model class, and those with modes mu > 0
_PRESETS = {
    "euclidean-d2": lambda: euclidean_model(2),
    "euclidean-d3": lambda: euclidean_model(3),
    "power1-d3": lambda: power_model(1.0, 3),
    "exp1-d3": lambda: exp_model(1.0, 3),
    "stretchedexp-d3": lambda: stretched_exp_model(1.0, 0.5, 3),
    "hyperbolic-d3": lambda: hyperbolic_model(3),
    "square-well": square_well_model,
    "multiend": multiend_model,
}
_MULTI_MODE = ("euclidean-d2", "euclidean-d3", "power1-d3", "exp1-d3",
               "stretchedexp-d3", "hyperbolic-d3")


def _sweep(checker, preset, cap, **kw):
    # at lambda = lambda0 + 1; the library's default ladders and h = 0.05
    # unless ``kw`` sets them
    def verdict():
        model = _PRESETS[preset]()
        return checker(model, model.lambda0() + 1.0, mode_cap=cap, **kw).verdict
    return verdict


# largest lap ratio 1.54 and largest Besov constant spread 1.21 over these
_CELLS += [pytest.param(_sweep(checker, preset, cap), id=f"{kind}-{preset}-cap{cap:g}")
           for kind, checker in (("lap", lap_sweep), ("besov-energy", besov_energy_check))
           for preset in _PRESETS
           for cap in ((0.5, 6.5) if preset in _MULTI_MODE else (0.5,))]
_CELLS += [pytest.param(_sweep(radiation_sweep, preset, 0.5), id=f"radiation-{preset}-cap0.5")
           for preset in _PRESETS]
# largest ratios 1.982, 1.996, 1.74 and 1.691 (at beta = 0.5): inside the
# factor 2 only by margin
_CELLS += [pytest.param(_sweep(radiation_sweep, preset, 6.5), id=f"radiation-{preset}-cap6.5")
           for preset in ("euclidean-d2", "euclidean-d3", "exp1-d3", "hyperbolic-d3")]
_CELLS.append(pytest.param(
    _sweep(radiation_sweep, "stretchedexp-d3", 6.5), id="radiation-stretchedexp-d3-cap6.5",
    marks=_defect("ROADMAP item 3: the mu > 0 modes make rad_bstar rise towards a "
                  "finite limit as Gamma falls, which the two-sided ratio test "
                  "fails at ratio 2.167 (beta = 0) and 2.224 (beta = 0.5)")))


# eps_emp 0.44 .. 0.58 against the floor 1/3, at most 0.3 s a cell
_CELLS += [pytest.param(_sweep(hoelder_estimate, preset, cap, h=0.05, n_probes=4, n_pairs=3),
                        id=f"hoelder-{preset}-cap{cap:g}")
           for preset in _PRESETS
           for cap in ((0.5, 6.5) if preset in _MULTI_MODE else (0.5,))]
# disc 3.8e-5 .. 5.0e-5 against tol 1e-3
_CELLS += [pytest.param(_sweep(sommerfeld_compare, preset, 0.5, **_SOMMERFELD),
                        id=f"sommerfeld-{preset}-cap0.5")
           for preset in ("euclidean-d2", "exp1-d3", "stretchedexp-d3",
                          "hyperbolic-d3", "square-well", "multiend")]


@pytest.mark.parametrize("verdict_of", _CELLS)
def test_verdict_matrix_cell(verdict_of):
    assert verdict_of() == "pass"


# --- negative controls: inputs outside a theorem that its checker must fail ---

def _unweighted_l2_sweep():
    # the L^2 norm of R(1 + i Gamma) psi on the free end grows like
    # Gamma^(-1/2) (26.50, 8.37, 2.60), which is why the LAP is stated in B*
    m = free_model()
    grid = _shift_grid(m, 0.001, 0.05)
    psi = Bump().normalized(grid)
    op = m.operator(0.0, grid, complex(1.0, 0.001))
    norms = [l2_norm(resolve(op.shifted(complex(1.0, g)), psi).phi, grid)
             for g in (0.001, 0.01, 0.1)]
    return _ratio_verdict(norms)[0]


def _wigner_von_neumann_model():
    # von Neumann & Wigner (1929): -(1/2) u'' + V u = u / 2 has the L^2
    # solution sin s / (1 + g^2), s = r - 1, g = 2s - sin 2s, an eigenvalue
    # embedded in the continuous spectrum [0, oo) of a potential decaying
    # only like sin(2s) / s
    def v(r):
        s = np.asarray(r, dtype=float) - 1.0
        g = 2.0 * s - np.sin(2.0 * s)
        sn, cs = np.sin(s), np.cos(s)
        return -16.0 * sn * (g**3 * cs - 3.0 * g**2 * sn**3 + g * cs + sn**3) \
            / (1.0 + g**2) ** 2
    prof = const_profile(d=1)
    return Model(name="wigner_von_neumann", profile=prof,
                 potential=geometric_split(prof, V_short=v))


def _wigner_von_neumann_rellich():
    scan = _wigner_von_neumann_model().scan((0.3, 0.7), 64.0, 0.02)
    (entry,) = scan.embedded(0.0)
    assert entry.refined == pytest.approx(0.5, abs=1e-6) and entry.drift < 1e-8
    return scan.verdict(0.0)


def _wigner_von_neumann_lap(lam=0.5):
    # at the embedded eigenvalue 1/2 the resolvent blows up as Gamma -> 0:
    # phi_bstar grows 2.20, 20.6, 57.4 over Gamma = 0.1, 0.01, 0.001
    # (ratio 26.1)
    return lap_sweep(_wigner_von_neumann_model(), lam, mode_cap=0.5).verdict


@_defect("ROADMAP item 3: below the embedded eigenvalue phi_bstar saturates, "
         "1.97, 4.59, 4.69 (growth 0.010 over the last decade), but the "
         "two-sided ratio test fails it at 2.38")
def test_lap_passes_below_an_embedded_eigenvalue():
    assert _wigner_von_neumann_lap(0.45) == "pass"


def _wigner_von_neumann_conditions():
    m = _wigner_von_neumann_model()
    return check_conditions(m.profile, m.potential).overall()


def _inverse_square_radiation():
    # beta = 2.5 lies above the critical beta* = 2 of V = r^-2 on the half-line:
    # rad_bstar grows 1.31, 4.18, 11.98 as Gamma falls (ratio 9.15).  The
    # sweep's own verdict is inconclusive, since beta_c = 1 puts every row
    # outside the theorem, so the ratio test is read directly
    prof = const_profile(d=1)
    m = Model(name="inverse_square", profile=prof, potential=geometric_split(
        prof, V_short=lambda r: np.asarray(r, dtype=float) ** -2.0))
    table = radiation_sweep(m, 1.0, [0.1, 0.01, 0.001], [2.5], mode_cap=0.5)
    return _ratio_verdict(table.column("rad_bstar"))[0]


def _wrong_energy_riccati():
    # the phase of lambda + 0.1 read against lambda leaves a residual that
    # does not decay (about 2 x 0.1 at every radius); on the long-range end the
    # flat fit has R^2 0.663, so the verdict reads inconclusive.  On free the
    # same control already fails (R^2 = 1)
    m = power_model(1.0, 3)
    lam = m.lambda0() + 1.0
    grid = m.make_grid(256.0, 0.05)
    ph = phase_a(m.profile, m.potential, lam + 0.1, +1, grid, lambda0=m.lambda0())
    return riccati_residual(dataclasses.replace(ph, z=complex(lam)), m.potential).verdict


def _threshold_window(checker, lam):
    # a lambda on the declared threshold lambda1 = 4 of the two-ended line
    # lies outside the certified window: the checker refuses it
    def verdict():
        with pytest.raises(ContractError, match="sits on the declared threshold"):
            checker(multiend_model(), lam)
        return "fail"
    return verdict


@pytest.mark.parametrize("verdict_of", [
    pytest.param(_unweighted_l2_sweep, id="lap-unweighted-l2-free"),
    pytest.param(_inverse_square_radiation, id="radiation-beta-above-bstar"),
    *[pytest.param(_threshold_window(checker, lam), id=f"{checker.__name__}-threshold-{lam:g}")
      for checker in (lap_sweep, radiation_sweep, besov_energy_check,
                      hoelder_estimate, sommerfeld_compare)
      for lam in (3.99, 4.02)],
    pytest.param(_wigner_von_neumann_rellich, id="rellich-wigner-von-neumann"),
    pytest.param(_wigner_von_neumann_lap, id="lap-wigner-von-neumann-embedded"),
    pytest.param(_wigner_von_neumann_conditions, id="conditions-wigner-von-neumann",
                 marks=_defect("ROADMAP item 3: the oscillation biases the q2 and q22 "
                               "decay fits (exponent -0.866, R^2 0.114), so the "
                               "rows read inconclusive, not fail")),
    pytest.param(_wrong_energy_riccati, id="riccati-wrong-energy-power1-d3",
                 marks=_defect("ROADMAP item 3: a flat residual fits with R^2 "
                               "0.663 under FIT_R2_MIN (slope -2.05e-8), so the "
                               "verdict reads inconclusive, not fail")),
])
def test_negative_control(verdict_of):
    assert verdict_of() == "fail"


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
    tab = besov_energy_check(free_model(), 2.0, gammas=[0.1, 0.01, 0.001],
                             h=0.05)
    assert tab.verdict == "pass"
    assert tab.meta["constant_spread"] <= 2.0
    assert tab.meta["n"] == 0  # smallest workable n reported


def test_besov_energy_delta_contract():
    with pytest.raises(ContractError):
        besov_energy_check(free_model(), 2.0, delta=5.0)


def test_besov_energy_zero_source():
    tab = besov_energy_check(free_model(), 2.0, gammas=[0.1],
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


def _fars(ops, sources):
    """mu -> F (``frozen_from``) of each operator past J, the first node
    past every source: the per-mode F that ``_probe_diff`` is given."""
    junction = max(start + vals.size for start, vals, _ in sources)
    return {mu: frozen_from(op, junction) for mu, op in ops.items()}


@pytest.mark.parametrize("s", [1.0, 0.75])
def test_hoelder_probe_slices_match_full_grid_probes(s):
    # the probe difference from in-support slices, far and near solves and
    # weights taken once matches, to roundoff, a whole-grid solve of every
    # full-grid probe and weighted_norm of every difference
    from endspec.experiments import _mode_operators, _probe_diff, _probe_sources, probe_set
    from endspec.radial import norm_weights, weighted_norm
    m = euclidean_model(3)
    grid = m.make_grid(256.0, 0.05)
    modes = m.modes(2.5)
    probes = probe_set(grid, 4, seed=5)
    z1, z2 = 1.0 + 0.064j, 1.0 + 0.032j
    ops = _mode_operators(m, grid, modes, z1)
    sources = _probe_sources(probes, grid, s)
    # each probe is built and normed on its span alone: the values are the
    # whole-grid probe's bit for bit, the H_s norm to summation order
    for p, (start, vals, norm) in zip(probes, sources):
        whole = p.values(grid)
        assert _same_bits(vals, whole[start:start + vals.size])
        assert not np.any(np.delete(whole, np.s_[start:start + vals.size]))
        assert norm == pytest.approx(weighted_norm(whole, grid, s), rel=1e-15, abs=0.0)
    got = _probe_diff(ops, modes, z1, z2, sources, norm_weights(grid, -s),
                      _fars(ops, sources), s)
    ref = 0.0
    for p in probes:
        psi = p.values(grid)
        num_sq = sum(mult * weighted_norm(
            resolve(ops[mu].shifted(z1), psi, allow_unabsorbed=True).phi
            - resolve(ops[mu].shifted(z2), psi, allow_unabsorbed=True).phi,
            grid, -s) ** 2 for mu, mult in modes)
        ref = max(ref, np.sqrt(num_sq) / weighted_norm(psi, grid, s))
    assert got == pytest.approx(ref, rel=1e-12, abs=0.0)


# --- Hoelder pairs on trimmed prefix domains ---------------------------------------

# a ladder whose shared domain (R = 4096 at h = 0.05) is cheap but still trims
# its two top pairs
_LADDER = dict(s=1.0, gamma_top=0.256, n_pairs=4, n_probes=4, seed=0, h=0.05)


def _hoelder_cases():
    return {"free": (free_model(), 1.0, 0.5),
            "euclidean3": (euclidean_model(3), 1.0, 2.5),
            "hyperbolic3": (hyperbolic_model(3), 1.5, 0.5),
            "multiend": (multiend_model(), 1.0, 0.5)}


def _shared_domain_rows(model, lam, mode_cap, s, gamma_top, n_pairs, n_probes,
                        seed, h):
    """Every pair of the ladder solved on the one shared grid."""
    from endspec.experiments import (_mode_operators, _probe_diff, _probe_sources,
                                     probe_set)
    from endspec.radial import norm_weights
    gammas = [gamma_top * 0.25**j for j in range(n_pairs)]
    grid = _shift_grid(model, gammas[-1] / 2.0, h)
    modes = model.modes(mode_cap)
    sources = _probe_sources(probe_set(grid, n_probes, seed), grid, s)
    ops = _mode_operators(model, grid, modes, complex(lam, gammas[0]))
    weights, fars = norm_weights(grid, -s), _fars(ops, sources)
    rows = [[g, 0.5 * g, _probe_diff(ops, modes, complex(lam, g), complex(lam, 0.5 * g),
                                     sources, weights, fars, s)]
            for g in gammas]
    return rows, grid


def _max_rel_dev(table, rows):
    return max(abs(got[2] - ref[2]) / ref[2] for got, ref in zip(table.rows, rows))


@pytest.mark.parametrize("case", ["free", "euclidean3", "hyperbolic3", "multiend"])
def test_hoelder_trimmed_pairs_match_shared_domain(case, monkeypatch):
    from endspec.conditions import loglog_fit
    model, lam, cap = _hoelder_cases()[case]
    # the hyperbolic end has lambda0 = 1/2, so lambda = lambda0 + 1
    assert (model.lambda0() > 0.25) == (case == "hyperbolic3")
    assert len(model.modes(cap)) == (2 if case == "euclidean3" else 1)
    rows, grid = _shared_domain_rows(model, lam, cap, **_LADDER)
    table = hoelder_estimate(model, lam, mode_cap=cap, **_LADDER)
    assert _max_rel_dev(table, rows) <= 1e-12
    slope, _, r2 = loglog_fit([row[0] - row[1] for row in rows],
                              [row[2] for row in rows])
    assert table.meta["epsilon_emp"] == pytest.approx(slope, rel=1e-12)
    assert table.meta["r_squared"] == pytest.approx(r2, rel=1e-12)
    floor, slack = table.meta["predicted_floor"], table.meta["slack"]
    assert table.verdict == ("inconclusive" if r2 < 0.9
                             else "pass" if slope >= floor - slack else "fail")
    assert table.meta["r_max"] == grid.r_max
    assert (table.meta["lambda0"], table.meta["n_probes"], table.meta["seed"]) == \
        (model.lambda0(), 4, 0)
    # negative control: a wall that returns e^{-10} of the wave moves the values
    monkeypatch.setattr(endspec.experiments, "_ROUND_TRIP_DECAY", 10.0)
    short = hoelder_estimate(model, lam, mode_cap=cap, **_LADDER)
    assert _max_rel_dev(short, rows) > 1e-10


def _reach(r_from, lam, w_min, gamma, decay=39.0):
    """r_from + decay / (2 kappa), kappa = Im sqrt(2 (lambda + i Gamma - w_min))."""
    return r_from + decay / (2.0 * cmath.sqrt(2.0 * complex(lam - w_min, gamma)).imag)


def test_hoelder_top_pair_solves_a_prefix(monkeypatch):
    # each pair's far fields G run from J to the wall of the prefix whose
    # end is the first node at or beyond the reach of its slower wave
    # (Gamma/2) from the outermost probe, not a power of two: G is given on
    # J .. F and closed in form for the m nodes from F to that wall
    from endspec.experiments import _mode_operators, probe_set
    m = euclidean_model(3)
    modes = m.modes(2.5)
    fields = []

    def recording(op, junction, far):
        field = far_field(op, junction, far)
        assert junction + field.g.size - 1 + field.m == op.grid.n - 1
        fields.append((op.z.imag, junction + field.g.size - 1 + field.m))
        return field

    monkeypatch.setattr(endspec.experiments, "far_field", recording)
    table = hoelder_estimate(m, 1.0, mode_cap=2.5, **_LADDER)
    grid = m.make_grid(table.meta["r_max"], _LADDER["h"])
    shared = _mode_operators(m, grid, modes, 1.0 + 0.256j)
    r_src = max(p.b for p in probe_set(grid, _LADDER["n_probes"], _LADDER["seed"]))
    w_min = min(float(np.min(op.potential_diag[grid.nodes >= r_src]))
                for op in shared.values())
    expected, ends = [], []
    for g, _, _ in table.rows:
        end = min(int(np.searchsorted(grid.nodes, _reach(r_src, 1.0, w_min, 0.5 * g))),
                  grid.n - 1)
        ends.append(end)
        expected += [(g, end), (0.5 * g, end)] * len(modes)
    assert fields == expected
    # the top pair (first solved) trims, the bottom one needs the shared grid
    assert ends[0] < grid.n - 1 and ends[-1] == grid.n - 1
    for end in ends[:-1]:
        assert not math.log2(grid.nodes[end]).is_integer()


def _junction(model, table):
    """J, the first node past every probe's support on the table's grid."""
    grid = model.make_grid(table.meta["r_max"], table.meta["h"])
    probes = probe_set(grid, table.meta["n_probes"], table.meta["seed"])
    return min(max(p.span(grid).stop for p in probes), grid.n)


@pytest.mark.parametrize("case, cap", [("free", 0.5), ("euclidean3", 6.5)],
                         ids=["free", "euclidean3"])
def test_hoelder_pair_solves_the_far_field_once_per_mode_and_z(
        case, cap, experiment_solves, monkeypatch):
    # per pair: for each mode and z one far solve, for a unit source at J,
    # then per probe one solve of J unknowns at each z; every solve is
    # closed by an outgoing-kind row.  The far solve ends where the
    # potential diagonal freezes, at F: at J on the free end (J unknowns,
    # and G is the single value G_J); on euclidean d=3 it never freezes at
    # mu = 2 and 6, which solve to the last unknown of the pair's prefix and
    # leave m = 1 node, the wall, to the closed form.  F is found once per
    # mode on the shared grid, for both z; a pair scans its own prefix only
    # for a mode whose wall is at or before that F: never on the free end
    # (F = J), and for every mode of each trimmed pair on euclidean d=3,
    # whose tails do not freeze bitwise (F is the shared grid's last
    # unknown at mu = 2 and 6, and past every trimmed wall at mu = 0)
    model, lam, _ = _hoelder_cases()[case]
    sources, last_unknowns, closed, frozen = [], [], [], []
    recording = endspec.experiments.resolve

    def with_source(op, psi, **kwargs):
        sources.append(psi)
        return recording(op, psi, **kwargs)

    def with_last_unknown(op, junction, far):
        last_unknowns.append(op.n_unknowns)
        field = far_field(op, junction, far)
        closed.append((junction + field.g.size - 1, field.m, op.grid.n - 1))
        return field

    def counting(op, junction):
        frozen.append(op.grid.n)
        return frozen_from(op, junction)

    for module in (endspec.experiments, endspec.closure):
        monkeypatch.setattr(module, "resolve", with_source)
    monkeypatch.setattr(endspec.experiments, "far_field", with_last_unknown)
    monkeypatch.setattr(endspec.experiments, "frozen_from", counting)
    table = hoelder_estimate(model, lam, mode_cap=cap, **_LADDER)
    modes, n_probes = model.modes(cap), _LADDER["n_probes"]
    shared_n = model.make_grid(table.meta["r_max"], _LADDER["h"]).n
    pair_ns = [n + 2 for n in last_unknowns[::2 * len(modes)]]
    rescanned = [] if case == "free" else [n for n in pair_ns if n < shared_n]
    assert len(rescanned) == (0 if case == "free" else len(table.rows) - 1)
    assert frozen == [shared_n] * len(modes) + [n for n in rescanned for _ in modes]
    assert len(frozen) == (1 if case == "free" else 12)
    assert [mu for mu, _ in modes] == ([0.0] if case == "free" else [0.0, 2.0, 6.0])
    junction = _junction(model, table)
    per_pair = 2 * len(modes) * (1 + n_probes)
    assert len(experiment_solves) == len(sources) == len(table.rows) * per_pair
    assert len(last_unknowns) == 2 * len(modes) * len(table.rows)
    for k, (g, g2, _) in enumerate(table.rows):
        pair = slice(k * per_pair, (k + 1) * per_pair)
        far = [solve for solve, (start, vals) in zip(experiment_solves[pair], sources[pair])
               if start == junction and vals.tolist() == [1.0]]
        near = [solve for solve, (start, _) in zip(experiment_solves[pair], sources[pair])
                if start < junction]
        assert len(far) + len(near) == per_pair
        last = last_unknowns[2 * len(modes) * k]
        assert last > junction
        assert [(solve[0], solve[2]) for solve in far] == [(g, "outgoing"), (g2, "outgoing")] \
            * len(modes)
        ends = [solve[1] for solve in far[::2]]
        assert ends == [solve[1] for solve in far[1::2]]
        fields = closed[2 * len(modes) * k:2 * len(modes) * (k + 1)]
        assert [f for f, _, _ in fields] == [solve[1] for solve in far]
        assert all(f + tail == wall for f, tail, wall in fields)
        if case == "free":
            assert ends == [junction]
        else:
            # mu = 0 is 0 up to roundoff (q_geom = 0 on euclidean d=3), so
            # where its tail freezes is up to the rounding of each node
            assert junction <= ends[0] <= last and ends[1:] == [last, last]
            assert [tail for _, tail, _ in fields[2:]] == [1] * 4
        assert near == [(g, junction, "outgoing"), (g2, junction, "outgoing")] \
            * (len(modes) * n_probes)


@pytest.mark.parametrize("s", [0.75, 1.0, 2.0])
@pytest.mark.parametrize("case", ["free", "euclidean3", "hyperbolic3", "multiend"])
def test_hoelder_near_solve_and_far_field_compose_the_whole_solution(case, s, monkeypatch):
    # a probe's near solution on nodes <= J, continued by c G beyond J, is
    # the whole-grid solution: to roundoff in H_-s, and with the whole
    # operator's residual within RESIDUAL_TOL
    from endspec.closure import _near_operator
    from endspec.experiments import _mode_operators, _probe_diff, _probe_sources
    from endspec.radial import FIRST_UNKNOWN, norm_weights
    from endspec.solver import RESIDUAL_TOL
    model, lam, cap = _hoelder_cases()[case]
    grid = model.make_grid(256.0, 0.05)
    modes = model.modes(cap)
    sources = _probe_sources(probe_set(grid, 4, seed=5), grid, s)
    junction = max(start + vals.size for start, vals, _ in sources)
    weights = norm_weights(grid, -s)
    z1, z2 = complex(lam, 0.064), complex(lam, 0.032)
    ops = _mode_operators(model, grid, modes, z1)
    i0, n = FIRST_UNKNOWN, grid.n - 2
    for mu, _ in modes:
        for z in (z1, z2):
            op = ops[mu].shifted(z)
            field = far_field(op, junction, frozen_from(op, junction))
            near, tail = field.near, _whole_g(field)
            assert near.grid.n == junction + 1 and near.policy.kind == "outgoing"
            assert abs(tail[0] - 1.0) <= 1e-15 and tail.size == grid.n - junction
            for start, vals, _ in sources:
                u = resolve(near, (start, vals)).phi
                composed = np.concatenate([u[:junction], u[junction] * tail])
                whole = resolve(op, (start, vals), allow_unabsorbed=True).phi
                err = np.sqrt(weights @ np.abs(composed - whole) ** 2
                              / (weights @ np.abs(whole) ** 2))
                assert err <= 1e-12
                rhs = np.zeros(n, dtype=complex)
                rhs[start - i0:start - i0 + vals.size] = vals
                residual = np.linalg.norm(op.matvec(composed[i0:i0 + n]) - rhs)
                assert residual <= RESIDUAL_TOL * np.linalg.norm(rhs)
    # negative control: the near system closed by a Dirichlet wall past J
    # (rho = 0) instead of the far field's row moves the difference norm
    fars = _fars(ops, sources)
    got = _probe_diff(ops, modes, z1, z2, sources, weights, fars, s)

    def walled(op, junction, far):
        return dataclasses.replace(far_field(op, junction, far),
                                   near=_near_operator(op, junction, 0.0))

    monkeypatch.setattr(endspec.experiments, "far_field", walled)
    assert abs(_probe_diff(ops, modes, z1, z2, sources, weights, fars, s) / got - 1.0) > 1e-6


# --- the far field past the frozen tail ----------------------------------------

def _far_setting(model, lam, cap, s=1.0):
    """(grid, J, operators at lambda + 0.064i, weights of H_-s) on the
    R = 256, h = 0.05 grid with 4 probes of seed 5."""
    from endspec.experiments import _mode_operators, _probe_sources
    from endspec.radial import norm_weights
    grid = model.make_grid(256.0, 0.05)
    sources = _probe_sources(probe_set(grid, 4, seed=5), grid, s)
    junction = max(start + vals.size for start, vals, _ in sources)
    ops = _mode_operators(model, grid, model.modes(cap), complex(lam, 0.064))
    return grid, junction, ops, norm_weights(grid, -s)


def _whole_g(field):
    """G on J .. the wall from a far field's G on J .. F, log rho and m:
    G_{F+k} = G_F (rho^k - rho^{2m-k}) / (1 - rho^{2m}) for k = 0 .. m."""
    g, log_rho, m = field.g, field.log_rho, field.m
    k = np.arange(m + 1)
    tail = g[-1] * ((np.exp(k * log_rho) - np.exp((2 * m - k) * log_rho))
                    / -np.expm1(2 * m * log_rho))
    return np.concatenate([g[:-1], tail])


def _dirichlet_tail(op, junction):
    """G from op's whole Dirichlet solve for a unit source at J."""
    g = resolve(op, (junction, np.ones(1)), allow_unabsorbed=True).phi[junction:]
    return g / g[0]


def _rel_err(got, ref, weights):
    return float(np.sqrt(weights @ np.abs(got - ref) ** 2 / (weights @ np.abs(ref) ** 2)))


@pytest.mark.parametrize("case", ["free", "hyperbolic3", "exp1", "square-well", "multiend"])
def test_far_field_closed_form_matches_the_whole_prefix_solve(case, experiment_solves):
    # past the last node where the potential diagonal moves, G is written
    # in closed form; it matches the whole prefix's Dirichlet solve in
    # H_-s, and the one far solve is shorter than that prefix
    model, lam, cap = {"free": (free_model(), 1.0, 0.5),
                       "hyperbolic3": (hyperbolic_model(3), 1.5, 6.5),
                       "exp1": (exp_model(1.0, 3), None, 6.5),
                       "square-well": (square_well_model(), 1.0, 0.5),
                       "multiend": (multiend_model(), 1.0, 0.5)}[case]
    lam = model.lambda0() + 1.0 if lam is None else lam
    grid, junction, ops, weights = _far_setting(model, lam, cap)
    assert len(ops) == (3 if cap == 6.5 else 1)
    for op in ops.values():
        for z in (complex(lam, 0.064), complex(lam, 0.004)):
            shifted = op.shifted(z)
            g = _whole_g(far_field(shifted, junction, frozen_from(op, junction)))
            assert experiment_solves[-1][1] < grid.n - 2
            assert _rel_err(g, _dirichlet_tail(shifted, junction),
                            weights[junction:]) <= 1e-12


def test_far_field_without_the_wall_term_misses():
    # negative control: the endless root rho^k, without the wall's echo
    # rho^{2m-k}, is not the Dirichlet solution on the R = 256 grid
    grid, junction, ops, weights = _far_setting(free_model(), 1.0, 0.5)
    op = ops[0.0].shifted(1.0 + 0.032j)
    g = _whole_g(far_field(op, junction, frozen_from(op, junction)))
    u = 2.0 + 2.0 * grid.h ** 2 * (op.potential_diag[-1] - op.z)
    rho = min(np.roots([1.0, -u, 1.0]), key=abs)
    assert abs(rho) < 1.0
    endless = rho ** np.arange(grid.n - junction)
    ref, tail_weights = _dirichlet_tail(op, junction), weights[junction:]
    assert _rel_err(g, ref, tail_weights) <= 1e-12
    assert _rel_err(endless, ref, tail_weights) > 1e-9


@pytest.mark.parametrize("offset", [1, 1000, None], ids=["J+1", "J+1000", "last-unknown"])
def test_far_field_solves_up_to_a_moved_diagonal(offset, experiment_solves):
    # one potential-diagonal entry moved at K > J on the free end: the far
    # solve ends at K, and a probe's near solve continued by c G is still
    # the whole Dirichlet solution
    from endspec.experiments import _probe_sources
    grid, junction, ops, weights = _far_setting(free_model(), 1.0, 0.5)
    moved = grid.n - 2 if offset is None else junction + offset
    w = ops[0.0].potential_diag.copy()
    w[moved] += 0.125
    op = dataclasses.replace(ops[0.0], potential_diag=w).shifted(1.0 + 0.032j)
    field = far_field(op, junction, frozen_from(op, junction))
    near, g = field.near, _whole_g(field)
    assert experiment_solves == [(0.032, moved, "outgoing")]
    assert junction + field.g.size - 1 == moved and field.m == grid.n - 1 - moved
    assert _rel_err(g, _dirichlet_tail(op, junction), weights[junction:]) <= 1e-12
    for start, vals, _ in _probe_sources(probe_set(grid, 4, seed=5), grid, 1.0):
        u = resolve(near, (start, vals)).phi
        composed = np.concatenate([u[:junction], u[junction] * g])
        whole = resolve(op, (start, vals), allow_unabsorbed=True).phi
        assert _rel_err(composed, whole, weights) <= 1e-12


def test_far_field_refuses_a_real_z():
    # at real z above the threshold |rho| = 1, and 1 - rho^{2m} can vanish:
    # the old Dirichlet far solve refused Im z = 0, and so does the closed form
    _, junction, ops, _ = _far_setting(free_model(), 1.0, 0.5)
    with pytest.raises(ContractError, match="Im z"):
        far_field(ops[0.0].shifted(1.0), junction, junction)


@pytest.mark.parametrize("case", ["free", "hyperbolic3", "square-well", "multiend"])
def test_frozen_products_match_the_dirichlet_sums(case):
    # the H_-s products of two far fields past F, each four closed-form
    # sums, match node-by-node sums of the whole-prefix Dirichlet solutions;
    # negative control: the endless roots' terms alone, without the wall's
    # echo, miss
    from endspec.closure import _frozen_products, _tail_sums
    model, lam, cap = {"free": (free_model(), 1.0, 0.5),
                       "hyperbolic3": (hyperbolic_model(3), 1.5, 6.5),
                       "square-well": (square_well_model(), 1.0, 0.5),
                       "multiend": (multiend_model(), 1.0, 0.5)}[case]
    grid, junction, ops, weights = _far_setting(model, lam, cap)
    for op in ops.values():
        shifted = [op.shifted(complex(lam, g)) for g in (0.064, 0.032)]
        far = frozen_from(op, junction)
        field1, field2 = (far_field(o, junction, far) for o in shifted)
        (g1, l1, m), (g2, l2) = (field1.g, field1.log_rho, field1.m), (field2.g, field2.log_rho)
        assert far == junction + g1.size - 1 and field1.r_far == grid.radii[far]
        got = _frozen_products(field1, field2, 1.0)
        d1, d2 = (_dirichlet_tail(o, junction)[far - junction:-1] for o in shifted)
        w = weights[far:-1]
        ref = [np.sum(w * d1 * d1.conj()), np.sum(w * d1 * d2.conj()),
               np.sum(w * d2 * d2.conj())]
        assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref))
        if case == "free":
            a1, a2 = (g[-1] / -np.expm1(2 * m * lg) for g, lg in ((g1, l1), (g2, l2)))
            endless = [a * b.conjugate() * _tail_sums(grid.radii[far], grid.h, m, 1.0, [0.0],
                                                      [la + lb.conjugate()])[0]
                       for (a, la), (b, lb) in (((a1, l1), (a1, l1)), ((a1, l1), (a2, l2)),
                                                ((a2, l2), (a2, l2)))]
            assert np.max(np.abs(np.array(endless) - ref) / np.abs(ref)) > 1e-9


def _exact_exponent(x):
    """x rounded to a multiple of 2^-30: alpha + beta k is then exact in
    float64 for the k and alpha below, so each term of the reference sum is
    rounded once, and only the sum is compared."""
    return complex(round(x.real * 2**30), round(x.imag * 2**30)) / 2**30


def _log_root(lam, gamma, h):
    """log rho of the free end's frozen rows at z = lambda + i Gamma."""
    t = 2.0 * cmath.asinh(0.5 * cmath.sqrt(-2.0 * h * h * complex(lam, gamma)))
    return -t if t.real > 0.0 else t


@pytest.mark.parametrize("s", [0.6, 1.0, 2.0])
@pytest.mark.parametrize("r_far, h, m", [(1.2, 0.1, 300), (60.0, 0.02, 100),
                                          (60.0, 0.02, 10 * 187 + 53), (2.0, 0.05, 4099),
                                          (30.0, 0.02, 40000)],
                         ids=["B=1", "m<B", "m-not-a-multiple", "chunks", "long"])
def test_tail_sums_match_a_node_by_node_sum(r_far, h, m, s):
    # sum_{k<m} h (r_F + k h)^{-2s} e^{alpha + beta k} over blocks against
    # the node-by-node float64 sum, for the four kinds of term of a far
    # field product: decaying (rho conj(rho')), oscillating (rho / conj(rho),
    # |a| = 1), the wall-cross ratios rho' / conj(rho) and rho / conj(rho')
    # (|a| just above and below 1) and the wall term, which grows towards
    # the wall; B = floor(r_F / (16 h)) is 1, above m, 187 with m not a
    # multiple of it, and 2 over more blocks than one chunk holds
    from endspec.closure import _BLOCK_CHUNK, _tail_sums
    l1, l2 = _log_root(1.0, 0.064, h), _log_root(1.0, 0.032, h)
    terms = {"decay": (0.0, l1 + l2.conjugate()),
             "oscillating": (2 * m * l1.conjugate(), l1 - l1.conjugate()),
             "cross-up": (2 * m * l1, l2.conjugate() - l1),
             "cross-down": (2 * m * l2.conjugate(), l1 - l2.conjugate()),
             "wall": (2 * m * (l1 + l2.conjugate()), -(l1 + l2.conjugate()))}
    alphas, betas = zip(*[(_exact_exponent(a), _exact_exponent(b)) for a, b in terms.values()])
    assert abs(cmath.exp(betas[1])) == 1.0 and 1.0 < abs(cmath.exp(betas[2])) < 1.01
    got = _tail_sums(r_far, h, m, s, alphas, betas)
    block = max(1, int(r_far / (16.0 * h)))
    assert (block == 1) == (r_far < 16.0 * h)
    assert (m > _BLOCK_CHUNK * block) == (m == 4099)
    k = np.arange(m)
    for name, a, b, t in zip(terms, alphas, betas, got):
        each = h * (r_far + k * h) ** (-2.0 * s) * np.exp(a + b * k)
        ref = complex(math.fsum(each.real), math.fsum(each.imag))
        assert abs(t - ref) <= 1e-13 * abs(ref), name


def test_series_order_meets_its_bound():
    # P is the least order whose binomial remainder bound is <= 1e-16
    from endspec.closure import _series_order
    def bound(s, p):
        return abs(math.prod(-2.0 * s - j for j in range(p + 1)) / math.factorial(p + 1)) \
            * 15.0 ** -(p + 1) * (17.0 / 15.0) ** (2.0 * s)
    assert _series_order(1.0) == 14
    for s in (0.51, 0.6, 1.0, 2.0, 5.0):
        p = _series_order(s)
        assert bound(s, p) <= 1e-16 < bound(s, p - 1)
        # the series cut there is within the bound on both sides of x = 0
        x = np.array([-1.0 / 16.0, 1.0 / 16.0])
        series = sum(math.prod(-2.0 * s - j for j in range(q)) / math.factorial(q) * x**q
                     for q in range(p + 1))
        assert np.all(np.abs(series / (1.0 + x) ** (-2.0 * s) - 1.0) <= 1e-15)


def test_frozen_start_moves_past_a_curved_radius():
    # on the multiend line the potential diagonal is frozen from x = 1 on,
    # but r(x) bends until x = 2: F moves to the node after the last with
    # r' != 1, so that the radii from F on are r_F + k h; a closed form
    # summed from the last node in the bend misses the grid's own weights
    from endspec.closure import _tail_sums
    from endspec.experiments import _mode_operators
    model = multiend_model()
    grid = model.make_grid(256.0, 0.05)
    op = _mode_operators(model, grid, model.modes(0.5), 1.0 + 0.064j)[0.0]
    wall = grid.n - 1
    curved = int(np.flatnonzero(grid.dr[:wall] != 1.0)[-1])
    w = op.potential_diag
    frozen = int(np.flatnonzero(w[:wall] != w[wall])[-1])
    assert frozen + 1 < curved
    junction = frozen + 2
    assert frozen_from(op, junction) == curved + 1
    assert frozen_from(op, curved + 5) == curved + 5
    weights = np.full(wall, grid.h) * grid.radii[:wall] ** -2.0
    for start, expect in ((curved + 1, 1e-13), (curved, None)):
        m = wall - start
        got = _tail_sums(grid.radii[start], grid.h, m, 1.0, [0.0], [-1e-3])[0]
        ref = math.fsum(weights[start:] * np.exp(-1e-3 * np.arange(m)))
        if expect is None:
            assert abs(got / ref - 1.0) > 1e-9
        else:
            assert abs(got / ref - 1.0) <= expect


def test_hoelder_probe_diff_allocates_nothing_of_the_tail(experiment_solves):
    # criterion 7's top pair on the whole 819,151-node shared grid: the far
    # field is solved on J unknowns and summed past J in closed form, so the
    # traced peak stays below 2 MB, not the 13 MB of each tail-length G
    from endspec.experiments import _mode_operators, _probe_diff, _probe_sources
    from endspec.radial import norm_weights
    model = free_model()
    grid = _shift_grid(model, 0.064 * 0.25**3 / 2.0, 0.02)
    assert grid.n == 819151
    modes = model.modes(0.5)
    sources = _probe_sources(probe_set(grid, 8, 0), grid, 1.0)
    junction = max(start + vals.size for start, vals, _ in sources)
    ops = _mode_operators(model, grid, modes, 1.0 + 0.064j)
    assert frozen_from(ops[0.0], junction) == junction
    weights = norm_weights(grid.prefix(junction + 1), -1.0)[:junction]
    fars = {0.0: junction}
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        got = _probe_diff(ops, modes, 1.0 + 0.064j, 1.0 + 0.032j, sources, weights,
                          fars, 1.0)
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    assert got > 0.0
    assert max(solve[1] for solve in experiment_solves) == junction
    assert peak < 2e6


def test_hoelder_peak_memory_at_criterion_7():
    # one criterion-7 estimate, traced: the 819,151-node shared grid's nodes
    # and potential diagonal (6.6 MB each) and one assembly block's
    # geometry, 16.8 MB in all; a GeometryPoint of the whole grid, formed
    # for that one diagonal, took the peak to 59.0 MB
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        table = hoelder_estimate(free_model(), 1.0, 1.0, seed=0, h=0.02)
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    assert table.verdict == "pass"
    assert _shift_grid(free_model(), 0.064 * 0.25**3 / 2.0, 0.02).n == 819151
    assert peak < 25e6


def test_hoelder_refuses_a_grid_without_an_unknown_past_the_probes(experiment_solves):
    # J, the first node past every probe's support, and J + 1 must both be
    # unknowns: on a grid that ends at the outermost probe, or one or two
    # nodes past it, the difference is refused before any solve
    from endspec.experiments import _mode_operators, _probe_diff, _probe_sources
    from endspec.radial import norm_weights
    m = free_model()
    grid = m.make_grid(64.0, 0.05)
    sources = _probe_sources(probe_set(grid, 4, seed=0), grid, 1.0)
    junction = max(start + vals.size for start, vals, _ in sources)
    modes = m.modes(0.5)
    z1, z2 = 1.0 + 0.064j, 1.0 + 0.032j
    fars = _fars(_mode_operators(m, grid, modes, z1), sources)
    for n in (junction, junction + 1, junction + 2, junction + 3):
        grid_p = grid.prefix(n)
        ops = _mode_operators(m, grid_p, modes, z1)
        args = (ops, modes, z1, z2, sources, norm_weights(grid_p, -1.0), fars, 1.0)
        if n < junction + 3:
            with pytest.raises(ContractError, match="past node"):
                _probe_diff(*args)
            assert experiment_solves == []
        else:
            assert _probe_diff(*args) > 0.0


def _reach_cases():
    return {"free": free_model(), "euclidean3": euclidean_model(3),
            "multiend": multiend_model()}


def _same_bits(a, b):
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("case", ["free", "euclidean3", "multiend"])
def test_reach_prefix_ends_at_the_reach_node(case, monkeypatch):
    from endspec.experiments import _mode_operators, _reach_prefix
    model = _reach_cases()[case]
    lam, r_from = 1.0, 5.0
    grid = model.make_grid(1024.0, 0.05)
    modes = model.modes(2.5)
    assert len(modes) == (2 if case == "euclidean3" else 1)
    ops = _mode_operators(model, grid, modes, complex(lam, 0.1))
    prefix = _reach_prefix(grid, ops, modes, lam, r_from)
    w_min = min(float(np.min(op.potential_diag[grid.nodes >= r_from]))
                for op in ops.values())
    for gamma in (0.2, 0.05):
        reach = _reach(r_from, lam, w_min, gamma)
        ops_p = prefix(gamma)
        grid_p = ops_p[modes[0][0]].grid
        end = grid_p.n - 1
        assert end < grid.n - 1
        assert grid.nodes[end - 1] < reach <= grid.nodes[end]
        built = model.make_grid(grid.nodes[end], grid.h)
        for name in ("nodes", "radii", "dr", "d2r", "nu"):
            assert _same_bits(getattr(grid_p, name), getattr(grid, name)[:end + 1])
            assert _same_bits(getattr(grid_p, name), getattr(built, name))
        assert _same_bits(grid_p.weights, built.weights)
        assert grid_p.partial_outer == built.partial_outer
        assert ops_p.keys() == ops.keys()
        for mu, op in ops_p.items():
            whole = ops[mu]
            assert op.grid is grid_p
            assert (op.mu, op.z, op.policy) == (whole.mu, whole.z, whole.policy)
            assert np.shares_memory(op.potential_diag, whole.potential_diag)
            assert _same_bits(op.potential_diag, whole.potential_diag[:end + 1])
    # a reach past the last node, or a wall that never echoes, keeps the
    # whole domain: the input grid and operators themselves
    assert _reach(r_from, lam, w_min, 0.01) > grid.nodes[-1]
    ops_p = prefix(0.01)
    assert ops_p is ops and ops_p[modes[0][0]].grid is grid
    monkeypatch.setattr(endspec.experiments, "_ROUND_TRIP_DECAY", np.inf)
    ops_p = prefix(0.2)
    assert ops_p is ops and ops_p[modes[0][0]].grid is grid


@pytest.mark.parametrize("kw, message", [
    ({"n_pairs": 1}, "n_pairs"), ({"n_pairs": 0}, "n_pairs"),
    ({"n_probes": 0}, "n_probes")])
def test_hoelder_refuses_ladders_that_fit_nothing(kw, message):
    # one pair is a one-point fit (R^2 = 1), no probe a NaN exponent, no pair
    # an IndexError: each is refused before any solve
    with pytest.raises(ContractError, match=message):
        hoelder_estimate(free_model(), 1.0, 1.0, gamma_top=0.256, h=0.05, **kw)


def test_hoelder_refuses_a_negative_seed(experiment_solves):
    # numpy's default_rng raised a ValueError, not a ContractError
    with pytest.raises(ContractError, match="seed must be >= 0"):
        hoelder_estimate(free_model(), 1.0, 1.0, gamma_top=0.256, h=0.05, seed=-1)
    assert experiment_solves == []


@pytest.mark.parametrize("grid_of", [
    lambda: uniform_grid(64.0, 0.02),               # dyadic: one node opens nu = 6
    lambda: uniform_grid(100.0, 0.03),              # non-dyadic
    lambda: uniform_grid(8.0, 0.05),                # fewer annuli than probes
    lambda: multiend_model().make_grid(40.0, 0.05),  # the line
], ids=["dyadic", "non-dyadic", "short", "line"])
@pytest.mark.parametrize("n_probes, seed", [(8, 0), (3, 17)])
def test_probe_set_reads_the_top_annulus_from_the_last_radius(
        monkeypatch, grid_of, n_probes, seed):
    grid = grid_of()
    probes = probe_set(grid, n_probes, seed)
    assert "nu" not in vars(grid)
    top = grid.top_annulus
    # the rule it replaces: the largest entry of the whole annulus map
    monkeypatch.setattr(RadialGrid, "top_annulus",
                        property(lambda g: int(np.max(g.nu))))
    assert probe_set(grid, n_probes, seed) == probes
    assert "nu" in vars(grid) and top == int(np.max(grid.nu))


@pytest.mark.parametrize("a, b", [(3.0, 3.0), (3.0, 2.0), (math.nan, 3.0)])
def test_bump_refuses_an_empty_support(a, b):
    with pytest.raises(ContractError, match="a < b"):
        Bump(a, b)


# --- probes on their span, the extrapolation on the window ------------------------

def _bump_grids():
    return {"uniform": uniform_grid(64.0, 0.02),
            "line": multiend_model().make_grid(64.0, 0.02)}


@pytest.mark.parametrize("grid_name", ["uniform", "line"])
@pytest.mark.parametrize("a, b", [
    (2.0, 3.0), (2.013, 2.987),          # inside, on and between nodes
    (1.0, 1.5), (0.5, 1.7), (-30.0, -20.0), (-3.0, 2.0),   # the left edge
    (63.5, 64.0), (60.0, 70.0),          # the right edge
    (-9.0, -8.0), (70.0, 80.0), (-80.0, -70.0)])   # off the grid (or not)
@pytest.mark.parametrize("amplitude", [1.0, 2.5])
def test_bump_values_match_full_grid_formula(grid_name, a, b, amplitude):
    grid = _bump_grids()[grid_name]
    bump = Bump(a, b, amplitude)
    ref = np.asarray(amplitude * smooth_bump(grid.nodes, a, b), dtype=complex)
    got = bump.values(grid)
    assert got.dtype == complex and got.shape == (grid.n,)
    assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))
    span = bump.span(grid)
    assert not np.any(ref[:span.start]) and not np.any(ref[span.stop:])
    assert ref[span].size > 0


def test_richardson_windows_match_full_solves():
    from endspec.experiments import _mode_operators, _richardson_gamma
    m = euclidean_model(3)
    modes = m.modes(2.5)
    assert len(modes) == 2
    grid, grid_w = m.make_grid(512.0, 0.05), m.make_grid(32.0, 0.05)
    psi = Bump().normalized(grid)
    span = Bump().span(grid)
    lam, gamma_top = 2.0, 0.064
    ops = _mode_operators(m, grid, modes, complex(lam, gamma_top))
    extrap, gaps = _richardson_gamma(grid, ops, lam, gamma_top, (span.start, psi[span]),
                                     modes, grid_w)
    n_w = grid_w.n
    for (mu, _), (gap1, gap2) in zip(modes, gaps):
        full = [resolve(m.operator(mu, grid, complex(lam, gamma_top * f)), psi,
                        allow_unabsorbed=True).phi for f in (1.0, 0.5, 0.25)]
        ref = 2.0 * full[2] - full[1]
        assert extrap[mu].shape == (n_w,)
        assert np.array_equal(extrap[mu].view(np.uint64), ref[:n_w].view(np.uint64))
        assert gap1 == weighted_norm(full[1][:n_w] - full[0][:n_w], grid_w, -1.0)
        assert gap2 == weighted_norm(full[2][:n_w] - full[1][:n_w], grid_w, -1.0)


def test_richardson_peak_memory_in_grid_vectors(monkeypatch):
    # peak traced allocation of _richardson_gamma above its entry, in
    # complex vectors of the long grid (81,901 nodes here): one solve's
    # diagonals and solution (4), not every shift's solution, a full-grid
    # source or a prefix grid's nodes (the operators, with their potential
    # diagonals, are built by the caller and passed in)
    original = endspec.experiments._richardson_gamma
    peaks = []

    def measured(grid, *args):
        tracemalloc.reset_peak()
        entry = tracemalloc.get_traced_memory()[0]
        out = original(grid, *args)
        peaks.append((tracemalloc.get_traced_memory()[1] - entry) / (16.0 * grid.n))
        return out

    monkeypatch.setattr(endspec.experiments, "_richardson_gamma", measured)
    tracemalloc.start()
    try:
        sommerfeld_compare(free_model(), 2.0, h=0.05, gamma_top=2e-2)
    finally:
        tracemalloc.stop()
    assert len(peaks) == 1
    assert peaks[0] <= 5.0


def test_sommerfeld_peak_memory_in_grid_vectors():
    # the whole call, in complex vectors of the long grid: its nodes and
    # potential diagonal (1/2 each) and one shift solve's diagonals and
    # solution (4), plus the window's arrays; the long grid's weights, its
    # annulus map or a prefix's nodes would each add 1/2, a full-grid source 1
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        rep = sommerfeld_compare(free_model(), 2.0, h=0.05, gamma_top=2e-2)
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    n = free_model().make_grid(rep.meta["r_big"], 0.05).n
    assert n == 81901
    assert peak / (16.0 * n) <= 5.5


def test_sommerfeld_long_grid_holds_only_its_nodes(monkeypatch):
    # the long grid's quadrature weights and annulus map are built on first
    # read and kept in the instance (see the lazy-field test of the grid):
    # the shift solves never read them
    original = endspec.experiments._richardson_gamma
    grids = []

    def recording(grid, *args):
        grids.append(grid)
        assert "weights" not in vars(grid) and "nu" not in vars(grid)
        out = original(grid, *args)
        assert "weights" not in vars(grid) and "nu" not in vars(grid)
        return out

    monkeypatch.setattr(endspec.experiments, "_richardson_gamma", recording)
    sommerfeld_compare(free_model(), 2.0, h=0.05, gamma_top=2e-2)
    assert len(grids) == 1 and grids[0].n == 81901


def test_sommerfeld_shift_solves_take_the_window_source(monkeypatch):
    # the window grid is the long grid's first nodes: the long grid is built
    # once, and every solve takes the outgoing solve's source, the shift
    # solves as its span on the window (views of the same values)
    model = free_model()
    built, sources = [], []
    make_grid = type(model).make_grid

    def counting(self, r_max, h):
        built.append(r_max)
        return make_grid(self, r_max, h)

    def recording(op, psi, **kwargs):
        sources.append(psi)
        return resolve(op, psi, **kwargs)

    monkeypatch.setattr(type(model), "make_grid", counting)
    monkeypatch.setattr(endspec.experiments, "resolve", recording)
    rep = sommerfeld_compare(model, 2.0, h=0.05, gamma_top=2e-2)
    assert built == [64.0, rep.meta["r_big"]]
    out, *shifts = sources
    assert isinstance(out, np.ndarray) and len(shifts) == 3
    span = Bump().span(make_grid(model, 64.0, 0.05))
    for start, vals in shifts:
        assert start == span.start and np.shares_memory(vals, out)
        assert np.array_equal(vals.view(np.uint64), out[span].view(np.uint64))


@pytest.mark.parametrize("b", [16.5, 40.0])
def test_sommerfeld_refuses_a_source_past_the_window(b):
    # the shift solves take the source on the window, so its support must
    # end there; the solves would otherwise see different sources
    with pytest.raises(ContractError, match="must end inside the window"):
        sommerfeld_compare(free_model(), 2.0, psi=Bump(2.0, b), h=0.05,
                           window_r_max=16.0, gamma_top=0.032)


def _edge_cases():
    # (model, lambda, h, Gamma, the dyadic R = 2^ceil(log2(1 + 8 / Gamma))):
    # R = 128 at h = 0.03 ends at 127.99, R = 1024 at h = 0.07 at 1023.98,
    # and the line from x = -24 at h = 0.07 at 127.97
    return {"h0.03": (free_model(), 1.0, 0.03, 0.062995, 128.0),
            "h0.07": (free_model(), 1.0, 0.07, 8.0 / 1022.99, 1024.0),
            "line": (multiend_model(), 2.0, 0.07, 0.063, 128.0)}


@pytest.mark.parametrize("case", sorted(_edge_cases()))
def test_shift_domain_is_sized_by_the_grids_last_node(case):
    # the absorption guard reads the grid's last node, which falls short of
    # the requested R when h does not divide R minus the first node: the
    # sweeps double R until that node admits the smallest Gamma
    model, lam, h, gamma, r_req = _edge_cases()[case]
    assert r_req == _shift_r_max(gamma)
    short = model.make_grid(r_req, h).r_max
    assert short < r_req
    assert gamma * (short - 1.0) < ABSORPTION <= gamma * (r_req - 1.0)
    for tab in (lap_sweep(model, lam, [gamma, 0.5], h=h, mode_cap=0.5),
                besov_energy_check(model, lam, gammas=[gamma, 0.5],
                                   h=h, mode_cap=0.5, nus=(0, 1, 2))):
        assert tab.meta["r_max"] == model.make_grid(2.0 * r_req, h).r_max
        assert gamma * (tab.meta["r_max"] - 1.0) >= ABSORPTION


# --- Sommerfeld shift solves on the prefix their wave reaches ----------------------

# r_big = 8192 at h = 0.05; the top shift's wave dies out well inside it
_TRIMMED_SOMMERFELD = dict(h=0.05, window_r_max=32.0, gamma_top=8e-3)


def _sommerfeld_cases():
    # hyperbolic d = 3 has lambda0 = 1/2, so lambda = lambda0 + 1
    return {"free": (free_model(), 2.0), "euclidean3": (euclidean_model(3), 2.0),
            "hyperbolic3": (hyperbolic_model(3), 1.5)}


def _gaps(rep):
    return np.array(rep.extrapolation_gaps)


def _shift_solves(solves):
    return [(g, n) for g, n, kind in solves if kind == "dirichlet"]


@pytest.mark.parametrize("case", ["free", "euclidean3", "hyperbolic3"])
def test_sommerfeld_trimmed_shifts_match_whole_domain(case, monkeypatch,
                                                      experiment_solves):
    model, lam = _sommerfeld_cases()[case]
    got = sommerfeld_compare(model, lam, **_TRIMMED_SOMMERFELD)
    n_big = model.make_grid(got.meta["r_big"], _TRIMMED_SOMMERFELD["h"]).n - 2
    shifts = _shift_solves(experiment_solves)
    assert [g for g, _ in shifts] == [8e-3, 4e-3, 2e-3]
    assert shifts[0][1] < n_big
    # the whole-domain reference: no reach ends inside the long grid
    experiment_solves.clear()
    monkeypatch.setattr(endspec.experiments, "_ROUND_TRIP_DECAY", np.inf)
    full = sommerfeld_compare(model, lam, **_TRIMMED_SOMMERFELD)
    assert [n for _, n in _shift_solves(experiment_solves)] == [n_big] * 3
    for name in ("disc_weighted", "disc_bstar", "rel_weighted", "verdict"):
        assert getattr(got, name) == getattr(full, name)
    # a gap is the difference of two shift solutions ~1e-3 of their size
    # apart, so the ulp-level roundings that the e^{-39} echo flips in the
    # trimmed solve show in it ~1e3 times larger: 1.9e-12 on euclidean3.
    # This bound resolves decay constants up to ~25 (2e-10 .. 1.2e-9 there);
    # at 30 the echo (1.3e-12 .. 5.7e-12) already hides under it, so the test
    # pins that the rule trims with some margin, not the value 39 itself
    assert np.max(np.abs(_gaps(got) / _gaps(full) - 1.0)) <= 1e-11
    # negative controls: a wall that returns e^{-25} or e^{-10} of the wave
    # moves the gaps past the bound
    for decay, moved in ((25.0, 1e-11), (10.0, 1e-10)):
        monkeypatch.setattr(endspec.experiments, "_ROUND_TRIP_DECAY", decay)
        short = sommerfeld_compare(model, lam, **_TRIMMED_SOMMERFELD)
        assert np.max(np.abs(_gaps(short) / _gaps(full) - 1.0)) > moved


@pytest.mark.parametrize("experiment", [
    lambda g: sommerfeld_compare(free_model(), 2.0, h=0.05, window_r_max=32.0,
                                 gamma_top=g),
    lambda g: hoelder_estimate(free_model(), 1.0, 1.0, gamma_top=g, h=0.05)],
    ids=["sommerfeld", "hoelder"])
@pytest.mark.parametrize("gamma_top", [0.0, -2e-3])
def test_non_positive_gamma_top_is_refused(experiment, gamma_top):
    # zero used to end in a ZeroDivisionError, a negative Gamma in a math
    # domain error (Hoelder) or in incoming shift solves on an unabsorbing
    # domain reported as a failed comparison (Sommerfeld)
    with pytest.raises(ContractError, match="gamma_top must be positive"):
        experiment(gamma_top)
