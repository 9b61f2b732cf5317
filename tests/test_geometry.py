import numpy as np
import pytest

from endspec.cutoffs import CutoffSpec
from endspec.errors import ContractError, EvaluationError
from endspec.geometry import (PotentialSplit, WarpProfile, const_profile,
                              critical_energy, exp_profile, geometric_split,
                              geometry_at, hyperbolic_profile, power_profile,
                              q_geom_chain, stretched_exp_profile,
                              tabulated_profile)

_ZERO = lambda r: np.zeros_like(np.asarray(r, float))


def test_warped_formulas_euclidean():
    prof = power_profile(2.0, 3)
    pt = geometry_at(prof, 10.0)
    assert pt.delta_r == pytest.approx(0.2, abs=1e-14)
    assert pt.ell_coeff == pytest.approx(0.1, abs=1e-14)
    assert pt.q_geom == pytest.approx(0.0, abs=1e-15)


def test_warped_formulas_exponential():
    prof = exp_profile(2.0, 2)
    pt = geometry_at(prof, 5.0)
    assert pt.delta_r == pytest.approx(1.0, abs=1e-14)
    assert pt.q_geom == pytest.approx(0.125, abs=1e-14)


def test_constant_warp_trivial():
    prof = const_profile(d=4)
    pt = geometry_at(prof, np.array([3.0, 7.0]))
    np.testing.assert_allclose(pt.delta_r, 0.0)
    np.testing.assert_allclose(pt.q_geom, 0.0)


def test_mean_curvature_formula_region():
    # Delta r = (d-1) f'/(2 f) wherever eta = 1, against closed-form f'/f:
    # theta/r for f = r^theta, 2 coth r for f = sinh^2 r
    for prof, w_of_r in ((power_profile(1.5, 3), lambda r: 1.5 / r),
                         (hyperbolic_profile(2), lambda r: 2.0 / np.tanh(r))):
        r = np.linspace(prof.r0, 50.0, 300)
        pt = geometry_at(prof, r)
        np.testing.assert_allclose(pt.delta_r, 0.5 * (prof.d - 1) * w_of_r(r),
                                   rtol=1e-12)


def test_q_geom_matches_closed_form_chain():
    # geometry_at and q_geom_chain build q_geom by two different groupings of
    # the same terms; they agree to rounding on [1, 64], cutoff band included
    rt = np.linspace(1.0, 100.0, 4000)
    profiles = (power_profile(1.0, 3), power_profile(2.0, 4),
                exp_profile(1.0, 3, lower_c=0.5, lower_theta=0.5),
                stretched_exp_profile(1.0, 0.5, 3), hyperbolic_profile(3),
                const_profile(d=3), tabulated_profile(rt, rt**1.5, d=3))
    r = np.linspace(1.0, 64.0, 6301)
    for prof in profiles:
        q = geometry_at(prof, r).q_geom
        q_chain = q_geom_chain(prof, r)[0]
        assert np.all(np.abs(q - q_chain) <= 1e-13 * (1.0 + np.abs(q)))


def test_geometry_error_names_radius():
    bad = WarpProfile(d=2, f=lambda r: np.where(np.asarray(r) > 5.0, -1.0, 1.0),
                      log_chain=lambda r: (np.zeros_like(np.asarray(r, float)),) * 4)
    with pytest.raises(EvaluationError):
        geometry_at(bad, np.array([2.0, 6.0]))
    with pytest.raises(ContractError):
        geometry_at(power_profile(2.0, 2), 0.5)
    # a NaN radius does not hide one below 1
    with pytest.raises(ContractError):
        geometry_at(power_profile(2.0, 2), np.array([np.nan, 3.0, 0.5]))


@pytest.mark.parametrize("log", [False, True], ids=["f", "log_f"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -1.0])
def test_warp_refusal_names_the_first_bad_radius(log, bad):
    # f must be finite and positive, ln f finite: a refusal names the first
    # radius where it is not (here 6.0, of 6.0 and 7.0)
    chain = lambda r: (np.zeros_like(np.asarray(r, float)),) * 4
    values = lambda r: np.where((np.asarray(r) > 5.0) & (np.asarray(r) < 8.0), bad, 1.0)
    prof = WarpProfile(d=2, log_chain=chain, **{"log_f" if log else "f": values})
    r = np.array([1.5, 2.5, 6.0, 7.0, 9.0])
    if log and np.isfinite(bad):
        assert np.all(np.isfinite(geometry_at(prof, r).q_geom))
    else:
        with pytest.raises(EvaluationError, match=r"not finite/positive at r=\S*6\.0"):
            geometry_at(prof, r)
    # no radius, nothing to refuse
    assert geometry_at(prof, np.array([])).q_geom.shape == (0,)


def test_warp_profile_needs_exactly_one_of_f_and_log_f():
    chain = lambda r: (np.zeros_like(np.asarray(r, float)),) * 4
    one = lambda r: np.ones_like(np.asarray(r, float))
    zero = lambda r: np.zeros_like(np.asarray(r, float))
    with pytest.raises(ContractError):
        WarpProfile(d=2, log_chain=chain)
    with pytest.raises(ContractError):
        WarpProfile(d=2, log_chain=chain, f=one, log_f=zero)
    # the built-in log-domain warps carry ln f alone
    for prof in (exp_profile(1.0, 2), stretched_exp_profile(1.0, 0.5, 2),
                 hyperbolic_profile(2)):
        assert prof.f is None and prof.log_f is not None


def _effective_potential(profile, split, r):
    """q = V + q_geom, the potential the operators are built from."""
    return np.asarray(split.V(r), dtype=float) + geometry_at(profile, r).q_geom


def test_effective_potential_examples():
    # f = r^2, d = 3: q identically 0 beyond r0
    m3 = power_profile(2.0, 3)
    q = _effective_potential(m3, geometric_split(m3), np.array([2.5, 10.0, 100.0]))
    np.testing.assert_allclose(q, 0.0, atol=1e-15)
    # f = r^2, d = 2: q = -1/(8 r^2)
    m2 = power_profile(2.0, 2)
    r = np.array([3.0, 10.0, 64.0])
    q = _effective_potential(m2, geometric_split(m2), r)
    np.testing.assert_allclose(q, -1.0 / (8.0 * r**2), rtol=1e-12)


def test_effective_potential_constant_shift():
    # a constant long-range part shifts V + q_geom and q1 alike
    prof = power_profile(2.0, 2)
    c = 0.7
    base = geometric_split(prof)
    shifted = geometric_split(prof, V_long=lambda r: np.full_like(np.asarray(r, float), c),
                              dV_long=_ZERO, d2V_long=_ZERO)
    r = np.linspace(1.0, 30.0, 50)
    np.testing.assert_allclose(_effective_potential(prof, shifted, r),
                               _effective_potential(prof, base, r) + c, rtol=1e-12)
    np.testing.assert_allclose(shifted.q1(r), np.asarray(base.q1(r)) + c, rtol=1e-12)


def test_long_range_part_needs_its_derivatives():
    # V_long = 1/r without its derivatives would leave dq1 and d2q11 at the
    # geometric part alone; the split refuses it, and with them dq1 gains
    # -1/r^2 (-0.01 at r = 10)
    prof = power_profile(2.0, 2)
    inv = lambda r: 1.0 / np.asarray(r, float)
    for partial in ({}, {"dV_long": lambda r: -inv(r)**2}):
        with pytest.raises(ContractError, match="dV_long and d2V_long"):
            geometric_split(prof, V_long=inv, **partial)
    with pytest.raises(ContractError):
        geometric_split(prof, dV_long=_ZERO, d2V_long=_ZERO)
    full = geometric_split(prof, V_long=inv, dV_long=lambda r: -inv(r)**2,
                           d2V_long=lambda r: 2.0 * inv(r)**3)
    base = geometric_split(prof)
    r = np.array([10.0])
    np.testing.assert_allclose(full.dq1(r) - base.dq1(r), -0.01, rtol=1e-12)
    np.testing.assert_allclose(full.d2q11(r) - base.d2q11(r), 0.002, rtol=1e-12)


def test_split_consistency_tolerance():
    # the built-in splits agree with V + q_geom to 1e-10 on analytic profiles
    for prof in (power_profile(1.0, 3), power_profile(2.0, 2), exp_profile(1.0, 3)):
        split = geometric_split(prof)
        r = np.geomspace(1.0, 1e3, 200)
        q = _effective_potential(prof, split, r)
        mism = np.max(np.abs(q - np.asarray(split.q1(r)) - split.q2(r)))
        assert mism < 1e-10


def test_q_geom_chain_matches_finite_differences():
    for prof in (power_profile(2.0, 2), power_profile(1.0, 4), hyperbolic_profile(3)):
        rr = np.linspace(1.01, 6.0, 500)
        # the transition band is C^2 only: exclude the kinks of the third
        # derivative at the band edges r = 1 and r = 2
        rr = rr[(np.abs(rr - 1.0) > 1e-3) & (np.abs(rr - 2.0) > 1e-3)]
        g0, g1, g2 = q_geom_chain(prof, rr)
        h = 1e-5
        fd1 = (q_geom_chain(prof, rr + h)[0] - q_geom_chain(prof, rr - h)[0]) / (2 * h)
        fd2 = (q_geom_chain(prof, rr + h)[1] - q_geom_chain(prof, rr - h)[1]) / (2 * h)
        np.testing.assert_allclose(g1, fd1, atol=1e-7)
        np.testing.assert_allclose(g2, fd2, atol=1e-6)


def test_critical_energy_power_and_exp():
    for theta in (1.0, 2.0):
        for d in (2, 3):
            prof = power_profile(theta, d)
            ce = critical_energy(prof, geometric_split(prof))
            assert abs(ce.value) < 1e-6 and ce.converged
    for kappa in (1.0, 2.0):
        for d in (2, 3):
            prof = exp_profile(kappa, d)
            ce = critical_energy(prof, geometric_split(prof))
            assert ce.value == pytest.approx((d - 1) ** 2 * kappa**2 / 32.0, abs=1e-9)


def test_critical_energy_shift():
    prof = power_profile(1.0, 3)
    c = 1.3
    base = critical_energy(prof, geometric_split(prof)).value
    shifted = critical_energy(
        prof, geometric_split(prof, V_long=lambda r: np.full_like(np.asarray(r, float), c),
                              dV_long=_ZERO, d2V_long=_ZERO))
    assert shifted.value == pytest.approx(base + c, abs=1e-12)


def test_tabulated_profile_matches_closed_form():
    rt = np.linspace(1.0, 100.0, 4000)
    prof = tabulated_profile(rt, rt**2, d=3)
    pt = geometry_at(prof, 10.0)
    assert pt.delta_r == pytest.approx(0.2, rel=1e-4)
    assert pt.q_geom == pytest.approx(0.0, abs=1e-5)
    with pytest.raises(ContractError):
        tabulated_profile([1.0, 2.0], [1.0, 2.0], d=2)


def test_critical_energy_oscillation_flagged():
    # q1 = sin(ln r) oscillates forever on the geometric scale: the tail sup
    # never settles and the estimate must flag itself as not converged
    prof = const_profile(d=1)
    osc = lambda r: np.sin(np.log(np.asarray(r, dtype=float)))
    pot = PotentialSplit(V=osc, q1=osc)
    ce = critical_energy(prof, pot)
    assert not ce.converged


def test_stretched_exp_profile_constants():
    # f = exp(delta r^theta): vanishing asymptotic curvature, refined
    # splitting certified with rho ~ 6 - 4 theta
    from endspec.geometry import stretched_exp_profile
    from endspec.models import stretched_exp_model
    prof = stretched_exp_profile(1.0, 0.5, 3)
    pt = geometry_at(prof, 9.0)
    w = 0.5 * 9.0 ** -0.5
    assert pt.delta_r == pytest.approx(w, rel=1e-12)
    rep = stretched_exp_model(1.0, 0.5, 3).conditions()
    assert rep.overall() == "pass"
    assert abs(rep.lambda0) < 1e-5
    assert rep.rho == pytest.approx(6.0 - 4.0 * 0.5, abs=0.2)


@pytest.mark.parametrize("delta, theta, d", [(1.0, 0.5, 3), (0.3, 0.25, 2),
                                             (2.0, 0.9, 4)])
def test_stretched_exp_profile_is_its_closed_form_bitwise(delta, theta, d):
    # the stretched end is exp_profile with kappa = 0: ln f = delta r^theta
    # and the log-chain are its closed forms, bit for bit
    prof = stretched_exp_profile(delta, theta, d)
    r = np.geomspace(1.0, 2.0**14, 301)
    c = [delta * theta, delta * theta * (theta - 1.0),
         delta * theta * (theta - 1.0) * (theta - 2.0),
         delta * theta * (theta - 1.0) * (theta - 2.0) * (theta - 3.0)]
    expected = [delta * r**theta] + [c[k] * r ** (theta - 1.0 - k) for k in range(4)]
    for got, want in zip([prof.log_f(r), *prof.log_chain(r)], expected):
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    for bad in ((0.0, 0.5), (1.0, 1.0), (1.0, 0.0)):
        with pytest.raises(ContractError, match="0 < theta < 1"):
            stretched_exp_profile(*bad, d)


def test_exp_profile_lower_order_term():
    # f = C exp(kappa r + c r^theta): same critical energy, rho ~ 4 - 2 theta
    from endspec.models import exp_model
    rep = exp_model(2.0, 2, amp=3.0, lower_c=0.5, lower_theta=0.5).conditions()
    assert rep.overall() == "pass"
    assert rep.lambda0 == pytest.approx(0.125, abs=1e-3)
    assert rep.rho == pytest.approx(4.0 - 2.0 * 0.5, abs=0.2)


# --- the plateau above r0 ----------------------------------------------------------

def _geometry_direct(profile, r):
    """Every field by the cutoff formula at every node (eta and eta' taken
    on the whole array, as before the plateau was split off), with the
    cutoff built here from the profile's r0."""
    cutoffs = CutoffSpec(r0=profile.r0)
    r = np.asarray(r, dtype=float)
    w, w1, _, _ = profile.log_chain(r)
    eta, deta = cutoffs.eta(r), cutoffs.eta(r, order=1)
    half = 0.5 * (profile.d - 1)
    delta_r = eta * half * w
    ddelta_r = deta * half * w + eta * half * w1
    return {"delta_r": delta_r, "ell_coeff": 0.5 * w, "eta": eta,
            "q_geom": 0.125 * eta * (delta_r**2 + 2.0 * ddelta_r)}


def _plateau_cases():
    from endspec.models import (euclidean_model, exp_model, free_model,
                                hyperbolic_model, multiend_model, power_model,
                                stretched_exp_model, tabulated_model)
    rt = np.linspace(1.0, 100.0, 4000)

    def presets(r0):
        return {"free": free_model(r0), "euclidean2": euclidean_model(2, r0),
                "euclidean3": euclidean_model(3, r0),
                "power1": power_model(1.0, 3, r0),
                "exp": exp_model(1.0, 3, r0, lower_c=0.5, lower_theta=0.5),
                "stretched_exp": stretched_exp_model(1.0, 0.5, 3, r0),
                "hyperbolic3": hyperbolic_model(3, r0),
                "tabulated": tabulated_model(rt, rt**1.5, 3, r0),
                "multiend": multiend_model(r0=r0)}

    # every preset at the default r0 = 2 and again at r0 = 3.5
    cases = presets(2.0)
    cases["power1_r0_3"] = power_model(1.0, 3, r0=3.0)
    cases.update({f"{name}_r0_3.5": m for name, m in presets(3.5).items()})
    return cases


@pytest.mark.parametrize("name", sorted(_plateau_cases()))
def test_plateau_geometry_matches_full_evaluation_bitwise(name):
    model = _plateau_cases()[name]
    r0 = model.profile.r0
    edges = [r0 / 2.0, r0]
    around = [x for e in edges
              for x in (np.nextafter(e, 0.0), e, np.nextafter(e, np.inf))]
    radii = [np.array(sorted(x for x in around if x >= 1.0) + [1.0, 1.7, 40.0]),
             np.linspace(1.0, 2.0 * r0 + 0.3, 257), np.linspace(r0, 90.0, 100),
             model.make_grid(64.0, 0.05).radii]
    scalars = [1.0, r0 / 2.0, 0.75 * r0, r0, np.nextafter(r0, 0.0), 3.0 * r0]
    for r in radii + scalars:
        got = geometry_at(model.profile, r)
        ref = _geometry_direct(model.profile, r)
        assert got.r is not None and np.shape(got.r) == np.shape(r)
        for field, value in ref.items():
            a = np.asarray(getattr(got, field), dtype=float)
            b = np.asarray(value, dtype=float)
            assert a.shape == b.shape, field
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), field
