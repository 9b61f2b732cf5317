import numpy as np
import pytest

from endspec.cutoffs import CutoffSpec
from endspec.errors import ContractError, EvaluationError
from endspec.geometry import (PotentialSplit, WarpProfile, const_profile,
                              critical_energy, exp_profile, geometric_split,
                              geometry_at, hyperbolic_profile, power_profile,
                              q_geom_chain, stretched_exp_profile,
                              tabulated_profile)


def test_warped_formulas_euclidean():
    prof = power_profile(2.0, 3)
    pt = geometry_at(prof, None, 10.0)
    assert pt.delta_r == pytest.approx(0.2, abs=1e-14)
    assert pt.ell_coeff == pytest.approx(0.1, abs=1e-14)
    assert pt.q_geom == pytest.approx(0.0, abs=1e-15)


def test_warped_formulas_exponential():
    prof = exp_profile(2.0, 2)
    pt = geometry_at(prof, None, 5.0)
    assert pt.delta_r == pytest.approx(1.0, abs=1e-14)
    assert pt.q_geom == pytest.approx(0.125, abs=1e-14)


def test_constant_warp_trivial():
    prof = const_profile(d=4)
    pt = geometry_at(prof, None, np.array([3.0, 7.0]))
    np.testing.assert_allclose(pt.delta_r, 0.0)
    np.testing.assert_allclose(pt.q_geom, 0.0)


def test_mean_curvature_formula_region():
    # Delta r = (d-1) f'/(2 f) wherever eta = 1, against closed-form f'/f:
    # theta/r for f = r^theta, 2 coth r for f = sinh^2 r
    for prof, w_of_r in ((power_profile(1.5, 3), lambda r: 1.5 / r),
                         (hyperbolic_profile(2), lambda r: 2.0 / np.tanh(r))):
        r = np.linspace(prof.r0, 50.0, 300)
        pt = geometry_at(prof, None, r)
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
        q = geometry_at(prof, None, r).q_geom
        q_chain = q_geom_chain(prof, None, r)[0]
        assert np.all(np.abs(q - q_chain) <= 1e-13 * (1.0 + np.abs(q)))


def test_geometry_error_names_radius():
    bad = WarpProfile(d=2, f=lambda r: np.where(np.asarray(r) > 5.0, -1.0, 1.0),
                      log_chain=lambda r: (np.zeros_like(np.asarray(r, float)),) * 4)
    with pytest.raises(EvaluationError):
        geometry_at(bad, None, np.array([2.0, 6.0]))
    with pytest.raises(ContractError):
        geometry_at(power_profile(2.0, 2), None, 0.5)


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
    return np.asarray(split.V(r), dtype=float) + geometry_at(profile, None, r).q_geom


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
    shifted = geometric_split(prof, V_long=lambda r: np.full_like(np.asarray(r, float), c))
    r = np.linspace(1.0, 30.0, 50)
    np.testing.assert_allclose(_effective_potential(prof, shifted, r),
                               _effective_potential(prof, base, r) + c, rtol=1e-12)
    np.testing.assert_allclose(shifted.q1(r), np.asarray(base.q1(r)) + c, rtol=1e-12)


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
        cut = CutoffSpec()
        rr = np.linspace(1.01, 6.0, 500)
        # the transition band is C^2 only: exclude the kinks of the third
        # derivative at the band edges r = 1 and r = 2
        rr = rr[(np.abs(rr - 1.0) > 1e-3) & (np.abs(rr - 2.0) > 1e-3)]
        g0, g1, g2 = q_geom_chain(prof, cut, rr)
        h = 1e-5
        fd1 = (q_geom_chain(prof, cut, rr + h)[0] - q_geom_chain(prof, cut, rr - h)[0]) / (2 * h)
        fd2 = (q_geom_chain(prof, cut, rr + h)[1] - q_geom_chain(prof, cut, rr - h)[1]) / (2 * h)
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
        prof, geometric_split(prof, V_long=lambda r: np.full_like(np.asarray(r, float), c)))
    assert shifted.value == pytest.approx(base + c, abs=1e-12)


def test_tabulated_profile_matches_closed_form():
    rt = np.linspace(1.0, 100.0, 4000)
    prof = tabulated_profile(rt, rt**2, d=3)
    pt = geometry_at(prof, None, 10.0)
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
    pt = geometry_at(prof, None, 9.0)
    w = 0.5 * 9.0 ** -0.5
    assert pt.delta_r == pytest.approx(w, rel=1e-12)
    rep = stretched_exp_model(1.0, 0.5, 3).conditions()
    assert rep.overall() == "pass"
    assert abs(rep.lambda0) < 1e-5
    assert rep.rho == pytest.approx(6.0 - 4.0 * 0.5, abs=0.2)


def test_exp_profile_lower_order_term():
    # f = C exp(kappa r + c r^theta): same critical energy, rho ~ 4 - 2 theta
    from endspec.models import exp_model
    rep = exp_model(2.0, 2, amp=3.0, lower_c=0.5, lower_theta=0.5).conditions()
    assert rep.overall() == "pass"
    assert rep.lambda0 == pytest.approx(0.125, abs=1e-3)
    assert rep.rho == pytest.approx(4.0 - 2.0 * 0.5, abs=0.2)
