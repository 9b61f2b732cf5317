import numpy as np
import pytest

from endspec.conditions import (_NOISE_FLOOR, EXPONENT_CAP, ConditionReport,
                                InequalityRow, check_conditions,
                                check_escape_2d, combine_verdicts,
                                condition_grid, disk_complement_field,
                                hyperbola_field, sawtooth_field)
from endspec.errors import ContractError
from endspec.geometry import const_profile, geometric_split, power_profile
from endspec.models import (exp_model, hyperbolic_model,
                            power_model)


def test_power_model_constants():
    # sigma = theta, any tau, rho' = 2 and rho = 6 certify the power end
    rep = power_model(1.0, 3).conditions()
    assert rep.overall() == "pass"
    assert 0.95 <= rep.sigma <= 1.0
    assert rep.tau == 8.0
    assert rep.rho_prime == pytest.approx(2.0, abs=0.1)
    assert rep.rho == pytest.approx(6.0, abs=0.15)
    assert abs(rep.lambda0) < 1e-6
    assert rep.beta_c == pytest.approx(0.5 * min(rep.sigma, rep.tau, rep.rho),
                                       abs=1e-12)


def test_power_theta_two():
    rep = power_model(2.0, 3).conditions()
    assert rep.overall() == "pass"
    assert 1.95 <= rep.sigma <= 2.0


def test_cylinder_fails_convexity_with_witness():
    prof = const_profile(d=2)
    rep = check_conditions(prof, geometric_split(prof))
    assert rep.overall() == "fail"
    conv = [r for r in rep.rows if r.name == "convexity"][0]
    assert conv.verdict == "fail"
    assert conv.witness_r > 1e3  # the violation lives at large radius
    assert rep.sigma == 0.0


def test_exponential_model_caps_and_lambda0():
    rep = exp_model(2.0, 2).conditions()
    assert rep.overall() == "pass"
    assert rep.sigma == 8.0  # any sigma > 0 works; reported at the cap
    assert rep.lambda0 == pytest.approx(0.125, abs=1e-9)


def test_hyperbolic_model():
    rep = hyperbolic_model(3).conditions()
    assert rep.overall() == "pass"
    assert rep.lambda0 == pytest.approx(0.5, abs=1e-6)


def test_monotone_refinement():
    # doubling the grid density flips no verdict and keeps sigma stable
    prof = power_profile(1.0, 3)
    pot = geometric_split(prof)
    coarse = check_conditions(prof, pot, grid=condition_grid(per_block=32))
    fine = check_conditions(prof, pot, grid=condition_grid(per_block=64))
    assert coarse.overall() == fine.overall() == "pass"
    assert fine.sigma == pytest.approx(coarse.sigma, abs=1e-6)
    for rc, rf in zip(coarse.rows, fine.rows):
        assert (rc.verdict == "pass") == (rf.verdict == "pass")


def test_conservative_extraction():
    # re-evaluating the certified convexity inequality with the reported
    # (sigma, tau, C) on a 2x finer grid passes at every point
    rep = power_model(1.5, 3).conditions()
    rr = condition_grid(per_block=96)
    lhs = rr * (1.5 / (2.0 * rr))  # r f'/(2f) for f = r^1.5
    conv = [r for r in rep.rows if r.name == "convexity"][0]
    C = conv.constant if np.isfinite(conv.constant) else 0.0
    assert np.all(lhs >= 0.5 * rep.sigma - (C + 1e-12) * rr ** (-rep.tau) - 1e-12)


def test_report_csv_roundtrip(tmp_path):
    rep = power_model(1.0, 3).conditions()
    path = tmp_path / "report.csv"
    rep.to_csv(path)
    text = path.read_text()
    assert "# sigma:" in text and "convexity" in text
    assert text.count("\n") > len(rep.rows)


def test_combine_verdicts_fail_over_inconclusive_over_pass():
    assert combine_verdicts(["pass", "inconclusive", "fail", "pass"]) == "fail"
    assert combine_verdicts(["pass", "inconclusive", "pass"]) == "inconclusive"
    assert combine_verdicts(["pass", "pass"]) == "pass"
    assert combine_verdicts([]) == "inconclusive"
    # the condition report's overall verdict is the same rule over its rows
    rows = [InequalityRow(name=v, verdict=v, margin=0.0, witness_r=1.0, constant=1.0)
            for v in ("pass", "inconclusive")]
    rep = ConditionReport(rows=rows, sigma=1.0, tau=1.0, rho_prime=1.0, rho=1.0,
                          lambda0=0.0)
    assert rep.overall() == "inconclusive"


def test_report_constant_and_beta_c_follow_from_rows_and_exponents():
    # C is the largest finite positive row constant (1.0 when none is), and
    # beta_c = min{sigma, tau, rho} / 2; rho' does not enter
    def report(*constants):
        rows = [InequalityRow(name="r", verdict="pass", margin=0.0, witness_r=1.0,
                              constant=c) for c in constants]
        return ConditionReport(rows=rows, sigma=3.0, tau=5.0, rho_prime=0.5,
                               rho=4.0, lambda0=0.0)
    assert report(float("nan"), 0.0, 3.0, float("inf"), 2.0).constant == 3.0
    assert report(0.0, float("nan"), -1.0).constant == 1.0
    assert report().beta_c == 1.5


def test_caps_respected():
    # sigma = theta = 10 would certify; the search stops at the cap
    prof = power_profile(10.0, 3)
    rep = check_conditions(prof, geometric_split(prof))
    assert rep.sigma == EXPONENT_CAP


# --- two-dimensional escape functions ------------------------------------------

def test_disk_exact_distance():
    rep = check_escape_2d(disk_complement_field())
    assert rep.overall() == "pass"
    assert rep.sigma == pytest.approx(2.0, abs=1e-3)


def test_hyperbola_field():
    rep = check_escape_2d(hyperbola_field(K=3.0))
    assert rep.overall() == "pass"
    assert 1.9 <= rep.sigma <= 2.001
    assert rep.tau >= 1.0
    dd = [r for r in rep.rows if r.name == "dr2_minus_one_decay"][0]
    assert dd.exponent == pytest.approx(2.0, abs=0.35)  # ~2 up to the log factor
    bnd = [r for r in rep.rows if r.name == "boundary_inward"][0]
    assert bnd.verdict == "pass"
    assert _NOISE_FLOOR < 1e-6


def test_hyperbola_needs_supercritical_K():
    with pytest.raises(ContractError):
        hyperbola_field(K=1.5)


def test_sawtooth_field():
    rep = check_escape_2d(sawtooth_field(K=1.0))
    assert rep.overall() == "pass"
    assert 1.9 <= rep.sigma <= 2.001
    bnd = [r for r in rep.rows if r.name == "boundary_inward"][0]
    assert bnd.verdict == "pass" and bnd.constant > 4  # several teeth sampled
    third = [r for r in rep.rows if r.name == "tangential_grad_mean_curvature"][0]
    assert third.confidence == "reduced"
