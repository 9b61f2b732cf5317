import dataclasses
import hashlib

import numpy as np
import pytest

from endspec.conditions import (_NOISE_FLOOR, EXPONENT_CAP, ConditionReport,
                                EscapeField2D, InequalityRow, check_conditions,
                                check_escape_2d, combine_verdicts,
                                condition_grid, disk_complement_field,
                                hyperbola_field, sawtooth_field)
from endspec.errors import ContractError
from endspec.geometry import const_profile, geometric_split, power_profile
from endspec.models import (euclidean_model, exp_model, free_model,
                            hyperbolic_model, multiend_model, power_model,
                            square_well_model, stretched_exp_model)


# The condition reports the survey workload does not write, each by the
# SHA-256 of its CSV.  A change to a checker that must keep every report
# byte-identical is checked here; one that moves a report re-records its
# hash with the reason.
_CYLINDER = const_profile(d=3)


def _half_plane():
    # y >= 0: its flip between angle indices 159 and 0 of a boundary ring is
    # the one bisection bracket here that wraps past 2 pi
    return EscapeField2D(
        name="half_plane",
        r_fn=lambda x, y: np.sqrt(1.0 + np.asarray(x) ** 2 + np.asarray(y) ** 2),
        domain=lambda x, y: np.asarray(y) >= 0.0)


_REPORTS = {
    "free": lambda: free_model().conditions(),
    "power_theta1_d3": lambda: power_model(1.0, 3).conditions(),
    "euclidean_d2": lambda: euclidean_model(2).conditions(),
    "exp_kappa1_d3": lambda: exp_model(1.0, 3).conditions(),
    "exp_lower_order": lambda: exp_model(1.0, 3, lower_c=0.5,
                                         lower_theta=0.5).conditions(),
    "stretchedexp": lambda: stretched_exp_model(1.0, 0.5, 3).conditions(),
    "hyperbolic_d3": lambda: hyperbolic_model(3).conditions(),
    "square_well": lambda: square_well_model().conditions(),
    "multiend": lambda: multiend_model().conditions(),
    "cylinder_d3": lambda: check_conditions(_CYLINDER, geometric_split(_CYLINDER)),
    "escape_disk": lambda: disk_complement_field().conditions(),
    "escape_hyperbola": lambda: hyperbola_field().conditions(),
    "escape_hyperbola_k2.5": lambda: hyperbola_field(K=2.5).conditions(),
    "escape_hyperbola_k6": lambda: hyperbola_field(K=6.0).conditions(),
    "escape_sawtooth_k0.5": lambda: sawtooth_field(K=0.5).conditions(),
    "escape_sawtooth_k2": lambda: sawtooth_field(K=2.0).conditions(),
    "escape_half_plane": lambda: _half_plane().conditions(),
}
_REPORT_SHA256 = {
    "free": "041e4ff8524c41ded241dd205d52084486bc4c9f7c17e85568c6da433defeebc",
    "power_theta1_d3": "b5a766a4e4a684db3f235bf6cdef8162a701e3493fd6709c188012b0a05064b3",
    "euclidean_d2": "fa656c42cd19be7c26ef298cb00c826afe25674dd748105acc030677e1c71075",
    "exp_kappa1_d3": "1b877a827ffb5c2e1fdf94c9218df13ebe317a5973416559797285b499d9b99a",
    "exp_lower_order": "741dd91c8c0edfb181b12757b02cd94df40ebdc93ec0c926e05c07978e439132",
    "stretchedexp": "4e3cea8bf96c6c0c8a0b074d4cc43ef547d566f30f685c5dcee99cbae896a2aa",
    "hyperbolic_d3": "dae800df311d6782dfa508872d892447f4132bee7e0cc3070afc1e98604acb62",
    "square_well": "c8df2bd9f5fd0ba72a607ce4ffffb74284fedb66c299fa6865daa2b53cdc1971",
    "multiend": "7dd5deba4ae83f28bdd938e29058d980209fa6a66fd1ce3e2dbe857f563b22cf",
    "cylinder_d3": "f86216097137adb29fffdb4c064a9ec3133d2c010bf739bcde2a6c70a5c4b95c",
    "escape_disk": "4773d9048e5075c023acefb25e32e2c0e58281e118f9022bb556bf1af08eb231",
    "escape_hyperbola": "3a78d6f28ed256adf46b29b275243f464f6ba775e379eeaef890db3b59a5d5b1",
    "escape_hyperbola_k2.5": "ce34405459563089eb22559bf59c48abc376e84e4959369c1fdb1490795b5e40",
    "escape_hyperbola_k6": "2d5e82cfad7af610780d562973707a49c81b5ab23d2c754df168e57c54d04519",
    "escape_sawtooth_k0.5": "ac24766036abaf64ac6c3349e3040d27eda4143710df7d320557e499ae130a7b",
    "escape_sawtooth_k2": "2c5bd106d710066824edf34baf02fc57c67535e552d769bac33bf60e4f2e124f",
    "escape_half_plane": "dd9203a7a0dc9853a33143404e0dbedfce24414296d921f2875e9bbfe7b237a5",
}


@pytest.mark.parametrize("name", sorted(_REPORTS))
def test_condition_report_reproduces_recorded_bytes(tmp_path, name):
    path = tmp_path / f"{name}.csv"
    _REPORTS[name]().to_csv(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == _REPORT_SHA256[name]


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


@pytest.mark.parametrize("field", [sawtooth_field(K=1.0), hyperbola_field(K=3.0)],
                         ids=["sawtooth", "hyperbola"])
def test_escape_check_makes_one_membership_call_per_step(field):
    # 9 calls for the ring samples and their 8 FD probe offsets, and 53 for
    # the boundary: the rings, 2 pattern checks, 48 bisection steps and 2
    # normal probes, however many crossings there are
    calls = []

    def domain(x, y):
        calls.append(None)
        return field.domain(x, y)

    rep = check_escape_2d(dataclasses.replace(field, domain=domain))
    assert rep.overall() == "pass"
    assert len(calls) <= 62


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 3, constants: r_at_least_one stores the "
                          "skipped-sample count as its constant, so the escape "
                          "report's C is a count (481.0)")
def test_escape_report_constant_is_not_a_sample_count():
    rep = check_escape_2d(sawtooth_field(K=1.0))
    assert rep.constant != rep.grid_meta["skipped"]
