import numpy as np
import pytest

from endspec.cutoffs import CutoffSpec
from endspec.errors import ContractError


def test_chi_plateau_values():
    cut = CutoffSpec()
    t = np.array([0.0, 0.5, 1.0, 2.0, 3.0, 100.0])
    np.testing.assert_array_equal(cut.chi(t), [1.0, 1.0, 1.0, 0.0, 0.0, 0.0])


def test_chi_monotone_and_bounded():
    cut = CutoffSpec()
    t = np.linspace(0.0, 3.0, 1201)
    v = cut.chi(t)
    assert np.all(v >= 0.0) and np.all(v <= 1.0)
    assert np.all(np.diff(v) <= 1e-15)
    assert np.all(cut.chi(t, order=1) <= 1e-15)


def test_chi_derivatives_match_finite_differences():
    cut = CutoffSpec()
    t = np.linspace(1.05, 1.95, 301)
    h = 1e-6
    for order in (1, 2, 3):
        fd = (cut.chi(t + h, order=order - 1) - cut.chi(t - h, order=order - 1)) / (2 * h)
        np.testing.assert_allclose(cut.chi(t, order=order), fd, atol=1e-5, rtol=1e-5)


def test_eta_support():
    cut = CutoffSpec(r0=2.0)
    r = np.array([1.0, 1.0 - 1e-12, 0.99, 2.0, 2.5, 10.0])
    eta = cut.eta(np.maximum(r, 1.0))
    assert eta[0] == 0.0
    assert eta[3] == 1.0 and eta[5] == 1.0
    # eta = 0 for r <= r0/2, 1 for r >= r0
    r = np.linspace(1.0, 4.0, 400)
    eta = cut.eta(r)
    assert np.all(eta[r <= 1.0] == 0.0)
    assert np.all(eta[r >= 2.0] == 1.0)


def test_dyadic_partition_exact():
    cut = CutoffSpec()
    r = np.geomspace(1.0, 1e4, 500)
    for n in (0, 2, 5, 10):
        np.testing.assert_array_equal(cut.chi_n(r, n) + cut.chibar_n(r, n),
                                      np.ones_like(r))


def test_r0_contract():
    with pytest.raises(ContractError):
        CutoffSpec(r0=1.5)


def _chi_full_array(t, order):
    """The transition function evaluated on every node (reference)."""
    t = np.asarray(t, dtype=float)
    inside = (t > 1.0) & (t < 2.0)
    s = np.clip(np.where(inside, t - 1.0, 0.0), 0.0, 1.0)
    v = s * s * s * (10.0 + s * (-15.0 + 6.0 * s))
    d = [None,
         30.0 * s * s * (1.0 + s * (-2.0 + s)),
         s * (60.0 + s * (-180.0 + 120.0 * s)),
         60.0 + s * (-360.0 + 360.0 * s)]
    if order == 0:
        return np.where(t <= 1.0, 1.0, np.where(t >= 2.0, 0.0, 1.0 - v))
    return np.where(inside, -d[order], 0.0)


def test_chi_band_local_matches_full_array_bit_for_bit():
    cut = CutoffSpec()
    t = np.concatenate([np.linspace(-1.0, 1.0, 7), np.linspace(1.0, 2.0, 1001),
                        np.linspace(2.0, 5.0, 7),
                        [1.0, 2.0, np.nextafter(1.0, 2.0), np.nextafter(2.0, 1.0),
                         np.inf, -np.inf, np.nan]])
    for order in range(4):
        got = cut.chi(t, order=order)
        ref = _chi_full_array(t, order)
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))
        two_d = cut.chi(t[:1014].reshape(2, -1), order=order)
        assert np.array_equal(two_d.ravel().view(np.uint64), ref[:1014].view(np.uint64))
        for x in (0.5, 1.0, 1.5, 2.0, 3.0, np.inf, -np.inf, np.nan):
            val = cut.chi(x, order=order)
            assert type(val) is float
            assert np.float64(val).view(np.uint64) == _chi_full_array(x, order).view(np.uint64)
    assert cut.chi(np.nan) == 1.0
    with pytest.raises(ContractError):
        cut.chi(t, order=4)
