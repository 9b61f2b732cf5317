"""Asymptotic complex phase and the radial Riccati equation.

For a spectral parameter z = lambda +- i Gamma above the critical energy the
outgoing/incoming behavior on the end is encoded by the phase

    a_z = eta_lambda [ sqrt(2 (z - q1)) +- (1/4) (p^r q11) / (z - q1) ],

with the square-root branch Re sqrt(w) > 0 off the cut (-oo, 0] and the
threshold cutoff eta_lambda = 1 - chi(2 r / r_lambda).  The threshold radius
r_lambda is the smallest dyadic radius >= r0 with

    lambda + lambda0 - 2 q1(r) >= 0   for all r >= r_lambda / 2,

which keeps z - q1 away from the cut wherever the phase is switched on; the
search stops at the tail horizon ``geometry.TAIL_HORIZON``.

a_z approximately solves the radial Riccati equation

    +- p^r a + a^2 - 2 |dr|^2 (z - q1) = 0,

and the substitution a = +- (p^r b)/b linearizes that equation into
(p^r)^2 b = 2 (z - q1) b, a one-dimensional eigenequation integrated here as
an exact reference.  The radial operator A = p^r - (i/2) Delta r acts as
-i (r' d/dx + r''/2) on density-flattened (reduced) functions, which is
-i d/dr on warped ends.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conditions import FIT_R2_MIN, fit_decay
from .errors import BranchError, ContractError, EndspecError
from .geometry import (TAIL_HORIZON, PotentialSplit, WarpProfile,
                       critical_energy)
from .radial import RadialGrid

# the largest fitted decay slope of the Riccati residual that passes
RICCATI_SLOPE_MAX = -0.8

# geometric samples of q1 per dyadic block in the threshold-radius search
_THRESHOLD_SAMPLES = 64


@dataclass(frozen=True)
class PhaseSpec:
    """Sampled phase a_z on a grid, with its threshold data."""

    z: complex
    sign: int
    r_lambda: float
    a: np.ndarray
    grid: RadialGrid


@dataclass(frozen=True)
class RiccatiSolution:
    """Exact Riccati phase a = +-(p^r b)/b from the linearized equation."""

    z: complex
    sign: int
    r: np.ndarray
    b: np.ndarray
    a: np.ndarray


def r_lambda(profile: WarpProfile, potential: PotentialSplit, lam: float,
             lambda0: float | None = None) -> float:
    """Smallest dyadic threshold radius R >= r0 for the energy lam.

    Dyadic quantization replaces the abstract smooth decreasing function of
    the energy; only the support property above matters downstream.  The
    result is monotone non-increasing in lam by construction.
    """
    lam0 = critical_energy(profile, potential).value if lambda0 is None \
        else float(lambda0)
    if not lam > lam0:
        raise ContractError(f"lambda={lam} must exceed the critical energy {lam0}")
    r0 = profile.r0
    candidates = [r0]
    R = 2.0 ** np.ceil(np.log2(r0) + 1e-12)
    while R <= TAIL_HORIZON:
        if R > r0:
            candidates.append(float(R))
        R *= 2.0
    for R in candidates:
        rr = np.geomspace(R / 2.0, TAIL_HORIZON, max(
            _THRESHOLD_SAMPLES,
            int(_THRESHOLD_SAMPLES * np.log2(TAIL_HORIZON / (R / 2.0)))))
        q1 = np.asarray(potential.q1(rr), dtype=float)
        if np.all(lam + lam0 - 2.0 * q1 >= 0.0):
            return float(R)
    raise ContractError(
        f"no threshold radius below horizon {TAIL_HORIZON}: "
        f"lambda={lam} too close to {lam0}")


def phase_a(profile: WarpProfile, potential: PotentialSplit, z: complex, sign: int,
            grid: RadialGrid, r_lam: float | None = None,
            lambda0: float | None = None, with_correction: bool = True) -> PhaseSpec:
    """Sample the asymptotic phase a_z on the grid.

    ``sign`` selects the branch (+1 outgoing / -1 incoming); p^r q11 is taken
    from the declared derivative of q11.  ``with_correction=False`` drops the
    second bracket term (the cruder one-term approximation), which is useful
    for quantifying how much the correction improves the Riccati residual.
    """
    if sign not in (+1, -1):
        raise ContractError("sign must be +1 or -1")
    z = complex(z)
    gamma = z.imag
    if not 0.0 <= abs(gamma) < 1.0:
        raise ContractError(f"Gamma must lie in [0, 1), got {gamma}")
    if r_lam is None:
        r_lam = r_lambda(profile, potential, z.real, lambda0=lambda0)
    rr = grid.radii
    eta_l = np.asarray(profile.cutoffs.eta(rr, scale=r_lam), dtype=float)
    q1 = np.asarray(potential.q1(rr), dtype=float)
    w = z - q1
    active = eta_l > 0.0
    on_cut = active & (w.real <= 0.0) & (w.imag == 0.0)
    if np.any(on_cut):
        raise BranchError(
            f"z - q1 hit the branch cut at r={rr[on_cut][0]:.6g} inside the phase region")
    a = np.zeros(rr.size, dtype=complex)
    root = np.sqrt(2.0 * w[active])
    a[active] = root
    if with_correction:
        dq11 = np.asarray(potential.dq11(rr), dtype=float)
        a[active] += sign * 0.25 * (-1j * dq11[active]) / w[active]
    a *= eta_l
    return PhaseSpec(z=z, sign=sign, r_lambda=float(r_lam), a=a, grid=grid)


def grid_phase(a, h: float):
    """Dispersion-matched phase for the three-point stencil.

    A discrete plane wave exp(i kappa h j) of the central second-difference
    stencil with local wavenumber a satisfies -i D phi = (sin(kappa h)/h) phi
    with sin(kappa h)/h = a sqrt(1 - (a h / 2)^2).  Measuring (A - a) phi or
    closing the outgoing boundary row against this corrected value removes
    the O(h^2) dispersion floor that would otherwise mask decaying radiation
    remainders on large domains.
    """
    a = np.asarray(a, dtype=complex)
    return a * np.sqrt(1.0 - (a * h / 2.0) ** 2)


def _central_derivative(values, h):
    d = np.empty_like(values)
    d[1:-1] = (values[2:] - values[:-2]) / (2.0 * h)
    d[0] = (-3.0 * values[0] + 4.0 * values[1] - values[2]) / (2.0 * h)
    d[-1] = (3.0 * values[-1] - 4.0 * values[-2] + values[-3]) / (2.0 * h)
    return d


@dataclass(frozen=True)
class ResidualProfile:
    """Pointwise Riccati defect with a dyadic-decade decay fit."""

    r: np.ndarray
    residual: np.ndarray
    slope: float
    r_squared: float
    reliable: bool

    @property
    def max_residual(self) -> float:
        return float(np.max(self.residual)) if self.residual.size else 0.0

    @property
    def negligible(self) -> bool:
        """Residual at the numerical floor everywhere (exact solution)."""
        return self.max_residual <= 1e-10

    @property
    def verdict(self) -> str:
        """Pass at the floor, inconclusive on an unreliable fit, else pass
        iff the fitted slope is at most ``RICCATI_SLOPE_MAX``."""
        if self.negligible:
            return "pass"
        if not self.reliable:
            return "inconclusive"
        return "pass" if self.slope <= RICCATI_SLOPE_MAX else "fail"


def riccati_residual(phase: PhaseSpec, potential: PotentialSplit) -> ResidualProfile:
    """| +- p^r a + a^2 - 2 |dr|^2 (z - q1) | with a log-log decay fit.

    The derivative of a uses three-point central differences; points inside
    the threshold cutoff band and the two grid edges are excluded.  The decay
    exponent is the ``conditions.fit_decay`` slope over the last two dyadic
    decades below the outer edge, flagged unreliable when R^2 is below
    ``conditions.FIT_R2_MIN``.  The grid is the phase's.
    """
    grid = phase.grid
    rr = grid.radii
    da = _central_derivative(phase.a, grid.h)
    q1 = np.asarray(potential.q1(rr), dtype=float)
    resid = np.abs(phase.sign * (-1j * da) + phase.a**2 - 2.0 * (phase.z - q1))
    keep = (rr > phase.r_lambda * 1.0001) & (np.arange(rr.size) > 0) \
        & (np.arange(rr.size) < rr.size - 1)
    r_keep, v_keep = rr[keep], resid[keep]
    # the excluded points enter the fit as zeros, which it skips: its window
    # is anchored at the outer edge of the grid, not at the last kept point
    slope, r2 = fit_decay(rr, np.where(keep, resid, 0.0))
    if slope is None:
        return ResidualProfile(r=r_keep, residual=v_keep, slope=np.nan,
                               r_squared=0.0, reliable=False)
    return ResidualProfile(r=r_keep, residual=v_keep, slope=slope,
                           r_squared=r2, reliable=bool(r2 >= FIT_R2_MIN))


def riccati_exact(profile: WarpProfile, potential: PotentialSplit, z: complex,
                  sign: int, grid: RadialGrid, step: float | None = None,
                  r_lam: float | None = None) -> RiccatiSolution:
    """Integrate (p^r)^2 b = 2 (z - q1) b inward and return a = +-(p^r b)/b.

    Initial data at the outer edge comes from the approximate phase
    (b = 1, b' = sign * i a(R_max)), so the exact and approximate phases agree
    there and their difference decays as r grows.  Inward integration keeps
    the outgoing branch stable.

    The linear system (b, b')' = [[0, 1], [-2 (z - q1), 0]] (b, b') is
    advanced by the fourth-order Magnus propagator with two Gauss points
    (Iserles & Norsett, Phil. Trans. R. Soc. A 357, 1999; Blanes, Casas, Oteo
    & Ros, Phys. Rep. 470, 2009).  Each grid cell takes max(1, round(cell /
    step)) sub-steps; ``step=None`` takes one per cell.  The global error
    scales as O(h^4) in the sub-step h, and the method is exact for constant
    q1.
    """
    if sign not in (+1, -1):
        raise ContractError("sign must be +1 or -1")
    ph = phase_a(profile, potential, z, sign, grid, r_lam=r_lam)
    rr = grid.radii
    start = float(max(ph.r_lambda, rr[0]))
    r_eval = rr[rr >= start - 1e-12]
    b, bp = _magnus_inward(potential, complex(z), r_eval, sign * 1j * ph.a[-1], step)
    small = np.abs(b) < 1e-12 * np.max(np.abs(b))
    if np.any(small):
        raise EndspecError(
            f"b vanished near r={r_eval[small][0]:.6g}; phase undefined there")
    a = sign * (-1j * bp) / b
    return RiccatiSolution(z=complex(z), sign=sign, r=r_eval, b=b, a=a)


def _magnus_inward(potential, z, r_eval, bp_end, step):
    """(b, b') at r_eval from b = 1, b' = bp_end at r_eval[-1], by Magnus-4.

    With A_k = [[0, 1], [w_k, 0]], w_k = 2 (q1 - z) at the Gauss points of a
    sub-step of length h, Omega = h/2 (A_1 + A_2) + (sqrt(3)/12) h^2 [A_2, A_1]
    = [[d, h], [c, -d]] with d = (sqrt(3)/12) h^2 (w_1 - w_2) and
    c = h (w_1 + w_2)/2.  Omega is traceless, so Omega^2 = s^2 I with
    s^2 = -det Omega and exp(Omega) = cosh(s) I + (sinh(s)/s) Omega.
    """
    r_hi, cell = r_eval[:0:-1], np.diff(r_eval)[::-1]
    n_sub = np.ones(cell.size, dtype=int) if step is None \
        else np.maximum(1, np.rint(cell / step).astype(int))
    h = np.repeat(-cell / n_sub, n_sub)
    k = np.arange(h.size) - np.repeat(np.cumsum(n_sub) - n_sub, n_sub)
    r0 = np.repeat(r_hi, n_sub) + k * h
    w1, w2 = (2.0 * (np.asarray(potential.q1(r0 + g * h), dtype=float) - z)
              for g in (0.5 - np.sqrt(3.0) / 6.0, 0.5 + np.sqrt(3.0) / 6.0))
    d = np.sqrt(3.0) / 12.0 * h**2 * (w1 - w2)
    c = 0.5 * h * (w1 + w2)
    s = np.sqrt(d * d + h * c)
    tiny = np.abs(s) < 1e-4  # sinh(s)/s = 1 + s^2/6 + O(s^4) there
    sinhc = np.where(tiny, 1.0 + s * s / 6.0, np.sinh(s) / np.where(tiny, 1.0, s))
    ch = np.cosh(s)
    steps = zip((ch + sinhc * d).tolist(), (sinhc * h).tolist(),
                (sinhc * c).tolist(), (ch - sinhc * d).tolist())
    b, bp = 1.0 + 0.0j, complex(bp_end)
    bs, bps = [b], [bp]
    for m11, m12, m21, m22 in steps:
        b, bp = m11 * b + m12 * bp, m21 * b + m22 * bp
        bs.append(b)
        bps.append(bp)
    # keep the state at the cell ends, outermost last
    ends = np.concatenate(([0], np.cumsum(n_sub)))[::-1]
    return np.asarray(bs)[ends], np.asarray(bps)[ends]


def apply_A(phi, grid: RadialGrid, dphi=None):
    """Apply A = p^r - (i/2) Delta r to a reduced (density-flattened) grid
    function, on which it acts as -i (r' u' + r'' u / 2) with r', r'' from
    the grid (-i d/dr on warped ends).  Central differences make the
    discrete operator symmetric for interior-supported functions on warped
    ends; ``dphi`` is a u' the caller already took with the same stencil.
    """
    values = np.asarray(phi, dtype=complex)
    if dphi is None:
        dphi = _central_derivative(values, grid.h)
    return -1j * (grid.dr * dphi + 0.5 * grid.d2r * values)
