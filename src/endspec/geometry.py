"""Warped-product end geometry.

A model manifold has one end carried by the half-line [1, oo) with metric

    g = dr (x) dr + f(r) h(sigma),

where (S, h) is the round sphere S^{d-1} (the circle at d = 2) and f > 0
is the warp.  On the end

    |dr|^2 = 1,
    Hess r = (f'/2) h = (f'/(2 f)) ell,
    Delta r = (d-1) f' / (2 f),

and flattening the radial volume density f^{(d-1)/2} turns the radial part
of -Delta/2 into -d^2/dr^2 / 2 plus the geometric potential

    q_geom = (1/8) eta~ [ (Delta r)^2 + 2 d(Delta r)/dr ].

Below the interior radius r0 the mean curvature is interpolated to zero by
the cutoff eta, realizing a model whose interior is the continued warped
line [1, r0] with a Dirichlet wall at r = 1.

The cutoff family belongs to the profile: ``WarpProfile.cutoffs`` is the
``CutoffSpec`` at the end's r0, which only ``geometry_at`` and
``q_geom_chain`` read.

The effective potential is q = V + q_geom, split by the user as
q = q1 + q2 (and further q1 = q11 + q12, q2 = q21 + q22); the decay
exponents are outputs of the condition check.  The critical energy is the
limsup of q1 at infinity, estimated from tail sups of q1 out to
``TAIL_HORIZON`` = 2^14 (the horizon of the condition grid and of the
threshold-radius search as well).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .cutoffs import CutoffSpec
from .errors import ContractError, EvaluationError

_ZERO = lambda r: np.zeros_like(np.asarray(r, dtype=float))

# outer radius of every tail-sup estimate of q1
TAIL_HORIZON = 2.0**14
# geometric samples per dyadic block of ``critical_energy``, and the block-
# to-block change of the tail sup below which it counts as converged
_TAIL_SAMPLES = 48
_TAIL_TOL = 1e-6


@dataclass(frozen=True)
class WarpProfile:
    """Warp f or ln f (exactly one of them) and the log-chain of w = f'/f.

    f enters only through mu/(2f); every curvature term is a function of
    w.  ``log_chain`` returns (w, w', w'', w'''); closed-form for the
    built-in profiles, centered differences for tabulated ones.  The
    cross-section is the round sphere S^{d-1}.
    """

    d: int
    log_chain: Callable
    f: Callable | None = None
    r0: float = 2.0
    # exact ln f for rapidly growing warps; evaluation then goes through the
    # log domain (f itself saturates at exp(+-700), where only 1/f and
    # f-ratios matter and those stay exact)
    log_f: Callable | None = None

    def __post_init__(self):
        if self.d < 1:
            raise ContractError(f"dimension must be >= 1, got {self.d}")
        if self.r0 < 2.0:
            raise ContractError(f"r0 must be >= 2, got {self.r0}")
        if (self.f is None) == (self.log_f is None):
            raise ContractError("a warp profile needs exactly one of f and log_f")

    @property
    def cutoffs(self) -> CutoffSpec:
        """The interior cutoff eta = 1 - chi(2 r / r0) at this end's r0."""
        return CutoffSpec(r0=self.r0)


@dataclass(frozen=True)
class PotentialSplit:
    """Potential V plus the splitting q = q1 + q2, q1 = q11 + q12, q2 = q21 + q22.

    All entries are callables.  V is taken at the integration coordinate (x
    on the two-ended line), the splitting at r; of q11 and q12 only the
    derivatives the condition checks read are kept.
    """

    V: Callable = _ZERO
    q1: Callable = _ZERO
    dq1: Callable = _ZERO
    dq11: Callable = _ZERO
    d2q11: Callable = _ZERO
    dq12: Callable = _ZERO
    q21: Callable = _ZERO
    dq21: Callable = _ZERO
    q22: Callable = _ZERO

    def q2(self, r):
        return np.asarray(self.q21(r)) + np.asarray(self.q22(r))


@dataclass(frozen=True)
class GeometryPoint:
    """The pointwise geometric quantities the operators are built from.

    ``geometry_at`` forms f and q_geom, which a potential diagonal reads,
    and delta_r, which q_geom is formed from.  ``ell_coeff`` and ``eta``,
    which only the condition checks and the weighted energy forms read, are
    formed on each read from the kept w = f'/f and cutoff band, so a point
    holds four arrays of its radii's length, not five.
    """

    r: np.ndarray
    f: np.ndarray
    delta_r: np.ndarray      # smoothed mean curvature eta * (d-1) f'/(2 f)
    q_geom: np.ndarray       # (1/8) eta [ (Delta r)^2 + 2 d(Delta r)/dr ]
    w: np.ndarray = field(repr=False)       # f'/f at the flattened radii
    band: tuple = field(repr=False)         # (flat indices below r0, eta there)

    @property
    def ell_coeff(self):
        """f'/(2 f): Hess r = ell_coeff * ell on the end."""
        return _shaped(0.5 * self.w, self.r)

    @property
    def eta(self):
        """The interior cutoff: 1 on the plateau r >= r0."""
        eta = np.ones(self.w.size)
        index, values = self.band
        eta[index] = values
        return _shaped(eta, self.r)


def _shaped(a, r):
    """The flat array ``a`` in the shape of the radii r (a scalar for a
    scalar r)."""
    a = a.reshape(r.shape)
    return a[()] if r.ndim == 0 else a


def _warp(profile: WarpProfile, r: np.ndarray) -> np.ndarray:
    """f at the radii r, refused (``EvaluationError``, naming the first
    such radius) unless finite and positive everywhere: one min and one max
    reduction decide, and only a refusal looks for the radius."""
    if profile.log_f is not None:
        lf = np.asarray(profile.log_f(r), dtype=float)
        good = lf.min(initial=np.inf) > -np.inf and lf.max(initial=-np.inf) < np.inf
        fv = np.exp(np.clip(lf, -700.0, 700.0))
    else:
        fv = np.asarray(profile.f(r), dtype=float)
        good = fv.min(initial=np.inf) > 0.0 and fv.max(initial=0.0) < np.inf
    if not good:
        bad = ~np.isfinite(lf) if profile.log_f is not None \
            else ~np.isfinite(fv) | (fv <= 0.0)
        rb = np.atleast_1d(r)[np.atleast_1d(bad)][0]
        raise EvaluationError(f"warp profile not finite/positive at r={rb!r}")
    return fv


def geometry_at(profile: WarpProfile, r) -> GeometryPoint:
    """Evaluate the geometric quantities at radius r (scalar or array).

    The mean curvature uses the warped formula for r >= r0 and the
    cutoff-smoothed interpolation below; q_geom therefore vanishes for
    r <= r0/2 and reduces to the pure warped expression for r >= r0.

    For r >= r0 the cutoff sits on its plateau, eta = 1 and eta' = 0
    exactly, so there delta_r = (d-1) w/2, d(delta_r)/dr = (d-1) w'/2 and
    q_geom = (delta_r^2 + 2 d(delta_r)/dr) / 8 are formed in a few passes
    over the grid, in place, and the cutoff terms are evaluated only on the
    nodes below r0 (a handful on a long grid); the band (NaN included, which
    the cutoff puts at eta = 0) is then overwritten.  |dr|^2 = 1 on the
    warped model, so the prefactor eta~ is eta itself.  Every field is the
    value of the cutoff formula at every node, bit for bit; ``eta`` and
    ``ell_coeff`` are formed when read (``GeometryPoint``).
    """
    cutoffs = profile.cutoffs
    r = np.asarray(r, dtype=float)
    # one reduction clears radii below 1 and the band below r0 at once; a
    # NaN, which compares false, sends both to their exact tests
    r_min = r.min(initial=np.inf)
    if not r_min >= 1.0 and np.any(r < 1.0):
        raise ContractError("radius must be >= 1")
    w, w1, _, _ = profile.log_chain(r)
    fv = _warp(profile, r)
    half = 0.5 * (profile.d - 1)
    rf = r.reshape(-1)
    w = np.broadcast_to(w, r.shape).reshape(-1)
    w1 = np.broadcast_to(w1, r.shape).reshape(-1)
    delta_r = half * w
    q_geom = half * w1
    q_geom *= 2.0
    q_geom += np.square(delta_r)
    q_geom *= 0.125
    band = np.flatnonzero(~(rf >= cutoffs.r0)) if not r_min >= cutoffs.r0 \
        else np.arange(0)
    eb = np.ones(0)
    if band.size:
        rb, wb = rf[band], w[band]
        eb = cutoffs.eta(rb)
        db = eb * half * wb
        ddb = cutoffs.eta(rb, order=1) * half * wb + eb * half * w1[band]
        delta_r[band] = db
        q_geom[band] = 0.125 * eb * (db**2 + 2.0 * ddb)
    return GeometryPoint(r=r, f=fv, delta_r=_shaped(delta_r, r),
                         q_geom=_shaped(q_geom, r), w=w, band=(band, eb))


def q_geom_chain(profile: WarpProfile, r):
    """q_geom and its first two radial derivatives, in closed form.

    Needed by the condition checker (decay of q1', q11'') and by the phase
    correction.  Uses the derivative chain of w = f'/f plus the cutoff
    derivatives; everything stays analytic except the jump of the third
    cutoff derivative at the band edges, which only affects a compact region.
    """
    cutoffs = profile.cutoffs
    r = np.asarray(r, dtype=float)
    w, w1, w2, w3 = profile.log_chain(r)
    half = 0.5 * (profile.d - 1)
    D0, D1, D2, D3 = half * w, half * w1, half * w2, half * w3
    e0 = cutoffs.eta(r)
    e1 = cutoffs.eta(r, order=1)
    e2 = cutoffs.eta(r, order=2)
    e3 = cutoffs.eta(r, order=3)
    # q_geom = (1/8)[ e^3 D^2 + 2 e^2 D' + 2 e e' D ]
    a0 = e0**3 * D0**2 + 2.0 * e0**2 * D1 + 2.0 * e0 * e1 * D0
    a1 = (3.0 * e0**2 * e1 * D0**2 + 2.0 * e0**3 * D0 * D1
          + 4.0 * e0 * e1 * D1 + 2.0 * e0**2 * D2
          + 2.0 * (e1**2 + e0 * e2) * D0 + 2.0 * e0 * e1 * D1)
    a2 = (6.0 * e0 * e1**2 * D0**2 + 3.0 * e0**2 * e2 * D0**2
          + 12.0 * e0**2 * e1 * D0 * D1
          + 2.0 * e0**3 * (D1**2 + D0 * D2)
          + 8.0 * (e1**2 + e0 * e2) * D1 + 10.0 * e0 * e1 * D2
          + 2.0 * e0**2 * D3
          + 2.0 * (3.0 * e1 * e2 + e0 * e3) * D0)
    return 0.125 * a0, 0.125 * a1, 0.125 * a2


@dataclass(frozen=True)
class CriticalEnergy:
    """Tail-sup estimate of limsup_{r->oo} q1 with a residual bound."""

    value: float
    residual: float
    converged: bool


def critical_energy(profile: WarpProfile, potential: PotentialSplit) -> CriticalEnergy:
    """Approximate the critical energy limsup_{r->oo} q1.

    q1 is sampled at ``_TAIL_SAMPLES`` geometric points per dyadic block up
    to ``TAIL_HORIZON`` (matching the dyadic annulus structure elsewhere); the
    estimate is the supremum over the last block and the residual the
    change from the previous block.  Oscillation above ``_TAIL_TOL`` at the
    horizon marks the result as not converged.
    """
    lo = max(profile.r0, 2.0)
    if TAIL_HORIZON <= 4.0 * lo:
        raise ContractError("horizon too small for a tail estimate")
    n_blocks = int(np.ceil(np.log2(TAIL_HORIZON / lo)))
    sups = []
    for k in range(n_blocks):
        a, b = lo * 2.0**k, min(lo * 2.0**(k + 1), TAIL_HORIZON)
        rr = np.geomspace(a, b, _TAIL_SAMPLES)
        q1 = np.asarray(potential.q1(rr), dtype=float)
        if not np.all(np.isfinite(q1)):
            raise EvaluationError(f"q1 not finite in block [{a}, {b}]")
        sups.append(float(np.max(q1)))
    # tail sup over blocks >= k, as a function of k
    tail = np.maximum.accumulate(np.asarray(sups)[::-1])[::-1]
    value = float(tail[-1])
    residual = float(abs(tail[-1] - tail[-2]))
    prev = float(abs(tail[-2] - tail[-3])) if len(tail) >= 3 else residual
    converged = residual <= _TAIL_TOL and residual <= prev + _TAIL_TOL
    return CriticalEnergy(value=value, residual=residual,
                          converged=bool(converged))


# ---------------------------------------------------------------------------
# built-in profiles
# ---------------------------------------------------------------------------

def power_profile(theta: float, d: int, r0: float = 2.0) -> WarpProfile:
    """f(r) = r^theta.  theta = 2 is the Euclidean end."""
    th = float(theta)

    def log_chain(r):
        r = np.asarray(r, dtype=float)
        return th / r, -th / r**2, 2.0 * th / r**3, -6.0 * th / r**4

    return WarpProfile(d=d, f=lambda r: np.asarray(r, float) ** th,
                       log_chain=log_chain, r0=r0)


def exp_profile(kappa: float, d: int, r0: float = 2.0, amp: float = 1.0,
                lower_c: float = 0.0, lower_theta: float = 0.5) -> WarpProfile:
    """f(r) = amp * exp(kappa r + lower_c r^lower_theta).

    An exponentially growing (hyperbolic-type) end; the optional lower-order
    term (lower_theta < 1) perturbs the exponential without moving the
    critical energy.
    """
    ka, A = float(kappa), float(amp)
    c, th = float(lower_c), float(lower_theta)
    if A <= 0:
        raise ContractError("amplitude must be positive")
    if c != 0.0 and not th < 1.0:
        raise ContractError("the lower-order exponent must satisfy theta < 1")

    def log_f(r):
        r = np.asarray(r, dtype=float)
        return math.log(A) + ka * r + c * r**th

    def log_chain(r):
        r = np.asarray(r, dtype=float)
        w = ka + c * th * r ** (th - 1.0)
        w1 = c * th * (th - 1.0) * r ** (th - 2.0)
        w2 = c * th * (th - 1.0) * (th - 2.0) * r ** (th - 3.0)
        w3 = c * th * (th - 1.0) * (th - 2.0) * (th - 3.0) * r ** (th - 4.0)
        return w, w1, w2, w3

    return WarpProfile(d=d, log_chain=log_chain, r0=r0, log_f=log_f)


def stretched_exp_profile(delta: float, theta: float, d: int,
                          r0: float = 2.0) -> WarpProfile:
    """f(r) = exp(delta r^theta), 0 < theta < 1: superpolynomial growth with
    vanishing asymptotic curvature, so the critical energy stays 0.  It is
    ``exp_profile`` with kappa = 0 and delta r^theta as its lower-order term."""
    if not (delta > 0.0 and 0.0 < theta < 1.0):
        raise ContractError("need delta > 0 and 0 < theta < 1")
    return exp_profile(0.0, d, r0, lower_c=delta, lower_theta=theta)


def hyperbolic_profile(d: int, r0: float = 2.0) -> WarpProfile:
    """f(r) = sinh(r)^2: the standard hyperbolic end (kappa = 2 at infinity)."""

    def log_chain(r):
        r = np.asarray(r, dtype=float)
        e2 = np.exp(-2.0 * r)           # stable for large r
        coth = (1.0 + e2) / (1.0 - e2)
        csch2 = 4.0 * e2 / (1.0 - e2) ** 2
        w = 2.0 * coth
        w1 = -2.0 * csch2
        w2 = 4.0 * csch2 * coth
        w3 = -8.0 * csch2 * coth**2 - 4.0 * csch2**2
        return w, w1, w2, w3

    def log_f(r):
        r = np.asarray(r, dtype=float)
        # ln sinh^2 r, stable for large r
        return 2.0 * (r + np.log1p(-np.exp(-2.0 * r)) - math.log(2.0))

    return WarpProfile(d=d, log_chain=log_chain, r0=r0, log_f=log_f)


def const_profile(d: int = 1, r0: float = 2.0) -> WarpProfile:
    """f = 1: a cylinder (or, at d = 1, the bare half-line)."""

    def log_chain(r):
        z = np.zeros_like(np.asarray(r, dtype=float))
        return z, z, z, z

    return WarpProfile(d=d, f=lambda r: np.ones_like(np.asarray(r, float)),
                       log_chain=log_chain, r0=r0)


def tabulated_profile(r_table, f_table, d: int, r0: float = 2.0) -> WarpProfile:
    """Warp given by a table of (r, f) samples; the log-chain by centered differences."""
    rt = np.asarray(r_table, dtype=float)
    ft = np.asarray(f_table, dtype=float)
    if rt.ndim != 1 or rt.size < 5 or np.any(np.diff(rt) <= 0):
        raise ContractError("tabulated profile needs >= 5 strictly increasing radii")
    if np.any(~np.isfinite(ft)) or np.any(ft <= 0):
        raise EvaluationError("tabulated warp must be finite and positive")
    w_t = np.gradient(ft, rt) / ft
    w1_t = np.gradient(w_t, rt)
    w2_t = np.gradient(w1_t, rt)
    w3_t = np.gradient(w2_t, rt)

    def log_chain(r):
        r = np.asarray(r, dtype=float)
        return (np.interp(r, rt, w_t), np.interp(r, rt, w1_t),
                np.interp(r, rt, w2_t), np.interp(r, rt, w3_t))

    return WarpProfile(d=d, f=lambda r: np.interp(np.asarray(r, float), rt, ft),
                       log_chain=log_chain, r0=r0)


def geometric_split(profile: WarpProfile, V_long=None, dV_long=None,
                    d2V_long=None, V_short=None) -> PotentialSplit:
    """Natural splitting q1 = V_long + q_geom (= q11), q22 = V_short.

    Covers every built-in model: the geometric term and any smooth long-range
    part go into q1 = q11, a bounded compactly-supported or short-range part
    into q22.  A long-range part comes with both its radial derivatives,
    which enter dq1 = dq11 and d2q11.
    """
    given = [p is not None for p in (V_long, dV_long, d2V_long)]
    if any(given) and not all(given):
        raise ContractError("a long-range potential needs V_long, dV_long and d2V_long")
    vl = V_long or _ZERO
    dvl = dV_long or _ZERO
    d2vl = d2V_long or _ZERO
    vs = V_short or _ZERO

    def q1(r):
        g0, _, _ = q_geom_chain(profile, r)
        return np.asarray(vl(r), dtype=float) + g0

    def dq1(r):
        _, g1, _ = q_geom_chain(profile, r)
        return np.asarray(dvl(r), dtype=float) + g1

    def d2q11(r):
        _, _, g2 = q_geom_chain(profile, r)
        return np.asarray(d2vl(r), dtype=float) + g2

    def V(r):
        return np.asarray(vl(r), dtype=float) + np.asarray(vs(r), dtype=float)

    return PotentialSplit(
        V=V, q1=q1, dq1=dq1, dq11=dq1, d2q11=d2q11,
        q22=lambda r: np.asarray(vs(r), dtype=float),
    )
