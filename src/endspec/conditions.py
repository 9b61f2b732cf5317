"""Numerical verification of the structural conditions and constant extraction.

For a warped-product model the abstract inequalities collapse to scalar
bounds along the radius:

  convexity      r f'/(2 f) >= sigma/2 - C r^{-tau}        (tangential block;
                 the radial block is automatic since Hess r has no dr (x) dr
                 component and |dr| = 1)
  regularity     |dr|^2 <= C,  grad^r |dr|^2 = 0,  Delta r <= C,
                 tangential gradient of Delta r = 0
  q1 decay       grad^r q1 <= C r^{-1-rho'},  |q2| <= C r^{-1-rho'}
  refined split  |q11'| <= C r^{-(1+rho/2)/2},   |q11''| <= C r^{-1-rho/2},
                 |q12'| <= C r^{-1-rho/2},       |q21|  <= C r^{-rho},
                 |q21'| <= C r^{-1-rho},          q21 q11' <= C r^{-1-rho},
                 |q22| <= C r^{-1-rho/2}

Every inequality is certified on a geometric grid, never symbolically: a
decaying bound v <= C r^{-e} holds when the dyadic block maxima of v r^e
stop growing, and the reported constant is the inflated worst value.  sigma
is found by bisection; tau, rho', rho are certified at their caps when
possible and otherwise proposed by a log-log slope fit over the last two
dyadic decades and re-certified.  The derived quantities are the critical
energy lambda0 (tail sup of q1) and beta_c = min{sigma, tau, rho} / 2.

The same report type carries the pointwise checks for two-dimensional
escape functions on obstacle domains (finite-difference gradient/Hessian
with Richardson extrapolation, 2x2 eigenvalue test of the convexity bound,
decay of |dr|^2 - 1, and an inward-pointing test along sampled boundary
points).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .cutoffs import CutoffSpec
from .errors import ContractError, EvaluationError
from .geometry import (TAIL_HORIZON, PotentialSplit, WarpProfile,
                       critical_energy, geometry_at)
from .tableio import write_csv

_FLOOR = 1e-13
_GROWTH_SLACK = 1.05
# dyadic decades at the horizon that a decay exponent is fitted over
_FIT_DECADES = 2
# the decay exponent the sigma search allows the convexity deficit
_TAU_PROBE = 0.25


@dataclass(frozen=True)
class Caps:
    """Search caps for the extracted constants."""

    sigma_max: float = 8.0
    tau_max: float = 8.0
    rho_prime_max: float = 8.0
    rho_max: float = 8.0


@dataclass(frozen=True)
class InequalityRow:
    name: str
    verdict: str                 # pass | fail | inconclusive
    margin: float                # worst signed margin (>= 0 is good)
    witness_r: float
    constant: float
    exponent: float | None = None
    r_squared: float | None = None
    confidence: str = "full"     # "reduced" for wide-step FD checks


@dataclass
class ConditionReport:
    rows: list
    sigma: float
    tau: float
    rho_prime: float
    rho: float
    constant: float
    lambda0: float
    beta_c: float
    grid_meta: dict = field(default_factory=dict)

    def overall(self) -> str:
        verdicts = {r.verdict for r in self.rows}
        if "fail" in verdicts:
            return "fail"
        if "inconclusive" in verdicts:
            return "inconclusive"
        return "pass"

    def to_csv(self, path, extra_meta: dict | None = None) -> None:
        meta = {
            "report": "conditions",
            "sigma": self.sigma, "tau": self.tau,
            "rho_prime": self.rho_prime, "rho": self.rho,
            "constant": self.constant, "lambda0": self.lambda0,
            "beta_c": self.beta_c, "overall": self.overall(),
        }
        meta.update(self.grid_meta)
        if extra_meta:
            meta.update(extra_meta)
        cols = ["inequality", "verdict", "margin", "witness_r",
                "constant", "exponent", "r_squared", "confidence"]
        rows = [[r.name, r.verdict, r.margin, r.witness_r, r.constant,
                 "" if r.exponent is None else r.exponent,
                 "" if r.r_squared is None else r.r_squared,
                 r.confidence] for r in self.rows]
        write_csv(path, meta, cols, rows)


def condition_grid(per_block: int = 48) -> np.ndarray:
    """Geometric radius grid covering [1, ``TAIL_HORIZON``], dyadic blocks."""
    n_blocks = int(math.ceil(math.log2(TAIL_HORIZON)))
    parts = [np.geomspace(2.0**k, 2.0**(k + 1), per_block, endpoint=False)
             for k in range(n_blocks)]
    rr = np.concatenate(parts + [[TAIL_HORIZON]])
    return rr[rr <= TAIL_HORIZON]


def _block_maxima(rr, values):
    """Dyadic block maxima.

    A final block covering < 60% of its span is separated out: it is too
    short to participate in the octave trend, but its maximum still counts
    as growth evidence (returned third).
    """
    nu = np.floor(np.log2(rr)).astype(int)
    out_nu = np.unique(nu)
    mx = np.array([np.max(values[nu == n]) for n in out_nu])
    partial = None
    if out_nu.size > 1:
        last = out_nu[-1]
        span = np.max(rr[nu == last]) - 2.0**last
        if span < 0.6 * 2.0**last:
            partial = float(mx[-1])
            out_nu, mx = out_nu[:-1], mx[:-1]
    return out_nu, mx, partial


def _bounded_tail(rr, values):
    """True if dyadic block maxima stop growing toward the horizon.

    Growth is judged cumulatively across the last few octaves so that slow
    but steady growth (a constant deficit under a mild power weight) is not
    mistaken for noise; a partially covered outermost block that jumps above
    the last full block counts as growth too.
    """
    _, mx, partial = _block_maxima(rr, values)
    if mx.size < 4:
        return True
    if partial is not None and partial > 1.1 * mx[-1] + _FLOOR \
            and partial > _FLOOR:
        return False
    if np.all(mx[-3:] <= _FLOOR):
        return True
    if mx.size >= 5:
        recent = np.max(mx[-2:])
        earlier = np.max(mx[-5:-2])
        return not recent > 1.1 * earlier + _FLOOR
    growing = mx[-2] > _GROWTH_SLACK * mx[-3] + _FLOOR \
        and mx[-1] > _GROWTH_SLACK * mx[-2] + _FLOOR
    return not growing


def _certify_decay(rr, values, exponent):
    """Certify values <= C r^{-exponent}: (ok, C, witness_r)."""
    s = values * rr**exponent
    ok = _bounded_tail(rr, s)
    j = int(np.argmax(s))
    C = float(max(s[j], 0.0)) * _GROWTH_SLACK + _FLOOR
    return ok, C, float(rr[j])


def loglog_fit(u, v):
    """Least-squares line through (log u, log v): (slope, intercept, R^2)."""
    x, y = np.log(u), np.log(v)
    slope, intercept = np.polyfit(x, y, 1)
    yhat = slope * x + intercept
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - float(np.sum((y - yhat) ** 2)) / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), float(r2)


def _fit_decay(rr, values):
    """Log-log slope of values over the last ``_FIT_DECADES`` dyadic decades."""
    lo = rr[-1] / 2.0**_FIT_DECADES
    band = (rr >= lo) & (values > 1e-280)
    if np.count_nonzero(band) < 8:
        return None, None, None
    slope, intercept, r2 = loglog_fit(rr[band], values[band])
    return slope, float(np.exp(intercept)), r2


def _decay_row(name, rr, values, exponent_of_param, param_cap, floor_scale=1.0):
    """Certify a bound  values <= C r^{-e(param)}  and extract the best param.

    Tries the cap first; if certification at the cap fails, proposes the
    parameter from a log-log fit and backs off until a certified value is
    found.  Returns (InequalityRow, best_param).
    """
    values = np.asarray(values, dtype=float)
    if np.max(values) <= _FLOOR * floor_scale:
        return InequalityRow(name=name, verdict="pass", margin=float("inf"),
                             witness_r=float(rr[-1]), constant=0.0,
                             exponent=None, r_squared=None), param_cap
    ok, C, witness = _certify_decay(rr, values, exponent_of_param(param_cap))
    if ok:
        slope, _, r2 = _fit_decay(rr, values)
        return InequalityRow(name=name, verdict="pass", margin=0.0,
                             witness_r=witness, constant=C,
                             exponent=slope, r_squared=r2), param_cap
    slope, _, r2 = _fit_decay(rr, values)
    if slope is None:
        return InequalityRow(name=name, verdict="inconclusive", margin=0.0,
                             witness_r=witness, constant=C,
                             exponent=None, r_squared=None), 0.0
    # invert e(param) = -slope by monotone backoff from the cap
    param = param_cap
    target = -slope
    # e is affine increasing in param for every bound we use; solve directly
    e_lo, e_hi = exponent_of_param(0.0), exponent_of_param(param_cap)
    if e_hi > e_lo:
        frac = (target - e_lo) / (e_hi - e_lo)
        param = max(0.0, min(param_cap, param_cap * frac))
    for _ in range(24):
        ok, C, witness = _certify_decay(rr, values, exponent_of_param(param))
        if ok:
            break
        param *= 0.9
    verdict = "pass" if ok and param > 0.0 else (
        "inconclusive" if (r2 is not None and r2 < 0.9) else
        ("pass" if ok else "fail"))
    return InequalityRow(name=name, verdict=verdict, margin=0.0 if ok else -1.0,
                         witness_r=witness, constant=C, exponent=slope,
                         r_squared=r2), param


# ---------------------------------------------------------------------------
# warped-model checker
# ---------------------------------------------------------------------------

def _largest_sigma(passes, sigma_max, iterations):
    """Largest sigma in [1e-6, sigma_max] with ``passes(sigma)``, by bisection.

    Returns 0.0 when even sigma = 1e-6 fails and sigma_max when it passes.
    """
    if not passes(1e-6):
        return 0.0
    lo, hi = 1e-6, sigma_max
    if passes(sigma_max):
        return sigma_max
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        if passes(mid):
            lo = mid
        else:
            hi = mid
    # shave by the growth-test insensitivity band so the report never sits
    # above a sharp threshold
    return max(lo - 1e-9 * max(lo, 1.0), 0.0)


def _sigma_search(rr, lhs, caps):
    """Largest sigma <= sigma_max with  sigma/2 - lhs <= C r^{-_TAU_PROBE}."""

    def passes(sigma):
        deficit = np.maximum(sigma / 2.0 - lhs, 0.0)
        return _bounded_tail(rr, deficit * rr**_TAU_PROBE)

    return _largest_sigma(passes, caps.sigma_max, 48)


def check_conditions(profile: WarpProfile, potential: PotentialSplit,
                     cutoffs: CutoffSpec | None = None,
                     grid: np.ndarray | None = None,
                     caps: Caps | None = None) -> ConditionReport:
    """Verify the warped-model conditions and extract the best constants.

    The report carries one row per inequality (worst margin and witness), the
    extracted sigma, tau, rho', rho, the uniform constant, lambda0 and
    beta_c = min{sigma, tau, rho} / 2.
    """
    caps = caps or Caps()
    if cutoffs is None:
        cutoffs = CutoffSpec(r0=profile.r0)
    rr = condition_grid() if grid is None else np.asarray(grid, dtype=float)
    if rr[0] < 1.0 or np.any(np.diff(rr) <= 0):
        raise ContractError("condition grid must increase within [1, horizon]")
    pt = geometry_at(profile, cutoffs, rr)
    rows: list[InequalityRow] = []

    # --- convexity: r f'/(2 f) >= sigma/2 - C r^{-tau} on the ell-block -----
    # (vacuous at d = 1: the tangent bundle has no tangential directions)
    lhs = rr * pt.ell_coeff
    sigma = caps.sigma_max if profile.d == 1 else _sigma_search(rr, lhs, caps)
    if profile.d == 1:
        rows.append(InequalityRow(name="convexity", verdict="pass",
                                  margin=float("inf"), witness_r=float(rr[-1]),
                                  constant=0.0))
        tau = caps.tau_max
        conv_C = 0.0
    elif sigma <= 0.0:
        deficit = np.maximum(1e-6 / 2.0 - lhs, 0.0)
        j = int(np.argmax(deficit[-rr.size // 4:])) + rr.size - rr.size // 4
        rows.append(InequalityRow(
            name="convexity", verdict="fail", margin=float(lhs[j] - 0.5e-6),
            witness_r=float(rr[j]), constant=float("nan")))
        tau = 0.0
        conv_C = float("nan")
    else:
        deficit = np.maximum(sigma / 2.0 - lhs, 0.0)
        row, tau = _decay_row("convexity", rr, deficit,
                              lambda t: t, caps.tau_max)
        conv_C = row.constant
        rows.append(InequalityRow(
            name="convexity", verdict=row.verdict,
            margin=float(np.min(lhs - sigma / 2.0 + row.constant * rr**(-max(tau, 1e-9)))),
            witness_r=row.witness_r, constant=row.constant,
            exponent=row.exponent, r_squared=row.r_squared))

    # --- regularity bounds --------------------------------------------------
    rows.append(InequalityRow(name="dr2_bounded", verdict="pass",
                              margin=0.0, witness_r=float(rr[-1]), constant=1.0))
    rows.append(InequalityRow(name="grad_dr2_decay", verdict="pass",
                              margin=float("inf"), witness_r=float(rr[-1]),
                              constant=0.0))
    ok, C_mc, witness = _certify_decay(rr, pt.delta_r, 0.0)
    rows.append(InequalityRow(
        name="mean_curvature_bounded", verdict="pass" if ok else "fail",
        margin=0.0 if ok else -1.0, witness_r=witness, constant=C_mc))
    rows.append(InequalityRow(name="tangential_grad_mean_curvature",
                              verdict="pass", margin=float("inf"),
                              witness_r=float(rr[-1]), constant=0.0))

    # --- q1 / q2 decay (first splitting) ------------------------------------
    dq1 = np.asarray(potential.dq1(rr), dtype=float)
    q2 = np.asarray(potential.q2(rr), dtype=float)
    scale = 1.0 + float(np.max(np.abs(np.asarray(potential.q1(rr)))))
    row1, rp1 = _decay_row("grad_q1_upper", rr, np.maximum(dq1, 0.0),
                           lambda p: 1.0 + p, caps.rho_prime_max, scale)
    row2, rp2 = _decay_row("q2_decay", rr, np.abs(q2),
                           lambda p: 1.0 + p, caps.rho_prime_max, scale)
    rows += [row1, row2]
    rho_prime = min(rp1, rp2)

    # --- refined splitting (second family) ----------------------------------
    dq11 = np.asarray(potential.dq11(rr), dtype=float)
    d2q11 = np.asarray(potential.d2q11(rr), dtype=float)
    dq12 = np.asarray(potential.dq12(rr), dtype=float)
    q21 = np.asarray(potential.q21(rr), dtype=float)
    dq21 = np.asarray(potential.dq21(rr), dtype=float)
    q22 = np.asarray(potential.q22(rr), dtype=float)
    rho_rows = [
        _decay_row("grad_q11", rr, np.abs(dq11),
                   lambda p: 0.5 * (1.0 + 0.5 * p), caps.rho_max, scale),
        _decay_row("grad2_q11", rr, np.abs(d2q11),
                   lambda p: 1.0 + 0.5 * p, caps.rho_max, scale),
        _decay_row("grad_q12", rr, np.abs(dq12),
                   lambda p: 1.0 + 0.5 * p, caps.rho_max, scale),
        _decay_row("q21_decay", rr, np.abs(q21),
                   lambda p: p, caps.rho_max, scale),
        _decay_row("grad_q21", rr, np.abs(dq21),
                   lambda p: 1.0 + p, caps.rho_max, scale),
        _decay_row("q21_grad_q11_upper", rr, np.maximum(q21 * dq11, 0.0),
                   lambda p: 1.0 + p, caps.rho_max, scale),
        _decay_row("q22_decay", rr, np.abs(q22),
                   lambda p: 1.0 + 0.5 * p, caps.rho_max, scale),
    ]
    rows += [r for r, _ in rho_rows]
    rho = min(p for _, p in rho_rows)
    rows.append(InequalityRow(name="tangential_grad_dr2", verdict="pass",
                              margin=float("inf"), witness_r=float(rr[-1]),
                              constant=0.0))

    ce = critical_energy(profile, potential, horizon=float(rr[-1]))
    constants = [r.constant for r in rows
                 if np.isfinite(r.constant) and r.constant > 0.0]
    bigC = max(constants) if constants else 1.0
    beta_c = 0.5 * min(sigma, tau, rho)
    report = ConditionReport(
        rows=rows, sigma=float(sigma), tau=float(tau),
        rho_prime=float(rho_prime), rho=float(rho), constant=float(bigC),
        lambda0=ce.value, beta_c=float(beta_c),
        grid_meta={"grid_points": int(rr.size), "horizon": float(rr[-1]),
                   "sigma_cap": caps.sigma_max, "tau_cap": caps.tau_max,
                   "rho_cap": caps.rho_max,
                   "lambda0_residual": ce.residual,
                   "lambda0_converged": ce.converged},
    )
    return report


# ---------------------------------------------------------------------------
# two-dimensional escape functions on obstacle domains
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EscapeField2D:
    """Candidate escape function on a planar domain.

    ``r_fn`` maps (x, y) arrays to r-values; ``domain`` is the membership
    predicate.  Sampling happens on geometric rings in the ambient radius
    between ``ring_min`` and ``ring_max`` with ``n_angles`` points per ring.
    ``fd_step`` is the RELATIVE finite-difference step: the actual step at a
    sample scales with its ring radius, which keeps the rounding error of
    the second differences flat across rings.  Richardson extrapolation
    (steps h and h/2) controls the truncation error; margins below the
    rounding floor ~ eps / fd_step^2 are treated as zero.
    """

    name: str
    r_fn: Callable
    domain: Callable
    ring_min: float = 4.0
    ring_max: float = 512.0
    n_angles: int = 48
    fd_step: float = 1e-3

    @property
    def noise_floor(self) -> float:
        return 1e3 * np.finfo(float).eps / self.fd_step**2


def _fd_gradient(field, x, y, h):
    gx = (field.r_fn(x + h, y) - field.r_fn(x - h, y)) / (2.0 * h)
    gy = (field.r_fn(x, y + h) - field.r_fn(x, y - h)) / (2.0 * h)
    return gx, gy


def _fd_gradient_richardson(field, x, y, h):
    ax, ay = _fd_gradient(field, x, y, h)
    bx, by = _fd_gradient(field, x, y, 0.5 * h)
    return (4.0 * bx - ax) / 3.0, (4.0 * by - ay) / 3.0


def _fd_hessian(field, x, y, h):
    r = field.r_fn
    hxx = (r(x + h, y) - 2.0 * r(x, y) + r(x - h, y)) / h**2
    hyy = (r(x, y + h) - 2.0 * r(x, y) + r(x, y - h)) / h**2
    hxy = (r(x + h, y + h) - r(x + h, y - h) - r(x - h, y + h)
           + r(x - h, y - h)) / (4.0 * h**2)
    return hxx, hxy, hyy


def _fd_hessian_richardson(field, x, y, h):
    a = _fd_hessian(field, x, y, h)
    b = _fd_hessian(field, x, y, 0.5 * h)
    return tuple((4.0 * bb - aa) / 3.0 for aa, bb in zip(a, b))


def _sample_points(field: EscapeField2D):
    n_rings = int(math.ceil(math.log2(field.ring_max / field.ring_min))) * 2 + 1
    radii = np.geomspace(field.ring_min, field.ring_max, n_rings)
    th = np.linspace(0.0, 2.0 * math.pi, field.n_angles, endpoint=False)
    xs, ys, hs, skipped = [], [], [], 0
    for rho in radii:
        x, y = rho * np.cos(th), rho * np.sin(th)
        pad = 40.0 * field.fd_step * rho
        ok = np.asarray(field.domain(x, y), dtype=bool)
        # every FD probe must stay inside the domain
        for dx, dy in ((pad, 0.0), (-pad, 0.0), (0.0, pad), (0.0, -pad),
                       (pad, pad), (-pad, -pad), (pad, -pad), (-pad, pad)):
            ok &= np.asarray(field.domain(x + dx, y + dy), dtype=bool)
        skipped += int(np.count_nonzero(~ok))
        xs.append(x[ok])
        ys.append(y[ok])
        hs.append(np.full(int(np.count_nonzero(ok)), field.fd_step * rho))
    return np.concatenate(xs), np.concatenate(ys), np.concatenate(hs), skipped


def _cross_on_arc(field: EscapeField2D, rho: float, t_in: float, t_out: float):
    """Bisect a domain-membership flip along the arc of radius rho."""
    for _ in range(48):
        t_mid = 0.5 * (t_in + t_out)
        if field.domain(np.array([rho * math.cos(t_mid)]),
                        np.array([rho * math.sin(t_mid)]))[0]:
            t_in = t_mid
        else:
            t_out = t_mid
    return t_in


def _boundary_samples(field: EscapeField2D):
    """Boundary points with an inward normal from a local secant.

    The boundary is located by bisection along circular arcs; the tangent is
    the secant through the crossings on two nearby arcs, and the inward side
    of the resulting normal is identified by probing the membership
    predicate.  Forward completeness is an at-infinity statement, so only
    boundary points beyond twice the inner ring are sampled.
    """
    pts = []
    th = np.linspace(0.0, 2.0 * math.pi, 160, endpoint=False)
    radii = np.geomspace(2.0 * field.ring_min, field.ring_max, 10)
    for rho in radii:
        x, y = rho * np.cos(th), rho * np.sin(th)
        inside = np.asarray(field.domain(x, y), dtype=bool)
        flips = np.nonzero(inside != np.roll(inside, -1))[0]
        for j in flips[:4]:
            t_lo, t_hi = th[j], th[(j + 1) % th.size]
            if t_hi < t_lo:
                t_hi += 2.0 * math.pi
            t_in, t_out = (t_lo, t_hi) if inside[j] else (t_hi, t_lo)
            crossings = []
            for rr_arc in (rho * 0.98, rho * 1.02):
                # the membership pattern must match on the nearby arc
                in_a = field.domain(np.array([rr_arc * math.cos(t_in)]),
                                    np.array([rr_arc * math.sin(t_in)]))[0]
                in_b = field.domain(np.array([rr_arc * math.cos(t_out)]),
                                    np.array([rr_arc * math.sin(t_out)]))[0]
                if not in_a or in_b:
                    crossings = []
                    break
                t_c = _cross_on_arc(field, rr_arc, t_in, t_out)
                crossings.append((rr_arc * math.cos(t_c), rr_arc * math.sin(t_c)))
            if len(crossings) != 2:
                continue
            t_c0 = _cross_on_arc(field, rho, t_in, t_out)
            bx, by = rho * math.cos(t_c0), rho * math.sin(t_c0)
            tx, ty = crossings[1][0] - crossings[0][0], crossings[1][1] - crossings[0][1]
            tn = math.hypot(tx, ty)
            if tn < 1e-12:
                continue
            nx, ny = -ty / tn, tx / tn
            probe = 4.0 * field.fd_step * max(rho, 1.0)
            plus = field.domain(np.array([bx + probe * nx]),
                                np.array([by + probe * ny]))[0]
            minus = field.domain(np.array([bx - probe * nx]),
                                 np.array([by - probe * ny]))[0]
            if plus == minus:
                continue
            if not plus:
                nx, ny = -nx, -ny
            pts.append((bx, by, nx, ny))
    return pts


def check_escape_2d(field: EscapeField2D, caps: Caps | None = None) -> ConditionReport:
    """Pointwise verification of a candidate two-dimensional escape function.

    Checks r >= 1 and finiteness, boundedness of |dr|^2, the decay exponent
    of |dr|^2 - 1, the convexity bound through a 2x2 eigenvalue test of the
    Richardson-extrapolated Hessian, the wide-step tangential gradient of
    Delta r (reduced confidence: third differences), and the inward-pointing
    test at sampled boundary points.
    """
    caps = caps or Caps()
    x, y, h, skipped = _sample_points(field)
    if x.size < 32:
        raise ContractError("too few in-domain samples; enlarge the ring range")
    rv = np.asarray(field.r_fn(x, y), dtype=float)
    if np.any(~np.isfinite(rv)):
        raise EvaluationError("escape function not finite on in-domain samples")
    rows: list[InequalityRow] = []
    n_below = int(np.count_nonzero(rv < 1.0 - 1e-9))
    rows.append(InequalityRow(
        name="r_at_least_one", verdict="pass" if n_below == 0 else "fail",
        margin=float(np.min(rv) - 1.0), witness_r=float(rv[np.argmin(rv)]),
        constant=float(skipped)))

    gx, gy = _fd_gradient_richardson(field, x, y, h)
    dr2 = gx**2 + gy**2
    rows.append(InequalityRow(
        name="dr2_bounded", verdict="pass" if np.max(dr2) < 1e3 else "fail",
        margin=0.0, witness_r=float(rv[np.argmax(dr2)]),
        constant=float(np.max(dr2))))

    dev = np.abs(dr2 - 1.0)
    order = np.argsort(rv)
    fd_floor = 25.0 * field.fd_step**2
    if np.max(dev) <= fd_floor:
        rows.append(InequalityRow(
            name="dr2_minus_one_decay", verdict="pass", margin=0.0,
            witness_r=float(rv[np.argmax(dev)]), constant=float(np.max(dev)),
            exponent=None, r_squared=None))
    else:
        slope, _, r2 = _fit_decay(rv[order], dev[order])
        rows.append(InequalityRow(
            name="dr2_minus_one_decay",
            verdict="pass" if slope is None or slope < -0.5 else "inconclusive",
            margin=0.0, witness_r=float(rv[np.argmax(dev)]),
            constant=float(np.max(dev)),
            exponent=None if slope is None else -slope, r_squared=r2))

    # convexity via the 2x2 eigenvalue test
    hxx, hxy, hyy = _fd_hessian_richardson(field, x, y, h)
    # grad^r |dr|^2 = 2 (grad r)^T Hess(r) grad r, exact identity (no nested FD)
    grad_r_dr2 = 2.0 * (gx * (hxx * gx + hxy * gy) + gy * (hxy * gx + hyy * gy))

    def deficit_of_sigma(sigma):
        # lambda_max( sigma/2 |dr|^2 ell - r Heff ) per sample
        corr = 0.5 * grad_r_dr2 / np.maximum(dr2, 1e-30) ** 2
        exx = hxx - corr * gx * gx
        exy = hxy - corr * gx * gy
        eyy = hyy - corr * gy * gy
        lxx = 1.0 - gx * gx / np.maximum(dr2, 1e-30)
        lxy = -gx * gy / np.maximum(dr2, 1e-30)
        lyy = 1.0 - gy * gy / np.maximum(dr2, 1e-30)
        mxx = 0.5 * sigma * dr2 * lxx - rv * exx
        mxy = 0.5 * sigma * dr2 * lxy - rv * exy
        myy = 0.5 * sigma * dr2 * lyy - rv * eyy
        tr, det = mxx + myy, mxx * myy - mxy * mxy
        disc = np.sqrt(np.maximum(0.25 * tr * tr - det, 0.0))
        return np.maximum(0.5 * tr + disc - field.noise_floor, 0.0)

    rr_sorted = rv[order]

    def passes(sigma):
        return _bounded_tail(rr_sorted, deficit_of_sigma(sigma)[order] * rr_sorted**0.25)

    sigma = _largest_sigma(passes, caps.sigma_max, 40)
    if sigma <= 0.0:
        rows.append(InequalityRow(name="convexity", verdict="fail",
                                  margin=-1.0, witness_r=float(np.max(rv)),
                                  constant=float("nan")))
        tau = 0.0
    else:
        row, tau = _decay_row("convexity", rr_sorted,
                              deficit_of_sigma(sigma)[order],
                              lambda t: t, caps.tau_max)
        # bisection can overshoot the sharp threshold by O(horizon^-2), which
        # poisons the decay fit with a constant deficit; shave sigma until a
        # certifiable tau appears and report the conservative pair
        if tau < 0.5:
            for shave in (3e-4, 1e-3, 3e-3, 1e-2):
                sig2 = sigma * (1.0 - shave)
                row2, tau2 = _decay_row("convexity", rr_sorted,
                                        deficit_of_sigma(sig2)[order],
                                        lambda t: t, caps.tau_max)
                if tau2 >= 0.5:
                    sigma, row, tau = sig2, row2, tau2
                    break
        rows.append(row)

    # wide-step third differences for the tangential gradient of Delta r
    tx, ty = -gy / np.sqrt(np.maximum(dr2, 1e-30)), gx / np.sqrt(np.maximum(dr2, 1e-30))
    s = 16.0 * h

    def lap(xx, yy):
        a = _fd_hessian(field, xx, yy, 2.0 * h)
        return a[0] + a[2]

    third = np.abs(lap(x + s * tx, y + s * ty) - lap(x - s * tx, y - s * ty)) / (2.0 * s)
    third = np.maximum(third - field.noise_floor, 0.0)
    row3, _ = _decay_row("tangential_grad_mean_curvature", rr_sorted,
                         third[order], lambda t: 1.0 + 0.5 * t, caps.tau_max)
    rows.append(InequalityRow(name=row3.name, verdict=row3.verdict,
                              margin=row3.margin, witness_r=row3.witness_r,
                              constant=row3.constant, exponent=row3.exponent,
                              r_squared=row3.r_squared, confidence="reduced"))

    # boundary inward test
    bpts = _boundary_samples(field)
    if bpts:
        worst, worst_pt = float("inf"), None
        for bx, by, nx, ny in bpts:
            hb = field.fd_step * max(math.hypot(bx, by), 1.0)
            gxb, gyb = _fd_gradient(field, np.array([bx]), np.array([by]), hb)
            val = float(gxb[0] * nx + gyb[0] * ny)
            if val < worst:
                worst, worst_pt = val, (bx, by)
        rbx = float(field.r_fn(np.array([worst_pt[0]]), np.array([worst_pt[1]]))[0])
        rows.append(InequalityRow(
            name="boundary_inward", verdict="pass" if worst > -1e-6 else "fail",
            margin=worst, witness_r=rbx, constant=float(len(bpts))))
    else:
        rows.append(InequalityRow(name="boundary_inward", verdict="pass",
                                  margin=float("inf"), witness_r=0.0,
                                  constant=0.0))

    beta_c = 0.5 * min(sigma, tau, caps.rho_max)
    return ConditionReport(
        rows=rows, sigma=float(sigma), tau=float(tau),
        rho_prime=float(caps.rho_prime_max), rho=float(caps.rho_max),
        constant=float(max((r.constant for r in rows
                            if np.isfinite(r.constant) and r.constant > 0), default=1.0)),
        lambda0=0.0, beta_c=float(beta_c),
        grid_meta={"samples": int(x.size), "skipped": int(skipped),
                   "fd_step": field.fd_step, "field": field.name})


# --- built-in example fields ------------------------------------------------

def disk_complement_field(fd_step: float = 1e-3) -> EscapeField2D:
    """Plane minus the closed unit disk with the exact distance r = |x|."""
    return EscapeField2D(
        name="disk_complement",
        r_fn=lambda x, y: np.sqrt(np.asarray(x) ** 2 + np.asarray(y) ** 2),
        domain=lambda x, y: np.asarray(x) ** 2 + np.asarray(y) ** 2 > 1.0,
        fd_step=fd_step)


def hyperbola_field(K: float = 3.0, fd_step: float = 1e-3) -> EscapeField2D:
    """Region xy < 1 with r^2 = x^2 + y^2 + K ln((y-x)^2 + 2), K > 2.

    With this normalization of the log term,

        (1/2) grad r^2 . grad(xy) = 2 - K + 2 K / (x^2 + y^2)

    on the boundary, which is negative for x^2 + y^2 > 2K/(K-2): the flow
    points inward far out, exactly the forward-completeness mechanism.
    """
    if K <= 2.0:
        raise ContractError("the hyperbola field needs K > 2")

    def r_fn(x, y):
        x, y = np.asarray(x, float), np.asarray(y, float)
        return np.sqrt(x**2 + y**2 + K * np.log((y - x) ** 2 + 2.0))

    return EscapeField2D(
        name="hyperbola",
        r_fn=r_fn,
        domain=lambda x, y: np.asarray(x) * np.asarray(y) < 1.0,
        fd_step=fd_step)


def sawtooth_field(K: float = 1.0, fd_step: float = 1e-3) -> EscapeField2D:
    """Saw-tooth region above y = K (x - [x]_-) / (1 + [x]_-), x > 0."""

    def floor_minus(x):
        x = np.asarray(x, dtype=float)
        near_int = np.isclose(x, np.round(x))
        return np.where(near_int, np.round(x) - 1.0, np.floor(x))

    def domain(x, y):
        x, y = np.asarray(x, float), np.asarray(y, float)
        fm = floor_minus(x)
        denom = np.where(1.0 + fm > 0.0, 1.0 + fm, 1.0)
        return (x > 0.0) & (fm >= 0.0) & (y > K * (x - fm) / denom)

    def r_fn(x, y):
        x, y = np.asarray(x, float), np.asarray(y, float)
        return np.sqrt(1.0 + x**2 + (y + K) ** 2)

    return EscapeField2D(name="sawtooth", r_fn=r_fn, domain=domain,
                         ring_min=4.0, ring_max=256.0, fd_step=fd_step)
