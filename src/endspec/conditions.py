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

The rows of the q1 decay and refined split lines come from one table
(``_SPLIT_ROWS``) that lists them in this order; the other rows of a
warped model hold by construction (``_vacuous``) apart from convexity and
the mean-curvature bound.

Every inequality is certified on a geometric grid, never symbolically: a
decaying bound v <= C r^{-e} holds when the dyadic block maxima of v r^e
stop growing, and the reported constant is the inflated worst value.  sigma
is found by bisection below ``EXPONENT_CAP`` = 8, the one search cap of every
exponent; tau, rho', rho are certified at that cap when possible and
otherwise proposed by a log-log slope fit over the last two dyadic decades
(``fit_decay``) and re-certified.  The derived quantities are the critical
energy lambda0 (tail sup of q1) and beta_c = min{sigma, tau, rho} / 2.

The same report type carries the pointwise checks for two-dimensional
escape functions on obstacle domains (finite-difference gradient/Hessian
with Richardson extrapolation, 2x2 eigenvalue test of the convexity bound,
decay of |dr|^2 - 1, and an inward-pointing test along sampled boundary
points).  The escape checker works on arrays: every ring is sampled at
once, and every boundary crossing takes the same bisection step at once, so
the membership predicate is called once per step, not once per point.  The
lengths |(x, y)| alone are taken point by point with ``math.hypot``, which
rounds differently from ``np.hypot`` and so keeps the reports' bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

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
# the largest sigma, tau, rho' and rho a check extracts (the search cap)
EXPONENT_CAP = 8.0


def combine_verdicts(verdicts) -> str:
    """The verdict of a set of verdicts: "fail" beats "inconclusive" beats
    "pass", and an empty set decides nothing ("inconclusive")."""
    verdicts = set(verdicts)
    if "fail" in verdicts:
        return "fail"
    if "inconclusive" in verdicts or not verdicts:
        return "inconclusive"
    return "pass"


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
    lambda0: float
    grid_meta: dict = field(default_factory=dict)

    @property
    def constant(self) -> float:
        """C: the largest finite positive row constant (1.0 when none is)."""
        return float(max((r.constant for r in self.rows
                          if np.isfinite(r.constant) and r.constant > 0.0), default=1.0))

    @property
    def beta_c(self) -> float:
        """beta_c = min{sigma, tau, rho} / 2."""
        return 0.5 * min(self.sigma, self.tau, self.rho)

    def overall(self) -> str:
        return combine_verdicts(r.verdict for r in self.rows)

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


# the smallest R^2 of a log-log fit whose slope a verdict may rest on
FIT_R2_MIN = 0.9


def loglog_fit(u, v):
    """Least-squares line through (log u, log v): (slope, intercept, R^2)."""
    x, y = np.log(u), np.log(v)
    slope, intercept = np.polyfit(x, y, 1)
    yhat = slope * x + intercept
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - float(np.sum((y - yhat) ** 2)) / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), float(r2)


def fit_decay(rr, values):
    """Log-log slope and R^2 of positive values over the last
    ``_FIT_DECADES`` dyadic decades below ``rr[-1]``; (None, None) when
    fewer than 8 points remain."""
    lo = rr[-1] / 2.0**_FIT_DECADES
    band = (rr >= lo) & (values > 1e-280)
    if np.count_nonzero(band) < 8:
        return None, None
    slope, _, r2 = loglog_fit(rr[band], values[band])
    return slope, r2


def _vacuous(name, rr, margin=float("inf"), constant=0.0):
    """A row that holds by construction, witnessed at the horizon."""
    return InequalityRow(name=name, verdict="pass", margin=margin,
                         witness_r=float(rr[-1]), constant=constant)


def _decay_row(name, rr, values, exponent_of_param, floor_scale=1.0):
    """Certify a bound  values <= C r^{-e(param)}  and extract the best param.

    Tries ``EXPONENT_CAP`` first; if certification at the cap fails, proposes
    the parameter from a log-log fit and backs off until a certified value is
    found.  Returns (InequalityRow, best_param).
    """
    values = np.asarray(values, dtype=float)
    if np.max(values) <= _FLOOR * floor_scale:
        return _vacuous(name, rr), EXPONENT_CAP
    ok, C, witness = _certify_decay(rr, values, exponent_of_param(EXPONENT_CAP))
    slope, r2 = fit_decay(rr, values)
    if ok:
        return InequalityRow(name=name, verdict="pass", margin=0.0,
                             witness_r=witness, constant=C,
                             exponent=slope, r_squared=r2), EXPONENT_CAP
    if slope is None:
        return InequalityRow(name=name, verdict="inconclusive", margin=0.0,
                             witness_r=witness, constant=C,
                             exponent=None, r_squared=None), 0.0
    # invert e(param) = -slope by monotone backoff from the cap
    param = EXPONENT_CAP
    target = -slope
    # e is affine increasing in param for every bound we use; solve directly
    e_lo, e_hi = exponent_of_param(0.0), exponent_of_param(EXPONENT_CAP)
    if e_hi > e_lo:
        frac = (target - e_lo) / (e_hi - e_lo)
        param = max(0.0, min(EXPONENT_CAP, EXPONENT_CAP * frac))
    for _ in range(24):
        ok, C, witness = _certify_decay(rr, values, exponent_of_param(param))
        if ok:
            break
        param *= 0.9
    verdict = "pass" if ok and param > 0.0 else (
        "inconclusive" if (r2 is not None and r2 < FIT_R2_MIN) else
        ("pass" if ok else "fail"))
    return InequalityRow(name=name, verdict=verdict, margin=0.0 if ok else -1.0,
                         witness_r=witness, constant=C, exponent=slope,
                         r_squared=r2), param


def _sigma_search(rr, deficit, iterations):
    """Largest sigma in [1e-6, ``EXPONENT_CAP``] whose convexity deficit
    ``deficit(sigma)`` is bounded by C r^{-_TAU_PROBE} on the radii ``rr``,
    by ``iterations`` bisection steps.

    Returns 0.0 when even sigma = 1e-6 fails and the cap when it passes.
    """

    def passes(sigma):
        return _bounded_tail(rr, deficit(sigma) * rr**_TAU_PROBE)

    if not passes(1e-6):
        return 0.0
    lo, hi = 1e-6, EXPONENT_CAP
    if passes(EXPONENT_CAP):
        return EXPONENT_CAP
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        if passes(mid):
            lo = mid
        else:
            hi = mid
    # shave by the growth-test insensitivity band so the report never sits
    # above a sharp threshold
    return max(lo - 1e-9 * max(lo, 1.0), 0.0)


# ---------------------------------------------------------------------------
# warped-model checker
# ---------------------------------------------------------------------------

# The splitting rows in report order, one per inequality of the q1 decay
# and refined split lines of the module docstring: (name, the bounded
# quantity of the sampled splitting q, the exponent e(p) of its bound
# quantity <= C r^{-e(p)}, the exponent p the row bounds: rho' or rho).
_SPLIT_ROWS = (
    ("grad_q1_upper", lambda q: np.maximum(q["dq1"], 0.0), lambda p: 1.0 + p, "rho_prime"),
    ("q2_decay", lambda q: np.abs(q["q2"]), lambda p: 1.0 + p, "rho_prime"),
    ("grad_q11", lambda q: np.abs(q["dq11"]), lambda p: 0.5 * (1.0 + 0.5 * p), "rho"),
    ("grad2_q11", lambda q: np.abs(q["d2q11"]), lambda p: 1.0 + 0.5 * p, "rho"),
    ("grad_q12", lambda q: np.abs(q["dq12"]), lambda p: 1.0 + 0.5 * p, "rho"),
    ("q21_decay", lambda q: np.abs(q["q21"]), lambda p: p, "rho"),
    ("grad_q21", lambda q: np.abs(q["dq21"]), lambda p: 1.0 + p, "rho"),
    ("q21_grad_q11_upper", lambda q: np.maximum(q["q21"] * q["dq11"], 0.0),
     lambda p: 1.0 + p, "rho"),
    ("q22_decay", lambda q: np.abs(q["q22"]), lambda p: 1.0 + 0.5 * p, "rho"),
)


def check_conditions(profile: WarpProfile, potential: PotentialSplit,
                     grid: np.ndarray | None = None) -> ConditionReport:
    """Verify the warped-model conditions and extract the best constants.

    The report carries one row per inequality (worst margin and witness), the
    extracted sigma, tau, rho', rho, the uniform constant, lambda0 and
    beta_c = min{sigma, tau, rho} / 2.
    """
    rr = condition_grid() if grid is None else np.asarray(grid, dtype=float)
    if rr[0] < 1.0 or np.any(np.diff(rr) <= 0):
        raise ContractError("condition grid must increase within [1, horizon]")
    pt = geometry_at(profile, rr)

    # --- convexity: r f'/(2 f) >= sigma/2 - C r^{-tau} on the ell-block -----
    # (vacuous at d = 1: the tangent bundle has no tangential directions)
    lhs = rr * pt.ell_coeff

    def deficit(sigma):
        return np.maximum(sigma / 2.0 - lhs, 0.0)

    sigma = EXPONENT_CAP if profile.d == 1 else _sigma_search(rr, deficit, 48)
    if profile.d == 1:
        convexity, tau = _vacuous("convexity", rr), EXPONENT_CAP
    elif sigma <= 0.0:
        j = int(np.argmax(deficit(1e-6)[-rr.size // 4:])) + rr.size - rr.size // 4
        convexity = InequalityRow(
            name="convexity", verdict="fail", margin=float(lhs[j] - 0.5e-6),
            witness_r=float(rr[j]), constant=float("nan"))
        tau = 0.0
    else:
        row, tau = _decay_row("convexity", rr, deficit(sigma), lambda t: t)
        convexity = replace(row, margin=float(np.min(
            lhs - sigma / 2.0 + row.constant * rr**(-max(tau, 1e-9)))))

    # --- regularity bounds --------------------------------------------------
    ok, C_mc, witness = _certify_decay(rr, pt.delta_r, 0.0)
    rows = [convexity, _vacuous("dr2_bounded", rr, 0.0, 1.0),
            _vacuous("grad_dr2_decay", rr),
            InequalityRow(name="mean_curvature_bounded",
                          verdict="pass" if ok else "fail",
                          margin=0.0 if ok else -1.0, witness_r=witness,
                          constant=C_mc),
            _vacuous("tangential_grad_mean_curvature", rr)]

    # --- q1 / q2 decay and the refined splitting ----------------------------
    q = {name: np.asarray(getattr(potential, name)(rr), dtype=float)
         for name in ("q1", "dq1", "q2", "dq11", "d2q11", "dq12", "q21", "dq21",
                      "q22")}
    scale = 1.0 + float(np.max(np.abs(q["q1"])))
    split = [(bounds, *_decay_row(name, rr, quantity(q), exponent_of, scale))
             for name, quantity, exponent_of, bounds in _SPLIT_ROWS]
    rows += [row for _, row, _ in split]
    rho_prime = min(p for bounds, _, p in split if bounds == "rho_prime")
    rho = min(p for bounds, _, p in split if bounds == "rho")
    rows.append(_vacuous("tangential_grad_dr2", rr))

    ce = critical_energy(profile, potential)
    return ConditionReport(
        rows=rows, sigma=float(sigma), tau=float(tau),
        rho_prime=float(rho_prime), rho=float(rho), lambda0=ce.value,
        grid_meta={"grid_points": int(rr.size), "horizon": float(rr[-1]),
                   "sigma_cap": EXPONENT_CAP, "tau_cap": EXPONENT_CAP,
                   "rho_cap": EXPONENT_CAP,
                   "lambda0_residual": ce.residual,
                   "lambda0_converged": ce.converged})


# ---------------------------------------------------------------------------
# two-dimensional escape functions on obstacle domains
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EscapeField2D:
    """Candidate escape function on a planar domain.

    ``r_fn`` maps (x, y) arrays to r-values; ``domain`` is the membership
    predicate, elementwise on (x, y) arrays of any shape.  Sampling happens on geometric rings in the ambient radius
    between ``_RING_MIN`` and ``ring_max`` with ``_N_ANGLES`` points per ring.
    """

    name: str
    r_fn: Callable
    domain: Callable
    ring_max: float = 512.0

    def conditions(self) -> ConditionReport:
        """The field's condition report, as ``Model.conditions`` gives a model's."""
        return check_escape_2d(self)


# inner sampling ring of an escape field, and the points per ring
_RING_MIN = 4.0
_N_ANGLES = 48
# the RELATIVE finite-difference step: the actual step at a sample scales
# with its ring radius, which keeps the rounding error of the second
# differences flat across rings.  Richardson extrapolation (steps h and h/2)
# controls the truncation error; margins below the rounding floor
# ~ eps / _FD_STEP^2 (``_NOISE_FLOOR``) are treated as zero.
_FD_STEP = 1e-3
_NOISE_FLOOR = 1e3 * np.finfo(float).eps / _FD_STEP**2


def _fd_gradient(field, x, y, h):
    gx = (field.r_fn(x + h, y) - field.r_fn(x - h, y)) / (2.0 * h)
    gy = (field.r_fn(x, y + h) - field.r_fn(x, y - h)) / (2.0 * h)
    return gx, gy


def _fd_hessian(field, x, y, h):
    r = field.r_fn
    hxx = (r(x + h, y) - 2.0 * r(x, y) + r(x - h, y)) / h**2
    hyy = (r(x, y + h) - 2.0 * r(x, y) + r(x, y - h)) / h**2
    hxy = (r(x + h, y + h) - r(x + h, y - h) - r(x - h, y + h)
           + r(x - h, y - h)) / (4.0 * h**2)
    return hxx, hxy, hyy


def _richardson(fd, field, x, y, h):
    """The stencil ``fd`` (gradient or Hessian, each O(h^2)) extrapolated from
    the steps h and h/2."""
    a, b = fd(field, x, y, h), fd(field, x, y, 0.5 * h)
    return tuple((4.0 * bb - aa) / 3.0 for aa, bb in zip(a, b))


def _in_domain(field, x, y):
    return np.asarray(field.domain(x, y), dtype=bool)


# |(x, y)| point by point: np.hypot differs from math.hypot in the last bit
# on about 0.5% of inputs, which would move the boundary bytes
_hypot = np.vectorize(math.hypot, otypes=[float])


def _sample_points(field: EscapeField2D):
    """The in-domain samples of every ring, their FD steps, and the number of
    samples dropped because an FD probe leaves the domain."""
    n_rings = int(math.ceil(math.log2(field.ring_max / _RING_MIN))) * 2 + 1
    radii = np.geomspace(_RING_MIN, field.ring_max, n_rings)[:, None]
    th = np.linspace(0.0, 2.0 * math.pi, _N_ANGLES, endpoint=False)
    x, y = radii * np.cos(th), radii * np.sin(th)
    pad = 40.0 * _FD_STEP * radii
    ok = _in_domain(field, x, y)
    # every FD probe must stay inside the domain
    for sx, sy in ((1, 0), (-1, 0), (0, 1), (0, -1),
                   (1, 1), (-1, -1), (1, -1), (-1, 1)):
        ok &= _in_domain(field, x + sx * pad, y + sy * pad)
    h = np.broadcast_to(_FD_STEP * radii, x.shape)
    return x[ok], y[ok], h[ok], int(np.count_nonzero(~ok))


def _boundary_samples(field: EscapeField2D):
    """Boundary points (bx, by) with an inward unit normal (nx, ny), as arrays.

    The candidates are the first four membership flips of each of ten rings.
    Each is bisected along its ring's arc of radius rho and along the nearby
    arcs 0.98 rho and 1.02 rho; every crossing takes the same bisection step
    at once, one membership call per step.  The tangent is the secant
    through the crossings on the nearby arcs, and the inward side of the
    resulting normal is identified by probing the membership predicate.  A
    candidate is dropped when its membership pattern differs on a nearby arc
    or its two probes agree.  Forward completeness is an at-infinity
    statement, so only boundary points beyond twice the inner ring are
    sampled.  The secant's length is ``math.hypot`` point by point, the
    rounding the reports were recorded with.
    """
    th = np.linspace(0.0, 2.0 * math.pi, 160, endpoint=False)
    radii = np.geomspace(2.0 * _RING_MIN, field.ring_max, 10)[:, None]
    inside = _in_domain(field, radii * np.cos(th), radii * np.sin(th))
    flip = inside != np.roll(inside, -1, axis=1)
    ring, j = np.nonzero(flip & (np.cumsum(flip, axis=1) <= 4))
    rho = radii[ring, 0]
    t_lo, t_hi = th[j], th[(j + 1) % th.size]
    t_hi = np.where(t_hi < t_lo, t_hi + 2.0 * math.pi, t_hi)
    t_in = np.where(inside[ring, j], t_lo, t_hi)
    t_out = np.where(inside[ring, j], t_hi, t_lo)
    arcs = np.stack([rho * 0.98, rho, rho * 1.02])
    # the membership pattern must match on the nearby arcs
    near = arcs[[0, 2]]
    keep = np.all(_in_domain(field, near * np.cos(t_in), near * np.sin(t_in))
                  & ~_in_domain(field, near * np.cos(t_out), near * np.sin(t_out)),
                  axis=0)
    t_in, t_out = np.broadcast_to(t_in, arcs.shape), np.broadcast_to(t_out, arcs.shape)
    for _ in range(48):
        t_mid = 0.5 * (t_in + t_out)
        ok = _in_domain(field, arcs * np.cos(t_mid), arcs * np.sin(t_mid))
        t_in, t_out = np.where(ok, t_mid, t_in), np.where(ok, t_out, t_mid)
    cx, cy = arcs * np.cos(t_in), arcs * np.sin(t_in)
    bx, by = cx[1], cy[1]
    # the nearby arcs lie 0.04 rho apart, so the secant never degenerates
    tx, ty = cx[2] - cx[0], cy[2] - cy[0]
    tn = _hypot(tx, ty)
    nx, ny = -ty / tn, tx / tn
    probe = 4.0 * _FD_STEP * np.maximum(rho, 1.0)
    plus = _in_domain(field, bx + probe * nx, by + probe * ny)
    minus = _in_domain(field, bx - probe * nx, by - probe * ny)
    keep &= plus != minus
    nx, ny = np.where(plus, nx, -nx), np.where(plus, ny, -ny)
    return bx[keep], by[keep], nx[keep], ny[keep]


def check_escape_2d(field: EscapeField2D) -> ConditionReport:
    """Pointwise verification of a candidate two-dimensional escape function.

    Checks r >= 1 and finiteness, boundedness of |dr|^2, the decay exponent
    of |dr|^2 - 1, the convexity bound through a 2x2 eigenvalue test of the
    Richardson-extrapolated Hessian, the wide-step tangential gradient of
    Delta r (reduced confidence: third differences), and the inward-pointing
    test at sampled boundary points.
    """
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

    gx, gy = _richardson(_fd_gradient, field, x, y, h)
    dr2 = gx**2 + gy**2
    rows.append(InequalityRow(
        name="dr2_bounded", verdict="pass" if np.max(dr2) < 1e3 else "fail",
        margin=0.0, witness_r=float(rv[np.argmax(dr2)]),
        constant=float(np.max(dr2))))

    dev = np.abs(dr2 - 1.0)
    order = np.argsort(rv)
    # a deviation under the FD truncation floor 25 _FD_STEP^2 is not fitted
    slope, r2 = (None, None) if np.max(dev) <= 25.0 * _FD_STEP**2 \
        else fit_decay(rv[order], dev[order])
    rows.append(InequalityRow(
        name="dr2_minus_one_decay",
        verdict="pass" if slope is None or slope < -0.5 else "inconclusive",
        margin=0.0, witness_r=float(rv[np.argmax(dev)]),
        constant=float(np.max(dev)),
        exponent=None if slope is None else -slope, r_squared=r2))

    # convexity via the 2x2 eigenvalue test
    hxx, hxy, hyy = _richardson(_fd_hessian, field, x, y, h)
    # grad^r |dr|^2 = 2 (grad r)^T Hess(r) grad r, exact identity (no nested FD)
    grad_r_dr2 = 2.0 * (gx * (hxx * gx + hxy * gy) + gy * (hxy * gx + hyy * gy))
    # the effective Hessian Heff and the tangential projector ell
    corr = 0.5 * grad_r_dr2 / np.maximum(dr2, 1e-30) ** 2
    exx = hxx - corr * gx * gx
    exy = hxy - corr * gx * gy
    eyy = hyy - corr * gy * gy
    lxx = 1.0 - gx * gx / np.maximum(dr2, 1e-30)
    lxy = -gx * gy / np.maximum(dr2, 1e-30)
    lyy = 1.0 - gy * gy / np.maximum(dr2, 1e-30)
    rr_sorted = rv[order]

    def deficit_of_sigma(sigma):
        # lambda_max( sigma/2 |dr|^2 ell - r Heff ) per sample, by radius
        mxx = 0.5 * sigma * dr2 * lxx - rv * exx
        mxy = 0.5 * sigma * dr2 * lxy - rv * exy
        myy = 0.5 * sigma * dr2 * lyy - rv * eyy
        tr, det = mxx + myy, mxx * myy - mxy * mxy
        disc = np.sqrt(np.maximum(0.25 * tr * tr - det, 0.0))
        return np.maximum(0.5 * tr + disc - _NOISE_FLOOR, 0.0)[order]

    sigma = _sigma_search(rr_sorted, deficit_of_sigma, 40)
    if sigma <= 0.0:
        rows.append(InequalityRow(name="convexity", verdict="fail",
                                  margin=-1.0, witness_r=float(np.max(rv)),
                                  constant=float("nan")))
        tau = 0.0
    else:
        row, tau = _decay_row("convexity", rr_sorted, deficit_of_sigma(sigma),
                              lambda t: t)
        # bisection can overshoot the sharp threshold by O(horizon^-2), which
        # poisons the decay fit with a constant deficit; shave sigma until a
        # certifiable tau appears and report the conservative pair
        if tau < 0.5:
            for shave in (3e-4, 1e-3, 3e-3, 1e-2):
                sig2 = sigma * (1.0 - shave)
                row2, tau2 = _decay_row("convexity", rr_sorted,
                                        deficit_of_sigma(sig2), lambda t: t)
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
    third = np.maximum(third - _NOISE_FLOOR, 0.0)
    row3, _ = _decay_row("tangential_grad_mean_curvature", rr_sorted,
                         third[order], lambda t: 1.0 + 0.5 * t)
    rows.append(replace(row3, confidence="reduced"))

    # boundary inward test
    bx, by, nx, ny = _boundary_samples(field)
    if bx.size:
        hb = _FD_STEP * np.maximum(_hypot(bx, by), 1.0)
        gxb, gyb = _fd_gradient(field, bx, by, hb)
        val = gxb * nx + gyb * ny
        k = int(np.argmin(val))
        rbx = float(field.r_fn(bx[[k]], by[[k]])[0])
        rows.append(InequalityRow(
            name="boundary_inward", verdict="pass" if val[k] > -1e-6 else "fail",
            margin=float(val[k]), witness_r=rbx, constant=float(bx.size)))
    else:
        rows.append(InequalityRow(name="boundary_inward", verdict="pass",
                                  margin=float("inf"), witness_r=0.0,
                                  constant=0.0))

    return ConditionReport(
        rows=rows, sigma=float(sigma), tau=float(tau),
        rho_prime=EXPONENT_CAP, rho=EXPONENT_CAP, lambda0=0.0,
        grid_meta={"samples": int(x.size), "skipped": int(skipped),
                   "fd_step": _FD_STEP, "field": field.name})


# --- built-in example fields ------------------------------------------------

def disk_complement_field() -> EscapeField2D:
    """Plane minus the closed unit disk with the exact distance r = |x|."""
    return EscapeField2D(
        name="disk_complement",
        r_fn=lambda x, y: np.sqrt(np.asarray(x) ** 2 + np.asarray(y) ** 2),
        domain=lambda x, y: np.asarray(x) ** 2 + np.asarray(y) ** 2 > 1.0)


def hyperbola_field(K: float = 3.0) -> EscapeField2D:
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
        domain=lambda x, y: np.asarray(x) * np.asarray(y) < 1.0)


def sawtooth_field(K: float = 1.0) -> EscapeField2D:
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
                         ring_max=256.0)
