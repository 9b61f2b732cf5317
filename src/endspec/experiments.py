"""Theorem-level experiments on computed resolvents.

Each experiment runs a parameter sweep over per-mode resolvent solves and
emits a table with a recomputable verdict:

  lap_sweep            uniformity in Gamma of the four resolvent norms
                       ||phi||_B*, ||p^r phi||_B*, <p* h p>^{1/2}, ||H0 phi||_B*
                       against ||psi||_B
  radiation_sweep      uniformity of ||r^beta (A - a) phi||_B* and the
                       weighted quadratic form, plus the sign-discrimination
                       ratio against the wrong-sign quantity (A + a) phi
  hoelder_estimate     empirical Hoelder exponent of z -> R(z) between
                       weighted spaces, against the predicted floor
                       min{(2s-1)/(2s+1), beta_c/(beta_c+1)}
  sommerfeld_compare   Gamma-extrapolated shift solve vs the outgoing-row
                       solve at Gamma = 0, plus the decay of the radiation
                       profile (the uniqueness selection rule)
  besov_energy_check   the weighted energy inequality with the regularized
                       weight Theta = [1 - (1 + r/R_nu)^{-delta}] / delta

The constants in the underlying bounds are existential, so verdicts are
uniformity statements: "bounded" means the measured quantity varies by at
most the factor ``judges.BOUND_FACTOR`` = 2 across the swept decade.  Every
verdict is a ``judges`` function of the measured numbers.

Measurement conventions, recorded in every table header:

  * shift solves enlarge the domain until Gamma (R_max - 1) >=
    ``solver.ABSORPTION`` (wave absorbed before the Dirichlet wall), with
    R_max rounded up to a power of two so annuli stay aligned and doubled
    again where the grid's last node falls short of it, and the
    solver's guard refuses a lap or Besov-energy solve on a shorter one; the
    Hoelder pairs and the Sommerfeld shifts solve on the prefix of their
    domain that the wave reaches from where it is read (``_reach_prefix``),
    whose wall returns below e^{-39} of it, and a Hoelder pair's prefix is
    closed past its probes exactly (``closure``);
  * radiation-condition norms are taken over the radiation zone, the annuli
    at and beyond the first dyadic radius past both the source support and
    the phase threshold r_lambda (closer in, (A -+ a) phi is O(1) for both
    signs and carries no selection information);
  * profile-decay verdicts treat values below the finite-difference
    dispersion floor ~ k^3 h^2 / 8 as decayed.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .closure import far_field, frozen_from, tail_gram
from .conditions import loglog_fit
from .errors import ContractError
from .geometry import geometry_at
from .judges import (BOUND_FACTOR, HOELDER_SLACK, RADIATION_FLOOR, bounded_verdict,
                     gamma_uniformity, hoelder_verdict, sommerfeld_verdict)
from .models import Model
from .phase import _central_derivative, apply_A, grid_phase, r_lambda
from .radial import (FIRST_UNKNOWN, BesovProfile, RadialGrid,
                     assemble_mode_operators, besov_from_modes, l2_norm,
                     norm_weights, smooth_bump, weighted_norm)
from .solver import ABSORPTION, THRESHOLD_WINDOW, outgoing_row, resolve
from .tableio import write_csv


# ---------------------------------------------------------------------------
# probes, weights, tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Bump:
    """Smooth compactly supported radial probe, the default B-class source."""

    a: float = 2.0
    b: float = 3.0
    amplitude: float = 1.0

    def __post_init__(self):
        if not self.b > self.a:
            raise ContractError(f"a bump needs a < b, got a={self.a}, b={self.b}")

    def values(self, grid: RadialGrid) -> np.ndarray:
        """The probe on the grid (complex); the bump is evaluated on
        ``span(grid)`` only and every other node is zero."""
        v = np.zeros(grid.n, dtype=complex)
        span = self.span(grid)
        v[span] = self.amplitude * smooth_bump(grid.nodes[span], self.a, self.b)
        return v

    def span(self, grid: RadialGrid) -> slice:
        """Slice of the (increasing) nodes that holds the support (a, b),
        two nodes wider on each side so rounding at a and b stays inside;
        it is never empty."""
        lo, hi = np.searchsorted(grid.nodes, (self.a, self.b))
        return slice(max(int(lo) - 2, 0), int(hi) + 2)

    def normalized(self, grid: RadialGrid) -> np.ndarray:
        """The probe over its l2 norm on ``grid``; amplitude 0 is the null
        source and stays 0.  A support that leaves the grid's span, or a
        nonzero bump that is 0 on every node, is refused: the grid does not
        hold that source."""
        lo, hi = grid.nodes[0], grid.nodes[-1]
        if not (lo <= self.a and self.b <= hi):
            raise ContractError(f"the source's support ({self.a}, {self.b}) leaves "
                                f"the grid's span [{lo:.6g}, {hi:.6g}]")
        v = self.values(grid)
        n = l2_norm(v, grid)
        if n > 0:
            return v / n
        if self.amplitude != 0:
            raise ContractError(f"the source on ({self.a}, {self.b}) is 0 on every "
                                f"node of the grid (h = {grid.h})")
        return v


@dataclass(frozen=True)
class WeightSpec:
    """Regularized weight Theta = [1 - (1 + r/R_nu)^{-delta}] / delta.

    Theta' = (1 + r/R_nu)^{-1-delta} / R_nu > 0 and Theta'' <= 0, so Theta is
    increasing, concave and bounded by 1/delta.
    """

    delta: float
    nu: int

    def __post_init__(self):
        if not self.delta > 0:
            raise ContractError("delta must be positive")
        if self.nu < 0:
            raise ContractError("nu must be >= 0")

    @property
    def scale(self) -> float:
        return 2.0 ** self.nu

    def theta(self, r):
        s = np.asarray(r, dtype=float) / self.scale
        return (1.0 - (1.0 + s) ** (-self.delta)) / self.delta

    def dtheta(self, r):
        s = np.asarray(r, dtype=float) / self.scale
        return (1.0 + s) ** (-1.0 - self.delta) / self.scale

    def d2theta(self, r):
        s = np.asarray(r, dtype=float) / self.scale
        return -(1.0 + self.delta) * (1.0 + s) ** (-2.0 - self.delta) / self.scale**2


@dataclass
class SweepTable:
    """Rows of a parameter sweep; the verdict is recomputable from the rows."""

    name: str
    columns: list
    rows: list
    verdict: str
    meta: dict = field(default_factory=dict)

    def to_csv(self, path, extra_meta: dict | None = None) -> None:
        meta = {"experiment": self.name, "verdict": self.verdict}
        meta.update(self.meta)
        if extra_meta:
            meta.update(extra_meta)
        write_csv(path, meta, self.columns, self.rows)

    def column(self, name):
        j = self.columns.index(name)
        return np.asarray([row[j] for row in self.rows], dtype=float)


@dataclass(frozen=True)
class ComparisonReport:
    """Discrepancy between the Gamma-extrapolated shift solve and the
    outgoing-row solve of the same resolvent equation."""

    disc_weighted: float        # H_{-s} discrepancy (s = 1)
    disc_bstar: float
    rel_weighted: float
    radiation_slope: float | None
    extrapolation_gaps: tuple
    verdict: str
    meta: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# shared machinery
# ---------------------------------------------------------------------------

def _shift_grid(model: Model, gamma_min: float, h: float,
                base: float = 64.0) -> RadialGrid:
    """The grid of a shift-solve sweep whose smallest shift is ``gamma_min``.

    R, a power of two at least ``base`` and 1 + ``ABSORPTION`` / gamma_min,
    doubles until the built grid's last node, which the absorption guard
    reads, admits gamma_min.  That node falls short of R when h does not
    divide R - 1; rounding in log2 can leave R itself a few ulp short.
    """
    if not gamma_min > 0.0:
        raise ContractError(f"shift solves need Gamma > 0, got {gamma_min}")
    r_max = 2.0 ** math.ceil(math.log2(max(base, 1.0 + ABSORPTION / gamma_min)))
    grid = model.make_grid(r_max, h)
    while gamma_min * (grid.r_max - 1.0) < ABSORPTION:
        r_max *= 2.0
        grid = model.make_grid(r_max, h)
    return grid


def _mode_operators(model: Model, grid: RadialGrid, modes, z: complex,
                    background: tuple | None = None) -> dict:
    """mu -> the operator of each mode at z, all from one
    ``assemble_mode_operators`` call: from ``background`` = (GeometryPoint,
    V) on the whole grid, which the sweeps evaluate once for what they read
    (``_apply_pr``, ``_h_densities``), or block by block, the same bit for
    bit, with no GeometryPoint of the whole grid.  Other z reuse the
    diagonals through ``RadialOperator.shifted``."""
    mus = [mu for mu, _ in modes]
    return dict(zip(mus, assemble_mode_operators(model.profile, model.potential,
                                                 mus, grid, z, background=background)))


def _solve_modes(ops, z: complex, psi_vals, policy=None):
    """mu -> u and mu -> u' of each mode's solution at z: u' by the central
    stencil, taken once for every quantity built from it."""
    sols, dsols = {}, {}
    for mu, op in ops.items():
        u = resolve(op.shifted(z, policy), psi_vals).phi
        sols[mu], dsols[mu] = u, _central_derivative(u, op.grid.h)
    return sols, dsols


def _outgoing_solve(model: Model, grid: RadialGrid, ops, z: complex, sign: int,
                    psi_vals, r_lam: float):
    """Every mode's solve at z closed by ``outgoing_row`` (phi = R(lambda +
    i0) psi at real z and sign = +1): mu -> u, mu -> u', mu -> A u, and the
    phase ``grid_phase``(a, h) on the grid that (A -+ a) phi is taken with."""
    policy, ph = outgoing_row(model.profile, model.potential, grid, z, sign, r_lam)
    sols, dsols = _solve_modes(ops, z, psi_vals, policy)
    a_sols = {mu: apply_A(u, grid, dsols[mu]) for mu, u in sols.items()}
    return sols, dsols, a_sols, grid_phase(ph.a, grid.h)


def _radiation_remainders(a_sols, solutions, a_disc, sign_a, weight=None) -> dict:
    """(A - sign_a * a) phi of each mode from its A phi in ``a_sols``, times
    ``weight`` if given, with the two edge nodes masked: the derivative
    stencil is one-sided there and misses the discrete dispersion relation,
    so they carry pure discretization residue."""
    out = {}
    for mu, u in solutions.items():
        v = a_sols[mu] - sign_a * a_disc * u
        if weight is not None:
            v = weight * v
        v[0] = v[-1] = 0.0
        out[mu] = v
    return out


def _radiation_zone(r_lam: float, psi: Bump, grid: RadialGrid) -> int:
    """The first annulus of the radiation zone: that of the first dyadic
    radius past both the source support and the phase threshold r_lambda.
    A zone past ``grid``'s top annulus, where every norm reads 0, is refused."""
    nu = int(math.ceil(math.log2(max(r_lam, 2.0 * psi.b))))
    if nu > grid.top_annulus:
        raise ContractError(f"the radiation zone starts at annulus {nu}, past the "
                            f"grid's top annulus {grid.top_annulus}")
    return nu


def _apply_pr(grid: RadialGrid, pt, u, du):
    """p^r phi = -i (r' u' - (Delta r / 2) u) on reduced (density-flattened)
    functions (flattening keeps </>= norms); ``du`` is u'."""
    return -1j * (grid.dr * du - 0.5 * pt.delta_r * u)


def _h_densities(grid: RadialGrid, pt, report, solutions, derivatives) -> dict:
    """The density of <p_i* h^{ij} p_j>_phi of each mode (``_h_form``).

    Per mode, with m = (mu/f) |u|^2 and k = 2 C r^{-1-tau}, the density is

      max( (f'/(2f)) m + (curv + k) (|Du|^2 + m), 0 ),

    where curv = max((1 - eta) r'', 0) is the blended curvature of the
    escape function.  Warped ends have r'' = 0; the line has only mu = 0
    and f' = 0, so each keeps just its own terms.  It does not depend on
    the weight, so a sweep over weights takes it once per solution.
    """
    C, tau = report.constant, max(report.tau, 1e-6)
    rr = grid.radii
    curv_k = np.maximum((1.0 - pt.eta) * grid.d2r, 0.0) + 2.0 * C * rr ** (-1.0 - tau)
    out = {}
    for mu, u in solutions.items():
        du = derivatives[mu]
        mode_dens = (mu / pt.f) * np.abs(u) ** 2
        dens = pt.ell_coeff * mode_dens + curv_k * (np.abs(du) ** 2 + mode_dens)
        out[mu] = np.maximum(dens, 0.0)
    return out


def _h_form(grid: RadialGrid, densities, modes, weight=None, beta: float = 0.0):
    """<p_i* w r^{2 beta} h^{ij} p_j>_phi summed over modes with
    multiplicities: the integral of w r^{2 beta} times each mode's density
    (``_h_densities``)."""
    rr = grid.radii
    w = np.ones_like(rr) if weight is None else np.asarray(weight, dtype=float)
    w = grid.weights * (w * rr ** (2.0 * beta))
    total = 0.0
    for mu, mult in modes:
        total += mult * float(np.sum(w * densities[mu]))
    return total


def _mode_besov(grid, solutions, modes, nu_min=None) -> BesovProfile:
    prof = besov_from_modes([(solutions[mu], mult) for mu, mult in modes], grid)
    return prof if nu_min is None else prof.restrict(nu_min)


def _check_window(model: Model, lam: float):
    lam0 = model.lambda0()
    if not lam > lam0 + 1e-6:
        raise ContractError(
            f"lambda={lam} is not above the critical energy {lam0:.6g}")
    for t in model.thresholds:
        if abs(lam - t) < THRESHOLD_WINDOW:
            raise ContractError(f"lambda={lam} sits on the declared threshold {t}")
        if lam > t - THRESHOLD_WINDOW:
            raise ContractError(
                f"lambda={lam} is outside the certified window ({lam0:.3g}, {t:.3g})")
    return lam0


# experiment key -> (the test each value passes, the violation a value that
# fails it reports, {v} the value); a list is tested value by value.
# ``parse_config`` reports from this table and every experiment refuses its
# arguments by it at entry (``_require``), so a block and a library call are
# refused with one text.  nu <= 12 keeps the Besov energy grid, R = 2^(nu+2),
# inside geometry.TAIL_HORIZON = 2^14
INPUT_RULES = {
    "gammas": (lambda g: 0.0 < g < 1.0, "gamma values must lie in (0, 1), got {v}"),
    "betas": (lambda b: b >= 0.0, "beta values must be >= 0, got {v}"),
    "nus": (lambda nu: 0 <= nu <= 12, "nu values must lie in [0, 12], got {v}"),
    "gamma_top": (lambda v: v > 0.0, "gamma_top must be positive, got {v}"),
    "s": (lambda v: v > 0.5, "s must exceed 1/2, got {v}"),
    "sign": (lambda v: v in (1, -1), "sign must be +1 or -1"),
    "n_pairs": (lambda v: v >= 2, "n_pairs must be >= 2, got {v}"),
    "n_probes": (lambda v: v >= 1, "n_probes must be >= 1, got {v}"),
    "seed": (lambda v: v >= 0, "seed must be >= 0, got {v}"),
    "tol": (lambda v: v > 0.0, "tol must be positive, got {v}"),
}


def input_violations(values: dict, rules: dict = INPUT_RULES) -> list:
    """The violation texts of ``values`` (key -> a value or a list of them)
    under ``rules``, in the rules' order: each empty list, then each value
    its key's rule refuses.  A key the rules do not name is not tested."""
    out = [f"{key} needs at least one value" for key in rules if values.get(key) == []]
    for key, (accepts, violation) in rules.items():
        value = values.get(key, [])
        out += [violation.format(v=v) for v in (value if isinstance(value, list) else [value])
                if not accepts(v)]
    return out


def _require(**values):
    """Refuse the first of ``input_violations(values)``, if any."""
    errors = input_violations(values)
    if errors:
        raise ContractError(errors[0])


def fd_dispersion_floor(lam: float, h: float) -> float:
    """Size of the (A - a) residue of a pure discrete plane wave: ~ k^3 h^2 / 8."""
    k = math.sqrt(2.0 * max(lam, 0.0))
    return k**3 * h**2 / 8.0


# ---------------------------------------------------------------------------
# lap_sweep
# ---------------------------------------------------------------------------

def lap_sweep(model: Model, lam: float, gammas=(0.1, 0.01, 0.001),
              psi: Bump = Bump(), h: float = 0.05, base_r_max: float = 64.0,
              mode_cap: float = 6.5) -> SweepTable:
    """Measure the four resolvent norms across a Gamma-ladder at fixed lambda.

    The verdict is ``judges.gamma_uniformity`` of the four norms: "pass"
    when each varies by at most ``judges.BOUND_FACTOR`` across the ladder
    (the bound's constant is existential; only Gamma-uniformity is
    checkable), "inconclusive" on fewer than two distinct Gamma.
    """
    gammas = [float(g) for g in gammas]
    _require(gammas=gammas)
    gammas.sort()
    lam0 = _check_window(model, lam)
    report = model.conditions()
    grid = _shift_grid(model, gammas[0], h, base=base_r_max)
    psi_vals = psi.normalized(grid)
    modes = model.modes(mode_cap)
    psi_b = _mode_besov(grid, {mu: psi_vals for mu, _ in modes}, modes).b
    pt = geometry_at(model.profile, grid.radii)
    vvals = np.asarray(model.potential.V(grid.nodes), dtype=float)
    ops = _mode_operators(model, grid, modes, complex(lam, gammas[0]), (pt, vvals))

    rows = []
    for g in gammas:
        z = complex(lam, g)
        sols, dsols = _solve_modes(ops, z, psi_vals)
        phi_bstar = _mode_besov(grid, sols, modes).bstar
        pr_bstar = _mode_besov(
            grid, {mu: _apply_pr(grid, pt, u, dsols[mu]) for mu, u in sols.items()},
            modes).bstar
        h_form = _h_form(grid, _h_densities(grid, pt, report, sols, dsols), modes)
        h0_bstar = _mode_besov(
            grid, {mu: psi_vals + (z - vvals) * u for mu, u in sols.items()},
            modes).bstar
        # the absorption guard refuses every solve "unreliable" would flag
        rows.append([g, phi_bstar, pr_bstar, math.sqrt(max(h_form, 0.0)),
                     h0_bstar, psi_b, False])

    cols = ["gamma", "phi_bstar", "pr_phi_bstar", "h_form_sqrt",
            "h0_phi_bstar", "psi_b", "unreliable"]
    verdict, ratios = gamma_uniformity(gammas, {
        f"ratio_{name}": [row[j] for row in rows] for j, name in enumerate(cols[1:5], 1)})
    meta = {"model": model.name, "lambda": lam, "lambda0": lam0,
            "h": h, "r_max": grid.r_max, "bound_factor": BOUND_FACTOR,
            "modes": len(modes)}
    meta.update(ratios)
    return SweepTable(name="lap", columns=cols, rows=rows, verdict=verdict, meta=meta)


# ---------------------------------------------------------------------------
# radiation_sweep
# ---------------------------------------------------------------------------

def radiation_sweep(model: Model, lam: float, gammas=(0.1, 0.01, 0.001),
                    betas=(0.0, 0.5), psi: Bump = Bump(), h: float = 0.05,
                    base_r_max: float = 256.0, mode_cap: float = 6.5,
                    sign: int = +1) -> SweepTable:
    """Radiation-condition bounds across (Gamma, beta).

    Rows report ||r^beta (A - a) phi||_B* over the radiation zone, the
    weighted quadratic form, the reference ||r^beta psi||_B and the
    wrong-sign quantity ||(A + a) phi||_B*.  beta >= beta_c rows are kept but
    flagged exploratory.  The verdict is ``judges.gamma_uniformity`` of
    rad_bstar per beta over the rows inside the theorem, with the floor
    ``judges.RADIATION_FLOOR`` times the largest wrong-sign norm.

    The solves close the outer edge with the transparent outgoing row at
    z = lambda + i Gamma rather than Dirichlet truncation: a reflected wave,
    however small absolutely, is incoming, and the r^beta weight amplifies
    its wrong-sign content across the far annuli faster than the genuine
    remainder decays.
    """
    gammas, betas = [float(g) for g in gammas], [float(b) for b in betas]
    _require(gammas=gammas, betas=betas, sign=sign)
    gammas.sort()
    lam0 = _check_window(model, lam)
    report = model.conditions()
    grid = model.make_grid(base_r_max, h)
    psi_vals = psi.normalized(grid)
    modes = model.modes(mode_cap)
    r_lam = r_lambda(model.profile, model.potential, lam, lambda0=lam0)
    nu_far = _radiation_zone(r_lam, psi, grid)
    pt = geometry_at(model.profile, grid.radii)
    ops = _mode_operators(model, grid, modes, complex(lam, gammas[0]),
                          (pt, model.potential.V(grid.nodes)))
    weighted = []  # (beta, r^beta, ||r^beta psi||_B): none depends on Gamma
    for b in betas:
        w = grid.radii**b
        weighted.append((b, w, _mode_besov(grid, {mu: w * psi_vals for mu, _ in modes},
                                           modes).b))

    rows = []
    for g in gammas:
        sols, dsols, a_sols, a_disc = _outgoing_solve(
            model, grid, ops, complex(lam, g), sign, psi_vals, r_lam)
        dens = _h_densities(grid, pt, report, sols, dsols)
        wrong = _mode_besov(
            grid, _radiation_remainders(a_sols, sols, a_disc, -1), modes,
            nu_min=nu_far).bstar
        for b, w, psi_bnorm in weighted:
            right = _mode_besov(
                grid, _radiation_remainders(a_sols, sols, a_disc, +1, weight=w),
                modes, nu_min=nu_far).bstar
            h2b = _h_form(grid, dens, modes, beta=b)
            rows.append([g, b, right, math.sqrt(max(h2b, 0.0)), wrong,
                         psi_bnorm, b >= report.beta_c])

    cols = ["gamma", "beta", "rad_bstar", "h_form_sqrt", "wrong_sign_bstar",
            "psi_beta_b", "outside_theorem"]
    verdict, ratios = gamma_uniformity(gammas, {
        f"ratio_beta_{b:g}": [row[2] for row in rows if row[1] == b and not row[6]]
        for b in betas}, floor=RADIATION_FLOOR * max(row[4] for row in rows))
    row0 = next(row for row in rows if row[0] == gammas[0] and row[1] == min(betas))
    discrimination = row0[4] / row0[2] if row0[2] > 0 else float("inf")
    meta = {"model": model.name, "lambda": lam, "lambda0": lam0, "h": h,
            "r_max": grid.r_max, "beta_c": report.beta_c, "nu_far": nu_far,
            "sign": sign, "discrimination_at_gamma_min": discrimination,
            "fd_floor": fd_dispersion_floor(lam, h)}
    meta.update(ratios)
    return SweepTable(name="radiation", columns=cols, rows=rows, verdict=verdict,
                      meta=meta)


# ---------------------------------------------------------------------------
# hoelder_estimate
# ---------------------------------------------------------------------------

# probes sit in annuli 0 .. _PROBE_NU_MAX - 1 (fewer on short grids)
_PROBE_NU_MAX = 6


def probe_set(grid: RadialGrid, n_probes: int, seed: int):
    """Deterministic smooth bumps at distinct annuli."""
    rng = np.random.default_rng(seed)
    nu_hi = min(_PROBE_NU_MAX, grid.top_annulus - 1)
    nus = rng.choice(np.arange(0, max(nu_hi, 1)),
                     size=n_probes, replace=n_probes > nu_hi)
    probes = []
    for nu in nus:
        lo = 2.0**nu
        a = lo * (1.05 + 0.3 * rng.random())
        b = min(lo * (1.55 + 0.4 * rng.random()), 2.0 * lo * 0.98)
        probes.append(Bump(a=float(a), b=float(b)))
    return probes


def _probe_sources(probes, grid: RadialGrid, s: float):
    """(start, in-span values, ||psi||_{H_s}) of each probe on the grid.

    Each probe is built, and its H_s norm summed, on the section of the grid
    that its ``Bump.span`` covers, and ``_probe_diff`` solves for it as it
    is, (start, values): no full-grid probe is built.  The section's end
    weights are the grid's or fall on span nodes outside the support, where
    the probe is 0, so the norm is the whole grid's up to summation order.
    """
    sources = []
    for p in probes:
        span = p.span(grid)
        part = grid.section(span)
        vals = p.values(part)
        sources.append((span.start, vals, weighted_norm(vals, part, s)))
    return sources


def _probe_diff(ops, modes, z1, z2, sources, weights, fars, s: float) -> float:
    """max over probes of ||R(z1) psi - R(z2) psi||_{H_-s} / ||psi||_{H_s}.

    ``weights`` are the H_-s quadrature weights, ``norm_weights(grid, -s)``,
    of the domain the ``sources`` were taken on, over at least the nodes
    before each mode's F, and ``fars`` maps each mode to its F there
    (``frozen_from``).  ``ops`` may be a prefix of that domain: its
    interior weights, the probes' spans and a wall past F are the same; a
    prefix whose wall is at or before F scans its own tail.  Every probe
    lies on nodes < J, the first node past all their spans, so each (mode,
    z) takes its far field once and solves every probe in one block on
    nodes <= J (``resolve``); past J
    a probe's difference, e G1 + c2 D, has the weighted sum of squares
    |e|^2 S_11 + |c2|^2 S_DD + 2 Re(e conj(c2) S_1D) (``closure``).

    Raises ``ContractError`` when no unknown of the grid lies past J.
    """
    junction = max(start + vals.size for start, vals, _ in sources)
    op0 = ops[modes[0][0]]
    if junction + 1 > FIRST_UNKNOWN + op0.n_unknowns - 1:
        raise ContractError(
            f"no unknown of the {op0.grid.n}-node grid lies past node {junction}, "
            "the first node past every probe's support")
    near_w = weights[:junction]
    probes = [(start, vals) for start, vals, _ in sources]
    num_sq = np.zeros(len(sources))
    for mu, mult in modes:
        far = fars[mu]
        if far >= ops[mu].grid.n - 1:
            far = frozen_from(ops[mu], junction)
        field1 = far_field(ops[mu].shifted(z1), junction, far)
        field2 = far_field(ops[mu].shifted(z2), junction, far)
        s_11, s_dd, s_1d = tail_gram(field1, field2, weights, s)
        sols = zip(resolve(field1.near, probes), resolve(field2.near, probes))
        for k, (sol1, sol2) in enumerate(sols):
            u1, u2 = sol1.phi, sol2.phi
            c2 = u2[junction]
            e = u1[junction] - c2
            near = np.abs(u1[:junction] - u2[:junction]) ** 2
            tail = (abs(e) ** 2 * s_11 + abs(c2) ** 2 * s_dd
                    + 2.0 * (e * c2.conjugate() * s_1d).real)
            num_sq[k] += mult * (float(near_w @ near) + tail)
    return max(math.sqrt(sq) / denom for sq, (_, _, denom) in zip(num_sq, sources))


# a shift solve's domain leaves the round trip of its wave from where it is
# read to the Dirichlet wall and back below e^{-_ROUND_TRIP_DECAY}
_ROUND_TRIP_DECAY = 39.0


def _reach_prefix(grid: RadialGrid, ops, modes, lam: float, r_from: float):
    """Gamma -> the operators on the shortest prefix of ``grid`` on which
    a shift solve at lambda + i Gamma has, up to ``r_from``, the values of an
    endless domain.

    The prefix ends at the first node at or beyond the reach
    r_from + ``_ROUND_TRIP_DECAY`` / (2 kappa), with
    kappa = Im sqrt(2 (lambda + i Gamma - w_min)) and w_min the smallest
    entry of the lowest mode's potential diagonal at and beyond r_from
    (mu/(2f) >= 0 only raises the others): kappa bounds the decay rate of
    every mode's wave there from below, so a Dirichlet wall at the reach
    returns below e^{-_ROUND_TRIP_DECAY} of it to r_from.  A reach past the
    last node gives ``ops`` themselves; a prefix's operators carry its grid,
    and both are views of the whole grid and its potential diagonals.
    Needs Gamma > 0.
    """
    # modes are sorted by mu, and the lowest mode's diagonal is the lowest
    w_min = float(np.min(ops[modes[0][0]].potential_diag[
        np.searchsorted(grid.nodes, r_from):]))

    def prefix(gamma: float):
        kappa = cmath.sqrt(2.0 * complex(lam - w_min, gamma)).imag
        end = int(np.searchsorted(grid.nodes, r_from + _ROUND_TRIP_DECAY / (2.0 * kappa)))
        if end >= grid.n - 1:
            return ops
        grid_p = grid.prefix(end + 1)
        return {mu: op.on_prefix(grid_p) for mu, op in ops.items()}
    return prefix


def hoelder_estimate(model: Model, lam: float, s: float = 1.0, gamma_top: float = 0.064,
                     n_pairs: int = 4, n_probes: int = 8, seed: int = 0,
                     h: float = 0.02, mode_cap: float = 0.5) -> SweepTable:
    """Empirical Hoelder exponent of the resolvent in weighted operator norm.

    Pairs (z, z') = (lambda + i Gamma, lambda + i Gamma/2) on a geometric
    Gamma-ladder of ``n_pairs`` >= 2 pairs; the measured operator quantity
    is the max over ``n_probes`` >= 1 probes, drawn from ``seed`` >= 0, of
    || R(z) psi - R(z') psi ||_{H_{-s}} / || psi ||_{H_s}.  The verdict is
    ``judges.hoelder_verdict`` of the fitted exponent against the predicted
    floor min{(2s-1)/(2s+1), beta_c/(beta_c+1)}.

    The shared domain (``meta["r_max"]``) absorbs the smallest Gamma/2,
    Gamma (R_max - 1) >= ``ABSORPTION``; the probes, their H_s norms and the
    potential diagonals are taken on it once, the diagonals block by block
    with no geometry of the whole grid (``_mode_operators``), and so is each
    mode's F.  Each pair then solves on the prefix of it that its slower
    wave (Gamma/2) reaches from the outermost probe support r_src
    (``_reach_prefix``): up to the first node at or beyond
    r_src + 39 / (2 kappa), kappa = Im sqrt(2 (lambda + i Gamma/2 - w_min)),
    so the reflection off the wall returns below e^{-39}; a pair whose reach
    lies past the shared grid solves on all of it, closed past the probes by
    its far fields (``_probe_diff``).  The H_-s weights are formed once, on
    the shared grid's nodes before F.  The values equal those of solving
    every probe of every pair on the shared domain to roundoff, not bit for
    bit: 1.9e-11 relative at worst against the recorded values of criterion
    7's ladder over probe seeds 0-31.
    """
    _require(s=s, gamma_top=gamma_top, n_pairs=n_pairs, n_probes=n_probes, seed=seed)
    lam0 = _check_window(model, lam)
    report = model.conditions()
    gammas = [gamma_top * 0.25**j for j in range(n_pairs)]
    grid = _shift_grid(model, gammas[-1] / 2.0, h)
    modes = model.modes(mode_cap)
    probes = probe_set(grid, n_probes, seed)
    sources = _probe_sources(probes, grid, s)
    ops = _mode_operators(model, grid, modes, complex(lam, gammas[0]))
    prefix = _reach_prefix(grid, ops, modes, lam, max(p.b for p in probes))
    # the H_-s weights of the nodes any pair sums node by node: before F,
    # which on no prefix lies past F of the shared grid
    junction = max(start + vals.size for start, vals, _ in sources)
    fars = {mu: frozen_from(op, junction) for mu, op in ops.items()}
    far = max(fars.values())
    weights = norm_weights(grid.prefix(far + 1), -s)[:far]

    def pair_diff(g):
        # the pair's grid and operators are released on return, before the
        # next pair's are built; the slower wave of the pair is at Gamma/2
        return _probe_diff(prefix(0.5 * g), modes, complex(lam, g),
                           complex(lam, 0.5 * g), sources, weights, fars, s)

    rows = [[g, 0.5 * g, pair_diff(g)] for g in gammas]

    slope, _, r2 = loglog_fit([row[0] - row[1] for row in rows],
                              [row[2] for row in rows])
    floor = min((2.0 * s - 1.0) / (2.0 * s + 1.0),
                report.beta_c / (report.beta_c + 1.0))
    meta = {"model": model.name, "lambda": lam, "lambda0": lam0, "s": s,
            "epsilon_emp": slope, "r_squared": r2,
            "predicted_floor": floor, "slack": HOELDER_SLACK, "h": h,
            "r_max": grid.r_max, "n_probes": n_probes, "seed": seed}
    return SweepTable(name="hoelder", columns=["gamma", "gamma_prime", "diff_norm"],
                      rows=rows, verdict=hoelder_verdict(slope, r2, floor), meta=meta)


# ---------------------------------------------------------------------------
# sommerfeld_compare
# ---------------------------------------------------------------------------

def _richardson_gamma(grid, ops, lam, gamma_top, psi, modes, grid_w):
    """Three-point, order-1 Richardson extrapolation of shift solves in Gamma.

    ``ops`` are the modes' operators on the long ``grid`` (any z: each solve
    shifts them), built once by the caller, whose window solve takes views
    of them.  The source ``psi`` is given as its support on ``grid``, a
    (start node, values) pair that lies inside the comparison window, so
    every prefix below holds it.
    Each shift Gamma = ``gamma_top`` * (1, 1/2, 1/4) solves and is verified
    on the shortest prefix of the long ``grid`` that its wave reaches from
    the window edge r_w (``_reach_prefix``): up to its first node at or
    beyond r_w + ``_ROUND_TRIP_DECAY`` / (2 kappa), the whole grid when that
    lies past its end.  Only the first ``grid_w.n`` nodes of each solution
    (the comparison window) are kept, so the extrapolation, keyed by mu, is
    returned on the window.  A trimmed solve differs from the whole-domain
    one on the window by the wall's e^{-39}-small echo, i.e. by roundoff.
    Convergence is diagnosed in the windowed H_{-1} norm (the comparison
    norm); the raw whole-domain difference is dominated by the
    Gamma-dependent absorption tail and says nothing about the window.
    """
    n_w = grid_w.n
    prefix = _reach_prefix(grid, ops, modes, lam, grid_w.nodes[-1])
    sols = []
    for f in (1.0, 0.5, 0.25):
        z = complex(lam, gamma_top * f)
        sols.append({mu: resolve(op.shifted(z), psi,
                                 allow_unabsorbed=True).phi[:n_w].copy()
                     for mu, op in prefix(gamma_top * f).items()})
    extrap, gaps = {}, []
    for mu, _ in modes:
        extrap[mu] = 2.0 * sols[2][mu] - sols[1][mu]
        gaps.append((weighted_norm(sols[1][mu] - sols[0][mu], grid_w, -1.0),
                     weighted_norm(sols[2][mu] - sols[1][mu], grid_w, -1.0)))
    return extrap, gaps


def sommerfeld_compare(model: Model, lam: float, psi: Bump = Bump(),
                       beta: float = 0.0, sign: int = +1, h: float = 0.01,
                       window_r_max: float = 64.0, gamma_top: float = 2e-3,
                       tol: float = 1e-4, mode_cap: float = 0.5) -> ComparisonReport:
    """Outgoing-row solve vs Gamma-extrapolated shift solve.

    The two solutions are compared in the H_{-1} and B* norms on the common
    window [inner edge, window_r_max]; both use the same step h, so the
    interior discretization cancels and the discrepancy isolates the
    boundary treatment.  The verdict (``judges.sommerfeld_verdict``)
    additionally requires the radiation profile of (A - sign * a) phi to
    decay beyond the source (values under the dispersion floor count as
    decayed).

    The operators are assembled once, on the long domain, block by block
    (``_mode_operators``); the window is its first nodes, and the outgoing
    solve takes views of their diagonals.  The shift solves need
    ``gamma_top`` > 0.  Each runs on the prefix of the long domain that its
    wave reaches from the window edge
    (``_richardson_gamma``, by the reach rule of the Hoelder pairs), which
    agrees with the whole-domain solve on the window to roundoff.  On
    criterion 8's setting only the top shift is trimmed, and it enters only
    ``extrapolation_gaps``: the discrepancies and the verdict are those of
    whole-domain solves bit for bit, and the gaps move by roundoff
    (9.3e-12 relative).  Both solves take one source, ``psi`` normalised on
    the window, so its support must lie inside the window (``Bump.normalized``).
    """
    _require(gamma_top=gamma_top, sign=sign, tol=tol)
    lam0 = _check_window(model, lam)
    modes = model.modes(mode_cap)

    grid_w = model.make_grid(window_r_max, h)
    psi_w = psi.normalized(grid_w)
    r_lam = r_lambda(model.profile, model.potential, lam, lambda0=lam0)
    nu_far = _radiation_zone(r_lam, psi, grid_w)

    k = math.sqrt(2.0 * (lam - lam0))
    need = 1.0 + 12.0 * k / (2.0 * (gamma_top / 4.0))
    r_big = 2.0 ** math.ceil(math.log2(max(need, 2.0 * window_r_max)))
    # the window grid is the long grid's first grid_w.n nodes: the long
    # grid's operators, assembled once, serve the window solve as views, and
    # the shift solves take the outgoing solve's source as its span there
    grid = model.make_grid(r_big, h)
    ops = _mode_operators(model, grid, modes, complex(lam, gamma_top))
    out_sols, _, a_sols, a_disc = _outgoing_solve(
        model, grid_w, {mu: op.on_prefix(grid_w) for mu, op in ops.items()},
        complex(lam), sign, psi_w, r_lam)
    span = psi.span(grid_w)
    extrap, gaps = _richardson_gamma(grid, ops, lam, gamma_top,
                                     (span.start, psi_w[span]), modes, grid_w)

    disc_sq, ref_sq, disc_bstar_funcs = 0.0, 0.0, []
    for mu, mult in modes:
        diff = extrap[mu] - out_sols[mu]
        disc_sq += mult * weighted_norm(diff, grid_w, -1.0) ** 2
        ref_sq += mult * weighted_norm(out_sols[mu], grid_w, -1.0) ** 2
        disc_bstar_funcs.append((diff, mult))
    disc = math.sqrt(disc_sq)
    rel = disc / math.sqrt(ref_sq) if ref_sq > 0 else 0.0
    disc_bstar = besov_from_modes(disc_bstar_funcs, grid_w).bstar

    remainders = _radiation_remainders(a_sols, out_sols, a_disc, sign)
    rad_prof = _mode_besov(grid_w, remainders, modes, nu_min=nu_far)
    slope = rad_prof.tail_slope()
    phi_scale = _mode_besov(grid_w, out_sols, modes).bstar
    verdict = sommerfeld_verdict(
        disc, tol, gaps, rad_prof.bstar,
        2.0 * fd_dispersion_floor(lam, h) * max(phi_scale, 1.0), slope)
    return ComparisonReport(
        disc_weighted=float(disc), disc_bstar=float(disc_bstar),
        rel_weighted=float(rel),
        radiation_slope=None if slope is None else float(slope),
        extrapolation_gaps=tuple(gaps), verdict=verdict,
        meta={"model": model.name, "lambda": lam, "beta": beta, "sign": sign,
              "h": h, "window_r_max": window_r_max, "r_big": r_big,
              "gamma_top": gamma_top, "tol": tol, "nu_far": nu_far})


# ---------------------------------------------------------------------------
# besov_energy_check
# ---------------------------------------------------------------------------

# the cutoff indices n of chi_n tried, smallest first
_N_CANDIDATES = (0, 1, 2, 3, 4)


def besov_energy_check(model: Model, lam: float,
                       gammas=(0.1, 0.1 / math.sqrt(10.0), 0.1 / 10.0),
                       psi: Bump = Bump(), delta: float | None = None,
                       nus=(0, 1, 2, 3, 4, 5, 6), h: float = 0.05,
                       mode_cap: float = 6.5) -> SweepTable:
    """Weighted energy inequality on computed resolvent states.

    For each annulus scale nu and each Gamma of ``gammas`` the two sides are

      lhs = ||Theta'^{1/2} phi||^2 + ||Theta'^{1/2} A phi||^2 + <p* Theta h p>
      rhs = ||phi||_B* ||psi||_B + ||A phi||_B* ||psi||_B
            + ||chi_n Theta^{1/2} phi||^2

    and the extracted constant is C(nu, Gamma) = lhs / rhs.  The verdict is
    "pass" when some n from ``_N_CANDIDATES`` makes C uniform within
    ``judges.BOUND_FACTOR`` across all rows (``judges.bounded_verdict``);
    the smallest workable n is reported.
    """
    gammas, nus = [float(g) for g in gammas], [int(nu) for nu in nus]
    _require(gammas=gammas, nus=nus)
    gammas.sort()
    lam0 = _check_window(model, lam)
    report = model.conditions()
    delta_cap = min(1.0, report.rho_prime, report.tau / 2.0)
    if delta is None:
        delta = 0.75 * delta_cap
    if not 0.0 < delta < delta_cap:
        raise ContractError(
            f"delta must lie in (0, min(1, rho', tau/2)) = (0, {delta_cap:.3g})")
    grid = _shift_grid(model, gammas[0], h, base=max(64.0, 2.0 ** (max(nus) + 2)))
    psi_vals = psi.normalized(grid)
    modes = model.modes(mode_cap)
    psi_bnorm = _mode_besov(grid, {mu: psi_vals for mu, _ in modes}, modes).b
    rr = grid.radii

    pt = geometry_at(model.profile, rr)
    ops = _mode_operators(model, grid, modes, complex(lam, gammas[0]),
                          (pt, model.potential.V(grid.nodes)))
    states = {}
    for g in gammas:
        sols, dsols = _solve_modes(ops, complex(lam, g), psi_vals)
        a_sols = {mu: apply_A(u, grid, dsols[mu]) for mu, u in sols.items()}
        states[g] = (sols, a_sols,
                     _mode_besov(grid, sols, modes).bstar,
                     _mode_besov(grid, a_sols, modes).bstar,
                     _h_densities(grid, pt, report, sols, dsols))

    nu_mid = sorted(nus)[len(nus) // 2]
    # Theta and w Theta' per scale; they do not depend on Gamma or n
    thetas = []
    for nu in nus:
        w = WeightSpec(delta=delta, nu=nu)
        thetas.append((nu, w.theta(rr), grid.weights * w.dtheta(rr)))

    def rows_for_n(n):
        chi_w = grid.weights * np.asarray(model.profile.cutoffs.chi_n(rr, n), dtype=float)**2
        scales = [(nu, th, w_dth, chi_w * th) for nu, th, w_dth in thetas]
        out = []
        for g in gammas:
            sols, a_sols, phi_bstar, a_bstar, dens = states[g]
            for nu, th, w_dth, w_chi_th in scales:
                lhs = 0.0
                cut_term = 0.0
                for mu, mult in modes:
                    u, au = sols[mu], a_sols[mu]
                    lhs += mult * float(np.sum(w_dth * (np.abs(u)**2 + np.abs(au)**2)))
                    cut_term += mult * float(np.sum(w_chi_th * np.abs(u)**2))
                lhs += _h_form(grid, dens, modes, weight=th)
                rhs = (phi_bstar + a_bstar) * psi_bnorm + cut_term
                out.append([g, nu, n, lhs, rhs,
                            lhs / rhs if rhs > 0.0 else 0.0])
        return out

    def aggregated_spread(rows):
        # The bound is one-sided, so a small constant at some scale is
        # compliance, not violation.  Checked are (i) two-sided uniformity of
        # the per-Gamma extracted constant max_nu lhs/rhs across the decade
        # (the Gamma -> 0 content of the inequality), and (ii) that extending
        # the scale range does not inflate the constant (stability in nu).
        c_g = [max(row[5] for row in rows if row[0] == g) for g in gammas]
        s_gamma = max(c_g) / min(c_g) if min(c_g) > 0 else float("inf")
        c_all = max(row[5] for row in rows)
        c_small = max(row[5] for row in rows if row[1] <= nu_mid)
        s_nu = c_all / c_small if c_small > 0 else float("inf")
        return max(s_gamma, s_nu)

    chosen_n, chosen_rows, spread = None, None, float("inf")
    for n in _N_CANDIDATES:
        rows = rows_for_n(n)
        ratio = aggregated_spread(rows)
        if chosen_rows is None or ratio < spread:
            spread, chosen_rows, chosen_n = ratio, rows, n
        if ratio <= BOUND_FACTOR:
            break
    meta = {"model": model.name, "lambda": lam, "lambda0": lam0,
            "delta": delta, "n": chosen_n, "constant_spread": spread,
            "h": h, "r_max": grid.r_max, "bound_factor": BOUND_FACTOR}
    return SweepTable(name="besov_energy",
                      columns=["gamma", "nu", "n", "lhs", "rhs", "constant"],
                      rows=chosen_rows, verdict=bounded_verdict(spread), meta=meta)
