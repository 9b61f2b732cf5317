"""Discrete resolvent solves and the truncated eigenvalue scan.

Two independent outer treatments are kept deliberately:

  * complex shift: solve (h_mu - lambda - i Gamma) phi = psi with Dirichlet
    truncation on a domain long enough to absorb the wave
    (Gamma (R_max - 1) >= ``ABSORPTION`` = 8 unless explicitly overridden);
  * outgoing row: solve at real lambda with the last row enforcing
    phi' = +- i a(R_max) phi (``outgoing_row``; the radiation sweep closes
    its complex-shift solves with the same row).

Their agreement as Gamma -> 0 is itself an acceptance-level check of the
outgoing selection rule.

The work is split by what it depends on.  A ``RadialOperator`` holds the
real potential diagonal, which depends on (mu, grid) only; ``shifted`` moves
it to another z without touching the geometry.  A ``Resolvent`` LU-factors
one operator once and solves any number of right-hand sides against the
factors, in place in the returned full-grid array, verifying each with one
pass over the grid per norm: the residual is summed over cache-sized blocks
of rows, with no n-length temporary; ``resolve`` is a single such solve.

The eigenvalue scan diagonalizes the Dirichlet-truncated symmetric operator
on an interval and classifies each eigenpair by the decay of its dyadic
annulus profile: genuine point spectrum decays (log2-slope at most
``_FLAT_SLOPE``), while discretized continuum shows a flat profile together
with eigenvalue drift above 10 ``_DRIFT_TOL`` under domain doubling;
eigenvalues within ``THRESHOLD_WINDOW`` of a declared threshold are set
apart.  Only the base scan needs eigenvectors; the companion scans (doubled
domain, h/2) compute eigenvalues only, by the same bisection (LAPACK
``stebz``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
# solve_banded is no longer called; the name stays bound because the
# benchmark tracer (perfbench/spans.py) wraps endspec.solver.solve_banded
from scipy.linalg import LinAlgError, eigh_tridiagonal, solve_banded  # noqa: F401
from scipy.linalg.lapack import zgttrf, zgttrs

from .cutoffs import CutoffSpec
from .errors import (AbsorptionError, BranchError, ConditioningError,
                     ContractError)
from .geometry import PotentialSplit, WarpProfile
from .phase import grid_phase, phase_a
from .radial import (FIRST_UNKNOWN, BesovProfile, OuterPolicy, RadialGrid,
                     RadialOperator, assemble_radial_operator, besov_norms,
                     l2_norm, uniform_grid)

# a shift solve absorbs its wave when Gamma (R_max - 1) >= ABSORPTION
ABSORPTION = 8.0
# eigenvalues this close to a declared threshold t are not classified as
# spectrum, and experiments refuse energies above t - THRESHOLD_WINDOW
THRESHOLD_WINDOW = 0.05
# eigen-scan classifier: the largest log2-slope of a decaying annulus
# profile, and the drift scale under domain doubling (artifacts drift by
# more than 10 _DRIFT_TOL)
_FLAT_SLOPE = -0.25
_DRIFT_TOL = 1e-6


@dataclass(frozen=True)
class ResolventSolution:
    """Solution of (h_mu - z) phi = psi with its verified residual."""

    mu: float
    z: complex
    method: str                  # "shift" | "outgoing"
    phi: np.ndarray              # full-grid values (walls included)
    residual: float
    grid: RadialGrid
    info: dict = field(default_factory=dict)


class Resolvent:
    """(h_mu - z)^{-1} for one operator: factored once, applied per source.

    Construction checks the absorption guard and LU-factors the tridiagonal
    matrix (LAPACK ``zgttrf``, partial pivoting); each call solves one
    right-hand side against the held factors (``zgttrs``) and verifies the
    result: finite values, growth ``||phi|| / ||psi||`` at most
    ``blowup_limit`` and residual by re-multiplication at most
    ``residual_tol`` (a NaN growth or residual fails both).

    A call passes over the grid as few times as it can: the right-hand side
    is a view of psi (a copy only for the halved outgoing row), ``zgttrs``
    overwrites it in place inside the zero-padded full-grid ``phi`` that is
    returned, and ||r||^2 is summed over blocks of rows (``_residual_sq``),
    each formed from the potential diagonal and the neighbours in ``phi``
    while it is in cache, so the call creates no n-length array besides
    ``phi`` (and the outgoing right-hand side).  ||rhs|| and ||u|| are each
    one contiguous BLAS dot over the float view, and the finite-input
    (``ValueError``) and finite-output (``ConditioningError``) checks follow
    from them: a finite sum of squares has only finite terms, so the exact
    elementwise test runs only when a sum is not finite.  Finite entries
    that overflow ||rhs||^2 pass; the three norms are then all taken of the
    arrays divided by max |rhs|, which leaves growth and residual unchanged
    but finite.

    A shift solve (Dirichlet outer row, Im z != 0) on a domain with
    Gamma (R_max - 1) < ``ABSORPTION`` is refused unless ``allow_unabsorbed``
    is set, since the reflected wave then contaminates every Gamma-limit
    experiment.  Only the factors and the operator (whose potential diagonal
    is shared) are kept, so holding several resolvents costs little memory.
    """

    def __init__(self, op: RadialOperator, allow_unabsorbed: bool = False,
                 residual_tol: float = 1e-8, blowup_limit: float = 1e13):
        gamma = op.z.imag
        if op.policy.kind == "dirichlet":
            if gamma == 0.0:
                raise ContractError("shift solve needs Im z != 0 (or an outgoing policy)")
            if abs(gamma) * (op.grid.r_max - 1.0) < ABSORPTION and not allow_unabsorbed:
                raise AbsorptionError(
                    f"Gamma*(R_max-1) = {abs(gamma) * (op.grid.r_max - 1.0):.2f} "
                    f"< {ABSORPTION:g}; "
                    "enlarge the domain or pass allow_unabsorbed=True")
        dd = op.dd
        _check_finite(dd)
        *lu, info = zgttrf(op.dl, dd, op.du,
                           overwrite_dl=1, overwrite_d=1, overwrite_du=1)
        if info > 0:
            raise LinAlgError("singular matrix")
        self.op = op
        self.residual_tol = residual_tol
        self.blowup_limit = blowup_limit
        self._lu = lu

    def __call__(self, psi) -> ResolventSolution:
        op = self.op
        psi = np.ascontiguousarray(psi, dtype=complex)
        if psi.size != op.grid.n:
            raise ContractError("psi must live on the operator's grid")
        n, i0 = op.n_unknowns, FIRST_UNKNOWN
        rhs = op.rhs(psi)
        rhs_sq = _sum_sq(rhs)
        unit = 1.0                  # common divisor of the three norms
        if not math.isfinite(rhs_sq):
            _check_finite(rhs)      # finite entries may still overflow the sum
            unit = float(np.max(np.abs(rhs.view(float))))
            rhs_sq = _sum_sq(rhs, unit)
        phi = np.zeros(op.grid.n, dtype=complex)
        u = phi[i0:i0 + n]
        u[...] = rhs
        zgttrs(*self._lu, u, overwrite_b=1)
        u_sq = _sum_sq(u)
        if not math.isfinite(u_sq) and not np.all(np.isfinite(u.view(float))):
            raise ConditioningError("solver produced non-finite values", estimate=np.inf)
        if unit != 1.0:
            u_sq = _sum_sq(u, unit)
        scale = math.sqrt(rhs_sq) or 1.0
        growth = math.sqrt(u_sq) / scale
        if not growth <= self.blowup_limit:
            raise ConditioningError(
                f"solution grew by {growth:.2e}: z is within grid resolution of a "
                "discrete eigenvalue of the truncated problem", estimate=growth)
        resid = math.sqrt(_residual_sq(op, phi, rhs, unit)) / scale
        if not resid <= self.residual_tol:
            raise ConditioningError(f"residual {resid:.2e} above {self.residual_tol:.1e}",
                                    estimate=resid)
        method = "shift" if op.policy.kind == "dirichlet" else "outgoing"
        return ResolventSolution(mu=op.mu, z=op.z, method=method, phi=phi,
                                 residual=resid, grid=op.grid,
                                 info={"growth": growth})


def _sum_sq(a, unit: float = 1.0) -> float:
    """sum |a_j / unit|^2 as one contiguous BLAS dot over the float view."""
    v = a.view(float)
    if unit != 1.0:
        v = v / unit
    return float(v @ v)


# rows per residual block: the block's operands and scratch arrays (128 kB
# each when complex) stay in cache between the passes over them
_RESIDUAL_BLOCK = 8192


def _residual_sq(op: RadialOperator, phi, rhs, unit: float = 1.0) -> float:
    """sum |r_j / unit|^2 of r = (h_mu - z) u - rhs, u = phi on the unknowns.

    Taken over blocks of ``_RESIDUAL_BLOCK`` rows with the arithmetic of
    ``RadialOperator.matvec``: r_j = ((dd_j u_j + off u_{j-1}) + off u_{j+1})
    - rhs_j with dd_j = (-2 off + w_j) - z, where w is the potential diagonal
    and the zero wall entries of the full-grid ``phi`` supply the missing
    neighbours.  The outgoing last row takes its scalar diagonal entry.  No
    n-length array is created.
    """
    n, i0 = op.n_unknowns, FIRST_UNKNOWN
    off = op.off_diag
    stencil_diag, z = -2.0 * off, op.z
    w = op.potential_diag
    rows = n - 1 if op.policy.kind == "outgoing" else n
    size = min(_RESIDUAL_BLOCK, rows)
    d, r, t = np.empty(size), np.empty(size, dtype=complex), np.empty(size, dtype=complex)
    total = 0.0
    for j in range(0, rows, _RESIDUAL_BLOCK):
        k = min(j + _RESIDUAL_BLOCK, rows)
        db, rb, tb = d[:k - j], r[:k - j], t[:k - j]
        np.add(w[i0 + j:i0 + k], stencil_diag, out=db)
        np.subtract(db, z, out=rb)
        rb *= phi[i0 + j:i0 + k]
        np.multiply(phi[i0 + j - 1:i0 + k - 1], off, out=tb)
        rb += tb
        np.multiply(phi[i0 + j + 1:i0 + k + 1], off, out=tb)
        rb += tb
        rb -= rhs[j:k]
        total += _sum_sq(rb, unit)
    if rows < n:
        last = i0 + n - 1
        r_last = (op.outgoing_diag * phi[last] + off * phi[last - 1]) - rhs[-1]
        total += _sum_sq(np.atleast_1d(r_last), unit)
    return total


def _check_finite(a):
    if not np.all(np.isfinite(a.view(float))):
        raise ValueError("array must not contain infs or NaNs")


def resolve(op: RadialOperator, psi, allow_unabsorbed: bool = False,
            residual_tol: float = 1e-8, blowup_limit: float = 1e13) -> ResolventSolution:
    """One verified solve of (h_mu - z) phi = psi (see ``Resolvent``)."""
    return Resolvent(op, allow_unabsorbed=allow_unabsorbed, residual_tol=residual_tol,
                     blowup_limit=blowup_limit)(psi)


def outgoing_row(profile: WarpProfile, potential: PotentialSplit,
                 grid: RadialGrid, z: complex, sign: int,
                 cutoffs: CutoffSpec | None = None,
                 lambda0: float | None = None,
                 r_lam: float | None = None):
    """The outer row phi' = +- i a(R_max) phi at z: outgoing (sign=+1) or
    incoming (sign=-1), with a the dispersion-matched phase at the grid edge.

    Returns the ``OuterPolicy`` and the phase on the grid.  Raises
    ``BranchError`` when Re a(R_max) <= 0, as on a grid too coarse for the
    wave (real a with a h > 2).
    """
    ph = phase_a(profile, potential, z, sign, grid,
                 cutoffs=cutoffs, lambda0=lambda0, r_lam=r_lam)
    a_end = complex(grid_phase(ph.a[-1], grid.h))
    if not a_end.real > 0.0:
        raise BranchError(f"phase at the outer edge has Re a = {a_end.real:.3g} <= 0")
    return OuterPolicy.outgoing(a_end, sign), ph


# ---------------------------------------------------------------------------
# eigenvalue scan
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EigenEntry:
    """One eigenpair of the truncated problem with its classification."""

    eigenvalue: float
    refined: float
    drift: float
    profile: BesovProfile
    profile_slope: float
    artifact: bool
    near_threshold: bool


@dataclass(frozen=True)
class EigenScanResult:
    interval: tuple
    entries: tuple
    lambda0: float | None
    grid: RadialGrid

    def genuine(self):
        return [e for e in self.entries if not e.artifact and not e.near_threshold]

    def artifacts(self):
        return [e for e in self.entries if e.artifact]


def _dirichlet_tridiag(profile, potential, mu, grid, cutoffs):
    op = assemble_radial_operator(profile, potential, mu, grid, 0.0,
                                  policy=OuterPolicy.dirichlet(), cutoffs=cutoffs,
                                  resolution_action="warn")
    return op.dd.real, op.dl.real


def _eig_interval(dd, dl, interval, eigvals_only: bool = False):
    """Eigenvalues in ``interval`` by bisection (LAPACK ``stebz``), with
    their eigenvectors (inverse iteration, ``stein``) unless
    ``eigvals_only``: the values are the same either way."""
    lo, hi = interval
    return eigh_tridiagonal(dd, dl, eigvals_only=eigvals_only, select="v",
                            select_range=(lo, hi))


def _classify(vals, vecs, vals2, valsh, grid: RadialGrid, interval,
              thresholds, lambda0) -> EigenScanResult:
    """Classify each eigenpair of the scan by its annulus profile.

    ``vals2`` are the eigenvalues on the doubled domain (the drift; none
    gives infinite drift) and ``valsh`` those at h/2, which give the
    Richardson estimate ``refined`` (None: ``refined`` is the eigenvalue).
    """
    entries = []
    for j, lam in enumerate(vals):
        phi = np.zeros(grid.n)
        phi[1:-1] = vecs[:, j]
        nrm = l2_norm(phi, grid)
        if nrm > 0:
            phi = phi / nrm
        prof = besov_norms(phi, grid)
        slope = prof.tail_slope()
        slope = 0.0 if slope is None else slope
        drift = float(np.min(np.abs(vals2 - lam))) if vals2.size else np.inf
        refined = lam
        if valsh is not None and valsh.size:
            lam_h = valsh[np.argmin(np.abs(valsh - lam))]
            refined = (4.0 * lam_h - lam) / 3.0
        near = any(abs(lam - t) <= THRESHOLD_WINDOW for t in thresholds)
        artifact = (slope > _FLAT_SLOPE) and (drift > 10.0 * _DRIFT_TOL)
        entries.append(EigenEntry(eigenvalue=float(lam), refined=float(refined),
                                  drift=drift, profile=prof,
                                  profile_slope=float(slope),
                                  artifact=bool(artifact), near_threshold=near))
    entries.sort(key=lambda e: e.eigenvalue)
    return EigenScanResult(interval=interval, entries=tuple(entries),
                           lambda0=lambda0, grid=grid)


def eigen_scan(profile: WarpProfile, potential: PotentialSplit, mu: float,
               grid: RadialGrid, interval, refine: bool = True,
               thresholds=(), lambda0: float | None = None,
               cutoffs: CutoffSpec | None = None) -> EigenScanResult:
    """Scan the Dirichlet-truncated spectrum on a bounded interval.

    Classification per eigenpair: the annulus profile R_nu^{-1/2}||F_nu phi||
    must decay (log2-slope <= ``_FLAT_SLOPE`` over the last three full
    annuli) for a genuine eigenfunction; a flat profile combined with
    eigenvalue drift above 10 * ``_DRIFT_TOL`` under domain doubling marks a
    truncation artifact, and an eigenvalue within ``THRESHOLD_WINDOW`` of one
    of the ``thresholds`` is marked near-threshold.  ``refine`` adds an
    h-halving Richardson step so genuine eigenvalues carry an O(h^4)
    estimate.
    """
    lo, hi = float(interval[0]), float(interval[1])
    if not hi > lo:
        raise ContractError("scan interval must be non-degenerate")
    dd, dl = _dirichlet_tridiag(profile, potential, mu, grid, cutoffs)
    vals, vecs = _eig_interval(dd, dl, (lo, hi))

    # domain doubling for the drift diagnostic
    grid2 = uniform_grid(2.0 * grid.r_max, grid.h, r_min=grid.radii[0])
    dd2, dl2 = _dirichlet_tridiag(profile, potential, mu, grid2, cutoffs)
    pad = 0.1 * (hi - lo) + 10.0 * _DRIFT_TOL
    vals2 = _eig_interval(dd2, dl2, (lo - pad, hi + pad), eigvals_only=True)

    # h-halving for the Richardson refinement
    valsh = None
    if refine and vals.size:
        gridh = uniform_grid(grid.r_max, 0.5 * grid.h, r_min=grid.radii[0])
        ddh, dlh = _dirichlet_tridiag(profile, potential, mu, gridh, cutoffs)
        valsh = _eig_interval(ddh, dlh, (lo - pad, hi + pad), eigvals_only=True)
    return _classify(vals, vecs, vals2, valsh, grid, (lo, hi), thresholds, lambda0)


def eigen_scan_tridiag(dd, dl, grid: RadialGrid, interval,
                       dd2=None, dl2=None, grid2=None, thresholds=(),
                       lambda0: float | None = None) -> EigenScanResult:
    """Scan an explicitly assembled symmetric tridiagonal (line models).

    Same classification as ``eigen_scan``; the doubled-domain matrices are
    supplied by the caller since line models own their grids.
    """
    lo, hi = float(interval[0]), float(interval[1])
    vals, vecs = _eig_interval(np.asarray(dd, float), np.asarray(dl, float), (lo, hi))
    if dd2 is not None:
        pad = 0.1 * (hi - lo) + 10.0 * _DRIFT_TOL
        vals2 = _eig_interval(np.asarray(dd2, float), np.asarray(dl2, float),
                              (lo - pad, hi + pad), eigvals_only=True)
    else:
        vals2 = np.array([])
    return _classify(vals, vecs, vals2, None, grid, (lo, hi), thresholds, lambda0)
