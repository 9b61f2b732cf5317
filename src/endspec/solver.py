"""Discrete resolvent solves and the truncated eigenvalue scan.

Two independent outer treatments are kept deliberately:

  * complex shift: solve (h_mu - lambda - i Gamma) phi = psi with Dirichlet
    truncation on a domain long enough to absorb the wave
    (Gamma (R_max - 1) >= ``ABSORPTION`` = 8 unless explicitly overridden);
  * outgoing row: solve at real lambda with the last row enforcing
    phi' = +- i a(R_max) phi (``outgoing_row``; the radiation sweep closes
    its complex-shift solves with the same row).

Their agreement as Gamma -> 0 is itself an acceptance-level check of the
outgoing selection rule.  The rho-closed row u_{J+1} = rho u_J, an
outgoing-kind row that ``closure`` builds for the Hoelder pairs, is no
third treatment: it is the complex shift's own Dirichlet tail past a node
J, closed exactly.

The work is split by what it depends on.  A ``RadialOperator`` holds the
real potential diagonal, which depends on (mu, grid) only; ``shifted`` moves
it to another z without touching the geometry.  ``resolve`` solves a
block of sources in one LAPACK sweep (``zgtsv`` with one right-hand side
per source, which factors and solves together and keeps no factors; one
source is the block of one) and verifies each solution with one pass over
the grid per norm: the residual is summed over cache-sized blocks of rows,
with no n-length temporary.  It takes a source as its support, a (start
node, values) pair, or as a full-grid array (start 0), so a compact source
on a long domain costs no full-grid copy.

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
import operator
from dataclasses import dataclass

import numpy as np
# solve_banded is no longer called; the name stays bound because the
# benchmark tracer (perfbench/spans.py) wraps endspec.solver.solve_banded
from scipy.linalg import LinAlgError, eigh_tridiagonal, solve_banded  # noqa: F401
from scipy.linalg.lapack import zgtsv

from .errors import (AbsorptionError, BranchError, ConditioningError,
                     ContractError)
from .geometry import PotentialSplit, WarpProfile
from .phase import grid_phase, phase_a
from .radial import (FIRST_UNKNOWN, OuterPolicy, RadialGrid, RadialOperator,
                     _resolution_guard, assemble_radial_operator, besov_norms,
                     l2_norm, uniform_grid)

# a shift solve absorbs its wave when Gamma (R_max - 1) >= ABSORPTION
ABSORPTION = 8.0
# a verified solve has residual ||(h_mu - z) phi - psi|| / ||psi|| at most
# RESIDUAL_TOL and growth ||phi|| / ||psi|| at most BLOWUP_LIMIT
RESIDUAL_TOL = 1e-8
BLOWUP_LIMIT = 1e13
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
    """Solution of (h_mu - z) phi = psi with its verified residual and growth
    (both relative to ||psi|| on the unknowns)."""

    phi: np.ndarray              # full-grid values (walls included)
    residual: float
    growth: float


def _admitted_diagonal(op: RadialOperator, allow_unabsorbed: bool) -> np.ndarray:
    """The operator's complex diagonal, once the absorption guard admits
    the solve and every entry is finite (``ValueError`` otherwise; a finite
    sum of squares has only finite terms, so the exact elementwise test
    runs only when the sum is not finite)."""
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
    if not math.isfinite(_sum_sq(dd)):
        _check_finite(dd)
    return dd


def _source_rows(op: RadialOperator, psi):
    """(first node, values) of the source psi on the unknowns it reaches.

    psi is a (start node, values) pair, the values sitting on nodes start,
    start + 1, ... inside the grid, or a full-grid array (start 0).  The
    values are a view of the source; entries at the inner wall and past the
    last unknown are dropped, and the range is empty when nothing is left.
    """
    full = not isinstance(psi, tuple)
    start, vals = (0, psi) if full else psi
    start = operator.index(start)
    vals = np.ascontiguousarray(vals, dtype=complex)
    if vals.ndim != 1 or (full and vals.size != op.grid.n) \
            or start < 0 or start + vals.size > op.grid.n:
        raise ContractError("psi must live on the operator's grid")
    lo = max(start, FIRST_UNKNOWN)
    hi = max(min(start + vals.size, FIRST_UNKNOWN + op.n_unknowns), lo)
    return lo, vals[lo - start:hi - start]


def _sum_sq(a, unit: float = 1.0) -> float:
    """sum |a_j / unit|^2 as one contiguous BLAS dot over the float view."""
    v = a.view(float)
    if unit != 1.0:
        v = v / unit
    return float(v @ v)


# rows per residual block: the block's operands and scratch arrays (128 kB
# each when complex) stay in cache between the passes over them
_RESIDUAL_BLOCK = 8192


def _residual_sq(op: RadialOperator, phi, first: int, b, unit: float = 1.0) -> float:
    """sum |r_j / unit|^2 of r = (h_mu - z) u - rhs, u = phi on the unknowns.

    The right-hand side is the source values ``b`` on rows first ..
    first + b.size - 1 and zero elsewhere, with the outgoing last row's
    entry halved.  Taken over blocks of ``_RESIDUAL_BLOCK`` rows with the
    arithmetic of ``RadialOperator.matvec``: r_j = ((dd_j u_j + off u_{j-1})
    + off u_{j+1}) - rhs_j with dd_j = (-2 off + w_j) - z, where w is the
    potential diagonal and the zero wall entries of the full-grid ``phi``
    supply the missing neighbours; b is subtracted only on the blocks it
    overlaps.  The outgoing last row takes its scalar diagonal entry.  No
    n-length array is created.
    """
    n, i0 = op.n_unknowns, FIRST_UNKNOWN
    off = op.off_diag
    stencil_diag, z = -2.0 * off, op.z
    w = op.potential_diag
    rows = n - 1 if op.policy.kind == "outgoing" else n
    size = min(_RESIDUAL_BLOCK, rows)
    d, r, t = np.empty(size), np.empty(size, dtype=complex), np.empty(size, dtype=complex)
    stop = first + b.size
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
        lo, hi = max(j, first), min(k, stop)
        if lo < hi:
            rb[lo - j:hi - j] -= b[lo - first:hi - first]
        total += _sum_sq(rb, unit)
    if rows < n:
        last = i0 + n - 1
        rhs_last = b[-1] * 0.5 if b.size and stop == n else 0.0
        r_last = (op.outgoing_diag * phi[last] + off * phi[last - 1]) - rhs_last
        total += _sum_sq(np.atleast_1d(r_last), unit)
    return total


def _check_finite(a):
    if not np.all(np.isfinite(a.view(float))):
        raise ValueError("array must not contain infs or NaNs")


def resolve(op: RadialOperator, psi, allow_unabsorbed: bool = False):
    """(h_mu - z)^{-1} psi for a block of sources, solved in one LAPACK
    sweep and verified column by column.

    psi is one source, which gives one ``ResolventSolution``, or a list of
    k >= 1 sources, which gives the list of their solutions: the single
    source is the block of k = 1.  LAPACK ``zgtsv`` factors (partial
    pivoting) and solves all k columns in one sweep, in place in the
    diagonals, keeping no factors; its arithmetic on a column does not
    depend on the others, so each solution equals that of the source
    solved alone, bit for bit.  Every column is verified: finite values,
    growth ``||phi|| / ||psi||`` at most ``BLOWUP_LIMIT`` and residual by
    re-multiplication at most ``RESIDUAL_TOL`` (a NaN growth or residual
    fails both), and the first column that fails raises.

    A source is a (start node, values) pair, whose values sit on nodes
    start, start + 1, ... of the grid, or a full-grid array, the case
    start = 0.  As in the matrix rows, entries at the inner wall (node 0)
    and past the last unknown are dropped, and an entry on the outgoing last
    row is halved with that row.

    A call passes over the grid as few times as it can: the values are
    written into the zeroed full-grid rows ``phi`` of a (k, grid.n) array,
    which are returned, ``zgtsv`` overwrites them with the solution (in place
    when k = 1; a block is solved in the contiguous copy ``zgtsv`` makes of
    its unknowns and copied back), and ||r||^2 is summed over blocks of rows
    (``_residual_sq``), each formed from the potential diagonal and the
    neighbours in ``phi`` while it is in cache, with the source subtracted
    only on the blocks it overlaps; besides ``phi`` and the three diagonals
    that ``zgtsv`` overwrites, a one-source call creates no n-length array.
    ||rhs|| is one contiguous BLAS dot over the float view of the source's
    rows, ||u|| one over the unknowns, and the finite-input (``ValueError``)
    and finite-output (``ConditioningError``) checks follow from them: a
    finite sum of squares has only finite terms, so the exact elementwise
    test runs only when a sum is not finite.  Finite entries that overflow
    ||rhs||^2 pass; the three norms of that column are then all taken of the
    arrays divided by max |rhs|, which leaves growth and residual unchanged
    but finite.  The solution does not depend on how the source is given;
    ||rhs|| and so the diagnostics ``residual`` and ``growth`` of a compact
    source may differ from those of its full-grid form in the last bit,
    since the sum runs over the support only.

    A shift solve (Dirichlet outer row, Im z != 0) on a domain with
    Gamma (R_max - 1) < ``ABSORPTION`` is refused unless ``allow_unabsorbed``
    is set, since the reflected wave then contaminates every Gamma-limit
    experiment.  It is set for the prefix domains of the Sommerfeld shift
    solves, which end past the reach of their wave, and by the CLI's
    ``solve`` command, which solves on the domain it is given.
    """
    dd = _admitted_diagonal(op, allow_unabsorbed)
    block = isinstance(psi, list)
    sources = [_source_rows(op, p) for p in (psi if block else [psi])]
    if not sources:
        raise ContractError("a block of sources needs at least one source")
    n, i0 = op.n_unknowns, FIRST_UNKNOWN
    phi = np.zeros((len(sources), op.grid.n), dtype=complex)
    scales = [_rhs_scale(op, row, lo, b) for row, (lo, b) in zip(phi, sources)]
    u = phi[:, i0:i0 + n].T     # Fortran-contiguous, so solved in place, at k = 1
    x, info = zgtsv(op.dl, dd, op.du, u, overwrite_dl=1, overwrite_d=1,
                    overwrite_du=1, overwrite_b=1)[-2:]
    if info > 0:
        raise LinAlgError("singular matrix")
    if x is not u:
        u[...] = x
    sols = [_verified(op, row, lo, b, *scale)
            for row, (lo, b), scale in zip(phi, sources, scales)]
    return sols if block else sols[0]


def _rhs_scale(op: RadialOperator, phi, lo: int, b):
    """Write the source values ``b`` into the zeroed full-grid ``phi`` from
    node ``lo`` (halving an entry on the outgoing last row) and give
    (||rhs||^2, unit), both in units of ``unit``: 1, or max |rhs| when the
    finite entries overflow the sum (``ValueError`` on a non-finite one)."""
    rhs = phi[lo:lo + b.size]
    rhs[...] = b
    if op.policy.kind == "outgoing" and lo + b.size == FIRST_UNKNOWN + op.n_unknowns:
        rhs[-1] *= 0.5          # the halved outgoing row
    rhs_sq = _sum_sq(rhs)
    if math.isfinite(rhs_sq):
        return rhs_sq, 1.0
    _check_finite(rhs)          # finite entries may still overflow the sum
    unit = float(np.max(np.abs(rhs.view(float))))
    return _sum_sq(rhs, unit), unit


def _verified(op: RadialOperator, phi, lo: int, b, rhs_sq: float,
              unit: float) -> ResolventSolution:
    """The solved full-grid ``phi`` of the source ``b`` on rows from node
    ``lo``, refused (``ConditioningError``) unless finite, with growth at
    most ``BLOWUP_LIMIT`` and residual at most ``RESIDUAL_TOL``."""
    n, i0 = op.n_unknowns, FIRST_UNKNOWN
    u = phi[i0:i0 + n]
    u_sq = _sum_sq(u)
    if not math.isfinite(u_sq) and not np.all(np.isfinite(u.view(float))):
        raise ConditioningError("solver produced non-finite values", estimate=np.inf)
    if unit != 1.0:
        u_sq = _sum_sq(u, unit)
    scale = math.sqrt(rhs_sq) or 1.0
    growth = math.sqrt(u_sq) / scale
    if not growth <= BLOWUP_LIMIT:
        raise ConditioningError(
            f"solution grew by {growth:.2e}: z is within grid resolution of a "
            "discrete eigenvalue of the truncated problem", estimate=growth)
    resid = math.sqrt(_residual_sq(op, phi, lo - i0, b, unit)) / scale
    if not resid <= RESIDUAL_TOL:
        raise ConditioningError(f"residual {resid:.2e} above {RESIDUAL_TOL:.1e}",
                                estimate=resid)
    return ResolventSolution(phi=phi, residual=resid, growth=growth)


def outgoing_row(profile: WarpProfile, potential: PotentialSplit,
                 grid: RadialGrid, z: complex, sign: int, r_lam: float):
    """The outer row phi' = +- i a(R_max) phi at z: outgoing (sign=+1) or
    incoming (sign=-1), with a the dispersion-matched phase at the grid edge
    and r_lam the phase's threshold radius (``phase.r_lambda``).

    Returns the ``OuterPolicy`` and the phase on the grid.  Raises
    ``BranchError`` when Re a(R_max) <= 0, as on a grid too coarse for the
    wave (real a with a h > 2).
    """
    ph = phase_a(profile, potential, z, sign, grid, r_lam=r_lam)
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
    profile_slope: float
    artifact: bool
    near_threshold: bool


@dataclass(frozen=True)
class EigenScanResult:
    entries: tuple

    def genuine(self):
        return [e for e in self.entries if not e.artifact and not e.near_threshold]

    def embedded(self, lambda0: float):
        """Genuine eigenvalues above ``lambda0``, which Rellich's theorem rules out."""
        return [e for e in self.genuine() if e.eigenvalue > lambda0 + 1e-9]

    def verdict(self, lambda0: float) -> str:
        """Rellich's verdict: "fail" on any embedded eigenvalue, else "pass"."""
        return "fail" if self.embedded(lambda0) else "pass"

    def artifacts(self):
        return [e for e in self.entries if e.artifact]


def _dirichlet_tridiag(profile, potential, mu, grid):
    op = assemble_radial_operator(profile, potential, mu, grid, 0.0,
                                  policy=OuterPolicy.dirichlet())
    return op.dd.real, op.dl.real


def _eig_interval(dd, dl, interval, eigvals_only: bool = False):
    """Eigenvalues in ``interval`` by bisection (LAPACK ``stebz``), with
    their eigenvectors (inverse iteration, ``stein``) unless
    ``eigvals_only``: the values are the same either way."""
    lo, hi = interval
    return eigh_tridiagonal(dd, dl, eigvals_only=eigvals_only, select="v",
                            select_range=(lo, hi))


def _classify(vals, vecs, vals2, valsh, grid: RadialGrid,
              thresholds) -> EigenScanResult:
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
        slope = besov_norms(phi, grid).tail_slope()
        slope = 0.0 if slope is None else slope
        drift = float(np.min(np.abs(vals2 - lam))) if vals2.size else np.inf
        refined = lam
        if valsh is not None and valsh.size:
            lam_h = valsh[np.argmin(np.abs(valsh - lam))]
            refined = (4.0 * lam_h - lam) / 3.0
        near = any(abs(lam - t) <= THRESHOLD_WINDOW for t in thresholds)
        artifact = (slope > _FLAT_SLOPE) and (drift > 10.0 * _DRIFT_TOL)
        entries.append(EigenEntry(eigenvalue=float(lam), refined=float(refined),
                                  drift=drift, profile_slope=float(slope),
                                  artifact=bool(artifact), near_threshold=near))
    entries.sort(key=lambda e: e.eigenvalue)
    return EigenScanResult(entries=tuple(entries))


def _scan(dd, dl, dd2, dl2, grid: RadialGrid, interval):
    """What every eigen-scan does with the Dirichlet tridiagonals of ``grid``
    and of the doubled domain (dd2 None: no drift).  Refuses a degenerate
    interval (``ContractError``) and a grid with fewer than
    ``radial._MIN_PPW`` points per wavelength at the interval's end of
    larger |lambda| (``ResolutionError``) before any eigensolve; returns the
    eigenpairs in the interval, the doubled-domain eigenvalues in the padded
    interval and that padded interval."""
    lo, hi = float(interval[0]), float(interval[1])
    if not hi > lo:
        raise ContractError("scan interval must be non-degenerate")
    _resolution_guard(grid.h, max(abs(lo), abs(hi)))
    vals, vecs = _eig_interval(np.asarray(dd, float), np.asarray(dl, float), (lo, hi))
    pad = 0.1 * (hi - lo) + 10.0 * _DRIFT_TOL
    padded = (lo - pad, hi + pad)
    vals2 = np.array([]) if dd2 is None else _eig_interval(
        np.asarray(dd2, float), np.asarray(dl2, float), padded, eigvals_only=True)
    return vals, vecs, vals2, padded


def eigen_scan(profile: WarpProfile, potential: PotentialSplit, mu: float,
               grid: RadialGrid, interval, thresholds=()) -> EigenScanResult:
    """Scan the Dirichlet-truncated spectrum on a bounded interval.

    Classification per eigenpair: the annulus profile R_nu^{-1/2}||F_nu phi||
    must decay (log2-slope <= ``_FLAT_SLOPE`` over the last three full
    annuli) for a genuine eigenfunction; a flat profile combined with
    eigenvalue drift above 10 * ``_DRIFT_TOL`` under domain doubling marks a
    truncation artifact, and an eigenvalue within ``THRESHOLD_WINDOW`` of one
    of the ``thresholds`` is marked near-threshold.  An h-halving
    Richardson step gives every eigenvalue an O(h^4) estimate ``refined``.
    The interval and the grid's resolution are checked as in ``_scan``.
    """
    dd, dl = _dirichlet_tridiag(profile, potential, mu, grid)
    # domain doubling for the drift diagnostic
    dd2, dl2 = _dirichlet_tridiag(profile, potential, mu,
                                  uniform_grid(2.0 * grid.r_max, grid.h))
    vals, vecs, vals2, padded = _scan(dd, dl, dd2, dl2, grid, interval)

    # h-halving for the Richardson refinement
    valsh = None
    if vals.size:
        gridh = uniform_grid(grid.r_max, 0.5 * grid.h)
        ddh, dlh = _dirichlet_tridiag(profile, potential, mu, gridh)
        valsh = _eig_interval(ddh, dlh, padded, eigvals_only=True)
    return _classify(vals, vecs, vals2, valsh, grid, thresholds)


def eigen_scan_tridiag(dd, dl, grid: RadialGrid, interval,
                       dd2=None, dl2=None, thresholds=()) -> EigenScanResult:
    """Scan an explicitly assembled symmetric tridiagonal (line models):
    ``eigen_scan``'s checks and classification without the h/2 refinement
    (``refined`` is the eigenvalue), the doubled-domain matrices supplied by
    the caller since line models own their grids."""
    return _classify(*_scan(dd, dl, dd2, dl2, grid, interval)[:3], None, grid,
                     thresholds)
