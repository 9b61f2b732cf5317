"""Radial grids, separated modes, discrete operators and Besov norms.

Separation of variables over the cross-section reduces -Delta/2 + V to the
family of half-line operators (after flattening the volume density)

    h_mu = -(1/2) d^2/dr^2 + q_geom(r) + mu / (2 f(r)) + V(r),

one per cross-section Laplace eigenvalue mu.  These are discretized by
second-order central differences on a uniform grid with a Dirichlet wall at
the inner edge; the outer edge carries either a Dirichlet row or the
outgoing relation phi' = +- i a phi realized through ghost-point
elimination, which keeps the matrix tridiagonal and complex symmetric and
is second-order accurate.

A discretized operator stores only the real potential diagonal
q_geom + mu/(2f) + V, evaluated once per (mu, grid); the spectral parameter
z enters as a shift of that diagonal, so moving to another z
(``RadialOperator.shifted``) re-evaluates no geometry.  The off-diagonals
are the constant -1/(2h^2), and the complex diagonals are derived on
access.  Factoring and solving live in ``solver.Resolvent``.

Besov norms are computed from the dyadic annuli R_nu = 2^nu:

    ||phi||_B  = sum_nu R_nu^{1/2} ||F_nu phi||,
    ||phi||_B* = sup_nu R_nu^{-1/2} ||F_nu phi||,

with the decay of the B* profile R_nu^{-1/2}||F_nu phi|| encoding membership
in the subspace that vanishes at infinity.  A grid finds its annuli once;
each aggregation is then one ``bincount`` over the annulus index per mode.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Sequence

import numpy as np
from scipy.special import logsumexp

from .cutoffs import CutoffSpec
from .errors import ContractError, ResolutionError
from .geometry import PotentialSplit, WarpProfile, geometry_at


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RadialGrid:
    """Uniform grid with trapezoid weights and the dyadic annulus map.

    ``nodes`` is the integration coordinate (x on line models); ``radii`` the
    escape-function values r >= 1 used for annuli and weights, and ``dr``,
    ``d2r`` its derivatives r', r'' in the integration coordinate.  For
    plain half-line grids the two coincide: ``radii`` is the ``nodes`` array
    itself, and r' = 1, r'' = 0 are zero-stride views that hold no memory.
    ``nu`` is the annulus index floor(log2 r) of each node, >= 0 because the
    radii are clamped to r >= 1.  The arrays are read-only, so a shared one
    cannot be written through either name.
    """

    nodes: np.ndarray
    radii: np.ndarray
    dr: np.ndarray
    d2r: np.ndarray
    h: float
    weights: np.ndarray
    nu: np.ndarray
    partial_outer: bool

    def __post_init__(self):
        for a in (self.nodes, self.radii, self.dr, self.d2r, self.weights, self.nu):
            a.flags.writeable = False

    @property
    def r_max(self) -> float:
        return float(self.radii[-1])

    @property
    def n(self) -> int:
        return self.nodes.size

    def annuli(self):
        """Sorted array of annulus indices present on the grid (read-only)."""
        return self._annuli

    @cached_property
    def _annuli(self):
        # found once per grid, in O(n): the nonzero bins of a count over nu
        present = np.flatnonzero(np.bincount(self.nu))
        present.flags.writeable = False
        return present


def _annulus_index(radii):
    return np.floor(np.log2(np.maximum(radii, 1.0))).astype(int)


def _grid(lo: float, hi: float, h: float, coords: Callable) -> RadialGrid:
    """Nodes lo + k h on [lo, hi] with trapezoid weights; ``coords(nodes)``
    gives (radii, r', r''), and the annulus index is taken of the radii."""
    n = int(round((hi - lo) / h)) + 1
    nodes = lo + h * np.arange(n)
    radii, dr, d2r = coords(nodes)
    w = np.full(n, h)
    w[0] = w[-1] = 0.5 * h
    nu = _annulus_index(radii)
    # the node at r_max = 2^m opens annulus m with a single point; any
    # non-dyadic r_max truncates its top annulus: both are partial covers
    partial = radii[-1] < 2.0 ** (nu[-1] + 1) - 1e-12
    return RadialGrid(nodes=nodes, radii=radii, dr=dr, d2r=d2r, h=float(h),
                      weights=w, nu=nu, partial_outer=bool(partial))


def uniform_grid(r_max: float, h: float, r_min: float = 1.0) -> RadialGrid:
    """Half-line grid on [r_min, r_max] with spacing h (trapezoid weights);
    ``radii`` and ``nodes`` are one read-only array, r' = 1 and r'' = 0."""
    if r_max <= r_min:
        raise ContractError("r_max must exceed r_min")
    return _grid(r_min, r_max, h, lambda x: (x, np.broadcast_to(1.0, x.size),
                                             np.broadcast_to(0.0, x.size)))


def line_grid(x_min: float, x_max: float, h: float, r_of_x: Callable,
              dr_of_x: Callable, d2r_of_x: Callable) -> RadialGrid:
    """Grid for one-dimensional multi-end models on [x_min, x_max].

    The escape function r(x) >= 1 clamps the left end into the first annulus
    (its r-balls are unbounded there), while the right end has r ~ x.
    """
    if x_max <= x_min:
        raise ContractError("x_max must exceed x_min")
    return _grid(x_min, x_max, h, lambda x: (
        np.maximum(np.asarray(r_of_x(x), dtype=float), 1.0),
        np.asarray(dr_of_x(x), dtype=float), np.asarray(d2r_of_x(x), dtype=float)))


# ---------------------------------------------------------------------------
# mode spectra
# ---------------------------------------------------------------------------

def _sphere_multiplicity(l: int, n: int) -> int:
    """Multiplicity of eigenvalue l(l+n-1) on the round sphere S^n."""
    if l == 0:
        return 1
    if n == 1:
        return 2
    return (2 * l + n - 1) * math.comb(l + n - 2, l) // (n - 1)


def mode_spectrum(cross_section, cap: float, d: int | None = None) -> tuple:
    """Cross-section spectrum up to the cap, as (mu, multiplicity) pairs.

    circle: mu = k^2 with multiplicity 2 (k >= 1) and 1 (k = 0);
    sphere S^{d-1}: mu = l(l+d-2) with the standard multiplicities;
    an explicit list of (mu, multiplicity) pairs is passed through.
    """
    if cap < 0:
        raise ContractError("cap must be >= 0")
    if isinstance(cross_section, (list, tuple)):
        entries = []
        for mu, mult in cross_section:
            if mult <= 0 or int(mult) != mult:
                raise ContractError("multiplicities must be positive integers")
            if mu <= cap:
                entries.append((float(mu), int(mult)))
        return tuple(sorted(entries))
    if cross_section == "circle":
        entries, k = [(0.0, 1)], 1
        while k * k <= cap:
            entries.append((float(k * k), 2))
            k += 1
        return tuple(entries)
    if cross_section == "sphere":
        if d is None or d < 2:
            raise ContractError("sphere cross-section needs the ambient dimension d >= 2")
        n = d - 1
        entries, l = [], 0
        while l * (l + n - 1) <= cap:
            entries.append((float(l * (l + n - 1)), _sphere_multiplicity(l, n)))
            l += 1
        return tuple(entries)
    raise ContractError(f"unknown cross-section kind {cross_section!r}")


def profile_modes(profile: WarpProfile, cap: float) -> tuple:
    if profile.d == 1:
        return ((0.0, 1),)
    if profile.cross_section == "abstract":
        return mode_spectrum(list(profile.cross_eigs), cap)
    return mode_spectrum(profile.cross_section, cap, d=profile.d)


# ---------------------------------------------------------------------------
# discrete radial operators
# ---------------------------------------------------------------------------

# grid index of the first unknown: node 0 is the inner Dirichlet wall
FIRST_UNKNOWN = 1


@dataclass(frozen=True)
class OuterPolicy:
    """Outer boundary treatment: Dirichlet or outgoing phi' = sign * i a phi."""

    kind: str = "dirichlet"            # "dirichlet" | "outgoing"
    a: complex = 0.0 + 0.0j
    sign: int = +1

    @staticmethod
    def dirichlet() -> "OuterPolicy":
        return OuterPolicy(kind="dirichlet")

    @staticmethod
    def outgoing(a: complex, sign: int = +1) -> "OuterPolicy":
        if sign not in (+1, -1):
            raise ContractError("sign must be +1 or -1")
        return OuterPolicy(kind="outgoing", a=complex(a), sign=sign)


@dataclass(frozen=True)
class RadialOperator:
    """Tridiagonal discretization of h_mu - z on the interior unknowns.

    Unknowns are grid nodes 1..n-2 (outer Dirichlet) or 1..n-1 (outgoing);
    the inner wall at node 0 is always Dirichlet.  Only the real potential
    diagonal q_geom + mu/(2f) + V (on the full grid) is stored: it does not
    depend on z, so ``shifted`` moves the operator to another z or outer
    policy without re-evaluating the geometry.  The sub- and super-diagonals
    are the constant -1/(2h^2); ``dd``, ``dl`` and ``du`` are derived on
    access.  The outgoing row is halved, which keeps the matrix complex
    symmetric, so ``rhs`` halves its right-hand side entry too.
    """

    mu: float
    z: complex
    policy: OuterPolicy
    grid: RadialGrid
    potential_diag: np.ndarray

    @property
    def n_unknowns(self) -> int:
        return self.grid.n - (2 if self.policy.kind == "dirichlet" else 1)

    @property
    def off_diag(self) -> float:
        return -0.5 / (self.grid.h * self.grid.h)

    @property
    def dd(self) -> np.ndarray:
        w = self.potential_diag
        dd = (-2.0 * self.off_diag + w[1:1 + self.n_unknowns]) - self.z
        if self.policy.kind == "outgoing":
            dd[-1] = self.outgoing_diag
        return dd

    @property
    def outgoing_diag(self) -> complex:
        """Diagonal entry of the outgoing last row.

        Ghost-point elimination of the one-sided outgoing relation
        (phi_{n} - phi_{n-2})/(2h) = sign * i a phi_{n-1}; the surviving row
        is halved so that sub- and super-diagonals stay equal.
        """
        h, a, s = self.grid.h, self.policy.a, self.policy.sign
        return 0.5 * ((1.0 - s * 1j * h * a) / (h * h) + self.potential_diag[-1] - self.z)

    @property
    def dl(self) -> np.ndarray:
        return np.full(self.n_unknowns - 1, self.off_diag, dtype=complex)

    du = dl

    def rhs(self, psi: np.ndarray) -> np.ndarray:
        """The source psi (full grid, complex) on the unknowns, scaled like
        their rows: a view of psi, or a copy whose last entry is halved with
        the outgoing row."""
        b = psi[FIRST_UNKNOWN:FIRST_UNKNOWN + self.n_unknowns]
        if self.policy.kind == "outgoing":
            b = b.copy()
            b[-1] *= 0.5
        return b

    def shifted(self, z: complex, policy: OuterPolicy | None = None) -> "RadialOperator":
        """The same h_mu at another z (and outer policy, if given).

        The potential diagonal is shared, not copied; the resolution guard
        (``_MIN_PPW`` points per wavelength, else ResolutionError) is applied
        at the new z.
        """
        _resolution_guard(self.grid.h, z, action="error")
        return replace(self, z=complex(z), policy=policy or self.policy)

    def matvec(self, u):
        """(h_mu - z) u on the unknowns, by the plain stencil."""
        off = complex(self.off_diag)
        v = self.dd * u
        v[1:] += off * u[:-1]
        v[:-1] += off * u[1:]
        return v


# grid points per wavelength at sqrt(2 |z|) below which assembly refuses
_MIN_PPW = 10.0


def _resolution_guard(h: float, z: complex, action: str):
    k = math.sqrt(2.0 * abs(z))
    if k <= 0.0:
        return
    ppw = 2.0 * math.pi / k / h
    if ppw < _MIN_PPW:
        msg = (f"grid resolves only {ppw:.1f} points per wavelength at |z|={abs(z):.3g} "
               f"(minimum {_MIN_PPW:g}); decrease h")
        if action == "error":
            raise ResolutionError(msg)
        warnings.warn(msg, stacklevel=3)


def assemble_radial_operator(profile: WarpProfile, potential: PotentialSplit,
                             mu: float, grid: RadialGrid, z: complex,
                             policy: OuterPolicy | None = None,
                             cutoffs: CutoffSpec | None = None,
                             resolution_action: str = "error",
                             background: tuple | None = None) -> RadialOperator:
    """Discretize h_mu - z on the grid with the requested outer policy.

    Interior rows encode -(phi_{j-1} - 2 phi_j + phi_{j+1}) / (2 h^2)
    + (q_geom + mu/(2 f) + V - z) phi_j.  A resolution guard rejects grids
    with fewer than ``_MIN_PPW`` points per wavelength at sqrt(2 |z|)
    (``resolution_action`` = "warn" downgrades this to a warning).

    The geometry is taken at the radii and V at the nodes (on line models
    the constant d = 1 profile leaves exactly V(x)).  Only mu/(2f) depends
    on the mode: ``background`` = (GeometryPoint, V) already evaluated on
    the grid lets the modes of one grid share a single evaluation (None
    evaluates both here).
    """
    if mu < 0:
        raise ContractError("mode eigenvalue mu must be >= 0")
    _resolution_guard(grid.h, z, resolution_action)
    if background is None:
        background = (geometry_at(profile, cutoffs, grid.radii), potential.V(grid.nodes))
    pt, v = background
    wvals = pt.q_geom + mu / (2.0 * pt.f) + np.asarray(v, dtype=float)
    return RadialOperator(mu=float(mu), z=complex(z),
                          policy=policy or OuterPolicy.dirichlet(), grid=grid,
                          potential_diag=wvals)


def assemble_line_operator(v_of_x: Callable, grid: RadialGrid, z: complex,
                           policy: OuterPolicy | None = None,
                           resolution_action: str = "error") -> RadialOperator:
    """Discretize -(1/2) d^2/dx^2 + V(x) - z on a line grid (multi-end models)."""
    _resolution_guard(grid.h, z, resolution_action)
    wvals = np.asarray(v_of_x(grid.nodes), dtype=float)
    return RadialOperator(mu=0.0, z=complex(z),
                          policy=policy or OuterPolicy.dirichlet(), grid=grid,
                          potential_diag=wvals)


# ---------------------------------------------------------------------------
# Besov and weighted norms
# ---------------------------------------------------------------------------

# full annuli the decay slope of a B* profile is fitted over
_TAIL_ANNULI = 3


@dataclass(frozen=True)
class BesovProfile:
    """Per-annulus norms and the derived B / B* norms.

    ``b0_profile`` is R_nu^{-1/2} ||F_nu phi||, whose decay in nu is the
    desk-scale verdict for vanishing at infinity in the B* scale.
    """

    nus: np.ndarray
    radii: np.ndarray            # R_nu = 2^nu
    annulus_norms: np.ndarray
    b: float
    bstar: float
    b0_profile: np.ndarray
    partial_outer: bool

    @staticmethod
    def from_squares(nus, sq, partial_outer: bool) -> "BesovProfile":
        nus = np.asarray(nus, dtype=int)
        sq = np.maximum(np.asarray(sq, dtype=float), 0.0)
        norms = np.sqrt(sq)
        radii = 2.0 ** nus.astype(float)
        b = float(np.sum(np.sqrt(radii) * norms))
        prof = norms / np.sqrt(radii)
        bstar = float(np.max(prof)) if prof.size else 0.0
        return BesovProfile(nus=nus, radii=radii, annulus_norms=norms,
                            b=b, bstar=bstar, b0_profile=prof,
                            partial_outer=partial_outer)

    def restrict(self, nu_min: int) -> "BesovProfile":
        keep = self.nus >= nu_min
        return BesovProfile.from_squares(self.nus[keep], self.annulus_norms[keep] ** 2,
                                         self.partial_outer)

    def to_csv(self, path, meta: dict | None = None) -> None:
        from .tableio import write_csv
        header = {"b_norm": self.b, "bstar_norm": self.bstar,
                  "partial_outer": self.partial_outer}
        if meta:
            header.update(meta)
        write_csv(path, header, ["nu", "R_nu", "annulus_norm"],
                  [[int(nu), R, norm] for nu, R, norm
                   in zip(self.nus, self.radii, self.annulus_norms)])

    def tail_slope(self):
        """log2-slope of the B* profile over the last ``_TAIL_ANNULI`` full
        annuli (None if there are fewer)."""
        nus = self.nus[:-1] if self.partial_outer and self.nus.size > 1 else self.nus
        prof = self.b0_profile[:nus.size]
        if nus.size < _TAIL_ANNULI:
            return None
        x = nus[-_TAIL_ANNULI:].astype(float)
        y = prof[-_TAIL_ANNULI:]
        if np.any(y <= 0.0):
            return -np.inf
        return float(np.polyfit(x, np.log2(y), 1)[0])


def besov_norms(phi, grid: RadialGrid) -> BesovProfile:
    """Quadrature annulus norms of a grid function (modes: see besov_from_modes)."""
    return besov_from_modes([(phi, 1)], grid)


def besov_from_modes(mode_functions: Sequence, grid: RadialGrid) -> BesovProfile:
    """Aggregate annulus norms over (function, multiplicity) pairs.

    Per mode the quadrature density is summed into one bin per annulus index
    (``bincount`` over ``grid.nu``, each bin in node order) and the bins of
    the annuli present on the grid are kept.
    """
    nus = grid.annuli()
    sq = np.zeros(nus.size)
    for phi, mult in mode_functions:
        dens = grid.weights * np.abs(np.asarray(phi)) ** 2
        sq += mult * np.bincount(grid.nu, weights=dens)[nus]
    return BesovProfile.from_squares(nus, sq, grid.partial_outer)


def weighted_norm(phi, grid: RadialGrid, s: float) -> float:
    """|| r^s phi || by quadrature; evaluated in log space when r^s overflows."""
    return weighted_norm_on(grid, s)(phi)


def weighted_norm_on(grid: RadialGrid, s: float) -> Callable:
    """phi -> || r^s phi || on ``grid`` (``weighted_norm``), with the
    quadrature weights w r^(2s) evaluated once for every phi it is applied
    to.  Where r^s overflows each call works in log space instead."""
    if abs(s) * math.log(max(grid.r_max, 2.0)) < 300.0:
        wts = grid.weights * grid.radii ** (2.0 * s)
        return lambda phi: float(np.sqrt(np.sum(wts * np.abs(np.asarray(phi)) ** 2)))

    def log_space(phi):
        mag2 = grid.weights * np.abs(np.asarray(phi)) ** 2
        mask = mag2 > 0.0
        if not np.any(mask):
            return 0.0
        logs = 2.0 * s * np.log(grid.radii[mask]) + np.log(mag2[mask])
        return float(np.exp(0.5 * logsumexp(logs)))
    return log_space


def l2_norm(phi, grid: RadialGrid) -> float:
    return weighted_norm(phi, grid, 0.0)


def inner(phi, psi, grid: RadialGrid) -> complex:
    return complex(np.sum(grid.weights * np.conj(np.asarray(phi)) * np.asarray(psi)))


def smooth_bump(r, a: float, b: float):
    """C-infinity bump supported on (a, b), peak value 1."""
    r = np.atleast_1d(np.asarray(r, dtype=float))
    t = (2.0 * r - a - b) / (b - a)
    out = np.zeros_like(r)
    inside = np.abs(t) < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - t[inside] ** 2))
    return out if out.size > 1 else float(out[0])
