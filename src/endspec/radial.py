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
(``RadialOperator.shifted``) re-evaluates no geometry.  All the modes of
a grid get their diagonals from one ``assemble_mode_operators`` call, from
a (GeometryPoint, V) the caller holds or over blocks of ``_ASSEMBLY_BLOCK``
nodes, so a long grid that only carries solves never holds its whole
geometry.  The off-diagonals are the constant -1/(2h^2), and the complex
diagonals are derived on access.  Solving lives in ``solver.resolve``.

Besov norms are computed from the dyadic annuli R_nu = 2^nu:

    ||phi||_B  = sum_nu R_nu^{1/2} ||F_nu phi||,
    ||phi||_B* = sup_nu R_nu^{-1/2} ||F_nu phi||,

with the decay of the B* profile R_nu^{-1/2}||F_nu phi|| encoding membership
in the subspace that vanishes at infinity.  A grid finds its annuli once;
each aggregation is then one ``bincount`` over the annulus index per mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, ResolutionError
from .geometry import PotentialSplit, WarpProfile, const_profile, geometry_at


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
    ``weights`` (trapezoid, h inside and h/2 at both ends) and ``nu`` (the
    annulus index floor(log2 r) of each node, >= 0 because the radii are
    clamped to r >= 1) are built the first time they are read and kept: a
    grid that only carries shift solves, such as the long Sommerfeld
    domain, holds its nodes and nothing else, and its operators hold their
    potential diagonals, built block by block with no geometry of the
    grid's length (``assemble_mode_operators``).  The arrays are read-only,
    so a shared one cannot be written through either name.
    """

    nodes: np.ndarray
    radii: np.ndarray
    dr: np.ndarray
    d2r: np.ndarray
    h: float

    def __post_init__(self):
        for a in (self.nodes, self.radii, self.dr, self.d2r):
            a.flags.writeable = False

    @property
    def r_max(self) -> float:
        return float(self.radii[-1])

    @property
    def n(self) -> int:
        return self.nodes.size

    @cached_property
    def weights(self) -> np.ndarray:
        w = np.full(self.n, self.h)
        w[0] = w[-1] = 0.5 * self.h
        w.flags.writeable = False
        return w

    @cached_property
    def nu(self) -> np.ndarray:
        nu = _annulus_index(self.radii)
        nu.flags.writeable = False
        return nu

    @property
    def top_annulus(self) -> int:
        """Largest entry of ``nu``, read from the last radius alone."""
        return int(_annulus_index(self.radii[-1:])[0])

    @property
    def partial_outer(self) -> bool:
        """Whether the top annulus is cut short: the node at r_max = 2^m
        opens annulus m with a single point, and any non-dyadic r_max
        truncates its top annulus.  Taken from the last radius alone."""
        return bool(self.radii[-1] < 2.0 ** (self.top_annulus + 1) - 1e-12)

    def prefix(self, n: int) -> "RadialGrid":
        """The grid of the first n nodes, as views of this grid's arrays: the
        nodes and coordinates ``make_grid`` builds for the shorter domain,
        bit for bit, at no memory."""
        return self.section(slice(0, n))

    def section(self, span: slice) -> "RadialGrid":
        """The grid of the nodes in ``span``, as views of this grid's arrays
        (this grid itself if ``span`` covers it).  Its trapezoid weights are
        this grid's, except h/2 at an end of the section that is not an end
        of this grid."""
        if span.indices(self.n) == (0, self.n, 1):
            return self
        nodes = self.nodes[span]
        radii = nodes if self.radii is self.nodes else self.radii[span]
        return RadialGrid(nodes=nodes, radii=radii, dr=self.dr[span],
                          d2r=self.d2r[span], h=self.h)

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
    """Nodes lo + k h on [lo, hi]; ``coords(nodes)`` gives (radii, r', r'').
    The nodes are formed in place from a float ``arange`` (whose entries k
    are exact), so no integer array is made.  A step h that is not positive
    and finite is refused."""
    if not 0.0 < h < math.inf:
        raise ContractError(f"the grid step h must be positive and finite, got {h}")
    n = int(round((hi - lo) / h)) + 1
    nodes = np.arange(n, dtype=float)
    nodes *= h
    nodes += lo
    radii, dr, d2r = coords(nodes)
    return RadialGrid(nodes=nodes, radii=radii, dr=dr, d2r=d2r, h=float(h))


def uniform_grid(r_max: float, h: float) -> RadialGrid:
    """Half-line grid on [1, r_max], from the wall r = 1, with spacing h
    (trapezoid weights); ``radii`` and ``nodes`` are one read-only array,
    r' = 1 and r'' = 0."""
    if r_max <= 1.0:
        raise ContractError("r_max must exceed the wall r = 1")
    return _grid(1.0, r_max, h, lambda x: (x, np.broadcast_to(1.0, x.size),
                                             np.broadcast_to(0.0, x.size)))


def line_grid(x_min: float, x_max: float, h: float, coords: Callable) -> RadialGrid:
    """Grid for one-dimensional multi-end models on [x_min, x_max].

    ``coords(x)`` gives the escape function r(x) with r' and r''.  Clamping
    r >= 1 puts the left end into the first annulus (its r-balls are
    unbounded there), while the right end has r ~ x.
    """
    if x_max <= x_min:
        raise ContractError("x_max must exceed x_min")

    def clamped(x):
        r, dr, d2r = coords(x)
        return (np.maximum(np.asarray(r, dtype=float), 1.0),
                np.asarray(dr, dtype=float), np.asarray(d2r, dtype=float))
    return _grid(x_min, x_max, h, clamped)


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


def mode_spectrum(cap: float, d: int) -> tuple:
    """Spectrum of the round sphere S^{d-1} up to the cap, as (mu,
    multiplicity) pairs: mu = l(l+d-2) with the standard multiplicities (at
    d = 2 the circle, mu = k^2 with multiplicity 2 for k >= 1).
    """
    if cap < 0:
        raise ContractError("cap must be >= 0")
    if d < 2:
        raise ContractError("the sphere cross-section needs dimension d >= 2")
    n = d - 1
    entries, l = [], 0
    while l * (l + n - 1) <= cap:
        entries.append((float(l * (l + n - 1)), _sphere_multiplicity(l, n)))
        l += 1
    return tuple(entries)


def profile_modes(profile: WarpProfile, cap: float) -> tuple:
    if cap < 0:
        raise ContractError("cap must be >= 0")
    if profile.d == 1:
        return ((0.0, 1),)
    return mode_spectrum(cap, profile.d)


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
    symmetric, so a solve halves the source's entry on that row too.
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
        # (-2 off + w) - z, formed in the one complex buffer it is returned in
        n = self.n_unknowns
        dd = np.empty(n, dtype=complex)
        np.add(self.potential_diag[1:1 + n], -2.0 * self.off_diag, out=dd.real)
        dd.real -= self.z.real
        dd.imag[...] = 0.0 - self.z.imag
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

    def shifted(self, z: complex, policy: OuterPolicy | None = None) -> "RadialOperator":
        """The same h_mu at another z (and outer policy, if given).

        The potential diagonal is shared, not copied; the resolution guard
        (``_MIN_PPW`` points per wavelength, else ResolutionError) is applied
        at the new z.
        """
        _resolution_guard(self.grid.h, z)
        return replace(self, z=complex(z), policy=policy or self.policy)

    def on_prefix(self, grid_p: RadialGrid) -> "RadialOperator":
        """The same operator on ``grid_p``, a prefix of its grid or a grid
        built with the same first nodes: the potential diagonal is a view."""
        return replace(self, grid=grid_p, potential_diag=self.potential_diag[:grid_p.n])

    def matvec(self, u):
        """(h_mu - z) u on the unknowns, by the plain stencil."""
        off = complex(self.off_diag)
        v = self.dd * u
        v[1:] += off * u[:-1]
        v[:-1] += off * u[1:]
        return v


# grid points per wavelength at sqrt(2 |z|) below which assembly (and an
# eigen-scan at the end of its interval) refuses
_MIN_PPW = 10.0


def _resolution_guard(h: float, z: complex):
    k = math.sqrt(2.0 * abs(z))
    if k <= 0.0:
        return
    ppw = 2.0 * math.pi / k / h
    if ppw < _MIN_PPW:
        raise ResolutionError(
            f"grid resolves only {ppw:.1f} points per wavelength at |z|={abs(z):.3g} "
            f"(minimum {_MIN_PPW:g}); decrease h")


# nodes per block when potential diagonals are built without a whole-grid
# GeometryPoint: one block's geometry and V are the assembly's transients
_ASSEMBLY_BLOCK = 1 << 15


def _potential_diagonal(pt, v, mu: float, out=None) -> np.ndarray:
    """q_geom + mu/(2f) + V from the geometry ``pt`` and V on the same
    nodes, into ``out`` if given: the one formula of every assembly.  It is
    formed in place, 2f, then mu/(2f), then + q_geom and + V, which is the
    sum as written bit for bit (an IEEE sum or product of two terms does
    not depend on their order); at mu = 0, mu/(2f) is +0 exactly, f being
    finite and positive, so it is added as that constant."""
    if mu == 0.0:
        out = np.add(pt.q_geom, 0.0, out=out)
    else:
        out = np.multiply(pt.f, 2.0, out=out)
        np.divide(mu, out, out=out)
        out += pt.q_geom
    out += np.asarray(v, dtype=float)
    return out


def assemble_mode_operators(profile: WarpProfile, potential: PotentialSplit,
                            mus: Sequence, grid: RadialGrid, z: complex,
                            policy: OuterPolicy | None = None,
                            background: tuple | None = None) -> list:
    """One operator h_mu - z on the grid per mode in ``mus``, each with the
    given outer policy: the one place a potential diagonal is formed.

    ``background`` = (GeometryPoint, V) already evaluated on the grid gives
    every diagonal from it.  None builds them over blocks of
    ``_ASSEMBLY_BLOCK`` nodes: each block's geometry (at the radii, of
    which a diagonal reads f and q_geom) and V (at the nodes) are evaluated
    once and shared by every mode, whose diagonal is written into it in
    place, and no GeometryPoint of the whole grid is formed, so callers that
    only solve hold nothing of the grid's length but its nodes and the
    diagonals (a grid of one block is its own block,
    ``RadialGrid.section``).  Every step is elementwise, so both give the
    same diagonals bit for bit.
    A negative mu (ContractError) and an under-resolved z
    (``_resolution_guard``) are refused before anything is evaluated.
    """
    if any(mu < 0 for mu in mus):
        raise ContractError("mode eigenvalue mu must be >= 0")
    _resolution_guard(grid.h, z)
    if background is not None:
        diags = [_potential_diagonal(*background, mu) for mu in mus]
    else:
        diags = [np.empty(grid.n) for _ in mus]
        for lo in range(0, grid.n, _ASSEMBLY_BLOCK):
            span = slice(lo, lo + _ASSEMBLY_BLOCK)
            part = grid.section(span)
            block = (geometry_at(profile, part.radii), potential.V(part.nodes))
            for mu, diag in zip(mus, diags):
                _potential_diagonal(*block, mu, out=diag[span])
    return [RadialOperator(mu=float(mu), z=complex(z),
                           policy=policy or OuterPolicy.dirichlet(), grid=grid,
                           potential_diag=diag)
            for mu, diag in zip(mus, diags)]


def assemble_radial_operator(profile: WarpProfile, potential: PotentialSplit,
                             mu: float, grid: RadialGrid, z: complex,
                             policy: OuterPolicy | None = None) -> RadialOperator:
    """Discretize h_mu - z on the grid with the requested outer policy.

    Interior rows encode -(phi_{j-1} - 2 phi_j + phi_{j+1}) / (2 h^2)
    + (q_geom + mu/(2 f) + V - z) phi_j.  A resolution guard rejects grids
    with fewer than ``_MIN_PPW`` points per wavelength at sqrt(2 |z|)
    (ResolutionError); z = 0 passes, so eigen-scans guard their interval.

    The geometry is taken at the radii and V at the nodes (on line models
    the constant d = 1 profile leaves exactly V(x)), block by block:
    ``assemble_mode_operators`` for the one mode.  Callers with several
    modes on one grid, or a geometry already evaluated on it, call that
    function once instead.
    """
    return assemble_mode_operators(profile, potential, [mu], grid, z, policy)[0]


def assemble_line_operator(v_of_x: Callable, grid: RadialGrid, z: complex,
                           policy: OuterPolicy | None = None) -> RadialOperator:
    """Discretize -(1/2) d^2/dx^2 + V(x) - z on a line grid (multi-end
    models): the warped assembly on the constant d = 1 profile, whose
    q_geom and mu/(2f) are exactly zero."""
    return assemble_radial_operator(const_profile(d=1), PotentialSplit(V=v_of_x),
                                    0.0, grid, z, policy)


# ---------------------------------------------------------------------------
# Besov and weighted norms
# ---------------------------------------------------------------------------

# full annuli the decay slope of a B* profile is fitted over
_TAIL_ANNULI = 3


@dataclass(frozen=True)
class BesovProfile:
    """Per-annulus norms and the derived B / B* norms.

    ``b0_profile`` is R_nu^{-1/2} ||F_nu phi||, R_nu = 2^nu, whose decay in nu is the
    desk-scale verdict for vanishing at infinity in the B* scale.
    """

    nus: np.ndarray
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
        return BesovProfile(nus=nus, annulus_norms=norms,
                            b=b, bstar=bstar, b0_profile=prof,
                            partial_outer=partial_outer)

    def restrict(self, nu_min: int) -> "BesovProfile":
        keep = self.nus >= nu_min
        return BesovProfile.from_squares(self.nus[keep], self.annulus_norms[keep] ** 2,
                                         self.partial_outer)

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
    if abs(s) * math.log(max(grid.r_max, 2.0)) < 300.0:
        return float(np.sqrt(np.sum(norm_weights(grid, s) * np.abs(np.asarray(phi)) ** 2)))
    mag2 = grid.weights * np.abs(np.asarray(phi)) ** 2
    mask = mag2 > 0.0
    if not np.any(mask):
        return 0.0
    # log-sum-exp shifted by the largest term, so no exponent overflows
    logs = 2.0 * s * np.log(grid.radii[mask]) + np.log(mag2[mask])
    top = logs.max()
    return float(np.exp(0.5 * (top + np.log(np.sum(np.exp(logs - top))))))


def norm_weights(grid: RadialGrid, s: float) -> np.ndarray:
    """The quadrature weights w r^(2s) of || r^s phi ||^2 on ``grid``."""
    return grid.weights * grid.radii ** (2.0 * s)


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
