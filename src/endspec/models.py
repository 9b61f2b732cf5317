"""Model presets: warped ends, potential wells and the two-ended line.

A ``Model`` bundles everything the solvers and experiments need: the warp
profile with its interior radius r0 (which fixes the cutoff family,
``WarpProfile.cutoffs``), the potential splitting, and (for
one-dimensional multi-end models) the line data.  Multi-end models
live on an x-grid [x_min, R_max] with a smooth escape function r(x) that
equals x on the right end and is clamped at 1 on the left end, so the
left end sits entirely inside the first dyadic annulus; the potential V(x)
steps smoothly between the two end levels, which are the two critical
energies.  Warped ends and the line share one operator path: the line is a
d = 1 constant profile (no geometric potential, the single mode mu = 0)
whose grid carries r, r' and r'' at the nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .conditions import (EXPONENT_CAP, ConditionReport, InequalityRow,
                         check_conditions)
from .errors import ContractError
from .geometry import (PotentialSplit, WarpProfile, const_profile,
                       critical_energy, exp_profile, geometric_split,
                       hyperbolic_profile, power_profile,
                       stretched_exp_profile, tabulated_profile)
from .radial import (OuterPolicy, RadialGrid, assemble_radial_operator,
                     line_grid, profile_modes, uniform_grid)
from .solver import EigenScanResult, eigen_scan, eigen_scan_tridiag


@dataclass(frozen=True)
class LineEnd:
    """Escape function of one-dimensional two-ended models (the potential
    V(x) lives in the model's ``PotentialSplit``)."""

    x_min: float
    coords: Callable           # x -> (r, r', r''); r >= 1 after clamping


@dataclass(frozen=True)
class Model:
    name: str
    profile: WarpProfile
    potential: PotentialSplit
    line: LineEnd | None = None
    thresholds: tuple = ()

    # -- structure ---------------------------------------------------------

    def make_grid(self, r_max: float, h: float) -> RadialGrid:
        if self.line is not None:
            return line_grid(self.line.x_min, r_max, h, self.line.coords)
        return uniform_grid(r_max, h)

    def modes(self, cap: float):
        return profile_modes(self.profile, cap)

    def operator(self, mu: float, grid: RadialGrid, z: complex,
                 policy: OuterPolicy | None = None):
        return assemble_radial_operator(self.profile, self.potential, mu, grid,
                                        z, policy)

    def scan(self, interval, r_max: float, h: float) -> EigenScanResult:
        """Eigenvalue scan of the mode mu = 0 up to ``r_max``: ``eigen_scan``
        on warped ends, ``eigen_scan_tridiag`` of the Dirichlet operator on
        line models (the drift taken up to 2 ``r_max``)."""
        grid = self.make_grid(r_max, h)
        if self.line is None:
            return eigen_scan(self.profile, self.potential, 0.0, grid, interval,
                              thresholds=self.thresholds)
        op = self.operator(0.0, grid, 0.0, OuterPolicy.dirichlet())
        op2 = self.operator(0.0, self.make_grid(2.0 * r_max, h), 0.0,
                            OuterPolicy.dirichlet())
        return eigen_scan_tridiag(op.dd.real, op.dl.real, grid, interval,
                                  dd2=op2.dd.real, dl2=op2.dl.real,
                                  thresholds=self.thresholds)

    # -- cached analysis -----------------------------------------------------

    def lambda0(self) -> float:
        return _lambda0_cached(self)

    def conditions(self) -> ConditionReport:
        return _conditions_cached(self)


@lru_cache(maxsize=64)
def _lambda0_cached(model: Model) -> float:
    return critical_energy(model.profile, model.potential).value


# h-form constants of line models, which get no full condition check: the
# one row's constant C and the decay exponent tau
_LINE_C = 1.0
_LINE_TAU = 2.0


@lru_cache(maxsize=64)
def _conditions_cached(model: Model) -> ConditionReport:
    if model.line is not None:
        rows = [InequalityRow(name="line_model_metadata", verdict="pass",
                              margin=float("inf"), witness_r=1.0,
                              constant=_LINE_C)]
        return ConditionReport(
            rows=rows, sigma=EXPONENT_CAP, tau=_LINE_TAU,
            rho_prime=EXPONENT_CAP, rho=EXPONENT_CAP,
            lambda0=model.lambda0(), grid_meta={"kind": "line"})
    return check_conditions(model.profile, model.potential)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def _warped(name, profile):
    return Model(name=name, profile=profile, potential=geometric_split(profile))


def free_model(r0: float = 2.0) -> Model:
    """Bare half-line [1, oo), Dirichlet wall at 1, no potential."""
    return _warped("free", const_profile(d=1, r0=r0))


def power_model(theta: float, d: int, r0: float = 2.0) -> Model:
    return _warped(f"power(theta={theta:g},d={d})", power_profile(theta, d, r0))


def euclidean_model(d: int, r0: float = 2.0) -> Model:
    """f = r^2: the flat end of R^d."""
    m = _warped(f"euclidean(d={d})", power_profile(2.0, d, r0))
    return m


def exp_model(kappa: float, d: int, r0: float = 2.0, amp: float = 1.0,
              lower_c: float = 0.0, lower_theta: float = 0.5) -> Model:
    return _warped(f"exp(kappa={kappa:g},d={d})",
                   exp_profile(kappa, d, r0, amp=amp, lower_c=lower_c,
                               lower_theta=lower_theta))


def stretched_exp_model(delta: float, theta: float, d: int,
                        r0: float = 2.0) -> Model:
    return _warped(f"stretchedexp(delta={delta:g},theta={theta:g},d={d})",
                   stretched_exp_profile(delta, theta, d, r0))


def tabulated_model(r_table, f_table, d: int, r0: float = 2.0) -> Model:
    return _warped(f"tabulated(d={d})",
                   tabulated_profile(r_table, f_table, d, r0))


def hyperbolic_model(d: int, r0: float = 2.0) -> Model:
    return _warped(f"hyperbolic(d={d})", hyperbolic_profile(d, r0))


def square_well_model(depth: float = 5.0, a: float = 1.0, b: float = 2.0,
                      r0: float = 2.0) -> Model:
    """Free half-line with the bounded compactly-supported well V = -depth on [a, b].

    The well goes into the short-range slot q22 of the splitting, so q1 = 0
    and the critical energy stays 0.
    """
    if not (1.0 <= a < b):
        raise ContractError("well must sit inside [1, oo)")
    prof = const_profile(d=1, r0=r0)

    def well(r):
        # midpoint value at the jumps = cell average, keeps eigenvalues O(h^2)
        r = np.asarray(r, dtype=float)
        v = np.where((r > a) & (r < b), -float(depth), 0.0)
        on_edge = np.isclose(r, a, rtol=0.0, atol=1e-9) \
            | np.isclose(r, b, rtol=0.0, atol=1e-9)
        return np.where(on_edge, -0.5 * float(depth), v)

    pot = geometric_split(prof, V_short=well)
    return Model(name=f"square_well(depth={depth:g})", profile=prof,
                 potential=pot)


def multiend_model(lambda0: float = 0.0, lambda1: float = 4.0,
                   x_min: float = -24.0, r0: float = 2.0) -> Model:
    """Two-ended line with potential levels lambda1 (left) and lambda0 (right).

    The escape function is r(x) = 1 for x <= 1 and r(x) = x for x >= 2 with a
    smooth monotone blend between, so r-balls are unbounded to the left and
    lambda0 = limsup q1 is the level of the right end.  The energy window
    (lambda0, lambda1) is the certified interval; lambda1 is recorded as a
    threshold that closes it and that eigenvalue scans exclude by a small
    window.  V is the step in x; its splitting q1 = lambda0 is the right end.
    """
    if not lambda1 > lambda0:
        raise ContractError("need lambda1 > lambda0")
    if x_min > -4.0:
        raise ContractError("x_min must leave room for the left end (<= -4)")
    lam0, lam1 = float(lambda0), float(lambda1)
    prof = const_profile(d=1, r0=r0)
    cut = prof.cutoffs

    def v_of_x(x):
        x = np.asarray(x, dtype=float)
        # smooth monotone step: lambda1 for x <= -1, lambda0 for x >= 1
        return lam0 + (lam1 - lam0) * cut.chi((x + 3.0) / 2.0)

    def coords(x):
        # r = 1 + (x - 1) w with w = 1 - chi(x), and r', r'' (the curvature
        # part of the h-form)
        x = np.asarray(x, dtype=float)
        w = 1.0 - cut.chi(x)
        c1, c2 = cut.chi(x, order=1), cut.chi(x, order=2)
        return 1.0 + (x - 1.0) * w, w - (x - 1.0) * c1, -2.0 * c1 - (x - 1.0) * c2

    line = LineEnd(x_min=float(x_min), coords=coords)

    def q1(r):
        return np.full_like(np.asarray(r, dtype=float), lam0)

    zero = lambda r: np.zeros_like(np.asarray(r, dtype=float))
    pot = PotentialSplit(V=v_of_x, q1=q1, dq1=zero, dq11=zero, d2q11=zero)
    return Model(name=f"multiend({lam0:g},{lam1:g})", profile=prof,
                 potential=pot, line=line, thresholds=(lam1,))
