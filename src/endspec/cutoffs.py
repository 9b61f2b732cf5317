"""Smooth cutoff functions on the radius.

All localization in the package is built from a single decreasing transition
function chi with

    chi(t) = 1  for t <= 1,      chi(t) = 0  for t >= 2,
    0 <= chi <= 1,               chi' <= 0.

Inside the band (1, 2) we use the quintic smoothstep, which is C^2 at the
band edges; its value and first three derivatives are available in closed
form so that derived quantities (eta, the smoothed mean curvature, the
effective potential and its two derivatives) never need numerical
differentiation.  The band is local: on a long radial grid it holds a few
nodes out of millions, so only the requested order is evaluated, and only
on the in-band nodes; every other node takes its plateau value.

Derived families, for dyadic scales R_n = 2^n:

    chi_n(r)    = chi(r / R_n)
    chibar_n    = 1 - chi_n
    eta(r)      = 1 - chi(2 r / r0)         (0 below r0/2, 1 above r0)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError


def _smoothstep(s, order: int):
    """Quintic smoothstep on [0, 1] or its derivative of the given order."""
    if order == 0:
        return s * s * s * (10.0 + s * (-15.0 + 6.0 * s))
    if order == 1:
        return 30.0 * s * s * (1.0 + s * (-2.0 + s))
    if order == 2:
        return s * (60.0 + s * (-180.0 + 120.0 * s))
    return 60.0 + s * (-360.0 + 360.0 * s)


@dataclass(frozen=True)
class CutoffSpec:
    """Transition function and the dimensionless interior radius r0 >= 2."""

    r0: float = 2.0

    def __post_init__(self):
        if self.r0 < 2.0:
            raise ContractError(f"r0 must be >= 2, got {self.r0}")

    # -- the base transition function ------------------------------------

    def chi(self, t, order: int = 0):
        """chi(t) or its derivative of the given order (0..3).

        Outside the band (1, 2) all derivatives vanish; at the band edges the
        third derivative is taken one-sided from inside.
        """
        if order not in (0, 1, 2, 3):
            raise ContractError(f"chi derivatives available up to order 3, got {order}")
        t = np.asarray(t, dtype=float)
        inside = (t > 1.0) & (t < 2.0)
        if order == 0:
            out = np.where(t >= 2.0, 0.0, 1.0)      # NaN falls on the plateau
            out[inside] = 1.0 - _smoothstep(t[inside] - 1.0, 0)
        else:
            out = np.zeros(t.shape)
            out[inside] = -_smoothstep(t[inside] - 1.0, order)
        return out if out.ndim else float(out)

    # -- dyadic family ----------------------------------------------------

    def chi_n(self, r, n: int):
        return self.chi(np.asarray(r, dtype=float) / 2.0**n)

    def chibar_n(self, r, n: int):
        return 1.0 - self.chi_n(r, n)

    # -- interior cutoff eta ----------------------------------------------

    def eta(self, r, order: int = 0, scale: float | None = None):
        """eta = 1 - chi(2 r / scale), derivatives in r up to order 3.

        The default scale is r0, giving the interior cutoff: eta = 0 for
        r <= r0/2 and eta = 1 for r >= r0.  Other scales realize the
        threshold cutoff eta_lambda = 1 - chi(2 r / r_lambda).
        """
        R = self.r0 if scale is None else float(scale)
        r = np.asarray(r, dtype=float)
        c = self.chi(2.0 * r / R, order=order)
        if order == 0:
            return 1.0 - c
        return -c * (2.0 / R) ** order
