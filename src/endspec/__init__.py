"""Numerical laboratory for spectral theory on warped-product ends.

Geometry and effective potentials, structural-condition verification with
constant extraction, asymptotic complex phases and the radial Riccati
equation, per-mode discrete resolvents (complex shift and outgoing row),
dyadic Besov norms, and theorem-level experiments: eigenvalue-absence scans,
limiting-absorption uniformity, radiation-condition bounds, resolvent
Hoelder continuity and outgoing-uniqueness comparisons.

The numerical policies every verdict rests on are fixed module constants,
not parameters: ``solver.ABSORPTION`` (shift solves need
Gamma (R_max - 1) >= 8), ``solver.RESIDUAL_TOL`` and ``solver.BLOWUP_LIMIT``
(1e-8 and 1e13, the largest relative residual and growth of a verified
solve), ``solver.THRESHOLD_WINDOW`` (0.05 around a declared threshold),
``geometry.TAIL_HORIZON`` (2^14, the outer radius of every tail sup of q1),
``conditions.EXPONENT_CAP`` (8, the search cap of sigma, tau, rho' and rho),
``conditions.FIT_R2_MIN`` (0.9, the smallest R^2 of a log-log fit a verdict
rests on), ``phase.RICCATI_SLOPE_MAX`` (-0.8, the largest fitted decay
slope of a passing Riccati residual), ``experiments._BOUND_FACTOR`` (2, the
largest max/min ratio across a Gamma-decade that counts as uniform),
``experiments._HOELDER_SLACK`` (0.1 below the predicted Hoelder floor),
``experiments._N_CANDIDATES`` (the cutoff indices 0-4 the Besov energy check
tries) and ``closure._SERIES_TOL`` (1e-16, the relative remainder at which
the frozen-tail sums cut their weight's binomial series).  Verdicts combine
by one rule, ``conditions.combine_verdicts``.  Every cross-section is the
round sphere S^{d-1}.
"""

__version__ = "0.1.0"

import importlib

from .cutoffs import CutoffSpec
from .geometry import (CriticalEnergy, GeometryPoint, PotentialSplit,
                       WarpProfile, const_profile, critical_energy,
                       exp_profile, geometric_split, geometry_at,
                       hyperbolic_profile, power_profile,
                       stretched_exp_profile, tabulated_profile)
from .conditions import (ConditionReport, EscapeField2D, check_conditions,
                         check_escape_2d, disk_complement_field,
                         hyperbola_field, sawtooth_field)
from .phase import (PhaseSpec, RiccatiSolution, apply_A, phase_a, r_lambda,
                    riccati_exact, riccati_residual)
from .radial import (BesovProfile, OuterPolicy, RadialGrid,
                     RadialOperator, assemble_line_operator,
                     assemble_radial_operator, besov_from_modes, besov_norms,
                     line_grid, mode_spectrum, smooth_bump, uniform_grid,
                     weighted_norm)
from .solver import (EigenScanResult, ResolventSolution, eigen_scan,
                     eigen_scan_tridiag, resolve)
from .models import (Model, euclidean_model, exp_model, free_model,
                     hyperbolic_model, multiend_model, power_model,
                     square_well_model, stretched_exp_model, tabulated_model)
from .experiments import (Bump, ComparisonReport, SweepTable, WeightSpec,
                          besov_energy_check, hoelder_estimate, lap_sweep,
                          radiation_sweep, sommerfeld_compare)
from .config import RunConfig, parse_config


def __getattr__(name):
    # ``cli`` and ``run`` load on first use: importing the CLI module while
    # the package initialises makes ``python -m endspec.cli`` warn that the
    # module it is about to execute is already in sys.modules
    if name in ("cli", "run"):
        cli = importlib.import_module(".cli", __name__)
        return cli if name == "cli" else cli.run
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
