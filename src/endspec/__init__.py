"""Numerical laboratory for spectral theory on warped-product ends.

Geometry and effective potentials, structural-condition verification with
constant extraction, asymptotic complex phases and the radial Riccati
equation, per-mode discrete resolvents (complex shift and outgoing row),
dyadic Besov norms, and theorem-level experiments: eigenvalue-absence scans,
limiting-absorption uniformity, radiation-condition bounds, resolvent
Hoelder continuity and outgoing-uniqueness comparisons.

The numerical policies every verdict rests on are fixed module constants,
not parameters: ``solver.ABSORPTION`` (shift solves need
Gamma (R_max - 1) >= 8), ``solver.THRESHOLD_WINDOW`` (0.05 around a
declared threshold) and ``geometry.TAIL_HORIZON`` (2^14, the outer radius
of every tail sup of q1).
"""

__version__ = "0.1.0"

import importlib

from .cutoffs import CutoffSpec
from .geometry import (CriticalEnergy, GeometryPoint, PotentialSplit,
                       WarpProfile, const_profile, critical_energy,
                       exp_profile, geometric_split, geometry_at,
                       hyperbolic_profile, power_profile,
                       stretched_exp_profile, tabulated_profile)
from .conditions import (Caps, ConditionReport, EscapeField2D,
                         check_conditions, check_escape_2d,
                         disk_complement_field, hyperbola_field,
                         sawtooth_field)
from .phase import (PhaseSpec, RiccatiSolution, apply_A, phase_a, r_lambda,
                    riccati_exact, riccati_residual)
from .radial import (BesovProfile, OuterPolicy, RadialGrid,
                     RadialOperator, assemble_line_operator,
                     assemble_radial_operator, besov_from_modes, besov_norms,
                     line_grid, mode_spectrum, smooth_bump, uniform_grid,
                     weighted_norm)
from .solver import (EigenScanResult, Resolvent, ResolventSolution, eigen_scan,
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
