"""Every sweep-level verdict rule, each a pure function of measured numbers.

The paper's bounds (Rellich, the limiting absorption principle, the
radiation bounds, Hoelder continuity, Sommerfeld uniqueness) are one-sided
and uniform in Gamma, with existential constants.  The functions below turn
what an experiment has measured into "pass", "fail" or "inconclusive", and
the thresholds they read are fixed module constants, not parameters.
Condition rows (``conditions.InequalityRow``) carry their own per-row
certificates; ``combine_verdicts`` combines them as it combines a sweep's.

The module imports numpy alone, so any module of the package may import it.
"""

import numpy as np

# the largest max/min ratio of a quantity across a Gamma-decade that still
# counts as uniform in Gamma (the bounds' constants are existential)
BOUND_FACTOR = 2.0
# how far below the predicted floor a fitted Hoelder exponent may fall
HOELDER_SLACK = 0.1
# the smallest R^2 of a log-log fit whose slope a verdict may rest on
FIT_R2_MIN = 0.9
# the largest fitted decay slope of the Riccati residual that passes, and
# the residual at or under which it sits at the numerical floor
RICCATI_SLOPE_MAX = -0.8
RICCATI_FLOOR = 1e-10
# a radiation norm at most this fraction of the largest wrong-sign norm is
# under the numerical floor
RADIATION_FLOOR = 1e-7
# the largest log2-slope of a decaying annulus profile: an eigenfunction
# of the Rellich scan, the radiation profile of a Sommerfeld comparison
FLAT_SLOPE = -0.25
# Sommerfeld's Richardson gaps shrink when each is at most GAP_GROWTH times
# the one before, plus GAP_ATOL
GAP_GROWTH, GAP_ATOL = 1.05, 1e-14


def combine_verdicts(verdicts) -> str:
    """The verdict of a set of verdicts: "fail" (and "error", a run that
    gave none) beats "inconclusive" beats "pass", and an empty set decides
    nothing ("inconclusive")."""
    verdicts = set(verdicts)
    if verdicts & {"fail", "error"}:
        return "fail"
    return "inconclusive" if "inconclusive" in verdicts or not verdicts else "pass"


def bounded_verdict(spread: float) -> str:
    """Pass when a max/min spread is at most ``BOUND_FACTOR``."""
    return "pass" if spread <= BOUND_FACTOR else "fail"


def ratio_verdict(values):
    """(verdict, max/min ratio) of one quantity over its positive finite
    values (``bounded_verdict``); with none, ("inconclusive", nan)."""
    v = np.asarray(values, dtype=float)
    v = v[np.isfinite(v) & (v > 0)]
    if v.size == 0:
        return "inconclusive", float("nan")
    ratio = float(np.max(v) / np.min(v))
    return bounded_verdict(ratio), ratio


def gamma_uniformity(gammas, series: dict, floor: float = -np.inf):
    """(verdict, key -> ratio) of quantities measured over the Gamma ladder
    ``gammas``, ``series`` mapping a key to one quantity's list of values.

    A quantity at most ``floor`` everywhere is an identically satisfied
    bound whose variation is noise: it passes with ratio 1.  Any other
    takes ``ratio_verdict``, and an empty list decides nothing and reports
    no ratio.  The verdicts combine by ``combine_verdicts``, except that a
    ladder of fewer than two distinct Gamma, on which every ratio is 1 by
    construction, is inconclusive; its ratios are reported all the same.
    """
    judged = {key: ("pass", 1.0) if max(values) <= floor else ratio_verdict(values)
              for key, values in series.items() if values}
    verdict = combine_verdicts(v for v, _ in judged.values())
    return ("inconclusive" if len(set(gammas)) < 2 else verdict,
            {key: ratio for key, (_, ratio) in judged.items()})


def hoelder_verdict(slope: float, r2: float, floor: float) -> str:
    """A fitted Hoelder exponent ``slope`` passes at or above the predicted
    ``floor`` minus ``HOELDER_SLACK``; a fit with R^2 under ``FIT_R2_MIN``
    decides nothing."""
    if r2 < FIT_R2_MIN:
        return "inconclusive"
    return "pass" if slope >= floor - HOELDER_SLACK else "fail"


def sommerfeld_verdict(disc, tol, gaps, tail_bstar, tail_floor, slope) -> str:
    """Pass when the extrapolated and outgoing solves agree to ``tol`` and
    the radiation profile decays: its B* norm is at most ``tail_floor``, or
    its log2-``slope`` (None when unfitted) is at most ``FLAT_SLOPE``.  Richardson
    ``gaps`` (g1, g2) that do not shrink (``GAP_GROWTH``, ``GAP_ATOL``)
    leave the extrapolation, and so the verdict, undecided."""
    if not all(g2 <= g1 * GAP_GROWTH + GAP_ATOL for g1, g2 in gaps):
        return "inconclusive"
    decayed = tail_bstar <= tail_floor or (slope is not None and slope <= FLAT_SLOPE)
    return "pass" if disc <= tol and decayed else "fail"


def riccati_verdict(max_residual: float, slope: float, reliable: bool) -> str:
    """Pass at the floor (``RICCATI_FLOOR``), inconclusive on an unreliable
    fit, else pass iff the fitted slope is at most ``RICCATI_SLOPE_MAX``."""
    if max_residual <= RICCATI_FLOOR or (reliable and slope <= RICCATI_SLOPE_MAX):
        return "pass"
    return "fail" if reliable else "inconclusive"


def rellich_verdict(embedded) -> str:
    """Rellich's theorem rules out eigenvalues embedded above the critical
    energy: "fail" on any of ``embedded``, else "pass"."""
    return "fail" if embedded else "pass"
