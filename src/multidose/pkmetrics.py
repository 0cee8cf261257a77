"""Per-cycle and single-dose pharmacokinetic summary quantities.

Cycle AUCs come from the analytic antiderivative of the two-exponential
cycle form; peaks from the closed-form critical point. When the
analytic in-cycle peak offset exceeds the cycle length (possible for
short intervals early in a schedule, where concentration is still
rising at the next dose), the reported maximum is the end-of-cycle
value and the result is flagged instead of silently pretending the
critical point was reached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import (PkParams, validate_cycle, validate_params, validate_positive,
                   validate_regimen)
from .bateman import (
    CycleCoefficients,
    PiecewiseSolution,
    absorption_gain,
    equi_multidose,
)


@dataclass(frozen=True)
class CycleMetrics:
    """Summary of one dosing cycle: AUC, peak time, peak concentration.

    peak_in_cycle is False when the analytic critical point falls after
    the cycle end; t_max and x_max then report the end-of-cycle supremum.
    """

    n: int
    auc: float
    t_max: float
    x_max: float
    peak_in_cycle: bool = True


def auc_single(p: PkParams, d: float) -> float:
    """Area under the single-dose curve over [0, inf)."""
    validate_params(p)
    return absorption_gain(p) * validate_positive("dose", d) * (1.0 / p.ke - 1.0 / p.ka)


def auc_cycle(p: PkParams, d: float, tau: float, n: int) -> float:
    """Area under the concentration curve over cycle n of an equi-dose plan."""
    validate_params(p)
    gain = absorption_gain(p) * validate_positive("dose", d)
    validate_positive("interval", tau)
    validate_cycle(n)
    return gain * (math.expm1(-n * p.ka * tau) / p.ka
                   - math.expm1(-n * p.ke * tau) / p.ke)


def _peak_from_coefficients(p: PkParams, c: CycleCoefficients) -> CycleMetrics:
    ratio = (p.ka * c.c2) / (p.ke * c.c1)
    offset = math.log(ratio) / (p.ka - p.ke)
    t_end = c.t_start + c.tau
    auc = _auc_from_coefficients(p, c.c1, c.c2, c.tau)
    if 0.0 < offset <= c.tau:
        x_max = (c.c1 * ratio ** (-p.ke / (p.ka - p.ke))
                 - c.c2 * ratio ** (-p.ka / (p.ka - p.ke)))
        return CycleMetrics(
            n=c.n, auc=auc,
            t_max=c.t_start + offset, x_max=x_max, peak_in_cycle=True,
        )
    # Concentration is still rising at the next dose; the in-cycle
    # supremum sits at the closing boundary.
    x_end = c.c1 * c.beta - c.c2 * c.alpha
    return CycleMetrics(
        n=c.n, auc=auc,
        t_max=t_end, x_max=x_end, peak_in_cycle=False,
    )


def _auc_from_coefficients(p: PkParams, c1: float, c2: float, tau: float) -> float:
    """Integral of c1 e^{-ke s} - c2 e^{-ka s} over s in [0, tau]."""
    return c2 * math.expm1(-p.ka * tau) / p.ka - c1 * math.expm1(-p.ke * tau) / p.ke


def peak(p: PkParams, d: float, tau: float, n: int) -> CycleMetrics:
    """Peak time and concentration within cycle n of an equi-dose plan."""
    return _peak_from_coefficients(p, equi_multidose(p, d, tau).coefficients(n))


def cycle_metrics(sol: PiecewiseSolution, n: int) -> CycleMetrics:
    """AUC and peak for cycle n of an oral piecewise solution.

    Bolus and FAT solutions are rejected: their cycles are not the single
    two-exponential these formulas integrate.
    """
    validate_regimen(sol.regimen)
    return _peak_from_coefficients(sol.params, sol.coefficients(n))
