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
from collections.abc import Iterator
from dataclasses import dataclass

from .core import (PkParams, validate_cycle, validate_params, validate_positive,
                   validate_regimen)
from .bateman import PiecewiseSolution, absorption_gain, equi_multidose


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


def _auc_from_coefficients(p: PkParams, c1: float, c2: float, tau: float) -> float:
    """Integral of c1 e^{-ke s} - c2 e^{-ka s} over s in [0, tau]."""
    return c2 * math.expm1(-p.ka * tau) / p.ka - c1 * math.expm1(-p.ke * tau) / p.ke


def peak(p: PkParams, d: float, tau: float, n: int) -> CycleMetrics:
    """Peak time and concentration within cycle n of an equi-dose plan."""
    return cycle_metrics(equi_multidose(p, d, tau), n)


def cycle_metrics(sol: PiecewiseSolution, n: int) -> CycleMetrics:
    """AUC and peak for cycle n of an oral piecewise solution."""
    return CycleMetrics(*next(cycle_rows(sol, n, first=n)))


def cycle_rows(sol: PiecewiseSolution, last: int,
               first: int = 1) -> Iterator[tuple[int, float, float, float, bool]]:
    """CycleMetrics fields of cycles first..last of an oral piecewise solution,
    as tuples, checked once. Bolus and FAT solutions are rejected: their cycles
    are not the single two-exponential these formulas integrate. Rows use Python
    floats and libm; numpy's vectorised exp, log and power differ in the last bit.
    """
    validate_regimen(sol.regimen)
    validate_cycle(first)
    validate_cycle(last, lowest=first, last=sol.n_cycles)
    cycles = range(first, last + 1)
    if sol.n_cycles is None:
        tau, alpha, beta = sol.regimen.interval, sol._alpha, sol._beta
        pieces = ((c1, c2, t_start, tau, alpha, beta)
                  for c1, c2, _, t_start in map(sol._equi_coefficients, cycles))
    else:
        j = slice((first - 1) * sol._per_cycle, last * sol._per_cycle, sol._per_cycle)
        pieces = zip(*(column.tolist() for column in (
            sol._c1[j], sol._c2[j], sol._starts[first - 1:last],
            sol._spans[j], sol._a[j], sol._b[j])))
    return _rows(sol.params, zip(cycles, pieces))


def _rows(p: PkParams, pieces) -> Iterator[tuple]:
    """cycle_rows from (n, (c1, c2, t_start, tau, alpha, beta)) per cycle."""
    ka, ke = p.ka, p.ke
    power_b, power_a = -ke / (ka - ke), -ka / (ka - ke)
    for n, (c1, c2, t_start, tau, alpha, beta) in pieces:
        ratio = (ka * c2) / (ke * c1)
        offset = math.log(ratio) / (ka - ke)
        auc = _auc_from_coefficients(p, c1, c2, tau)
        if 0.0 < offset <= tau:
            yield (n, auc, t_start + offset,
                   c1 * ratio ** power_b - c2 * ratio ** power_a, True)
        else:
            # Still rising at the next dose: the cycle's supremum is its closing value.
            yield n, auc, t_start + tau, c1 * beta - c2 * alpha, False
