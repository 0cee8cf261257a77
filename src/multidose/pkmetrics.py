"""Per-cycle and single-dose pharmacokinetic summary quantities.

Each is a closed form of `bateman.Bateman` at the state entering a piece:
AUCs its area, peaks its one turning point. Where that point falls outside
the cycle (short intervals early on, still rising at the next dose), the
maximum is the value at that end of the cycle, and the row is flagged.
All are computed in `bateman.EXTENDED` precision and round once to floats.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .core import PkParams, validate_cycle, validate_params, validate_positive
from .bateman import EXTENDED, Bateman, PiecewiseSolution, equi_multidose, validate_oral

#: Cycles per numpy pass of cycle_rows, which streams rows a block at a time.
ROWS_PER_PASS = 4096


@dataclass(frozen=True)
class CycleMetrics:
    """Summary of one dosing cycle: AUC, peak time, peak concentration.

    peak_in_cycle is False when the concentration has no turning point
    inside the cycle; t_max and x_max then report its supremum, at the
    cycle end where it still rises (or at the opening where it only falls).
    """

    n: int
    auc: float
    t_max: float
    x_max: float
    peak_in_cycle: bool = True


def auc_single(p: PkParams, d: float) -> float:
    """Area under the single-dose curve over [0, inf): gamma*d/(V*ke)."""
    validate_params(p)
    return float(Bateman.of(p, EXTENDED).area(0.0, validate_positive("dose", d), math.inf))


def auc_cycle(p: PkParams, d: float, tau: float, n: int) -> float:
    """Area under the concentration curve over cycle n of an equi-dose plan.

    The doses before cycle n contribute what one dose does over [0, n*tau].
    """
    validate_params(p)
    validate_positive("dose", d)
    validate_positive("interval", tau)
    return float(Bateman.of(p, EXTENDED).area(0.0, d, validate_cycle(n) * EXTENDED(tau)))


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
    are not the single oral piece these formulas read.
    """
    validate_oral(sol)
    validate_cycle(first)
    validate_cycle(last, lowest=first, last=sol.n_cycles)
    return itertools.chain.from_iterable(
        _rows(sol, lo, min(lo + ROWS_PER_PASS, last + 1))
        for lo in range(first, last + 1, ROWS_PER_PASS))


def _rows(sol: PiecewiseSolution, first: int, stop: int) -> Iterator[tuple]:
    """cycle_rows of cycles first..stop-1, from one array pass."""
    b, rows = sol._exact, np.arange(first, stop)
    x0, y0, tau = (v[..., 0] for v in sol._pieces(rows))
    # A constant interval's dose times in EXTENDED: t_max rounds once from them.
    t_start = ((rows - 1) * EXTENDED(sol.regimen.interval) if sol._equi
               else sol._starts[first - 1:stop - 1])
    s, x_max = b.peak(x0, y0, tau)
    return zip(range(first, stop), *(column.astype(float).tolist() for column in (
        b.area(x0, y0, tau), t_start + s, x_max)), ((0.0 < s) & (s < tau)).tolist())
