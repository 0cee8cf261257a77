"""Asymptotic behavior of constant-interval dosing.

After many doses the trajectory settles into identical cycles, entered
at the limiting state (trough, d/(1 - alpha)). This module computes that
cycle's trough and peak (the asymptotic range), its width, its AUC
checked against the single-dose AUC, the exact cycle-to-cycle sup gap
with an envelope, and, in one array pass bounded by the envelope, the
first cycle index whose gap stays below epsilon.

The bounds are the trough and the peak of the piece entering the
limiting state, in EXTENDED precision; `dosing` inverts the quotient of
their gain-free shapes to design regimens. For an arbitrary schedule whose
entries converge, callers pass the limiting (dose, interval) explicitly.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .core import (EquiDose, PkParams, ValidationError, validate_cycle, validate_params,
                   validate_positive)
from .bateman import (EXTENDED, Bateman, PiecewiseSolution, decay_difference,
                      equi_multidose, validate_oral)
from .pkmetrics import auc_single

#: Cycles n_epsilon may scan before it reports that no steady state is near.
N_EPSILON_MAX_CYCLES = 100_000


@dataclass(frozen=True)
class SteadyStateSummary:
    """Limiting-cycle summary: bounds, width, AUC check, convergence index."""

    ss_lower: float
    ss_upper: float
    width: float
    auc_ss: float
    auc_single: float
    auc_rel_diff: float
    n_epsilon: int
    epsilon: float


def _trough(ka, ke, tau: float):
    """The limiting trough per unit gamma*d/V, at rates of any floating type:
    1 - alpha and 1 - beta from expm1, exact at tiny intervals, divided in
    sequence, as their product underflows where the quotient does not."""
    lib = np if isinstance(ka, np.generic) else math
    za, zb = -lib.expm1(-ka * tau), -lib.expm1(-ke * tau)
    if not (za and zb):
        raise ValidationError(f"interval {tau!r} h is too short to resolve at these rates")
    return ka * decay_difference(ka, ke, tau) / za / zb


def _limit(p: PkParams, d: float, tau: float):
    """The EXTENDED forms of p and the state (trough, d/za) entering each
    cycle of d every tau in the limit (p assumed valid): its peak is the
    limiting peak, its area over tau the limiting AUC."""
    b = Bateman.of(p, EXTENDED)
    trough = EXTENDED(p.gamma) * d / p.volume * _trough(b.ka, b.ke, tau)
    return b, trough, d / -np.expm1(-b.ka * tau)


def _checked_limit(p: PkParams, d: float, tau: float):
    validate_params(p)
    return _limit(p, validate_positive("dose", d), validate_positive("interval", tau))


def trough_shape(p: PkParams, tau: float) -> float:
    """The limiting trough per unit gamma*d/V (p assumed valid)."""
    return _trough(p.ka, p.ke, tau)


def peak_shape(p: PkParams, tau: float) -> float:
    """The limiting peak per unit gamma*d/V (p assumed valid)."""
    b, *state = _limit(p, 1.0, tau)
    return float(b.peak(*state)[1] * p.volume / p.gamma)


def ss_lower(p: PkParams, d: float, tau: float) -> float:
    """Limiting trough: the concentration left just before each dose, the
    limit of the end-of-cycle remainders."""
    return float(_checked_limit(p, d, tau)[1])


def ss_upper(p: PkParams, d: float, tau: float) -> float:
    """Limiting peak: the cycle maximum after many doses."""
    b, *state = _checked_limit(p, d, tau)
    return float(b.peak(*state)[1])


def width(p: PkParams, d: float, tau: float) -> float:
    """Peak-to-trough span of the limiting cycle."""
    b, trough, gut = _checked_limit(p, d, tau)
    return float(b.peak(trough, gut)[1] - trough)


def width_limit(p: PkParams, d: float) -> float:
    """Width as the interval grows without bound: the single-dose peak,
    the peak of the piece entering at (0, d)."""
    validate_params(p)
    return float(Bateman.of(p, EXTENDED).peak(0.0, validate_positive("dose", d))[1])


def gap_envelope(p: PkParams, d: float, tau: float, n):
    """A bound on every sup gap from cycle n on (n: an int or an array).

    The cycle-n gap is q*d*sup E over [(n-1)tau, n*tau] (periodicity_gap),
    and E(t) <= h(t) = e^{-slow t}*min(t, 1/|ka - ke|), which rises until
    min(1/slow, 1/|ka - ke|) and falls after. So h at the later of (n-1)tau
    and that turn never increases in n, with no 1/|ka - ke| scale; 1 + 1e-12
    keeps it above the rounded gaps where h/E -> 1."""
    validate_params(p)
    validate_positive("dose", d)
    validate_positive("interval", tau)
    validate_cycle(n)
    slow, reach = min(p.ka, p.ke), 1.0 / abs(p.ka - p.ke)
    t = np.maximum((n - 1) * tau, min(1.0 / slow, reach))
    scale = (1.0 + 1e-12) * p.ka * p.gamma / p.volume * d
    return scale * np.exp(-slow * t) * np.minimum(t, reach)


def periodicity_gap(sol: PiecewiseSolution, n):
    """Exact sup over cycle n of |x_n(t) - x_{n-1}(t - tau)|.

    Cycles are compared at equal post-dose offsets over cycle n's span, so
    the gap is the piece entering at the state increment (n = 1: at the
    state itself). For d every tau that increment is the first dose carried
    over (n-1)tau: the gap is q*d*E over cycle n, largest at the single-dose
    peak time clipped into it, and n may be an array. Bolus and FAT
    solutions are rejected: their cycles are not one oral piece.
    """
    validate_oral(sol)
    validate_cycle(n)
    b = sol.bateman
    if isinstance(sol.regimen, EquiDose):
        d, tau = sol.regimen.dose, sol.regimen.interval
        t = np.clip(b.peak(0.0, d)[0], (np.asarray(n) - 1) * tau, np.asarray(n) * tau)
        gaps = b.x(0.0, d, np.asarray(t, dtype=float))
        return gaps if np.ndim(n) else float(gaps)
    cur = sol.coefficients(n)
    dx, dy = cur.x_start, cur.y_start
    if n > 1:
        prev = sol.coefficients(n - 1)
        dx, dy = dx - prev.x_start, dy - prev.y_start
    # Candidates: both ends and the one turning point, clipped into the cycle.
    return float(max(abs(dx), abs(b.x(dx, dy, cur.tau)), abs(b.peak(dx, dy, cur.tau)[1])))


def n_epsilon(p: PkParams, d: float, tau: float, eps: float = 1e-6) -> int:
    """First cycle from which every later sup gap stays below eps.

    Gaps start at cycle 2. The envelope dominates them and never
    increases in n: unless it is below eps within N_EPSILON_MAX_CYCLES,
    the error names the slow rate. Else one periodicity_gap call gives
    the exact gaps before its first cycle below eps, found by bisection,
    and the answer starts their trailing run below eps.
    """
    validate_positive("eps", eps)
    if gap_envelope(p, d, tau, N_EPSILON_MAX_CYCLES) >= eps:
        name, rate = ("elimination", "ke") if p.ke <= p.ka else ("absorption", "ka")
        raise ValidationError(
            f"no steady state within {N_EPSILON_MAX_CYCLES} cycles at "
            f"eps={eps:g}: {name} is slow relative to the dosing interval "
            f"({rate}*tau={min(p.ka, p.ke) * tau:.3g})"
        )
    below = bisect.bisect(range(N_EPSILON_MAX_CYCLES), False, lo=1,
                          key=lambda k: gap_envelope(p, d, tau, k) < eps)
    n = np.arange(2, below)
    failing = n[periodicity_gap(equi_multidose(p, d, tau), n) >= eps]
    return int(failing[-1]) + 1 if failing.size else 2


def auc_equality_check(p: PkParams, d: float, tau: float
                       ) -> tuple[float, float, float]:
    """Self-test: the limiting per-cycle AUC equals the single-dose AUC.

    Returns (auc_single, auc_ss, relative difference). auc_ss is the area
    of the piece entering at the limiting state (ss_lower, d/za) over one
    interval; the identity holds to rounding.
    """
    total = auc_single(p, d)
    b, *state = _checked_limit(p, d, tau)
    limiting = float(b.area(*state, tau))
    denom = max(abs(total), abs(limiting))
    rel = abs(total - limiting) / denom if denom else 0.0
    return total, limiting, rel


def summarize(p: PkParams, d: float, tau: float,
              eps: float = 1e-6) -> SteadyStateSummary:
    """Full steady-state summary for an equi-dose regimen."""
    total, limiting, rel = auc_equality_check(p, d, tau)
    return SteadyStateSummary(
        ss_lower=ss_lower(p, d, tau),
        ss_upper=ss_upper(p, d, tau),
        width=width(p, d, tau),
        auc_ss=limiting,
        auc_single=total,
        auc_rel_diff=rel,
        n_epsilon=n_epsilon(p, d, tau, eps),
        epsilon=eps,
    )
