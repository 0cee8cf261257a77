"""Asymptotic behavior of constant-interval dosing.

After many doses the trajectory settles into identical cycles, entered
at the limiting state (trough, d/(1 - alpha)). This module computes that
cycle's trough and peak (the asymptotic range), its width, its AUC
checked against the single-dose AUC, the exact cycle-to-cycle sup gap
with an envelope, and, in one array pass bounded by the envelope, the
first cycle index whose gap stays below epsilon.

The bounds are the trough and the peak of the piece entering the
limiting state, cycle n's closed-form state at n = inf in EXTENDED
precision, as the bolus and FAT limits are; `dosing` inverts their
quotient to design regimens. For an arbitrary schedule whose entries
converge, callers pass the limiting (dose, interval) explicitly.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .core import (EquiDose, PkParams, ValidationError, validate_cycle, validate_params,
                   validate_positive)
from .bateman import (EXTENDED, Bateman, PiecewiseSolution, _equi_state, equi_multidose,
                      validate_oral)
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


def _limit(p: PkParams, d: float, tau: float):
    """The EXTENDED forms of p and the state (trough, gut) entering cycle n
    of d every tau at n = inf (p assumed valid): its peak is the limiting
    peak, its area over tau the limiting AUC."""
    b = Bateman.of(p, EXTENDED)
    return (b, *_equi_state(b, d, EXTENDED(tau), math.inf))


def _checked_limit(p: PkParams, d: float, tau: float):
    validate_params(p)
    return _limit(p, validate_positive("dose", d), validate_positive("interval", tau))


def ss_lower(p: PkParams, d: float, tau: float) -> float:
    """Limiting trough: the concentration left just before each dose, the
    limit of the end-of-cycle remainders; inf past float range."""
    return float(_checked_limit(p, d, tau)[1])


def ss_upper(p: PkParams, d: float, tau: float) -> float:
    """Limiting peak: the cycle maximum after many doses; inf past float range."""
    b, *state = _checked_limit(p, d, tau)
    return float(b.peak(*state)[1])


def width(p: PkParams, d: float, tau: float) -> float:
    """Peak-to-trough span of the limiting cycle; inf past float range."""
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
    """Exact sup over cycle n of |x_n(t) - x_{n-1}(t - tau)|, n an int or an array.

    Cycles are compared at equal post-dose offsets over cycle n's span, so
    the gap is the sup of the piece entering at the state increment (n = 1:
    at the state itself): the largest of its two ends and its turning point.
    For d every tau that increment is the first dose carried over (n-1)tau;
    a table's is the difference of its EXTENDED states, rounded once. Bolus
    and FAT solutions are rejected: their cycles are not one oral piece.
    """
    validate_oral(sol)
    m, b = np.asarray(validate_cycle(n, last=sol.n_cycles)), sol.bateman
    if isinstance(sol.regimen, EquiDose):
        d, tau = sol.regimen.dose, sol.regimen.interval
        dx, dy = b.x(0.0, d, (m - 1) * tau), b.y(d, (m - 1) * tau)
    else:
        (x0, y0, spans), (px, py, _) = sol._pieces(m), sol._pieces(np.maximum(m - 1, 1))
        later, tau = m[..., None] > 1, spans[..., 0]
        dx, dy = ((v - np.where(later, w, 0.0))[..., 0].astype(float)
                  for v, w in ((x0, px), (y0, py)))
    gaps = np.maximum(np.maximum(abs(dx), abs(b.x(dx, dy, tau))), abs(b.peak(dx, dy, tau)[1]))
    return gaps if np.ndim(n) else float(gaps)


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
