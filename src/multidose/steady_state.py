"""Asymptotic behavior of constant-interval dosing.

After many doses the trajectory settles into identical cycles, entered
at the limiting state (trough, d/(1 - alpha)). This module computes that
cycle's trough and peak (the asymptotic range), its width, its AUC
checked against the single-dose AUC, the exact cycle-to-cycle sup gap
with an envelope, and, by one search over the exact gaps from the peak's
cycle on, the first cycle index whose gap stays below epsilon.

The bounds are the trough and the peak of the piece entering the
limiting state, cycle n's closed-form state at n = inf in EXTENDED
precision, as the bolus and FAT limits are; `dosing` inverts their
quotient to design regimens. For an arbitrary schedule whose entries
converge, callers pass the limiting (dose, interval) explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (EquiDose, PkParams, ValidationError, validate_cycle, validate_params,
                   validate_positive)
from .bateman import (EXTENDED, Bateman, PiecewiseSolution, _equi_state, equi_multidose,
                      validate_oral)

#: Below (ka + ke) * tau = 1e-4 the excess uses its quadratic leading term;
#: direct evaluation would drown in cancellation there.
_SERIES_THRESHOLD = 1e-4


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


def _limit(b: Bateman, d: float, tau: float):
    """The state (trough, gut) entering cycle n = inf of d every tau under b, a valid
    p's Bateman.of(p, EXTENDED): its peak is the limiting peak, its area the limiting AUC."""
    return _equi_state(b, d, EXTENDED(tau), math.inf)


def _excess(b: Bateman, tau: float, state=None):
    """(peak - trough)/trough in EXTENDED of the limiting cycle at tau > 0 (b as in `_limit`,
    state its (trough, gut), by default dose 1's): ka*ke*tau**2/8 below the series threshold,
    inf for a zero trough. Strictly increasing in tau; `dosing` inverts it, width scales it."""
    ka, ke = float(b.ka), float(b.ke)
    with np.errstate(over="ignore"):
        if (ka + ke) * tau < _SERIES_THRESHOLD:
            return ka * ke * tau * tau / 8.0
        trough, gut = _limit(b, 1.0, tau) if state is None else state
        return (b.peak(trough, gut)[1] - trough) / trough if trough else math.inf


def _checked_limit(p: PkParams, d: float, tau: float):
    b = Bateman.of(validate_params(p), EXTENDED)
    return (b, *_limit(b, validate_positive("dose", d), validate_positive("interval", tau)))


def ss_lower(p: PkParams, d: float, tau: float) -> float:
    """Limiting trough: the concentration left just before each dose, the
    limit of the end-of-cycle remainders; inf past float range."""
    return float(_checked_limit(p, d, tau)[1])


def ss_upper(p: PkParams, d: float, tau: float) -> float:
    """Limiting peak: the cycle maximum after many doses; inf past float range."""
    return _bounds(p, d, tau)[1]


def _bounds(p: PkParams, d: float, tau: float) -> tuple[float, float]:
    """(ss_lower, ss_upper), both read from one limiting state."""
    b, trough, gut = _checked_limit(p, d, tau)
    return float(trough), float(b.peak(trough, gut)[1])


def width(p: PkParams, d: float, tau: float) -> float:
    """Peak-to-trough span of the limiting cycle, the trough times the excess
    rounded once (peak - trough where the trough is 0 or inf); inf past float range."""
    return _width(*_checked_limit(p, d, tau), tau)


def _width(b: Bateman, trough, gut, tau: float) -> float:
    if 0.0 < trough < math.inf:
        return float(trough * _excess(b, tau, (trough, gut)))
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
    keeps it above the rounded gaps where h/E -> 1; n_epsilon does not read it."""
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
    m, b = np.asarray(validate_cycle(n, last=validate_oral(sol).n_cycles)), sol.bateman
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
    """First cycle from which every later sup gap stays below eps (gaps start at cycle 2).

    Cycle n's gap is the sup over [(n-1)tau, n*tau] of the single-dose curve, which rises
    once and then falls: from the cycle holding its peak on, gaps never increase. One
    search reads them (periodicity_gap) at doubling offsets, then 64 cycles per call.
    Past 2**53 cycles, where cycle numbers are no longer exact, ValidationError."""
    validate_positive("eps", eps)
    sol = equi_multidose(p, d, tau)
    t_peak, top = sol.bateman.peak(0.0, d)
    with np.errstate(over="ignore"):  # t_peak/tau and (k-1)*tau past float range are inf
        if (peak_cycles := t_peak / tau) < 2 ** 53 - 1:
            # gap(lo) >= eps (lo = start - 1 before any is seen); k's last gap is below eps.
            lo = (start := max(1, math.ceil(peak_cycles))) - 1
            k = np.minimum(lo + 2 ** np.arange(54), 2 ** 53)
            while (below := periodicity_gap(sol, k) < eps)[-1]:
                i = int(below.argmax())
                lo, hi = (k[i - 1] if i else lo), k[i]
                if hi - lo == 1:
                    return int(hi) if hi > start else 2
                k = lo - (lo - hi) * np.arange(1, 65) // 64
        elif top < eps:
            return 2
    name, rate = ("elimination", "ke") if p.ke <= p.ka else ("absorption", "ka")
    raise ValidationError(
        f"no steady state within 2**53 cycles at eps={eps:g}: {name} is slow relative "
        f"to the dosing interval ({rate}*tau={min(p.ka, p.ke) * tau:.3g})")


def auc_equality_check(p: PkParams, d: float, tau: float
                       ) -> tuple[float, float, float]:
    """Self-test: the limiting per-cycle AUC equals the single-dose AUC.

    Returns (auc_single, auc_ss, relative difference). auc_ss is the area
    of the piece entering at the limiting state (ss_lower, d/za) over one
    interval; the identity holds to rounding.
    """
    return _auc_check(d, tau, *_checked_limit(p, d, tau))


def _auc_check(d: float, tau: float, b: Bateman, trough, gut):
    total, limiting = float(b.area(0.0, d, math.inf)), float(b.area(trough, gut, tau))
    denom = max(abs(total), abs(limiting))
    return total, limiting, abs(total - limiting) / denom if denom else 0.0


def summarize(p: PkParams, d: float, tau: float,
              eps: float = 1e-6) -> SteadyStateSummary:
    """Full steady-state summary for an equi-dose regimen, its fields in order:
    bounds, width and AUC check all read from one limiting state."""
    b, trough, gut = limit = _checked_limit(p, d, tau)
    total, limiting, rel = _auc_check(d, tau, *limit)
    return SteadyStateSummary(float(trough), float(b.peak(trough, gut)[1]), _width(*limit, tau),
                              limiting, total, rel, n_epsilon(p, d, tau, eps), eps)
