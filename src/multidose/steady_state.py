"""Asymptotic behavior of constant-interval dosing.

After many doses the trajectory settles into identical cycles. This
module computes the limiting trough and peak of that cycle (the
asymptotic concentration range), its width, the limiting per-cycle AUC,
the cycle-to-cycle sup-norm gap with its exponential envelope, and the
first cycle index at which the gap stays below a given epsilon.

The limiting quantities are defined for equi-dose regimens. For an
arbitrary schedule whose (dose, interval) entries converge, the
equi-dose summary of the limiting pair describes the asymptote; callers
pass that pair explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import EquiDose, PkParams, ValidationError, validate_params
from .bateman import PiecewiseSolution, absorption_gain, equi_multidose
from .pkmetrics import auc_single

#: Grid density for sup-norm gap measurements (points per cycle).
GAP_GRID_POINTS = 10_000

#: Cycles n_epsilon may scan before it reports that no steady state is near.
N_EPSILON_MAX_CYCLES = 100_000


@dataclass(frozen=True)
class SteadyStateSummary:
    """Limiting-cycle summary: bounds, width, AUC, convergence index."""

    ss_lower: float
    ss_upper: float
    width: float
    auc_ss: float
    n_epsilon: int
    epsilon: float


def _decay_factors(p: PkParams, tau: float) -> tuple[float, float]:
    return math.exp(-p.ka * tau), math.exp(-p.ke * tau)


def ss_lower(p: PkParams, d: float, tau: float) -> float:
    """Limiting trough: the concentration left just before each dose.

    Equals the limit of the end-of-cycle remainders.
    """
    validate_params(p)
    if not (d > 0.0 and tau > 0.0):
        raise ValidationError("dose and interval must be > 0")
    # Denominators via expm1 (exact at tiny intervals), numerators via
    # exp (exact at huge ones).
    za = -math.expm1(-p.ka * tau)
    zb = -math.expm1(-p.ke * tau)
    alpha, beta = math.exp(-p.ka * tau), math.exp(-p.ke * tau)
    return absorption_gain(p) * d * (beta / zb - alpha / za)


def ss_upper(p: PkParams, d: float, tau: float) -> float:
    """Limiting peak: the cycle maximum after many doses."""
    validate_params(p)
    if not (d > 0.0 and tau > 0.0):
        raise ValidationError("dose and interval must be > 0")
    za = -math.expm1(-p.ka * tau)
    zb = -math.expm1(-p.ke * tau)
    ratio = (p.ka * zb) / (p.ke * za)
    e2 = ratio ** (-p.ke / (p.ka - p.ke))
    e1 = ratio ** (-p.ka / (p.ka - p.ke))
    return absorption_gain(p) * d * (e2 / zb - e1 / za)


def width(p: PkParams, d: float, tau: float) -> float:
    """Peak-to-trough span of the limiting cycle."""
    return ss_upper(p, d, tau) - ss_lower(p, d, tau)


def width_limit(p: PkParams, d: float) -> float:
    """Width as the interval grows without bound: the single-dose peak."""
    validate_params(p)
    if not d > 0.0:
        raise ValidationError(f"dose must be > 0, got {d!r}")
    r = p.ka / p.ke
    return absorption_gain(p) * d * (
        r ** (-p.ke / (p.ka - p.ke)) - r ** (-p.ka / (p.ka - p.ke))
    )


def gap_envelope(p: PkParams, d: float, tau: float, n: int) -> float:
    """Exponential bound dominating the cycle-n sup gap.

    The gap between cycle n and the previous cycle, both measured from
    their own dose instant, is (C1(n)-C1(n-1))e^{-ke s} -
    (C2(n)-C2(n-1))e^{-ka s} with coefficient differences g*beta^(n-1)
    and g*alpha^(n-1); the triangle inequality at s=0 gives this bound.
    """
    if n < 1:
        raise ValidationError(f"cycle number must be >= 1, got {n}")
    alpha, beta = _decay_factors(p, tau)
    g = abs(absorption_gain(p)) * d
    return g * (alpha ** (n - 1) + beta ** (n - 1))


def periodicity_gap(sol: PiecewiseSolution, n: int) -> float:
    """Sup over cycle n of |x_n(t) - x_{n-1}(t - tau)|.

    Both cycles are compared at equal post-dose offsets over cycle n's
    span (the previous cycle's closed form extends naturally if its own
    interval is shorter). n = 1 compares against the zero function, i.e.
    returns the sup of the first cycle itself.
    """
    if n < 1:
        raise ValidationError(f"cycle number must be >= 1, got {n}")
    p = sol.params
    cur = sol.coefficients(n)
    if n == 1:
        dc1, dc2 = cur.c1, cur.c2
    elif isinstance(sol.regimen, EquiDose):
        # The geometric sums telescope: the coefficient increments are
        # single powers, cheaper and free of subtractive cancellation.
        g = absorption_gain(p) * sol.regimen.dose
        dc1 = g * cur.beta ** (n - 1)
        dc2 = g * cur.alpha ** (n - 1)
    else:
        prev = sol.coefficients(n - 1)
        dc1, dc2 = cur.c1 - prev.c1, cur.c2 - prev.c2
    # The difference is itself a two-exponential; its only interior
    # extremum joins the endpoints and a uniform grid in the candidate set.
    s = np.linspace(0.0, cur.tau, GAP_GRID_POINTS)
    candidates = np.abs(dc1 * np.exp(-p.ke * s) - dc2 * np.exp(-p.ka * s))
    best = float(candidates.max())
    if dc1 != 0.0 and dc2 != 0.0 and (p.ka * dc2) / (p.ke * dc1) > 0.0:
        s_star = math.log((p.ka * dc2) / (p.ke * dc1)) / (p.ka - p.ke)
        if 0.0 < s_star < cur.tau:
            best = max(best, abs(dc1 * math.exp(-p.ke * s_star)
                                 - dc2 * math.exp(-p.ka * s_star)))
    return best


def n_epsilon(p: PkParams, d: float, tau: float, eps: float = 1e-6) -> int:
    """First cycle from which every later sup gap stays below eps.

    Scanning starts at cycle 2 (cycle 1 has no predecessor to compare
    against); the exponential envelope caps the search, so once it drops
    below eps no further cycles need measuring. The envelope decreases
    in n, so whether it drops below eps within N_EPSILON_MAX_CYCLES is
    known before scanning; if not, the error names the slow rate.
    """
    validate_params(p)
    if not eps > 0.0:
        raise ValidationError(f"eps must be > 0, got {eps!r}")
    if not (d > 0.0 and tau > 0.0):
        raise ValidationError("dose and interval must be > 0")
    if gap_envelope(p, d, tau, N_EPSILON_MAX_CYCLES) >= eps:
        name, rate = ("elimination", "ke") if p.ke <= p.ka else ("absorption", "ka")
        raise ValidationError(
            f"no steady state within {N_EPSILON_MAX_CYCLES} cycles at "
            f"eps={eps:g}: {name} is slow relative to the dosing interval "
            f"({rate}*tau={min(p.ka, p.ke) * tau:.3g})"
        )
    sol = equi_multidose(p, d, tau)
    n = 2
    candidate = None
    while True:
        if gap_envelope(p, d, tau, n) < eps:
            # Everything from here on is below eps by the envelope.
            return candidate if candidate is not None else n
        if periodicity_gap(sol, n) < eps:
            if candidate is None:
                candidate = n
        else:
            candidate = None
        n += 1


def auc_equality_check(p: PkParams, d: float, tau: float
                       ) -> tuple[float, float, float]:
    """Self-test: the limiting per-cycle AUC equals the single-dose AUC.

    Returns (auc_single, auc_ss, relative difference). The limit of the
    per-cycle expression drops its geometric terms, leaving the same
    closed form, so the relative difference is zero to rounding.
    """
    validate_params(p)
    if not (d > 0.0 and tau > 0.0):
        raise ValidationError("dose and interval must be > 0")
    total = auc_single(p, d)
    limiting = absorption_gain(p) * d * (1.0 / p.ke - 1.0 / p.ka)
    denom = max(abs(total), abs(limiting))
    rel = abs(total - limiting) / denom if denom else 0.0
    return total, limiting, rel


def summarize(p: PkParams, d: float, tau: float,
              eps: float = 1e-6) -> SteadyStateSummary:
    """Full steady-state summary for an equi-dose regimen."""
    lower = ss_lower(p, d, tau)
    upper = ss_upper(p, d, tau)
    return SteadyStateSummary(
        ss_lower=lower,
        ss_upper=upper,
        width=upper - lower,
        auc_ss=auc_equality_check(p, d, tau)[1],
        n_epsilon=n_epsilon(p, d, tau, eps),
        epsilon=eps,
    )
