"""Asymptotic behavior of constant-interval dosing.

After many doses the trajectory settles into identical cycles. This
module computes the limiting trough and peak of that cycle (the
asymptotic concentration range), its width, the limiting per-cycle AUC
checked against the single-dose AUC, the exact cycle-to-cycle sup-norm
gap (endpoints and one interior extremum) with its exponential envelope,
and, in one array pass bounded by the envelope, the first cycle index
whose gap stays below epsilon.

The two bounds are the dose gain times a gain-free shape of the
interval, trough_shape and peak_shape. These are the one implementation
of each: `dosing` inverts their quotient to design regimens.

The limiting quantities are defined for equi-dose regimens. For an
arbitrary schedule whose (dose, interval) entries converge, the
equi-dose summary of the limiting pair describes the asymptote; callers
pass that pair explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (EquiDose, PkParams, ValidationError, validate_cycle, validate_params,
                   validate_positive, validate_regimen)
from .bateman import PiecewiseSolution, absorption_gain, decay_difference, equi_multidose
from .pkmetrics import _auc_from_coefficients, auc_single

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


def _decay_factors(p: PkParams, tau: float) -> tuple[float, float]:
    return math.exp(-p.ka * tau), math.exp(-p.ke * tau)


def _decay_complements(p: PkParams, tau: float) -> tuple[float, float]:
    """(1 - alpha, 1 - beta) from expm1, exact at tiny intervals."""
    za, zb = -math.expm1(-p.ka * tau), -math.expm1(-p.ke * tau)
    if not (za and zb):
        raise ValidationError(f"interval {tau!r} h is too short to resolve at these rates")
    return za, zb


def trough_shape(p: PkParams, tau: float) -> float:
    """The limiting trough per unit gamma*d/V (p assumed valid); divided
    in sequence, as za*zb underflows where the quotient does not."""
    za, zb = _decay_complements(p, tau)
    return p.ka * decay_difference(p.ka, p.ke, tau) / za / zb


def peak_shape(p: PkParams, tau: float) -> float:
    """The limiting peak per unit gamma*d/V (p assumed valid): at its offset
    s, ke*e^{-ke s}/zb = ka*e^{-ka s}/za, so it is e^{-ke s}/zb. Near ka = ke,
    s comes from log1p terms: za = zb + (ka - ke)*decay_difference(tau)."""
    za, zb = _decay_complements(p, tau)
    delta = p.ka - p.ke
    if abs(delta) < 0.5 * p.ke:
        e = decay_difference(p.ka, p.ke, tau)
        s = (math.log1p(delta / p.ke) - math.log1p(delta * e / zb)) / delta
    else:
        s = math.log(p.ka * zb / (p.ke * za)) / delta
    return math.exp(-p.ke * s) / zb


def ss_lower(p: PkParams, d: float, tau: float) -> float:
    """Limiting trough: the concentration left just before each dose.

    Equals the limit of the end-of-cycle remainders.
    """
    validate_params(p)
    validate_positive("dose", d)
    validate_positive("interval", tau)
    return p.gamma * d / p.volume * trough_shape(p, tau)


def ss_upper(p: PkParams, d: float, tau: float) -> float:
    """Limiting peak: the cycle maximum after many doses."""
    validate_params(p)
    validate_positive("dose", d)
    validate_positive("interval", tau)
    return p.gamma * d / p.volume * peak_shape(p, tau)


def width(p: PkParams, d: float, tau: float) -> float:
    """Peak-to-trough span of the limiting cycle."""
    return ss_upper(p, d, tau) - ss_lower(p, d, tau)


def width_limit(p: PkParams, d: float) -> float:
    """Width as the interval grows without bound: the single-dose peak.

    That is the limiting peak at tau = inf, where the limiting trough,
    trough_shape(p, inf), is exactly 0.
    """
    validate_params(p)
    return p.gamma * validate_positive("dose", d) / p.volume * peak_shape(p, math.inf)


def gap_envelope(p: PkParams, d: float, tau: float, n):
    """Exponential bound dominating the cycle-n sup gap (n: int or array).

    The gap between cycle n and the previous cycle, both measured from
    their own dose instant, is (C1(n)-C1(n-1))e^{-ke s} -
    (C2(n)-C2(n-1))e^{-ka s} with coefficient differences g*beta^(n-1)
    and g*alpha^(n-1); the triangle inequality at s=0 gives this bound.
    """
    validate_params(p)
    validate_positive("dose", d)
    validate_positive("interval", tau)
    validate_cycle(n)
    alpha, beta = _decay_factors(p, tau)
    g = abs(absorption_gain(p)) * d
    return g * (alpha ** (n - 1) + beta ** (n - 1))


def _gap_sup(p: PkParams, dc1, dc2, tau: float) -> np.ndarray:
    """Exact sup over s in [0, tau] of |dc1 e^{-ke s} - dc2 e^{-ka s}|.

    Elementwise in dc1, dc2. Candidates: s = 0, s = tau and s* with
    e^{(ka-ke)s*} = ka*dc2/(ke*dc1), from logs as the ratio can under- or
    overflow (for opposite signs s* is no extremum, just a lower bound).
    """
    def gap(s):
        return np.abs(dc1 * np.exp(-p.ke * s) - dc2 * np.exp(-p.ka * s))

    with np.errstate(divide="ignore", invalid="ignore"):
        s_star = (math.log(p.ka) - math.log(p.ke) + np.log(np.abs(dc2))
                  - np.log(np.abs(dc1))) / (p.ka - p.ke)
    s_star = np.where((s_star > 0.0) & (s_star < tau), s_star, 0.0)
    return np.maximum(np.maximum(gap(0.0), gap(tau)), gap(s_star))


def periodicity_gap(sol: PiecewiseSolution, n):
    """Exact sup over cycle n of |x_n(t) - x_{n-1}(t - tau)|.

    Both cycles are compared at equal post-dose offsets over cycle n's
    span (the previous cycle's closed form extends naturally if its own
    interval is shorter). n = 1 compares against the zero function, i.e.
    returns the sup of the first cycle itself. Equi-dose solutions also
    take an array of cycle numbers. Bolus and FAT solutions are rejected:
    their cycles are not the single two-exponential compared here.
    """
    validate_regimen(sol.regimen)
    validate_cycle(n)
    if isinstance(sol.regimen, EquiDose):
        # The geometric sums telescope: the coefficient increments are
        # cycle 1's times single powers, free of subtractive cancellation.
        c, k = sol.coefficients(1), np.asarray(n) - 1
        gaps = _gap_sup(sol.params, c.c1 * c.beta ** k, c.c2 * c.alpha ** k, c.tau)
        return gaps if k.ndim else float(gaps)
    cur = sol.coefficients(n)
    if n == 1:
        dc1, dc2 = cur.c1, cur.c2
    else:
        prev = sol.coefficients(n - 1)
        dc1, dc2 = cur.c1 - prev.c1, cur.c2 - prev.c2
    return float(_gap_sup(sol.params, dc1, dc2, cur.tau))


def n_epsilon(p: PkParams, d: float, tau: float, eps: float = 1e-6) -> int:
    """First cycle from which every later sup gap stays below eps.

    Gaps start at cycle 2. The envelope dominates them and decreases in
    n: unless it is below eps within N_EPSILON_MAX_CYCLES, the error names
    the slow rate. Else one periodicity_gap call gives the exact gaps up
    to there; the answer starts their trailing run below eps.
    """
    validate_params(p)
    validate_positive("dose", d)
    validate_positive("interval", tau)
    validate_positive("eps", eps)
    if gap_envelope(p, d, tau, N_EPSILON_MAX_CYCLES) >= eps:
        name, rate = ("elimination", "ke") if p.ke <= p.ka else ("absorption", "ka")
        raise ValidationError(
            f"no steady state within {N_EPSILON_MAX_CYCLES} cycles at "
            f"eps={eps:g}: {name} is slow relative to the dosing interval "
            f"({rate}*tau={min(p.ka, p.ke) * tau:.3g})"
        )
    # Cycles until the envelope, at most gap_envelope(1) max(alpha, beta)^(n-1),
    # is below eps (+2 for rounding): O(n_epsilon) memory, not O(cap). If
    # that factor rounds to 1, every gap is at most |g| < eps: answer 2.
    with np.errstate(divide="ignore", invalid="ignore"):
        bound = np.log(eps / gap_envelope(p, d, tau, 1)) / np.log(max(_decay_factors(p, tau)))
    n = np.arange(2, int(min(N_EPSILON_MAX_CYCLES, max(bound + 2.0, 1.0))) + 2)
    n = n[:np.argmax(gap_envelope(p, d, tau, n) < eps)]
    failing = n[periodicity_gap(equi_multidose(p, d, tau), n) >= eps]
    return int(failing[-1]) + 1 if failing.size else 2


def auc_equality_check(p: PkParams, d: float, tau: float
                       ) -> tuple[float, float, float]:
    """Self-test: the limiting per-cycle AUC equals the single-dose AUC.

    Returns (auc_single, auc_ss, relative difference). auc_ss integrates
    the limiting cycle, whose coefficients are g/(1-beta) and
    g/(1-alpha), over one interval; the identity holds to rounding.
    """
    validate_params(p)
    validate_positive("dose", d)
    validate_positive("interval", tau)
    g = absorption_gain(p) * d
    total = auc_single(p, d)
    za, zb = _decay_complements(p, tau)
    limiting = _auc_from_coefficients(p, g / zb, g / za, tau)
    denom = max(abs(total), abs(limiting))
    rel = abs(total - limiting) / denom if denom else 0.0
    return total, limiting, rel


def summarize(p: PkParams, d: float, tau: float,
              eps: float = 1e-6) -> SteadyStateSummary:
    """Full steady-state summary for an equi-dose regimen."""
    lower = ss_lower(p, d, tau)
    upper = ss_upper(p, d, tau)
    total, limiting, rel = auc_equality_check(p, d, tau)
    return SteadyStateSummary(
        ss_lower=lower,
        ss_upper=upper,
        width=upper - lower,
        auc_ss=limiting,
        auc_single=total,
        auc_rel_diff=rel,
        n_epsilon=n_epsilon(p, d, tau, eps),
        epsilon=eps,
    )
