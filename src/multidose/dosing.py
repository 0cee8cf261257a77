"""Regimen design: invert the steady-state bounds into a (dose, interval).

The peak/trough ratio of the limiting cycle is the quotient of the two
gain-free shapes in `steady_state`: it depends on the interval alone,
is strictly increasing in it, and sweeps (1, inf); the dose then scales
the trough linearly. Designing a regimen therefore reduces to a
one-dimensional bracketed root find on the ratio followed by a linear
solve for the dose. The ratio map is invariant under swapping the two
rate constants, so flip-flop parameter vectors need no special casing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import (NoConvergence, PkParams, ValidationError, validate_params,
                   validate_positive)
from . import steady_state

#: Bracketing floor for the interval root find (hours).
TAU_FLOOR = 1e-9

#: Relative tolerance on the achieved ratio at the root.
RATIO_RTOL = 1e-12

#: Maximum bisection iterations (the bracket shrinks by 2^-200).
MAX_BISECT = 200

#: Below (ka + ke) * tau = 1e-4 the ratio excess uses its quadratic
#: leading term; direct evaluation would drown in cancellation there.
_SERIES_THRESHOLD = 1e-4

#: Relative mismatch allowed when verifying the designed regimen.
DESIGN_VERIFY_RTOL = 1e-8


@dataclass(frozen=True)
class TherapeuticTarget:
    """Clinical bounds and the asymptotic range to aim for inside them.

    mic/tc are the minimum inhibitory and toxic concentrations; lower
    and upper are the exact steady-state trough and peak the design
    must achieve, with mic <= lower < upper <= tc.
    """

    mic: float
    tc: float
    lower: float
    upper: float

    def __post_init__(self):
        for name in ("mic", "tc", "lower", "upper"):
            validate_positive(name, getattr(self, name))
        if not (self.mic <= self.lower < self.upper <= self.tc):
            raise ValidationError(
                "targets must satisfy mic <= lower < upper <= tc, got "
                f"mic={self.mic!r} lower={self.lower!r} "
                f"upper={self.upper!r} tc={self.tc!r}"
            )


def f_ratio(p: PkParams, tau: float) -> float:
    """Limiting peak/trough ratio; increasing in the interval, range (1, inf)."""
    return 1.0 + f_ratio_excess(p, tau)


def f_ratio_excess(p: PkParams, tau: float) -> float:
    """f_ratio(p, tau) - 1, computed without forming f_ratio at short intervals.

    Its relative error peaks at about 1.8e-6 just above the series
    threshold (ka + ke)*tau = 1e-4, where the quotient of the shapes
    cancels; README "Numerical accuracy" has the measurements.
    """
    validate_params(p)
    return _ratio_excess(p, validate_positive("interval", tau))


def _ratio_excess(p: PkParams, tau: float) -> float:
    """f_ratio_excess for a valid p and tau > 0, unchecked."""
    if (p.ka + p.ke) * tau < _SERIES_THRESHOLD:
        return p.ka * p.ke * tau * tau / 8.0
    trough = steady_state.trough_shape(p, tau)
    if trough == 0.0:
        # The trough underflows once the slow exponential does; the
        # ratio has genuinely outgrown float range by then.
        return math.inf
    return steady_state.peak_shape(p, tau) / trough - 1.0


def _dose_for_trough(p: PkParams, target_lower: float, tau: float) -> float:
    shape = steady_state.trough_shape(p, tau)
    d = target_lower * p.volume / p.gamma / shape if shape else math.inf
    if not 0.0 < d < math.inf:
        raise NoConvergence(f"no finite dose reaches the trough at {tau!r} h", tau=tau)
    return d


def design(p: PkParams, target: TherapeuticTarget) -> tuple[float, float]:
    """Unique (dose, interval) whose steady-state bounds hit the target.

    Solves f(tau) = upper/lower by expanding-bracket bisection (the
    ratio map is strictly increasing), then the dose from the trough
    equation, and verifies both achieved bounds to 1e-8 relative. p is
    validated once here; the root find evaluates the unchecked ratio.
    """
    validate_params(p)
    ratio_excess = (target.upper - target.lower) / target.lower
    lo, hi = TAU_FLOOR, 1.0
    if _ratio_excess(p, lo) > ratio_excess:
        raise NoConvergence(
            "target ratio is below the resolvable range at the bracket floor",
            bracket=(lo, hi), ratio=1.0 + ratio_excess,
        )
    expansions = 0
    while _ratio_excess(p, hi) < ratio_excess:
        hi *= 2.0
        expansions += 1
        if expansions > 200:
            raise NoConvergence(
                "bracket expansion failed to enclose the target ratio",
                bracket=(lo, hi), ratio=1.0 + ratio_excess,
            )

    for _ in range(MAX_BISECT):
        tau = 0.5 * (lo + hi)
        excess = _ratio_excess(p, tau)
        if abs(excess - ratio_excess) <= RATIO_RTOL * (1.0 + ratio_excess):
            break
        if excess < ratio_excess:
            lo = tau
        else:
            hi = tau
    else:
        raise NoConvergence(
            "bisection did not reach the ratio tolerance",
            bracket=(lo, hi), achieved_ratio=1.0 + _ratio_excess(p, tau),
            ratio=1.0 + ratio_excess,
        )

    d = _dose_for_trough(p, target.lower, tau)
    achieved_lower = steady_state.ss_lower(p, d, tau)
    achieved_upper = steady_state.ss_upper(p, d, tau)
    if (abs(achieved_lower - target.lower) > DESIGN_VERIFY_RTOL * target.lower
            or abs(achieved_upper - target.upper) > DESIGN_VERIFY_RTOL * target.upper):
        raise NoConvergence(
            "designed regimen failed verification against its targets",
            d=d, tau=tau, achieved=(achieved_lower, achieved_upper),
            target=(target.lower, target.upper),
        )
    return d, tau


def feasible_set_check(p: PkParams, d: float, tau: float,
                       target: TherapeuticTarget) -> bool:
    """Whether the regimen's asymptotic range stays within [mic, tc]."""
    return (steady_state.ss_lower(p, d, tau) >= target.mic
            and steady_state.ss_upper(p, d, tau) <= target.tc)
