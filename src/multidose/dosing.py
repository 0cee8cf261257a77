"""Regimen design: invert the steady-state bounds into a (dose, interval).

The excess peak/trough - 1 of the limiting cycle (`steady_state`)
depends on the interval alone, is strictly increasing in it and sweeps
(0, inf); the dose then scales the trough linearly. A design is thus a
bisection of the interval to adjacent doubles, then a linear solve for
the dose. The excess is invariant under swapping the rate constants, so
flip-flop parameter vectors need no special casing.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import (NoConvergence, PkParams, ValidationError, validate_params,
                   validate_positive)
from . import steady_state

#: Lower end of the interval search (hours); the upper is the largest double.
TAU_FLOOR = 1e-9

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

    def admits(self, ss_lower: float, ss_upper: float) -> bool:
        """Whether [ss_lower, ss_upper] lies in [mic, tc] to DESIGN_VERIFY_RTOL."""
        return (ss_lower >= self.mic * (1.0 - DESIGN_VERIFY_RTOL)
                and ss_upper <= self.tc * (1.0 + DESIGN_VERIFY_RTOL))


def f_ratio(p: PkParams, tau: float) -> float:
    """Limiting peak/trough ratio; increasing in the interval, range (1, inf)."""
    return 1.0 + f_ratio_excess(p, tau)


def f_ratio_excess(p: PkParams, tau: float) -> float:
    """f_ratio(p, tau) - 1, computed without forming f_ratio at short intervals.

    Just above the series threshold (ka + ke)*tau = 1e-4, where peak and trough cancel in
    EXTENDED, its relative error is within about 5e-11*max(ka/ke, ke/ka) (3.6e-9 at ka/ke
    = 100, 4.1e-7 at 1e-4); README "Numerical accuracy" has the measurements.
    Past float range (a tiny or zero trough) it is inf, without a warning.
    """
    b = steady_state.Bateman.of(validate_params(p), steady_state.EXTENDED)
    return float(steady_state._excess(b, validate_positive("interval", tau)))


def _dose_for_trough(b: steady_state.Bateman, target_lower: float, tau: float) -> float:
    """The dose whose limiting trough under b (as in `steady_state._limit`) at tau is
    target_lower, rounded once; NoConvergence past float range or subnormal."""
    with np.errstate(divide="ignore", over="ignore"):
        d = float(target_lower / steady_state._limit(b, 1.0, tau)[0])
    if not np.finfo(float).tiny <= d < math.inf:
        raise NoConvergence(f"no finite dose reaches the trough at {tau!r} h", tau=tau)
    return d


def design(p: PkParams, target: TherapeuticTarget) -> tuple[float, float]:
    """Unique (dose, interval) whose steady-state bounds hit the target.

    The excess is increasing in the interval, so in the ordered bit patterns
    of positive doubles: bisecting those over [TAU_FLOOR, largest double]
    ends on adjacent doubles, and the one whose EXTENDED excess is nearer
    upper/lower - 1 is the interval. The dose solves the trough equation;
    both achieved bounds are verified to 1e-8 relative. p is validated and its
    forms built once; the bisection reads their excess, carried at both ends.
    """
    b = steady_state.Bateman.of(validate_params(p), steady_state.EXTENDED)
    ratio_excess = (steady_state.EXTENDED(target.upper) - target.lower) / target.lower
    if not ratio_excess <= sys.float_info.max:
        raise NoConvergence("target ratio is beyond float range", ratio=math.inf)
    as_tau = lambda bits: float(np.int64(bits).view(np.float64))
    excess = lambda bits: steady_state._excess(b, as_tau(bits))
    lo, hi = (int(np.float64(tau).view(np.int64)) for tau in (TAU_FLOOR, sys.float_info.max))
    e_lo, e_hi = excess(lo), excess(hi)
    if e_lo > ratio_excess:
        raise NoConvergence(
            "target ratio is below the resolvable range at the bracket floor",
            bracket=(TAU_FLOOR, sys.float_info.max), ratio=target.upper / target.lower,
        )
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if (e_mid := excess(mid)) < ratio_excess:
            lo, e_lo = mid, e_mid
        else:
            hi, e_hi = mid, e_mid
    tau = as_tau(lo if ratio_excess - e_lo < e_hi - ratio_excess else hi)

    d = _dose_for_trough(b, target.lower, tau)
    bounds = target.lower, target.upper
    achieved = steady_state._bounds(p, d, tau)
    if any(abs(a - b) > DESIGN_VERIFY_RTOL * b for a, b in zip(achieved, bounds)):
        raise NoConvergence("designed regimen failed verification against its targets",
                            d=d, tau=tau, achieved=achieved, target=bounds)
    return d, tau


def feasible_set_check(p: PkParams, d: float, tau: float,
                       target: TherapeuticTarget) -> bool:
    """Whether the regimen's asymptotic range lies in [mic, tc] to DESIGN_VERIFY_RTOL."""
    return target.admits(*steady_state._bounds(p, d, tau))
