"""Two further multi-dose models: IV bolus and finite absorption time.

The bolus model is elimination-only: each dose lifts the concentration
by its delta instantly, so the trajectory is a piecewise exponential
with jumps at dose times (no continuity, unlike the oral model).

The finite-absorption-time (FAT) model splits every cycle at s_n into
an assimilation phase (two-exponential, gut draining) and a clearance
phase (pure elimination, gut empty). Its dose condition resets the gut
to exactly d_n, discarding whatever the previous cycle left unabsorbed;
concentration stays continuous at both s_n and t_n while the slope
kinks at s_n.

Both are the oral piecewise table of `bateman` with other dose rules
(bolus: x += delta, no gut; FAT: y = d, and the gut empties at each
cutoff), so they share its remainder recursion and its evaluator. The
printed constant-interval formulas generalize verbatim to per-cycle
intervals and absorption windows; the recursion reproduces them exactly
at constant settings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .bateman import PiecewiseSolution, absorption_gain, decay_difference
from .core import (PkParams, ValidationError, validate_cycle, validate_entries,
                   validate_params, validate_positive)


@dataclass(frozen=True)
class BolusRegimen:
    """Ordered (delta_n, tau_n): concentration added per dose, gap after it."""

    entries: tuple[tuple[float, float], ...]

    def __init__(self, entries: Iterable[Sequence[float]]):
        object.__setattr__(self, "entries", validate_entries(
            entries, ("delta", "interval"), "bolus regimen"))


@dataclass(frozen=True)
class FatRegimen:
    """Ordered (dose_n, tau_n, s_offset_n); absorption stops s_offset into the cycle."""

    entries: tuple[tuple[float, float, float], ...]

    def __init__(self, entries: Iterable[Sequence[float]]):
        object.__setattr__(self, "entries", validate_entries(
            entries, ("dose", "interval", "absorption window"), "FAT regimen"))


class BolusSolution(PiecewiseSolution):
    """Piecewise exponential decay with instantaneous dose jumps.

    The oral table with no gut: each dose lifts x directly. Evaluation at
    an exact dose time returns the post-dose value. The final cycle
    extends indefinitely.
    """

    def __init__(self, ke: float, regimen: BolusRegimen):
        self.ke = validate_positive("ke", ke)
        self.regimen = regimen
        # No gut: with ka and the gain at zero its terms vanish exactly.
        self._ka, self._ke, self._gain = 0.0, ke, 0.0
        self._tabulate(regimen.entries, lambda x, y, delta: (x + delta, y))

    def start_value(self, n: int) -> float:
        """Concentration right after dose n (1-based)."""
        return self.coefficients(n).c1

    def remainder(self, n: int) -> float:
        """Concentration just before dose n+1; 0 for n = 0."""
        return self.remainders(n)[0]

    # The model has no gut state: calling the solution gives x alone.
    __call__ = PiecewiseSolution.x


def bolus_multidose(ke: float, r: BolusRegimen) -> BolusSolution:
    """Closed-form multi-dose IV bolus concentration."""
    return BolusSolution(ke, r)


def bolus_equi_remainder_limit(ke: float, delta: float, tau: float) -> float:
    """Limiting pre-dose concentration for constant bolus dosing."""
    validate_positive("ke", ke)
    validate_entries([(delta, tau)], ("delta", "interval"), "bolus regimen")
    return delta * math.exp(-ke * tau) / -math.expm1(-ke * tau)


def fat_equi_limits(p: PkParams, d: float, tau: float,
                    offset: float) -> tuple[float, float]:
    """Limiting (cutoff, end-of-cycle) concentrations for constant FAT dosing.

    Every cycle absorbs for `offset` hours of its `tau`, so the cutoff
    values obey x <- x*beta + (ka*gamma*d/V)*decay_difference(offset), whose
    fixed point decays by e^{-ke (tau - offset)} to the end of the cycle.
    """
    validate_params(p)
    validate_entries([(d, tau, offset)], ("dose", "interval", "absorption window"),
                     "FAT regimen")
    cutoff = (p.ka * p.gamma * d / p.volume * decay_difference(p.ka, p.ke, offset)
              / -math.expm1(-p.ke * tau))
    return cutoff, cutoff * math.exp(-p.ke * (tau - offset))


class FatSolution(PiecewiseSolution):
    """Two-phase piecewise solution with per-cycle absorption cutoffs.

    Cycle n spans [t_{n-1}, t_n] and splits at s_n = t_{n-1} +
    s_offset_n. Assimilation: x = c1*e^{-ke dt} - c2*e^{-ka dt},
    y = d_n*e^{-ka dt} with dt measured from t_{n-1}. Clearance:
    x = c3*e^{-ke (t - s_n)}, y = 0; the gut is empty from s_n on.
    Queries past the final interval keep the last clearance decay (or,
    if that cycle has no clearance phase, decay from its closing value).
    """

    def __init__(self, params: PkParams, regimen: FatRegimen):
        validate_params(params)
        if not isinstance(regimen, FatRegimen):
            raise ValidationError(f"expected a FAT regimen, got {type(regimen).__name__}")
        self.params = params
        self.regimen = regimen
        self._ka, self._ke = params.ka, params.ke
        self._gain = absorption_gain(params)
        # The dose resets the gut, discarding what the last cycle left.
        self._tabulate(regimen.entries, lambda x, y, d: (x, d))

    def cutoff_value(self, n: int) -> float:
        """Concentration at the cycle-n absorption cutoff (1-based)."""
        validate_cycle(n, last=self.n_cycles)
        return float(self._c1[2 * n - 1])

    def end_value(self, n: int) -> float:
        """Concentration at the end of cycle n (1-based)."""
        validate_cycle(n, last=self.n_cycles)
        return self.remainders(n)[0]


def fat_multidose(p: PkParams, r: FatRegimen) -> FatSolution:
    """Closed-form multi-dose trajectory with finite absorption windows."""
    return FatSolution(p, r)
