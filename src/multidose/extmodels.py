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
(bolus: x += delta, q = 0; FAT: y = d, a piece with y = 0 after each
cutoff), sharing its remainder recursion and evaluator; at constant
settings it reproduces the printed constant-interval formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .bateman import EXTENDED, Bateman, PiecewiseSolution, decay_difference
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
    """Piecewise exponential decay with instantaneous dose jumps: the oral
    table with no gut, each dose lifting x. At a dose time it returns the
    post-dose value; the final cycle extends indefinitely."""

    def __init__(self, ke: float, regimen: BolusRegimen):
        self.ke = validate_positive("ke", ke)
        if not isinstance(regimen, BolusRegimen):
            raise ValidationError(f"expected a bolus regimen, got {type(regimen).__name__}")
        self.regimen = regimen
        # No gut: with ka and q at zero its terms vanish exactly.
        self.bateman, self._exact = (Bateman(kind(0.0), kind(ke), kind(0.0))
                                     for kind in (float, EXTENDED))
        self._tabulate(regimen.entries, lambda x, y, delta: (x + delta, y))

    def start_value(self, n: int) -> float:
        """Concentration right after dose n (1-based)."""
        validate_cycle(n, last=self.n_cycles)
        return float(self._x0[n - 1])

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

    Cycle n spans [t_{n-1}, t_n] and splits at s_n = t_{n-1} + s_offset_n:
    the oral piece entering at (x, d_n), then the clearance piece entering
    at the cutoff state (c3, 0), x = c3*e^{-ke (t - s_n)}. Queries past the
    final interval keep that cycle's last piece.
    """

    def __init__(self, params: PkParams, regimen: FatRegimen):
        validate_params(params)
        if not isinstance(regimen, FatRegimen):
            raise ValidationError(f"expected a FAT regimen, got {type(regimen).__name__}")
        self.params, self.regimen = params, regimen
        self.bateman, self._exact = Bateman.of(params), Bateman.of(params, EXTENDED)
        # The dose resets the gut, discarding what the last cycle left.
        self._tabulate(regimen.entries, lambda x, y, d: (x, d))

    def cutoff_value(self, n: int) -> float:
        """Concentration at the cycle-n absorption cutoff (1-based)."""
        validate_cycle(n, last=self.n_cycles)
        return float(self._x0[2 * n - 1])

    def end_value(self, n: int) -> float:
        """Concentration at the end of cycle n (1-based)."""
        validate_cycle(n, last=self.n_cycles)
        return self.remainders(n)[0]


def fat_multidose(p: PkParams, r: FatRegimen) -> FatSolution:
    """Closed-form multi-dose trajectory with finite absorption windows."""
    return FatSolution(p, r)
