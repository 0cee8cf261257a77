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

Both are the oral pieces of `bateman` with other dose rules (bolus:
x += delta, q = 0; FAT: y = d, a piece with y = 0 after each cutoff),
sharing its remainder recursion and evaluator. Their constant schedules
(EquiDose; for FAT with a window) are geometric sums in closed form,
whose limits are the sums at n = inf.
"""

from __future__ import annotations

import math

import numpy as np

from .bateman import EXTENDED, Bateman, PiecewiseSolution, _shaped_like, decay_sum
from .core import EquiDose, PkParams, _Table, validate_cycle, validate_positive


class BolusRegimen(_Table):
    """Ordered (delta_n, tau_n): concentration added per dose, gap after it."""

    fields, kind = ("delta", "interval"), "bolus regimen"


class FatRegimen(_Table):
    """Ordered (dose_n, tau_n, s_offset_n); absorption stops s_offset into the cycle."""

    fields, kind = ("dose", "interval", "absorption window"), "FAT regimen"


def _carried_pieces(sol: PiecewiseSolution, n):
    """EXTENDED (x0, y0) entering the pieces of cycle(s) n of an equi-dose bolus
    or FAT solution, where only x carries over: cycle 1's, plus K*G(n-1) decayed
    to the piece, G = `decay_sum` at ke and K the x closing cycle 1."""
    b, spans = sol._exact, sol._spans[0]
    closing = b.x(sol._x0e[0, -1], sol._y0e[0, -1], spans[-1])
    carried = (closing * np.exp(-b.ke * np.array([0.0, *spans[:-1]]))
               * decay_sum(b.ke, EXTENDED(sol.regimen.interval), np.asarray(n)[..., None] - 1))
    return sol._x0e[0] + carried, np.broadcast_to(sol._y0e[0], carried.shape)


class BolusSolution(PiecewiseSolution):
    """Piecewise exponential decay with instantaneous dose jumps: the oral
    pieces with no gut, each dose lifting x. Takes a BolusRegimen or an
    EquiDose without a window. At a dose time it returns the post-dose
    value; a finite schedule's final cycle extends indefinitely."""

    model, _regimens = "bolus", (BolusRegimen, "a bolus regimen")
    _dose = staticmethod(lambda x, y, delta: (x + delta, y))
    _equi_pieces = _carried_pieces

    def __init__(self, ke: float, regimen: BolusRegimen | EquiDose):
        self.ke = validate_positive("ke", ke)
        # No gut: with ka and q at zero its terms vanish exactly.
        self.bateman, self._exact = (Bateman(kind(0.0), kind(ke), kind(0.0))
                                     for kind in (float, EXTENDED))
        self._build(regimen)

    def start_value(self, n):
        """Concentration right after dose n (1-based; n may be an index array)."""
        validate_cycle(n, last=self.n_cycles)
        return _shaped_like(n, self._pieces(n)[0][..., 0].astype(float))

    def remainder(self, n):
        """Concentration just before dose n+1; 0 for n = 0."""
        return self.remainders(n)[0]

    # The model has no gut state: calling the solution gives x alone.
    __call__ = PiecewiseSolution.x


def bolus_multidose(ke: float, r: BolusRegimen | EquiDose) -> BolusSolution:
    """Closed-form multi-dose IV bolus concentration."""
    return BolusSolution(ke, r)


def bolus_equi_remainder_limit(ke: float, delta: float, tau: float) -> float:
    """Limiting pre-dose concentration for constant bolus dosing."""
    validate_positive("ke", ke)
    BolusRegimen([(delta, tau)])
    return float(BolusSolution(ke, EquiDose(delta, tau))._closing(math.inf)[0])


def fat_equi_limits(p: PkParams, d: float, tau: float,
                    offset: float) -> tuple[float, float]:
    """Limiting (cutoff, end-of-cycle) concentrations for constant FAT dosing:
    the cutoff sum q*d*E(offset)*G(n) at n = inf, and its clearance piece
    run to the end of the cycle."""
    sol = FatSolution(p, EquiDose(d, tau, offset))
    return float(sol._pieces(math.inf)[0][1]), float(sol._closing(math.inf)[0])


class FatSolution(PiecewiseSolution):
    """Two-phase piecewise solution with per-cycle absorption cutoffs.

    Cycle n spans [t_{n-1}, t_n] and splits at s_n = t_{n-1} + s_offset_n:
    the oral piece entering at (x, d_n), then the clearance piece entering
    at the cutoff state (c3, 0), x = c3*e^{-ke (t - s_n)}. Takes a
    FatRegimen or an EquiDose with a window. Queries past a finite
    schedule's final interval keep that cycle's last piece.
    """

    model, _regimens = "fat", (FatRegimen, "a FAT regimen")
    # The dose resets the gut, discarding what the last cycle left.
    _dose = staticmethod(lambda x, y, d: (x, d))
    _equi_pieces = _carried_pieces

    def cutoff_value(self, n):
        """Concentration at the cycle-n absorption cutoff (1-based; n may be
        an index array)."""
        validate_cycle(n, last=self.n_cycles)
        return _shaped_like(n, self._pieces(n)[0][..., 1].astype(float))

    def end_value(self, n):
        """Concentration at the end of cycle n (1-based)."""
        validate_cycle(n, last=self.n_cycles)
        return self.remainders(n)[0]


def fat_multidose(p: PkParams, r: FatRegimen | EquiDose) -> FatSolution:
    """Closed-form multi-dose trajectory with finite absorption windows."""
    return FatSolution(p, r)
