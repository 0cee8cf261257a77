"""Closed-form concentration and gut-amount trajectories.

Single doses follow the classic two-exponential oral curve; repeated
dosing yields a piecewise solution. Every piece is the two-exponential
x = c1*e^{-ke s} - c2*e^{-ka s}, y = y0*e^{-ka s}, whose coefficients
come from the state (x, y) entering it: c2 = gain*y, c1 = x + c2. For
constant regimens those states are geometric sums, computed on the fly;
for any other schedule one remainder recursion tabulates them. The IV
bolus and finite-absorption-time models in `extmodels` are the same
table with other dose rules, so one evaluator serves all three models.

Conventions: evaluation exactly at a dose time t_n returns the incoming
cycle's values, i.e. the (continuous) concentration and the post-dose
gut amount. For a finite schedule the final cycle's form remains valid
for all later times, so queries beyond the last interval simply keep
decaying.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    EquiDose,
    PkParams,
    Regimen,
    ValidationError,
    validate_cycle,
    validate_params,
    validate_positive,
    validate_regimen,
)


def absorption_gain(p: PkParams) -> float:
    """The factor ka*gamma / (V*(ka - ke)) that scales every dose into x.

    Only the attributes ka, ke, gamma and volume of `p` are read.
    """
    return p.ka * p.gamma / (p.volume * (p.ka - p.ke))


def decay_difference(ka: float, ke: float, t):
    """(e^{-ke t} - e^{-ka t}) / (ka - ke) for t >= 0, a float or an array:
    through the slower rate and expm1, so positive and exact as ka -> ke."""
    lib = np if isinstance(t, np.ndarray) else math
    slow, gap = min(ka, ke), abs(ka - ke)
    return lib.exp(-slow * t) * -lib.expm1(-gap * t) / gap


def _shaped_like(t, values: np.ndarray):
    """`values` as a Python number for a scalar query t, else as an array."""
    return values if np.ndim(t) else values.item()


@dataclass(frozen=True)
class SingleDoseCurve:
    """Response to one oral dose at t=0: x rises then falls, y decays."""

    params: PkParams
    dose: float

    def x(self, t):
        p = self.params
        s = np.atleast_1d(np.asarray(t, dtype=float))
        out = absorption_gain(p) * self.dose * (np.exp(-p.ke * s) - np.exp(-p.ka * s))
        return _shaped_like(t, out)

    def y(self, t):
        s = np.atleast_1d(np.asarray(t, dtype=float))
        return _shaped_like(t, self.dose * np.exp(-self.params.ka * s))

    def __call__(self, t):
        return self.x(t), self.y(t)


def single_dose(p: PkParams, d: float) -> SingleDoseCurve:
    """Closed-form trajectory for a single dose of d mg at t=0."""
    validate_params(p)
    return SingleDoseCurve(p, validate_positive("dose", d))


@dataclass(frozen=True)
class CycleCoefficients:
    """Closed-form coefficients of the piece opening cycle n.

    Over [t_start, t_start + tau], x(t) = c1*exp(-ke*(t - t_start)) -
    c2*exp(-ka*(t - t_start)) and y(t) = y_start*exp(-ka*(t - t_start)),
    where y_start is the gut amount just after the cycle's dose. alpha
    and beta are the decay factors exp(-ka*tau), exp(-ke*tau). tau is the
    cycle's interval, or its absorption window in the FAT model.
    """

    n: int
    c1: float
    c2: float
    y_start: float
    t_start: float
    tau: float
    alpha: float
    beta: float


def equi_cycles(t: np.ndarray, tau: float) -> np.ndarray:
    """1-based cycle of each t >= 0 when a dose falls every tau hours.

    Counts the dose times k*tau <= t, as searchsorted over the grid k*tau
    would, without building the grid.
    """
    k = np.floor(t / tau)
    if k.size and k.max() >= 2.0 ** 53:
        raise ValidationError(
            f"t={t.max():g} lies beyond 2**53 dosing intervals of {tau:g} h; "
            "cycle numbers are no longer exact there"
        )
    k -= k * tau > t
    k += (k + 1.0) * tau <= t
    return k.astype(np.int64) + 1


def _oral_dose(x: float, y: float, d: float) -> tuple[float, float]:
    """An oral dose lands in the gut."""
    return x, y + d


class PiecewiseSolution:
    """Multi-dose closed-form solution, immutable after construction.

    Equi-dose regimens have coefficients available for every cycle index
    (computed on the fly from the geometric sums); other regimens carry
    the finite coefficient table built by `_tabulate`. `evaluate` is the
    one evaluator; x, y, __call__ and cycle_index read from it.
    """

    def __init__(self, params: PkParams, regimen: Regimen):
        validate_params(params)
        self.params = params
        self.regimen = regimen
        self._ka, self._ke = params.ka, params.ke
        self._gain = absorption_gain(params)
        if isinstance(regimen, EquiDose):
            self._equi = True
            self._log_a = -params.ka * regimen.interval
            self._log_b = -params.ke * regimen.interval
            self._alpha, self._beta = math.exp(self._log_a), math.exp(self._log_b)
        else:
            self._tabulate(validate_regimen(regimen).entries, _oral_dose)

    # -- construction ---------------------------------------------------

    def _tabulate(self, entries, dose) -> None:
        """Coefficient table of a finite schedule, by the remainder recursion.

        Each entry is (amount, interval), or (amount, interval, window)
        when absorption stops `window` into the cycle. `dose(x, y, amount)`
        is the state right after a dose, given the state just before it.
        A window splits its cycle in two pieces: the second starts with
        an empty gut, so x decays alone.
        """
        self._equi = False
        self._n_cycles = len(entries)
        taus = np.array([e[1] for e in entries])
        self._starts = np.concatenate(([0.0], np.cumsum(taus)))
        if len(entries[0]) > 2:
            self._cut = np.array([e[2] for e in entries])
            spans = np.column_stack((self._cut, taus - self._cut)).ravel()
        else:
            self._cut = None
            spans = taus
        self._per_cycle = len(spans) // len(entries)
        self._spans = spans
        self._a = np.exp(-self._ka * spans)
        self._b = np.exp(-self._ke * spans)
        a, b = self._a.tolist(), self._b.tolist()
        windowed = self._cut is not None
        c1, c2, y0 = [], [], []
        rem_x, rem_y = [0.0], [0.0]
        x = y = 0.0
        for i, entry in enumerate(entries):
            x, y = dose(x, y, entry[0])
            for j in range(i * self._per_cycle, (i + 1) * self._per_cycle):
                k2 = self._gain * y
                k1 = x + k2
                c1.append(k1)
                c2.append(k2)
                y0.append(y)
                # A window's end empties the gut for the rest of the cycle.
                x, y = k1 * b[j] - k2 * a[j], 0.0 if windowed else y * a[j]
            rem_x.append(x)
            rem_y.append(y)
        self._c1, self._c2, self._y0 = np.array(c1), np.array(c2), np.array(y0)
        self._rem_x, self._rem_y = np.array(rem_x), np.array(rem_y)

    # -- coefficient access ----------------------------------------------

    @property
    def n_cycles(self) -> int | None:
        """Number of cycles, or None for an unbounded equi-dose schedule."""
        return None if self._equi else self._n_cycles

    def _equi_coefficients(self, n):
        """(c1, c2, y_start, t_start) of cycle n: an int, or an index array."""
        r = self.regimen
        # math for an int n: np.expm1 or np.ndim on it would slow analyze by a third.
        lib = np if isinstance(n, np.ndarray) else math
        geo_b = lib.expm1(n * self._log_b) / math.expm1(self._log_b)
        geo_a = lib.expm1(n * self._log_a) / math.expm1(self._log_a)
        g = self._gain * r.dose
        return g * geo_b, g * geo_a, r.dose * geo_a, (n - 1) * r.interval

    def coefficients(self, n: int) -> CycleCoefficients:
        """Closed-form coefficients of cycle n (1-based)."""
        validate_cycle(n, last=self.n_cycles)
        if self._equi:
            c1, c2, y_start, t_start = self._equi_coefficients(n)
            return CycleCoefficients(
                n=n, c1=c1, c2=c2, y_start=y_start, t_start=t_start,
                tau=self.regimen.interval, alpha=self._alpha, beta=self._beta,
            )
        j = (n - 1) * self._per_cycle
        return CycleCoefficients(
            n=n, c1=float(self._c1[j]), c2=float(self._c2[j]),
            y_start=float(self._y0[j]), t_start=float(self._starts[n - 1]),
            tau=float(self._spans[j]), alpha=float(self._a[j]),
            beta=float(self._b[j]),
        )

    def remainders(self, n: int) -> tuple[float, float]:
        """(x, y) just before dose n+1: the values closing cycle n.

        n = 0 returns (0, 0); the gut remainder is the pre-jump left
        limit at t_n.
        """
        validate_cycle(n, lowest=0, last=self.n_cycles)
        if n == 0:
            return 0.0, 0.0
        if not self._equi:
            return float(self._rem_x[n]), float(self._rem_y[n])
        c = self.coefficients(n)
        a, b = self._alpha, self._beta
        return float(c.c1 * b - c.c2 * a), float(c.y_start * a)

    # -- evaluation -------------------------------------------------------

    def _cycles(self, t: np.ndarray) -> np.ndarray:
        """1-based cycle covering each t >= 0; dose instants open the new cycle."""
        if not self._equi:
            idx = np.searchsorted(self._starts[:-1], t, side="right")
            return np.minimum(idx, self._n_cycles)
        return equi_cycles(t, self.regimen.interval)

    def _query(self, t) -> np.ndarray:
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        if not np.all(t_arr >= 0.0):
            raise ValidationError("trajectory is defined for t >= 0 only")
        return t_arr

    def evaluate(self, t):
        """(x, y, cycle) at t from one cycle lookup.

        Plasma concentration, gut amount (post-dose at dose instants) and
        1-based cycle; Python numbers for a scalar t, arrays otherwise.
        """
        t_arr = self._query(t)
        cycle = self._cycles(t_arr)
        if self._equi:
            c1, c2, y0, t0 = self._equi_coefficients(cycle)
            s = t_arr - t0
        else:
            i = cycle - 1
            s = t_arr - self._starts[i]
            if self._cut is None:
                piece = i
            else:
                # Past the absorption cutoff the cycle's second piece
                # applies, timed from the cutoff.
                cut = self._cut[i]
                clearing = s >= cut
                piece = 2 * i + clearing
                s = s - np.where(clearing, cut, 0.0)
            c1, c2, y0 = self._c1[piece], self._c2[piece], self._y0[piece]
        decay_a = np.exp(-self._ka * s)
        x = c1 * np.exp(-self._ke * s) - c2 * decay_a
        y = y0 * decay_a
        return _shaped_like(t, x), _shaped_like(t, y), _shaped_like(t, cycle)

    def cycle_index(self, t) -> np.ndarray | int:
        """1-based cycle covering t; dose instants map to the new cycle."""
        return _shaped_like(t, self._cycles(self._query(t)))

    def x(self, t):
        """Plasma concentration at t (scalar or array)."""
        return self.evaluate(t)[0]

    def y(self, t):
        """Gut amount at t (post-dose at exact dose instants)."""
        return self.evaluate(t)[1]

    def __call__(self, t):
        return self.evaluate(t)[:2]


def equi_multidose(p: PkParams, d: float, tau: float) -> PiecewiseSolution:
    """Piecewise solution for d mg every tau hours, indefinitely."""
    return PiecewiseSolution(p, EquiDose(dose=d, interval=tau))


def arbitrary_multidose(p: PkParams, r: Regimen) -> PiecewiseSolution:
    """Piecewise solution for any dosing schedule."""
    return PiecewiseSolution(p, r)
