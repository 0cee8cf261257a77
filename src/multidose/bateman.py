"""Closed-form concentration and gut-amount trajectories.

As in the paper's Generalized Bateman function, every piece is read from
the state (x0, y0) entering it: s hours in, x = x0*e^{-ke s} + q*y0*E(s)
and y = y0*e^{-ka s}, with q = ka*gamma/V and E = `decay_difference`.
Both terms are >= 0 and nothing divides by ka - ke, so pieces stay exact
as ka -> ke. Over an interval the piece is the triangular map
M = [[beta, q*E(tau)], [0, alpha]] of the state; a dose adds to it. For
constant regimens the state of cycle n is a geometric sum of M in closed
form; any other schedule tabulates it by one remainder recursion. The
IV bolus (q = 0: no gut) and finite-absorption-time (y0 = 0 once the
window closes) models of `extmodels` are that table with other dose
rules, so one evaluator serves all three models. States, and the rows
and limits read from them, are EXTENDED and round once to floats;
trajectories evaluate pieces in float64 from the rounded states.

Evaluation exactly at a dose time t_n returns the incoming cycle's
values: the (continuous) concentration and the post-dose gut amount.
A finite schedule's final piece extends to all later times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (EquiDose, PkParams, Regimen, ValidationError, validate_cycle,
                   validate_params, validate_positive, validate_regimen)

#: The type of states and of the values reported from them: on x86-64 Linux
#: 80-bit, so each reported float rounds once from within 2^-11 ulp of exact.
EXTENDED = np.longdouble


def absorption_gain(p: PkParams) -> float:
    """ka*gamma / (V*(ka - ke)), reading only those attributes of `p`."""
    return p.ka * p.gamma / (p.volume * (p.ka - p.ke))


def _lib(*values):
    """numpy for any numpy value, else math: numpy's exp and log differ from libm."""
    return np if any(isinstance(v, (np.ndarray, np.generic)) for v in values) else math


def _difference(slow_decay, gap: float, t, lib):
    """E(t) from e^{-min(ka, ke) t} and gap = |ka - ke|, a new value (arrays are
    scaled in place: each is one 8-byte temporary per point)."""
    e = lib.expm1(-gap * t)
    e *= slow_decay
    e /= -gap
    return e


def decay_difference(ka: float, ke: float, t):
    """(e^{-ke t} - e^{-ka t}) / (ka - ke) for t >= 0, a float or an array:
    through the slower rate and expm1, so positive and exact as ka -> ke."""
    lib = _lib(ka, t)
    return _difference(lib.exp(-min(ka, ke) * t), abs(ka - ke), t, lib)


def _shaped_like(t, values: np.ndarray):
    """`values` as a Python number for a scalar query t, else as an array."""
    return values if np.ndim(t) else values.item()


class Bateman:
    """The closed forms of a piece, read from the state (x0, y0) entering it.
    Rates, states and times are floats, EXTENDED scalars or arrays; q = 0
    (with ka = 0) is the IV bolus, decaying alone."""

    def __init__(self, ka, ke, q):
        self.ka, self.ke, self.q = ka, ke, q
        self.delta, self.slow, self.gap = ka - ke, min(ka, ke), abs(ka - ke)
        # log(ka/ke): through log1p near ka = ke, where ka/ke rounds.
        lib = _lib(ka)
        self.log_ratio = (lib.log1p(self.delta / ke) if 2.0 * self.gap < ke
                          else lib.log(ka / ke) if ka else -math.inf)

    @classmethod
    def of(cls, p: PkParams, kind=float) -> Bateman:
        """The forms of an oral parameter vector in `kind`: q = ka*gamma/V."""
        ka, ke = kind(p.ka), kind(p.ke)
        return cls(ka, ke, ka * kind(p.gamma) / kind(p.volume))

    def x(self, x0, y0, s):
        """x s hours into the piece entering at (x0, y0), scalars or shaped like s
        (arrays are updated in place); with q = 0 it decays alone."""
        lib = _lib(self.ka, s)
        decay_b = lib.exp(-self.ke * s)
        if not self.q:
            return x0 * decay_b
        slow = decay_b if self.ke <= self.ka else lib.exp(-self.ka * s)
        e = _difference(slow, self.gap, s, lib)
        e *= self.q * y0
        decay_b *= x0
        decay_b += e
        return decay_b

    def y(self, y0, s):
        """y s hours into the piece entering with y0 in the gut."""
        return y0 * _lib(self.ka, s).exp(-self.ka * s)

    def peak(self, x0, y0, tau=math.inf):
        """(s, x): where on [0, tau] x peaks, and x there, for x0 >= 0 < y0.

        x turns once, where ka*q*y0*e^{-ka s} = ke*(delta*x0 + q*y0)*e^{-ke s},
        at s* = (log(ka/ke) - log1p(delta*x0/(q*y0)))/delta; s is s* clipped
        to [0, tau] (0 if x never turns): for states of any sign, the one
        interior extremum candidate. At s = 0, x is x0 exactly.
        """
        with np.errstate(divide="ignore", invalid="ignore"):
            s = (self.log_ratio - np.log1p(np.divide(self.delta * x0, self.q * y0))) / self.delta
        s = np.where(s > 0.0, np.minimum(s, tau), 0.0)
        return s[()], np.where(s > 0.0, self.x(x0, y0, s), x0)[()]

    def area(self, x0, y0, tau):
        """Integral of x over [0, tau]: x0*zb/ke + q*y0*(zs - ks*E(tau))/(ka*ke),
        z = 1 - e^{-k tau} and ks the slower rate; zs - ks*E(tau) = ks*integral
        of e^{-kf(tau-u)}(1 - e^{-ks u}) cancels only where kf*tau is small."""
        lib = _lib(self.ka, tau)
        zb, zs = -lib.expm1(-self.ke * tau), -lib.expm1(-self.slow * tau)
        e = decay_difference(self.ka, self.ke, tau)
        return x0 * zb / self.ke + self.q * y0 * (zs - self.slow * e) / (self.ka * self.ke)


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
    """The piece opening cycle n, from the state (x_start, y_start) just after
    its dose. c2 = absorption_gain*y_start and c1 = x_start + c2 are derived:
    x = c1*e^{-ke(t - t_start)} - c2*e^{-ka(t - t_start)}. alpha, beta are
    e^{-ka tau}, e^{-ke tau}; tau is the interval (FAT: the window)."""

    n: int
    c1: float
    c2: float
    x_start: float
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
        raise ValidationError(f"t={t.max():g} lies beyond 2**53 dosing intervals of {tau:g} "
                              "h; cycle numbers are no longer exact there")
    k -= k * tau > t
    k += (k + 1.0) * tau <= t
    return k.astype(np.int64) + 1


class PiecewiseSolution:
    """Multi-dose closed-form solution, immutable after construction.

    Equi-dose regimens have every cycle's state in closed form, others the
    table `_tabulate` builds. `_locate` finds the piece covering each time;
    x, y, evaluate and __call__ read that piece's forms.
    """

    def __init__(self, params: PkParams, regimen: Regimen):
        validate_params(params)
        self.params, self.regimen = params, regimen
        self.bateman, self._exact = Bateman.of(params), Bateman.of(params, EXTENDED)
        self._equi = isinstance(regimen, EquiDose)
        if not self._equi:
            # An oral dose lands in the gut.
            self._tabulate(validate_regimen(regimen).entries, lambda x, y, d: (x, y + d))

    def _tabulate(self, entries, dose) -> None:
        """State table of a finite schedule, by the remainder recursion.

        Entries are (amount, interval) or, where absorption stops `window`
        into the cycle, (amount, interval, window): a second piece with an
        empty gut. `dose(x, y, amount)` is the state just after a dose.
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
        ka, ke, q, s = self._exact.ka, self._exact.ke, self._exact.q, spans.astype(EXTENDED)
        a, b, e = list(np.exp(-ka * s)), list(np.exp(-ke * s)), list(decay_difference(ka, ke, s))
        windowed = self._cut is not None
        x0, y0, self._rem = [], [], [(0.0, 0.0)]
        x = y = EXTENDED(0.0)
        for i, entry in enumerate(entries):
            x, y = dose(x, y, entry[0])
            for j in range(i * self._per_cycle, (i + 1) * self._per_cycle):
                x0.append(x)
                y0.append(y)
                # A window's end empties the gut for the rest of the cycle.
                x, y = x * b[j] + q * y * e[j], 0.0 if windowed else y * a[j]
            self._rem.append((float(x), float(y)))
        self._x0e, self._y0e = np.array(x0, dtype=EXTENDED), np.array(y0, dtype=EXTENDED)
        self._x0, self._y0 = self._x0e.astype(float), self._y0e.astype(float)

    @property
    def n_cycles(self) -> int | None:
        """Number of cycles, or None for an unbounded equi-dose schedule."""
        return None if self._equi else self._n_cycles

    def _equi_state(self, n):
        """EXTENDED (x0, y0) entering cycle n (an int or an index array) of d
        every tau: the dose carried by sum_{k<n} M^k, summed from the faster
        decay f as x0 = q*d*(E(tau)*G_slow(n-1) - f*E((n-1)tau))/(1 - f),
        G_k(m) = (1 - e^{-k m tau})/(1 - e^{-k tau}): it cancels only while
        f^(n-1) ~ 1, at short intervals.
        """
        b, d, tau = self._exact, self.regimen.dose, EXTENDED(self.regimen.interval)
        m, fast = n - 1, max(b.ka, b.ke)
        g_slow = np.expm1(-b.slow * tau * m) / np.expm1(-b.slow * tau)
        carried = (decay_difference(b.ka, b.ke, tau) * g_slow
                   - np.exp(-fast * tau) * decay_difference(b.ka, b.ke, tau * m))
        return (b.q * d * carried / -np.expm1(-fast * tau),
                d * (np.expm1(-b.ka * tau * n) / np.expm1(-b.ka * tau)))

    def _equi_states(self, cycle: np.ndarray):
        """_equi_state as floats, once per cycle when fewer cycles than points."""
        first = int(cycle.min(initial=1))
        span = int(cycle.max(initial=1)) - first + 1
        if span >= cycle.size:
            return (v.astype(float) for v in self._equi_state(cycle))
        index = cycle - first
        return (v.astype(float)[index] for v in self._equi_state(np.arange(first, first + span)))

    def _states(self, first: int, last: int):
        """EXTENDED (x0, y0, t_start, tau) of cycles first..last, as arrays."""
        if self._equi:
            n, tau = np.arange(first, last + 1), EXTENDED(self.regimen.interval)
            return (*self._equi_state(n), (n - 1) * tau, tau)
        j = slice((first - 1) * self._per_cycle, last * self._per_cycle, self._per_cycle)
        return self._x0e[j], self._y0e[j], self._starts[first - 1:last], self._spans[j]

    def coefficients(self, n: int) -> CycleCoefficients:
        """The piece opening cycle n (1-based)."""
        validate_cycle(n, last=self.n_cycles)
        x0, y0, t_start, tau = (np.ravel(v)[0] for v in self._states(n, n))
        b, c2 = self.bateman, self._exact.q / self._exact.delta * y0
        return CycleCoefficients(n, *(float(v) for v in (x0 + c2, c2, x0, y0, t_start, tau)),
                                 math.exp(-b.ka * tau), math.exp(-b.ke * tau))

    def remainders(self, n: int) -> tuple[float, float]:
        """(x, y) just before dose n+1, closing cycle n; (0, 0) for n = 0.
        The gut remainder is the pre-jump left limit at t_n."""
        validate_cycle(n, lowest=0, last=self.n_cycles)
        if not self._equi:
            return self._rem[n]
        (x0, y0), tau = self._equi_state(n) if n else (0.0, 0.0), self.regimen.interval
        return float(self._exact.x(x0, y0, tau)), float(self._exact.y(y0, tau))

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

    def _locate(self, t):
        """(x0, y0, s, cycle) at t from one cycle lookup: the state entering
        the piece covering each time, the hours into it, the 1-based cycle."""
        t_arr = self._query(t)
        cycle = self._cycles(t_arr)
        if self._equi:
            s = t_arr - (cycle - 1) * self.regimen.interval
            x0, y0 = self._equi_states(cycle)
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
            x0, y0 = self._x0[piece], self._y0[piece]
        return x0, y0, s, cycle

    def evaluate(self, t):
        """(x, y, cycle) at t: concentration, gut amount (post-dose at dose
        instants) and 1-based cycle; Python numbers for a scalar t, arrays
        otherwise."""
        x0, y0, s, cycle = self._locate(t)
        x, y = self.bateman.x(x0, y0, s), self.bateman.y(y0, s)
        return _shaped_like(t, x), _shaped_like(t, y), _shaped_like(t, cycle)

    def cycle_index(self, t) -> np.ndarray | int:
        """1-based cycle covering t; dose instants map to the new cycle."""
        return _shaped_like(t, self._cycles(self._query(t)))

    def x(self, t):
        """Plasma concentration at t (scalar or array)."""
        x0, y0, s, _ = self._locate(t)
        return _shaped_like(t, self.bateman.x(x0, y0, s))

    def y(self, t):
        """Gut amount at t (post-dose at exact dose instants)."""
        _, y0, s, _ = self._locate(t)
        return _shaped_like(t, self.bateman.y(y0, s))

    def __call__(self, t):
        return self.evaluate(t)[:2]


def equi_multidose(p: PkParams, d: float, tau: float) -> PiecewiseSolution:
    """Piecewise solution for d mg every tau hours, indefinitely."""
    return PiecewiseSolution(p, EquiDose(dose=d, interval=tau))


def arbitrary_multidose(p: PkParams, r: Regimen) -> PiecewiseSolution:
    """Piecewise solution for any dosing schedule."""
    return PiecewiseSolution(p, r)
