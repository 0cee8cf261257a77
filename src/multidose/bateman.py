"""Closed-form concentration and gut-amount trajectories.

As in the paper's Generalized Bateman function, every piece is read from
the state (x0, y0) entering it: s hours in, x = x0*e^{-ke s} + q*y0*E(s)
and y = y0*e^{-ka s}, with q = ka*gamma/V and E = `decay_difference`.
Both terms are >= 0 and nothing divides by ka - ke, so pieces stay exact
as ka -> ke. Over an interval the piece is the triangular map
M = [[beta, q*E(tau)], [0, alpha]] of the state; a dose adds to it. For
constant regimens the state entering every piece is a geometric sum of
the one-cycle map (`decay_sum`) in closed form; any other schedule
tabulates it by one remainder recursion. The IV bolus (q = 0: no gut)
and finite-absorption-time (y0 = 0 once the window closes) models of
`extmodels` are those pieces with other dose rules, so one evaluator
serves all three models. States, and the rows and limits read from
them, are EXTENDED and round once to floats; trajectories evaluate
pieces in float64 from the rounded states. Every piece form calls numpy:
a float gives an np.float64 with the bits of an array holding it.

Evaluation exactly at a dose time t_n returns the incoming cycle's
values: the (continuous) concentration and the post-dose gut amount.
A finite schedule's final piece extends to all later times.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .core import (Arbitrary, EquiDose, PkParams, Regimen, ValidationError, validate_cycle,
                   validate_params, validate_positive, validate_regimen)

#: The type of states and of the values reported from them: on x86-64 Linux
#: 80-bit, so each reported float rounds once from within 2^-11 ulp of exact.
EXTENDED = np.longdouble

#: Points per block of an array query: a call holds its outputs and one block
#: of per-point temporaries, about 1.2 MB. The trajectory-query benchmark's
#: calls in fresh processes took (ms, medians of 12, 2-vCPU x86-64 VM) 95.7
#: unblocked, 98.5 at 4,096, 85.0 at 8,192, 83.0 at 16,384, 88.7 at 32,768.
BLOCK_POINTS = 16_384


def _difference(slow_decay, gap: float, t):
    """E(t) from e^{-min(ka, ke) t} and gap = |ka - ke|, a new value (an array
    is scaled in place; trajectories pass one block of points at a time)."""
    e = np.expm1(-gap * t)
    e *= slow_decay
    e /= -gap
    return e


def _decay_differences(ka, ke, t):
    """E(t) as `decay_difference` gives it, -dE/d(slower rate) and -dE/d(faster
    rate) for arrays: e^{-kt}'s second divided differences, t^2 e^{-min(ka, ke) t}
    times phi2 and phi1 - phi2 of z = -|ka - ke|*t, phi1 = (e^z - 1)/z, phi2 =
    (phi1 - 1)/z, or sum_{k<9} z^k/(k + 2)! where |z| < 0.1 and the forms cancel."""
    slow, gap = np.exp(-np.minimum(ka, ke) * t), np.abs(ka - ke)
    z = -gap * t
    series = z > -0.1
    w = np.where(series, -1.0, z)
    phi1 = np.expm1(w) / w
    phi2, rest = (phi1 - 1.0) / w, (np.exp(w) - phi1) / w
    if series.any():
        phi2[series] = np.polyval([1 / math.factorial(k) for k in range(10, 1, -1)], z[series])
        rest[series] = 1.0 - (1.0 - z[series]) * phi2[series]
    scale = t * (t * slow)
    return _difference(slow, gap, t), scale * phi2, scale * rest


def decay_difference(ka: float, ke: float, t):
    """(e^{-ke t} - e^{-ka t}) / (ka - ke) for t >= 0, a float or an array:
    through the slower rate and expm1, so positive and exact as ka -> ke."""
    return _difference(np.exp(-min(ka, ke) * t), abs(ka - ke), t)


def decay_sum(k, tau, n):
    """sum_{j<n} e^{-k j tau} = expm1(-k tau n)/expm1(-k tau), in the type of
    k and tau, for n an int, an index array or inf (1/(1 - e^{-k tau}))."""
    return np.expm1(-k * tau * n) / np.expm1(-k * tau)


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
        self.log_ratio = (np.log1p(self.delta / ke) if 2.0 * self.gap < ke
                          else np.log(ka / ke) if ka else -math.inf)

    @classmethod
    def of(cls, p: PkParams, kind=float) -> Bateman:
        """The forms of an oral parameter vector in `kind`: q = ka*gamma/V."""
        ka, ke = kind(p.ka), kind(p.ke)
        return cls(ka, ke, ka * kind(p.gamma) / kind(p.volume))

    def x(self, x0, y0, s):
        """x s hours into the piece entering at (x0, y0), scalars or shaped like s
        (a few temporaries the size of s, updated in place; trajectories pass
        one block of points at a time); with q = 0 it decays alone."""
        decay_b = np.exp(-self.ke * s)
        if not self.q:
            return x0 * decay_b
        slow = decay_b if self.ke <= self.ka else np.exp(-self.ka * s)
        e = _difference(slow, self.gap, s)
        e *= self.q * y0
        decay_b *= x0
        decay_b += e
        return decay_b

    def y(self, y0, s):
        """y s hours into the piece entering with y0 in the gut; with ka = 0
        (the bolus) y0 at every s, s = inf too, where -ka*s is NaN."""
        return y0 * np.exp(-self.ka * s) if self.ka else y0 * np.ones_like(s)

    def peak(self, x0, y0, tau=math.inf):
        """(s, x): where on [0, tau] x peaks, and x there, for x0 >= 0 < y0.

        x turns once, where ka*q*y0*e^{-ka s} = ke*(delta*x0 + q*y0)*e^{-ke s},
        at s* = (log(ka/ke) - log1p(delta*x0/(q*y0)))/delta; s is s* clipped
        to [0, tau] (0 if x never turns): for states of any sign, the one
        interior extremum candidate. At s = 0, x is x0 exactly.
        """
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            s = (self.log_ratio - np.log1p(np.divide(self.delta * x0, self.q * y0))) / self.delta
        s = np.where(s > 0.0, np.minimum(s, tau), 0.0)
        return s[()], np.where(s > 0.0, self.x(x0, y0, s), x0)[()]

    def area(self, x0, y0, tau):
        """Integral of x over [0, tau]: x0*zb/ke + q*y0*(zs - ks*E(tau))/(ka*ke),
        z = 1 - e^{-k tau} and ks the slower rate; zs - ks*E(tau) = ks*integral
        of e^{-kf(tau-u)}(1 - e^{-ks u}) cancels only where kf*tau is small."""
        zb, zs = -np.expm1(-self.ke * tau), -np.expm1(-self.slow * tau)
        e = decay_difference(self.ka, self.ke, tau)
        return x0 * zb / self.ke + self.q * y0 * (zs - self.slow * e) / (self.ka * self.ke)


def _equi_state(b: Bateman, d, tau, n):
    """EXTENDED (x0, y0) entering cycle n of d every tau, for b's forms and tau
    in EXTENDED; n an int, an index array or inf (the limiting state). The
    dose carried by sum_{k<n} M^k, summed from the faster decay f as
    x0 = q*d*(E(tau)*G_slow(n-1) - f*E((n-1)tau))/(1 - f), G = decay_sum:
    it cancels only while f^(n-1) ~ 1, at short intervals.
    """
    m, fast = n - 1, max(b.ka, b.ke)
    carried = (decay_difference(b.ka, b.ke, tau) * decay_sum(b.slow, tau, m)
               - np.exp(-fast * tau) * decay_difference(b.ka, b.ke, tau * m))
    return b.q * d * carried / -np.expm1(-fast * tau), d * decay_sum(b.ka, tau, n)


class PiecewiseSolution:
    """Multi-dose closed-form solution of the oral model (and of the bolus
    and FAT models of `extmodels`), immutable after construction.

    Equi-dose regimens have every piece's state in closed form, others the
    table `_build` builds. x, y, evaluate, __call__ and cycle_index locate a
    query's cycles once, then read the pieces covering its times one block
    of BLOCK_POINTS at a time (by runs of cycles or point by point, alike),
    so an array query holds its outputs and one block. n_cycles is the
    number of cycles, None for an unbounded equi-dose schedule.
    """

    #: The model, the validate_regimen arguments for its regimens, and the
    #: state just after a dose: an oral dose lands in the gut.
    model, _regimens = "oral", (Arbitrary, "an oral regimen")
    _dose = staticmethod(lambda x, y, amount: (x, y + amount))

    def __init__(self, params: PkParams, regimen: Regimen):
        self.params = validate_params(params)
        self.bateman, self._exact = Bateman.of(params), Bateman.of(params, EXTENDED)
        self._build(regimen)

    def _build(self, regimen) -> None:
        """Check `regimen` and tabulate its cycles' states (an equi-dose
        regimen's first cycle) by the remainder recursion. Entries are
        (amount, interval) or, where absorption stops `window` into the
        cycle, (amount, interval, window): a second piece with an empty gut.
        """
        self.regimen = validate_regimen(regimen, *self._regimens)
        self._equi = isinstance(regimen, EquiDose)
        entries = (regimen.entry,) if self._equi else regimen.entries
        self.n_cycles = None if self._equi else len(entries)
        taus = np.array([e[1] for e in entries])
        self._starts = np.concatenate(([0.0], np.cumsum(taus)))
        if len(entries[0]) > 2:
            self._cut = np.array([e[2] for e in entries])
            self._spans = np.column_stack((self._cut, taus - self._cut))
        else:
            self._cut, self._spans = None, taus[:, None]
        ka, ke, q, s = (self._exact.ka, self._exact.ke, self._exact.q,
                        self._spans.ravel().astype(EXTENDED))
        a, b, e = list(np.exp(-ka * s)), list(np.exp(-ke * s)), list(decay_difference(ka, ke, s))
        windowed, pieces = self._cut is not None, self._spans.shape[1]
        x0, y0 = [], []
        x = y = EXTENDED(0.0)
        for i, entry in enumerate(entries):
            x, y = self._dose(x, y, entry[0])
            for j in range(i * pieces, (i + 1) * pieces):
                x0.append(x)
                y0.append(y)
                # A window's end empties the gut for the rest of the cycle.
                x, y = x * b[j] + q * y * e[j], 0.0 if windowed else y * a[j]
        self._x0e, self._y0e = (np.array(v, dtype=EXTENDED).reshape(self._spans.shape)
                                for v in (x0, y0))

    def _equi_pieces(self, n):
        """EXTENDED (x0, y0) entering cycle n of d every tau (see _pieces)."""
        x0, y0 = _equi_state(self._exact, self.regimen.dose, EXTENDED(self.regimen.interval), n)
        return np.asarray(x0)[..., None], np.asarray(y0)[..., None]

    def _pieces(self, n):
        """EXTENDED (x0, y0) entering each piece of cycle(s) n, an int or an
        index array, shaped n's shape + (pieces,), and the pieces' spans
        (an equi-dose regimen's one cycle of them, which broadcasts)."""
        if self._equi:
            return (*self._equi_pieces(n), self._spans[0])
        return self._x0e[n - 1], self._y0e[n - 1], self._spans[n - 1]

    def remainders(self, n):
        """(x, y) just before dose n+1, closing cycle n; (0, 0) for n = 0.
        The gut remainder is the pre-jump left limit at t_n. An index
        array n gives arrays."""
        validate_cycle(n, lowest=0, last=self.n_cycles)
        closing = self._closing(np.maximum(n, 1))
        return tuple(_shaped_like(n, np.where(n > 0, v, 0.0).astype(float)) for v in closing)

    def _closing(self, n, pieces=None):
        """EXTENDED (x, y) closing cycle(s) n >= 1 (inf: an equi-dose limit): the last
        piece run over its span, as the recursion runs it (`pieces`: `_pieces(n)`)."""
        x0, y0, span = (v[..., -1] for v in pieces or self._pieces(n))
        return self._exact.x(x0, y0, span), self._exact.y(y0, span)

    def _cycles(self, t: np.ndarray) -> np.ndarray:
        """1-based cycle covering each t >= 0; dose instants open the new cycle.
        A dose every tau counts the dose times k*tau <= t, as searchsorted
        over the grid k*tau would, without building the grid."""
        if not self._equi:
            idx = np.searchsorted(self._starts[:-1], t, side="right")
            return np.minimum(idx, self.n_cycles)
        tau = self.regimen.interval
        k = np.floor(t / tau)
        if k.size and k.max() >= 2.0 ** 53:
            raise ValidationError(f"t={t.max():g} lies beyond 2**53 dosing intervals of "
                                  f"{tau:g} h; cycle numbers are no longer exact there")
        k -= k * tau > t
        k += (k + 1.0) * tau <= t
        return k.astype(np.int64) + 1

    def _start(self, n):
        """The float time of dose n, opening cycle(s) n (1-based)."""
        return (n - 1) * self.regimen.interval if self._equi else self._starts[n - 1]

    def _lookup(self, t: np.ndarray):
        """(rows, ends) for a flat query t, ValidationError if NaN or < 0: its cycles, least
        time's to greatest's, if fewer than its points, and for t sorted (checked a block
        at a time) where each run of points but the last ends (as `_cycles` splits)."""
        lo = t.min() if t.size else 0.0
        if math.isnan(lo):
            raise ValidationError("query time must be finite, got nan")
        if lo < 0.0:
            raise ValidationError("trajectory is defined for t >= 0 only")
        if t.size < 2:  # one point: no range to locate
            return None, None
        first, last = self._cycles(np.array([lo, t.max()])).tolist()
        rows = np.arange(first, last + 1) if last - first + 1 < t.size else None
        blocks = (t[a:a + BLOCK_POINTS + 1] for a in range(0, t.size, BLOCK_POINTS))
        if rows is None or not all((b[1:] >= b[:-1]).all() for b in blocks):
            return rows, None
        return rows, np.searchsorted(t, self._start(rows[1:]), side="left")

    def _table(self, rows):
        """Float (x0, y0) entering each piece of cycles `rows` (a column per
        piece: two with a window), their dose times and, with a window, cutoffs."""
        x0, y0, spans = self._pieces(rows)
        cut = None if self._cut is None else np.broadcast_to(spans, x0.shape)[:, 0]
        return x0.astype(float), y0.astype(float), self._start(rows), cut

    def _evaluate(self, t, want: str) -> tuple:
        """The outputs in `want` ('x', 'y', 'c' for the cycle) at t, shaped like t.

        The query's cycles are located once (`_lookup`), with their `_table` when
        fewer than its points. Each block of BLOCK_POINTS points then takes its
        cycles, s = t - t_start and states into the preallocated outputs: no other
        per-point array outlives a block. Every path and block runs the same
        operations on each point.
        """
        flat = np.asarray(t, dtype=float).reshape(-1)
        rows, ends = self._lookup(flat)
        sparse, states = rows is None, want != "c"
        table = None if sparse or not states else self._table(rows)
        outs = {k: np.empty(flat.size, np.int64 if k == "c" else float) for k in want}
        for a in range(0, flat.size, BLOCK_POINTS):
            tb = flat[a:a + BLOCK_POINTS]
            block = slice(a, a + tb.size)
            # `spread` takes per-cycle values of `rows` to the block's points.
            if ends is not None:
                # The block's part of each run from the first to the last it meets.
                r0, r1 = np.searchsorted(ends, (a, block.stop - 1), side="right").tolist()
                counts = np.diff(np.concatenate(([a], ends[r0:r1], [block.stop])))
                spread = lambda v: np.repeat(v[r0:r1 + 1], counts)
                cycle = spread(rows)
            else:
                cycle = self._cycles(tb)
                spread = (lambda v: v) if sparse else (lambda v, i=cycle - rows[0]: v.take(i))
            if "c" in outs:
                outs["c"][block] = cycle
            if not states:
                continue
            # Sparse: states for each point's own cycle.
            x0, y0, start, cut = self._table(cycle) if sparse else table
            s = tb - spread(start)
            piece = lambda v: spread(v[:, 0])
            if cut is not None:
                # Past the absorption cutoff the cycle's second piece applies,
                # timed from the cutoff.
                cut = spread(cut)
                clearing = s >= cut
                s -= np.where(clearing, cut, 0.0)
                piece = lambda v: np.where(clearing, spread(v[:, 1]), spread(v[:, 0]))
            y0 = piece(y0)
            if "x" in outs:
                outs["x"][block] = self.bateman.x(piece(x0), y0, s)
            if "y" in outs:
                outs["y"][block] = self.bateman.y(y0, s)
        return tuple(_shaped_like(t, outs[k].reshape(np.shape(t))) for k in want)

    def evaluate(self, t):
        """(x, y, cycle) at t: concentration, gut amount (post-dose at dose
        instants) and 1-based cycle; Python numbers for a scalar t, arrays
        otherwise."""
        return self._evaluate(t, "xyc")

    def cycle_index(self, t) -> np.ndarray | int:
        """1-based cycle covering t; dose instants map to the new cycle."""
        return self._evaluate(t, "c")[0]

    def x(self, t):
        """Plasma concentration at t (scalar or array)."""
        return self._evaluate(t, "x")[0]

    def y(self, t):
        """Gut amount at t (post-dose at exact dose instants)."""
        return self._evaluate(t, "y")[0]

    def __call__(self, t):
        return self._evaluate(t, "xy")


def validate_oral(sol: PiecewiseSolution) -> PiecewiseSolution:
    """sol unchanged when it solves the oral model; ValidationError naming its
    model otherwise: bolus and FAT cycles are not the single oral piece."""
    if sol.model != "oral":
        raise ValidationError(f"expected an oral solution, got a {sol.model} solution")
    return sol


def single_dose(p: PkParams, d: float) -> PiecewiseSolution:
    """The one-entry solution for d mg at t = 0; its one piece extends to all later times."""
    validate_params(p)
    return PiecewiseSolution(p, Arbitrary([(validate_positive("dose", d), sys.float_info.max)]))


def equi_multidose(p: PkParams, d: float, tau: float) -> PiecewiseSolution:
    """Piecewise solution for d mg every tau hours, indefinitely."""
    return PiecewiseSolution(p, EquiDose(dose=d, interval=tau))


def arbitrary_multidose(p: PkParams, r: Regimen) -> PiecewiseSolution:
    """Piecewise solution for any dosing schedule."""
    return PiecewiseSolution(p, r)
