"""Independent reference implementation used for verification only.

A superposition evaluator cross-checks the closed-form trajectories: it rebuilds
the multi-dose response as a sum of time-shifted single-dose states (valid because
the governing system is linear). One windowed, grouped dose sum serves the oral
concentration and gut amount, the IV bolus and the FAT models. The test suite's
RK4 integrator is in `tests/rk4.py`.

Its only part shared with the closed forms is `bateman.Bateman`, the piece kernel
with 60-digit tests of its own. Nothing here is used by the analytic paths; keep it so.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .bateman import BLOCK_POINTS, Bateman
from .core import (EquiDose, PkParams, Regimen, ValidationError, validate_cycle,
                   validate_params, validate_positive, validate_regimen)


def superpose(p, r, n_doses: int | None = None):
    """Concentration as a sum of shifted single-dose states.

    Oral regimens (EquiDose, Arbitrary) and finite-absorption regimens (entries
    (dose, interval, window), as FatRegimen holds, or an EquiDose with a window) take
    PkParams; an IV bolus regimen (entries (delta, interval), or an EquiDose) takes the
    elimination rate ke instead, as bolus_multidose does. Returns a vectorized callable
    t -> x(t) whose values depend only on t and the doses; for an equi-dose regimen
    `n_doses` caps how many doses contribute (default: no end).
    """
    if not isinstance(p, PkParams):
        # IV bolus: each delta enters plasma directly and decays at ke = p.
        return _dose_sum(r, n_doses, Bateman(0.0, validate_positive("ke", float(p)), 0.0))
    return _dose_sum(r, n_doses, Bateman.of(validate_params(p)))


def superpose_gut(p: PkParams, r: Regimen, n_doses: int | None = None):
    """Gut amount of an oral regimen as a sum of shifted exponential decays
    (post-dose at t_n): each dose leaves the gut at ka as a bolus leaves plasma."""
    validate_params(p)
    return _dose_sum(validate_regimen(r), n_doses, Bateman(0.0, p.ka, 0.0))


def _dose_sum(r, n_doses: int | None, b: Bateman):
    """Evaluator of x(t) under the piece forms b, as a sum of single-dose states.

    A dose of d lands at (0, d), or at (d, 0) where q = 0 (a bolus). u >= 0 hours
    later its x is `b.x` of that state over min(u, w), w its absorption window
    (none: u), then decayed at ke: q*d*E(min(u, w))*e^{-ke*max(u - w, 0)} <= q*d*E(u),
    or d*e^{-ke u}; its gut holds d*e^{-ka u} until the window closes. No term is < 0.

    Doses older than A are dropped. With s the slower rate (ke for a bolus), tau the
    shortest interval and r = e^{-s tau}: E(u) <= e^{-s u}*min(u, 1/|ka - ke|), which
    falls past u = 1/s, and the i-th dropped dose is older than A + i*tau, so the
    dropped terms sum to at most q*d_max*e^{-s A}*min(A + tau*r/(1 - r), 1/|ka - ke|)
    /(1 - r), or d_max*e^{-s A}/(1 - r) for a bolus. A is the least age >= 1/s where
    that is <= 2^-60 of the largest single-dose peak (no peak of x is lower).

    W, the window's width, is the most doses any dose has within A before it (equi:
    A/tau, below n_doses). Groups of K = isqrt(W) + 1 doses start at fixed indices. At
    t in a group starting at P, the W doses before P (zeros before dose 0) sum to the
    pivot state (x_P, y_P), which runs on to t as one piece (every window has closed
    by P), and the group's doses up to t add directly. Each queried pivot is summed
    afresh, BLOCK_POINTS terms at a time, never carried from the one before (the
    closed form's recursion, which this checks); an equi pivot past dose W sums dose
    W's row. So values depend only on t and the doses; N times over G pivots cost
    O(N K + G W) exps.
    """
    equi = isinstance(r, EquiDose)
    cap = validate_cycle(n_doses) if equi and n_doses is not None else math.inf
    amounts, taus, *windows = np.array([r.entry] if equi else r.entries, dtype=float).T.copy()
    starts = np.concatenate(([0.0], np.cumsum(taus[:-1])))
    start = (lambda j: j * r.interval) if equi else starts.__getitem__
    s, tau, age = (b.slow if b.q else b.ke), taus.min(), math.inf
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        peak = b.peak(*((0.0, amounts) if b.q else (amounts, 0.0)), *windows)[1].max()
        scale = np.log((b.q or 1.0) * amounts.max() / (-np.expm1(-s * tau) * 2.0**-60 * peak))
        spread = tau / np.expm1(s * tau)  # tau*r/(1 - r)
        # A fixed-point iteration, down from above to the least A.
        while (shorter := max(1.0 / s, (scale + np.log(
                min(age + spread, 1.0 / b.gap) if b.q else 1.0)) / s)) < age:
            age = shorter
    width = (min(np.floor(age / r.interval), cap - 1) if equi
             else np.max(np.arange(starts.size) - np.searchsorted(starts, starts - age)))
    if not width < sys.maxsize:
        raise ValidationError(f"oracle window: {width:g} doses exceed {sys.maxsize}")
    size = math.isqrt(width := int(width)) + 1
    gut = b.q != 0 and not windows  # a pivot's gut: none without q, or once windows close

    def dose_x(j, u):
        """x of doses j, u >= 0 hours after they landed (clip: an equi entry serves all)."""
        held = np.minimum(u, windows[0].take(j, mode="clip")) if windows else u
        d = amounts.take(j, mode="clip")
        x = b.x(0.0, d, held) if b.q else b.x(d, 0.0, u)
        return x * np.exp(-b.ke * (u - held)) if windows else x

    def evaluate(t):
        t_arr = np.asarray(t, dtype=float)
        bad = t_arr[~np.isfinite(t_arr)]
        if bad.size:
            raise ValidationError(f"query time must be finite, got {float(bad[0])!r}")
        ts = np.maximum(t_flat := t_arr.ravel(), 0.0)  # t < 0: group 0, before any dose
        if equi:  # the dose at or before t, as a search of the times j*interval finds it
            last = np.floor(ts / r.interval)
            last = np.minimum(last + (start(last + 1) <= ts) - (start(last) > t_flat), cap - 1)
            if not last.max(initial=0.0) < 2.0**53:
                raise ValidationError(f"query time {t_flat.max():g} h is past 2**53 doses")
        else:
            last = np.searchsorted(starts, t_flat, side="right") - 1
        first = np.maximum(last, 0).astype(np.intp) // size * size
        keys = np.minimum(first, width) if equi else first
        pivots = np.flatnonzero(np.bincount(keys))  # np.unique imports numpy.ma
        state = np.zeros((2, keys.max(initial=0) + 1))  # (x_P, y_P) by the pivot's dose
        rows = BLOCK_POINTS // max(width, 1) or 1
        for g in np.split(pivots[:, None], range(rows, pivots.size, rows)):
            j = g - width + np.arange(width)
            u = start(g) - start(np.maximum(j, 0))
            terms = [dose_x(j, u)] + ([b.y(amounts.take(j, mode="clip"), u)] if gut else [])
            state[:len(terms), g[:, 0]] = np.where(j >= 0, terms, 0.0).sum(axis=-1)
        total = b.x(*state[:, keys], ts - start(first))
        for m in range(size):
            (at,) = np.nonzero(first + m <= last)
            j = first[at] + m
            total[at] += dose_x(j, ts[at] - start(j))
        return total.reshape(t_arr.shape) if t_arr.shape else float(total[0])

    return evaluate
