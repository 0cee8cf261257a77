"""Independent reference implementation used for verification only.

A superposition evaluator cross-checks the closed-form trajectories: it rebuilds
the multi-dose response as a sum of time-shifted single-dose states (valid because
the governing system is linear). One grouped dose sum, O(D^1.5 + N sqrt(D))
exponentials for D doses and N times, serves the oral concentration and gut amount,
the IV bolus and the FAT models. The test suite's RK4 integrator is in `tests/rk4.py`.

Its only part shared with the closed forms is `bateman.Bateman`, the piece kernel
with 60-digit tests of its own. Nothing here is used by the analytic paths; keep it so.
"""

from __future__ import annotations

import math

import numpy as np

from .bateman import Bateman
from .core import (EquiDose, PkParams, Regimen, ValidationError, validate_cycle,
                   validate_params, validate_positive, validate_regimen)


def superpose(p, r, n_doses: int | None = None):
    """Concentration as a sum of shifted single-dose states.

    Oral regimens (EquiDose, Arbitrary) and finite-absorption regimens
    (entries (dose, interval, window), as FatRegimen holds, or an EquiDose
    with a window) take PkParams; an IV bolus regimen (entries (delta,
    interval), or an EquiDose) takes the elimination rate ke instead, as
    bolus_multidose does. Returns a vectorized callable t -> x(t). For an
    equi-dose regimen `n_doses` caps how many doses contribute (default:
    enough for each call's largest time, so the dose groups and a value's last
    bit may change with the batch, as in `simulate --verify`'s per-block calls).
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
    (none: u), then decayed at ke: q*d*E(min(u, w))*e^{-ke*max(u - w, 0)} or
    d*e^{-ke u}; its gut holds d*e^{-ka u} until the window closes. No term is < 0.

    The D doses form groups of K = ceil(sqrt(D)). At t in a group starting at P, the
    earlier doses' states at P sum to the pivot state (x_P, y_P), which runs on to t as
    one piece; every window has closed by P (w <= interval). The group's own doses up
    to t add directly. The pivot state is summed afresh for each queried group, never
    carried from the one before (the closed form's recursion, which this checks):
    values depend only on t and the doses. N times cost O(D^1.5 + N K) exps.
    """
    fields = None if isinstance(r, EquiDose) else np.array(r.entries, dtype=float)

    def evaluate(t):
        t_arr = np.asarray(t, dtype=float)
        bad = t_arr[~np.isfinite(t_arr)]
        if bad.size:
            raise ValidationError(f"query time must be finite, got {float(bad[0])!r}")
        if fields is None:
            reach = int(np.floor(t_arr.max(initial=0.0) / r.interval)) + 1
            starts = np.arange(reach if n_doses is None else validate_cycle(n_doses)) * r.interval
            amounts = np.full(starts.size, float(r.dose))
            windows = None if r.window is None else np.full(starts.size, r.window)
        else:
            starts = np.concatenate(([0.0], np.cumsum(fields[:-1, 1])))
            amounts, windows = fields[:, 0], fields[:, 2] if fields.shape[1] > 2 else None

        def dose_x(j, u):
            """x of doses j, u >= 0 hours after they landed."""
            if windows is None:
                return b.x(0.0, amounts[j], u) if b.q else b.x(amounts[j], 0.0, u)
            held = np.minimum(u, windows[j])
            return b.x(0.0, amounts[j], held) * np.exp(-b.ke * (u - held))

        size = math.isqrt(starts.size - 1) + 1
        last = np.searchsorted(starts, t_arr.ravel(), side="right") - 1
        ts = np.maximum(t_arr.ravel(), 0.0)  # t < 0: group 0, where no dose has started
        first = np.maximum(last, 0) // size * size
        pivot_x, pivot_y = np.zeros(starts.size), np.zeros(starts.size)
        for g in np.flatnonzero(np.bincount(first)):  # np.unique imports numpy.ma
            u = starts[g] - starts[:g]
            pivot_x[g] = np.sum(dose_x(slice(g), u))
            if b.q and windows is None:  # else no gut is left at P
                pivot_y[g] = np.sum(b.y(amounts[:g], u))
        total = b.x(pivot_x[first], pivot_y[first], ts - starts[first])
        for m in range(size):
            (at,) = np.nonzero(first + m <= last)
            j = first[at] + m
            total[at] += dose_x(j, ts[at] - starts[j])
        out = total.reshape(t_arr.shape)
        return out if out.shape else float(out)

    return evaluate
