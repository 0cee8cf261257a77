"""Independent reference implementation used for verification only.

A superposition evaluator cross-checks the closed-form trajectories: it
rebuilds the multi-dose response as a sum of time-shifted single-dose
responses (valid because the governing system is linear). One grouped
dose sum, O(D^1.5 + N sqrt(D)) exponentials for D doses and N times,
serves the oral concentration and gut amount, the IV bolus and the FAT
models. The test suite's RK4 integrator is in `tests/rk4.py`.

Nothing here is used by the analytic code paths; keep it that way.
"""

from __future__ import annotations

import math

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


def superpose(p, r, n_doses: int | None = None):
    """Concentration as a sum of shifted single-dose responses.

    Oral regimens (EquiDose, Arbitrary) and finite-absorption regimens
    (entries (dose, interval, window), as FatRegimen holds, or an EquiDose
    with a window) take PkParams; an IV bolus regimen (entries (delta,
    interval), or an EquiDose) takes the elimination rate ke instead, as
    bolus_multidose does. Returns a vectorized callable t -> x(t). For an
    equi-dose regimen `n_doses` caps how many doses contribute (default:
    enough for each call's largest time, so the dose groups, and a value's
    last bit, may change with the batch).
    """
    if not isinstance(p, PkParams):
        # IV bolus: each delta enters plasma directly and decays at ke = p.
        return _dose_sum(r, n_doses, 1.0, validate_positive("ke", float(p)))
    validate_params(p)
    amplitude = p.ka * p.gamma / (p.volume * (p.ka - p.ke))
    return _dose_sum(r, n_doses, amplitude, p.ke, p.ka)


def superpose_gut(p: PkParams, r: Regimen, n_doses: int | None = None):
    """Gut amount of an oral regimen as a sum of shifted exponential decays
    (post-dose at t_n)."""
    validate_params(p)
    return _dose_sum(validate_regimen(r), n_doses, 1.0, p.ka)


def _dose_sum(r, n_doses: int | None, weight: float, k_out: float,
              k_in: float | None = None):
    """Evaluator of the sum over doses of weight*amount*response(t - t_dose).

    The response is e^{-k_out u} - e^{-k_in u}, or e^{-k_out u} alone
    without k_in, for u >= 0 and zero before the dose. An entry with a
    third field, an absorption window w, holds its response at u = w and
    lets it decay at k_out after that.

    The D doses form groups of K = ceil(sqrt(D)). At t in a group starting at P, each
    earlier dose j decays as c_j e^{-k (t - s_j)} (s_j its time, or its window's end:
    w <= interval), so they sum to S e^{-k (t - P)}, S = sum_j c_j e^{-k (P - s_j)},
    and the group's own doses up to t add directly. S is summed afresh for each queried
    group, never carried from the one before (the closed form's recursion, which this
    checks): values depend only on t and the doses. N times cost O(D^1.5 + N K) exps.
    """
    fields = None if isinstance(r, EquiDose) else np.array(r.entries, dtype=float)

    def response(u):
        out = np.exp(-k_out * u)
        return out if k_in is None else out - np.exp(-k_in * u)

    def evaluate(t):
        t_arr = np.asarray(t, dtype=float)
        bad = t_arr[~np.isfinite(t_arr)]
        if bad.size:
            raise ValidationError(f"query time must be finite, got {float(bad[0])!r}")
        if fields is None:
            reach = int(np.floor(t_arr.max(initial=0.0) / r.interval)) + 1
            starts = np.arange(reach if n_doses is None else validate_cycle(n_doses)) * r.interval
            scale = np.full(starts.size, weight * r.dose)
            windows = None if r.window is None else np.full(starts.size, r.window)
        else:
            starts = np.concatenate(([0.0], np.cumsum(fields[:-1, 1])))
            scale, windows = weight * fields[:, 0], fields[:, 2] if fields.shape[1] > 2 else None
        rates = [(k_out, 1.0)] + ([] if k_in is None or windows is not None else [(k_in, -1.0)])
        coef, ends = ((scale, starts) if windows is None
                      else (scale * response(windows), starts + windows))
        size = math.isqrt(starts.size - 1) + 1
        last = np.searchsorted(starts, t_arr.ravel(), side="right") - 1
        ts = np.maximum(t_arr.ravel(), 0.0)  # t < 0: group 0, where no dose has started
        first = np.maximum(last, 0) // size * size
        total = np.zeros_like(ts)
        for k, sign in rates:
            pivot_sum = np.zeros(starts.size)
            for b in np.flatnonzero(np.bincount(first)):  # np.unique imports numpy.ma
                pivot_sum[b] = np.sum(coef[:b] * np.exp(-k * (starts[b] - ends[:b])))
            total += sign * pivot_sum[first] * np.exp(-k * (ts - starts[first]))
        for m in range(size):
            (at,) = np.nonzero(first + m <= last)
            j = first[at] + m
            u = ts[at] - starts[j]
            direct = scale[j] * response(u)
            if windows is not None:
                closed = coef[j] * np.exp(-k_out * np.maximum(u - windows[j], 0.0))
                direct = np.where(u <= windows[j], direct, closed)
            total[at] += direct
        out = total.reshape(t_arr.shape)
        return out if out.shape else float(out)

    return evaluate
