"""Independent reference implementations used for verification only.

Two cross-checks for the closed-form trajectories: a fixed-step RK4
integrator of the absorption-elimination system with impulsive gut
refills at dose times, and a superposition evaluator that rebuilds the
multi-dose response as a sum of time-shifted single-dose responses
(valid because the governing system is linear). One grouped dose sum,
O(D^1.5 + N sqrt(D)) exponentials for D doses and N times, serves the
oral concentration and gut amount, the IV bolus and the FAT models.

Nothing here is used by the analytic code paths; keep it that way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    EquiDose,
    PkParams,
    Regimen,
    StepTooLarge,
    ValidationError,
    dose_times,
    validate_cycle,
    validate_params,
    validate_positive,
    validate_regimen,
)


@dataclass(frozen=True)
class OracleConfig:
    """Fixed-step RK4 settings. `step` is the nominal step in hours."""

    step: float = 1e-3


@dataclass(frozen=True)
class OdeTrajectory:
    """Dense integrator output: grid times with both state components."""

    times: np.ndarray
    x: np.ndarray
    y: np.ndarray


def _rk4_segment(p: PkParams, y0: float, x0: float, duration: float,
                 step: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """RK4 over one dose-free segment, landing exactly on `duration`.

    Returns (offsets, x, y) including both endpoints.
    """
    ka, ke, q = p.ka, p.ke, p.ka * p.gamma / p.volume
    n_full = int(duration / step)
    last = duration - n_full * step
    if last < 1e-12 * max(duration, 1.0):
        sizes = [step] * n_full
    else:
        sizes = [step] * n_full + [last]
    offsets = np.empty(len(sizes) + 1)
    xs = np.empty(len(sizes) + 1)
    ys = np.empty(len(sizes) + 1)
    offsets[0], xs[0], ys[0] = 0.0, x0, y0
    t, x, y = 0.0, x0, y0
    for i, h in enumerate(sizes, start=1):
        # y' = -ka*y ; x' = q*y - ke*x
        k1y = -ka * y
        k1x = q * y - ke * x
        y2 = y + 0.5 * h * k1y
        x2 = x + 0.5 * h * k1x
        k2y = -ka * y2
        k2x = q * y2 - ke * x2
        y3 = y + 0.5 * h * k2y
        x3 = x + 0.5 * h * k2x
        k3y = -ka * y3
        k3x = q * y3 - ke * x3
        y4 = y + h * k3y
        x4 = x + h * k3x
        k4y = -ka * y4
        k4x = q * y4 - ke * x4
        y += h * (k1y + 2.0 * k2y + 2.0 * k3y + k4y) / 6.0
        x += h * (k1x + 2.0 * k2x + 2.0 * k3x + k4x) / 6.0
        t += h
        offsets[i], xs[i], ys[i] = t, x, y
    offsets[-1] = duration
    return offsets, xs, ys


def integrate_impulses(p: PkParams, impulses: list[tuple[float, float]],
                       t_end: float, cfg: OracleConfig = OracleConfig()
                       ) -> OdeTrajectory:
    """Integrate from t=0 to t_end with gut refills y += amount at each time.

    Integration restarts at every impulse so no step straddles one.
    Impulse times must be non-decreasing and start at 0; zero amounts are
    allowed here (this is test plumbing, not a dosing schedule).
    """
    validate_params(p)
    validate_positive("step", cfg.step)
    validate_positive("t_end", t_end)
    times = [t for t, _ in impulses if t < t_end]
    gaps = np.diff([*times, t_end])
    if len(gaps) and cfg.step > gaps.min() / 10.0:
        raise StepTooLarge(
            f"step {cfg.step:g} exceeds a tenth of the shortest dosing gap "
            f"{gaps.min():g}"
        )
    # Samples at impulse instants carry the post-dose state, matching the
    # closed-form convention; each segment contributes its start (post
    # impulse) through just before the next impulse.
    grid, xs, ys = [], [], []
    t, x, y = 0.0, 0.0, 0.0
    events = [(ti, ai) for ti, ai in impulses if ti < t_end]
    if not events or events[0][0] > 0.0:
        events = [(0.0, 0.0)] + events
    for k, (ti, amount) in enumerate(events):
        if ti > t:
            raise ValueError("impulses must be sorted and start at t=0")
        y += amount
        seg_end = events[k + 1][0] if k + 1 < len(events) else t_end
        off, sx, sy = _rk4_segment(p, y, x, seg_end - ti, cfg.step)
        last = k + 1 == len(events)
        stop = len(off) if last else len(off) - 1
        grid.append(ti + off[:stop])
        xs.append(sx[:stop])
        ys.append(sy[:stop])
        t, x, y = seg_end, sx[-1], sy[-1]
    return OdeTrajectory(np.concatenate(grid), np.concatenate(xs),
                         np.concatenate(ys))


def integrate_ode(p: PkParams, r: Regimen, t_end: float,
                  cfg: OracleConfig = OracleConfig()) -> OdeTrajectory:
    """RK4 trajectory for an oral dosing regimen over [0, t_end]."""
    validate_positive("t_end", t_end)
    if isinstance(validate_regimen(r), EquiDose):
        n = max(1, int(np.ceil(t_end / r.interval)) + 1)
        starts = dose_times(r, n)[:-1]
        impulses = [(float(t), r.dose) for t in starts if t < t_end]
    else:
        starts = dose_times(r)[:-1]
        impulses = [(float(t), d) for t, (d, _) in zip(starts, r.entries)
                    if t < t_end]
    return integrate_impulses(p, impulses, t_end, cfg)


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
