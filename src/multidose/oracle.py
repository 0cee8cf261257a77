"""Independent reference implementations used for verification only.

Two cross-checks for the closed-form trajectories: a fixed-step RK4
integrator of the absorption-elimination system with impulsive gut
refills at dose times, and a superposition evaluator that rebuilds the
multi-dose response as a sum of time-shifted single-dose responses
(valid because the governing system is linear). One dose-sum loop
serves the oral concentration and gut amount, the IV bolus and the
finite-absorption models.

Nothing here is used by the analytic code paths; keep it that way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    EquiDose,
    PkParams,
    Regimen,
    StepTooLarge,
    dose_times,
    validate_params,
    validate_positive,
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
    """RK4 trajectory for a dosing regimen over [0, t_end]."""
    validate_positive("t_end", t_end)
    if isinstance(r, EquiDose):
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
    (entries (dose, interval, window), as FatRegimen holds) take PkParams;
    an IV bolus regimen (entries (delta, interval)) takes the elimination
    rate ke instead, as bolus_multidose does. Returns a vectorized
    callable t -> x(t). For an equi-dose regimen `n_doses` caps how many
    doses contribute (default: enough to cover the largest queried time,
    recomputed per call).
    """
    if not isinstance(p, PkParams):
        # IV bolus: each delta enters plasma directly and decays at ke = p.
        return _dose_sum(r, n_doses, 1.0, validate_positive("ke", float(p)))
    validate_params(p)
    amplitude = p.ka * p.gamma / (p.volume * (p.ka - p.ke))
    return _dose_sum(r, n_doses, amplitude, p.ke, p.ka)


def superpose_gut(p: PkParams, r: Regimen, n_doses: int | None = None):
    """Gut amount as a sum of shifted exponential decays (post-dose at t_n)."""
    validate_params(p)
    return _dose_sum(r, n_doses, 1.0, p.ka)


def _dose_sum(r, n_doses: int | None, weight: float, k_out: float,
              k_in: float | None = None):
    """Evaluator of the sum over doses of weight*amount*response(t - t_dose).

    The response is e^{-k_out u} - e^{-k_in u}, or e^{-k_out u} alone
    without k_in, for u >= 0 and zero before the dose. An entry with a
    third field, an absorption window w, holds its response at u = w and
    lets it decay at k_out after that.
    """
    if isinstance(r, EquiDose):
        schedule = None
    else:
        starts = np.concatenate(([0.0], np.cumsum([e[1] for e in r.entries])))
        schedule = [(float(t0), e[0], e[2] if len(e) > 2 else None)
                    for t0, e in zip(starts, r.entries)]

    def response(u):
        out = np.exp(-k_out * u)
        return out if k_in is None else out - np.exp(-k_in * u)

    def evaluate(t):
        t_arr = np.asarray(t, dtype=float)
        events = schedule
        if events is None:
            count = n_doses
            if count is None:
                count = int(np.floor(t_arr.max() / r.interval)) + 1 if t_arr.size else 1
            events = [(k * r.interval, r.dose, None) for k in range(count)]
        # On sorted times each dose reaches a suffix; only that is computed.
        order = np.argsort(t_arr, axis=None, kind="stable")
        ts = t_arr.ravel()[order]
        total = np.zeros_like(ts)
        for t0, amount, window in events:
            first = np.searchsorted(ts, t0)
            u = ts[first:] - t0
            scale = weight * amount
            if window is None:
                total[first:] += scale * response(u)
                continue
            cut = np.searchsorted(u, window, side="right")
            total[first:first + cut] += scale * response(u[:cut])
            total[first + cut:] += (scale * response(window)
                                    * np.exp(-k_out * (u[cut:] - window)))
        out = np.empty_like(total)
        out[order] = total
        out = out.reshape(t_arr.shape)
        return out if out.shape else float(out)

    return evaluate
