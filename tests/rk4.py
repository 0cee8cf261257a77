"""Fixed-step RK4 reference for the oral closed form, test plumbing only.

Integrates the absorption-elimination system y' = -ka*y, x' = q*y - ke*x
with impulsive gut refills at dose times, restarting at every impulse so
no step straddles one. Independent of the closed forms and of the
superposition oracle in `multidose.oracle`.
"""

from dataclasses import dataclass

import numpy as np

from multidose.core import (EquiDose, PkParams, Regimen, ValidationError, dose_times,
                            validate_params, validate_positive, validate_regimen)


class StepTooLarge(ValidationError):
    """Integrator step too coarse for the dosing schedule."""


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
