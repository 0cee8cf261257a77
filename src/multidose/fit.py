"""Nonlinear least-squares estimation of (ka, ke, gamma) from one dose.

A damped Gauss-Newton iteration (Levenberg-Marquardt style) minimizes
the sum of squared prediction errors of the single-dose curve at the
observed times. Dose and volume are known and fixed. Positivity is
enforced by iterating in log-parameters; a step is accepted only if it
lowers the objective, so the objective is non-increasing across
accepted steps. Standard errors come from the usual sigma^2 (J'J)^-1
diagonal at the optimum, in the original parameter scale; a
rank-deficient J'J is reported, not treated as failure.

Fits that converge with ka < ke are reported as-is: flip-flop kinetics
are a legitimate outcome, and the curve determines the labeling only
through the gain factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    ConcentrationSeries,
    InsufficientData,
    NoConvergence,
    PkParams,
    ValidationError,
    validate_params,
)
from .bateman import absorption_gain, single_dose

MAX_ITERATIONS = 500
SSE_RTOL = 1e-10
GRADIENT_ATOL = 1e-8

#: Condition number of J'J beyond which the covariance is reported singular.
COVARIANCE_CONDITION_LIMIT = 1e12


@dataclass(frozen=True)
class FitResult:
    """Estimated parameters with fit quality and uncertainty.

    stderr holds per-parameter standard errors for (ka, ke, gamma) or
    None when the covariance was numerically singular, in which case
    covariance_status is "singular". sse_path records the objective
    after each accepted step (non-increasing by construction).
    """

    params: PkParams
    sse: float
    r2: float
    stderr: tuple[float, float, float] | None
    covariance_status: str
    n_points: int
    n_iterations: int
    sse_path: tuple[float, ...] = ()


class _Rates(NamedTuple):
    """(ka, ke, gamma, volume) for `absorption_gain` at each iterate:
    cheaper to build than a PkParams, and never validated."""

    ka: float
    ke: float
    gamma: float
    volume: float


def _curve_and_jacobian(p, t: np.ndarray, d: float
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Curve values and d x(t)/d(ka, ke, gamma) in the original scale."""
    amp = absorption_gain(p) * d
    ee = np.exp(-p.ke * t)
    ea = np.exp(-p.ka * t)
    x = amp * (ee - ea)
    dx_dka = -p.ke / (p.ka * (p.ka - p.ke)) * x + amp * t * ea
    dx_dke = x / (p.ka - p.ke) - amp * t * ee
    dx_dgamma = x / p.gamma
    return x, np.column_stack((dx_dka, dx_dke, dx_dgamma))


def curve_jacobian(p: PkParams, t: np.ndarray, d: float) -> np.ndarray:
    """Analytic d x(t)/d(ka, ke, gamma) in the original parameter scale."""
    return _curve_and_jacobian(p, t, d)[1]


def _model_and_jacobian(theta: np.ndarray, t: np.ndarray, d: float,
                        v: float) -> tuple[np.ndarray, np.ndarray]:
    """Curve values and d(model)/d(log-params) at log-params theta."""
    rates = np.exp(theta)
    x, jac = _curve_and_jacobian(_Rates(*rates, v), t, d)
    # d/d(log k) = k * d/dk, column by column.
    return x, jac * rates


def _initial_guess(t: np.ndarray, c: np.ndarray, d: float,
                   v: float) -> np.ndarray:
    """Standard heuristics: terminal slope for ke, then peak matching."""
    tail = slice(-3, None)
    tt, cc = t[tail], c[tail]
    positive = cc > 0.0
    ke = np.nan
    if positive.sum() >= 2:
        slope = np.polyfit(tt[positive], np.log(cc[positive]), 1)[0]
        if slope < 0.0:
            ke = -slope
    if not np.isfinite(ke) or ke <= 0.0:
        ke = 1.0 / max(t[-1], 1e-6)
    ka = 5.0 * ke
    ref = PkParams(ka=ka, ke=ke, gamma=1.0, volume=v)
    t_peak = math.log(ka / ke) / (ka - ke)
    unit_peak = single_dose(ref, d).x(t_peak)
    gamma = max(c.max(), 1e-12) / unit_peak if unit_peak > 0 else 1.0
    return np.log(np.array([ka, ke, gamma]))


def fit_single_dose(series: ConcentrationSeries, d: float, v: float,
                    init: PkParams | None = None) -> FitResult:
    """Least-squares fit of the single-dose curve to a sampled series."""
    if not (d > 0.0 and v > 0.0):
        raise ValidationError("dose and volume must be > 0")
    t = series.times_array()
    c = series.values_array()
    if len(t) < 4:
        raise InsufficientData(
            f"need at least 4 data points to fit 3 parameters, got {len(t)}"
        )

    if init is not None:
        validate_params(init)
        theta = np.log(np.array([init.ka, init.ke, init.gamma]))
    else:
        theta = _initial_guess(t, c, d, v)

    def objective(th: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        x, jac = _model_and_jacobian(th, t, d, v)
        residual = c - x
        return float(residual @ residual), residual, jac

    sse, residual, jac = objective(theta)
    sse_path = [sse]
    lam = 1e-3
    iterations = 0
    for iterations in range(1, MAX_ITERATIONS + 1):
        jtj = jac.T @ jac
        gradient = -2.0 * (jac.T @ residual)
        if np.linalg.norm(gradient) < GRADIENT_ATOL:
            break
        accepted = False
        for _ in range(40):
            damped = jtj + lam * np.diag(np.maximum(np.diag(jtj), 1e-30))
            try:
                step = np.linalg.solve(damped, jac.T @ residual)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            trial = theta + step
            trial_sse, trial_residual, trial_jac = objective(trial)
            if np.isfinite(trial_sse) and trial_sse <= sse:
                accepted = True
                break
            lam *= 10.0
        if not accepted:
            break
        improvement = sse - trial_sse
        theta, residual, jac = trial, trial_residual, trial_jac
        sse_prev, sse = sse, trial_sse
        sse_path.append(sse)
        lam = max(lam * 0.3, 1e-12)
        if improvement <= SSE_RTOL * max(sse_prev, 1e-300):
            break
    else:
        raise NoConvergence(
            "iteration limit reached before convergence",
            sse=sse, params=tuple(np.exp(theta)), iterations=MAX_ITERATIONS,
        )

    ka, ke, gamma = (float(x) for x in np.exp(theta))
    fitted = PkParams(ka=ka, ke=ke, gamma=gamma, volume=v)
    try:
        validate_params(fitted)
    except ValidationError as exc:
        raise NoConvergence(
            f"optimizer converged to an invalid parameter vector: {exc}",
            params=(ka, ke, gamma), sse=sse,
        ) from exc

    stderr, status = _standard_errors(fitted, t, d, sse, len(t))
    mean = c.mean()
    tss = float(((c - mean) ** 2).sum())
    r2 = 1.0 - sse / tss if tss > 0.0 else (1.0 if sse == 0.0 else 0.0)
    return FitResult(params=fitted, sse=sse, r2=r2, stderr=stderr,
                     covariance_status=status, n_points=len(t),
                     n_iterations=iterations, sse_path=tuple(sse_path))


def _standard_errors(p: PkParams, t: np.ndarray, d: float, sse: float,
                     m: int) -> tuple[tuple[float, float, float] | None, str]:
    jac = curve_jacobian(p, t, d)
    jtj = jac.T @ jac
    if not np.all(np.isfinite(jtj)) or np.linalg.cond(jtj) > COVARIANCE_CONDITION_LIMIT:
        return None, "singular"
    dof = max(m - 3, 1)
    sigma2 = sse / dof
    cov = sigma2 * np.linalg.inv(jtj)
    diag = np.diag(cov)
    if np.any(diag < 0.0):
        return None, "singular"
    se = np.sqrt(diag)
    return (float(se[0]), float(se[1]), float(se[2])), "ok"


def predict(times, fitted: FitResult, d: float, v: float) -> ConcentrationSeries:
    """Model curve of a fit sampled at the given times."""
    p = fitted.params
    if v != p.volume:
        p = PkParams(ka=p.ka, ke=p.ke, gamma=p.gamma, volume=v)
    curve = single_dose(p, d)
    t = np.asarray(times, dtype=float)
    return ConcentrationSeries(t.tolist(), np.maximum(curve.x(t), 0.0).tolist())
