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

import numpy as np

from .core import (
    ConcentrationSeries,
    InsufficientData,
    NoConvergence,
    PkParams,
    ValidationError,
    validate_params,
    validate_positive,
    validate_times,
)
from .bateman import _decay_differences, single_dose

MAX_ITERATIONS = 500
SSE_RTOL = 1e-10

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


#: Index of the diagonals of a stack of 3 x 3 matrices.
_DIAG = (slice(None), range(3), range(3))


def _curve_and_jacobian(p, t: np.ndarray, d: float) -> tuple[np.ndarray, np.ndarray]:
    """Curve values and d x(t)/d(ka, ke, gamma) in the original scale, (m,) and
    (m, 3) for scalar rates, (R, m) and (R, m, 3) for (R, 1) rate columns: x is
    q*d*E as in `single_dose`, the rate columns E's second differences, and dx/dka
    reads e^{-ka t} where ka is faster, as x/ka + q*d*dE/dka cancels there."""
    c = p.gamma * d / p.volume
    e, slow, fast = _decay_differences(p.ka, p.ke, t)
    x = p.ka * p.gamma / p.volume * d * e
    dx_dka = c * np.where(p.ka > p.ke, t * np.exp(-p.ka * t) - p.ke * fast, e - p.ka * slow)
    dx_dke = -c * p.ka * np.where(p.ka > p.ke, slow, fast)
    return x, np.stack((dx_dka, dx_dke, x / p.gamma), axis=-1)


def _model_and_jacobian(theta: np.ndarray, t: np.ndarray, d: float,
                        v: float) -> tuple[np.ndarray, np.ndarray]:
    """Curves (R, m) and d(model)/d(log-params) (R, m, 3) at theta (R, 3)."""
    rates = np.exp(theta)
    x, jac = _curve_and_jacobian(PkParams(*rates.T[:, :, None], v), t, d)
    # d/d(log k) = k * d/dk, column by column.
    return x, jac * rates[:, None, :]


def _sum_squares(r: np.ndarray) -> np.ndarray:
    """r @ r for each row of r (R, n)."""
    return (r[:, None, :] @ r[:, :, None])[:, 0, 0]


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Steps (R, 3) from systems a (R, 3, 3), b (R, 3, 1); NaN where a is
    singular, as one singular matrix makes numpy fail the whole stack."""
    try:
        return np.linalg.solve(a, b)[..., 0]
    except np.linalg.LinAlgError:
        if len(a) == 1:
            return np.full((1, 3), np.nan)
        return np.concatenate([_solve(a[i:i + 1], b[i:i + 1]) for i in range(len(a))])


def _initial_guess(t: np.ndarray, c: np.ndarray, d: float,
                   v: float) -> np.ndarray:
    """Standard heuristics for each row of c (R, m), as log-params (R, 3):
    terminal slope for ke, then peak matching. One polyfit per sign pattern
    of the last three samples gives each row the guess it gets alone."""
    tail = t[-3:]
    positive = c[:, -3:] > 0.0
    logs = np.log(np.where(positive, c[:, -3:], 1.0))
    ke = np.full(len(c), 1.0 / max(t[-1], 1e-6))
    pattern = positive @ [1, 2, 4]
    for code in set(pattern.tolist()):
        key = [bool(code & bit) for bit in (1, 2, 4)]
        if sum(key) < 2:
            continue
        x = tail[key]
        if not (x * x).any():
            # polyfit scales its columns by sqrt(sum t^2), which is then 0.
            raise ValidationError(f"sample times {x.tolist()} are too close to 0 "
                                  "for a terminal slope: their squares underflow")
        rows = pattern == code
        slope = np.polyfit(x, logs[rows][:, key].T, 1)[0]
        ke[rows] = np.where(slope < 0.0, -slope, ke[rows])
    ka = 5.0 * ke
    for i in np.flatnonzero(~((0.0 < ka) & (ka < math.inf))):
        validate_params(PkParams(ka=ka[i], ke=ke[i], gamma=1.0, volume=v))
    # ka = 5*ke: the unit curve peaks at log(5)/(4*ke), at (d/V)*5^(-1/4).
    unit_peak = d / v * 5.0 ** -0.25
    peak = c.max(axis=1) / unit_peak if unit_peak > 0 else np.zeros(len(c))
    gamma = np.where(peak > 0.0, peak, 1.0)
    return np.log(np.stack((ka, ke, gamma), axis=1))


def fit_single_dose(series: ConcentrationSeries, d: float, v: float,
                    init: PkParams | None = None) -> FitResult:
    """Least-squares fit of the single-dose curve to a sampled series."""
    result, = fit_batch(series.times_array(), series.values_array()[None, :], d, v, init)
    if isinstance(result, NoConvergence):
        raise result
    return result


def fit_batch(times, values, d: float, v: float, init: PkParams | None = None
              ) -> list[FitResult | NoConvergence]:
    """Fit every row of `values` (R, m), sampled at `times` (m,), at once.

    One Levenberg-Marquardt iteration over the rows, each with its own
    damping, steps, stopping rule and iteration count. Each row gets what
    it gets when fitted alone, bit for bit (every reduction is a stacked
    matmul, which calls the BLAS routine one row's product calls): its
    FitResult, or the NoConvergence `fit_single_dose` raises for it. A
    failing row never stops the others; bad d, v, init, shapes or times
    (`ConcentrationSeries`'s rule) raise.
    """
    validate_positive("dose", d)
    validate_positive("volume", v)
    t = np.asarray(times, dtype=float)
    validate_times(t.tolist())
    c = np.atleast_2d(np.asarray(values, dtype=float))
    if len(t) < 4:
        raise InsufficientData(
            f"need at least 4 data points to fit 3 parameters, got {len(t)}"
        )
    if c.shape[1] != len(t):
        raise ValidationError(f"{c.shape[1]} values per row for {len(t)} times")
    if init is not None:
        validate_params(init)
        theta = np.tile(np.log(np.array([init.ka, init.ke, init.gamma])), (len(c), 1))
    else:
        theta = _initial_guess(t, c, d, v)

    # A trial step can underflow exp(theta) to a zero rate: a zero curve and
    # a NaN Jacobian. Such a step is rejected unless it lowers the SSE, and a
    # zero rate that is kept fails validate_params below, so the numpy
    # warnings it raises tell nothing the fit does not report.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x, jac = _model_and_jacobian(theta, t, d, v)
        residual = c - x
        sse = _sum_squares(residual)
        sse_paths = [[s] for s in sse.tolist()]
        lam = np.full(len(c), 1e-3)
        iterations = np.zeros(len(c), dtype=int)
        running = np.ones(len(c), dtype=bool)
        for k in range(1, MAX_ITERATIONS + 1):
            rows = np.flatnonzero(running)
            if not rows.size:
                break
            iterations[rows] = k
            jac_k = jac[rows]
            jtj = jac_k.transpose(0, 2, 1) @ jac_k
            jtr = jac_k.transpose(0, 2, 1) @ residual[rows, :, None]
            scale = np.zeros_like(jtj)
            scale[_DIAG] = np.where(jtj[_DIAG] == 0.0, 1.0, jtj[_DIAG])
            for _ in range(40):
                if not rows.size:
                    break
                trial = theta[rows] + _solve(jtj + lam[rows, None, None] * scale, jtr)
                trial_x, trial_jac = _model_and_jacobian(trial, t, d, v)
                trial_residual = c[rows] - trial_x
                trial_sse = _sum_squares(trial_residual)
                ok = np.isfinite(trial_sse) & (trial_sse <= sse[rows])
                lam[rows[~ok]] *= 10.0
                won = rows[ok]
                gain = sse[won] - trial_sse[ok]
                running[won[gain <= SSE_RTOL * sse[won]]] = False
                theta[won], sse[won] = trial[ok], trial_sse[ok]
                residual[won], jac[won] = trial_residual[ok], trial_jac[ok]
                lam[won] = np.maximum(lam[won] * 0.3, 1e-12)
                for i, s in zip(won.tolist(), trial_sse[ok].tolist()):
                    sse_paths[i].append(s)
                rows, jtj, jtr, scale = rows[~ok], jtj[~ok], jtr[~ok], scale[~ok]
            # No step accepted in 40 trials: these rows stop where they are.
            running[rows] = False
        rates = np.exp(theta)
        stderr = _standard_errors(jac / rates[:, None, :], sse)

    tss = ((c - c.mean(axis=1)[:, None]) ** 2).sum(axis=1).tolist()
    results: list[FitResult | NoConvergence] = []
    for i, ((ka, ke, gamma), fit_sse) in enumerate(zip(rates.tolist(), sse.tolist())):
        if running[i]:
            results.append(NoConvergence(
                "iteration limit reached before convergence",
                sse=fit_sse, params=tuple(rates[i]), iterations=MAX_ITERATIONS,
            ))
            continue
        fitted = PkParams(ka=ka, ke=ke, gamma=gamma, volume=v)
        try:
            validate_params(fitted)
        except ValidationError as exc:
            results.append(NoConvergence(
                f"optimizer converged to an invalid parameter vector: {exc}",
                params=(ka, ke, gamma), sse=fit_sse,
            ))
            results[-1].__cause__ = exc
            continue
        r2 = (1.0 - fit_sse / tss[i] if tss[i] > 0.0
              else (1.0 if fit_sse == 0.0 else 0.0))
        results.append(FitResult(
            params=fitted, sse=fit_sse, r2=r2, stderr=stderr[i],
            covariance_status="singular" if stderr[i] is None else "ok",
            n_points=len(t), n_iterations=int(iterations[i]),
            sse_path=tuple(sse_paths[i])))
    return results


def _standard_errors(jac: np.ndarray, sse: np.ndarray) -> list[tuple[float, float, float] | None]:
    """sqrt(diag(sigma^2 (J'J)^-1)) for each row's Jacobian jac (R, m, 3), or None where J'J
    is not finite, too ill-conditioned at unit diagonal (no unit changes it) or not positive."""
    jtj = jac.transpose(0, 2, 1) @ jac
    norms = np.sqrt(np.diagonal(jtj, axis1=1, axis2=2))
    ok = np.all(np.isfinite(jtj), axis=(1, 2)) & np.all(norms > 0.0, axis=1)
    unit = jtj[ok] / norms[ok, :, None] / norms[ok, None, :]
    ok[ok] = ~(np.linalg.cond(unit) > COVARIANCE_CONDITION_LIMIT)
    diag = np.full((len(jtj), 3), np.nan)
    sigma2 = sse[ok] / max(jac.shape[1] - 3, 1)
    diag[ok] = (sigma2[:, None, None] * np.linalg.inv(jtj[ok]))[_DIAG]
    ok &= ~np.any(diag < 0.0, axis=1)
    diag[~ok] = np.nan
    return [tuple(se) if good else None
            for se, good in zip(np.sqrt(diag).tolist(), ok.tolist())]


def predict(times, fitted: FitResult, d: float, v: float) -> ConcentrationSeries:
    """Model curve of a fit sampled at the given times."""
    p = fitted.params
    if v != p.volume:
        p = PkParams(ka=p.ka, ke=p.ke, gamma=p.gamma, volume=v)
    curve = single_dose(p, d)
    t = np.asarray(times, dtype=float)
    return ConcentrationSeries(t.tolist(), np.maximum(curve.x(t), 0.0).tolist())
