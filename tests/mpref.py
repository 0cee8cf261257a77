"""60-digit mpmath references for the closed forms, one for each, and
the inputs they are checked on.

Every reference takes the float inputs at their exact binary values and
evaluates the textbook formula directly, subtractions and powers
included: at 60 digits the cancellation that the library must avoid
costs nothing.
"""

import mpmath
import numpy as np

from multidose.core import PkParams

DIGITS = 60

#: Rate separations ka/ke - 1 down to just above RATE_EQUALITY_RTOL.
SEPARATIONS = [1e-1, 1e-3, 1e-5, 1e-7, 1e-8, 2e-9]
#: Both orientations of each separation, at three elimination rates.
NEAR_EQUAL = [PkParams(*((ke, ka) if flip else (ka, ke)), 1.7, 300.0)
              for delta in SEPARATIONS for flip in (False, True)
              for ke in (0.05, 0.3, 2.0) for ka in [ke * (1.0 + delta)]]
#: Well-separated rates, ka/ke from 1e-4 to 1e4.
SPREAD = [PkParams(ke * r, ke, 1.7, 300.0)
          for r in (1e-4, 1e-2, 0.25, 4.0, 100.0, 1e4) for ke in (0.05, 0.3, 2.0)]
#: Intervals (hours) from far below any dosing practice to a month.
TAUS = np.geomspace(1e-9, 30.0, 25)


def _mp(*values):
    return [mpmath.mpf(v) for v in values]


def _gain(p, d):
    """ka, ke and the dose gain ka*gamma*d / (V*(ka - ke)), as mpf."""
    ka, ke = _mp(p.ka, p.ke)
    return ka, ke, ka * mpmath.mpf(p.gamma) * mpmath.mpf(d) / (mpmath.mpf(p.volume) * (ka - ke))


def mp_decay_difference(ka, ke, t):
    """(e^{-ke t} - e^{-ka t}) / (ka - ke)."""
    with mpmath.workdps(DIGITS):
        ka, ke, t = _mp(ka, ke, t)
        return (mpmath.exp(-ke * t) - mpmath.exp(-ka * t)) / (ka - ke)


def mp_bounds(p, d, tau):
    """ss_lower and ss_upper."""
    with mpmath.workdps(DIGITS):
        ka, ke, g = _gain(p, d)
        t = mpmath.mpf(tau)
        za, zb = 1 - mpmath.exp(-ka * t), 1 - mpmath.exp(-ke * t)
        r = ka * zb / (ke * za)
        lower = g * (mpmath.exp(-ke * t) / zb - mpmath.exp(-ka * t) / za)
        upper = g * (r ** (-ke / (ka - ke)) / zb - r ** (-ka / (ka - ke)) / za)
        return lower, upper


def mp_width_limit(p, d):
    """The single-dose peak, at s = log(ka/ke)/(ka - ke)."""
    with mpmath.workdps(DIGITS):
        ka, ke, g = _gain(p, d)
        s = mpmath.log(ka / ke) / (ka - ke)
        return g * (mpmath.exp(-ke * s) - mpmath.exp(-ka * s))


def mp_bolus_limit(ke, delta, tau):
    """bolus_equi_remainder_limit."""
    with mpmath.workdps(DIGITS):
        beta = mpmath.exp(-mpmath.mpf(ke) * mpmath.mpf(tau))
        return mpmath.mpf(delta) * beta / (1 - beta)


def mp_fat_limits(p, d, tau, offset):
    """fat_equi_limits: the cutoff and end-of-cycle limits."""
    with mpmath.workdps(DIGITS):
        ka, ke, g = _gain(p, d)
        t, s = _mp(tau, offset)
        cutoff = g * (mpmath.exp(-ke * s) - mpmath.exp(-ka * s)) / (1 - mpmath.exp(-ke * t))
        return cutoff, cutoff * mpmath.exp(-ke * (t - s))


def mp_equi_coefficients(p, d, tau, n):
    """c1, c2 and y_start of cycle n of d every tau: geometric sums."""
    with mpmath.workdps(DIGITS):
        ka, ke, g = _gain(p, d)
        t = mpmath.mpf(tau)
        alpha, beta = mpmath.exp(-ka * t), mpmath.exp(-ke * t)
        geo_a, geo_b = (1 - alpha ** n) / (1 - alpha), (1 - beta ** n) / (1 - beta)
        return g * geo_b, g * geo_a, mpmath.mpf(d) * geo_a


def mp_auc_cycle(p, d, tau, n):
    """Area under cycle n of d every tau."""
    with mpmath.workdps(DIGITS):
        ka, ke, g = _gain(p, d)
        t = mpmath.mpf(tau)
        return g * ((1 - mpmath.exp(-n * ke * t)) / ke - (1 - mpmath.exp(-n * ka * t)) / ka)
