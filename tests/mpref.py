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
#: Intervals (hours) for the forms read from a piece's state: from 7 s,
#: where the constant-interval state and the area stop cancelling (see
#: SHORT_TAUS), to a month.
PIECE_TAUS = np.geomspace(2e-3, 30.0, 10).tolist()
#: Intervals (hours) below PIECE_TAUS, the known short-interval gap.
SHORT_TAUS = [1e-6, 1e-5, 1e-4]
#: A schedule of (dose, interval / tau) entries for those forms.
SCHEDULE = [(100.0, 1.0), (50.0, 2.0), (200.0, 0.5), (80.0, 1.0), (120.0, 3.0)]


def piece_bound(p, elapsed):
    """Relative error allowed for a form read from a piece's state: 1e-14,
    plus 2^-52*(ka + ke)*elapsed, the conditioning of the exponentials in
    their rounded arguments."""
    return 1e-14 + 2.0 ** -52 * (p.ka + p.ke) * elapsed


def short_bound(p, tau):
    """piece_bound plus 2^-60/(max(ka, ke)*tau): the constant-interval state
    and the area cancel by about 1/(max(ka, ke)*tau) at short intervals,
    in extended precision."""
    return piece_bound(p, tau) + 2.0 ** -60 / (max(p.ka, p.ke) * tau)


def absorption_gain(p):
    """ka*gamma / (V*(ka - ke)) in float64: the textbook curve's gain."""
    return p.ka * p.gamma / (p.volume * (p.ka - p.ke))


def rel(value, reference):
    """|value - reference| / |reference|, absolute below 1e-300 (underflow)."""
    return float(abs(mpmath.mpf(value) - reference) / max(abs(reference), mpmath.mpf(1e-300)))


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


def mp_curve_jacobian(p, d, t):
    """The single-dose x = ka*gamma*d*E(t)/V and its derivatives in ka, ke and
    gamma, E = (e^{-ke t} - e^{-ka t})/(ka - ke)."""
    with mpmath.workdps(DIGITS):
        ka, ke, t = _mp(p.ka, p.ke, t)
        c = mpmath.mpf(p.gamma) * mpmath.mpf(d) / mpmath.mpf(p.volume)
        ea, eb = mpmath.exp(-ka * t), mpmath.exp(-ke * t)
        e = (eb - ea) / (ka - ke)
        x = c * ka * e
        dx_dka = c * (e + ka * (t * ea - e) / (ka - ke))
        dx_dke = c * ka * (e - t * eb) / (ka - ke)
        return x, dx_dka, dx_dke, x / mpmath.mpf(p.gamma)


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


def mp_bolus_state(ke, delta, tau, n):
    """x right after dose n of delta every tau: delta*(1 - beta^n)/(1 - beta)."""
    with mpmath.workdps(DIGITS):
        beta = mpmath.exp(-mpmath.mpf(ke) * mpmath.mpf(tau))
        return mpmath.mpf(delta) * (1 - beta ** n) / (1 - beta)


def mp_fat_cutoff(p, d, tau, window, n):
    """x at the absorption cutoff of cycle n of d every tau, absorbing for
    `window`: the single-dose cutoff times (1 - beta^n)/(1 - beta)."""
    with mpmath.workdps(DIGITS):
        ka, ke, g = _gain(p, d)
        t, w = _mp(tau, window)
        beta = mpmath.exp(-ke * t)
        return g * (mpmath.exp(-ke * w) - mpmath.exp(-ka * w)) * (1 - beta ** n) / (1 - beta)


def mp_auc_cycle(p, d, tau, n):
    """Area under cycle n of d every tau."""
    with mpmath.workdps(DIGITS):
        ka, ke, g = _gain(p, d)
        t = mpmath.mpf(tau)
        return g * ((1 - mpmath.exp(-n * ke * t)) / ke - (1 - mpmath.exp(-n * ka * t)) / ka)


def _rates(p):
    """ka, ke and q = ka*gamma/V, as mpf."""
    ka, ke = _mp(p.ka, p.ke)
    return ka, ke, ka * mpmath.mpf(p.gamma) / mpmath.mpf(p.volume)


def mp_piece(p, x0, y0, s):
    """(x, y) s hours into the piece entering at (x0, y0)."""
    with mpmath.workdps(DIGITS):
        ka, ke, q = _rates(p)
        s = mpmath.mpf(s)
        e = (mpmath.exp(-ke * s) - mpmath.exp(-ka * s)) / (ka - ke)
        return x0 * mpmath.exp(-ke * s) + q * y0 * e, y0 * mpmath.exp(-ka * s)


def mp_dose_sum(p, doses, starts, t):
    """x at t of oral doses given at the float times `starts`: each started
    dose's q*d*E(t - start), summed."""
    with mpmath.workdps(DIGITS):
        ka, ke, q = _rates(p)
        total = mpmath.mpf(0)
        for d, start in zip(doses, starts):
            u = mpmath.mpf(t) - mpmath.mpf(start)
            if u >= 0:
                e = (mpmath.exp(-ke * u) - mpmath.exp(-ka * u)) / (ka - ke)
                total += q * mpmath.mpf(d) * e
        return total


def mp_equi_state(p, d, tau, n):
    """(x, y) entering cycle n of d every tau: geometric sums of the doses'
    e^{-ke t} and e^{-ka t} terms."""
    with mpmath.workdps(DIGITS):
        ka, ke, g = _gain(p, d)
        t = mpmath.mpf(tau)
        alpha, beta = mpmath.exp(-ka * t), mpmath.exp(-ke * t)
        geo_a, geo_b = (1 - alpha ** n) / (1 - alpha), (1 - beta ** n) / (1 - beta)
        return g * geo_b - g * geo_a, mpmath.mpf(d) * geo_a


def mp_table_states(p, entries):
    """(x, y) entering each cycle of (dose, interval) entries: the remainder
    recursion."""
    with mpmath.workdps(DIGITS):
        states, x, y = [], mpmath.mpf(0), mpmath.mpf(0)
        for d, tau in entries:
            states.append((x, y + mpmath.mpf(d)))
            x, y = mp_piece(p, x, y + mpmath.mpf(d), tau)
        return states


def _turn(p, x0, y0):
    """Where x turns, ka*q*y0*e^{-ka s} = ke*((ka - ke)*x0 + q*y0)*e^{-ke s};
    -inf where it never does."""
    ka, ke, q = _rates(p)
    ratio = ka * q * y0 / (ke * ((ka - ke) * x0 + q * y0)) if y0 else mpmath.mpf(-1)
    return mpmath.log(ratio) / (ka - ke) if ratio > 0 else -mpmath.inf


def mp_peak(p, x0, y0, tau):
    """(s, x): the turning point clipped to [0, tau], and x there."""
    with mpmath.workdps(DIGITS):
        s = min(max(_turn(p, x0, y0), mpmath.mpf(0)), mpmath.mpf(tau))
        return s, mp_piece(p, x0, y0, s)[0]


def mp_area(p, x0, y0, tau):
    """Integral of x over the first tau hours of the piece entering at (x0, y0)."""
    with mpmath.workdps(DIGITS):
        ka, ke, q = _rates(p)
        zb, za = 1 - mpmath.exp(-ke * mpmath.mpf(tau)), 1 - mpmath.exp(-ka * mpmath.mpf(tau))
        return x0 * zb / ke + q * y0 * (zb / ke - za / ka) / (ka - ke)


def mp_gap(p, x0, y0, tau):
    """Sup of |x| over the first tau hours of the piece entering at (x0, y0),
    states of any sign: both ends and the turning point if inside."""
    with mpmath.workdps(DIGITS):
        s = min(max(_turn(p, x0, y0), mpmath.mpf(0)), mpmath.mpf(tau))
        return max(abs(mp_piece(p, x0, y0, t)[0]) for t in (0, s, tau))


def mp_auc_single(p, d):
    """gamma*d/(V*ke)."""
    with mpmath.workdps(DIGITS):
        return mpmath.mpf(p.gamma) * mpmath.mpf(d) / (mpmath.mpf(p.volume) * mpmath.mpf(p.ke))


def mp_equi_gap(p, d, tau, n):
    """periodicity_gap of cycle n of d every tau: the cycle difference
    telescopes to the first dose's response, q*d*E(t), whose sup over
    [(n-1)tau, n*tau] is at its peak time log(ka/ke)/(ka - ke), clipped."""
    with mpmath.workdps(DIGITS):
        ka, ke, q = _rates(p)
        t = mpmath.log(ka / ke) / (ka - ke)
        t = min(max(t, (n - 1) * mpmath.mpf(tau)), n * mpmath.mpf(tau))
        return q * mpmath.mpf(d) * (mpmath.exp(-ke * t) - mpmath.exp(-ka * t)) / (ka - ke)
