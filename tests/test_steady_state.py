import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import simpson

from multidose.core import Arbitrary, PkError, PkParams, ValidationError
from multidose.bateman import arbitrary_multidose, equi_multidose
from multidose.dosing import f_ratio, f_ratio_excess
from multidose.extmodels import BolusRegimen, FatRegimen, bolus_multidose, fat_multidose
from multidose.pkmetrics import auc_single, cycle_metrics, peak
from multidose.steady_state import (
    auc_equality_check,
    gap_envelope,
    n_epsilon,
    periodicity_gap,
    ss_lower,
    ss_upper,
    summarize,
    width,
    width_limit,
)

from mpref import (DIGITS, NEAR_EQUAL, PIECE_TAUS, SCHEDULE, SPREAD, TAUS, absorption_gain,
                   mp_bounds, mp_equi_gap, mp_gap, mp_table_states, mp_width_limit, piece_bound,
                   rel)

PARAM_SETS = [
    PkParams(1.0, 0.1, 1.0, 1.0),
    PkParams(0.7480, 0.2031, 19.1933, 5000.0),
    PkParams(0.4, 1.6, 2.0, 250.0),  # flip-flop
]

# Flip-flop regimen whose cycle increments underflow: at cycle 397 ke*dc1
# rounds to 0 while dc1 does not.
UNDERFLOW = (PkParams(0.00403841574832288, 0.41772963543151187,
                      0.5603865033489327, 151.95165233930004),
             622.8616103053552, 4.479712767430023, 3.0640370820196855e-10)

#: Separated, near-equal and flip-flop rates for the table gap tests.
TABLE_RATES = [PARAM_SETS[0], PkParams(0.3 * (1.0 + 1e-8), 0.3, 1.7, 300.0), PARAM_SETS[2]]
#: A 60-entry schedule mixing doses and intervals.
MIXED_TABLE = [(d, 3.0 * k) for d, k in SCHEDULE] * 12

#: Intervals whose products underflow, vanish against 1 or overflow.
EXTREME_TAUS = [5e-324, 1e-320, 1e-300, 1e300, 1.7e308]


def scan_reference(p, d, tau, eps):
    """n_epsilon by the cycle-by-cycle scan: each equi gap on a
    10,000-point grid plus its interior extremum (skipped where ke*dc1
    underflows to 0), until the envelope drops below eps."""
    g = absorption_gain(p) * d
    alpha, beta = math.exp(-p.ka * tau), math.exp(-p.ke * tau)
    s = np.linspace(0.0, tau, 10_000)
    e_ke, e_ka = np.exp(-p.ke * s), np.exp(-p.ka * s)
    n, candidate = 2, None
    while gap_envelope(p, d, tau, n) >= eps:
        dc1, dc2 = g * beta ** (n - 1), g * alpha ** (n - 1)
        gap = float(np.abs(dc1 * e_ke - dc2 * e_ka).max())
        num, den = p.ka * dc2, p.ke * dc1
        if den != 0.0 and num / den > 0.0:
            s_star = math.log(num / den) / (p.ka - p.ke)
            if 0.0 < s_star < tau:
                gap = max(gap, abs(dc1 * math.exp(-p.ke * s_star)
                                   - dc2 * math.exp(-p.ka * s_star)))
        if gap >= eps:
            candidate = None
        elif candidate is None:
            candidate = n
        n += 1
    return candidate if candidate is not None else n


def reference_cases(count):
    """Seeded (p, d, tau, eps) cases: ka > ke and flip-flop, ka/ke - 1
    down to 1e-3, tau 0.1-30 h, eps 1e-12-1, keeping those whose scan
    stops within 2,000 cycles so that the reference stays fast."""
    rng = np.random.default_rng(20261018)
    cases = []
    while len(cases) < count:
        ke = 10 ** rng.uniform(-2.0, 0.5)
        if rng.uniform() < 0.3:
            ratio = 1.0 + 10 ** rng.uniform(-3.0, -1.0)
        else:
            ratio = 10 ** rng.uniform(0.05, 1.5)
        ka = ke * ratio
        if rng.uniform() < 0.5:
            ka, ke = ke, ka
        p = PkParams(ka, ke, rng.uniform(0.2, 5.0), 10 ** rng.uniform(0.0, 3.7))
        d, tau = rng.uniform(10.0, 1000.0), 10 ** rng.uniform(-1.0, math.log10(30.0))
        eps = 10 ** rng.uniform(-12.0, 0.0)
        if gap_envelope(p, d, tau, 2_000) < eps:
            cases.append((p, d, tau, eps))
    return cases


class TestBounds:
    def test_lower_is_remainder_limit(self, canonical):
        sol = equi_multidose(canonical, 100.0, 6.0)
        limit = ss_lower(canonical, 100.0, 6.0)
        assert limit == pytest.approx(134.87603372266955, rel=1e-13)
        assert abs(sol.remainders(200)[0] - limit) <= 1e-9 * limit

    def test_upper_is_peak_limit(self, canonical):
        limit = ss_upper(canonical, 100.0, 6.0)
        assert limit == pytest.approx(187.41999262256405, rel=1e-13)
        assert abs(peak(canonical, 100.0, 6.0, 200).x_max - limit) <= 1e-9 * limit

    def test_long_interval_limits(self, canonical):
        assert ss_lower(canonical, 100.0, 1e6) == 0.0
        assert ss_upper(canonical, 100.0, 1e6) == pytest.approx(
            peak(canonical, 100.0, 1e6, 1).x_max, rel=1e-12)

    def test_linear_in_dose(self, canonical):
        assert ss_lower(canonical, 200.0, 6.0) == pytest.approx(
            2.0 * ss_lower(canonical, 100.0, 6.0), rel=1e-14)
        assert ss_upper(canonical, 200.0, 6.0) == pytest.approx(
            2.0 * ss_upper(canonical, 100.0, 6.0), rel=1e-14)

    def test_upper_exceeds_lower_randomized(self):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            ka, ke = rng.uniform(0.05, 3.0, 2)
            if abs(ka - ke) < 1e-3 * max(ka, ke):
                continue
            p = PkParams(ka, ke, rng.uniform(0.2, 5.0), rng.uniform(1.0, 5000.0))
            d = rng.uniform(10.0, 1000.0)
            tau = rng.uniform(0.5, 48.0)
            lo, hi = ss_lower(p, d, tau), ss_upper(p, d, tau)
            assert 0.0 < lo < hi

    @pytest.mark.parametrize("p", PARAM_SETS, ids=["normal", "fitted", "flipflop"])
    def test_monotone_in_dose_and_interval(self, p):
        taus = np.linspace(2.0, 40.0, 20)
        lows = [ss_lower(p, 100.0, t) for t in taus]
        highs = [ss_upper(p, 100.0, t) for t in taus]
        assert all(b < a for a, b in zip(lows, lows[1:]))
        assert all(b < a for a, b in zip(highs, highs[1:]))
        doses = np.linspace(50.0, 500.0, 20)
        assert all(ss_lower(p, b, 8.0) > ss_lower(p, a, 8.0)
                   for a, b in zip(doses, doses[1:]))
        assert all(ss_upper(p, b, 8.0) > ss_upper(p, a, 8.0)
                   for a, b in zip(doses, doses[1:]))


class TestHighPrecisionReference:
    @pytest.mark.parametrize("delta", [1e-1, 1e-3, 1e-5, 1e-8])
    @pytest.mark.parametrize("flip", [False, True], ids=["normal", "flipflop"])
    def test_bounds_against_mpmath(self, delta, flip):
        # Both bounds run through decay_difference and log1p, so neither
        # loses accuracy as ka -> ke.
        upper_rtol = 1e-14
        for ke in (0.05, 0.3, 2.0):
            ka = ke * (1.0 + delta)
            p = PkParams(*((ke, ka) if flip else (ka, ke)), 1.7, 300.0)
            for tau in np.geomspace(1e-3, 30.0, 15):
                lower, upper = mp_bounds(p, 100.0, tau)
                assert abs(ss_lower(p, 100.0, tau) - lower) <= 1e-14 * lower, tau
                assert abs(ss_upper(p, 100.0, tau) - upper) <= upper_rtol * upper, tau

    @pytest.mark.parametrize("p", NEAR_EQUAL + SPREAD, ids=repr)
    def test_bounds_within_2e_15(self, p):
        for tau in TAUS:
            lower, upper = mp_bounds(p, 100.0, tau)
            assert abs(ss_lower(p, 100.0, tau) - lower) <= 2e-15 * lower, tau
            assert abs(ss_upper(p, 100.0, tau) - upper) <= 2e-15 * upper, tau

    @pytest.mark.parametrize("p", NEAR_EQUAL + SPREAD, ids=repr)
    def test_width_limit_within_2e_15(self, p):
        reference = mp_width_limit(p, 100.0)
        assert abs(width_limit(p, 100.0) - reference) <= 2e-15 * reference

    @pytest.mark.parametrize("p", PARAM_SETS[::2], ids=["canonical", "flipflop"])
    @pytest.mark.parametrize("tau", EXTREME_TAUS)
    def test_extreme_intervals_give_a_number_or_a_typed_error(self, p, tau):
        # IEEE overflow to inf and underflow to 0 are answers; NaN is not.
        for f in (lambda: ss_lower(p, 100.0, tau), lambda: ss_upper(p, 100.0, tau),
                  lambda: f_ratio(p, tau), lambda: f_ratio_excess(p, tau)):
            try:
                value = f()
            except PkError:
                continue
            assert isinstance(value, float) and not math.isnan(value)


class TestWidth:
    def test_linear_in_dose(self, canonical):
        assert width(canonical, 200.0, 6.0) == pytest.approx(
            2.0 * width(canonical, 100.0, 6.0), rel=1e-13)

    @pytest.mark.parametrize("p", PARAM_SETS, ids=["normal", "fitted", "flipflop"])
    def test_increasing_in_interval(self, p):
        taus = np.linspace(1.0, 40.0, 20)
        values = [width(p, 100.0, t) for t in taus]
        assert all(b > a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("tau", [1e-9, 1e-6])
    def test_short_interval_against_mpmath(self, canonical, tau):
        # The trough times the excess: no peak - trough left to cancel.
        with mpmath.workdps(DIGITS):
            lower, upper = mp_bounds(canonical, 100.0, tau)
            assert rel(width(canonical, 100.0, tau), upper - lower) <= 1e-14

    def test_long_interval_limit(self, canonical):
        assert width(canonical, 100.0, 1e6) == pytest.approx(
            width_limit(canonical, 100.0), rel=1e-6)
        assert width_limit(canonical, 100.0) == pytest.approx(
            peak(canonical, 100.0, 1e6, 1).x_max, rel=1e-12)


class TestPeriodicityGap:
    def test_dominated_by_envelope(self, canonical):
        # The bound is attained at the cycle opening, so allow rounding
        # headroom between the two evaluation paths.
        sol = equi_multidose(canonical, 100.0, 6.0)
        for n in range(1, 61):
            gap = periodicity_gap(sol, n)
            assert gap <= gap_envelope(canonical, 100.0, 6.0, n) * (1.0 + 1e-12)

    @pytest.mark.parametrize("p", NEAR_EQUAL + SPREAD, ids=repr)
    def test_envelope_dominates_and_never_increases(self, p):
        # Checked where the envelope is a normal number: subnormals keep
        # too few bits to order two evaluation paths.
        n = np.concatenate((np.arange(1, 3_000), np.geomspace(3_000, 1e5, 200).astype(int)))
        for tau in (0.01, 1.0, 30.0):
            gaps = periodicity_gap(equi_multidose(p, 100.0, tau), n)
            bounds = gap_envelope(p, 100.0, tau, n)
            normal = bounds >= np.finfo(float).tiny
            assert np.all(gaps[normal] <= bounds[normal]), tau
            assert np.all(np.diff(bounds[normal]) <= 0.0), tau

    def test_gap_ratio_approaches_slow_decay(self, canonical):
        sol = equi_multidose(canonical, 100.0, 6.0)
        beta = math.exp(-canonical.ke * 6.0)
        ratios = [periodicity_gap(sol, n) / periodicity_gap(sol, n + 1)
                  for n in range(20, 25)]
        for r in ratios:
            assert r == pytest.approx(1.0 / beta, rel=1e-6)

    def test_rejects_cycle_zero(self, canonical):
        sol = equi_multidose(canonical, 100.0, 6.0)
        with pytest.raises(ValidationError):
            periodicity_gap(sol, 0)
        with pytest.raises(ValidationError):
            periodicity_gap(sol, np.array([2, 0, 3]))
        with pytest.raises(ValidationError):
            gap_envelope(canonical, 100.0, 6.0, np.array([0, 1]))

    def test_rejects_bolus_solution(self):
        sol = bolus_multidose(0.3, BolusRegimen([(100.0, 6.0)] * 3))
        with pytest.raises(ValidationError, match="oral"):
            periodicity_gap(sol, 2)

    def test_rejects_fat_solution(self, canonical):
        sol = fat_multidose(canonical, FatRegimen([(100.0, 6.0, 2.0), (100.0, 4.0, 1.0)]))
        with pytest.raises(ValidationError, match="oral"):
            periodicity_gap(sol, 2)

    @pytest.mark.parametrize("model", ["bolus", "fat"])
    def test_rejects_equi_bolus_and_fat_solutions(self, canonical, model):
        from multidose.core import EquiDose

        sol = (bolus_multidose(0.3, EquiDose(100.0, 6.0)) if model == "bolus"
               else fat_multidose(canonical, EquiDose(100.0, 6.0, 2.0)))
        with pytest.raises(ValidationError, match=f"expected an oral solution, got a {model}"):
            periodicity_gap(sol, 2)

    @pytest.mark.parametrize("p", PARAM_SETS, ids=["canonical", "fitted", "flipflop"])
    def test_array_of_cycles_matches_scalar_calls(self, p):
        sol = equi_multidose(p, 100.0, 6.0)
        n = np.arange(1, 61)
        gaps, bounds = periodicity_gap(sol, n), gap_envelope(p, 100.0, 6.0, n)
        assert gaps.shape == bounds.shape == n.shape
        for i, k in enumerate(n.tolist()):
            assert gaps[i] == pytest.approx(periodicity_gap(sol, k), rel=1e-14)
            assert bounds[i] == pytest.approx(gap_envelope(p, 100.0, 6.0, k), rel=1e-14)

    @pytest.mark.parametrize("p", PARAM_SETS[::2], ids=["normal", "flipflop"])
    @pytest.mark.parametrize("equi", [True, False], ids=["equi", "arbitrary"])
    def test_exact_sup_against_dense_grid(self, p, equi):
        if equi:
            sol = equi_multidose(p, 100.0, 6.0)
        else:
            sol = arbitrary_multidose(p, Arbitrary([
                (100.0, 6.0), (50.0, 2.0), (200.0, 12.0), (80.0, 1.0),
                (120.0, 8.0), (30.0, 5.0)]))
        # Later equi gaps are too small against their states to be
        # differenced from them to 1e-12.
        for n in range(1, 4 if equi else 7):
            x0, y0, spans = sol._pieces(n)
            if n > 1:
                px, py, _ = sol._pieces(n - 1)
                x0, y0 = x0 - px, y0 - py
            dx, dy, tau = (float(np.ravel(v)[0]) for v in (x0, y0, spans))
            # The increment's piece in the classic form dc1*e^{-ke s} - dc2*e^{-ka s}.
            dc2 = absorption_gain(p) * dy
            dc1 = dx + dc2

            def diff(s):
                return np.abs(dc1 * np.exp(-p.ke * s) - dc2 * np.exp(-p.ka * s))

            # A 100,001-point grid, refined once between the neighbours of
            # its maximum so that an interior peak is resolved too.
            s = np.linspace(0.0, tau, 100_001)
            i = int(np.argmax(diff(s)))
            fine = np.linspace(s[max(i - 1, 0)], s[min(i + 1, s.size - 1)], 100_001)
            grid = max(diff(s).max(), diff(fine).max())
            gap = periodicity_gap(sol, n)
            scale = max(abs(dc1), abs(dc2))
            assert grid * (1.0 - 1e-12) <= gap <= grid + 1e-12 * scale, n

    @pytest.mark.parametrize("p", NEAR_EQUAL + SPREAD, ids=repr)
    def test_against_mpmath(self, p):
        for tau in PIECE_TAUS:
            n = np.array([1, 2, 3, 10, 1000])
            gaps = periodicity_gap(equi_multidose(p, 100.0, tau), n)
            for k, gap in zip(n.tolist(), gaps.tolist()):
                reference = mp_equi_gap(p, 100.0, tau, k)
                assert rel(gap, reference) <= piece_bound(p, k * tau), (tau, k)
            entries = [(d, k * tau) for d, k in SCHEDULE]
            sol = arbitrary_multidose(p, Arbitrary(entries))
            states = [(0, 0)] + mp_table_states(p, entries)
            for k, (_, span) in enumerate(entries, start=1):
                increment = (states[k][0] - states[k - 1][0], states[k][1] - states[k - 1][1])
                reference = mp_gap(p, *increment, span)
                assert rel(periodicity_gap(sol, k), reference) <= piece_bound(p, span), (tau, k)

    @pytest.mark.parametrize("p", TABLE_RATES, ids=["separated", "near-equal", "flipflop"])
    def test_table_array_of_cycles_matches_scalar_calls(self, p):
        sol = arbitrary_multidose(p, Arbitrary(MIXED_TABLE))
        n = np.arange(1, 61)
        scalars = np.array([periodicity_gap(sol, k) for k in n.tolist()])
        for cycles in (n, n[::-1], n.reshape(6, 10)):
            gaps = periodicity_gap(sol, cycles)
            assert gaps.shape == cycles.shape
            assert np.array_equal(gaps.view(np.int64), scalars[cycles - 1].view(np.int64))
        with pytest.raises(ValidationError, match="cycle 61 exceeds the 60 cycles"):
            periodicity_gap(sol, np.array([2, 61, 3]))

    @pytest.mark.parametrize("p", NEAR_EQUAL + SPREAD, ids=repr)
    def test_repeating_table_against_mpmath(self, p):
        # Each increment is the difference of two EXTENDED states, whose
        # rounding (2^-64 relative) grows against the gap as the increments
        # shrink toward steady state. The relative bound piece_bound +
        # k*2^-64*max(|x_n|, |x_{n-1}|)/gap is checked times the gap, as
        # increments below the 60 digits of the states give a gap of 0:
        # k = 4 is the least integer for which every cycle holds.
        for tau in (0.5, 6.0, 30.0):
            entries = [(100.0, tau)] * 60
            states = mp_table_states(p, entries)
            gaps = periodicity_gap(arbitrary_multidose(p, Arbitrary(entries)), np.arange(2, 61))
            for n, gap in enumerate(gaps.tolist(), start=2):
                (x, y), (px, py) = states[n - 1], states[n - 2]
                with mpmath.workdps(DIGITS):
                    reference = mp_gap(p, x - px, y - py, tau)
                    error = abs(gap - reference) - piece_bound(p, tau) * reference
                    assert error <= 4 * 2.0 ** -64 * max(abs(x), abs(px)), (tau, n)

    def test_underflowing_increment(self):
        p, d, tau, _ = UNDERFLOW
        sol = equi_multidose(p, d, tau)
        g = absorption_gain(p) * d
        alpha = math.exp(-p.ka * tau)
        for n in range(390, 405):
            # The ke-term is subnormal, so the gap is the ka-term at s = 0.
            assert periodicity_gap(sol, n) == pytest.approx(
                abs(g) * alpha ** (n - 1), rel=1e-12)


class TestNEpsilon:
    def test_frozen_direct_scan_value(self, canonical):
        assert n_epsilon(canonical, 100.0, 6.0, 1e-6) == 32

    def test_minimality(self, canonical):
        sol = equi_multidose(canonical, 100.0, 6.0)
        gap2 = periodicity_gap(sol, 2)
        assert n_epsilon(canonical, 100.0, 6.0, gap2 * 1.01) == 2

    def test_nonincreasing_in_eps(self, canonical):
        values = [n_epsilon(canonical, 100.0, 6.0, eps)
                  for eps in (1e-2, 1e-4, 1e-6, 1e-8)]
        assert values == sorted(values)
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_rejects_nonpositive_eps(self, canonical):
        with pytest.raises(ValidationError):
            n_epsilon(canonical, 100.0, 6.0, 0.0)

    def test_eps_above_every_envelope(self, canonical):
        eps = 10.0 * gap_envelope(canonical, 100.0, 6.0, 1)
        assert n_epsilon(canonical, 100.0, 6.0, eps) == 2

    def test_slow_elimination_fails_past_2_53_cycles(self, monkeypatch, canonical):
        from multidose import steady_state

        calls = []
        kernel = steady_state.periodicity_gap
        monkeypatch.setattr(steady_state, "periodicity_gap",
                            lambda *args: calls.append(args) or kernel(*args))
        p = PkParams(1.0, 1e-15, 1.0, 1.0)
        with pytest.raises(ValidationError, match=r"within 2\*\*53 cycles .*\(ke\*tau=1e-15\)"):
            n_epsilon(p, 100.0, 1.0, 1e-6)
        # One call reads the gap at cycle 2**53, still above eps, and stops.
        assert len(calls) == 1 and calls[0][1][-1] == 2 ** 53
        # The spy does see the gaps of a search that answers.
        calls.clear()
        assert n_epsilon(canonical, 100.0, 6.0, 1e-6) == 32 and calls

    def test_answers_past_100000_cycles(self):
        # Seeded regimens whose gaps settle only after 100,000 cycles: each
        # answer n is certified by the exact gaps at n - 1, n, n + 1 and n + 1000.
        rng = np.random.default_rng(20261021)
        answers = []
        while len(answers) < 500:
            ka, ke = 10 ** rng.uniform(-3.0, 1.0, 2)
            p = PkParams(ka, ke, rng.uniform(0.2, 5.0), 10 ** rng.uniform(0.0, 3.7))
            d, tau = 10 ** rng.uniform(-1.0, 4.0), 10 ** rng.uniform(-2.0, -0.5)
            eps = 10 ** rng.uniform(-9.0, -1.0)
            if gap_envelope(p, d, tau, 100_000) < eps:
                continue  # settled within the first 100,000 cycles
            if (n := n_epsilon(p, d, tau, eps)) <= 100_000:
                continue
            gaps = periodicity_gap(equi_multidose(p, d, tau), np.array([-1, 0, 1, 1000]) + n)
            assert gaps[0] >= eps and max(gaps[1:]) < eps, (p, d, tau, eps, n)
            answers.append(n)
        assert max(answers) > 1_000_000

    def test_answers_18_million_cycles(self):
        p = PkParams(1.0, 1e-6, 1.0, 1.0)
        assert n_epsilon(p, 100.0, 1.0, 1e-6) == 18_420_683

    @pytest.mark.parametrize("p", PARAM_SETS[::2], ids=["canonical", "flipflop"])
    @pytest.mark.parametrize("tau", EXTREME_TAUS)
    @pytest.mark.parametrize("eps", [1e-6, 1e6])
    def test_extreme_intervals_give_a_cycle_or_a_typed_error(self, p, tau, eps):
        # 1e6 is above every gap of a 100 mg dose, so it answers 2 at any interval.
        try:
            n = n_epsilon(p, 100.0, tau, eps)
        except ValidationError as exc:
            assert eps < 1.0 and "within 2**53 cycles" in str(exc)
            return
        assert isinstance(n, int) and n >= 2
        if tau >= 1e300 or eps > 1.0:
            assert n == 2

    def test_underflowing_increments(self):
        assert n_epsilon(*UNDERFLOW) == scan_reference(*UNDERFLOW) == 1002

    @pytest.mark.parametrize("ke,separation", [(0.003, 1e-8), (0.002, 1e-4)])
    def test_converging_near_equal_rates(self, ke, separation):
        # The search reads the exact gaps, so rates 1e-8 apart answer as
        # any others do.
        case = PkParams(ke * (1.0 + separation), ke, 1.0, 1000.0), 100.0, 0.1, 1e-6
        assert n_epsilon(*case) == scan_reference(*case)

    def test_converging_separated_rates_near_the_cap(self):
        # Late gaps are q*d*E with E -> e^{-slow t}/|ka - ke|; this regimen's
        # fall below eps only at cycle 98,544.
        case = PkParams(1.0, 0.1, 1.0, 1.0), 100.0, 1.88e-3, 1e-6
        assert n_epsilon(*case) == scan_reference(*case) == 98_544

    def test_matches_scan_reference(self):
        cases = reference_cases(200)
        assert ([n_epsilon(*case) for case in cases]
                == [scan_reference(*case) for case in cases])


class TestAucEquality:
    def test_identity_holds_analytically(self, canonical):
        total, limiting, rel = auc_equality_check(canonical, 100.0, 6.0)
        assert rel <= 1e-12
        assert total == pytest.approx(auc_single(canonical, 100.0), rel=1e-15)

    def test_quadrature_of_late_cycle(self, canonical):
        sol = equi_multidose(canonical, 100.0, 6.0)
        n = 300
        t = np.linspace((n - 1) * 6.0, n * 6.0, 100_001)
        quad = simpson(sol.x(t), x=t)
        assert quad == pytest.approx(auc_single(canonical, 100.0), rel=1e-8)

    @pytest.mark.parametrize("p", PARAM_SETS, ids=["normal", "fitted", "flipflop"])
    def test_limiting_cycle_matches_late_cycle(self, p):
        auc_ss = auc_equality_check(p, 100.0, 6.0)[1]
        late = cycle_metrics(equi_multidose(p, 100.0, 6.0), 400).auc
        assert abs(late - auc_ss) <= 1e-12 * auc_ss

    def test_linear_in_dose(self, canonical):
        t1 = auc_equality_check(canonical, 100.0, 6.0)
        t2 = auc_equality_check(canonical, 200.0, 6.0)
        assert t2[0] == pytest.approx(2.0 * t1[0], rel=1e-14)
        assert t2[1] == pytest.approx(2.0 * t1[1], rel=1e-14)


class TestConvergenceRate:
    def test_remainder_gap_decays_at_slow_rate(self, canonical):
        sol = equi_multidose(canonical, 100.0, 6.0)
        limit = ss_lower(canonical, 100.0, 6.0)
        rate = max(math.exp(-canonical.ka * 6.0), math.exp(-canonical.ke * 6.0))
        ns = np.arange(5, 30)
        gaps = np.array([abs(sol.remainders(int(n))[0] - limit) for n in ns])
        slope = np.polyfit(ns, np.log(gaps), 1)[0]
        assert slope == pytest.approx(math.log(rate), rel=0.05)


def test_summarize_bundles_everything(canonical):
    s = summarize(canonical, 100.0, 6.0, eps=1e-6)
    assert s.ss_lower == pytest.approx(134.87603372266955, rel=1e-13)
    assert s.ss_upper == pytest.approx(187.41999262256405, rel=1e-13)
    assert s.width == pytest.approx(s.ss_upper - s.ss_lower, rel=1e-13)
    assert s.n_epsilon == 32
    assert s.auc_ss == pytest.approx(auc_single(canonical, 100.0), rel=1e-12)
    assert (s.auc_single, s.auc_ss, s.auc_rel_diff) == auc_equality_check(
        canonical, 100.0, 6.0)
