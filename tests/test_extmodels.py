import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from multidose.core import Arbitrary, EquiDose, PkParams, ValidationError, dose_times
from multidose import bateman
from multidose.bateman import BLOCK_POINTS, arbitrary_multidose, equi_multidose
from multidose.extmodels import (
    BolusRegimen,
    BolusSolution,
    FatRegimen,
    bolus_equi_remainder_limit,
    bolus_multidose,
    fat_equi_limits,
    fat_multidose,
)
from mpref import (DIGITS, NEAR_EQUAL, PIECE_TAUS, SPREAD, TAUS, absorption_gain,
                   mp_bolus_limit, mp_bolus_state, mp_fat_cutoff, mp_fat_limits, mp_piece,
                   piece_bound, rel)
from rk4 import _rk4_segment

#: Machine epsilon: the spacing of doubles at 1.
EPS = 2.0 ** -52

KE_BOLUS = 0.3838
COMPANION_DELTAS = [600.0, 600.0, 700.0, 500.0, 400.0, 300.0]
COMPANION_GAPS = [4.0, 4.0, 8.0, 4.0, 6.0, 4.0]

FAT_PARAMS = PkParams(ka=0.42, ke=0.4, gamma=0.00449, volume=1.0)


def bolus_decay_sum(ke, deltas, starts, t):
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    for t0, d in zip(starts, deltas):
        live = t >= t0
        out += np.where(live, d * np.exp(-ke * np.where(live, t - t0, 0.0)), 0.0)
    return out


class TestBolus:
    def test_single_dose_is_pure_decay(self):
        sol = bolus_multidose(KE_BOLUS, BolusRegimen([(600.0, 8.0)]))
        t = np.linspace(0.0, 20.0, 200)
        assert np.max(np.abs(sol.x(t) - 600.0 * np.exp(-KE_BOLUS * t))) <= 1e-10

    def test_equi_remainder_recursion_vs_closed_form(self):
        delta, tau = 600.0, 6.0
        beta = math.exp(-KE_BOLUS * tau)
        sol = bolus_multidose(KE_BOLUS, BolusRegimen([(delta, tau)] * 100))
        for n in (1, 2, 10, 100):
            closed = delta * beta * (1.0 - beta ** n) / (1.0 - beta)
            assert sol.remainder(n) == pytest.approx(closed, rel=1e-13)
        limit = bolus_equi_remainder_limit(KE_BOLUS, delta, tau)
        assert limit == pytest.approx(delta * beta / (1.0 - beta), rel=1e-14)
        assert abs(sol.remainder(100) - limit) <= 1e-10 * limit

    def test_mixed_schedule_matches_decay_superposition(self):
        sol = bolus_multidose(KE_BOLUS,
                              BolusRegimen(list(zip(COMPANION_DELTAS,
                                                    COMPANION_GAPS))))
        starts = np.concatenate(([0.0], np.cumsum(COMPANION_GAPS)))[:-1]
        t = np.linspace(0.0, 30.0, 3001)
        ref = bolus_decay_sum(KE_BOLUS, COMPANION_DELTAS, starts, t)
        assert np.max(np.abs(sol.x(t) - ref)) <= 1e-10
        assert sol.x(10.0) == pytest.approx(397.79702985745126, rel=1e-12)

    def test_jump_up_at_each_dose(self):
        sol = bolus_multidose(KE_BOLUS,
                              BolusRegimen(list(zip(COMPANION_DELTAS,
                                                    COMPANION_GAPS))))
        starts = np.concatenate(([0.0], np.cumsum(COMPANION_GAPS)))[:-1]
        for n, t0 in enumerate(starts, start=1):
            post = sol.x(float(t0))
            assert post == pytest.approx(sol.start_value(n), rel=1e-13)
            if n > 1:
                assert post - sol.remainder(n - 1) == pytest.approx(
                    COMPANION_DELTAS[n - 1], rel=1e-12)

    @pytest.mark.parametrize("ke", [0.05, 0.3, 2.0])
    def test_equi_remainder_limit_against_mpmath(self, ke):
        for tau in TAUS:
            reference = mp_bolus_limit(ke, 100.0, tau)
            value = bolus_equi_remainder_limit(ke, 100.0, tau)
            assert abs(value - reference) <= 2e-15 * reference, tau

    def test_validation(self):
        with pytest.raises(ValidationError):
            BolusRegimen([])
        with pytest.raises(ValidationError):
            BolusRegimen([(0.0, 4.0)])
        with pytest.raises(ValidationError):
            bolus_multidose(0.0, BolusRegimen([(100.0, 4.0)]))

    @pytest.mark.parametrize("regimen", [Arbitrary([(100.0, 6.0)] * 3), EquiDose(100.0, 6.0, 2.0),
                                         FatRegimen([(100.0, 6.0, 2.0)] * 3)],
                             ids=["arbitrary", "equi", "fat"])
    def test_regimen_must_be_bolus(self, regimen):
        # Oral doses are not concentration jumps: the regimen type is checked.
        with pytest.raises(ValidationError, match="expected a bolus regimen, got "
                           + type(regimen).__name__):
            bolus_multidose(0.3, regimen)


def fat_cutoff_superposition(p, entries, t):
    """Independent check: each dose contributes a truncated response."""
    gain = p.ka * p.gamma / (p.volume * (p.ka - p.ke))
    starts = np.concatenate(([0.0], np.cumsum([e[1] for e in entries])))[:-1]
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    for t0, (dose, _, cut) in zip(starts, entries):
        dt = t - t0
        rising = (dt >= 0.0) & (dt <= cut)
        falling = dt > cut
        term = np.zeros_like(t)
        term[rising] = gain * dose * (np.exp(-p.ke * dt[rising])
                                      - np.exp(-p.ka * dt[rising]))
        at_cut = gain * dose * (math.exp(-p.ke * cut) - math.exp(-p.ka * cut))
        term[falling] = at_cut * np.exp(-p.ke * (dt[falling] - cut))
        out += term
    return out


class TestFat:
    def test_continuity_at_cutoffs_and_dose_times(self):
        entries = [(600.0, 5.0, 2.0)] * 6
        sol = fat_multidose(FAT_PARAMS, FatRegimen(entries))
        p = FAT_PARAMS
        for n in range(1, 7):
            # The assimilation piece in the classic form c1*e^{-ke s} - c2*e^{-ka s}.
            x0, y0 = (float(v[0]) for v in sol._pieces(n)[:2])
            c2 = absorption_gain(p) * y0
            left = ((x0 + c2) * math.exp(-p.ke * 2.0)
                    - c2 * math.exp(-p.ka * 2.0))
            assert abs(left - sol.cutoff_value(n)) <= 1e-12
            if n < 6:
                end = sol.cutoff_value(n) * math.exp(-p.ke * 3.0)
                start_next = float(sol._pieces(n + 1)[0][0])
                assert abs(end - start_next) <= 1e-12

    def test_gut_empty_through_clearance_phase(self):
        entries = [(600.0, 5.0, 2.0)] * 4
        sol = fat_multidose(FAT_PARAMS, FatRegimen(entries))
        t = np.linspace(0.0, 20.0, 4001)[:-1]
        offsets = (t % 5.0)
        clearance = offsets >= 2.0
        assert np.all(sol.y(t)[clearance] == 0.0)
        assert np.all(sol.y(t)[~clearance] > 0.0)

    def test_matches_cutoff_superposition(self):
        entries = [(600.0, 6.0, 2.0), (600.0, 4.0, 2.0), (400.0, 5.0, 2.0),
                   (700.0, 5.0, 2.0)]
        sol = fat_multidose(FAT_PARAMS, FatRegimen(entries))
        t = np.linspace(0.0, 25.0, 5001)
        ref = fat_cutoff_superposition(FAT_PARAMS, entries, t)
        assert np.max(np.abs(sol.x(t) - ref)) <= 1e-10
        assert np.all(sol.x(t[1:]) > 0.0)

    def test_frozen_companion_value(self):
        sol = fat_multidose(FAT_PARAMS, FatRegimen([(600.0, 5.0, 2.0)] * 6))
        assert sol.x(11.0) == pytest.approx(0.979393780848099, rel=1e-12)

    def test_kink_at_cutoff(self):
        sol = fat_multidose(FAT_PARAMS, FatRegimen([(600.0, 5.0, 2.0)] * 3))
        p = FAT_PARAMS
        n = 2
        x0, y0 = (float(v[0]) for v in sol._pieces(n)[:2])
        c2 = absorption_gain(p) * y0
        c1, c3 = x0 + c2, sol.cutoff_value(n)
        left = -p.ke * c1 * math.exp(-p.ke * 2.0) + p.ka * c2 * math.exp(-p.ka * 2.0)
        right = -p.ke * c3
        assert left - right == pytest.approx(
            c2 * math.exp(-p.ka * 2.0) * (p.ka - p.ke), rel=1e-10)
        assert abs(left - right) > 0.01 * abs(right)

    def test_clearance_phase_against_rk4(self):
        sol = fat_multidose(FAT_PARAMS, FatRegimen([(600.0, 5.0, 2.0)] * 3))
        start = sol.cutoff_value(2)
        _, xs, _ = _rk4_segment(FAT_PARAMS, 0.0, start, 3.0, 1e-3)
        assert xs[-1] == pytest.approx(sol.end_value(2), rel=1e-10)

    def test_assimilation_phase_against_rk4(self):
        sol = fat_multidose(FAT_PARAMS, FatRegimen([(600.0, 5.0, 2.0)] * 3))
        carry = sol.end_value(1)
        _, xs, ys = _rk4_segment(FAT_PARAMS, 600.0, carry, 2.0, 1e-3)
        assert xs[-1] == pytest.approx(sol.cutoff_value(2), rel=1e-8)
        assert ys[-1] == pytest.approx(600.0 * math.exp(-FAT_PARAMS.ka * 2.0),
                                       rel=1e-10)

    def test_full_window_reduces_to_reset_oral(self):
        # With the absorption window spanning the whole cycle the model is
        # the oral one with the gut reset to the fresh dose each cycle.
        entries = [(600.0, 5.0, 5.0)] * 4
        sol = fat_multidose(FAT_PARAMS, FatRegimen(entries))
        t = np.linspace(0.0, 20.0, 2001)
        expected = fat_cutoff_superposition(FAT_PARAMS, entries, t)
        assert np.max(np.abs(sol.x(t) - expected)) <= 1e-10
        # Equi remainder identity: end/cutoff = exp(-ke (tau - s)) = 1 here.
        for n in range(1, 5):
            assert sol.end_value(n) == pytest.approx(sol.cutoff_value(n), rel=1e-14)

    def test_equi_settings_end_to_cutoff_ratio(self):
        sol = fat_multidose(FAT_PARAMS, FatRegimen([(600.0, 5.0, 2.0)] * 6))
        p = FAT_PARAMS
        expected = math.exp(-p.ke * 5.0) / math.exp(-p.ke * 2.0)
        for n in range(1, 7):
            assert sol.end_value(n) / sol.cutoff_value(n) == pytest.approx(
                expected, rel=1e-13)

    def test_equi_limits_match_long_recursion(self):
        sol = fat_multidose(FAT_PARAMS, FatRegimen([(600.0, 5.0, 2.0)] * 400))
        cutoff, end = fat_equi_limits(FAT_PARAMS, 600.0, 5.0, 2.0)
        assert cutoff == pytest.approx(sol.cutoff_value(400), rel=1e-12)
        assert end == pytest.approx(sol.end_value(400), rel=1e-12)
        with pytest.raises(ValidationError):
            fat_equi_limits(FAT_PARAMS, 600.0, 5.0, 6.0)

    @pytest.mark.parametrize("p", NEAR_EQUAL, ids=repr)
    def test_equi_limits_against_mpmath(self, p):
        # e^{-ke tau} is exact only to its rounded argument ke*tau, whose
        # relative condition ke*tau adds to the 2e-15 at long intervals.
        for tau in TAUS:
            for offset in (0.5 * tau, tau):
                rtol = 2e-15 + EPS * p.ke * tau
                for value, reference in zip(fat_equi_limits(p, 100.0, tau, offset),
                                            mp_fat_limits(p, 100.0, tau, offset)):
                    assert abs(value - reference) <= rtol * reference, (tau, offset)

    def test_window_validation(self):
        with pytest.raises(ValidationError):
            FatRegimen([(600.0, 5.0, 6.0)])
        with pytest.raises(ValidationError):
            FatRegimen([(600.0, 5.0, 0.0)])

    @pytest.mark.parametrize("regimen", [Arbitrary([(100.0, 6.0)] * 3), EquiDose(100.0, 6.0),
                                         BolusRegimen([(100.0, 6.0)] * 3)],
                             ids=["arbitrary", "equi", "bolus"])
    def test_regimen_must_be_fat(self, regimen):
        with pytest.raises(ValidationError, match="expected a FAT regimen, got"):
            fat_multidose(FAT_PARAMS, regimen)


class TestEquiClosedForm:
    """Constant bolus and FAT schedules are one EquiDose entry repeated, in
    closed form: every piece's state, read at the offsets s = t - t_start the
    evaluator forms, against the 60-digit geometric sums."""

    CYCLES = (1, 2, 3, 10, 1000)

    @pytest.mark.parametrize("p", NEAR_EQUAL + SPREAD, ids=repr)
    def test_bolus_against_mpmath(self, p):
        with mpmath.workdps(DIGITS):
            for tau in PIECE_TAUS:
                sol = bolus_multidose(p.ke, EquiDose(100.0, tau))
                assert sol.n_cycles is None
                bound = piece_bound(p, tau)
                beta = mpmath.exp(-mpmath.mpf(p.ke) * mpmath.mpf(tau))
                for n in self.CYCLES:
                    state = mp_bolus_state(p.ke, 100.0, tau, n)
                    assert rel(sol.start_value(n), state) <= bound, (tau, n)
                    assert rel(sol.remainder(n), state * beta) <= bound, (tau, n)
                    assert sol.remainders(n)[1] == 0.0
                    for theta in (0.0, 0.37, 0.9):
                        t = (n - 1) * tau + theta * tau
                        x, y, cycle = sol.evaluate(t)
                        s = mpmath.mpf(t) - mpmath.mpf((cycle - 1) * tau)
                        ref = (mp_bolus_state(p.ke, 100.0, tau, cycle)
                               * mpmath.exp(-mpmath.mpf(p.ke) * s))
                        assert rel(x, ref) <= bound and y == 0.0, (tau, n, theta)

    @pytest.mark.parametrize("p", NEAR_EQUAL + SPREAD, ids=repr)
    def test_fat_against_mpmath(self, p):
        with mpmath.workdps(DIGITS):
            for tau in PIECE_TAUS:
                window = 0.5 * tau
                sol = fat_multidose(p, EquiDose(100.0, tau, window))
                bound = piece_bound(p, tau)
                for n in self.CYCLES:
                    cutoff = mp_fat_cutoff(p, 100.0, tau, window, n)
                    end, _ = mp_piece(p, cutoff, 0, tau - window)
                    assert rel(sol.cutoff_value(n), cutoff) <= bound, (tau, n)
                    assert rel(sol.end_value(n), end) <= bound, (tau, n)
                    rem_x, rem_y = sol.remainders(n)
                    assert rel(rem_x, end) <= bound and rem_y == 0.0, (tau, n)
                    for theta in (0.0, 0.37, 0.9):
                        t = (n - 1) * tau + theta * tau
                        x, y, cycle = sol.evaluate(t)
                        s = mpmath.mpf(t) - mpmath.mpf((cycle - 1) * tau)
                        if s < window:
                            carried = mp_fat_cutoff(p, 100.0, tau, window, cycle - 1)
                            entering, _ = mp_piece(p, carried, 0, tau - window)
                            ref_x, ref_y = mp_piece(p, entering, 100.0, s)
                        else:
                            ref_x, ref_y = mp_piece(
                                p, mp_fat_cutoff(p, 100.0, tau, window, cycle), 0, s - window)
                        assert rel(x, ref_x) <= bound, (tau, n, theta)
                        assert rel(y, ref_y) <= bound if ref_y else y == 0.0, (tau, n, theta)

    @pytest.mark.parametrize("tau", [0.5, 6.0])
    def test_equal_to_long_tables(self, tau):
        # Dyadic intervals: the table's cumulative dose times are the equi
        # grid k*tau exactly, so both place every piece alike.
        count, t = 400, np.linspace(0.0, 400 * tau, 20001)[:-1]
        n = np.arange(1, count + 1)
        pairs = [(bolus_multidose(KE_BOLUS, BolusRegimen([(600.0, tau)] * count)),
                  bolus_multidose(KE_BOLUS, EquiDose(600.0, tau)),
                  ("start_value", "remainder")),
                 (fat_multidose(FAT_PARAMS, FatRegimen([(600.0, tau, 0.4 * tau)] * count)),
                  fat_multidose(FAT_PARAMS, EquiDose(600.0, tau, 0.4 * tau)),
                  ("cutoff_value", "end_value"))]
        for table, equi, accessors in pairs:
            for name in accessors:
                got, expected = getattr(equi, name)(n), getattr(table, name)(n)
                assert np.max(np.abs(got - expected) / expected) <= 2 * EPS, name
            x, y, cycle = equi.evaluate(t)
            x_table, y_table, cycle_table = table.evaluate(t)
            assert np.array_equal(cycle, cycle_table)
            assert np.max(np.abs(x - x_table) / np.maximum(x_table, 1e-300)) <= 4 * EPS
            assert np.max(np.abs(y - y_table)) <= 4 * EPS * 600.0

    def test_limits_are_the_sums_at_infinity(self):
        bolus = bolus_multidose(KE_BOLUS, EquiDose(600.0, 6.0))
        limit = bolus_equi_remainder_limit(KE_BOLUS, 600.0, 6.0)
        assert abs(bolus.remainder(10_000) - limit) <= EPS * limit
        fat = fat_multidose(FAT_PARAMS, EquiDose(600.0, 5.0, 2.0))
        cutoff, end = fat_equi_limits(FAT_PARAMS, 600.0, 5.0, 2.0)
        assert abs(fat.cutoff_value(10_000) - cutoff) <= EPS * cutoff
        assert abs(fat.end_value(10_000) - end) <= EPS * end

    @pytest.mark.parametrize("make", [
        lambda: bolus_multidose(KE_BOLUS, BolusRegimen(list(zip(COMPANION_DELTAS,
                                                                COMPANION_GAPS)))),
        lambda: bolus_multidose(KE_BOLUS, EquiDose(600.0, 4.0)),
        lambda: fat_multidose(FAT_PARAMS, FatRegimen([(600.0, 5.0, 2.0), (400.0, 4.0, 4.0),
                                                      (700.0, 6.0, 1.5)])),
        lambda: fat_multidose(FAT_PARAMS, EquiDose(600.0, 5.0, 2.0)),
    ], ids=["bolus-table", "bolus-equi", "fat-table", "fat-equi"])
    def test_array_calls_equal_scalar_calls(self, make):
        sol = make()
        n = np.arange(1, 4)
        names = (("start_value", "remainder") if isinstance(sol, BolusSolution)
                 else ("cutoff_value", "end_value"))
        for name in names:
            values = getattr(sol, name)(n)
            assert values.dtype == float and values.shape == n.shape
            assert values.tolist() == [getattr(sol, name)(int(k)) for k in n], name
            assert all(type(getattr(sol, name)(int(k))) is float for k in n)
        rem_x, rem_y = sol.remainders(np.arange(0, 4))
        assert rem_x.tolist() == [sol.remainders(k)[0] for k in range(4)]
        assert rem_y.tolist() == [sol.remainders(k)[1] for k in range(4)]

    @pytest.mark.parametrize("build,regimen,message", [
        (lambda r: arbitrary_multidose(FAT_PARAMS, r), EquiDose(100.0, 6.0, 2.0),
         "expected an oral regimen, got EquiDose with window=2.0"),
        (lambda r: fat_multidose(FAT_PARAMS, r), EquiDose(100.0, 6.0),
         "expected a FAT regimen, got EquiDose with window=None"),
    ], ids=["oral-window", "fat-no-window"])
    def test_window_belongs_to_fat(self, build, regimen, message):
        with pytest.raises(ValidationError, match=message):
            build(regimen)

    def test_window_is_checked_as_a_fat_entry(self):
        with pytest.raises(ValidationError, match="absorption window must be <= interval"):
            EquiDose(100.0, 6.0, 6.5)
        with pytest.raises(ValidationError, match="absorption window must be > 0"):
            EquiDose(100.0, 6.0, 0.0)


#: Oral parameters for the lookup tests; k*0.7 rounds for most k.
LOOKUP_PARAMS = PkParams(ka=1.0, ke=0.1, gamma=1.0, volume=1.0)
LOOKUP_SOLUTIONS = {
    "equi-oral": lambda: equi_multidose(LOOKUP_PARAMS, 100.0, 0.7),
    "equi-bolus": lambda: bolus_multidose(KE_BOLUS, EquiDose(600.0, 0.7)),
    "equi-fat": lambda: fat_multidose(FAT_PARAMS, EquiDose(600.0, 0.7, 0.3)),
    "arbitrary-oral": lambda: arbitrary_multidose(
        LOOKUP_PARAMS, Arbitrary([(100.0, 0.7), (30.0, 1.3), (250.0, 0.1), (50.0, 2.9)] * 8)),
    "bolus-table": lambda: bolus_multidose(
        KE_BOLUS, BolusRegimen(list(zip(COMPANION_DELTAS, COMPANION_GAPS)) * 6)),
    "fat-table": lambda: fat_multidose(FAT_PARAMS, FatRegimen(
        [(600.0, 5.0, 2.0), (400.0, 0.7, 0.7), (700.0, 6.1, 1.5), (90.0, 1.1, 0.3)] * 8)),
}

#: The lookup solutions with a table of entries.
TABLE_SOLUTIONS = {k: v for k, v in LOOKUP_SOLUTIONS.items() if not k.startswith("equi")}


@pytest.mark.parametrize("make", TABLE_SOLUTIONS.values(), ids=TABLE_SOLUTIONS.keys())
def test_dose_times_of_every_table(make):
    sol = make()
    times = dose_times(sol.regimen)
    assert times.size == sol.n_cycles + 1
    assert np.array_equal(times[:-1], sol._start(np.arange(1, sol.n_cycles + 1)))


def lookup_query(sol) -> np.ndarray:
    """Sorted times: t = 0, every dose instant and absorption cutoff and one
    ulp either side, duplicates, random times and, for tables, +inf."""
    if sol.n_cycles is None:
        starts = np.arange(45) * sol.regimen.interval
        cuts = starts + (sol.regimen.window or 0.0)
    else:
        starts = sol._starts[:-1]
        cuts = starts + (0.0 if sol._cut is None else sol._cut)
    marks = np.concatenate((starts, cuts, [starts[-1] + 20.0]))
    t = np.concatenate((marks, np.nextafter(marks, 0.0), np.nextafter(marks, np.inf),
                        marks[::5], np.random.default_rng(16).uniform(0.0, marks.max(), 500),
                        [math.inf] if sol.n_cycles else []))
    return np.sort(t)


def lookup_answers(sol, t) -> list[np.ndarray]:
    """x, y, evaluate's three, __call__'s one or two and cycle_index at t, raveled."""
    call = sol(t)
    return [np.ravel(v) for v in (sol.x(t), sol.y(t), *sol.evaluate(t),
                                  *(call if isinstance(call, tuple) else (call,)),
                                  sol.cycle_index(t))]


def assert_same_bits(got: list[np.ndarray], want: list[np.ndarray]):
    assert [(v.dtype, v.tobytes()) for v in got] == [(v.dtype, v.tobytes()) for v in want]


def block_query(sol) -> np.ndarray:
    """2*BLOCK_POINTS + 1 sorted times: the second block opens at cycle 11's
    dose instant and the third, its one point, at that cycle's absorption
    cutoff (without a window, cycle 12's dose instant); the last point
    before each of these edges is one ulp below it."""
    edges = [sol._start(11), sol._start(12)]
    if sol._cut is not None:
        edges[1] = edges[0] + (sol.regimen.window if sol.n_cycles is None else sol._cut[10])
    rng = np.random.default_rng(17)
    first = np.sort(rng.uniform(0.0, edges[0], BLOCK_POINTS - 1))
    second = np.sort(rng.uniform(edges[0], edges[1], BLOCK_POINTS - 2))
    below = np.nextafter(edges, 0.0)
    return np.concatenate((first, [below[0], edges[0]], second, [below[1], edges[1]]))


class TestLookupPaths:
    """A sorted query spanning fewer cycles than points fills each cycle's
    run of points by np.repeat; any other query looks up each point. Both
    evaluate BLOCK_POINTS points at a time, and all agree bit for bit."""

    @pytest.mark.parametrize("make", LOOKUP_SOLUTIONS.values(), ids=LOOKUP_SOLUTIONS.keys())
    def test_sorted_query_equals_shuffled_reshaped_and_scalar(self, make):
        sol = make()
        t = lookup_query(sol)
        assert sol._lookup(t)[1] is not None
        dense = lookup_answers(sol, t)
        assert not any(np.isnan(v).any() for v in dense)
        perm = np.random.default_rng(1).permutation(t.size)
        assert sol._lookup(t[perm])[1] is None
        assert_same_bits(lookup_answers(sol, t[perm]), [v[perm] for v in dense])
        assert_same_bits(lookup_answers(sol, t[:, None]), dense)
        scalars = [lookup_answers(sol, v) for v in t.tolist()]
        assert_same_bits([np.concatenate(v) for v in zip(*scalars)], dense)

    @pytest.mark.parametrize("make", LOOKUP_SOLUTIONS.values(), ids=LOOKUP_SOLUTIONS.keys())
    def test_paths_agree_in_seven_point_blocks(self, make, monkeypatch):
        # Every mark of the query then lies near a block edge.
        monkeypatch.setattr(bateman, "BLOCK_POINTS", 7)
        self.test_sorted_query_equals_shuffled_reshaped_and_scalar(make)

    @pytest.mark.parametrize("make", LOOKUP_SOLUTIONS.values(), ids=LOOKUP_SOLUTIONS.keys())
    def test_sparse_and_empty_multidimensional_queries(self, make):
        sol = make()
        # Six times in six cycles: each point looked up alone, shaped (2, 3).
        t = lookup_query(sol)[:-1:37][:6]
        assert np.unique(sol.cycle_index(t)).size == 6
        assert_same_bits(lookup_answers(sol, t.reshape(2, 3)), lookup_answers(sol, t))
        for v in (sol.x(np.zeros((0, 3))), sol.y(np.zeros((0, 3))),
                  *sol.evaluate(np.zeros((0, 3))), sol.cycle_index(np.zeros((0, 3)))):
            assert v.shape == (0, 3)

    def test_sparse_sorted_query_builds_no_grid(self):
        # 1e6 h at 0.75 h spans 1.3M cycles: a grid of them would be 10.7 MB.
        sol = equi_multidose(LOOKUP_PARAMS, 100.0, 0.75)
        t = np.array([0.5, 1e6])
        assert sol._lookup(t)[1] is None
        tracemalloc.start()
        try:
            answers = lookup_answers(sol, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000
        assert_same_bits(answers, [np.concatenate(v) for v in
                                   zip(*(lookup_answers(sol, v) for v in t.tolist()))])

    @pytest.mark.parametrize("make", LOOKUP_SOLUTIONS.values(), ids=LOOKUP_SOLUTIONS.keys())
    def test_dose_instant_and_cutoff_on_block_edges(self, make):
        sol = make()
        t = block_query(sol)
        assert t.size == 2 * BLOCK_POINTS + 1 and (np.diff(t) >= 0.0).all()
        assert np.array_equal(sol.cycle_index(t[BLOCK_POINTS - 1:BLOCK_POINTS + 1]), [10, 11])
        assert sol._lookup(t)[1] is not None
        dense = lookup_answers(sol, t)
        assert not any(np.isnan(v).any() for v in dense)
        perm = np.random.default_rng(2).permutation(t.size)
        assert_same_bits(lookup_answers(sol, t[perm]), [v[perm] for v in dense])
        assert_same_bits(lookup_answers(sol, t.reshape(-1, 1)), dense)
        edges = np.r_[BLOCK_POINTS - 2:BLOCK_POINTS + 2, 2 * BLOCK_POINTS - 2:t.size]
        scalars = [lookup_answers(sol, v) for v in t[edges].tolist()]
        assert_same_bits([np.concatenate(v) for v in zip(*scalars)], [v[edges] for v in dense])
        for n in (BLOCK_POINTS - 1, BLOCK_POINTS, BLOCK_POINTS + 1):
            assert_same_bits(lookup_answers(sol, t[:n]), [v[:n] for v in dense])
            assert_same_bits(lookup_answers(sol, t[:n][::-1]), [v[:n][::-1] for v in dense])

    @pytest.mark.parametrize("make", [v for k, v in LOOKUP_SOLUTIONS.items() if "equi" in k],
                             ids=[k for k in LOOKUP_SOLUTIONS if "equi" in k])
    def test_sparse_query_across_blocks(self, make):
        # More cycles than points: each block looks up its points' own states.
        sol = make()
        t = block_query(sol) * 7000.0
        assert sol.cycle_index(t[-1]) > t.size and sol._lookup(t)[1] is None
        answers = lookup_answers(sol, t)
        edges = np.r_[0, BLOCK_POINTS - 1:BLOCK_POINTS + 1, t.size - 2:t.size]
        scalars = [lookup_answers(sol, v) for v in t[edges].tolist()]
        assert_same_bits([np.concatenate(v) for v in zip(*scalars)], [v[edges] for v in answers])

    @pytest.mark.parametrize("make", LOOKUP_SOLUTIONS.values(), ids=LOOKUP_SOLUTIONS.keys())
    def test_array_calls_hold_their_outputs_and_one_block(self, make):
        # The allowance is a fixed number of block-sized arrays, whatever N.
        sol = make()
        t = np.sort(np.random.default_rng(18).uniform(0.0, 20.0, 1_000_000))
        for query in (t, t[np.random.default_rng(19).permutation(t.size)]):
            for name in ("x", "y", "__call__", "evaluate", "cycle_index"):
                tracemalloc.start()
                try:
                    out = getattr(sol, name)(query)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                outputs = sum(v.nbytes for v in (out if isinstance(out, tuple) else (out,)))
                assert peak - outputs < 16 * 8 * BLOCK_POINTS, (name, peak - outputs)

    @pytest.mark.parametrize("make", LOOKUP_SOLUTIONS.values(), ids=LOOKUP_SOLUTIONS.keys())
    def test_nan_and_infinite_times(self, make):
        sol = make()
        calls = (sol.x, sol.y, sol, sol.evaluate, sol.cycle_index)
        for t in (math.nan, [math.nan], [1.0, math.nan, -1.0], np.array([[2.0], [math.nan]])):
            for call in calls:
                with pytest.raises(ValidationError, match="query time must be finite, got nan"):
                    call(t)
        for call in calls:
            with pytest.raises(ValidationError, match="t >= 0 only"):
                call([1.0, -1.0])
            if sol.n_cycles is None:
                with pytest.raises(ValidationError, match="beyond 2\\*\\*53 dosing intervals"):
                    call(math.inf)
        if sol.n_cycles is not None:
            assert sol.x(math.inf) == 0.0 and sol.x([1.0, math.inf])[1] == 0.0
            assert sol.cycle_index(math.inf) == sol.n_cycles
