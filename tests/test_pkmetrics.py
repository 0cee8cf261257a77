import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import simpson

from multidose.core import Arbitrary, PkParams, ValidationError, dose_times
from multidose.bateman import arbitrary_multidose, equi_multidose, single_dose
from multidose.pkmetrics import (CycleMetrics, auc_cycle, auc_single, cycle_metrics,
                                 cycle_rows, peak)

from mpref import (NEAR_EQUAL, PIECE_TAUS, SCHEDULE, SHORT_TAUS, SPREAD, TAUS, mp_area,
                   mp_auc_cycle, mp_auc_single, mp_equi_state, mp_peak, mp_table_states,
                   piece_bound, rel, short_bound)

PARAM_SETS = [
    PkParams(1.0, 0.1, 1.0, 1.0),
    PkParams(0.7480, 0.2031, 19.1933, 5000.0),
    PkParams(0.4, 1.6, 2.0, 250.0),  # flip-flop
]


class TestAucSingle:
    def test_algebraic_simplification(self, clarithromycin):
        p = clarithromycin
        assert auc_single(p, 250.0) == pytest.approx(
            250.0 * p.gamma / (p.volume * p.ke), rel=1e-14)

    def test_frozen_value_with_quadrature_and_tail(self, clarithromycin):
        value = auc_single(clarithromycin, 250.0)
        assert value == pytest.approx(4.725086164451009, rel=1e-13)
        curve = single_dose(clarithromycin, 250.0)
        t = np.linspace(0.0, 200.0, 400_001)
        p = clarithromycin
        gain = p.ka * p.gamma * 250.0 / (p.volume * (p.ka - p.ke))
        tail = gain * (math.exp(-p.ke * 200.0) / p.ke
                       - math.exp(-p.ka * 200.0) / p.ka)
        assert simpson(curve.x(t), x=t) + tail == pytest.approx(value, rel=1e-10)

    def test_linear_in_dose(self, canonical):
        assert auc_single(canonical, 200.0) == pytest.approx(
            2.0 * auc_single(canonical, 100.0), rel=1e-14)


class TestAucCycle:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_simpson_oracle(self, canonical, n):
        sol = equi_multidose(canonical, 100.0, 6.0)
        t = np.linspace((n - 1) * 6.0, n * 6.0, 100_001)
        quad = simpson(sol.x(t), x=t)
        assert auc_cycle(canonical, 100.0, 6.0, n) == pytest.approx(quad, rel=1e-8)

    def test_increasing_in_n_and_bounded_by_single(self, canonical):
        values = [auc_cycle(canonical, 100.0, 6.0, n) for n in range(1, 60)]
        assert all(b > a for a, b in zip(values, values[1:]))
        total = auc_single(canonical, 100.0)
        assert all(v < total for v in values)
        assert values[-1] == pytest.approx(total, rel=1e-4)

    def test_long_interval_approaches_single_from_below(self, canonical):
        total = auc_single(canonical, 100.0)
        one = auc_cycle(canonical, 100.0, 200.0, 1)
        assert one < total
        assert one == pytest.approx(total, rel=1e-6)

    @pytest.mark.parametrize("p", PARAM_SETS[::2], ids=["canonical", "flipflop"])
    @pytest.mark.parametrize("n", [1, 10, 1000])
    def test_against_mpmath(self, p, n):
        # The complements come from expm1; what is left is the difference
        # of the two terms, which cancels as |ka - ke|*tau -> 0.
        for tau in TAUS:
            reference = mp_auc_cycle(p, 100.0, tau, n)
            rtol = 1e-14 + 1e-15 / (abs(p.ka - p.ke) * tau)
            for value in (auc_cycle(p, 100.0, tau, n),
                          cycle_metrics(equi_multidose(p, 100.0, tau), n).auc):
                assert abs(value - reference) <= rtol * reference, tau

    def test_linear_in_dose(self, canonical):
        assert auc_cycle(canonical, 200.0, 6.0, 3) == pytest.approx(
            2.0 * auc_cycle(canonical, 100.0, 6.0, 3), rel=1e-14)


class TestPeak:
    def test_first_cycle_reduces_to_classic_formula(self, canonical):
        p = canonical
        m = peak(p, 100.0, 6.0, 1)
        t_classic = math.log(p.ka / p.ke) / (p.ka - p.ke)
        assert m.t_max == pytest.approx(t_classic, rel=1e-14)
        assert m.x_max == pytest.approx(single_dose(p, 100.0).x(t_classic), rel=1e-12)
        assert m.peak_in_cycle

    @pytest.mark.parametrize("n", [1, 2, 10])
    def test_grid_argmax_oracle(self, canonical, n):
        sol = equi_multidose(canonical, 100.0, 6.0)
        t = np.linspace((n - 1) * 6.0, n * 6.0, 1_000_001)
        x = sol.x(t)
        i = int(np.argmax(x))
        m = peak(canonical, 100.0, 6.0, n)
        assert m.t_max == pytest.approx(t[i], abs=2e-5)
        assert m.x_max == pytest.approx(x[i], rel=1e-6)
        assert m.x_max >= x[i]

    @pytest.mark.parametrize("p", PARAM_SETS, ids=["normal", "fitted", "flipflop"])
    def test_x_max_nondecreasing_in_n(self, p):
        values = [peak(p, 100.0, 5.0, n).x_max for n in range(1, 51)]
        assert all(b >= a * (1 - 1e-13) for a, b in zip(values, values[1:]))

    def test_peak_dominates_uniform_samples(self, canonical):
        n = 3
        m = peak(canonical, 100.0, 6.0, n)
        sol = equi_multidose(canonical, 100.0, 6.0)
        t = np.linspace((n - 1) * 6.0, n * 6.0, 1000)
        assert m.peak_in_cycle
        assert np.all(m.x_max >= sol.x(t) - 1e-12 * m.x_max)

    def test_short_interval_flags_boundary_peak(self):
        # ka close to ke keeps the curve rising past a short cycle.
        p = PkParams(ka=1.0, ke=0.9, gamma=1.0, volume=1.0)
        m = peak(p, 100.0, 0.5, 1)
        assert not m.peak_in_cycle
        assert m.t_max == pytest.approx(0.5)
        sol = equi_multidose(p, 100.0, 0.5)
        t = np.linspace(0.0, 0.5, 10_001)[:-1]
        assert np.all(sol.x(t) <= m.x_max)

    def test_linear_in_dose(self, canonical):
        a = peak(canonical, 100.0, 6.0, 4)
        b = peak(canonical, 200.0, 6.0, 4)
        assert b.x_max == pytest.approx(2.0 * a.x_max, rel=1e-13)
        assert b.t_max == pytest.approx(a.t_max, rel=1e-13)

    def test_rejects_bad_cycle(self, canonical):
        with pytest.raises(ValidationError):
            peak(canonical, 100.0, 6.0, 0)


class TestCycleMetricsForArbitrary:
    def test_matches_quadrature_per_cycle(self, canonical):
        reg = Arbitrary([(120.0, 3.0), (80.0, 5.0), (200.0, 2.0), (60.0, 7.0)])
        sol = arbitrary_multidose(canonical, reg)
        starts = [0.0, 3.0, 8.0, 10.0, 17.0]
        for n in range(1, 5):
            t = np.linspace(starts[n - 1], starts[n], 50_001)
            quad = simpson(sol.x(t), x=t)
            m = cycle_metrics(sol, n)
            assert m.auc == pytest.approx(quad, rel=1e-8)
            assert m.x_max >= np.max(sol.x(t)) - 1e-12 * m.x_max

    def test_boundary_peaks_are_closing_values(self):
        # ka near ke: the short cycles end while x is still rising.
        p = PkParams(1.0, 0.95, 1.0, 1.0)
        taus = [0.1, 0.5, 3.0, 0.2, 0.3]
        sol = arbitrary_multidose(p, Arbitrary([(100.0, tau) for tau in taus]))
        rows = list(cycle_rows(sol, len(taus)))
        assert [CycleMetrics(*row) for row in rows] == [
            cycle_metrics(sol, n) for n in range(1, len(taus) + 1)]
        assert list(cycle_rows(sol, 4, first=2)) == rows[1:4]
        flagged = [m for m in (CycleMetrics(*row) for row in rows) if not m.peak_in_cycle]
        assert flagged
        for m in flagged:
            assert m.t_max == sum(taus[:m.n])
            # The remainder recursion is an independent route to the closing value.
            assert m.x_max == pytest.approx(sol.remainders(m.n)[0], rel=1e-14)
            assert m.x_max == pytest.approx(sol.x(np.nextafter(m.t_max, 0.0)), rel=1e-12)

    def test_falling_cycle_reports_its_opening(self, canonical):
        # After 1000 mg, 1 mg cannot lift x: cycle 2 falls from its start,
        # so its supremum is the opening value, not the closing one.
        sol = arbitrary_multidose(canonical, Arbitrary([(1000.0, 3.0), (1.0, 6.0)]))
        m = cycle_metrics(sol, 2)
        assert not m.peak_in_cycle
        assert m.t_max == 3.0 and m.x_max == sol.x(3.0)
        assert m.x_max >= sol.x(np.linspace(3.0, 9.0, 10_001)).max()

    def test_checks_at_the_call(self):
        sol = arbitrary_multidose(PARAM_SETS[0], Arbitrary([(100.0, 6.0)] * 3))
        with pytest.raises(ValidationError, match="exceeds the 3 cycles"):
            cycle_rows(sol, 4)
        with pytest.raises(ValidationError, match="cycle number must be >= 1"):
            cycle_rows(sol, 2, first=0)


class TestPieceFormsAgainstMpmath:
    """Cycle rows and AUCs read from each cycle's state, against the
    textbook turning point and integral at that state."""

    @staticmethod
    def check(p, row, state, start, span):
        s, ref_x = mp_peak(p, *state, span)
        assert rel(row.t_max, mpmath.mpf(start) + s) <= piece_bound(p, span)
        assert rel(row.x_max, ref_x) <= piece_bound(p, span)
        assert rel(row.auc, mp_area(p, *state, span)) <= piece_bound(p, span)

    @pytest.mark.parametrize("p", NEAR_EQUAL + SPREAD, ids=repr)
    def test_constant_interval(self, p):
        for tau in PIECE_TAUS:
            sol = equi_multidose(p, 100.0, tau)
            for n in (1, 2, 3, 10, 1000):
                state = mp_equi_state(p, 100.0, tau, n)
                self.check(p, cycle_metrics(sol, n), state, (n - 1) * tau, tau)
                assert rel(auc_cycle(p, 100.0, tau, n), mp_area(p, *state, tau)) <= piece_bound(
                    p, n * tau), (tau, n)

    @pytest.mark.parametrize("p", NEAR_EQUAL + SPREAD, ids=repr)
    def test_schedule(self, p):
        for tau in PIECE_TAUS:
            entries = [(d, k * tau) for d, k in SCHEDULE]
            sol = arbitrary_multidose(p, Arbitrary(entries))
            rows = cycle_rows(sol, len(entries))
            for row, state, start, (_, span) in zip(
                    rows, mp_table_states(p, entries), dose_times(sol.regimen), entries):
                self.check(p, CycleMetrics(*row), state, start, span)

    @pytest.mark.parametrize("p", NEAR_EQUAL + SPREAD, ids=repr)
    def test_short_intervals(self, p):
        # The known gap: below PIECE_TAUS the area's zs - ks*E(tau) cancels
        # by about 1/(max(ka, ke)*tau), which extended precision shrinks.
        for tau in SHORT_TAUS:
            reference = mp_area(p, 0, 100.0, tau)
            assert rel(auc_cycle(p, 100.0, tau, 1), reference) <= short_bound(p, tau), tau

    @pytest.mark.parametrize("p", NEAR_EQUAL + SPREAD, ids=repr)
    def test_auc_single(self, p):
        assert rel(auc_single(p, 100.0), mp_auc_single(p, 100.0)) <= 1e-14


def test_cycle_metrics_rejects_bolus_and_fat():
    from multidose.extmodels import (BolusRegimen, FatRegimen, bolus_multidose,
                                     fat_multidose)

    fat = fat_multidose(PARAM_SETS[0], FatRegimen([(100.0, 6.0, 2.0)] * 3))
    bolus = bolus_multidose(0.3, BolusRegimen([(100.0, 6.0)] * 3))
    for sol in (fat, bolus):
        with pytest.raises(ValidationError, match="oral"):
            cycle_metrics(sol, 2)


def test_cycle_rows_rejects_equi_bolus_and_fat():
    # An equi bolus regimen is a window-free EquiDose, as an oral one is:
    # the solution's model, not its regimen, is checked.
    from multidose.core import EquiDose
    from multidose.extmodels import bolus_multidose, fat_multidose
    from multidose.pkmetrics import cycle_rows

    for sol, model in ((bolus_multidose(0.3, EquiDose(100.0, 6.0)), "bolus"),
                       (fat_multidose(PARAM_SETS[0], EquiDose(100.0, 6.0, 2.0)), "fat")):
        with pytest.raises(ValidationError, match=f"expected an oral solution, got a {model}"):
            cycle_rows(sol, 2)
        with pytest.raises(ValidationError, match="oral"):
            cycle_metrics(sol, 2)
