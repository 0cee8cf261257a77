import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multidose.core import (Arbitrary, EqualRateConstants, EquiDose, NonPositiveParameter,
                            PkParams, ValidationError, dose_times)
from multidose.bateman import (
    Bateman,
    PiecewiseSolution,
    arbitrary_multidose,
    decay_difference,
    equi_multidose,
    single_dose,
)
from multidose.oracle import superpose
from multidose.pkmetrics import cycle_metrics

from conftest import rel_err
from mpref import (NEAR_EQUAL, PIECE_TAUS, SCHEDULE, SHORT_TAUS, SPREAD, TAUS, absorption_gain,
                   mp_decay_difference, mp_equi_state, mp_piece,
                   mp_table_states, piece_bound, rel, short_bound)


# Bounded parameter/regimen generators keeping concentrations O(1e3) so
# absolute 1e-10 comparisons stay meaningful.
params_st = st.builds(
    PkParams,
    ka=st.floats(0.2, 3.0),
    ke=st.floats(0.05, 1.5),
    gamma=st.floats(0.3, 3.0),
    volume=st.floats(500.0, 5000.0),
).filter(lambda p: abs(p.ka - p.ke) > 1e-3 * max(p.ka, p.ke))

entries_st = st.lists(
    st.tuples(st.floats(50.0, 800.0), st.floats(1.0, 12.0)),
    min_size=1, max_size=12,
)


class TestSingleDose:
    def test_starts_at_zero(self, canonical):
        assert single_dose(canonical, 123.0).x(0.0) == 0.0

    def test_gut_halves_at_log_two(self):
        p = PkParams(ka=math.log(2.0), ke=0.05, gamma=1.0, volume=1.0)
        assert single_dose(p, 80.0).y(1.0) == pytest.approx(40.0, rel=1e-14)

    def test_against_rk4_oracle(self, clarithromycin):
        from rk4 import OracleConfig, integrate_ode

        curve = single_dose(clarithromycin, 250.0)
        traj = integrate_ode(clarithromycin, Arbitrary([(250.0, 24.0)]), 24.0,
                             OracleConfig(step=1e-3))
        xc = curve.x(traj.times)
        assert np.max(np.abs(traj.x - xc)) / xc.max() < 1e-8

    def test_dose_must_be_positive(self, canonical):
        with pytest.raises(ValidationError):
            single_dose(canonical, 0.0)

    @pytest.mark.parametrize("t", [-1.0, [0.5, -1e-300], [[1.0], [-2.0]]],
                             ids=["scalar", "1-D", "2-D"])
    def test_negative_and_nan_times_are_rejected(self, canonical, t):
        # As for a multi-dose trajectory: before the dose x would be negative
        # and y would exceed the dose.
        curve = single_dose(canonical, 100.0)
        nan = np.where(np.asarray(t) < 0.0, math.nan, t)
        for call in (curve.x, curve.y, curve, curve.evaluate, curve.cycle_index):
            with pytest.raises(ValidationError, match="t >= 0 only"):
                call(t)
            with pytest.raises(ValidationError, match="query time must be finite, got nan"):
                call(nan if np.ndim(t) else float(nan))
        assert np.shape(curve.x(np.abs(t))) == np.shape(t)

    def test_is_the_one_entry_solution(self, canonical):
        curve = single_dose(canonical, 100.0)
        assert isinstance(curve, PiecewiseSolution) and curve.n_cycles == 1
        assert curve.cycle_index([0.0, 1e300, math.inf]).tolist() == [1, 1, 1]
        assert [curve.cycle_index(t) for t in (0.0, 1e300, math.inf)] == [1, 1, 1]
        assert curve.remainders(0) == (0.0, 0.0)

    @pytest.mark.parametrize("p", [PkParams(1.0, 0.1, 1.0, 1.0), PkParams(0.1, 1.0, 2.0, 5.0),
                                   PkParams(0.748, 0.2031, 19.1933, 5000.0)],
                             ids=["normal", "flipflop", "clarithromycin"])
    def test_evaluate_is_the_piece_kernel_bit_for_bit(self, p):
        # The piece entering at (0, d), read past its interval to t = inf.
        b = Bateman.of(p)
        t = np.array([0.0, float(b.peak(0.0, 250.0)[0]), 1e6, math.inf])
        x, y, cycle = single_dose(p, 250.0).evaluate(t)
        assert x.tobytes() == b.x(0.0, 250.0, t).tobytes()
        assert y.tobytes() == b.y(250.0, t).tobytes()
        assert cycle.tolist() == [1, 1, 1, 1]
        for i, s in enumerate(t.tolist()):
            xs, ys, cs = single_dose(p, 250.0).evaluate(s)
            assert (type(xs), type(ys), type(cs)) == (float, float, int)
            assert (xs, ys, cs) == (x[i], y[i], 1)

    @pytest.mark.parametrize("p,d,error,message", [
        (PkParams(-1.0, 0.1, 1.0, 1.0), 100.0, NonPositiveParameter,
         "ka must be > 0 and finite, got -1.0"),
        (PkParams(0.1, 0.1, 1.0, 1.0), 100.0, EqualRateConstants,
         "ka=0.1 and ke=0.1 are equal within relative tolerance 1e-09"),
        (PkParams(1.0, 0.1, 1.0, 1.0), math.inf, NonPositiveParameter,
         "dose must be > 0 and finite, got inf"),
        (PkParams(1.0, 0.1, 1.0, 1.0), -5.0, NonPositiveParameter,
         "dose must be > 0 and finite, got -5.0"),
        (PkParams(1.0, 0.1, 0.0, 1.0), math.nan, NonPositiveParameter,
         "gamma must be > 0 and finite, got 0.0"),
        (PkParams(1.0, 0.1, 1.0, math.nan), 0.0, NonPositiveParameter,
         "volume must be > 0 and finite, got nan"),
    ], ids=["ka", "equal-rates", "dose-inf", "dose-negative", "gamma-and-dose",
            "volume-and-dose"])
    def test_parameters_then_dose_are_checked(self, p, d, error, message):
        # The parameters first, then the dose: one message, naming the first fault.
        with pytest.raises(error) as info:
            single_dose(p, d)
        assert str(info.value).startswith(message)

    def test_flip_flop_label_swap_degeneracy(self):
        # Swapping the rate labels multiplies the curve by ke/ka; scaling
        # gamma by ka/ke restores the identical trajectory.
        p = PkParams(ka=1.2, ke=0.3, gamma=2.0, volume=50.0)
        q = PkParams(ka=0.3, ke=1.2, gamma=2.0 * 1.2 / 0.3, volume=50.0)
        t = np.linspace(0.0, 30.0, 400)
        assert rel_err(single_dose(q, 100.0).x(t[1:]),
                       single_dose(p, 100.0).x(t[1:])) < 1e-12

    @pytest.mark.parametrize("p", NEAR_EQUAL + SPREAD, ids=repr)
    def test_against_mpmath_at_any_rate_separation(self, p):
        # The piece entering at (0, d): the two-exponential difference
        # e^{-ke t} - e^{-ka t} would lose 1/(ka/ke - 1) of its digits.
        t = [0.05, 0.5, 5.5, 17.3, 47.9]
        x, y = single_dose(p, 100.0)(t)
        for s, xs, ys in zip(t, x.tolist(), y.tolist()):
            ref_x, ref_y = mp_piece(p, 0, 100, s)
            assert rel(xs, ref_x) <= piece_bound(p, s), s
            assert rel(ys, ref_y) <= piece_bound(p, s), s


@pytest.mark.parametrize("p", NEAR_EQUAL + SPREAD, ids=repr)
def test_decay_difference_against_mpmath(p):
    values = decay_difference(p.ka, p.ke, TAUS)
    assert values.shape == TAUS.shape
    for tau, value in zip(TAUS.tolist(), values.tolist()):
        reference = mp_decay_difference(p.ka, p.ke, tau)
        for v in (value, decay_difference(p.ka, p.ke, tau)):
            assert abs(v - reference) <= 2e-15 * reference, tau
        assert decay_difference(p.ke, p.ka, tau) == decay_difference(p.ka, p.ke, tau)


class TestEquiMultidose:
    def test_first_cycle_is_the_single_dose(self, canonical):
        sol = equi_multidose(canonical, 100.0, 6.0)
        x0, y0, _ = sol._pieces(1)
        assert (x0.tolist(), y0.tolist()) == ([0.0], [100.0])
        t = np.linspace(0.0, 6.0, 601)[:-1]
        assert np.array_equal(sol.x(t), single_dose(canonical, 100.0).x(t))

    def test_huge_interval_reduces_to_single_dose(self, canonical):
        sol = equi_multidose(canonical, 100.0, 1e6)
        curve = single_dose(canonical, 100.0)
        t = np.linspace(1e-3, 100.0, 500)
        assert rel_err(sol.x(t), curve.x(t)) <= 1e-12
        assert rel_err(sol.y(t), curve.y(t)) <= 1e-12

    def test_value_frozen_from_superposition_oracle(self, canonical):
        # Two shifted single-dose responses contribute at t=10 (tau=6).
        sol = equi_multidose(canonical, 100.0, 6.0)
        assert sol.x(10.0) == pytest.approx(113.31538315428725, rel=1e-13)

    @pytest.mark.parametrize("p", NEAR_EQUAL + SPREAD, ids=repr)
    def test_cycle_state_against_mpmath(self, p):
        # x0 adds the transient's cancellation, 2^-60/(max(ka, ke)*tau),
        # the known short-interval gap.
        for tau in TAUS:
            x0, y0, _ = equi_multidose(p, 100.0, tau)._pieces(10)
            ref_x, ref_y = mp_equi_state(p, 100.0, tau, 10)
            assert rel(float(x0[0]), ref_x) <= 2e-15 + 2.0 ** -60 / (max(p.ka, p.ke) * tau), tau
            assert rel(float(y0[0]), ref_y) <= 2e-15, tau

    @pytest.mark.parametrize("tau", [1e-12, 1e-17, 1e-30, 1e-300])
    def test_tiny_interval_stays_finite(self, canonical, tau):
        x, y = equi_multidose(canonical, 100.0, tau)(np.array([0.0, 5.5 * tau, 1e3 * tau]))
        assert np.all(np.isfinite(x)) and np.all(np.isfinite(y))

    def test_matches_superposition_through_many_cycles(self, canonical):
        sol = equi_multidose(canonical, 100.0, 6.0)
        ref = superpose(canonical, EquiDose(100.0, 6.0))
        t = np.linspace(0.0, 120.0, 2400)
        assert np.max(np.abs(sol.x(t) - ref(t))) <= 1e-10


class TestArbitraryMultidose:
    def test_constant_entries_reproduce_equi(self, canonical):
        equi = equi_multidose(canonical, 100.0, 6.0)
        arb = arbitrary_multidose(canonical, Arbitrary([(100.0, 6.0)] * 15))
        t = np.linspace(0.0, 89.9, 3000)
        assert rel_err(arb.x(t[1:]), equi.x(t[1:])) <= 1e-12
        assert rel_err(arb.y(t), equi.y(t)) <= 1e-12

    def test_one_entry_equals_single_dose(self, canonical):
        arb = arbitrary_multidose(canonical, Arbitrary([(100.0, 8.0)]))
        curve = single_dose(canonical, 100.0)
        t = np.linspace(0.0, 8.0, 200)
        peak = curve.x(t).max()
        assert np.max(np.abs(arb.x(t) - curve.x(t))) <= 1e-12 * peak

    def test_skipped_then_doubled_dose_rejoins_periodic(self, canonical):
        # 250 mg q4h, third intake skipped and compensated by a double
        # dose at the next scheduled time.
        skip = arbitrary_multidose(canonical, Arbitrary(
            [(250.0, 4.0), (250.0, 8.0), (500.0, 4.0)] + [(250.0, 4.0)] * 9))
        periodic = equi_multidose(canonical, 250.0, 4.0)
        ref = superpose(canonical, skip.regimen)
        t = np.linspace(0.0, 56.0, 5601)
        assert np.max(np.abs(skip.x(t) - ref(t))) <= 1e-10
        gap_40 = abs(skip.x(40.0) - periodic.x(40.0))
        assert gap_40 == pytest.approx(5.56884962393724, rel=1e-10)
        # The perturbation decays: much closer at t=96 than right after
        # the double dose.
        gap_16 = abs(skip.x(16.0) - periodic.x(16.0))
        assert gap_40 < 0.1 * gap_16

    def test_beyond_last_interval_keeps_decaying(self, canonical):
        arb = arbitrary_multidose(canonical, Arbitrary([(100.0, 4.0), (100.0, 4.0)]))
        ref = superpose(canonical, arb.regimen)
        t = np.linspace(8.0, 40.0, 300)
        assert np.max(np.abs(arb.x(t) - ref(t))) <= 1e-10


class TestPieceStatesAgainstMpmath:
    """x, y and remainders(n) are the piece entering at each cycle's state,
    checked at the offset s = t - t_start the evaluator forms (exact, by
    Sterbenz's lemma, once t_start >= s)."""

    @pytest.mark.parametrize("p", NEAR_EQUAL + SPREAD, ids=repr)
    def test_constant_interval(self, p):
        for tau in PIECE_TAUS:
            sol = equi_multidose(p, 100.0, tau)
            bound = piece_bound(p, tau)
            for n in (1, 2, 3, 10, 1000):
                for theta in (0.0, 0.37, 0.9):
                    t = (n - 1) * tau + theta * tau
                    x, y, cycle = sol.evaluate(t)
                    s = mpmath.mpf(t) - mpmath.mpf((cycle - 1) * tau)
                    ref_x, ref_y = mp_piece(p, *mp_equi_state(p, 100.0, tau, cycle), s)
                    assert rel(x, ref_x) <= bound and rel(y, ref_y) <= bound, (tau, n, theta)
                ref_x, ref_y = mp_piece(p, *mp_equi_state(p, 100.0, tau, n), tau)
                rem_x, rem_y = sol.remainders(n)
                assert rel(rem_x, ref_x) <= bound and rel(rem_y, ref_y) <= bound, (tau, n)

    @pytest.mark.parametrize("p", NEAR_EQUAL + SPREAD, ids=repr)
    def test_schedule(self, p):
        for tau in PIECE_TAUS:
            entries = [(d, k * tau) for d, k in SCHEDULE]
            sol = arbitrary_multidose(p, Arbitrary(entries))
            states, starts = mp_table_states(p, entries), dose_times(sol.regimen)
            bound = piece_bound(p, 3.0 * tau)
            for n, (_, span) in enumerate(entries, start=1):
                for theta in (0.0, 0.37, 0.9):
                    t = starts[n - 1] + theta * span
                    x, y, cycle = sol.evaluate(t)
                    s = mpmath.mpf(t) - mpmath.mpf(starts[cycle - 1])
                    ref_x, ref_y = mp_piece(p, *states[cycle - 1], s)
                    assert rel(x, ref_x) <= bound and rel(y, ref_y) <= bound, (tau, n, theta)
                ref_x, ref_y = mp_piece(p, *states[n - 1], span)
                rem_x, rem_y = sol.remainders(n)
                assert rel(rem_x, ref_x) <= bound and rel(rem_y, ref_y) <= bound, (tau, n)


    @pytest.mark.parametrize("p", NEAR_EQUAL + SPREAD, ids=repr)
    def test_short_intervals(self, p):
        # The known gap: below PIECE_TAUS the constant-interval state cancels
        # by about 1/(max(ka, ke)*tau), which extended precision shrinks.
        for tau in SHORT_TAUS:
            sol = equi_multidose(p, 100.0, tau)
            t = 9.5 * tau
            s = mpmath.mpf(t) - mpmath.mpf(9 * tau)
            ref_x, _ = mp_piece(p, *mp_equi_state(p, 100.0, tau, 10), s)
            assert rel(sol.x(t), ref_x) <= short_bound(p, tau), tau

    @pytest.mark.parametrize("tau", [5e-324, 1e-320, 1e-300, 1e300, 1.7e308])
    @pytest.mark.parametrize("p", [PkParams(2.0, 0.1, 1.0, 1.0), PkParams(0.1, 2.0, 1.0, 1.0),
                                   PkParams(1.0 + 1e-8, 1.0, 1.0, 1.0)], ids=repr)
    def test_extreme_intervals_give_numbers(self, p, tau):
        # Overflowing |ka - ke|*tau and underflowing rate products are
        # answers, not NaN.
        sol = equi_multidose(p, 100.0, tau)
        assert sol.x(0.0) == 0.0 and sol.y(0.0) == 100.0
        values = [*sol.evaluate(0.5 * tau)[:2], *sol.remainders(1), *sol.remainders(2)]
        row = cycle_metrics(sol, 1)
        values += [row.auc, row.t_max, row.x_max]
        assert not any(math.isnan(v) for v in values), values


class TestRemainders:
    def test_base_case_is_zero(self, canonical):
        sol = equi_multidose(canonical, 100.0, 6.0)
        assert sol.remainders(0) == (0.0, 0.0)

    def test_equi_closed_form(self, canonical):
        sol = equi_multidose(canonical, 100.0, 6.0)
        g = absorption_gain(canonical) * 100.0
        a, b = math.exp(-6.0), math.exp(-0.6)
        for n in (1, 2, 5, 20):
            expected = g * ((1 - b ** n) / (1 - b) * b - (1 - a ** n) / (1 - a) * a)
            assert sol.remainders(n)[0] == pytest.approx(expected, rel=1e-13)

    def test_frozen_value_and_oracle_agreement(self, canonical):
        sol = equi_multidose(canonical, 100.0, 6.0)
        rem_x, rem_y = sol.remainders(3)
        assert rem_x == pytest.approx(112.53553606764616, rel=1e-12)
        assert rem_y == pytest.approx(0.2484911618999432, rel=1e-12)
        ref = superpose(canonical, EquiDose(100.0, 6.0), n_doses=3)
        assert abs(rem_x - ref(18.0)) <= 1e-10

    def test_recursion_equals_double_product_sum(self, canonical):
        # O(n) remainder recursion against the explicit double sum
        # Rem_y = sum_i prod_{j>=i} d_i alpha_j (and the x analogue).
        entries = [(120.0, 3.0), (80.0, 5.0), (200.0, 2.0), (60.0, 7.0), (150.0, 4.0)]
        sol = arbitrary_multidose(canonical, Arbitrary(entries))
        p = canonical
        alphas = [math.exp(-p.ka * tau) for _, tau in entries]
        betas = [math.exp(-p.ke * tau) for _, tau in entries]
        doses = [d for d, _ in entries]
        for n in range(1, len(entries) + 1):
            rem_y = sum(doses[i] * math.prod(alphas[i:n]) for i in range(n))
            rem_x = absorption_gain(p) * (
                sum(doses[i] * math.prod(betas[i:n]) for i in range(n))
                - sum(doses[i] * math.prod(alphas[i:n]) for i in range(n)))
            got_x, got_y = sol.remainders(n)
            assert got_y == pytest.approx(rem_y, rel=1e-12)
            assert got_x == pytest.approx(rem_x, rel=1e-12)


class TestInvariants:
    @settings(max_examples=30, deadline=None)
    @given(p=params_st, entries=entries_st)
    def test_superposition(self, p, entries):
        reg = Arbitrary(entries)
        sol = arbitrary_multidose(p, reg)
        ref = superpose(p, reg)
        horizon = sum(tau for _, tau in entries)
        t = np.linspace(0.0, horizon, 500)
        assert np.max(np.abs(sol.x(t) - ref(t))) <= 1e-10

    @settings(max_examples=30, deadline=None)
    @given(p=params_st, entries=entries_st)
    def test_continuity_and_jump_at_dose_times(self, p, entries):
        reg = Arbitrary(entries)
        sol = arbitrary_multidose(p, reg)
        for n in range(1, len(entries)):
            # Cycle n's piece in the classic two-exponential form, run over
            # its interval, meets the recursion's state entering cycle n + 1.
            x0, y0, span = (float(v[0]) for v in sol._pieces(n))
            x_right, y_right = (float(v[0]) for v in sol._pieces(n + 1)[:2])
            alpha, beta = math.exp(-p.ka * span), math.exp(-p.ke * span)
            x_left = x0 * beta + absorption_gain(p) * y0 * (beta - alpha)
            assert abs(x_left - x_right) <= 1e-12 * max(1.0, abs(x_right))
            y_left = y0 * alpha
            assert y_right - y_left == pytest.approx(entries[n][0], rel=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(p=params_st, entries=entries_st)
    def test_positivity(self, p, entries):
        sol = arbitrary_multidose(p, Arbitrary(entries))
        horizon = sum(tau for _, tau in entries)
        t = np.linspace(1e-6, 2.0 * horizon, 400)
        assert np.all(sol.x(t) > 0.0)

    def test_ode_oracle_ten_cycles(self, canonical):
        from rk4 import OracleConfig, integrate_ode

        sol = equi_multidose(canonical, 100.0, 6.0)
        traj = integrate_ode(canonical, EquiDose(100.0, 6.0), 60.0,
                             OracleConfig(step=1e-3))
        xc = sol.x(traj.times)
        assert np.max(np.abs(traj.x - xc)) / xc.max() <= 1e-6

    def test_negative_time_rejected(self, canonical):
        sol = equi_multidose(canonical, 100.0, 6.0)
        with pytest.raises(ValidationError):
            sol.x(-1.0)


class TestEquiLookup:
    @pytest.mark.parametrize("tau", [0.1, 1.0 / 3.0, 12.0, 1e-8])
    def test_dose_instants_match_grid_search(self, canonical, tau):
        sol = equi_multidose(canonical, 100.0, tau)
        grid = np.arange(1_000_001, dtype=float) * tau
        below = np.nextafter(grid[1:], 0.0)
        above = np.nextafter(grid, np.inf)
        for t in (grid, below, above):
            expected = np.searchsorted(grid, t, side="right")
            assert np.array_equal(sol.cycle_index(t), expected)

    def test_far_horizon_query_returns(self, canonical):
        sol = equi_multidose(canonical, 100.0, 1.0)
        assert sol.cycle_index(1e12) == 10**12 + 1
        x, y = sol(1e12)
        assert x == sol.x(1e12) > 0.0
        assert y == pytest.approx(100.0 / (1.0 - math.exp(-canonical.ka)), rel=1e-9)
        with pytest.raises(ValidationError, match="2\\*\\*53"):
            equi_multidose(canonical, 100.0, 1e-8).x(1e12)

    def test_every_query_shape(self, canonical):
        sol = equi_multidose(canonical, 100.0, 6.0)
        assert sol.x(np.array([])).shape == (0,)
        x, y, cycle = sol.evaluate(np.array([]))
        assert x.shape == y.shape == cycle.shape == (0,)
        grid = np.linspace(0.0, 30.0, 12).reshape(3, 4)
        assert sol.x(grid).shape == (3, 4)
        assert np.array_equal(sol.x(grid).ravel(), sol.x(grid.ravel()))
        assert isinstance(sol.cycle_index(6.0), int)
        assert isinstance(sol.x(np.float64(6.0)), float)
