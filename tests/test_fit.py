import math
import re
import warnings

import mpmath
import numpy as np
import pytest

from multidose import fit
from multidose.core import (
    ConcentrationSeries,
    InsufficientData,
    NoConvergence,
    PkParams,
    ValidationError,
    validate_params,
)
from multidose.bateman import single_dose
from multidose.fit import fit_batch, fit_single_dose, predict

from mpref import DIGITS, NEAR_EQUAL, SPREAD, mp_curve_jacobian, piece_bound, rel

SAMPLE_TIMES = np.array([0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 6.5, 8.0,
                         10.0, 12.0])


def synth_series(p, d=250.0, noise=0.0, rng=None):
    clean = single_dose(p, d).x(SAMPLE_TIMES)
    values = clean
    if noise:
        values = np.maximum(clean + rng.normal(0.0, noise * clean.max(),
                                               size=clean.size), 0.0)
    return ConcentrationSeries(SAMPLE_TIMES.tolist(), values.tolist())


class TestRecovery:
    def test_noiseless_round_trip(self, clarithromycin):
        series = synth_series(clarithromycin)
        result = fit_single_dose(series, 250.0, 5000.0)
        p = result.params
        assert p.ka == pytest.approx(clarithromycin.ka, rel=1e-6)
        assert p.ke == pytest.approx(clarithromycin.ke, rel=1e-6)
        assert p.gamma == pytest.approx(clarithromycin.gamma, rel=1e-6)
        assert result.r2 == pytest.approx(1.0, abs=1e-12)
        assert result.covariance_status == "ok"

    def test_supplied_initial_guess(self, clarithromycin):
        series = synth_series(clarithromycin)
        init = PkParams(ka=2.0, ke=0.05, gamma=5.0, volume=5000.0)
        result = fit_single_dose(series, 250.0, 5000.0, init=init)
        assert result.params.ka == pytest.approx(clarithromycin.ka, rel=1e-6)

    def test_monte_carlo_three_se_coverage(self, clarithromycin):
        rng = np.random.default_rng(12345)
        covered = 0
        reps = 60
        truth = (clarithromycin.ka, clarithromycin.ke, clarithromycin.gamma)
        for _ in range(reps):
            series = synth_series(clarithromycin, noise=0.02, rng=rng)
            result = fit_single_dose(series, 250.0, 5000.0)
            assert result.stderr is not None
            covered += all(
                abs(est - tru) <= 3.0 * se
                for est, tru, se in zip(
                    (result.params.ka, result.params.ke, result.params.gamma),
                    truth, result.stderr))
        assert covered / reps >= 0.95

    def test_two_points_insufficient(self):
        series = ConcentrationSeries([1.0, 2.0], [0.5, 0.4])
        with pytest.raises(InsufficientData):
            fit_single_dose(series, 250.0, 5000.0)

    def test_flip_flop_convergence_reported_unswapped(self):
        # The labeling is degenerate up to a gain rescale, so the basin is
        # chosen by the initial guess; a fit converging with ka < ke must
        # be reported as-is.
        truth = PkParams(ka=0.15, ke=0.9, gamma=40.0, volume=5000.0)
        series = synth_series(truth)
        init = PkParams(ka=0.2, ke=1.0, gamma=30.0, volume=5000.0)
        result = fit_single_dose(series, 250.0, 5000.0, init=init)
        assert result.params.ka == pytest.approx(truth.ka, rel=1e-5)
        assert result.params.ke == pytest.approx(truth.ke, rel=1e-5)
        assert result.params.ka < result.params.ke


class TestObjectivePath:
    def test_sse_never_increases_across_accepted_steps(self, clarithromycin):
        rng = np.random.default_rng(11)
        series = synth_series(clarithromycin, noise=0.05, rng=rng)
        init = PkParams(ka=3.0, ke=0.02, gamma=2.0, volume=5000.0)
        result = fit_single_dose(series, 250.0, 5000.0, init=init)
        path = result.sse_path
        assert len(path) >= 2
        assert all(b <= a for a, b in zip(path, path[1:]))
        assert path[-1] == result.sse


class TestRejectedTrials:
    # One Monte Carlo replicate of `multidose fit --mc-reps` (seed 267191831)
    # whose LM search tries a step that underflows ka to 0.0.
    TIMES = [0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 10.0, 12.0, 16.0, 24.0]
    VALUES = [0.2943741300334129, 0.44602541479278174, 0.5516901749935504,
              0.5738280671892867, 0.5415662194222128, 0.498581241533306,
              0.3682936909441243, 0.25378135474037167, 0.15648044474686973,
              0.09844657199484141, 0.08185656631272362, 0.0]

    def test_underflowing_trial_is_rejected_silently(self, monkeypatch):
        tried = []
        model = fit._model_and_jacobian

        def spy(theta, *args):
            tried.append(np.exp(theta))
            return model(theta, *args)

        monkeypatch.setattr(fit, "_model_and_jacobian", spy)
        series = ConcentrationSeries(self.TIMES, self.VALUES)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = fit_single_dose(series, 250.0, 5000.0)
        assert any(np.any(rates[..., 0] == 0.0) for rates in tried)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        # The fit's values, bit for bit, as with warnings enabled.
        assert result.params == PkParams(ka=0.8460261261176343,
                                         ke=0.19122354490637714,
                                         gamma=17.77874569637761,
                                         volume=5000.0)
        assert result.sse == 0.002033335288851837
        assert result.r2 == 0.9955529583792159
        assert result.stderr == (0.06111643195454438, 0.011150625204586343,
                                 0.7261040992419943)
        assert result.covariance_status == "ok"
        assert result.n_iterations == 30
        assert len(result.sse_path) == 31
        assert result.sse_path[:2] == (1.099417696811625, 0.8881377897690365)


def outcome(result):
    """Every field of a fit's outcome, as exact values."""
    if isinstance(result, NoConvergence):
        return (type(result), str(result), result.context, type(result.__cause__))
    return (result.params, result.sse, result.r2, result.stderr,
            result.covariance_status, result.n_points, result.n_iterations,
            result.sse_path)


def single_outcome(times, values):
    try:
        return outcome(fit_single_dose(ConcentrationSeries(times, values), 250.0, 5000.0))
    except NoConvergence as exc:
        return outcome(exc)


class TestBatch:
    # fit-mc sample times, 30% noise: three replicates that fail the fit in
    # the three ways a row can.
    TIMES = TestRejectedTrials.TIMES
    LIMIT = [0.5792508174277606, 0.5604136619898338, 0.2752305765317341,
             0.9366377037341751, 0.5075806891829896, 0.36484038498559285,
             0.6323717629569625, 0.24744292915624894, 0.10789916246249165,
             0.15320878038509259, 0.19872936895160218, 0.18364191158475413]
    INVALID = [0.16958574218975164, 0.42905317942219834, 0.6794211699381465,
               0.8434393229433068, 0.3565937244718288, 0.7830654214150743,
               0.6098392438295258, 0.392665412396624, 0.21831144378022724,
               0.060122085452616846, 0.3058693712398791, 0.3526039844408055]
    SINGULAR = [0.42470372026054126, 0.36845903874112396, 0.5709699685336501,
                0.3565941215638503, 0.4941599171251006, 0.7593052347621143,
                0.39837592874717126, 0.6598552995294094, 0.034544119891633085,
                0.21637780189716455, 0.01692855230923314, 0.10893642394385358]

    def good_rows(self, n=6):
        truth = PkParams(ka=0.748, ke=0.2031, gamma=19.1933, volume=5000.0)
        clean = single_dose(truth, 250.0).x(np.array(self.TIMES))
        rng = np.random.default_rng(2024)
        noise = rng.normal(0.0, 0.02 * clean.max(), size=(n, clean.size))
        return np.maximum(clean + noise, 0.0)

    def test_three_ways_a_row_fails(self):
        limit, invalid, singular = fit_batch(
            self.TIMES, [self.LIMIT, self.INVALID, self.SINGULAR], 250.0, 5000.0)
        assert "iteration limit" in str(limit)
        assert limit.context["iterations"] == fit.MAX_ITERATIONS
        assert "invalid parameter vector" in str(invalid)
        assert isinstance(invalid.__cause__, ValidationError)
        assert singular.stderr is None and singular.covariance_status == "singular"

    def test_every_row_equals_its_single_fit(self):
        rows = np.vstack([self.good_rows(3), self.LIMIT, self.INVALID,
                          self.SINGULAR, self.good_rows(2)])
        batch = fit_batch(self.TIMES, rows, 250.0, 5000.0)
        assert len(batch) == len(rows)
        for row, result in zip(rows, batch):
            assert outcome(result) == single_outcome(self.TIMES, row.tolist())

    def test_failing_rows_leave_good_rows_unchanged(self):
        good = self.good_rows()
        alone = fit_batch(self.TIMES, good, 250.0, 5000.0)
        mixed = fit_batch(self.TIMES, np.vstack([self.LIMIT, good[:3], self.INVALID,
                                                 self.SINGULAR, good[3:]]),
                          250.0, 5000.0)
        kept = [mixed[i] for i in (1, 2, 3, 6, 7, 8)]
        assert [outcome(r) for r in kept] == [outcome(r) for r in alone]
        assert all(r.covariance_status == "ok" for r in alone)

    def test_supplied_initial_guess_is_shared(self):
        init = PkParams(ka=2.0, ke=0.05, gamma=5.0, volume=5000.0)
        rows = self.good_rows(3)
        batch = fit_batch(self.TIMES, rows, 250.0, 5000.0, init=init)
        for row, result in zip(rows, batch):
            alone = fit_single_dose(ConcentrationSeries(self.TIMES, row.tolist()),
                                    250.0, 5000.0, init=init)
            assert outcome(result) == outcome(alone)

    def test_singular_system_fails_only_its_row(self):
        a = np.array([np.eye(3) * 2.0, np.zeros((3, 3)),
                      [[4.0, 1.0, 0.0], [1.0, 3.0, 0.0], [0.0, 0.0, 1.0]]])
        b = np.arange(9.0).reshape(3, 3, 1)
        steps = fit._solve(a, b)
        assert np.isnan(steps[1]).all()
        for i in (0, 2):
            assert np.array_equal(steps[i], np.linalg.solve(a[i], b[i, :, 0]))

    def test_bad_batch_arguments_raise(self):
        with pytest.raises(InsufficientData):
            fit_batch([1.0, 2.0, 3.0], [[1.0, 0.5, 0.2]], 250.0, 5000.0)
        with pytest.raises(ValidationError):
            fit_batch(self.TIMES, self.good_rows(2), 0.0, 5000.0)
        with pytest.raises(ValidationError):
            fit_batch(self.TIMES[:-1], self.good_rows(2), 250.0, 5000.0)

    @pytest.mark.parametrize("change", [
        (-1, math.nan), (-1, math.inf), (-1, 1.0), (0, -1.0), (5, TestRejectedTrials.TIMES[4]),
    ], ids=["nan-last", "inf-last", "decreasing", "negative", "repeated"])
    def test_times_follow_the_series_rule(self, change, capfd):
        times = list(self.TIMES)
        times[change[0]] = change[1]
        with pytest.raises(ValidationError) as series:
            ConcentrationSeries(times, self.good_rows(1)[0].tolist())
        with pytest.raises(ValidationError, match=f"^{re.escape(str(series.value))}$"):
            fit_batch(times, self.good_rows(2), 250.0, 5000.0)
        assert capfd.readouterr() == ("", "")


def per_row_guess(t, c, d, v):
    """The starting point of one row, computed alone: the reference the
    grouped `fit._initial_guess` must equal bit for bit."""
    tt, cc = t[-3:], c[-3:]
    positive = cc > 0.0
    slope = (np.polyfit(tt[positive], np.log(cc[positive]), 1)[0]
             if positive.sum() >= 2 else np.nan)
    ke = -slope if slope < 0.0 else 1.0 / max(t[-1], 1e-6)
    ka = 5.0 * ke
    validate_params(PkParams(ka=ka, ke=ke, gamma=1.0, volume=v))
    # The unit curve with ka = 5*ke peaks at t = log(5)/(4*ke), where
    # (d/V)*ka*(e^{-ke t} - e^{-ka t})/(ka - ke) = (d/V)*5^(-1/4).
    unit_peak = d / v * 5.0 ** -0.25
    gamma = max(c.max(), 1e-12) / unit_peak if unit_peak > 0 else 1.0
    return np.log(np.array([ka, ke, gamma]))


class TestInitialGuess:
    TIMES = np.array(TestRejectedTrials.TIMES)

    def rows(self, n, seed):
        """Noisy single-dose curves (rates scaled 0.5-2x, noise 0.005-1.0 of
        the peak) whose last three samples take each of the 8 sign patterns
        in turn, a non-positive sample being 0 or negative."""
        rng = np.random.default_rng(seed)
        ka, ke = (np.array([[0.748], [0.2031]]) * rng.uniform(0.5, 2.0, (2, n)))[..., None]
        clean = (np.exp(-ke * self.TIMES) - np.exp(-ka * self.TIMES)) / (ka - ke)
        clean /= clean.max(axis=1)[:, None]
        rows = clean + rng.normal(0.0, 1.0, clean.shape) * rng.uniform(0.005, 1.0, (n, 1))
        pattern = np.arange(n) % 8
        for j, column in enumerate(range(-3, 0)):
            tail = np.abs(rows[:, column])
            drop = np.where(rng.random(n) < 0.5, 0.0, -tail)
            rows[:, column] = np.where((pattern >> j) & 1 == 1, tail, drop)
        return rows

    @staticmethod
    def bits(guess):
        return guess.view(np.uint64)

    def test_grouped_equals_per_row(self):
        rows = self.rows(12_000, seed=15)
        grouped = fit._initial_guess(self.TIMES, rows, 250.0, 5000.0)
        alone = np.array([per_row_guess(self.TIMES, r, 250.0, 5000.0) for r in rows])
        assert np.array_equal(self.bits(grouped), self.bits(alone))
        patterns = (rows[:, -3:] > 0.0) @ [1, 2, 4]
        assert set(patterns.tolist()) == set(range(8))

    def test_row_alone_equals_row_in_batch(self):
        rows = self.rows(40, seed=16)
        batch = fit._initial_guess(self.TIMES, rows, 250.0, 5000.0)
        for row, guess in zip(rows, batch):
            alone = fit._initial_guess(self.TIMES, row[None, :], 250.0, 5000.0)
            assert np.array_equal(self.bits(alone[0]), self.bits(guess))

    @pytest.mark.parametrize("last", [np.inf, np.nan])
    def test_invalid_start_raises_as_alone(self, last):
        # 5*ke from a log-slope cannot overflow: the logs of doubles span
        # about 1,454, over times whose squares do not underflow. A
        # non-finite last time makes the fallback ke = 1/t[-1] zero or NaN,
        # and ka = 5*ke with it. Row 0 has no positive tail sample; no row
        # has a positive last one.
        times = np.append(self.TIMES[:-1], last)
        rows = self.rows(4, seed=17)
        with pytest.raises(ValidationError) as alone, warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            per_row_guess(times, rows[0], 250.0, 5000.0)
        with pytest.raises(type(alone.value), match=f"^{re.escape(str(alone.value))}$"):
            fit._initial_guess(times, rows, 250.0, 5000.0)

    def test_underflowing_tail_times_raise(self):
        times = [0.0, 1e-323, 2e-323, 3e-323]
        values = [1.0, 1.0, 1e300, 1e-300]
        with pytest.raises(ValidationError, match=r"sample times \[1e-323, 2e-323, 3e-323\]"):
            fit_batch(times, [values], 250.0, 5000.0)
        with pytest.raises(ValidationError, match="squares underflow"):
            fit_single_dose(ConcentrationSeries(times, values), 250.0, 5000.0)


class TestJacobian:
    @pytest.mark.parametrize("p", NEAR_EQUAL + SPREAD, ids=repr)
    def test_against_mpmath_at_any_rate_separation(self, p):
        # dx/dka changes sign, so it is measured against max(|dx/dka|, x/ka).
        t = np.array([0.05, 0.5, 5.5, 17.3, 47.9])
        x, jac = fit._curve_and_jacobian(p, t, 100.0)
        for s, xs, row in zip(t.tolist(), x.tolist(), jac.tolist()):
            ref_x, ref_ka, ref_ke, ref_gamma = mp_curve_jacobian(p, 100.0, s)
            bound = piece_bound(p, s)
            assert rel(xs, ref_x) <= bound, s
            assert (abs(row[0] - ref_ka) / max(abs(ref_ka), ref_x / p.ka)) <= bound, s
            assert rel(row[1], ref_ke) <= bound, s
            assert rel(row[2], ref_gamma) <= bound, s

    def test_columns_of_rates_equal_each_vector_alone(self):
        # The fit passes (R, 1) columns; each row is what its vector gives.
        ps = NEAR_EQUAL + SPREAD
        t = np.array([0.0, 0.05, 0.5, 5.5, 17.3, 47.9])
        columns = PkParams(*(np.array([[getattr(p, f)] for p in ps])
                             for f in ("ka", "ke", "gamma")), 300.0)
        x, jac = fit._curve_and_jacobian(columns, t, 100.0)
        for p, xs, js in zip(ps, x, jac):
            alone = fit._curve_and_jacobian(p, t, 100.0)
            assert np.array_equal(xs, alone[0]) and np.array_equal(js, alone[1])
        assert np.array_equal(x, [single_dose(p, 100.0).x(t) for p in ps])

    def test_matches_central_differences(self):
        rng = np.random.default_rng(7)
        p = PkParams(ka=1.3, ke=0.4, gamma=2.0, volume=100.0)
        t = np.sort(rng.uniform(0.05, 20.0, 20))
        jac = fit._curve_and_jacobian(p, t, 100.0)[1]
        for j, name in enumerate(("ka", "ke", "gamma")):
            base = [p.ka, p.ke, p.gamma]
            h = base[j] * 1e-6
            hi = base.copy()
            hi[j] += h
            lo = base.copy()
            lo[j] -= h
            up = single_dose(PkParams(*hi, volume=100.0), 100.0).x(t)
            dn = single_dose(PkParams(*lo, volume=100.0), 100.0).x(t)
            fd = (up - dn) / (2.0 * h)
            assert np.max(np.abs(jac[:, j] - fd) / np.maximum(np.abs(fd), 1e-12)) \
                <= 1e-5, name


class TestPredict:
    def test_reproduces_training_values(self, clarithromycin):
        series = synth_series(clarithromycin)
        result = fit_single_dose(series, 250.0, 5000.0)
        fitted = predict(SAMPLE_TIMES, result, 250.0, 5000.0)
        sse = float(np.sum((series.values_array() - fitted.values_array()) ** 2))
        assert sse == pytest.approx(result.sse, abs=1e-12 + 1e-6 * result.sse)

    def test_r2_consistency(self, clarithromycin):
        rng = np.random.default_rng(3)
        series = synth_series(clarithromycin, noise=0.05, rng=rng)
        result = fit_single_dose(series, 250.0, 5000.0)
        fitted = predict(SAMPLE_TIMES, result, 250.0, 5000.0)
        c = series.values_array()
        ss_res = float(np.sum((c - fitted.values_array()) ** 2))
        ss_tot = float(np.sum((c - c.mean()) ** 2))
        assert 1.0 - ss_res / ss_tot == pytest.approx(result.r2, abs=1e-12)


class TestNearEqualRecovery:
    # Noise-free series at ke = 0.3 per h, gamma = 0.8, V = 10, d = 100,
    # sampled at the fit-mc times.
    TIMES = np.array(TestRejectedTrials.TIMES)

    def fit_at(self, delta):
        truth = PkParams(0.3 * (1.0 + delta), 0.3, 0.8, 10.0)
        values = single_dose(truth, 100.0).x(self.TIMES)
        return truth, values, fit_single_dose(
            ConcentrationSeries(self.TIMES.tolist(), values.tolist()), 100.0, 10.0)

    def test_separated_rates_are_recovered(self):
        truth, _, result = self.fit_at(1e-3)
        p = result.params
        # 3.3e-7 reached.
        for est, tru in zip((p.ka, p.ke, p.gamma), (truth.ka, truth.ke, truth.gamma)):
            assert abs(est / tru - 1.0) <= 1e-6

    def test_near_equal_rates_stop_in_the_flat_valley(self):
        # At ka/ke - 1 = 1e-8 the fit stops at ka/ke - 1 = 3.7e-5, each
        # parameter 1.9e-5 off, once the SSE gradient falls below
        # GRADIENT_ATOL: the objective is flat along the rate separation. The
        # float SSE there is within 1.3e-6 of the 60-digit objective (a
        # two-exponential difference gives 1.2e-2), the rounding of residuals
        # 1e-10 of the values: cancellation does not cause the stop.
        truth, values, result = self.fit_at(1e-8)
        p = result.params
        assert 1e-5 < p.ka / p.ke - 1.0 < 1e-4
        for est, tru in zip((p.ka, p.ke, p.gamma), (truth.ka, truth.ke, truth.gamma)):
            assert abs(est / tru - 1.0) <= 3e-5
        with mpmath.workdps(DIGITS):
            sse = sum((mpmath.mpf(c) - mp_curve_jacobian(p, 100.0, t)[0]) ** 2
                      for t, c in zip(self.TIMES.tolist(), values.tolist()))
        assert rel(result.sse, sse) <= 1e-5
