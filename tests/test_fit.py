import warnings

import numpy as np
import pytest

from multidose import fit
from multidose.core import ConcentrationSeries, InsufficientData, PkParams
from multidose.bateman import single_dose
from multidose.fit import curve_jacobian, fit_single_dose, predict

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
        assert any(rates[0] == 0.0 for rates in tried)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        # The fit's values, bit for bit, as with warnings enabled.
        assert result.params == PkParams(ka=0.8460261261176348,
                                         ke=0.19122354490637708,
                                         gamma=17.778745696377598,
                                         volume=5000.0)
        assert result.sse == 0.002033335288851834
        assert result.r2 == 0.9955529583792159
        assert result.stderr == (0.061116431954544345, 0.011150625204586335,
                                 0.7261040992419932)
        assert result.covariance_status == "ok"
        assert result.n_iterations == 30
        assert len(result.sse_path) == 31
        assert result.sse_path[:2] == (1.0994176968116245, 0.8881377897690279)


class TestJacobian:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(7)
        p = PkParams(ka=1.3, ke=0.4, gamma=2.0, volume=100.0)
        t = np.sort(rng.uniform(0.05, 20.0, 20))
        jac = curve_jacobian(p, t, 100.0)
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
