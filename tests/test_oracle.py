import sys
import tracemalloc

import mpmath
import numpy as np
import pytest

from multidose.core import (Arbitrary, EquiDose, NonPositiveParameter, PkParams,
                            ValidationError)
from multidose.bateman import arbitrary_multidose, equi_multidose, single_dose
from multidose.extmodels import (
    BolusRegimen,
    FatRegimen,
    bolus_multidose,
    fat_multidose,
)
from multidose.oracle import superpose, superpose_gut
from multidose.steady_state import ss_lower

from mpref import NEAR_EQUAL, SPREAD, mp_dose_sum
from rk4 import OracleConfig, StepTooLarge, integrate_impulses, integrate_ode


def test_single_dose_matches_closed_form(canonical):
    traj = integrate_ode(canonical, Arbitrary([(100.0, 40.0)]), 40.0,
                         OracleConfig(step=1e-3))
    curve = single_dose(canonical, 100.0)
    xc = curve.x(traj.times)
    assert np.max(np.abs(traj.x - xc)) / xc.max() < 1e-8
    assert np.max(np.abs(traj.y - curve.y(traj.times))) / 100.0 < 1e-8


def test_equi_dose_ten_cycles(canonical):
    sol = equi_multidose(canonical, 100.0, 6.0)
    traj = integrate_ode(canonical, EquiDose(100.0, 6.0), 60.0,
                         OracleConfig(step=1e-3))
    xc = sol.x(traj.times)
    assert np.max(np.abs(traj.x - xc)) / xc.max() < 1e-6


@pytest.mark.parametrize("regimen", [EquiDose(100.0, 6.0, 2.0), FatRegimen([(100.0, 6.0, 2.0)]),
                                     BolusRegimen([(100.0, 6.0)])],
                         ids=["equi-window", "fat", "bolus"])
def test_integrator_and_gut_sum_take_oral_regimens_only(canonical, regimen):
    # Their doses land in the gut and stay there: no window, no jump in x.
    with pytest.raises(ValidationError, match="expected an oral regimen"):
        integrate_ode(canonical, regimen, 10.0)
    with pytest.raises(ValidationError, match="expected an oral regimen"):
        superpose_gut(canonical, regimen)


def test_zero_impulses_stay_at_zero(canonical):
    traj = integrate_impulses(canonical, [(0.0, 0.0)], 5.0, OracleConfig(step=1e-3))
    assert np.all(traj.x == 0.0)
    assert np.all(traj.y == 0.0)


def test_order_four_convergence(canonical):
    sol = equi_multidose(canonical, 100.0, 6.0)

    def max_error(step):
        traj = integrate_ode(canonical, EquiDose(100.0, 6.0), 30.0,
                             OracleConfig(step=step))
        return np.max(np.abs(traj.x - sol.x(traj.times)))

    coarse = max_error(8e-3)
    fine = max_error(4e-3)
    assert coarse / fine == pytest.approx(16.0, rel=1.0)
    assert 8.0 < coarse / fine < 32.0


def test_step_too_large_for_schedule(canonical):
    with pytest.raises(StepTooLarge):
        integrate_ode(canonical, EquiDose(100.0, 0.5), 5.0, OracleConfig(step=0.2))


@pytest.mark.parametrize("step,t_end,name", [
    (float("nan"), 10.0, "step"), (float("inf"), 10.0, "step"), (0.0, 10.0, "step"),
    (1e-3, float("nan"), "t_end"), (1e-3, float("inf"), "t_end"), (1e-3, -1.0, "t_end"),
])
def test_step_and_horizon_must_be_positive_finite(canonical, step, t_end, name):
    cfg = OracleConfig(step=step)
    with pytest.raises(NonPositiveParameter, match=f"{name} must be > 0 and finite"):
        integrate_ode(canonical, EquiDose(100.0, 6.0), t_end, cfg)
    with pytest.raises(NonPositiveParameter, match=f"{name} must be > 0 and finite"):
        integrate_impulses(canonical, [(0.0, 100.0)], t_end, cfg)


def test_superpose_equals_equi_solution(canonical):
    sol = equi_multidose(canonical, 100.0, 6.0)
    ref = superpose(canonical, EquiDose(100.0, 6.0))
    t = np.linspace(0.0, 72.0, 4001)
    assert np.max(np.abs(sol.x(t) - ref(t))) <= 1e-10


def test_superpose_equals_skip_schedule(canonical):
    reg = Arbitrary([(250.0, 4.0), (250.0, 8.0), (500.0, 4.0)] + [(250.0, 4.0)] * 9)
    sol = arbitrary_multidose(canonical, reg)
    ref = superpose(canonical, reg)
    t = np.linspace(0.0, 56.0, 4001)
    assert np.max(np.abs(sol.x(t) - ref(t))) <= 1e-10


def test_superpose_single_entry_equals_single_dose(canonical):
    curve = single_dose(canonical, 100.0)
    ref = superpose(canonical, Arbitrary([(100.0, 10.0)]))
    t = np.linspace(0.0, 30.0, 301)
    assert np.max(np.abs(curve.x(t) - ref(t))) <= 1e-12


def test_superpose_gut_tracks_solution(canonical):
    reg = Arbitrary([(100.0, 3.0), (50.0, 5.0), (200.0, 4.0)])
    sol = arbitrary_multidose(canonical, reg)
    ref = superpose_gut(canonical, reg)
    t = np.linspace(0.0, 12.0, 1201)
    inside = ~np.isin(t, [0.0, 3.0, 8.0])
    assert np.max(np.abs(sol.y(t[inside]) - ref(t[inside]))) <= 1e-10


def test_superpose_bolus_takes_ke():
    reg = BolusRegimen([(600.0, 4.0), (700.0, 8.0), (300.0, 4.0)])
    sol = bolus_multidose(0.3838, reg)
    t = np.linspace(0.0, 24.0, 2401)
    assert np.max(np.abs(sol.x(t) - superpose(0.3838, reg)(t))) <= 1e-10


def test_superpose_fat_windows():
    p = PkParams(0.42, 0.4, 0.00449, 1.0)
    reg = FatRegimen([(600.0, 6.0, 2.0), (400.0, 4.0, 4.0), (700.0, 5.0, 1.5)])
    sol = fat_multidose(p, reg)
    t = np.linspace(0.0, 20.0, 2001)
    assert np.max(np.abs(sol.x(t) - superpose(p, reg)(t))) <= 1e-10


def test_superpose_keeps_query_order_and_shape(canonical):
    reg = Arbitrary([(100.0, 3.0), (50.0, 5.0)])
    ref = superpose(canonical, reg)
    t = np.array([[7.0, 0.5], [3.0, 0.0]])
    expected = np.array([[ref(7.0), ref(0.5)], [ref(3.0), ref(0.0)]])
    assert np.array_equal(ref(t), expected)


# -- the grouped dose sum against a brute-force matrix sum --------------------

def _matrix_sum(starts, amounts, windows, weight, k_out, k_in, t):
    """Every dose's response at every time as one (times x doses) matrix."""
    u = t[:, None] - starts[None, :]
    started = u >= 0.0
    u = np.where(started, u, 0.0)

    def response(v):
        return np.exp(-k_out * v) - (0.0 if k_in is None else np.exp(-k_in * v))

    values = response(u)
    if windows is not None:
        closed = response(windows) * np.exp(-k_out * np.maximum(u - windows, 0.0))
        values = np.where(u <= windows, values, closed)
    return weight * np.where(started, amounts * values, 0.0).sum(axis=1)


# Groups hold K = isqrt(W) + 1 doses, W the window's width. While every dose of
# `_irregular` lies in the window (n <= 25 for each model), W = n - 1: K = 5 for
# n = 17..25, and 26 doses leave 5 full groups and one dose, or (oral) need K = 6.
# 400 doses are more than any window holds.
K = 5
GROUP_EDGE_COUNTS = [1, 2, 3, K * (K - 1), K * (K - 1) + 1, K * K, K * K + 1, 400]
FAT_P = PkParams(0.42, 0.4, 0.00449, 1.0)


def _irregular(model, n, seed):
    """Entries, dose times and the (weight, k_out, k_in, windows) of the sum."""
    rng = np.random.default_rng(seed)
    taus = rng.uniform(1.0, 9.0, n)
    doses = rng.choice([100.0, 250.0, 400.0], n)
    starts = np.concatenate(([0.0], np.cumsum(taus)[:-1]))
    p = PkParams(1.0, 0.1, 1.0, 1.0)
    amplitude = p.ka * p.gamma / (p.volume * (p.ka - p.ke))
    if model == "fat":
        # Some windows fill the whole interval: they close at the next dose.
        windows = np.where(rng.random(n) < 0.3, taus, taus * rng.uniform(0.1, 0.9, n))
        amplitude = FAT_P.ka * FAT_P.gamma / (FAT_P.volume * (FAT_P.ka - FAT_P.ke))
        return (FAT_P, FatRegimen(zip(doses, taus, windows)), starts,
                (amplitude, FAT_P.ke, FAT_P.ka, windows))
    if model == "bolus":
        return 0.3838, BolusRegimen(zip(doses, taus)), starts, (1.0, 0.3838, None, None)
    return p, Arbitrary(zip(doses, taus)), starts, (amplitude, p.ke, p.ka, None)


def _query_times(starts, windows, seed):
    """Random, dose-instant, window-end and negative times, shuffled."""
    rng = np.random.default_rng(seed)
    end = starts[-1] + 40.0
    t = [rng.uniform(-5.0, end, 300), starts, [-1e300, -1e-9, -3.0, end, 1e4]]
    if windows is not None:
        t.append(starts + windows)
    t = np.concatenate(t)
    return t[rng.permutation(t.size)]


@pytest.mark.parametrize("n", GROUP_EDGE_COUNTS)
@pytest.mark.parametrize("model", ["oral", "fat", "bolus"])
def test_grouped_sum_equals_matrix_sum(model, n):
    p, reg, starts, (weight, k_out, k_in, windows) = _irregular(model, n, seed=n)
    t = _query_times(starts, windows, seed=n)
    expected = _matrix_sum(starts, np.array([e[0] for e in reg.entries]), windows,
                           weight, k_out, k_in, t)
    got = superpose(p, reg)(t)
    peak = np.max(np.abs(expected))
    assert np.max(np.abs(got - expected)) <= 1e-13 * peak
    assert np.all(got[t < 0.0] == 0.0)
    grid = superpose(p, reg)(t[:300].reshape(20, 15))
    assert grid.shape == (20, 15)
    assert np.max(np.abs(grid.ravel() - expected[:300])) <= 1e-13 * peak


@pytest.mark.parametrize("n", GROUP_EDGE_COUNTS)
def test_grouped_gut_sum_equals_matrix_sum(canonical, n):
    _, reg, starts, _ = _irregular("oral", n, seed=n)
    t = _query_times(starts, None, seed=n)
    expected = _matrix_sum(starts, np.array([e[0] for e in reg.entries]), None,
                           1.0, canonical.ka, None, t)
    got = superpose_gut(canonical, reg)(t)
    assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(expected)


@pytest.mark.parametrize("n_doses", [None, 1, K - 1, K * K + 1])
def test_grouped_equi_sum_equals_matrix_sum(canonical, n_doses):
    tau = 6.0
    t = _query_times(np.arange(50) * tau, None, seed=7)
    count = int(np.floor(t.max() / tau)) + 1 if n_doses is None else n_doses
    starts = np.arange(count) * tau
    amplitude = canonical.ka / (canonical.ka - canonical.ke)
    expected = _matrix_sum(starts, np.full(count, 100.0), None, amplitude,
                           canonical.ke, canonical.ka, t)
    got = superpose(canonical, EquiDose(100.0, tau), n_doses=n_doses)(t)
    assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(expected)


@pytest.mark.parametrize("n_doses", [None, 1, K - 1, K * K + 1])
def test_grouped_equi_window_sum_equals_matrix_sum(n_doses):
    # An EquiDose with an absorption window: the FAT model's constant schedule.
    tau, window = 6.0, 2.5
    t = _query_times(np.arange(50) * tau, np.full(50, window), seed=8)
    count = int(np.floor(t.max() / tau)) + 1 if n_doses is None else n_doses
    starts = np.arange(count) * tau
    amplitude = FAT_P.ka * FAT_P.gamma / (FAT_P.volume * (FAT_P.ka - FAT_P.ke))
    expected = _matrix_sum(starts, np.full(count, 100.0), np.full(count, window), amplitude,
                           FAT_P.ke, FAT_P.ka, t)
    got = superpose(FAT_P, EquiDose(100.0, tau, window), n_doses=n_doses)(t)
    assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(expected)


def _equi(model):
    """An EquiDose case: (p, regimen, n_doses, the last dose's time)."""
    p = PkParams(1.0, 0.1, 1.0, 1.0)
    return {"equi": (p, EquiDose(100.0, 6.0), None, 6000.0),
            "equi-capped": (p, EquiDose(100.0, 6.0), 300, 1794.0),
            "equi-window": (FAT_P, EquiDose(100.0, 6.0, 2.5), None, 6000.0),
            "equi-bolus": (0.3838, EquiDose(100.0, 6.0), None, 6000.0)}[model]


@pytest.mark.parametrize("model", ["oral", "fat", "bolus",
                                   "equi", "equi-capped", "equi-window", "equi-bolus"])
def test_value_does_not_depend_on_the_batch(model):
    if model.startswith("equi"):
        p, reg, n_doses, end = _equi(model)
    else:
        (p, reg, starts, _), n_doses = _irregular(model, 1000, seed=3), None
        end = starts[-1]
    ref = superpose(p, reg, n_doses=n_doses)
    t = np.random.default_rng(4).uniform(-10.0, end + 50.0, 200)
    batch = ref(t)
    alone = np.array([ref(float(ti)) for ti in t])
    assert np.array_equal(alone, batch)
    assert np.array_equal(ref(t[::-1]), batch[::-1])
    assert np.array_equal(np.concatenate((ref(t[:37]), ref(t[37:]))), batch)
    order = np.argsort(t)
    assert np.array_equal(ref(t[order]), batch[order])


def test_slow_elimination_window_drops_old_doses():
    # ke = 0.02/h: each window reaches back about 2,300 h, some 460 of 1,500 doses
    # (7,500 h), so every time past 2,300 h drops the doses before its window.
    p = PkParams(0.5, 0.02, 1.0, 1.0)
    rng = np.random.default_rng(11)
    taus, doses = rng.uniform(1.0, 9.0, 1500), rng.choice([100.0, 250.0, 400.0], 1500)
    starts = np.concatenate(([0.0], np.cumsum(taus)[:-1]))
    t = np.concatenate((rng.uniform(-5.0, starts[-1] + 40.0, 400), starts[::50]))
    amplitude = p.ka * p.gamma / (p.volume * (p.ka - p.ke))
    expected = _matrix_sum(starts, doses, None, amplitude, p.ke, p.ka, t)
    got = superpose(p, Arbitrary(zip(doses, taus)))(t)
    assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(expected)


@pytest.mark.parametrize("n_doses", [None, 2_000_000])
def test_equi_memory_does_not_grow_with_the_doses(canonical, n_doses):
    # 2e6 doses, one every hour, at t = 2e6 h: the limiting trough, from a window
    # of some 440 doses.
    ref = superpose(canonical, EquiDose(100.0, 1.0), n_doses=n_doses)
    tracemalloc.start()
    try:
        value = ref(2e6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6
    assert value == pytest.approx(ss_lower(canonical, 100.0, 1.0), rel=1e-13)


def test_window_past_sys_maxsize_is_a_validation_error():
    # ke = 1e-12/h and a dose every 1e-9 h: a window of about 9e22 doses.
    with pytest.raises(ValidationError, match=r"oracle window: 8\.99\d+e\+22 doses exceed "
                                              f"{sys.maxsize}"):
        superpose(1e-12, EquiDose(1.0, 1e-9))
    # Capped, the window is the doses there are.
    assert superpose(1e-12, EquiDose(1.0, 1e-9), n_doses=10)(1e-6) == pytest.approx(10.0)


def test_time_past_2_53_doses_is_a_validation_error(canonical):
    ref = superpose(canonical, EquiDose(100.0, 1.0))
    with pytest.raises(ValidationError, match=r"query time 1e\+300 h is past 2\*\*53 doses"):
        ref(np.array([1.0, 1e300]))
    assert superpose(canonical, EquiDose(100.0, 1.0), n_doses=5)(1e300) == 0.0


@pytest.mark.parametrize("build", [
    lambda p: superpose(p, EquiDose(100.0, 6.0)),
    lambda p: superpose(p, Arbitrary([(100.0, 3.0), (50.0, 5.0)])),
], ids=["equi", "arbitrary"])
def test_empty_query_gives_an_empty_array(canonical, build):
    assert build(canonical)(np.empty((0, 3))).shape == (0, 3)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("build", [
    lambda p: superpose(p, EquiDose(100.0, 6.0)),
    lambda p: superpose(p, EquiDose(100.0, 6.0), n_doses=3),
    lambda p: superpose(p, Arbitrary([(100.0, 3.0), (50.0, 5.0)])),
    lambda p: superpose_gut(p, EquiDose(100.0, 6.0)),
    lambda p: superpose(0.3838, BolusRegimen([(600.0, 4.0), (700.0, 8.0)])),
    lambda p: superpose(FAT_P, FatRegimen([(600.0, 6.0, 2.0), (400.0, 4.0, 4.0)])),
], ids=["equi", "equi-capped", "arbitrary", "gut", "bolus", "fat"])
def test_non_finite_time_is_a_validation_error(canonical, build, bad):
    ref = build(canonical)
    with pytest.raises(ValidationError, match=f"query time must be finite, got {bad!r}"):
        ref(bad)
    with pytest.raises(ValidationError, match="query time must be finite"):
        ref(np.array([1.0, bad, 2.0]))
    assert ref(-2.0) == 0.0
    assert np.all(ref(np.array([-1.0, -0.5])) == 0.0)


def test_long_fat_windows_do_not_overflow():
    # ke * window ~ 800: the open window's decay term must not be formed.
    reg = FatRegimen([(600.0, 2000.0, 1999.0), (400.0, 2500.0, 2500.0), (500.0, 10.0, 5.0)])
    starts = np.array([0.0, 2000.0, 4500.0])
    windows = np.array([1999.0, 2500.0, 5.0])
    t = np.concatenate((starts, starts + windows, np.linspace(0.0, 4600.0, 461)))
    amplitude = FAT_P.ka * FAT_P.gamma / (FAT_P.volume * (FAT_P.ka - FAT_P.ke))
    expected = _matrix_sum(starts, np.array([600.0, 400.0, 500.0]), windows,
                           amplitude, FAT_P.ke, FAT_P.ka, t)
    got = superpose(FAT_P, reg)(t)
    assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(expected)


@pytest.mark.parametrize("n_doses", [0, -1, 2.0])
def test_equi_dose_cap_is_a_cycle_count(canonical, n_doses):
    with pytest.raises(ValidationError, match="cycle number must be"):
        superpose(canonical, EquiDose(100.0, 6.0), n_doses=n_doses)(1.0)


@pytest.mark.parametrize("p", NEAR_EQUAL + SPREAD)
def test_superpose_against_mpmath_at_any_rate_separation(p):
    # Each dose's x is q*d*E(u) >= 0: no pair of terms cancels, down to
    # ka/ke - 1 = 2e-9 (a difference of two rates' sums would lose 1/(ka/ke - 1)).
    rng = np.random.default_rng(40)
    taus, doses = rng.uniform(0.5, 9.0, 40), rng.choice([100.0, 250.0, 400.0], 40)
    starts = np.concatenate(([0.0], np.cumsum(taus)[:-1]))
    t = np.array([0.3, starts[7], starts[7] + 1e-3, 17.3, starts[20] + 2.5,
                  starts[-1] + 2.0, starts[-1] + 60.0])
    expected = [mp_dose_sum(p, doses, starts, v) for v in t]
    got = superpose(p, Arbitrary(zip(doses, taus)))(t)
    peak = max(abs(v) for v in expected)
    assert max(abs(mpmath.mpf(g) - e) for g, e in zip(got, expected)) <= 1e-13 * peak
