import numpy as np
import pytest

from multidose.core import Arbitrary, EquiDose, NonPositiveParameter, PkParams, StepTooLarge
from multidose.bateman import arbitrary_multidose, equi_multidose, single_dose
from multidose.extmodels import (
    BolusRegimen,
    FatRegimen,
    bolus_multidose,
    fat_multidose,
)
from multidose.oracle import (
    OracleConfig,
    integrate_impulses,
    integrate_ode,
    superpose,
    superpose_gut,
)


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
