import mpmath
import numpy as np
import pytest

from multidose import dosing, pkmetrics, steady_state
from multidose.core import NoConvergence, PkParams, ValidationError
from multidose.dosing import (
    TherapeuticTarget,
    design,
    f_ratio,
    f_ratio_excess,
    feasible_set_check,
)
from multidose.steady_state import ss_lower, ss_upper

from mpref import DIGITS, mp_bounds, rel

PARAM_SETS = [
    PkParams(1.0, 0.1, 1.0, 1.0),
    PkParams(0.7480, 0.2031, 19.1933, 5000.0),
    PkParams(0.4, 1.6, 2.0, 250.0),  # flip-flop
]


def target_from_regimen(p, d, tau, slack=0.5):
    lo, hi = ss_lower(p, d, tau), ss_upper(p, d, tau)
    return TherapeuticTarget(mic=lo * (1 - slack), tc=hi * (1 + slack),
                             lower=lo, upper=hi)


class TestTherapeuticTarget:
    def test_ordering_enforced(self):
        with pytest.raises(ValidationError):
            TherapeuticTarget(mic=1.0, tc=4.0, lower=3.0, upper=2.0)
        with pytest.raises(ValidationError):
            TherapeuticTarget(mic=2.0, tc=4.0, lower=1.0, upper=3.0)
        with pytest.raises(ValidationError):
            TherapeuticTarget(mic=-1.0, tc=4.0, lower=1.0, upper=3.0)


class TestFRatio:
    def test_near_one_at_tiny_interval(self, canonical):
        excess = f_ratio_excess(canonical, 1e-8)
        assert 0.0 < excess < 1e-3
        assert f_ratio(canonical, 1e-8) <= 1.0 + 1e-3

    @pytest.mark.parametrize("p", PARAM_SETS, ids=["normal", "fitted", "flipflop"])
    def test_strictly_increasing_on_log_grid(self, p):
        taus = np.logspace(-6, 3, 50)
        values = [f_ratio_excess(p, tau) for tau in taus]
        assert all(b > a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("p", PARAM_SETS, ids=["normal", "fitted", "flipflop"])
    def test_equals_bound_ratio_independently(self, p):
        # Dose and gain cancel: f must match the ratio of the bounds.
        for tau in (0.8, 4.0, 24.0):
            direct = ss_upper(p, 37.0, tau) / ss_lower(p, 37.0, tau)
            assert abs(f_ratio(p, tau) - direct) <= 1e-10 * direct

    def test_swap_invariance(self):
        p = PkParams(1.3, 0.25, 3.0, 700.0)
        q = PkParams(0.25, 1.3, 3.0, 700.0)
        for tau in (0.5, 6.0, 30.0):
            assert f_ratio(p, tau) == pytest.approx(f_ratio(q, tau), rel=1e-12)

    def test_rejects_nonpositive_interval(self, canonical):
        with pytest.raises(ValidationError):
            f_ratio(canonical, 0.0)

    # The trough of a 1 mg dose there is subnormal (4.6e-309 and 9.1e-315), not 0.
    SUBNORMAL_TROUGH = (262.91, 22.98, 0.43, 0.22)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("kind", [float, np.float64])
    @pytest.mark.parametrize("tau", [30.928, 31.5])
    def test_ratio_past_float_range_is_inf(self, kind, tau):
        p = PkParams(*map(kind, self.SUBNORMAL_TROUGH))
        assert 0.0 < ss_lower(p, 1.0, tau) < np.finfo(float).tiny
        assert f_ratio_excess(p, tau) == np.inf

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("kind", [float, np.float64])
    def test_design_bracket_reaching_a_subnormal_trough(self, kind):
        # A ratio of 1e300 expands the bracket to 32 h, where the trough is
        # subnormal, and bisects through 31 h, where it is too.
        p = PkParams(*map(kind, self.SUBNORMAL_TROUGH))
        assert 0.0 < ss_lower(p, 1.0, 32.0) < np.finfo(float).tiny
        d, tau = design(p, TherapeuticTarget(1.0, 1e300, 1.0, 1e300))
        assert (d, tau) == design(PkParams(*self.SUBNORMAL_TROUGH),
                                  TherapeuticTarget(1.0, 1e300, 1.0, 1e300))
        assert 16.0 < tau < 32.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("kind", [float, np.float64])
    def test_dose_past_a_subnormal_bracket_against_mpmath(self, kind):
        # The design above ends where the 1 mg trough is 1.5e-300. The dose
        # is the target trough over it, formed in extended precision and
        # rounded once: the double nearest its 60-digit value.
        p = PkParams(*map(kind, self.SUBNORMAL_TROUGH))
        d, tau = design(p, TherapeuticTarget(1.0, 1e300, 1.0, 1e300))
        with mpmath.workdps(DIGITS):
            assert d == float(1 / mp_bounds(p, 1.0, tau)[0])
        assert type(d) is float

    @pytest.mark.parametrize("p", [PkParams(1.0, 0.1, 1.0, 1.0), PkParams(0.1, 1.0, 1.0, 1.0),
                                   PkParams(0.9, 0.002, 1.0, 1.0)],
                             ids=["normal", "flipflop", "ka/ke=450"])
    def test_excess_against_mpmath_above_the_series_threshold(self, p):
        # Peak and trough cancel in the excess; formed in extended precision
        # and rounded once it is within 1e-8 (largest seen 6.0e-9).
        for scaled in (1.0001e-4, 2e-4, 1e-3, 1e-2):
            tau = scaled / (p.ka + p.ke)
            with mpmath.workdps(DIGITS):
                lower, upper = mp_bounds(p, 1.0, tau)
                assert rel(f_ratio_excess(p, tau), (upper - lower) / lower) <= 1e-8, scaled


class TestDesign:
    def test_self_inversion_round_trip(self, canonical):
        target = target_from_regimen(canonical, 100.0, 6.0)
        d, tau = design(canonical, target)
        assert d == pytest.approx(100.0, rel=1e-6)
        assert tau == pytest.approx(6.0, rel=1e-6)

    @pytest.mark.parametrize("p", PARAM_SETS, ids=["normal", "fitted", "flipflop"])
    def test_round_trips_across_parameter_sets(self, p):
        for d0, tau0 in ((250.0, 4.0), (40.0, 12.0), (600.0, 24.0)):
            target = target_from_regimen(p, d0, tau0)
            d, tau = design(p, target)
            assert d == pytest.approx(d0, rel=1e-6)
            assert tau == pytest.approx(tau0, rel=1e-6)

    def test_achieved_bounds_hit_targets(self, canonical):
        target = TherapeuticTarget(mic=50.0, tc=400.0, lower=80.0, upper=250.0)
        d, tau = design(canonical, target)
        assert ss_lower(canonical, d, tau) == pytest.approx(target.lower, rel=1e-8)
        assert ss_upper(canonical, d, tau) == pytest.approx(target.upper, rel=1e-8)
        assert feasible_set_check(canonical, d, tau, target)

    def test_scale_invariance(self, canonical):
        base = TherapeuticTarget(mic=50.0, tc=400.0, lower=80.0, upper=250.0)
        scaled = TherapeuticTarget(mic=150.0, tc=1200.0, lower=240.0, upper=750.0)
        d1, tau1 = design(canonical, base)
        d3, tau3 = design(canonical, scaled)
        assert tau3 == pytest.approx(tau1, rel=1e-9)
        assert d3 == pytest.approx(3.0 * d1, rel=1e-9)

    def test_interval_is_swap_invariant(self):
        p = PkParams(1.3, 0.25, 3.0, 700.0)
        q = PkParams(0.25, 1.3, 3.0, 700.0)
        target = TherapeuticTarget(mic=0.01, tc=10.0, lower=0.05, upper=0.4)
        dp, taup = design(p, target)
        dq, tauq = design(q, target)
        assert taup == pytest.approx(tauq, rel=1e-9)
        # The dose compensates the gain difference between the labelings.
        assert ss_lower(q, dq, tauq) == pytest.approx(target.lower, rel=1e-8)

    def test_ratio_barely_above_one(self, canonical):
        lower = 2.0
        target = TherapeuticTarget(mic=1.0, tc=5.0, lower=lower,
                                   upper=lower * (1.0 + 1e-6))
        d, tau = design(canonical, target)
        assert tau >= 1e-9
        assert ss_lower(canonical, d, tau) == pytest.approx(lower, rel=1e-8)
        assert ss_upper(canonical, d, tau) == pytest.approx(
            lower * (1.0 + 1e-6), rel=1e-8)

    @pytest.mark.parametrize("s", np.linspace(1e-7, 5e-7, 40))
    def test_converges_as_ka_approaches_ke(self, s):
        p = PkParams(0.3 * (1.0 + s), 0.3, 1.0, 1.0)
        target = TherapeuticTarget(mic=50.0, tc=300.0, lower=80.0, upper=250.0)
        d, tau = design(p, target)  # verifies both achieved bounds to 1e-8
        assert d > 0.0 and tau > 0.0

    def test_params_validated_a_fixed_number_of_times(self, canonical, monkeypatch):
        # design checks p once and bisects on the unchecked ratio, so the
        # number of validate_params calls does not grow with its steps.
        calls, steps = [], []
        for module in (dosing, pkmetrics, steady_state):
            real = module.validate_params
            monkeypatch.setattr(module, "validate_params",
                                lambda p, real=real: calls.append(p) or real(p))
        ratio = dosing._ratio_excess
        monkeypatch.setattr(dosing, "_ratio_excess",
                            lambda p, tau: steps.append(tau) or ratio(p, tau))
        counts = []
        for tau0 in (6.0, 30.0, 300.0):
            target = target_from_regimen(canonical, 100.0, tau0)
            calls.clear()
            steps.clear()
            d, tau = design(canonical, target)
            assert tau == pytest.approx(tau0, rel=1e-6)
            counts.append((len(steps), len(calls)))
        assert len({n_steps for n_steps, _ in counts}) == 3
        assert {n_calls for _, n_calls in counts} == {3}


    def test_ratio_below_the_floor_raises(self):
        # At (ka + ke)*TAU_FLOOR the ratio already exceeds 1 + 2^-52.
        target = TherapeuticTarget(1.0, 2.0, 1.0, np.nextafter(1.0, 2.0))
        with pytest.raises(NoConvergence, match="^target ratio is below the resolvable "
                           "range at the bracket floor$") as err:
            design(PkParams(100.0, 20.0, 1.0, 1.0), target)
        assert err.value.context == {"bracket": (dosing.TAU_FLOOR, 1.0),
                                     "ratio": target.upper}

    def test_bracket_expansion_failure_raises(self):
        # Rates of 1e-200/h: 200 doublings of the bracket reach no ratio of 3.
        target = TherapeuticTarget(1.0, 3.0, 1.0, 3.0)
        with pytest.raises(NoConvergence, match="^bracket expansion failed to enclose "
                           "the target ratio$") as err:
            design(PkParams(1e-200, 2e-200, 1.0, 1.0), target)
        assert err.value.context == {"bracket": (dosing.TAU_FLOOR, 2.0 ** 201), "ratio": 3.0}

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("p,lower,upper", [
        (PkParams(262.91, 22.98, 0.43, 0.22), 1e-30, 1e290),
        (PARAM_SETS[0], 1e-300, 1e10),
        (PARAM_SETS[0], 1e-10, 1e300),
    ])
    def test_ratio_beyond_float_range_raises(self, p, lower, upper):
        # (upper - lower)/lower overflows: no interval's ratio compares with it.
        with pytest.raises(NoConvergence, match="^target ratio is beyond float range$") as err:
            design(p, TherapeuticTarget(lower, upper, lower, upper))
        assert err.value.context == {"ratio": np.inf}

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_largest_finite_ratio_designs(self):
        d, tau = design(PARAM_SETS[0], TherapeuticTarget(1e-10, 1.7e298, 1e-10, 1.7e298))
        assert tau == pytest.approx(7100.88, abs=0.01)
        assert ss_lower(PARAM_SETS[0], d, tau) == pytest.approx(1e-10, rel=1e-8)
        # The same ratio from a trough of 1 needs a dose past float range.
        with pytest.raises(NoConvergence, match="^no finite dose reaches the trough at 7100.88"):
            design(PARAM_SETS[0], TherapeuticTarget(1.0, 1.7e308, 1.0, 1.7e308))


class TestFeasibility:
    def test_design_output_is_feasible_for_own_target(self, canonical):
        target = TherapeuticTarget(mic=60.0, tc=300.0, lower=90.0, upper=200.0)
        d, tau = design(canonical, target)
        assert feasible_set_check(canonical, d, tau, target)

    def test_tiny_dose_is_infeasible(self, canonical):
        target = TherapeuticTarget(mic=60.0, tc=300.0, lower=90.0, upper=200.0)
        assert not feasible_set_check(canonical, 1e-6, 6.0, target)

    def test_one_standard_plan_cannot_fit_everyone(self):
        # Two synthetic metabolisms under the same fixed plan: the fast
        # absorber overshoots the ceiling, the fast eliminator undershoots
        # the floor. Mirrors why fixed plans fail across patients.
        target = TherapeuticTarget(mic=1500.0, tc=3500.0,
                                   lower=1500.0, upper=3500.0)
        hot = PkParams(ka=0.9, ke=0.035, gamma=28000.0, volume=5000.0)
        cold = PkParams(ka=2.0, ke=0.35, gamma=6000.0, volume=5000.0)
        d, tau = 600.0, 24.0
        assert ss_upper(hot, d, tau) > target.tc
        assert not feasible_set_check(hot, d, tau, target)
        assert ss_lower(cold, d, tau) < target.mic
        assert not feasible_set_check(cold, d, tau, target)
        # Each still has a personalized plan inside the same range.
        for p in (hot, cold):
            inner = TherapeuticTarget(mic=1500.0, tc=3500.0,
                                      lower=1800.0, upper=3200.0)
            d_star, tau_star = design(p, inner)
            assert feasible_set_check(p, d_star, tau_star, inner)
