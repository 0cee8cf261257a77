import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multidose.core import (
    Arbitrary,
    ConcentrationSeries,
    EqualRateConstants,
    EquiDose,
    NonPositiveParameter,
    PkParams,
    ValidationError,
    dose_times,
    validate_params,
    validate_regimen,
)
from multidose.extmodels import (
    BolusRegimen,
    FatRegimen,
    bolus_equi_remainder_limit,
    fat_equi_limits,
)


class TestValidateParams:
    def test_fitted_reference_vector_is_valid(self, clarithromycin):
        assert validate_params(clarithromycin) is clarithromycin

    def test_equal_rates_rejected(self):
        with pytest.raises(EqualRateConstants):
            validate_params(PkParams(ka=1.0, ke=1.0, gamma=1.0, volume=1.0))

    def test_nearly_equal_rates_rejected(self):
        with pytest.raises(EqualRateConstants):
            validate_params(PkParams(ka=1.0, ke=1.0 + 1e-13, gamma=1.0, volume=1.0))

    def test_negative_rate_rejected(self):
        with pytest.raises(NonPositiveParameter):
            validate_params(PkParams(ka=-1.0, ke=0.1, gamma=1.0, volume=5000.0))

    @pytest.mark.parametrize("field", ["ka", "ke", "gamma", "volume"])
    @pytest.mark.parametrize("bad", [0.0, -2.5, math.nan, math.inf])
    def test_each_field_must_be_positive_finite(self, field, bad):
        values = {"ka": 0.7, "ke": 0.2, "gamma": 1.0, "volume": 5000.0}
        values[field] = bad
        with pytest.raises(NonPositiveParameter):
            validate_params(PkParams(**values))

    def test_flip_flop_ordering_is_allowed(self):
        validate_params(PkParams(ka=0.1, ke=1.0, gamma=1.0, volume=1.0))

    @settings(max_examples=50, deadline=None)
    @given(
        ka=st.floats(1e-6, 1e6), ke=st.floats(1e-6, 1e6),
        gamma=st.floats(1e-6, 1e6), volume=st.floats(1e-6, 1e6),
    )
    def test_total_and_idempotent_over_finite_inputs(self, ka, ke, gamma, volume):
        p = PkParams(ka=ka, ke=ke, gamma=gamma, volume=volume)
        try:
            first = validate_params(p)
        except (NonPositiveParameter, EqualRateConstants):
            return
        assert validate_params(first) is p


class TestDoseTimes:
    def test_equi_is_arithmetic(self):
        times = dose_times(EquiDose(dose=250.0, interval=4.0), 3)
        assert times.tolist() == [0.0, 4.0, 8.0, 12.0]

    def test_arbitrary_is_cumulative(self):
        reg = Arbitrary([(600, 4), (600, 4), (700, 8)])
        assert dose_times(reg).tolist() == [0.0, 4.0, 8.0, 16.0]

    def test_single_entry(self):
        assert dose_times(Arbitrary([(100, 1)])).tolist() == [0.0, 1.0]

    def test_equi_requires_n_max(self):
        with pytest.raises(ValidationError):
            dose_times(EquiDose(dose=1.0, interval=1.0))

    def test_n_max_beyond_entries_rejected(self):
        with pytest.raises(ValidationError):
            dose_times(Arbitrary([(100, 1)]), 2)

    @settings(max_examples=50, deadline=None)
    @given(
        intervals=st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=20),
        n_max=st.integers(1, 20),
    )
    def test_length_and_monotonicity(self, intervals, n_max):
        n_max = min(n_max, len(intervals))
        reg = Arbitrary([(1.0, tau) for tau in intervals])
        times = dose_times(reg, n_max)
        assert len(times) == n_max + 1
        assert np.all(np.diff(times) > 0)


# One entry of each regimen type and how it is checked: EquiDose and
# Arbitrary by validate_regimen, Bolus/FAT on construction, and the
# constant-interval limits of both extension models on their arguments.
ENTRY_CHECKS = {
    "EquiDose": (("dose", "interval"), lambda e: validate_regimen(EquiDose(*e))),
    "Arbitrary": (("dose", "interval"),
                  lambda e: validate_regimen(Arbitrary([(9.0, 4.0), e]))),
    "BolusRegimen": (("delta", "interval"), lambda e: BolusRegimen([e])),
    "FatRegimen": (("dose", "interval", "absorption window"),
                   lambda e: FatRegimen([e])),
    "bolus_equi_remainder_limit": (("delta", "interval"),
                                   lambda e: bolus_equi_remainder_limit(0.3838, *e)),
    "fat_equi_limits": (("dose", "interval", "absorption window"),
                        lambda e: fat_equi_limits(PkParams(0.9, 0.25, 0.05, 10.0), *e)),
}
ENTRY_FIELDS = [(kind, i, name) for kind, (fields, _) in ENTRY_CHECKS.items()
                for i, name in enumerate(fields)]


class TestRegimenValidation:
    def test_zero_dose_rejected(self):
        with pytest.raises(NonPositiveParameter):
            validate_regimen(Arbitrary([(0.0, 4.0)]))

    def test_zero_interval_rejected(self):
        with pytest.raises(NonPositiveParameter):
            validate_regimen(EquiDose(dose=100.0, interval=0.0))

    def test_empty_arbitrary_rejected(self):
        with pytest.raises(ValidationError):
            Arbitrary([]) and validate_regimen(Arbitrary([]))

    @pytest.mark.parametrize("kind,index,name", ENTRY_FIELDS,
                             ids=[f"{k}-{n}" for k, _, n in ENTRY_FIELDS])
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_every_field_must_be_positive_finite(self, kind, index, name, bad):
        fields, build = ENTRY_CHECKS[kind]
        entry = [100.0, 4.0, 2.0][:len(fields)]
        build(tuple(entry))
        entry[index] = bad
        with pytest.raises(NonPositiveParameter, match=f"entry .*: {name} must be > 0"):
            build(tuple(entry))

    def test_entry_arity_is_checked(self):
        with pytest.raises(ValueError):
            BolusRegimen([(100.0, 4.0, 2.0)])
        with pytest.raises(ValueError):
            FatRegimen([(100.0, 4.0)])


class TestConcentrationSeries:
    def test_roundtrip_and_points(self):
        s = ConcentrationSeries([0.0, 1.0, 2.5], [0.0, 3.0, 1.5])
        assert s.points == ((0.0, 0.0), (1.0, 3.0), (2.5, 1.5))
        assert len(s) == 3

    def test_times_must_increase(self):
        with pytest.raises(ValidationError):
            ConcentrationSeries([0.0, 1.0, 1.0], [1.0, 1.0, 1.0])

    def test_negative_concentration_rejected(self):
        with pytest.raises(ValidationError):
            ConcentrationSeries([0.0, 1.0], [1.0, -0.5])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            ConcentrationSeries([0.0, 1.0], [1.0])
