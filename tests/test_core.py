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
from multidose.bateman import arbitrary_multidose, equi_multidose, single_dose
from multidose.dosing import f_ratio, f_ratio_excess
from multidose.extmodels import (
    BolusRegimen,
    FatRegimen,
    bolus_equi_remainder_limit,
    bolus_multidose,
    fat_equi_limits,
)
from multidose.fit import fit_batch
from multidose.pkmetrics import auc_cycle, auc_single, peak
from multidose.steady_state import (
    auc_equality_check,
    gap_envelope,
    n_epsilon,
    ss_lower,
    ss_upper,
    summarize,
    width,
    width_limit,
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


# One entry of each regimen type and how it is checked: every regimen on
# construction, and the constant-interval limits of both extension models
# on their arguments.
ENTRY_CHECKS = {
    "EquiDose": (("dose", "interval"), lambda e: EquiDose(*e)),
    "Arbitrary": (("dose", "interval"), lambda e: Arbitrary([(9.0, 4.0), e])),
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


TABLES = {Arbitrary: [(100.0, 4.0), (50.0, 6.0)], BolusRegimen: [(100.0, 4.0), (50.0, 6.0)],
          FatRegimen: [(100.0, 4.0, 2.0), (50.0, 6.0, 1.0)]}


class TestTableTypes:
    """The three schedule tables share one base and stay distinct types."""

    @pytest.mark.parametrize("table", [BolusRegimen, FatRegimen], ids=lambda t: t.__name__)
    def test_oral_solution_rejects_other_tables(self, canonical, table):
        with pytest.raises(ValidationError,
                           match=f"^expected an oral regimen, got {table.__name__}$"):
            arbitrary_multidose(canonical, table(TABLES[table]))

    def test_same_entries_are_not_equal_across_types(self):
        entries = TABLES[Arbitrary]
        assert Arbitrary(entries) == Arbitrary(entries)
        assert Arbitrary(entries) != BolusRegimen(entries)
        assert BolusRegimen(entries) != Arbitrary(entries)

    @pytest.mark.parametrize("table", list(TABLES), ids=lambda t: t.__name__)
    def test_repr_names_own_class(self, table):
        entries = tuple(TABLES[table])
        assert repr(table(entries)) == f"{table.__name__}(entries={entries!r})"

    def test_no_table_subclasses_another(self):
        assert not any(issubclass(a, b) for a in TABLES for b in TABLES if a is not b)


P = PkParams(0.9, 0.25, 0.05, 10.0)
FIT_TIMES = [0.5, 1.0, 2.0, 4.0, 8.0, 12.0]
FIT_VALUES = [single_dose(P, 100.0).x(FIT_TIMES).tolist()]

# Every public entry point that takes a dose, an interval, a rate or eps:
# valid positional arguments, and the position and name of each such
# argument. Where the first argument is a PkParams its four fields are
# checked too, and `cycle` is the position of a cycle number, if any.
SCALAR_CHECKS = {
    "single_dose": (single_dose, (P, 100.0), {1: "dose"}, None),
    "auc_single": (auc_single, (P, 100.0), {1: "dose"}, None),
    "auc_cycle": (auc_cycle, (P, 100.0, 6.0, 3), {1: "dose", 2: "interval"}, 3),
    "peak": (peak, (P, 100.0, 6.0, 3), {1: "dose", 2: "interval"}, 3),
    "ss_lower": (ss_lower, (P, 100.0, 6.0), {1: "dose", 2: "interval"}, None),
    "ss_upper": (ss_upper, (P, 100.0, 6.0), {1: "dose", 2: "interval"}, None),
    "width": (width, (P, 100.0, 6.0), {1: "dose", 2: "interval"}, None),
    "width_limit": (width_limit, (P, 100.0), {1: "dose"}, None),
    "n_epsilon": (n_epsilon, (P, 100.0, 6.0, 1e-6),
                  {1: "dose", 2: "interval", 3: "eps"}, None),
    "summarize": (summarize, (P, 100.0, 6.0, 1e-6),
                  {1: "dose", 2: "interval", 3: "eps"}, None),
    "auc_equality_check": (auc_equality_check, (P, 100.0, 6.0),
                           {1: "dose", 2: "interval"}, None),
    "gap_envelope": (gap_envelope, (P, 100.0, 6.0, 3), {1: "dose", 2: "interval"}, 3),
    "f_ratio": (f_ratio, (P, 6.0), {1: "interval"}, None),
    "f_ratio_excess": (f_ratio_excess, (P, 6.0), {1: "interval"}, None),
    "equi_multidose": (equi_multidose, (P, 100.0, 6.0), {1: "dose", 2: "interval"}, None),
    "bolus_multidose": (lambda ke: bolus_multidose(ke, BolusRegimen([(100.0, 6.0)])),
                        (0.3,), {0: "ke"}, None),
    "bolus_equi_remainder_limit": (bolus_equi_remainder_limit, (0.3, 100.0, 6.0),
                                   {0: "ke", 1: "delta", 2: "interval"}, None),
    "fat_equi_limits": (fat_equi_limits, (P, 100.0, 6.0, 2.0),
                        {1: "dose", 2: "interval", 3: "absorption window"}, None),
    "fit_batch": (fit_batch, (FIT_TIMES, FIT_VALUES, 100.0, 10.0),
                  {2: "dose", 3: "volume"}, None),
}
PARAM_FIELDS = ("ka", "ke", "gamma", "volume")
# A PkParams field is at position None.
SCALAR_FIELDS = [(func, index, name) for func, (_, args, fields, _) in SCALAR_CHECKS.items()
                 for index, name in [*fields.items(), *((None, f) for f in PARAM_FIELDS
                                                        if isinstance(args[0], PkParams))]]


class TestOneRule:
    """The core rule, finite and > 0, at every entry point that takes a
    dose, an interval, a rate or eps, and n >= 1 for cycle numbers."""

    @pytest.mark.parametrize("func", SCALAR_CHECKS)
    def test_valid_arguments_pass(self, func):
        call, args, _, _ = SCALAR_CHECKS[func]
        call(*args)

    @pytest.mark.parametrize("func,index,name", SCALAR_FIELDS,
                             ids=[f"{f}-{n}" for f, _, n in SCALAR_FIELDS])
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_every_argument_must_be_positive_finite(self, func, index, name, bad):
        call, args, _, _ = SCALAR_CHECKS[func]
        args = list(args)
        if index is None:
            args[0] = PkParams(**{**vars(P), name: bad})
        else:
            args[index] = bad
        with pytest.raises(NonPositiveParameter, match=f"{name} must be > 0 and finite"):
            call(*args)

    @pytest.mark.parametrize("func", [f for f, c in SCALAR_CHECKS.items() if c[3]])
    @pytest.mark.parametrize("bad", [1.5, 2.0, "2", np.array([2.5])])
    def test_cycle_numbers_are_integers(self, func, bad):
        call, args, _, cycle = SCALAR_CHECKS[func]
        args = list(args)
        args[cycle] = bad
        with pytest.raises(ValidationError, match="cycle number must be an integer"):
            call(*args)

    @pytest.mark.parametrize("regimen", [EquiDose(100.0, 6.0),
                                         Arbitrary([(100.0, 6.0)] * 3)],
                             ids=["equi", "arbitrary"])
    @pytest.mark.parametrize("method", ["coefficients", "remainders"])
    def test_solution_cycle_numbers_are_integers(self, regimen, method):
        sol = arbitrary_multidose(P, regimen)
        getattr(sol, method)(np.int64(2))
        for bad in (1.5, 2.0):
            with pytest.raises(ValidationError, match="cycle number must be an integer"):
                getattr(sol, method)(bad)

    @pytest.mark.parametrize("func", [f for f, c in SCALAR_CHECKS.items() if c[3]])
    def test_cycle_numbers_start_at_one(self, func):
        call, args, _, cycle = SCALAR_CHECKS[func]
        args = list(args)
        args[cycle] = 0
        with pytest.raises(ValidationError, match="cycle number must be >= 1"):
            call(*args)


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
