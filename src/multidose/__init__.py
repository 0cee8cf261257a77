"""Multi-dose pharmacokinetics with exact closed-form trajectories.

Single-dose, constant-interval, and arbitrary oral dosing schedules,
plus IV-bolus and finite-absorption-time variants; per-cycle metrics,
steady-state bounds and convergence, regimen design against target
concentration ranges, and nonlinear least-squares parameter estimation.
Everything analytic is cross-checkable against the independent
superposition oracle in `multidose.oracle`.
"""

__version__ = "0.1.0"

from .core import (
    Arbitrary,
    ConcentrationSeries,
    EqualRateConstants,
    EquiDose,
    InsufficientData,
    NoConvergence,
    NonPositiveParameter,
    NumericalError,
    PkError,
    PkParams,
    ValidationError,
    dose_times,
    validate_params,
    validate_regimen,
)
from .bateman import (
    PiecewiseSolution,
    arbitrary_multidose,
    equi_multidose,
    single_dose,
)
from .pkmetrics import CycleMetrics, auc_cycle, auc_single, cycle_metrics, peak
from .steady_state import (
    SteadyStateSummary,
    auc_equality_check,
    gap_envelope,
    n_epsilon,
    periodicity_gap,
    ss_lower,
    ss_upper,
    width,
    width_limit,
)
from .dosing import (
    TherapeuticTarget,
    design,
    f_ratio,
    f_ratio_excess,
    feasible_set_check,
)
from .fit import FitResult, fit_batch, fit_single_dose, predict
from .extmodels import (
    BolusRegimen,
    FatRegimen,
    bolus_equi_remainder_limit,
    bolus_multidose,
    fat_equi_limits,
    fat_multidose,
)

__all__ = [name for name in dir() if not name.startswith("_")]
