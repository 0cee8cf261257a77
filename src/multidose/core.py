"""Domain types and validation shared by every other module.

Units are fixed throughout the package: time in hours, dose amounts in mg,
distribution volume in mL. All times are offsets from the first dose at
t = 0.

Every type here is an immutable value; instances are safe to share
between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

#: Relative separation below which the two rate constants are treated as
#: equal and rejected (the closed forms divide by ka - ke).
RATE_EQUALITY_RTOL = 1e-9


class PkError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(PkError, ValueError):
    """Invalid parameters, regimens, schemas, or input data."""


class NonPositiveParameter(ValidationError):
    """A parameter that must be strictly positive is not."""


class EqualRateConstants(ValidationError):
    """ka and ke coincide within RATE_EQUALITY_RTOL; the model excludes this."""


class InsufficientData(ValidationError):
    """Too few data points for the requested estimation."""


class NumericalError(PkError):
    """A numerical procedure failed to produce a trustworthy result."""


class NoConvergence(NumericalError):
    """Iteration limits hit or verification failed; carries final state."""

    def __init__(self, message: str, **context):
        super().__init__(message)
        self.context = context


@dataclass(frozen=True)
class PkParams:
    """Patient/drug parameter vector for first-order absorption-elimination.

    ka and ke are the absorption and elimination rate constants (1/h),
    gamma is the lumped bioavailability factor (dimensionless) scaling
    absorbed amount into concentration, volume the distribution volume
    (mL). Both orderings are permitted: ka > ke (the usual case) and
    ka < ke (flip-flop kinetics). ka == ke is rejected by
    validate_params; the closed forms are singular there.
    """

    ka: float
    ke: float
    gamma: float
    volume: float = 5000.0


def validate_positive(name: str, value: float) -> float:
    """`value` unchanged when it is finite and > 0.

    The one rule for doses, intervals, absorption windows, rates, volumes
    and tolerances: anything else, NaN and infinity included, raises
    NonPositiveParameter naming `name`.
    """
    if not 0.0 < value < math.inf:
        raise NonPositiveParameter(f"{name} must be > 0 and finite, got {value!r}")
    return value


def validate_times(times):
    """`times` unchanged if finite, >= 0 and strictly increasing; else a ValidationError
    naming the first time that is not."""
    for i, v in enumerate(times):
        if not np.isfinite(v) or v < 0.0:
            raise ValidationError(f"time at index {i} must be finite and >= 0, got {v!r}")
        if i and v <= times[i - 1]:
            raise ValidationError(f"times must be strictly increasing; index {i} has {v!r} "
                                  f"after {times[i-1]!r}")
    return times


def validate_cycle(n, lowest: int = 1, last: int | None = None):
    """Cycle number(s) `n`, an integer or integer array, unchanged in range.

    Every value must be >= lowest and, for a schedule with a last cycle,
    <= last; ValidationError otherwise, and for any other type.
    """
    if isinstance(n, (int, np.integer)):
        low = high = n
    elif isinstance(n, np.ndarray) and np.issubdtype(n.dtype, np.integer):
        low, high = np.min(n, initial=lowest), np.max(n, initial=lowest)
    else:
        raise ValidationError(f"cycle number must be an integer, got {n!r}")
    if low < lowest:
        raise ValidationError(f"cycle number must be >= {lowest}, got {low}")
    if last is not None and high > last:
        raise ValidationError(f"cycle {high} exceeds the {last} cycles of the regimen")
    return n


def validate_params(p: PkParams) -> PkParams:
    """Check a parameter vector, returning it unchanged when valid.

    Raises NonPositiveParameter or EqualRateConstants naming the violated
    bound. Idempotent and total over finite floating-point inputs.
    """
    for name in ("ka", "ke", "gamma", "volume"):
        validate_positive(name, getattr(p, name))
    if abs(p.ka - p.ke) < RATE_EQUALITY_RTOL * max(p.ka, p.ke):
        raise EqualRateConstants(
            f"ka={p.ka!r} and ke={p.ke!r} are equal within relative "
            f"tolerance {RATE_EQUALITY_RTOL:g}; this model requires ka != ke"
        )
    return p


@dataclass(frozen=True)
class EquiDose:
    """Constant regimen: `dose` every `interval` hours without end; `window`,
    for the FAT model only, is every cycle's absorption window (hours).

    All are checked on construction, as validate_entries checks an entry.
    """

    dose: float
    interval: float
    window: float | None = None

    def __post_init__(self):
        fields = ("dose", "interval", "absorption window")[:len(self.entry)]
        validate_entries([self.entry], fields, "regimen")

    @property
    def entry(self) -> tuple[float, ...]:
        """(dose, interval), and the window when there is one."""
        return (self.dose, self.interval) + (() if self.window is None else (self.window,))


@dataclass(frozen=True)
class Arbitrary:
    """Arbitrary regimen: ordered (dose_n, interval_n) pairs.

    Dose n is administered at t_{n-1} = sum of the preceding intervals
    (the first dose at t = 0); interval_n is the time from dose n to
    dose n+1, so entry n spans the cycle [t_{n-1}, t_n]. A skipped
    intake is encoded by widening the previous entry's interval. The
    entries are checked on construction by validate_entries.
    """

    entries: tuple[tuple[float, float], ...]

    def __init__(self, entries: Iterable[Sequence[float]]):
        object.__setattr__(self, "entries", validate_entries(
            entries, ("dose", "interval"), "arbitrary regimen"))


Regimen = Union[EquiDose, Arbitrary]


def validate_entries(entries: Iterable[Sequence[float]], fields: Sequence[str],
                     kind: str) -> tuple[tuple[float, ...], ...]:
    """Schedule entries as float tuples, one value per name in `fields`.

    Every value must be finite and > 0 (NonPositiveParameter names the
    entry and field). A third field is an absorption window and may not
    exceed the entry's interval. `kind` names the regimen when empty.
    """
    rows = tuple(tuple(float(v) for _, v in zip(fields, entry, strict=True))
                 for entry in entries)
    if not rows:
        raise ValidationError(f"{kind} must have at least one entry")
    for n, row in enumerate(rows, start=1):
        for name, value in zip(fields, row):
            validate_positive(f"entry {n}: {name}", value)
        if len(row) > 2 and row[2] > row[1]:
            raise ValidationError(
                f"entry {n}: {fields[2]} must be <= interval, "
                f"got {row[2]!r} > {row[1]!r}"
            )
    return rows


def validate_regimen(r: Regimen, table: type = Arbitrary, kind: str = "an oral regimen",
                     windowed: bool = False) -> Regimen:
    """r unchanged when it is a `table` (by default an oral Arbitrary) or an
    EquiDose with a window exactly when `windowed`, each checked on
    construction; ValidationError naming `kind` and r otherwise."""
    equi = isinstance(r, EquiDose)
    if (r.window is not None) == windowed if equi else isinstance(r, table):
        return r
    got = f"EquiDose with window={r.window!r}" if equi else type(r).__name__
    raise ValidationError(f"expected {kind}, got {got}")


def dose_times(r: Regimen, n_max: int | None = None) -> np.ndarray:
    """Cumulative dose-time grid [t_0=0, t_1, ..., t_{n_max}].

    t_{n-1} is when dose n is administered; t_n closes cycle n. For an
    EquiDose regimen t_n = n * interval and n_max is required; for an
    Arbitrary regimen n_max defaults to the number of entries and may
    not exceed it.
    """
    if isinstance(r, EquiDose):
        if n_max is None:
            raise ValidationError("n_max is required for an equi-dose regimen")
        return np.arange(validate_cycle(n_max) + 1, dtype=float) * r.interval
    last = len(r.entries)
    n_max = validate_cycle(last if n_max is None else n_max, last=last)
    intervals = np.array([tau for _, tau in r.entries[:n_max]], dtype=float)
    return np.concatenate(([0.0], np.cumsum(intervals)))


@dataclass(frozen=True)
class ConcentrationSeries:
    """Sampled (time, concentration) data.

    Times are hours, strictly increasing and >= 0; concentrations are
    >= 0.
    """

    times: tuple[float, ...]
    values: tuple[float, ...]

    def __init__(self, times: Iterable[float], values: Iterable[float]):
        t = tuple(float(v) for v in times)
        c = tuple(float(v) for v in values)
        if len(t) != len(c):
            raise ValidationError(
                f"times ({len(t)}) and values ({len(c)}) differ in length"
            )
        validate_times(t)
        for i, v in enumerate(c):
            if not np.isfinite(v) or v < 0.0:
                raise ValidationError(
                    f"concentration at index {i} must be finite and >= 0, got {v!r}"
                )
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", c)

    def __len__(self) -> int:
        return len(self.times)

    @property
    def points(self) -> tuple[tuple[float, float], ...]:
        return tuple(zip(self.times, self.values))

    def times_array(self) -> np.ndarray:
        return np.asarray(self.times, dtype=float)

    def values_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)
