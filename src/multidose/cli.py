"""Command-line front end.

Four subcommands: `simulate` writes a trajectory CSV from a regimen
file, `fit` estimates parameters from a concentration CSV, `design`
solves for the regimen hitting prescribed steady-state bounds, and
`analyze` reports per-cycle metrics plus the asymptotic summary.

Regimen files are JSON documents with a versioned `schema` field (see
README). Structured results are JSON, series are CSV; identical inputs
produce byte-identical outputs. Exit codes: 0 success, 2 validation
error (bad schema, parameters, or data), 3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from collections.abc import Iterator

import numpy as np

from . import __version__
from .core import (
    Arbitrary,
    ConcentrationSeries,
    NumericalError,
    PkParams,
    ValidationError,
    validate_params,
)
from . import bateman, dosing, extmodels, fit as fitmod, oracle, pkmetrics, steady_state

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

SCHEMA_VERSION = 1
VERIFY_TOLERANCE = 1e-8

_HOURS_PER_UNIT = {"h": 1.0, "day": 24.0}

#: One `simulate` CSV row: six significant digits per number.
_CSV_ROW = "%.6g,%.6g,%.6g,%d\n"
#: Rows formatted per block of `simulate` output. A block's Python lists and
#: row strings are freed before the next block is formatted, so they bound
#: the formatter's extra memory: whole-table lists raised peak RSS by a third
#: at 109k rows, and 8,192-row blocks still by 2% at 16k rows. Larger blocks
#: format no faster.
CSV_BLOCK_ROWS = 2048


class RegimenFileError(ValidationError):
    pass


def _require(doc: dict, key: str, path: str = ""):
    where = f"{path}.{key}" if path else key
    if key not in doc:
        raise RegimenFileError(f"{where}: missing required field")
    return doc[key]


def _positive(value, where: str) -> float:
    try:
        out = float(value)
    except (TypeError, ValueError):
        raise RegimenFileError(f"{where}: expected a number, got {value!r}") from None
    if not np.isfinite(out) or out <= 0.0:
        raise RegimenFileError(f"{where}: must be > 0, got {value!r}")
    return out


def _nonnegative(value, where: str) -> float:
    try:
        out = float(value)
    except (TypeError, ValueError):
        raise RegimenFileError(f"{where}: expected a number, got {value!r}") from None
    if not np.isfinite(out) or out < 0.0:
        raise RegimenFileError(f"{where}: must be >= 0, got {value!r}")
    return out


class RegimenFile:
    """Validated regimen document, converted to model units (hours)."""

    def __init__(self, doc: dict):
        if not isinstance(doc, dict):
            raise RegimenFileError("top level: expected a JSON object")
        schema = _require(doc, "schema")
        if schema != SCHEMA_VERSION:
            raise RegimenFileError(
                f"schema: unsupported version {schema!r}; this build reads "
                f"schema {SCHEMA_VERSION}"
            )
        self.model = _require(doc, "model")
        if self.model not in ("oral", "bolus", "fat"):
            raise RegimenFileError(
                f"model: expected 'oral', 'bolus', or 'fat', got {self.model!r}"
            )
        params = _require(doc, "params")
        if not isinstance(params, dict):
            raise RegimenFileError("params: expected an object")
        unit = params.get("time_unit", "h")
        if unit not in _HOURS_PER_UNIT:
            raise RegimenFileError(
                f"params.time_unit: expected 'h' or 'day', got {unit!r}"
            )
        scale = _HOURS_PER_UNIT[unit]
        self.time_unit = unit

        ke = _positive(_require(params, "ke", "params"), "params.ke") / scale
        if self.model == "bolus":
            self.params = None
            self.ke = ke
        else:
            ka = _positive(_require(params, "ka", "params"), "params.ka") / scale
            gamma = _positive(_require(params, "gamma", "params"), "params.gamma")
            volume = _positive(params.get("volume", 5000.0), "params.volume")
            self.params = validate_params(
                PkParams(ka=ka, ke=ke, gamma=gamma, volume=volume)
            )
            self.ke = ke

        schedule = _require(doc, "schedule")
        if not isinstance(schedule, dict) or len(schedule) != 1:
            raise RegimenFileError(
                "schedule: expected an object with exactly one of 'equi' or 'arbitrary'"
            )
        self._load_schedule(schedule, scale)
        self.horizon = _nonnegative(_require(doc, "horizon"), "horizon") * scale
        self.sample_step = _positive(_require(doc, "sample_step"), "sample_step") * scale

    def _load_schedule(self, schedule: dict, scale: float) -> None:
        if "equi" in schedule:
            block = schedule["equi"]
            if not isinstance(block, dict):
                raise RegimenFileError("schedule.equi: expected an object")
            dose = _positive(_require(block, "dose", "schedule.equi"),
                             "schedule.equi.dose")
            interval = _positive(_require(block, "interval", "schedule.equi"),
                                 "schedule.equi.interval") * scale
            offset = None
            if self.model == "fat":
                offset = _positive(
                    _require(block, "fat_offset", "schedule.equi"),
                    "schedule.equi.fat_offset") * scale
            self.equi = (dose, interval, offset)
            self.entries = None
        elif "arbitrary" in schedule:
            block = schedule["arbitrary"]
            if not isinstance(block, list) or not block:
                raise RegimenFileError("schedule.arbitrary: expected a non-empty array")
            entries = []
            for i, item in enumerate(block):
                where = f"schedule.arbitrary[{i}]"
                if not isinstance(item, dict):
                    raise RegimenFileError(f"{where}: expected an object")
                dose = _positive(_require(item, "dose", where), f"{where}.dose")
                interval = _positive(_require(item, "interval", where),
                                     f"{where}.interval") * scale
                if self.model == "fat":
                    offset = _positive(_require(item, "fat_offset", where),
                                       f"{where}.fat_offset") * scale
                    entries.append((dose, interval, offset))
                else:
                    entries.append((dose, interval))
            self.entries = entries
            self.equi = None
        else:
            raise RegimenFileError(
                "schedule: expected an object with exactly one of 'equi' or 'arbitrary'"
            )
        if self.model == "fat":
            rows = [self.equi] if self.equi else self.entries
            for i, (dose, interval, offset) in enumerate(rows):
                where = ("schedule.equi.fat_offset" if self.equi
                         else f"schedule.arbitrary[{i}].fat_offset")
                if offset > interval:
                    raise RegimenFileError(
                        f"{where}: absorption window {offset:g} exceeds the "
                        f"interval {interval:g} (hours)"
                    )

    # -- model construction ------------------------------------------------

    def n_cycles_in_horizon(self) -> int:
        if self.equi is not None:
            _, interval, _ = self.equi
            return max(1, int(np.floor(self.horizon / interval + 1e-12)))
        return len(self.entries)

    def oral_solution(self) -> bateman.PiecewiseSolution:
        if self.equi is not None:
            dose, interval, _ = self.equi
            return bateman.equi_multidose(self.params, dose, interval)
        return bateman.arbitrary_multidose(
            self.params, Arbitrary([(d, tau) for d, tau in self.entries])
        )

    def bolus_solution(self) -> extmodels.BolusSolution:
        if self.equi is not None:
            dose, interval, _ = self.equi
            count = max(1, int(np.floor(self.horizon / interval)) + 1)
            entries = [(dose, interval)] * count
        else:
            entries = self.entries
        return extmodels.bolus_multidose(self.ke, extmodels.BolusRegimen(entries))

    def fat_solution(self) -> extmodels.FatSolution:
        if self.equi is not None:
            dose, interval, offset = self.equi
            count = max(1, int(np.floor(self.horizon / interval)) + 1)
            entries = [(dose, interval, offset)] * count
        else:
            entries = self.entries
        return extmodels.fat_multidose(self.params, extmodels.FatRegimen(entries))

    def solution(self) -> bateman.PiecewiseSolution:
        """The closed-form solution of the file's model."""
        build = {"oral": self.oral_solution, "bolus": self.bolus_solution,
                 "fat": self.fat_solution}
        return build[self.model]()


def load_regimen_file(path: str) -> RegimenFile:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise RegimenFileError(f"{path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise RegimenFileError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return RegimenFile(doc)


# -- simulate ---------------------------------------------------------------


def _sample_times(horizon: float, step: float) -> np.ndarray:
    if horizon <= 0.0:
        return np.array([])
    count = int(np.floor(horizon / step + 1e-9))
    return np.arange(count + 1, dtype=float) * step


def cmd_simulate(args) -> int:
    regfile = load_regimen_file(args.regimen)
    times = _sample_times(regfile.horizon, regfile.sample_step)
    sol = regfile.solution()
    x, y, cycles = sol.evaluate(times)

    if args.verify:
        rates = regfile.ke if regfile.model == "bolus" else regfile.params
        reference = oracle.superpose(rates, sol.regimen)(times)
        deviation = float(np.max(np.abs(x - reference), initial=0.0))
        if deviation > VERIFY_TOLERANCE:
            print(
                f"verification failed: closed form deviates from the "
                f"superposition oracle by {deviation:.3e} (> {VERIFY_TOLERANCE:g})",
                file=sys.stderr,
            )
            return EXIT_NUMERICAL

    _write_text(args.out, "".join(_csv_blocks(times, x, y, cycles)))
    return EXIT_OK


def _csv_blocks(times, x, y, cycles) -> Iterator[str]:
    """The simulate CSV: its header, then CSV_BLOCK_ROWS rows per piece."""
    yield "t_hours,x_conc,y_mg,cycle\n"
    for start in range(0, times.size, CSV_BLOCK_ROWS):
        rows = slice(start, start + CSV_BLOCK_ROWS)
        columns = (times[rows].tolist(), x[rows].tolist(), y[rows].tolist(),
                   cycles[rows].tolist())
        yield "".join(map(_CSV_ROW.__mod__, zip(*columns)))


# -- fit ---------------------------------------------------------------------


def _read_concentration_csv(path: str, time_scale: float) -> ConcentrationSeries:
    try:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            rows = list(csv.reader(handle))
    except OSError as exc:
        raise ValidationError(f"{path}: {exc.strerror or exc}") from exc
    if not rows:
        raise ValidationError(f"{path}: empty file")
    header = [cell.strip().lower() for cell in rows[0]]
    if header != ["t", "c"]:
        raise ValidationError(
            f"{path}: expected header 't,c', got {','.join(rows[0])!r}"
        )
    times, values = [], []
    for i, row in enumerate(rows[1:], start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != 2:
            raise ValidationError(f"{path}: row {i}: expected 2 fields, got {len(row)}")
        try:
            times.append(float(row[0]) * time_scale)
            values.append(float(row[1]))
        except ValueError:
            raise ValidationError(
                f"{path}: row {i}: could not parse {row!r} as numbers"
            ) from None
    try:
        return ConcentrationSeries(times, values)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def _fit_payload(result: fitmod.FitResult, time_unit: str) -> dict:
    p = result.params
    payload = {
        "params": {"ka": p.ka, "ke": p.ke, "gamma": p.gamma, "volume": p.volume},
        "stderr": ("singular" if result.stderr is None else
                   {"ka": result.stderr[0], "ke": result.stderr[1],
                    "gamma": result.stderr[2]}),
        "covariance_status": result.covariance_status,
        "sse": result.sse,
        "r2": result.r2,
        "n_points": result.n_points,
        "rate_unit": "1/h",
        "input_time_unit": time_unit,
    }
    return payload


def cmd_fit(args) -> int:
    scale = _HOURS_PER_UNIT[args.time_unit]
    series = _read_concentration_csv(args.csv, scale)
    result = fitmod.fit_single_dose(series, args.dose, args.volume)
    payload = _fit_payload(result, args.time_unit)

    if args.mc_reps:
        payload["monte_carlo"] = _monte_carlo(series, result, args)

    _write_text(args.out, _json_dumps(payload))
    return EXIT_OK


def _monte_carlo(series: ConcentrationSeries, base: fitmod.FitResult, args) -> dict:
    rng = np.random.default_rng(args.seed)
    t = series.times_array()
    clean = fitmod.predict(t, base, args.dose, args.volume).values_array()
    sigma = args.mc_noise * clean.max()
    truth = base.params
    covered = 0
    failed = 0
    for _ in range(args.mc_reps):
        noisy = np.maximum(clean + rng.normal(0.0, sigma, size=t.size), 0.0)
        try:
            rep = fitmod.fit_single_dose(
                ConcentrationSeries(t.tolist(), noisy.tolist()),
                args.dose, args.volume)
        except (ValidationError, NumericalError):
            failed += 1
            continue
        if rep.stderr is None:
            failed += 1
            continue
        ok = (abs(rep.params.ka - truth.ka) <= 3.0 * rep.stderr[0]
              and abs(rep.params.ke - truth.ke) <= 3.0 * rep.stderr[1]
              and abs(rep.params.gamma - truth.gamma) <= 3.0 * rep.stderr[2])
        covered += ok
    done = args.mc_reps - failed
    return {
        "reps": args.mc_reps,
        "noise_fraction_of_peak": args.mc_noise,
        "seed": args.seed,
        "failed": failed,
        "coverage_3se": covered / done if done else 0.0,
    }


# -- design -------------------------------------------------------------------


def cmd_design(args) -> int:
    p = validate_params(PkParams(ka=args.ka, ke=args.ke, gamma=args.gamma,
                                 volume=args.volume))
    target = dosing.TherapeuticTarget(mic=args.mic, tc=args.tc,
                                      lower=args.ss_lower, upper=args.ss_upper)
    d_star, tau_star = dosing.design(p, target)
    payload = {
        "d_star": d_star,
        "tau_star": tau_star,
        "achieved": {
            "ss_lower": steady_state.ss_lower(p, d_star, tau_star),
            "ss_upper": steady_state.ss_upper(p, d_star, tau_star),
        },
        "targets": {"ss_lower": target.lower, "ss_upper": target.upper},
        "mic": target.mic,
        "tc": target.tc,
        "feasible": dosing.feasible_set_check(p, d_star, tau_star, target),
    }
    if args.tau_grid:
        grid = _parse_grid(args.tau_grid)
        tau_r = min(grid, key=lambda g: abs(g - tau_star))
        d_r = dosing._dose_for_trough(p, target.lower, tau_r)
        payload["rounded"] = {
            "tau": tau_r,
            "d": d_r,
            "achieved": {
                "ss_lower": steady_state.ss_lower(p, d_r, tau_r),
                "ss_upper": steady_state.ss_upper(p, d_r, tau_r),
            },
            "feasible": dosing.feasible_set_check(p, d_r, tau_r, target),
        }
    _write_text(args.out, _json_dumps(payload))
    return EXIT_OK


def _parse_grid(text: str) -> list[float]:
    try:
        grid = [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ValidationError(f"--tau-grid: could not parse {text!r}") from None
    if not grid or any(g <= 0.0 for g in grid):
        raise ValidationError("--tau-grid: expected positive, comma-separated hours")
    return grid


# -- analyze ------------------------------------------------------------------


def cmd_analyze(args) -> int:
    regfile = load_regimen_file(args.regimen)
    if regfile.model == "oral":
        payload = _analyze_oral(regfile, args.eps)
    elif regfile.model == "bolus":
        payload = _analyze_bolus(regfile)
    else:
        payload = _analyze_fat(regfile)
    _write_text(args.out, _json_dumps(payload))
    return EXIT_OK


def _cycle_row(m: pkmetrics.CycleMetrics) -> dict:
    return {"n": m.n, "auc": m.auc, "t_max": m.t_max, "x_max": m.x_max,
            "peak_in_cycle": m.peak_in_cycle}


def _analyze_oral(regfile: RegimenFile, eps: float) -> dict:
    sol = regfile.oral_solution()
    n_cycles = regfile.n_cycles_in_horizon()
    cycles = [_cycle_row(pkmetrics.cycle_metrics(sol, n))
              for n in range(1, n_cycles + 1)]
    # A convergent schedule settles into its limiting entry's cycle.
    dose, interval = (regfile.equi[:2] if regfile.equi is not None
                      else regfile.entries[-1])
    summary = steady_state.summarize(regfile.params, dose, interval, eps)
    return {
        "model": "oral",
        "schema": SCHEMA_VERSION,
        "asymptote_of": {"dose": dose, "interval": interval},
        "steady_state": {
            "ss_lower": summary.ss_lower,
            "ss_upper": summary.ss_upper,
            "width": summary.width,
            "auc_ss": summary.auc_ss,
            "auc_single": summary.auc_single,
            "auc_rel_diff": summary.auc_rel_diff,
            "n_epsilon": summary.n_epsilon,
            "epsilon": summary.epsilon,
        },
        "cycles": cycles,
    }


def _analyze_bolus(regfile: RegimenFile) -> dict:
    sol = regfile.bolus_solution()
    shown = min(sol.n_cycles, regfile.n_cycles_in_horizon())
    cycles = [{"n": n, "start_value": sol.start_value(n),
               "remainder": sol.remainder(n)} for n in range(1, shown + 1)]
    if regfile.equi is not None:
        delta, interval, _ = regfile.equi
    else:
        delta, interval = regfile.entries[-1]
    return {
        "model": "bolus",
        "schema": SCHEMA_VERSION,
        "asymptote_of": {"delta": delta, "interval": interval},
        "steady_state": {
            "remainder_limit": extmodels.bolus_equi_remainder_limit(
                regfile.ke, delta, interval),
        },
        "cycles": cycles,
    }


def _analyze_fat(regfile: RegimenFile) -> dict:
    sol = regfile.fat_solution()
    shown = min(sol.n_cycles, regfile.n_cycles_in_horizon())
    cycles = [{"n": n, "cutoff_value": sol.cutoff_value(n),
               "end_value": sol.end_value(n)} for n in range(1, shown + 1)]
    payload = {
        "model": "fat",
        "schema": SCHEMA_VERSION,
        "cycles": cycles,
    }
    if regfile.equi is not None:
        cutoff, end = extmodels.fat_equi_limits(regfile.params, *regfile.equi)
        payload["steady_state"] = {"cutoff_limit": cutoff, "end_limit": end}
    return payload


# -- plumbing -----------------------------------------------------------------


def _json_dumps(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multidose",
        description="Multi-dose pharmacokinetics: simulate closed-form "
                    "trajectories, analyze steady state, design regimens, "
                    "and fit parameters.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="trajectory CSV from a regimen file")
    sim.add_argument("regimen", help="regimen JSON file (schema 1)")
    sim.add_argument("--out", default=None, help="output CSV path (default stdout)")
    sim.add_argument("--verify", action="store_true",
                     help="cross-check against the superposition oracle; "
                          "exit 3 if they deviate by more than 1e-8")
    sim.set_defaults(func=cmd_simulate)

    fit_p = sub.add_parser("fit", help="least-squares fit of single-dose data")
    fit_p.add_argument("csv", help="input CSV with header t,c")
    fit_p.add_argument("--dose", type=float, required=True, help="administered dose (mg)")
    fit_p.add_argument("--volume", type=float, default=5000.0,
                       help="distribution volume (mL), default 5000")
    fit_p.add_argument("--time-unit", choices=("h", "day"), required=True,
                       help="unit of the input time column")
    fit_p.add_argument("--out", default=None, help="output JSON path (default stdout)")
    fit_p.add_argument("--mc-reps", type=int, default=0,
                       help="Monte-Carlo repetitions for a 3-SE coverage summary")
    fit_p.add_argument("--mc-noise", type=float, default=0.02,
                       help="Monte-Carlo noise sigma as a fraction of the peak")
    fit_p.add_argument("--seed", type=int, default=0, help="Monte-Carlo RNG seed")
    fit_p.set_defaults(func=cmd_fit)

    des = sub.add_parser("design", help="solve for the regimen hitting steady-state targets")
    des.add_argument("--ka", type=float, required=True)
    des.add_argument("--ke", type=float, required=True)
    des.add_argument("--gamma", type=float, required=True)
    des.add_argument("--volume", type=float, default=5000.0)
    des.add_argument("--mic", type=float, required=True,
                     help="minimum inhibitory concentration")
    des.add_argument("--tc", type=float, required=True, help="toxic concentration")
    des.add_argument("--ss-lower", type=float, required=True,
                     help="target steady-state trough")
    des.add_argument("--ss-upper", type=float, required=True,
                     help="target steady-state peak")
    des.add_argument("--tau-grid", default=None,
                     help="optional comma-separated intervals (hours) to round to, "
                          "re-verified against [mic, tc]")
    des.add_argument("--out", default=None, help="output JSON path (default stdout)")
    des.set_defaults(func=cmd_design)

    ana = sub.add_parser("analyze", help="steady-state summary and per-cycle metrics")
    ana.add_argument("regimen", help="regimen JSON file (schema 1)")
    ana.add_argument("--eps", type=float, default=1e-6,
                     help="steady-state tolerance for the convergence index")
    ana.add_argument("--out", default=None, help="output JSON path (default stdout)")
    ana.set_defaults(func=cmd_analyze)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
