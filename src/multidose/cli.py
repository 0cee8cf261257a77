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
import dataclasses
import functools
import json
import os
import sys
from collections.abc import Iterable, Iterator
from types import SimpleNamespace

import numpy as np

from . import __version__
from .core import (
    Arbitrary,
    ConcentrationSeries,
    EquiDose,
    NumericalError,
    PkParams,
    ValidationError,
    validate_params,
    validate_positive,
)
from . import bateman, dosing, extmodels, fit as fitmod, oracle, pkmetrics, steady_state

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

SCHEMA_VERSION = 1
VERIFY_TOLERANCE = 1e-8

_HOURS_PER_UNIT = {"h": 1.0, "day": 24.0}

#: Rows per `_csv_rows` call of `simulate`: 0.66 MB of arrays, and 256 KB of `words` kept
#: for the run. 8,192 were 7% faster but 0.5 MB higher in RSS, 1,024 or 109k 25-40% slower.
CSV_BLOCK_ROWS = 4096
#: Monte Carlo replicates drawn and fitted per `fit_batch` call. For 1,000
#: replicates of 12 points: a 0.75 MB traced peak and 49 ms, against 2.72 MB
#: and 40 ms in one call (in-process medians).
MC_BLOCK_ROWS = 256
_E_MIN, _E_MAX = -302, 308  # decimal exponents the CSV writer rounds in arithmetic


class RegimenFileError(ValidationError):
    pass


def _require(doc: dict, key: str, path: str = ""):
    where = f"{path}.{key}" if path else key
    if key not in doc:
        raise RegimenFileError(f"{where}: missing required field")
    return doc[key]


def _number(value, where: str, zero_ok: bool = False, unit: str | None = None) -> float:
    """`value` as a float held to `validate_positive` under its JSON path `where` (0 passes
    too if `zero_ok`), a time in `unit` in hours; RegimenFileError if not a number or inf."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise RegimenFileError(f"{where}: expected a number, got {value!r}") from None
    number = number if zero_ok and number == 0.0 else validate_positive(where, number)
    hours = number * _HOURS_PER_UNIT[unit] if unit else number
    if hours == np.inf:
        raise RegimenFileError(f"{where}: {number!r} {unit} is past float range in hours")
    return hours


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

        # What the model's solution and oracle take: ke alone for a bolus.
        self.rates = ke = _number(_require(params, "ke", "params"), "params.ke") / scale
        if self.model != "bolus":
            ka = _number(_require(params, "ka", "params"), "params.ka") / scale
            gamma = _number(_require(params, "gamma", "params"), "params.gamma")
            volume = _number(params.get("volume", 5000.0), "params.volume")
            self.rates = validate_params(PkParams(ka=ka, ke=ke, gamma=gamma, volume=volume))

        schedule = _require(doc, "schedule")
        if (not isinstance(schedule, dict) or len(schedule) != 1
                or not schedule.keys() & {"equi", "arbitrary"}):
            raise RegimenFileError(
                "schedule: expected an object with exactly one of 'equi' or 'arbitrary'"
            )
        # A schedule is a list of entries; `equi` repeats its one entry.
        self.equi = "equi" in schedule
        if self.equi:
            self.entries = [self._entry(schedule["equi"], "schedule.equi", unit)]
        else:
            block = schedule["arbitrary"]
            if not isinstance(block, list) or not block:
                raise RegimenFileError("schedule.arbitrary: expected a non-empty array")
            self.entries = [self._entry(item, f"schedule.arbitrary[{i}]", unit)
                            for i, item in enumerate(block)]
        self.horizon = _number(_require(doc, "horizon"), "horizon", zero_ok=True, unit=unit)
        self.sample_step = _number(_require(doc, "sample_step"), "sample_step", unit=unit)

    def _entry(self, item, where: str, unit: str) -> tuple:
        """(dose, interval) in hours, plus the absorption window for FAT."""
        if not isinstance(item, dict):
            raise RegimenFileError(f"{where}: expected an object")
        dose = _number(_require(item, "dose", where), f"{where}.dose")
        interval = _number(_require(item, "interval", where), f"{where}.interval", unit=unit)
        if self.model != "fat":
            return dose, interval
        offset = _number(_require(item, "fat_offset", where), f"{where}.fat_offset", unit=unit)
        if offset > interval:
            raise RegimenFileError(
                f"{where}.fat_offset: absorption window {offset:g} exceeds the "
                f"interval {interval:g} (hours)"
            )
        return dose, interval, offset

    def sample_rows(self) -> range:
        """The row indices k of the simulate grid k*sample_step through the horizon."""
        # q short of a whole k by at most 1e-9, or by 8 ulps where that is more, counts k.
        q = self.horizon / self.sample_step
        count = np.floor(q + max(1e-9, 8 * np.spacing(q))) + 1 if self.horizon > 0.0 else 0
        if not count < sys.maxsize:
            raise RegimenFileError(f"horizon/sample_step: {count:g} rows exceed {sys.maxsize}")
        return range(int(count))

    def sample_times(self, rows: range | None = None) -> np.ndarray:
        """The simulate grid's times k*sample_step for `rows` (default: every row)."""
        rows = self.sample_rows() if rows is None else rows
        return np.arange(rows.start, rows.stop, dtype=float) * self.sample_step

    def n_cycles_in_horizon(self) -> int:
        if not self.equi:
            return len(self.entries)
        q = self.horizon / self.entries[0][1]
        count = np.floor(q + max(1e-12, 8 * np.spacing(q)))
        if not count < sys.maxsize:
            raise RegimenFileError(f"horizon/interval: {count:g} cycles exceed {sys.maxsize}")
        return max(1, int(count))

    def solution(self) -> bateman.PiecewiseSolution:
        """The closed-form solution of the file's model: an equi schedule is
        its one entry repeated indefinitely, in closed form."""
        solve, table = {"oral": (bateman.arbitrary_multidose, Arbitrary),
                        "bolus": (extmodels.bolus_multidose, extmodels.BolusRegimen),
                        "fat": (extmodels.fat_multidose, extmodels.FatRegimen)}[self.model]
        regimen = EquiDose(*self.entries[0]) if self.equi else table(self.entries)
        return solve(self.rates, regimen)


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


def cmd_simulate(args) -> int:
    regfile = load_regimen_file(args.regimen)
    sol = regfile.solution()
    rows, size = regfile.sample_rows(), bateman.BLOCK_POINTS
    # One block of the grid at a time, so memory does not grow with the horizon.
    blocks = lambda: (regfile.sample_times(rows[a:a + size]) for a in range(0, len(rows), size))
    if len(rows) > size:
        # glibc unmaps a freed array of 128 KB and up, and trims the heap, so each block's
        # arrays would fault in anew; freeing one of 1 MB raises both thresholds.
        np.empty(1 << 20, np.uint8)
    # Every check runs before --out is opened: the last row's cycle (exact only
    # below 2**53 intervals), then under --verify the oracle over every block.
    sol.cycle_index(regfile.sample_times(rows[-1:]))
    kept = None  # a one-block grid's (times, x, y, cycle), evaluated once for both passes
    if args.verify:
        superposed, deviation, peak = oracle.superpose(regfile.rates, sol.regimen), 0.0, 0.0
        for times in blocks():
            reference = superposed(times)
            kept = [(times, *sol.evaluate(times))] if len(rows) <= size else None
            # np.maximum, as one max over the grid would, keeps a NaN.
            x = kept[0][1] if kept else sol.x(times)
            deviation = np.maximum(deviation, np.max(np.abs(x - reference), initial=0.0))
            peak = np.maximum(peak, np.max(np.abs(reference), initial=0.0))
        if deviation > VERIFY_TOLERANCE * max(1.0, peak):
            print(f"verification failed: closed form deviates from the superposition oracle by "
                  f"{deviation:.3e} (> {VERIFY_TOLERANCE:g} x max(1, peak {peak:.6g}))",
                  file=sys.stderr)
            return EXIT_NUMERICAL

    _write(args.out, _csv_blocks(kept or ((times, *sol.evaluate(times)) for times in blocks())))
    return EXIT_OK


def _csv_blocks(blocks: Iterable[tuple]) -> Iterator[bytes]:
    """The simulate CSV: its header, then each block's (times, x, y, cycle) rows,
    formatted CSV_BLOCK_ROWS at a time into one buffer."""
    yield b"t_hours,x_conc,y_mg,cycle\n"
    words = np.empty((CSV_BLOCK_ROWS, 8), "<u8")
    for times, x, y, cycles in blocks:
        for start in range(0, times.size, CSV_BLOCK_ROWS):
            rows = slice(start, start + CSV_BLOCK_ROWS)
            yield _csv_rows(times[rows], x[rows], y[rows], cycles[rows], words)
        del times, x, y, cycles  # before the next block's are made


def _csv_rows(times, x, y, cycles, words=None) -> bytes:
    """b"%.6g,%.6g,%.6g,%d\\n" % row for each row, built as eight NUL-padded little-
    endian words a row (in `words`, if given), two per column. Python formats the rows
    with a value near a tie, not finite or under 1e-302, or a cycle not in [0, 1e9)."""
    tab = _csv_tables()
    words = np.empty((len(times), 8), "<u8") if words is None else words[:len(times)]
    c = np.asarray(cycles, np.int64)
    ok = (c >= 0) & (c < 10 ** 9)
    for k, column in enumerate((times, x, y)):
        ok &= _g6_words(tab, np.asarray(column, float), words[:, 2 * k:2 * k + 2])
    c = np.where(ok, c, 0)
    high, top = c // 1000, c // 1000000
    # Nine digits in two words, '\n' after them; shifting right drops leading zeros.
    zeros = (64 - 8 * np.searchsorted(tab.tens, c, "right")).astype(np.uint64)
    words[:, 6] = (tab.digits3.take(top) | tab.digits3.take(high - 1000 * top) << 24
                   ) >> np.minimum(zeros, 48)
    words[:, 7] = (tab.digits3.take(c - 1000 * high) | 0x0A << 24) >> np.maximum(zeros, 48) - 48
    bad = np.flatnonzero(~ok)
    rows = zip(*(np.asarray(column)[bad].tolist() for column in (times, x, y, cycles)))
    text = np.array([b"%.6g,%.6g,%.6g,%d\n" % row for row in rows], "S64")
    words[bad] = text.view("<u8").reshape(bad.size, 8)
    return words.tobytes().translate(None, b"\0")


def _g6_words(tab, v: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write '%.6g,' of each value into two words of `out`; where it is right."""
    a = np.abs(v)
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.floor(np.log10(a) + 2.1715e-7)  # once rounded: log10(1 / 0.9999995)
        xi = (np.fmin(np.fmax(e, _E_MIN - 1), _E_MAX + 1) - (_E_MIN - 1)).astype(np.intp)
        m = a * tab.scale.take(xi)
        r = np.rint(m)
        # m = |v| * 10**(5 - e) after two roundings is off by under 3e-10, so r
        # is the exact rounding away from a tie, and e is right if m lies clear
        # inside [99999.95, 999999.5); row 0 spells zero, nan and inf fail.
        ok = (np.abs(m - r) < 0.5 - 1e-9) & (m > 99999.95 + 1e-9) & (r < 1e6) | (a == 0)
    r = np.where(ok, r, 1e5).astype(np.intp)
    high = r // 1000
    low = r - 1000 * high
    digits = tab.digits3.take(high) | tab.digits3.take(low) << 24
    j = 7 * xi + np.maximum(tab.kept_low.take(low), tab.kept_high.take(high))
    body = digits & tab.stay.take(j) | tab.point.take(j) | (digits & tab.moved.take(j)) << 8
    head = body & tab.first.take(xi)  # the digits after '0.000' go in the second word
    out[:, 0] = head << 8 | tab.prefix.take(xi) | np.signbit(v) * np.uint64(0x2D)
    out[:, 1] = body ^ head | tab.tail.take(j)
    return ok


@functools.cache
def _csv_tables() -> SimpleNamespace:
    """Lookup words of the CSV writer: ASCII bytes, first character lowest."""
    i = np.arange(1000, dtype=np.uint64)
    zeros = (i % 10 == 0).astype(np.intp) + (i % 100 == 0) + (i == 0)
    # Row k: exponent _E_MIN - 1 + k (row 0 spells zero); column: digits kept.
    xs = np.arange(_E_MIN - 1, _E_MAX + 2)
    after = (-4 <= xs) & (xs < 0)
    ip = np.where((-4 <= xs) & (xs <= 5), np.maximum(xs + 1, 0), 1)[:, None]
    mask = np.array([(1 << 8 * k) - 1 for k in range(7)], np.uint64)
    shown = mask[np.maximum(np.arange(7), ip)]
    dot = (shown > mask[ip]) & (ip > 0)
    stay, moved = np.where(dot, mask[ip], shown), np.where(dot, shown ^ mask[ip], 0)
    point = dot * (np.uint64(0x2E) << 8 * ip.astype(np.uint64))
    words = lambda texts: np.array(texts, "S8").view("<u8")
    suffix = words([b"," if -4 <= x <= 5 else b"e%+03d," % x for x in xs.tolist()])
    tail = np.where(after[:, None], (mask + np.uint64(1)) * np.uint64(0x2C), suffix[:, None])
    stay[0], moved[0], point[0], tail[0] = 0, 0, ord("0"), ord(",")
    return SimpleNamespace(
        digits3=48 + i // 100 | (48 + i // 10 % 10) << 8 | (48 + i % 10) << 16,
        kept_low=np.where(i > 0, 6 - zeros, 0), kept_high=3 - zeros,
        scale=np.array([0.0] + [float(f"1e{5 - x}") for x in xs[1:].tolist()]),
        prefix=words([b"\x000." + b"0" * (-x - 1) if -4 <= x < 0 else b"" for x in xs.tolist()]),
        first=np.where(after, np.uint64(0), ~np.uint64(0)), stay=stay, moved=moved,
        point=point, tail=tail, tens=10 ** np.arange(1, 9))


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
    return {
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


def cmd_fit(args) -> int:
    if not (args.mc_reps >= 0 and args.seed >= 0 and 0.0 <= args.mc_noise < np.inf):
        raise ValidationError("--mc-reps and --seed must be >= 0, --mc-noise finite and >= 0")
    scale = _HOURS_PER_UNIT[args.time_unit]
    series = _read_concentration_csv(args.csv, scale)
    result = fitmod.fit_single_dose(series, args.dose, args.volume)
    payload = _fit_payload(result, args.time_unit)

    if args.mc_reps:
        payload["monte_carlo"] = _monte_carlo(series, result, args)

    _write(args.out, [_json_dumps(payload).encode()])
    return EXIT_OK


def _monte_carlo(series: ConcentrationSeries, base: fitmod.FitResult, args) -> dict:
    rng = np.random.default_rng(args.seed)
    t = series.times_array()
    clean = fitmod.predict(t, base, args.dose, args.volume).values_array()
    sigma = args.mc_noise * clean.max()
    truth = base.params
    covered = 0
    failed = 0
    for start in range(0, args.mc_reps, MC_BLOCK_ROWS):
        # Draws per block continue one stream: row r is what the r-th per-row draw gives.
        noise = rng.normal(0.0, sigma, size=(min(MC_BLOCK_ROWS, args.mc_reps - start), t.size))
        for rep in fitmod.fit_batch(t, np.maximum(clean + noise, 0.0), args.dose, args.volume):
            if isinstance(rep, NumericalError) or rep.stderr is None:
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
        **_achieved(p, d_star, tau_star, target),
        "targets": {"ss_lower": target.lower, "ss_upper": target.upper},
        "mic": target.mic,
        "tc": target.tc,
    }
    if args.tau_grid:
        grid = _parse_grid(args.tau_grid)
        tau_r = min(grid, key=lambda g: abs(g - tau_star))
        forms = bateman.Bateman.of(p, bateman.EXTENDED)
        d_r = dosing._dose_for_trough(forms, target.lower, tau_r)
        payload["rounded"] = {"tau": tau_r, "d": d_r,
                              **_achieved(p, d_r, tau_r, target)}
    _write(args.out, [_json_dumps(payload).encode()])
    return EXIT_OK


def _achieved(p: PkParams, d: float, tau: float, target) -> dict:
    """A regimen's steady-state bounds, and whether they lie in [mic, tc]."""
    lower, upper = steady_state._bounds(p, d, tau)
    return {"achieved": {"ss_lower": lower, "ss_upper": upper},
            "feasible": target.admits(lower, upper)}


def _parse_grid(text: str) -> list[float]:
    try:
        grid = [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ValidationError(f"--tau-grid: could not parse {text!r}") from None
    if not grid or not all(0.0 < g < np.inf for g in grid):
        raise ValidationError("--tau-grid: expected positive, finite, comma-separated hours")
    return grid


# -- analyze ------------------------------------------------------------------


def cmd_analyze(args) -> int:
    eps = validate_positive("eps", args.eps)
    regfile = load_regimen_file(args.regimen)
    sol, n_cycles = regfile.solution(), regfile.n_cycles_in_horizon()
    # A convergent schedule settles into its limiting entry's cycle.
    dose, interval = regfile.entries[-1][:2]
    if regfile.model == "oral":
        keys = ("auc", "n", "peak_in_cycle", "t_max", "x_max")
        blocks = ((auc, n, ["true" if p else "false" for p in peak], t_max, x_max)
                  for n, auc, t_max, x_max, peak in pkmetrics.cycle_columns(sol, n_cycles))
        summary = steady_state.summarize(regfile.rates, dose, interval, eps)
        payload = {"asymptote_of": {"dose": dose, "interval": interval},
                   # Every field of the summary, under its own name.
                   "steady_state": dataclasses.asdict(summary)}
    elif regfile.model == "bolus":
        limit = extmodels.bolus_equi_remainder_limit(regfile.rates, dose, interval)
        payload = {"asymptote_of": {"delta": dose, "interval": interval},
                   "steady_state": {"remainder_limit": limit}}
        keys = ("n", "remainder", "start_value")
        blocks = ((n, end, start) for n, start, end in _cycle_states(sol, n_cycles))
    else:
        payload = {}
        if regfile.equi:
            cutoff, end = extmodels.fat_equi_limits(regfile.rates, *regfile.entries[0])
            payload["steady_state"] = {"cutoff_limit": cutoff, "end_limit": end}
        keys = ("cutoff_value", "end_value", "n")
        blocks = ((cutoff, end, n) for n, _, cutoff, end in _cycle_states(sol, n_cycles))
    payload = {"model": regfile.model, "schema": SCHEMA_VERSION, **payload}
    _write(args.out, _json_with_cycles(payload, keys, blocks))
    return EXIT_OK


def _cycle_states(sol, n_cycles: int) -> Iterator[list]:
    """[n, x entering each piece of cycle n, x closing it] as lists, for each
    block of pkmetrics.ROWS_PER_PASS cycles of 1..n_cycles, read once (`_pieces`)."""
    for lo in range(1, n_cycles + 1, pkmetrics.ROWS_PER_PASS):
        n = np.arange(lo, min(lo + pkmetrics.ROWS_PER_PASS, n_cycles + 1))
        pieces = sol._pieces(n)
        closing = sol._closing(n, pieces)[0].astype(float)
        yield [n.tolist(), *pieces[0].astype(float).T.tolist(), closing.tolist()]


def _json_with_cycles(payload: dict, keys: tuple[str, ...], blocks) -> Iterator[bytes]:
    """_json_dumps(payload) plus a "cycles" list with one object of `keys` per
    row. `keys` are sorted, and each block is a tuple of their columns in that
    order, each value a number or a JSON literal; one `%` formats a block."""
    head, _, tail = _json_dumps({**payload, "cycles": []}).partition('"cycles": []')
    # The layout json.dumps(indent=2) gives a list item; str(float) is repr.
    template = "    {\n" + ",\n".join(f'      "{key}": %s' for key in keys) + "\n    }"
    yield (head + '"cycles": [').encode()
    separator = "\n"
    for columns in blocks:
        values = [None] * (len(keys) * len(columns[0]))
        for k, column in enumerate(columns):
            values[k::len(keys)] = column
        text = separator + ",\n".join([template] * len(columns[0])) % tuple(values)
        # str writes nan/inf, the encoder NaN/Infinity; no key or finite number holds them.
        if "nan" in text or "inf" in text:
            text = text.replace("nan", "NaN").replace("inf", "Infinity")
        yield text.encode()
        separator = ",\n"
    yield ("\n  ]" + tail).encode()


# -- plumbing -----------------------------------------------------------------


def _json_dumps(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _write(path: str | None, chunks: Iterable[bytes]) -> None:
    """Write each chunk in turn to `--out`, or to stdout for None and '-'."""
    if path is None or path == "-":
        try:
            sys.stdout.buffer.writelines(chunks)
        except BrokenPipeError:  # the reader, such as `head`, has what it wanted
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return
    try:
        handle = open(path, "wb")
    except OSError as exc:
        raise ValidationError(f"{path}: {exc.strerror or exc}") from exc
    with handle:
        handle.writelines(chunks)


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
                     help="cross-check against the superposition oracle; exit 3 if "
                          "they deviate by more than 1e-8 x max(1, peak |x|)")
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
