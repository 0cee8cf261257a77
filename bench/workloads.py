"""Seeded inputs, child commands and correctness checks of the workloads.

`make(name, seed, workdir)` writes every input file a workload needs into
`workdir` and returns its operations (`Job`s): the child-process
arguments, the output file, the units of work done, and the check that the
output is right. The same seed gives the same files. The multidose program
sees only these files.

The checks compare a seeded subsample of the output against independent
references: `multidose.oracle.superpose`/`superpose_gut` for the oral
model, and sums of shifted single-dose responses written here for the IV
bolus and finite-absorption (FAT) models, which the oracle module does not
cover. CSV values carry six significant digits, so they are compared to
that precision; JSON values to near machine precision.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from multidose import oracle
from multidose.core import Arbitrary, EquiDose, PkParams

import query

#: ka, ke (1/h), gamma, volume (mL): the clarithromycin vector of the test suite.
CLARITHROMYCIN = (0.7480, 0.2031, 19.1933, 5000.0)
CSV_HEADER = "t_hours,x_conc,y_mg,cycle"
CSV_RTOL = 6e-6  # rounding of a six-significant-digit value
JSON_RTOL = 1e-8
SAMPLE = 48      # rows or points compared per checked output


@dataclass
class Job:
    """One child-process run: `child.py MARK TRACE *args`."""

    args: list[str]
    out: Path
    units: int
    check: Callable[[Path], list[str]]  # problems found in the output


@dataclass(frozen=True)
class Workload:
    name: str
    unit: str
    why: str
    make: Callable[[np.random.Generator, Path, bool], list[Job]]


def make(name: str, seed: int, workdir: Path, smoke: bool = False) -> list[Job]:
    """The seeded operations of one round of workload `name`."""
    return WORKLOADS[name].make(np.random.default_rng(seed), workdir, smoke)


# -- generators -------------------------------------------------------------------


def _jitter(rng, values, rel: float) -> tuple[float, ...]:
    return tuple(float(v * (1.0 + rel * rng.uniform(-1.0, 1.0))) for v in values)


def _params(ka, ke, gamma, volume) -> dict:
    return {"ka": ka, "ke": ke, "gamma": gamma, "volume": volume, "time_unit": "h"}


def _write_regimen(path: Path, model: str, params: dict, schedule: dict,
                   horizon: float, step: float) -> None:
    path.write_text(json.dumps({"schema": 1, "model": model, "params": params,
                                "schedule": schedule, "horizon": horizon,
                                "sample_step": step}))


def _sample_times(horizon: float, step: float) -> np.ndarray:
    """The CLI's simulate grid, computed the same way."""
    return np.arange(int(np.floor(horizon / step + 1e-9)) + 1, dtype=float) * step


def _pick(rng, size: int) -> np.ndarray:
    """Seeded sorted subsample of indices, always with the first and last."""
    inner = rng.choice(size, size=min(SAMPLE, size), replace=False)
    return np.unique(np.concatenate(([0, size - 1], inner)))


def _irregular(rng, n: int, span: float, base, late=0.0, skip=0.0) -> np.ndarray:
    """n intervals around `base` hours, scaled to sum to `span`.

    With probability `skip` an intake is missed (its interval doubles);
    with probability `late` it comes late, shortening the next interval.
    """
    taus = np.full(n, base, dtype=float)
    for i in range(n - 1):
        u = rng.uniform()
        if u < skip:
            taus[i] += taus[i]
        elif u < skip + late:
            delay = rng.uniform(0.1, 0.4) * taus[i + 1]
            taus[i] += delay
            taus[i + 1] -= delay
    return taus * (span / taus.sum())


def _simulate_dense(rng, workdir: Path, smoke: bool) -> list[Job]:
    horizon, step = (240.0, 0.5) if smoke else (8760.0, 0.08)
    ka, ke, gamma, volume = _jitter(rng, CLARITHROMYCIN, 0.02)
    dose, tau = 250.0, 12.0
    path = workdir / "simulate_dense.json"
    _write_regimen(path, "oral", _params(ka, ke, gamma, volume),
                   {"equi": {"dose": dose, "interval": tau}}, horizon, step)
    times = _sample_times(horizon, step)
    p = PkParams(ka, ke, gamma, volume)
    reference = _oral_reference(p, EquiDose(dose, tau), None)
    out = workdir / "simulate_dense.csv"
    pick = _pick(rng, times.size)
    return [Job(["cli", "simulate", str(path), "--out", str(out)], out, times.size,
                lambda o: _check_csv(o, times, pick, reference))]


def _analyze_slow_clearance(rng, workdir: Path, smoke: bool) -> list[Job]:
    # ke*tau ~ 2e-3: the n_epsilon scan walks ~9,200 cycles at eps 1e-9.
    n_cycles, ke = (200, 0.05) if smoke else (10_000, 0.002)
    ka, ke, gamma = _jitter(rng, (0.8, ke, 1.0), 0.01)
    volume, dose, tau, eps = 1000.0, 100.0, 1.0, 1e-9
    path = workdir / "analyze_slow_clearance.json"
    _write_regimen(path, "oral", _params(ka, ke, gamma, volume),
                   {"equi": {"dose": dose, "interval": tau}}, n_cycles * tau, 1.0)
    out = workdir / "analyze_slow_clearance.json.out"
    p = PkParams(ka, ke, gamma, volume)
    pick = np.unique(np.concatenate(([1, n_cycles],
                                     rng.choice(n_cycles, 4, replace=False) + 1)))
    return [Job(["cli", "analyze", str(path), "--eps", repr(eps), "--out", str(out)],
                out, n_cycles,
                lambda o: _check_analyze(o, p, dose, tau, n_cycles, eps, pick))]


def _fit_mc(rng, workdir: Path, smoke: bool) -> list[Job]:
    reps = 20 if smoke else 1000
    truth = _jitter(rng, CLARITHROMYCIN[:3], 0.02)
    dose, volume = 250.0, CLARITHROMYCIN[3]
    t = np.array([0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 10.0, 12.0, 16.0, 24.0])
    clean = _single_dose(truth, volume, dose, t)
    noisy = np.maximum(clean + rng.normal(0.0, 0.01 * clean.max(), t.size), 0.0)
    path = workdir / "fit_series.csv"
    rows = zip(t.tolist(), noisy.tolist())
    path.write_text("t,c\n" + "".join(f"{a!r},{b!r}\n" for a, b in rows))
    out = workdir / "fit.json"
    seed = int(rng.integers(2**31))
    args = ["cli", "fit", str(path), "--dose", repr(dose), "--volume", repr(volume),
            "--time-unit", "h", "--mc-reps", str(reps), "--mc-noise", "0.02",
            "--seed", str(seed), "--out", str(out)]
    return [Job(args, out, reps + 1, lambda o: _check_fit(o, truth, reps))]


def _verify_mixed(rng, workdir: Path, smoke: bool) -> list[Job]:
    n, span, step = (40, 320.0, 0.25) if smoke else (1000, 4000.0, 0.25)
    times = _sample_times(span, step)
    jobs = []

    # Oral, regular but for skipped and late intakes.
    ka, ke, gamma, volume = _jitter(rng, CLARITHROMYCIN, 0.02)
    taus = _irregular(rng, n, span, 8.0, late=0.15, skip=0.05)
    doses = np.full(n, 250.0)
    p = PkParams(ka, ke, gamma, volume)
    reference = _oral_reference(p, Arbitrary(zip(doses, taus)), n)
    schedule = {"arbitrary": [{"dose": d, "interval": tau}
                              for d, tau in zip(doses.tolist(), taus.tolist())]}
    jobs.append(_verify_job(rng, workdir, "oral", _params(ka, ke, gamma, volume),
                            schedule, span, step, times, reference))

    # FAT with varying absorption windows.
    ka, ke, gamma, volume = _jitter(rng, CLARITHROMYCIN, 0.02)
    taus = _irregular(rng, n, span, rng.uniform(6.0, 10.0, n))
    doses = rng.choice([250.0, 375.0, 500.0], n)
    offsets = taus * rng.uniform(0.1, 0.6, n)
    entries = list(zip(doses.tolist(), taus.tolist(), offsets.tolist()))
    reference = _fat_reference(PkParams(ka, ke, gamma, volume), entries)
    schedule = {"arbitrary": [{"dose": d, "interval": tau, "fat_offset": s}
                              for d, tau, s in entries]}
    jobs.append(_verify_job(rng, workdir, "fat", _params(ka, ke, gamma, volume),
                            schedule, span, step, times, reference))

    # IV bolus with mixed doses and intervals.
    (ke,) = _jitter(rng, (0.3838,), 0.02)
    taus = _irregular(rng, n, span, rng.choice([4.0, 6.0, 8.0, 12.0], n))
    deltas = rng.choice([300.0, 400.0, 500.0, 600.0, 700.0], n)
    entries = list(zip(deltas.tolist(), taus.tolist()))
    schedule = {"arbitrary": [{"dose": d, "interval": tau} for d, tau in entries]}
    jobs.append(_verify_job(rng, workdir, "bolus", {"ke": ke, "time_unit": "h"},
                            schedule, span, step, times, _bolus_reference(ke, entries)))
    return jobs


def _verify_job(rng, workdir, model, params, schedule, span, step, times, reference):
    path = workdir / f"verify_{model}.json"
    _write_regimen(path, model, params, schedule, span, step)
    out = workdir / f"verify_{model}.csv"
    pick = _pick(rng, times.size)
    return Job(["cli", "simulate", str(path), "--verify", "--out", str(out)],
               out, times.size, lambda o: _check_csv(o, times, pick, reference))


def _trajectory_query(rng, workdir: Path, smoke: bool) -> list[Job]:
    n_dense, n_far, far_max, n_entries = ((2_000, 2, 1e4, 40) if smoke
                                          else (200_000, 12, 1e6, 2_000))
    solutions, dense, far, refs = [], [], [], []

    def add(item, horizon, reference, far_times=()):
        solutions.append(item)
        dense.append(np.sort(rng.uniform(0.0, horizon, n_dense)))
        far.append(np.array(far_times, dtype=float))
        refs.append(reference)

    # Constant-interval oral, tau ~ 1 h, including flip-flop (ka < ke).
    for base, dose, tau in ((CLARITHROMYCIN, 250.0, 1.0),
                            ((0.15, 0.6, 5.0, 1000.0), 100.0, 1.5),
                            ((1.0, 0.1, 1.0, 1.0), 100.0, 0.75)):
        params = _jitter(rng, base, 0.02)
        item = {"kind": "equi", "params": params, "dose": dose, "tau": tau}
        # Spread over [0.1, 1] x far_max; the largest sets the peak memory today.
        far_times = (far_max * np.linspace(0.1, 1.0, n_far)
                     * rng.uniform(0.99, 1.0, n_far))
        add(item, 2_000.0, _oral_reference(PkParams(*params), EquiDose(dose, tau), None),
            far_times.tolist())

    params = _jitter(rng, CLARITHROMYCIN, 0.02)
    span = 8.0 * n_entries
    taus = _irregular(rng, n_entries, span, 8.0, late=0.15, skip=0.05)
    entries = list(zip(rng.choice([125.0, 250.0, 500.0], n_entries).tolist(),
                       taus.tolist()))
    add({"kind": "arbitrary", "params": params, "entries": entries}, 1.05 * span,
        _oral_reference(PkParams(*params), Arbitrary(entries), n_entries))

    n_ext = n_entries // 2
    params = _jitter(rng, CLARITHROMYCIN, 0.02)
    taus = _irregular(rng, n_ext, 8.0 * n_ext, rng.uniform(6.0, 10.0, n_ext))
    entries = list(zip(rng.choice([250.0, 500.0], n_ext).tolist(), taus.tolist(),
                       (taus * rng.uniform(0.1, 0.6, n_ext)).tolist()))
    add({"kind": "fat", "params": params, "entries": entries}, 8.4 * n_ext,
        _fat_reference(PkParams(*params), entries))

    (ke,) = _jitter(rng, (0.3838,), 0.02)
    taus = _irregular(rng, n_ext, 8.0 * n_ext, rng.choice([4.0, 8.0, 12.0], n_ext))
    entries = list(zip(rng.choice([300.0, 500.0, 700.0], n_ext).tolist(), taus.tolist()))
    add({"kind": "bolus", "ke": ke, "entries": entries}, 8.4 * n_ext,
        _bolus_reference(ke, entries))

    pick = _pick(rng, n_dense)
    spec_path, arrays_path = workdir / "query.json", workdir / "query.npz"
    spec_path.write_text(json.dumps({"solutions": solutions, "sample": pick.tolist()}))
    np.savez(arrays_path, **{f"dense_{i}": a for i, a in enumerate(dense)},
             **{f"far_{i}": a for i, a in enumerate(far)})
    out = workdir / "query.out.json"
    units = sum(query.points(s["kind"], n_dense, f.size) for s, f in zip(solutions, far))
    cases = list(zip(solutions, dense, far, refs))
    return [Job(["query", str(spec_path), str(arrays_path), str(out)], out, units,
                lambda o: _check_query(o, cases, pick))]


# -- references ---------------------------------------------------------------------


def _single_dose(params, volume, dose, t):
    ka, ke, gamma = params[:3]
    gain = ka * gamma / (volume * (ka - ke))
    return gain * dose * (np.exp(-ke * t) - np.exp(-ka * t))


def _cycles(starts: np.ndarray, t: np.ndarray, n_cycles) -> np.ndarray:
    """1-based cycle covering t; a dose instant starts the new cycle."""
    idx = np.searchsorted(starts, t, side="right")
    return idx if n_cycles is None else np.minimum(idx, n_cycles)


def _oral_reference(p: PkParams, regimen, n_cycles):
    """(x, y, cycle) at t from the superposition oracle."""
    def reference(t):
        x = oracle.superpose(p, regimen)(t)
        y = oracle.superpose_gut(p, regimen)(t)
        if n_cycles is None:
            tau = regimen.interval
            starts = np.arange(int(np.floor(t.max() / tau)) + 2, dtype=float) * tau
        else:
            starts = np.cumsum([0.0] + [tau for _, tau in regimen.entries])[:-1]
        return x, y, _cycles(starts, t, n_cycles)
    return reference


def _bolus_reference(ke: float, entries):
    deltas = np.array([d for d, _ in entries])
    starts = np.concatenate(([0.0], np.cumsum([tau for _, tau in entries])))[:-1]

    def reference(t):
        dt = t[:, None] - starts[None, :]
        live = dt >= 0.0
        x = np.where(live, deltas * np.exp(-ke * np.where(live, dt, 0.0)), 0.0)
        return x.sum(axis=1), np.zeros_like(t), _cycles(starts, t, len(entries))
    return reference


def _fat_reference(p: PkParams, entries):
    """Each dose absorbs only within its own window, then clears."""
    doses, taus, cuts = (np.array(col) for col in zip(*entries))
    starts = np.concatenate(([0.0], np.cumsum(taus)))[:-1]
    gain = p.ka * p.gamma / (p.volume * (p.ka - p.ke))

    def reference(t):
        dt = t[:, None] - starts[None, :]
        absorbed = np.clip(dt, 0.0, cuts)
        rise = gain * doses * (np.exp(-p.ke * absorbed) - np.exp(-p.ka * absorbed))
        x = np.where(dt >= 0.0, rise * np.exp(-p.ke * np.maximum(dt - cuts, 0.0)), 0.0)
        cycle = _cycles(starts, t, len(entries))
        since = t - starts[cycle - 1]
        y = np.where(since < cuts[cycle - 1],
                     doses[cycle - 1] * np.exp(-p.ka * since), 0.0)
        return x.sum(axis=1), y, cycle
    return reference


# -- checks ---------------------------------------------------------------------------


def _close(value: float, ref: float, rtol: float, scale: float) -> bool:
    return abs(value - ref) <= rtol * abs(ref) + 1e-10 * scale


def _check_csv(path: Path, times: np.ndarray, pick: np.ndarray, reference) -> list[str]:
    """Exact header and row count; a subsample of rows against `reference`."""
    lines = path.read_text(encoding="utf-8").split("\n")
    if lines[0] != CSV_HEADER:
        return [f"header {lines[0]!r}, expected {CSV_HEADER!r}"]
    if lines[-1] != "":
        return ["output does not end with a newline"]
    rows = lines[1:-1]
    if len(rows) != times.size:
        return [f"{len(rows)} rows, expected {times.size}"]
    x_ref, y_ref, c_ref = reference(times[pick])
    x_scale = float(np.abs(x_ref).max())
    y_scale = float(np.abs(y_ref).max())
    problems = []
    for k, i in enumerate(pick):
        t, x, y, c = rows[i].split(",")
        if (t != f"{times[i]:.6g}" or not _close(float(x), x_ref[k], CSV_RTOL, x_scale)
                or not _close(float(y), y_ref[k], CSV_RTOL, y_scale)
                or int(c) != c_ref[k]):
            problems.append(f"row {i}: {rows[i]!r}, expected t={times[i]:.6g} "
                            f"x={x_ref[k]:.6g} y={y_ref[k]:.6g} cycle={c_ref[k]}")
    return problems


def _simpson(f: np.ndarray, h: float) -> float:
    return h / 3.0 * (f[0] + 4.0 * f[1:-1:2].sum() + 2.0 * f[2:-1:2].sum() + f[-1])


def _check_analyze(path: Path, p: PkParams, dose: float, tau: float, n_cycles: int,
                   eps: float, pick: np.ndarray) -> list[str]:
    """Cycle count; per-cycle AUC against quadrature of the oracle; n_epsilon
    within the exponential envelope's bound."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    cycles = doc["cycles"]
    if [c["n"] for c in cycles] != list(range(1, n_cycles + 1)):
        return [f"{len(cycles)} cycles, expected 1..{n_cycles}"]
    problems = []
    regimen = EquiDose(dose, tau)
    for n in pick.tolist():
        grid = (n - 1) * tau + np.linspace(0.0, tau, 201)
        auc = _simpson(oracle.superpose(p, regimen, n_doses=n)(grid), tau / 200)
        if not _close(cycles[n - 1]["auc"], auc, JSON_RTOL, 0.0):
            problems.append(f"cycle {n}: auc {cycles[n - 1]['auc']!r}, "
                            f"quadrature {auc!r}")
    gain = p.ka * p.gamma * dose / (p.volume * abs(p.ka - p.ke))
    k = np.arange(1, 100_000)
    envelope = gain * (np.exp(-p.ka * tau * k) + np.exp(-p.ke * tau * k))
    bound = int(k[np.argmax(envelope < eps)]) + 2  # one cycle of rounding slack
    n_eps = doc["steady_state"]["n_epsilon"]
    if not 2 <= n_eps <= bound:
        problems.append(f"n_epsilon {n_eps} outside [2, {bound}]")
    return problems


def _check_fit(path: Path, truth, reps: int) -> list[str]:
    """The fit recovers each generating parameter within 25% (at 1% noise,
    3,000 seeds stay within 11.4%); the Monte-Carlo summary is consistent."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    if doc["stderr"] == "singular":
        return ["covariance reported singular"]
    problems = []
    for name, value in zip(("ka", "ke", "gamma"), truth):
        est = doc["params"][name]
        if not abs(est - value) <= 0.25 * value:
            problems.append(f"{name} = {est!r}, generated {value!r}")
    mc = doc["monte_carlo"]
    if mc["reps"] != reps or not 0 <= mc["failed"] <= reps \
            or not 0.0 <= mc["coverage_3se"] <= 1.0:
        problems.append(f"monte_carlo summary {mc!r} for {reps} reps")
    return problems


def _far_reference(item: dict, t: float) -> tuple[float, int]:
    """x and cycle at a far time: every earlier dose summed in one array."""
    ka, ke, gamma, volume = item["params"]
    tau = item["tau"]
    starts = np.arange(int(np.floor(t / tau)) + 2, dtype=float) * tau
    dt = t - starts[starts <= t]
    x = _single_dose((ka, ke, gamma), volume, item["dose"], dt).sum()
    return float(x), int(np.searchsorted(starts, t, side="right"))


def _check_query(path: Path, cases, pick: np.ndarray) -> list[str]:
    """Sampled values against the references; `sol(t)` equal to `x`/`y`;
    three far-horizon answers per solution against a direct sum."""
    results = json.loads(path.read_text(encoding="utf-8"))
    problems = []
    for i, ((item, dense, far, reference), row) in enumerate(zip(cases, results)):
        x_ref, y_ref, c_ref = reference(dense[pick])
        x, y = np.array(row["x"]), np.array(row.get("y", np.zeros(pick.size)))
        x_scale, y_scale = float(np.abs(x_ref).max()), float(np.abs(y_ref).max())
        for k in range(pick.size):
            if not (_close(x[k], x_ref[k], JSON_RTOL, x_scale)
                    and _close(y[k], y_ref[k], JSON_RTOL, y_scale)):
                problems.append(f"solution {i} ({item['kind']}) at t={dense[pick[k]]!r}: "
                                f"x={x[k]!r} y={y[k]!r}, "
                                f"expected {x_ref[k]!r} {y_ref[k]!r}")
        if row["call_x"] != row["x"] or row.get("call_y") != row.get("y"):
            problems.append(f"solution {i}: sol(t) differs from x(t), y(t)")
        if "cycle" in row and row["cycle"] != c_ref.tolist():
            problems.append(f"solution {i}: cycle_index differs from the dose grid")
        for j in range(0, far.size, max(1, far.size // 3)):
            x_far, c_far = _far_reference(item, float(far[j]))
            if not (_close(row["far_x"][j], x_far, JSON_RTOL, 0.0)
                    and row["far_cycle"][j] == c_far):
                problems.append(f"solution {i} at t={far[j]!r}: x={row['far_x'][j]!r} "
                                f"cycle={row['far_cycle'][j]}, "
                                f"expected {x_far!r} {c_far}")
    return problems


WORKLOADS = {w.name: w for w in (
    Workload("simulate-dense", "rows",
             "rows written; CSV formatting dominates a year of q12h oral dosing "
             "sampled every 0.08 h, the equi evaluator does little",
             _simulate_dense),
    Workload("analyze-slow-clearance", "cycles",
             "cycles analysed; ke*tau ~ 2e-3 makes the n_epsilon scan walk ~9,200 "
             "cycles, with per-cycle metrics and indented JSON behind it",
             _analyze_slow_clearance),
    Workload("fit-mc", "fits",
             "fits completed; fit --mc-reps 1000 on a 12-point series is nearly all "
             "Levenberg-Marquardt, bypassing trajectories, steady state and CSV",
             _fit_mc),
    Workload("verify-mixed", "rows",
             "rows verified; simulate --verify on irregular oral, FAT and bolus "
             "schedules of 1,000 doses, where the O(doses x points) oracles dominate",
             _verify_mixed),
    Workload("trajectory-query", "points",
             "points evaluated; library x/y/__call__/cycle_index on 200k-point arrays "
             "and far-horizon scalars, where the closed-form evaluators are the cost",
             _trajectory_query),
)}
