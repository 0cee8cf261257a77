#!/usr/bin/env python3
"""Benchmark of the multidose CLI and library.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all      # every workload, one table

Run from the root of a source checkout; the program is imported from its
`src/`. Each workload is a closed loop with a single client: one child
process at a time, as a user runs the program, until S seconds have
passed (at least three rounds). Inputs come from the seed
(`workloads.py`); every output is checked, outside the timed region.

End-to-end metrics (`--trace 0`), medians over the rounds that passed:
  wall_s       spawn of the child to its exit
  setup_s      the part of wall_s before the first call into the workload
  units_per_s  work units / (wall - setup) of a round
  peak_rss_mb  peak RSS of the child, from its own rusage (os.wait4 in
               spawn.py)
Times are stated at the reference speed of `calibrate.py`: the benchmark
pins itself and its children to one vCPU, times a fixed calibration loop
between children, and scales each child's times by REFERENCE_S over the
mean of the calibrations just before and after it. The raw medians are
in the table and the saved record. The table printed before the result
line also gives the tail percentile, fail_frac (failed / attempted
operations) and sample counts. `verify-mixed` runs three children per
round; its round is their sum (peak RSS: their maximum).

Per-layer metrics (`--trace 1`) come from separate traced rounds that
alternate with untraced ones; see `tracer.py`. Times are the best traced
round's, not scaled; counts must be equal in every round.
trace.overhead_s is the median traced wall time minus the median untraced
one, both at the reference speed.

The last line of standard output is the result as JSON. A full record
with an environment stamp goes to `.bench_run/results/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import calibrate
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD = BENCH / "child.py"
SPAWN = BENCH / "spawn.py"
STATE = ROOT / ".bench_run"
MIN_ROUNDS = 3
TAIL_PERCENTILES = (99, 95, 90, 75)

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "units_per_s": "units/s",
                    "peak_rss_mb": "MB"}
CALIBRATION_CALLS = 2  # calls of the calibration loop between two children


@dataclass
class Round:
    """One round of a workload: its operations run one after another."""

    wall: float = 0.0   # at the reference speed (calibrate.py)
    setup: float = 0.0  # at the reference speed
    raw_wall: float = 0.0
    raw_setup: float = 0.0
    rss_mb: float = 0.0
    units: int = 0
    attempted: int = 0
    failed: int = 0
    bytes_out: int = 0
    traces: list = field(default_factory=list)


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def run_child(args: list[str], workdir: Path, trace_path: Path | None):
    """Run child.py once; (exit code, wall s, setup s, peak RSS MB, stderr)."""
    mark, err_path = workdir / "mark", workdir / "stderr"
    mark.unlink(missing_ok=True)
    cmd = [sys.executable, "-I", "-S", str(SPAWN), str(err_path),
           sys.executable, str(CHILD), str(mark),
           str(trace_path) if trace_path else "-", *args]
    proc = subprocess.Popen(cmd, cwd=workdir, env=child_env(), stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, _ = proc.communicate()
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)  # the spawner and the child
        proc.wait()
        raise
    run = json.loads(out)
    code = run["code"]
    setup = float(mark.read_text()) - run["start"] if mark.exists() else float("nan")
    stderr = err_path.read_text(errors="replace") if code else ""
    return code, run["wall"], setup, run["rss_mb"], stderr


class Speed:
    """Host speed from calibration loops run between children."""

    def __init__(self):
        self.last = self._calibrate()

    @staticmethod
    def _calibrate() -> float:
        return statistics.fmean(calibrate.calibrate() for _ in range(CALIBRATION_CALLS))

    def factor(self) -> float:
        """Scale to the reference speed for the child that just exited."""
        before, self.last = self.last, self._calibrate()
        return calibrate.REFERENCE_S / ((before + self.last) / 2)


class Checker:
    """Checks each job's first output in full; later outputs must be
    byte-identical to it (the CLI promises deterministic output)."""

    def __init__(self):
        self.first: dict[Path, tuple[bytes, bool]] = {}
        self.problems: list[str] = []

    def ok(self, job) -> bool:
        if not job.out.exists():
            self.problems.append(f"{job.out.name}: no output")
            return False
        digest = hashlib.sha256(job.out.read_bytes()).digest()
        if job.out not in self.first:
            found = job.check(job.out)
            self.problems += [f"{job.out.name}: {p}" for p in found[:5]]
            self.first[job.out] = (digest, not found)
        first, verdict = self.first[job.out]
        if digest != first:
            self.problems.append(f"{job.out.name}: differs from the first output")
            return False
        return verdict


def run_round(jobs, workdir: Path, checker: Checker, speed: Speed,
              traced: bool) -> Round:
    result = Round()
    for i, job in enumerate(jobs):
        job.out.unlink(missing_ok=True)
        trace_path = workdir / f"trace{i}.json" if traced else None
        code, wall, setup, rss_mb, stderr = run_child(job.args, workdir, trace_path)
        scale = speed.factor()
        result.attempted += 1
        result.wall += wall * scale
        result.setup += setup * scale
        result.raw_wall += wall
        result.raw_setup += setup
        result.rss_mb = max(result.rss_mb, rss_mb)
        result.units += job.units
        if code != 0:
            checker.problems.append(f"{job.out.name}: exit {code}: {stderr[-500:]}")
            result.failed += 1
            continue
        if not checker.ok(job):
            result.failed += 1
        if job.args[0] == "cli":
            result.bytes_out += job.out.stat().st_size
        if traced:
            result.traces.append(json.loads(trace_path.read_text()))
    return result


def tail(values) -> str:
    """Highest percentile with at least ten samples beyond it."""
    n = len(values)
    for p in TAIL_PERCENTILES:
        if n * (1 - p / 100) >= 10:
            cut = statistics.quantiles(values, n=100, method="inclusive")[p - 1]
            return f"p{p} {cut:.4f}"
    return f"no tail percentile (needs >= {10 * 100 // (100 - TAIL_PERCENTILES[-1])})"


def code_digest() -> str:
    """Hash of the program and benchmark sources, standing in for a commit."""
    digest = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *BENCH.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    import numpy

    git = {"sha": None, "dirty": None}
    if (ROOT / ".git").exists():
        def run(*args):
            return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                                  text=True, check=False).stdout.strip()
        git = {"sha": run("rev-parse", "HEAD") or None,
               "dirty": bool(run("status", "--porcelain", "--untracked-files=no"))}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        openblas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"git": git, "code_sha256": code_digest(), "python": platform.python_version(),
            "numpy": numpy.__version__, "blas": openblas,
            "nproc": os.cpu_count(), "pinned_to": sorted(os.sched_getaffinity(0)),
            "cpu": cpu,
            "loadavg": os.getloadavg()}


def check_counts(name: str, seed: int, smoke: bool, counts: dict) -> list[str]:
    """Counts must repeat exactly across runs of one code version and seed."""
    path = STATE / "counts" / f"{name}-{seed}{'-smoke' if smoke else ''}.json"
    record = {"code_sha256": code_digest(), "counts": counts}
    if path.exists():
        before = json.loads(path.read_text())
        if before["code_sha256"] == record["code_sha256"] and before["counts"] != counts:
            return [f"counts {counts} differ from an earlier run's {before['counts']}"]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record))
    return []


def layer_report(rounds: list[Round]):
    """Per-layer metrics of the traced rounds, and each layer's self time."""
    per_round, layers = [], []
    for r in rounds:
        totals, counts = Counter(), Counter()
        for trace in r.traces:
            totals.update(tracer.span_self_totals(trace["spans"]))
            counts.update(trace["counts"])
        per_round.append(tracer.layer_metrics(totals, counts, r.bytes_out))
        layers.append(tracer.layer_self_times(totals))
    metrics, problems = {}, []
    for key, (_, unit) in per_round[0].items():
        values = [m[key][0] for m in per_round]
        if key in tracer.EXACT_COUNTS:
            if len(set(values)) > 1:
                problems.append(f"{key} differs between traced rounds: {values}")
            metrics[key] = (values[0], unit)
        else:
            metrics[key] = (min(values), unit)
    self_time = {layer: min(l[layer] for l in layers) for layer in layers[0]}
    return metrics, self_time, problems


def measure(name: str, seed: int, seconds: float, trace: bool,
            smoke: bool = False) -> dict:
    """Run one workload; the full record of the run."""
    import workloads

    stamp = environment()
    (STATE / "work").mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=STATE / "work"))
    try:
        jobs = workloads.make(name, seed, workdir, smoke)
        run_child(["warmup"], workdir, None)
        checker = Checker()
        speed = Speed()
        plain, traced = [], []
        deadline = time.monotonic() + seconds
        lap = 0.0
        # Stop before a lap that would likely end past the deadline.
        while len(plain) < MIN_ROUNDS or time.monotonic() + lap <= deadline:
            begun = time.monotonic()
            plain.append(run_round(jobs, workdir, checker, speed, traced=False))
            if trace:
                traced.append(run_round(jobs, workdir, checker, speed, traced=True))
            lap = time.monotonic() - begun
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rounds = plain + traced
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    good = [r for r in plain if not r.failed]
    record = {
        "workload": name, "unit": workloads.WORKLOADS[name].unit, "seed": seed,
        "seconds": seconds, "trace": int(trace), "smoke": smoke,
        "environment": stamp, "attempted": attempted, "failed": failed,
        "fail_frac": failed / attempted, "problems": checker.problems,
        "rounds": [{"wall": r.wall, "setup": r.setup, "raw_wall": r.raw_wall,
                    "raw_setup": r.raw_setup, "rss_mb": r.rss_mb,
                    "units": r.units, "failed": r.failed} for r in rounds],
    }
    if good:
        e2e = {"wall_s": [r.wall for r in good], "setup_s": [r.setup for r in good],
               "units_per_s": [r.units / (r.wall - r.setup) for r in good],
               "peak_rss_mb": [r.rss_mb for r in good]}
        record["samples"] = e2e
        record["end_to_end"] = {k: (statistics.median(v), END_TO_END_UNITS[k])
                                for k, v in e2e.items()}
        record["raw_median"] = {"wall_s": statistics.median(r.raw_wall for r in good),
                                "setup_s": statistics.median(r.raw_setup for r in good)}
    good_traced = [r for r in traced if not r.failed]
    if good_traced and good:
        metrics, self_time, problems = layer_report(good_traced)
        counts = {k: metrics[k][0] for k in tracer.EXACT_COUNTS}
        problems += check_counts(name, seed, smoke, counts)
        metrics["trace.overhead_s"] = (statistics.median(r.wall for r in good_traced)
                                       - statistics.median(r.wall for r in good), "s")
        metrics["fail_frac"] = (record["fail_frac"], "ratio")
        record.update(per_layer=metrics, layer_self_s=self_time,
                      traced_rounds=len(good_traced))
        record["problems"] += problems
    record["correct"] = failed == 0 and not record["problems"]
    return record


def result_line(record: dict) -> dict:
    """The result object printed as the last line of standard output."""
    metrics = record["per_layer"] if record["trace"] else record["end_to_end"]
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def report(record: dict) -> list[str]:
    """Human-readable lines: every metric by name, unit and sample count."""
    n = len(record.get("samples", {}).get("wall_s", []))
    lines = [f"== {record['workload']} (seed {record['seed']}, {record['seconds']:g} s, "
             f"trace {record['trace']}; unit of work: {record['unit']})",
             f"  environment {json.dumps(record['environment'])}"]
    for key, (value, unit) in record.get("end_to_end", {}).items():
        samples = record["samples"][key]
        extra = f"; {tail(samples)}" if key == "wall_s" else ""
        if key in record["raw_median"]:
            extra += f"; raw median {record['raw_median'][key]:.6g}"
        lines.append(f"  {key:<14} {value:>14.6g} {unit:<8} median of {n}{extra}")
    lines.append(f"  {'fail_frac':<14} {record['fail_frac']:>14.6g} {'ratio':<8} "
                 f"{record['failed']} of {record['attempted']} operations")
    if "per_layer" in record:
        lines.append(f"  per layer, best of {record['traced_rounds']} traced rounds:")
        for key, (value, unit) in record["per_layer"].items():
            shown = value if isinstance(value, int) else f"{value:.6g}"
            lines.append(f"    {key:<26} {shown:>14} {unit}")
        ranked = sorted(record["layer_self_s"].items(), key=lambda kv: -kv[1])
        lines.append("  layer self time: "
                     + ", ".join(f"{k} {v:.4f} s" for k, v in ranked))
    lines += [f"  PROBLEM {p}" for p in record["problems"]]
    return lines


def save(record: dict) -> None:
    out = STATE / "results"
    out.mkdir(parents=True, exist_ok=True)
    name = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    (out / name).write_text(json.dumps(record, indent=1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # One vCPU for the calibration loop and the children, which inherit it:
    # each vCPU of a shared VM changes speed on its own.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    if not (ROOT / "src" / "multidose" / "__init__.py").is_file():
        print(f"error: no multidose source under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2

    results = {}
    for name in names:
        record = measure(name, args.seed, args.seconds, bool(args.trace))
        save(record)
        print("\n".join(report(record)), flush=True)
        if "end_to_end" not in record or (args.trace and "per_layer" not in record):
            print(f"error: no round of {name} completed", file=sys.stderr)
            return 1
        results[name] = result_line(record)
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
