import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from multidose import cli
from multidose.cli import (CSV_BLOCK_ROWS, _csv_rows, _json_with_cycles, _monte_carlo,
                           load_regimen_file)
from multidose.core import ConcentrationSeries, NoConvergence, PkParams
from multidose.extmodels import bolus_equi_remainder_limit, fat_equi_limits
from multidose.bateman import BLOCK_POINTS, single_dose
from multidose.fit import fit_single_dose, predict
from multidose.pkmetrics import ROWS_PER_PASS, cycle_metrics
from multidose.steady_state import summarize

from mpref import (DIGITS, mp_area, mp_bounds, mp_equi_state, mp_peak, mp_piece,
                   mp_table_states)

DATA = Path(__file__).parent / "data"


def run_cli(*args, **kwargs):
    # The same warning rule pytest applies in process (pyproject.toml).
    cmd = [sys.executable, "-W", "error::RuntimeWarning", "-m", "multidose", *args]
    return subprocess.run(cmd, capture_output=True, text=True, **kwargs)


DESIGN = ("design", "--ka", "1.0", "--ke", "0.1", "--gamma", "1.0", "--volume", "1.0",
          "--mic", "100", "--tc", "250", "--ss-lower", "120", "--ss-upper", "200")


class TestGoldenOutputs:
    @pytest.mark.parametrize("regimen,golden", [
        ("oral_equi.json", "golden_simulate_oral_equi.csv"),
        ("oral_skip.json", "golden_simulate_oral_skip.csv"),
        ("bolus_mixed.json", "golden_simulate_bolus_mixed.csv"),
        ("fat_mixed.json", "golden_simulate_fat_mixed.csv"),
    ])
    def test_simulate_bytes(self, tmp_path, regimen, golden):
        out = tmp_path / "out.csv"
        cp = run_cli("simulate", str(DATA / regimen), "--out", str(out))
        assert cp.returncode == 0, cp.stderr
        assert out.read_bytes() == (DATA / golden).read_bytes()

    @pytest.mark.parametrize("regimen,golden", [
        ("oral_equi.json", "golden_analyze_oral_equi.json"),
        ("oral_skip.json", "golden_analyze_oral_skip.json"),
        ("bolus_mixed.json", "golden_analyze_bolus_mixed.json"),
        ("fat_mixed.json", "golden_analyze_fat_mixed.json"),
    ])
    def test_analyze_bytes(self, tmp_path, regimen, golden):
        out = tmp_path / "out.json"
        cp = run_cli("analyze", str(DATA / regimen), "--out", str(out))
        assert cp.returncode == 0, cp.stderr
        assert out.read_bytes() == (DATA / golden).read_bytes()

    def test_design_bytes(self, tmp_path):
        out = tmp_path / "out.json"
        cp = run_cli("design", "--ka", "1.0", "--ke", "0.1", "--gamma", "1.0",
                     "--volume", "1.0", "--mic", "100", "--tc", "250",
                     "--ss-lower", "120", "--ss-upper", "200",
                     "--tau-grid", "2,4,6,8,12,24", "--out", str(out))
        assert cp.returncode == 0, cp.stderr
        assert out.read_bytes() == (DATA / "golden_design.json").read_bytes()

    def test_repeated_runs_are_identical(self):
        first = run_cli("simulate", str(DATA / "oral_equi.json"), "--verify")
        second = run_cli("simulate", str(DATA / "oral_equi.json"), "--verify")
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout


def _nearest(value, reference):
    """Whether value is the double nearest reference (1e-3 ulp of slack)."""
    return abs(mpmath.mpf(value) - reference) <= 0.501 * math.ulp(value)


def _golden_analyze(name):
    doc = json.loads((DATA / f"{name}.json").read_text())
    params = [doc["params"].get(k) for k in ("ka", "ke", "gamma", "volume")]
    return doc, json.loads((DATA / f"golden_analyze_{name}.json").read_text()), params


class TestGoldenValuesAreNearest:
    """Every number of the analyze and design goldens rounds once, to the
    double nearest its 60-digit reference: a golden can only move there."""

    @pytest.mark.parametrize("name", ["oral_equi", "oral_skip"])
    def test_oral(self, name):
        doc, golden, params = _golden_analyze(name)
        p, schedule, rows = PkParams(*params), doc["schedule"], golden["cycles"]
        with mpmath.workdps(DIGITS):
            if "equi" in schedule:
                d, tau = schedule["equi"]["dose"], schedule["equi"]["interval"]
                entries = [(d, tau)] * len(rows)
                states = [mp_equi_state(p, d, tau, n) for n in range(1, len(rows) + 1)]
            else:
                entries = [(e["dose"], e["interval"]) for e in schedule["arbitrary"]]
                states = mp_table_states(p, entries)
            start = mpmath.mpf(0)
            for row, state, (_, tau) in zip(rows, states, entries):
                s, x_max = mp_peak(p, *state, tau)
                for key, reference in (("auc", mp_area(p, *state, tau)),
                                       ("t_max", start + s), ("x_max", x_max)):
                    assert _nearest(row[key], reference), (row["n"], key)
                start += mpmath.mpf(tau)
            d, tau = golden["asymptote_of"]["dose"], golden["asymptote_of"]["interval"]
            lower, upper = mp_bounds(p, d, tau)
            single = mpmath.mpf(p.gamma) * d / (mpmath.mpf(p.volume) * mpmath.mpf(p.ke))
            for key, reference in (("ss_lower", lower), ("ss_upper", upper),
                                   ("width", upper - lower), ("auc_ss", single),
                                   ("auc_single", single)):
                assert _nearest(golden["steady_state"][key], reference), key

    def test_fat(self):
        doc, golden, params = _golden_analyze("fat_mixed")
        p = PkParams(*params)
        with mpmath.workdps(DIGITS):
            x = mpmath.mpf(0)
            for row, e in zip(golden["cycles"], doc["schedule"]["arbitrary"]):
                cutoff, _ = mp_piece(p, x, e["dose"], e["fat_offset"])
                clearing = mpmath.mpf(e["interval"]) - mpmath.mpf(e["fat_offset"])
                x, _ = mp_piece(p, cutoff, 0, clearing)
                assert _nearest(row["cutoff_value"], cutoff), row["n"]
                assert _nearest(row["end_value"], x), row["n"]

    def test_bolus(self):
        doc, golden, _ = _golden_analyze("bolus_mixed")
        with mpmath.workdps(DIGITS):
            ke, x = mpmath.mpf(doc["params"]["ke"]), mpmath.mpf(0)
            for row, e in zip(golden["cycles"], doc["schedule"]["arbitrary"]):
                x += e["dose"]
                assert _nearest(row["start_value"], x), row["n"]
                x *= mpmath.exp(-ke * e["interval"])
                assert _nearest(row["remainder"], x), row["n"]

    def test_design(self):
        golden = json.loads((DATA / "golden_design.json").read_text())
        p = PkParams(1.0, 0.1, 1.0, 1.0)
        rounded = golden["rounded"]
        with mpmath.workdps(DIGITS):
            for plan, d, tau in ((golden, golden["d_star"], golden["tau_star"]),
                                 (rounded, rounded["d"], rounded["tau"])):
                lower, upper = mp_bounds(p, d, tau)
                assert _nearest(plan["achieved"]["ss_lower"], lower), tau
                assert _nearest(plan["achieved"]["ss_upper"], upper), tau


class TestSimulate:
    def test_zero_horizon_gives_header_only(self, tmp_path):
        doc = json.loads((DATA / "oral_equi.json").read_text())
        doc["horizon"] = 0.0
        path = tmp_path / "regimen.json"
        path.write_text(json.dumps(doc))
        cp = run_cli("simulate", str(path))
        assert cp.returncode == 0, cp.stderr
        assert cp.stdout == "t_hours,x_conc,y_mg,cycle\n"
        out = tmp_path / "out.csv"
        cp = run_cli("simulate", str(path), "--out", str(out))
        assert cp.returncode == 0, cp.stderr
        assert out.read_bytes() == b"t_hours,x_conc,y_mg,cycle\n"

    @pytest.mark.parametrize("name", ["oral_equi", "bolus_mixed", "fat_mixed"])
    def test_stdout_and_out_give_identical_bytes(self, tmp_path, name):
        out = tmp_path / "out.csv"
        cmd = [sys.executable, "-m", "multidose", "simulate", str(DATA / f"{name}.json")]
        to_stdout = subprocess.run(cmd, capture_output=True, check=True)
        subprocess.run(cmd + ["--out", str(out)], check=True)
        assert to_stdout.stdout == out.read_bytes()

    def test_reader_closing_early_ends_quietly(self, tmp_path):
        # 200,001 rows, far more than a pipe holds: the writer is still
        # writing when the reader closes its end.
        path = tmp_path / "long.json"
        path.write_text(json.dumps({
            "schema": 1, "model": "bolus", "params": {"ke": 0.3},
            "schedule": {"equi": {"dose": 5.0, "interval": 1.0}},
            "horizon": 2000.0, "sample_step": 0.01}))
        with subprocess.Popen([sys.executable, "-m", "multidose", "simulate", str(path)],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            assert proc.stdout.readline() == b"t_hours,x_conc,y_mg,cycle\n"
            proc.stdout.close()
            assert proc.wait(timeout=120) == 0
            assert proc.stderr.read() == b""

    def test_verify_passes_for_all_models(self, tmp_path):
        for name in ("oral_equi", "oral_skip", "bolus_mixed", "fat_mixed"):
            cp = run_cli("simulate", str(DATA / f"{name}.json"), "--verify")
            assert cp.returncode == 0, (name, cp.stderr)
            golden = DATA / f"golden_simulate_{name}.csv"
            assert cp.stdout == golden.read_text(), name

    @pytest.mark.parametrize("delta", [1e-7, 1e-8, 2e-9])
    @pytest.mark.parametrize("name", ["oral_equi", "oral_skip", "fat_mixed"])
    def test_verify_passes_near_equal_rates(self, tmp_path, name, delta):
        # Validation accepts ka/ke - 1 down to 1e-9; the oracle sums each dose's
        # q*d*E(u) >= 0, so it stays exact there.
        doc = json.loads((DATA / f"{name}.json").read_text())
        doc["params"]["ka"] = doc["params"]["ke"] * (1.0 + delta)
        path = tmp_path / "near.json"
        path.write_text(json.dumps(doc))
        out = str(tmp_path / "out.csv")
        assert cli.main(["simulate", str(path), "--verify", "--out", out]) == 0

    def test_verify_passes_on_the_committed_near_equal_file(self, tmp_path):
        # oral_skip.json with ka = ke*(1 + 1e-8).
        path = DATA / "oral_near_equal.json"
        assert json.loads(path.read_text())["params"]["ka"] == 0.100000001
        out = str(tmp_path / "out.csv")
        assert cli.main(["simulate", str(path), "--verify", "--out", out]) == 0

    def test_verify_failure_exits_3_naming_the_scale(self, monkeypatch, capsys, tmp_path):
        superpose = cli.oracle.superpose
        # The references the verify pass compares with, 1e-7 off.
        monkeypatch.setattr(cli.oracle, "superpose",
                            lambda *args: lambda t, f=superpose(*args): f(t) * (1.0 + 1e-7))
        out = tmp_path / "out.csv"
        code = cli.main(["simulate", str(DATA / "oral_equi.json"), "--verify",
                         "--out", str(out)])
        assert code == cli.EXIT_NUMERICAL
        message = capsys.readouterr().err
        assert message.startswith("verification failed: closed form deviates from the "
                                  "superposition oracle by ")
        assert "(> 1e-08 x max(1, peak " in message
        assert not out.exists()
        # An existing output is not even opened: it keeps every byte.
        out.write_bytes(b"earlier output\n")
        assert cli.main(["simulate", str(DATA / "oral_equi.json"), "--verify",
                         "--out", str(out)]) == cli.EXIT_NUMERICAL
        assert out.read_bytes() == b"earlier output\n"

    def test_verify_fails_on_what_is_not_finite(self, tmp_path):
        # volume 5e-324 makes the gain ka*gamma/V inf, so every value and the
        # deviation are NaN; a NaN deviation compares False with the tolerance.
        # No -W error here: the RuntimeWarnings run on to the verdict.
        doc = json.loads((DATA / "oral_equi.json").read_text())
        doc["params"]["volume"] = 5e-324
        path, out = tmp_path / "tiny_volume.json", tmp_path / "out.csv"
        path.write_text(json.dumps(doc))
        cmd = [sys.executable, "-m", "multidose", "simulate", str(path), "--verify",
               "--out", str(out)]
        cp = subprocess.run(cmd, capture_output=True, text=True)
        assert cp.returncode == cli.EXIT_NUMERICAL, cp.stderr
        assert "verification failed: not finite: deviation nan, peak nan" in cp.stderr
        assert not out.exists()

    def test_verify_scales_tolerance_with_the_peak(self, capsys, tmp_path):
        # 1,000 irregular bolus doses near a peak of 9e5: the closed form is
        # within 1e-13 of it, but about 4e-8 away in absolute terms.
        rng = np.random.default_rng(0)
        taus = rng.choice([4.0, 6.0, 8.0, 12.0], 1000) * rng.uniform(0.8, 1.2, 1000)
        deltas = rng.choice([300.0, 500.0, 700.0], 1000) * 1000.0
        path = tmp_path / "bolus.json"
        path.write_text(json.dumps({
            "schema": 1, "model": "bolus", "params": {"ke": 0.3838, "time_unit": "h"},
            "schedule": {"arbitrary": [{"dose": d, "interval": t}
                                       for d, t in zip(deltas.tolist(), taus.tolist())]},
            "horizon": float(taus.sum()), "sample_step": 0.25}))
        out = tmp_path / "out.csv"
        assert cli.main(["simulate", str(path), "--verify", "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        x = np.loadtxt(out, delimiter=",", skiprows=1, usecols=1)
        assert x.max() > 8e5

    @pytest.mark.parametrize("model,params,schedule", [
        ("oral", {"ka": 1.0, "ke": 0.1, "gamma": 1.0, "volume": 1.0},
         {"equi": {"dose": 100.0, "interval": 6.0}}),
        ("bolus", {"ke": 0.3838}, {"equi": {"dose": 600.0, "interval": 4.0}}),
        ("fat", {"ka": 0.9, "ke": 0.25, "gamma": 0.05, "volume": 10.0},
         {"equi": {"dose": 600.0, "interval": 5.0, "fat_offset": 2.0}}),
    ], ids=["oral", "bolus", "fat"])
    def test_rows_across_block_seams(self, tmp_path, model, params, schedule):
        # More than two blocks, the last one partial.
        rows = 2 * CSV_BLOCK_ROWS + 1001
        step = 1.0 / 64.0
        doc = {"schema": 1, "model": model,
               "params": {**params, "time_unit": "h"}, "schedule": schedule,
               "horizon": (rows - 1) * step, "sample_step": step}
        path = tmp_path / "regimen.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out.csv"
        cp = run_cli("simulate", str(path), "--out", str(out))
        assert cp.returncode == 0, cp.stderr

        times = np.arange(rows) * step
        x, y, cycles = load_regimen_file(str(path)).solution().evaluate(times)
        lines = ["t_hours,x_conc,y_mg,cycle"]
        for t, xv, yv, c in zip(times, x, y, cycles):
            lines.append(",".join([format(t, ".6g"), format(xv, ".6g"),
                                   format(yv, ".6g"), str(int(c))]))
        assert out.read_bytes() == ("\n".join(lines) + "\n").encode()

    @pytest.mark.parametrize("horizon", [100.0, 0.3])
    def test_equi_bolus_and_fat_dose_at_every_interval(self, tmp_path, horizon):
        # Dose k falls at exactly k*interval, as in the oral model: with
        # interval == sample_step every row opens a cycle, through the last.
        dose, step = 10.0, 0.1
        files = {
            "oral": ({"ka": 0.9, "ke": 0.25, "gamma": 0.05, "volume": 10.0},
                     {"dose": dose, "interval": step}),
            "bolus": ({"ke": 0.3838}, {"dose": dose, "interval": step}),
            "fat": ({"ka": 0.9, "ke": 0.25, "gamma": 0.05, "volume": 10.0},
                    {"dose": dose, "interval": step, "fat_offset": step}),
        }
        columns = {}
        for model, (params, equi) in files.items():
            path = tmp_path / f"{model}.json"
            path.write_text(json.dumps({
                "schema": 1, "model": model, "params": params,
                "schedule": {"equi": equi}, "horizon": horizon,
                "sample_step": step}))
            cp = run_cli("simulate", str(path))
            assert cp.returncode == 0, cp.stderr
            rows = [line.split(",") for line in cp.stdout.splitlines()[1:]]
            columns[model] = np.array(rows, dtype=float).T
        rows = int(round(horizon / step)) + 1
        assert columns["oral"][3].tolist() == list(range(1, rows + 1))
        for model in ("bolus", "fat"):
            assert columns[model][3].tolist() == columns["oral"][3].tolist(), model
        # Post-dose values: the bolus sum of k+1 decayed doses, a full gut.
        beta = np.exp(-0.3838 * step)
        k = np.arange(rows)
        bolus_post = dose * (1.0 - beta ** (k + 1)) / (1.0 - beta)
        assert np.max(np.abs(columns["bolus"][1] / bolus_post - 1.0)) <= 1e-5
        assert np.all(columns["fat"][2] == dose)

    @pytest.mark.parametrize("model,params,equi", [
        ("oral", {"ka": 0.9, "ke": 0.25, "gamma": 0.05, "volume": 10.0}, {}),
        ("bolus", {"ke": 0.3838}, {}),
        ("fat", {"ka": 0.9, "ke": 0.25, "gamma": 0.05, "volume": 10.0},
         {"fat_offset": 0.004}),
    ], ids=["oral", "bolus", "fat"])
    def test_equi_horizon_of_a_billion_intervals(self, tmp_path, model, params, equi):
        # An equi schedule is one entry repeated in closed form: building it
        # does not depend on the horizon, here 1e9 intervals of 0.01 h.
        path = tmp_path / "regimen.json"
        path.write_text(json.dumps({
            "schema": 1, "model": model, "params": params,
            "schedule": {"equi": {"dose": 6.0, "interval": 0.01, **equi}},
            "horizon": 1e7, "sample_step": 1e6}))
        regfile = load_regimen_file(str(path))
        sol = regfile.solution()
        assert sol.n_cycles is None
        times = regfile.sample_times()
        assert times[-1] == 1e7
        x, y, cycles = sol.evaluate(times)
        assert np.all(np.isfinite(x)) and np.all(np.isfinite(y)) and x[-1] > 0.0
        assert cycles[-1] == 10 ** 9 + 1
        cp = run_cli("simulate", str(path))
        assert cp.returncode == 0, cp.stderr
        assert len(cp.stdout.splitlines()) == 12

    @pytest.mark.parametrize("verify", [[], ["--verify"]], ids=["plain", "verify"])
    def test_cycles_past_2_53_intervals_exit_2_before_output(self, capsys, tmp_path, verify):
        # The grid's early blocks lie within 2**53 intervals of 1e-12 h, its
        # last rows past them: the error comes before --out is opened.
        path = tmp_path / "regimen.json"
        path.write_text(json.dumps({
            "schema": 1, "model": "oral",
            "params": {"ka": 1.0, "ke": 0.1, "gamma": 1.0, "volume": 1.0},
            "schedule": {"equi": {"dose": 100.0, "interval": 1e-12}},
            "horizon": 1e4, "sample_step": 0.01}))
        out = tmp_path / "out.csv"
        out.write_bytes(b"earlier output\n")
        code = cli.main(["simulate", str(path), *verify, "--out", str(out)])
        assert code == cli.EXIT_VALIDATION
        assert capsys.readouterr().err == (
            "error: t=10000 lies beyond 2**53 dosing intervals of 1e-12 h; "
            "cycle numbers are no longer exact there\n")
        assert out.read_bytes() == b"earlier output\n"

    @pytest.mark.parametrize("verify", [[], ["--verify"]], ids=["plain", "verify"])
    def test_blocks_give_the_bytes_of_the_whole_grid(self, tmp_path, verify):
        # 2*BLOCK_POINTS + 1 rows of a table regimen: two full blocks and one row.
        rng = np.random.default_rng(3)
        entries = [{"dose": d, "interval": t} for d, t in
                   zip(rng.uniform(50.0, 150.0, 400).tolist(), rng.uniform(4.0, 8.0, 400).tolist())]
        path = tmp_path / "table.json"
        path.write_text(json.dumps({
            "schema": 1, "model": "oral",
            "params": {"ka": 1.0, "ke": 0.1, "gamma": 1.0, "volume": 1.0},
            "schedule": {"arbitrary": entries},
            "horizon": 2 * BLOCK_POINTS / 16.0, "sample_step": 1.0 / 16.0}))
        regfile = load_regimen_file(str(path))
        times = regfile.sample_times()
        assert times.size == 2 * BLOCK_POINTS + 1
        expected = _csv_rows(times, *regfile.solution().evaluate(times))
        out = tmp_path / "out.csv"
        assert cli.main(["simulate", str(path), *verify, "--out", str(out)]) == 0
        assert out.read_bytes() == b"t_hours,x_conc,y_mg,cycle\n" + expected

    @pytest.mark.parametrize("rows,evaluations,xs", [(BLOCK_POINTS, 1, 0),
                                                     (BLOCK_POINTS + 1, 2, 2)])
    def test_verify_evaluates_a_one_block_grid_once(self, tmp_path, monkeypatch, rows,
                                                    evaluations, xs):
        # One block: the verify pass's (x, y, cycle) are written as they are. More
        # blocks: the verify pass reads x alone, block by block, and the write pass
        # evaluates each block again, so no more than one block is held.
        path = tmp_path / "regimen.json"
        path.write_text(json.dumps({
            "schema": 1, "model": "oral",
            "params": {"ka": 1.0, "ke": 0.1, "gamma": 1.0, "volume": 1.0},
            "schedule": {"equi": {"dose": 100.0, "interval": 6.0}},
            "horizon": (rows - 1) / 16.0, "sample_step": 1.0 / 16.0}))
        calls = {"evaluate": [], "x": []}
        for name in calls:
            real = getattr(cli.bateman.PiecewiseSolution, name)
            monkeypatch.setattr(cli.bateman.PiecewiseSolution, name,
                                lambda sol, t, real=real, seen=calls[name]:
                                seen.append(np.size(t)) or real(sol, t))
        out = tmp_path / "out.csv"
        assert cli.main(["simulate", str(path), "--verify", "--out", str(out)]) == 0
        assert len(calls["evaluate"]) == evaluations
        assert len(calls["x"]) == xs
        assert sum(calls["evaluate"]) == rows
        monkeypatch.undo()
        assert out.read_bytes() == run_cli("simulate", str(path)).stdout.encode()

    @pytest.mark.parametrize("schedule,horizon,step,verify", [
        ({"equi": {"dose": 250.0, "interval": 12.0}}, 8760.0, 0.00876, []),
        ({"equi": {"dose": 250.0, "interval": 12.0}}, 8760.0, 0.00876, ["--verify"]),
        ({"arbitrary": [{"dose": 100.0 + i % 7 * 20.0, "interval": 3.0 + i % 5 * 0.5}
                        for i in range(1000)]}, 4000.0, 0.05, ["--verify"]),
    ], ids=["equi-1e6", "equi-1e6-verify", "table-1000-verify"])
    def test_memory_is_one_block_whatever_the_horizon(self, tmp_path, schedule, horizon,
                                                      step, verify):
        # The grid's own arrays at 1e6 rows would be 32 MB, the oracle's more.
        path = tmp_path / "regimen.json"
        path.write_text(json.dumps({
            "schema": 1, "model": "oral",
            "params": {"ka": 0.748, "ke": 0.2031, "gamma": 19.1933, "volume": 5000.0},
            "schedule": schedule, "horizon": horizon, "sample_step": step}))
        tracemalloc.start()
        try:
            assert cli.main(["simulate", str(path), *verify, "--out", os.devnull]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3e6

    def test_fat_model_simulation(self, tmp_path):
        doc = {
            "schema": 1,
            "model": "fat",
            "params": {"ka": 0.42, "ke": 0.4, "gamma": 0.00449, "volume": 1.0,
                       "time_unit": "h"},
            "schedule": {"equi": {"dose": 600.0, "interval": 5.0,
                                  "fat_offset": 2.0}},
            "horizon": 20.0,
            "sample_step": 0.5,
        }
        path = tmp_path / "fat.json"
        path.write_text(json.dumps(doc))
        cp = run_cli("simulate", str(path), "--verify")
        assert cp.returncode == 0, cp.stderr
        lines = cp.stdout.splitlines()
        assert lines[0] == "t_hours,x_conc,y_mg,cycle"
        assert len(lines) == 42
        # Gut column is zero in every clearance phase (offset >= 2 h).
        for line in lines[1:]:
            t, _, y, _ = line.split(",")
            if float(t) % 5.0 >= 2.0:
                assert float(y) == 0.0

    def test_day_unit_conversion(self, tmp_path):
        doc = json.loads((DATA / "oral_equi.json").read_text())
        doc["params"]["time_unit"] = "day"
        doc["params"]["ka"] = 24.0
        doc["params"]["ke"] = 2.4
        doc["schedule"]["equi"]["interval"] = 0.25
        doc["horizon"] = 2.0
        doc["sample_step"] = 0.5 / 24.0
        path = tmp_path / "day.json"
        path.write_text(json.dumps(doc))
        cp = run_cli("simulate", str(path))
        assert cp.returncode == 0, cp.stderr
        assert cp.stdout == (DATA / "golden_simulate_oral_equi.csv").read_text()


def _python_rows(times, x, y, cycles) -> bytes:
    rows = zip(times.tolist(), x.tolist(), y.tolist(), cycles.tolist())
    return "".join("%.6g,%.6g,%.6g,%d\n" % row for row in rows).encode()


class TestCsvWriter:
    """The simulate row writer against Python's formatting, byte for byte."""

    @staticmethod
    def check(values, cycles=None):
        v = np.asarray(values, dtype=float)
        c = np.zeros(v.size, np.int64) if cycles is None else np.asarray(cycles, np.int64)
        for columns in ((v, -v, v[::-1]), (-v[::-1], v, -v)):
            got, expected = _csv_rows(*columns, c), _python_rows(*columns, c)
            assert got.split(b"\n") == expected.split(b"\n")

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.floats(), st.floats(), st.floats(),
                              st.integers(-2 ** 63, 2 ** 63 - 1)), max_size=40))
    def test_arbitrary_doubles_and_counts(self, rows):
        t, x, y, c = (np.array(column) for column in zip(*rows)) if rows else (
            np.array([]), np.array([]), np.array([]), np.array([], np.int64))
        assert _csv_rows(t, x, y, c) == _python_rows(t, x, y, c)

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(0).integers(0, 2 ** 64, 50_000, dtype=np.uint64)
        self.check(bits.view(np.float64))

    def test_near_ties(self):
        # (r + 1/2) * 10**j and its neighbours 1-2 ulp away, where six-digit
        # rounding turns on bits far below what the arithmetic keeps.
        r = np.random.default_rng(1).integers(100_000, 1_000_000, 40) + 0.5
        ties = np.concatenate([r * 10.0 ** j for j in range(-25, 31)])
        self.check(np.concatenate([ties, np.nextafter(ties, np.inf),
                                   np.nextafter(np.nextafter(ties, np.inf), np.inf),
                                   np.nextafter(ties, 0.0),
                                   np.nextafter(np.nextafter(ties, 0.0), 0.0)]))

    def test_decade_boundaries(self):
        # Each 10**j and its neighbours switch exponent or notation; 999999.5e-6
        # rounds up into the next decade.
        powers = np.array([10.0 ** j for j in range(-323, 309)])
        below, above = np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)
        self.check(np.concatenate([powers, below, above, np.nextafter(below, 0.0),
                                   np.nextafter(above, np.inf),
                                   [999999.5 * 10.0 ** j for j in range(-30, 31)]]))

    def test_special_values(self):
        self.check([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324,
                    2.2250738585072014e-308, 1.7976931348623157e308, 1e-5, 9.99999e-5,
                    123456.5, 1234565.0])

    def test_cycle_counts(self):
        counts = [0, 9, 10, 99, 100, 999_999, 10 ** 6, 999_999_999, 10 ** 9, 2 ** 53, -1]
        self.check(np.linspace(0.5, 2.0, len(counts)), counts)


@pytest.mark.parametrize("command", ["simulate", "analyze", "design", "fit"])
def test_unwritable_out_exits_2_naming_the_path(tmp_path, capsys, command):
    t = np.array([0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 6.5, 8.0, 10.0, 12.0])
    c = single_dose(PkParams(ka=0.7480, ke=0.2031, gamma=19.1933, volume=5000.0), 250.0).x(t)
    series = tmp_path / "series.csv"
    series.write_text("t,c\n" + "".join(f"{a},{b}\n" for a, b in zip(t, c)))
    args = {"simulate": ["simulate", str(DATA / "oral_equi.json")],
            "analyze": ["analyze", str(DATA / "oral_equi.json")],
            "design": list(DESIGN),
            "fit": ["fit", str(series), "--dose", "250", "--time-unit", "h"]}[command]
    out = tmp_path / "missing" / "out"
    assert cli.main(args + ["--out", str(out)]) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: {out}: No such file or directory\n"


class TestSchemaErrors:
    def test_bad_json_names_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"schema": 1,\n  "model": oral}\n')
        cp = run_cli("simulate", str(path))
        assert cp.returncode == 2
        assert "line 2" in cp.stderr

    def test_missing_field_is_named(self, tmp_path):
        path = tmp_path / "missing.json"
        path.write_text(json.dumps({"schema": 1, "model": "oral"}))
        cp = run_cli("simulate", str(path))
        assert cp.returncode == 2
        assert "params" in cp.stderr

    def test_bad_value_names_field_path(self, tmp_path):
        doc = json.loads((DATA / "oral_equi.json").read_text())
        doc["schedule"]["equi"]["dose"] = -5
        path = tmp_path / "neg.json"
        path.write_text(json.dumps(doc))
        cp = run_cli("simulate", str(path))
        assert cp.returncode == 2
        assert "schedule.equi.dose" in cp.stderr

    @pytest.mark.parametrize("field,value,message", [
        ("dose", "ten", "schedule.arbitrary[1].dose: expected a number, got 'ten'"),
        ("dose", None, "schedule.arbitrary[1].dose: expected a number, got None"),
        ("dose", -5, "schedule.arbitrary[1].dose must be > 0 and finite, got -5.0"),
        ("interval", 0, "schedule.arbitrary[1].interval must be > 0 and finite, got 0.0"),
        ("interval", "NaN", "schedule.arbitrary[1].interval must be > 0 and finite, got nan"),
        ("dose", "Infinity", "schedule.arbitrary[1].dose must be > 0 and finite, got inf"),
    ])
    def test_numbers_are_held_to_the_core_rule_under_their_path(self, field, value, message):
        doc = json.loads((DATA / "oral_skip.json").read_text())
        doc["schedule"]["arbitrary"][1][field] = value
        with pytest.raises(cli.ValidationError) as info:
            cli.RegimenFile(doc)
        assert str(info.value) == message

    def test_horizon_accepts_zero_but_not_less(self, tmp_path):
        doc = json.loads((DATA / "oral_equi.json").read_text())
        assert cli.RegimenFile({**doc, "horizon": 0}).horizon == 0.0
        path = tmp_path / "negative.json"
        path.write_text(json.dumps({**doc, "horizon": -1.0}))
        cp = run_cli("simulate", str(path))
        assert cp.returncode == 2
        assert "horizon must be > 0 and finite, got -1.0" in cp.stderr

    @pytest.mark.parametrize("command,horizon,step,unit,interval,message", [
        ("simulate", 1e300, 1e-10, "h", 6.0, "horizon/sample_step: inf rows exceed "),
        ("simulate", 1e300, 1.0, "h", 6.0, "horizon/sample_step: 1e+300 rows exceed "),
        ("simulate", 1e308, 1.0, "day", 6.0, "horizon: 1e+308 day is past float range"),
        ("analyze", 1e308, 1.0, "day", 6.0, "horizon: 1e+308 day is past float range"),
        ("analyze", 48.0, 0.5, "h", 5e-324, "horizon/interval: inf cycles exceed "),
    ])
    def test_hours_and_counts_past_range_exit_2(self, tmp_path, capsys, command, horizon,
                                                 step, unit, interval, message):
        doc = json.loads((DATA / "oral_equi.json").read_text())
        doc["params"]["time_unit"] = unit
        doc["schedule"]["equi"]["interval"] = interval
        path = tmp_path / "far.json"
        path.write_text(json.dumps({**doc, "horizon": horizon, "sample_step": step}))
        assert cli.main([command, str(path), "--out", os.devnull]) == cli.EXIT_VALIDATION
        assert capsys.readouterr().err.startswith(f"error: {message}")

    @staticmethod
    def _counts(horizon, step):
        """(rows, cycles) of oral_equi.json with this horizon, sampled and dosed every step."""
        doc = json.loads((DATA / "oral_equi.json").read_text())
        doc["schedule"]["equi"]["interval"] = step
        regfile = cli.RegimenFile({**doc, "horizon": horizon, "sample_step": step})
        return len(regfile.sample_rows()), regfile.n_cycles_in_horizon()

    @pytest.mark.parametrize("horizon,step,rows,cycles", [
        (2048.1, 0.1, 20482, 20481),
        (9228228.28, 0.01, 922822829, 922822828),
    ])
    def test_horizon_on_a_whole_step_counts_its_last_row_and_cycle(self, horizon, step,
                                                                    rows, cycles):
        # horizon/step is an ulp or two below the whole count here, past an
        # absolute 1e-9 (rows) or 1e-12 (cycles): each count lost its last.
        assert self._counts(horizon, step) == (rows, cycles)

    @pytest.mark.parametrize("step", [0.01, 0.1, 0.2, 0.3, 0.7, 1.1, 1.3, 4.8])
    def test_whole_horizons_count_at_any_size(self, step):
        # k*step closes cycle k and ends on row k, from a few cycles to 1e9 rows.
        rng = np.random.default_rng(30)
        ks = np.concatenate((np.geomspace(1, 1e9, 200).astype(int),
                             rng.integers(4_000, 30_000, 200), rng.integers(10**6, 10**9, 200)))
        for k in ks.tolist():
            assert self._counts(k * step, step) == (k + 1, k), k

    def test_fat_offset_beyond_interval_names_entry(self, tmp_path):
        equi = {"equi": {"dose": 600.0, "interval": 5.0, "fat_offset": 6.0}}
        arbitrary = {"arbitrary": [
            {"dose": 600.0, "interval": 5.0, "fat_offset": 5.0},
            {"dose": 600.0, "interval": 4.0, "fat_offset": 4.5}]}
        for schedule, where in ((equi, "schedule.equi.fat_offset"),
                                (arbitrary, "schedule.arbitrary[1].fat_offset")):
            doc = json.loads((DATA / "fat_mixed.json").read_text())
            doc["schedule"] = schedule
            path = tmp_path / "fat.json"
            path.write_text(json.dumps(doc))
            cp = run_cli("simulate", str(path))
            assert cp.returncode == 2
            assert where in cp.stderr

    def test_unsupported_schema_version(self, tmp_path):
        doc = json.loads((DATA / "oral_equi.json").read_text())
        doc["schema"] = 99
        path = tmp_path / "v99.json"
        path.write_text(json.dumps(doc))
        cp = run_cli("simulate", str(path))
        assert cp.returncode == 2
        assert "schema" in cp.stderr


class TestFitCommand:
    def write_series(self, tmp_path, noise=None):
        truth = PkParams(ka=0.7480, ke=0.2031, gamma=19.1933, volume=5000.0)
        t = np.array([0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 6.5, 8.0,
                      10.0, 12.0])
        c = single_dose(truth, 250.0).x(t)
        path = tmp_path / "series.csv"
        rows = ["t,c"] + [f"{ti},{ci}" for ti, ci in zip(t, c)]
        path.write_text("\n".join(rows) + "\n")
        return path, truth

    def test_noiseless_recovery(self, tmp_path):
        path, truth = self.write_series(tmp_path)
        cp = run_cli("fit", str(path), "--dose", "250", "--volume", "5000",
                     "--time-unit", "h")
        assert cp.returncode == 0, cp.stderr
        payload = json.loads(cp.stdout)
        assert payload["params"]["ka"] == pytest.approx(truth.ka, rel=1e-6)
        assert payload["params"]["ke"] == pytest.approx(truth.ke, rel=1e-6)
        assert payload["params"]["gamma"] == pytest.approx(truth.gamma, rel=1e-6)
        assert payload["covariance_status"] == "ok"
        assert payload["rate_unit"] == "1/h"

    def test_day_unit_rescales_rates(self, tmp_path):
        path, truth = self.write_series(tmp_path)
        cp = run_cli("fit", str(path), "--dose", "250", "--volume", "5000",
                     "--time-unit", "day")
        assert cp.returncode == 0, cp.stderr
        payload = json.loads(cp.stdout)
        assert payload["params"]["ka"] == pytest.approx(truth.ka / 24.0, rel=1e-6)
        assert payload["input_time_unit"] == "day"

    def test_malformed_row_names_index(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,c\n0.5,1.0\n1.0,oops\n2.0,0.5\n")
        cp = run_cli("fit", str(path), "--dose", "250", "--volume", "5000",
                     "--time-unit", "h")
        assert cp.returncode == 2
        assert "row 3" in cp.stderr

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,conc\n0.5,1.0\n")
        cp = run_cli("fit", str(path), "--dose", "250", "--volume", "5000",
                     "--time-unit", "h")
        assert cp.returncode == 2
        assert "t,c" in cp.stderr

    def test_too_few_rows_exit_code(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("t,c\n1.0,0.5\n2.0,0.4\n")
        cp = run_cli("fit", str(path), "--dose", "250", "--volume", "5000",
                     "--time-unit", "h")
        assert cp.returncode == 2

    def test_underflowing_tail_times_are_a_typed_error(self, tmp_path):
        # polyfit would scale the tail times by sqrt(sum t^2) = 0 and LAPACK
        # would fail on the NaN columns.
        path = tmp_path / "tiny.csv"
        path.write_text("t,c\n0,1\n1e-323,1\n2e-323,1e300\n3e-323,1e-300\n")
        cp = run_cli("fit", str(path), "--dose", "250", "--volume", "5000",
                     "--time-unit", "h")
        assert cp.returncode == 2
        assert "sample times [1e-323, 2e-323, 3e-323]" in cp.stderr
        assert "Traceback" not in cp.stderr and "DLASCL" not in cp.stderr

    def test_monte_carlo_summary(self, tmp_path):
        path, _ = self.write_series(tmp_path)
        cp = run_cli("fit", str(path), "--dose", "250", "--volume", "5000",
                     "--time-unit", "h", "--mc-reps", "25", "--mc-noise",
                     "0.02", "--seed", "12345")
        assert cp.returncode == 0, cp.stderr
        payload = json.loads(cp.stdout)
        mc = payload["monte_carlo"]
        assert mc["reps"] == 25
        assert mc["seed"] == 12345
        assert mc["coverage_3se"] >= 0.9
        # Seeded: a second run reproduces the summary exactly.
        again = json.loads(run_cli(
            "fit", str(path), "--dose", "250", "--volume", "5000",
            "--time-unit", "h", "--mc-reps", "25", "--mc-noise", "0.02",
            "--seed", "12345").stdout)
        assert again["monte_carlo"] == mc

    def test_monte_carlo_equals_one_fit_per_replicate(self, monkeypatch):
        # The blocked summary against a loop that draws each replicate's
        # noise and fits it alone: 12 replicates on 50 seeds, and prefixes of
        # 600 on one more seed at counts on both sides of a block seam, with
        # the default block and with blocks of 7. At 5% noise some rows fail.
        truth = PkParams(ka=0.7480, ke=0.2031, gamma=19.1933, volume=5000.0)
        t = np.array([0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 10.0, 12.0, 16.0, 24.0])
        series = ConcentrationSeries(t, single_dose(truth, 250.0).x(t))
        base = fit_single_dose(series, 250.0, 5000.0)
        clean = predict(t, base, 250.0, 5000.0).values_array()
        noise = 0.05

        def one_by_one(seed, reps):
            """Each replicate's outcome: None if it fails, else covered or not."""
            rng = np.random.default_rng(seed)
            outcomes = []
            for _ in range(reps):
                noise_row = rng.normal(0.0, noise * clean.max(), t.size)
                noisy = np.maximum(clean + noise_row, 0.0)
                try:
                    rep = fit_single_dose(ConcentrationSeries(t, noisy), 250.0, 5000.0)
                except NoConvergence:
                    outcomes.append(None)
                    continue
                if rep.stderr is None:
                    outcomes.append(None)
                    continue
                estimates = (rep.params.ka, rep.params.ke, rep.params.gamma)
                outcomes.append(all(abs(e - x) <= 3.0 * se for e, x, se in
                                    zip(estimates, (base.params.ka, base.params.ke,
                                                    base.params.gamma), rep.stderr)))
            return outcomes

        cases = [(seed, one_by_one(seed, 12)) for seed in range(50)]
        long_run = one_by_one(50, 600)
        cases += [(50, long_run[:reps]) for reps in (1, 255, 256, 257, 600)]
        for block in (cli.MC_BLOCK_ROWS, 7):
            monkeypatch.setattr(cli, "MC_BLOCK_ROWS", block)
            for seed, outcomes in cases:
                args = SimpleNamespace(seed=seed, mc_reps=len(outcomes), mc_noise=noise,
                                       dose=250.0, volume=5000.0)
                summary = _monte_carlo(series, base, args)
                failed = outcomes.count(None)
                assert summary["failed"] == failed
                assert summary["coverage_3se"] == (outcomes.count(True) / (len(outcomes) - failed)
                                                   if failed < len(outcomes) else 0.0)
        assert sum(outcomes.count(None) for _, outcomes in cases[:50]) > 0
        assert None in long_run


class TestRejectedFlags:
    @pytest.mark.parametrize("args,flag", [
        (DESIGN + ("--tau-grid", "inf"), "tau-grid"),
        (DESIGN + ("--tau-grid", "nan"), "tau-grid"),
        (DESIGN + ("--tc", "inf", "--ss-upper", "inf"), "tc"),
        (("--mc-reps", "-1"), "mc-reps"),
        (("--mc-reps", "2", "--mc-noise", "-1"), "mc-noise"),
        (("--mc-reps", "2", "--seed", "-1"), "seed"),
        (("--dose", "inf"), "dose"),
    ], ids=["tau-grid-inf", "tau-grid-nan", "tc-inf", "mc-reps", "mc-noise", "seed",
            "dose-inf"])
    def test_exit_2_naming_the_flag(self, tmp_path, args, flag):
        if args[0] != "design":
            t = np.array([0.5, 1.0, 2.0, 4.0, 8.0, 12.0])
            c = single_dose(PkParams(0.748, 0.2031, 19.1933, 5000.0), 250.0).x(t)
            path = tmp_path / "series.csv"
            path.write_text("t,c\n" + "".join(f"{a},{b}\n" for a, b in zip(t, c)))
            args = ("fit", str(path), "--dose", "250", "--time-unit", "h", *args)
        cp = run_cli(*args)
        assert cp.returncode == 2, cp.stderr
        assert "Traceback" not in cp.stderr and flag in cp.stderr


def _regimen(**fields):
    """oral_equi.json with top-level `fields` replaced, as JSON text."""
    return json.dumps({**json.loads((DATA / "oral_equi.json").read_text()), **fields})


_SERIES = "t,c\n0.5,1.0\n1,2.0\n2,1.5\n4,0.8\n8,0.2\n"


class TestInputRejections:
    # Inputs the CLI's readers of regimen files, CSV series and --tau-grid reject:
    # exit 2, naming the field, row or option. "{path}" is the input's path.
    @pytest.mark.parametrize("kind,text,message", [
        ("regimen", json.dumps([1, 2]), "top level: expected a JSON object"),
        ("regimen", _regimen(model="iv"),
         "model: expected 'oral', 'bolus', or 'fat', got 'iv'"),
        ("regimen", _regimen(params=[1.0, 0.1]), "params: expected an object"),
        ("regimen", _regimen(params={"ka": 1, "ke": 0.1, "gamma": 1, "time_unit": "min"}),
         "params.time_unit: expected 'h' or 'day', got 'min'"),
        ("regimen", _regimen(schedule={"equi": {"dose": 1, "interval": 1}, "arbitrary": []}),
         "schedule: expected an object with exactly one of 'equi' or 'arbitrary'"),
        ("regimen", _regimen(schedule={"arbitrary": []}),
         "schedule.arbitrary: expected a non-empty array"),
        ("regimen", _regimen(schedule={"arbitrary": [{"dose": 1, "interval": 1}, 5]}),
         "schedule.arbitrary[1]: expected an object"),
        ("csv", None, "{path}: No such file or directory"),
        ("csv", "", "{path}: empty file"),
        # Blank rows are skipped, but keep their place in the row count.
        ("csv", "t,c\n\n0.5,1.0\n , \n1,2.0,3\n", "{path}: row 5: expected 2 fields, got 3"),
        ("csv", _SERIES.replace("2,1.5", "2,-1.5"),
         "{path}: concentration at index 2 must be finite and >= 0, got -1.5"),
        ("csv", _SERIES.replace("4,0.8", "1,0.8"),
         "{path}: times must be strictly increasing; index 3 has 1.0 after 2.0"),
        ("tau-grid", "2,x", "--tau-grid: could not parse '2,x'"),
    ], ids=["top-level", "model", "params", "time-unit", "schedule", "empty-arbitrary",
            "entry", "csv-missing", "csv-empty", "csv-fields", "csv-value", "csv-times",
            "tau-grid"])
    def test_exit_2_naming_the_input(self, tmp_path, capsys, kind, text, message):
        path = tmp_path / ("regimen.json" if kind == "regimen" else "series.csv")
        if text is not None and kind != "tau-grid":
            path.write_text(text)
        argv = {"regimen": ["simulate", str(path), "--out", os.devnull],
                "csv": ["fit", str(path), "--dose", "250", "--time-unit", "h"],
                "tau-grid": [*DESIGN, "--tau-grid", text]}[kind]
        assert cli.main(argv) == cli.EXIT_VALIDATION
        assert capsys.readouterr() == ("", f"error: {message.format(path=path)}\n")


class TestDesignCommand:
    def test_target_at_the_clinical_bounds_is_feasible(self):
        # lower = mic and upper = tc: the achieved trough rounds to
        # 119.99999999999999, within the accuracy design verifies to.
        cp = run_cli("design", "--ka", "1", "--ke", "0.1", "--gamma", "1", "--volume", "1",
                     "--mic", "120", "--tc", "200", "--ss-lower", "120", "--ss-upper", "200")
        assert cp.returncode == 0, cp.stderr
        payload = json.loads(cp.stdout)
        assert payload["achieved"]["ss_lower"] < payload["mic"]
        assert payload["feasible"] is True

    @pytest.mark.parametrize("tau", ["5e-324", "1e-320", "1e-300", "1e300", "1.7e308"])
    def test_extreme_tau_grid_ends_in_an_exit_code(self, tau):
        cp = run_cli(*DESIGN, "--tau-grid", tau)
        assert cp.returncode in (0, 2, 3) and "Traceback" not in cp.stderr, cp.stderr

    @pytest.mark.parametrize("tau", ["5e-324", "1e-310"])
    def test_tau_grid_without_a_finite_dose_exits_numerical(self, tau):
        # The limiting trough of 1 mg is past float range there, so the
        # dose for the target trough would be subnormal.
        cp = run_cli(*DESIGN, "--tau-grid", tau)
        assert cp.returncode == cli.EXIT_NUMERICAL
        assert cp.stderr == f"error: no finite dose reaches the trough at {tau} h\n"
        assert cp.stdout == ""

    def test_invalid_targets_exit_validation(self):
        cp = run_cli("design", "--ka", "1.0", "--ke", "0.1", "--gamma", "1.0",
                     "--volume", "1.0", "--mic", "100", "--tc", "250",
                     "--ss-lower", "200", "--ss-upper", "120")
        assert cp.returncode == 2

    def test_ratio_below_the_bracket_floor_exits_numerical(self):
        # The peak/trough ratio 1 + 2^-52 lies below f_ratio at the 1e-9 h floor.
        cp = run_cli("design", "--ka", "100", "--ke", "20", "--gamma", "1", "--volume", "1",
                     "--mic", "1", "--tc", "2", "--ss-lower", "1",
                     "--ss-upper", "1.0000000000000002")
        assert cp.returncode == cli.EXIT_NUMERICAL
        assert cp.stderr == ("error: target ratio is below the resolvable range at the "
                             "bracket floor\n")
        assert cp.stdout == ""

    def test_ratio_beyond_float_range_exits_numerical(self):
        cp = run_cli("design", "--ka", "262.91", "--ke", "22.98", "--gamma", "0.43",
                     "--volume", "0.22", "--mic", "1e-30", "--tc", "1e290",
                     "--ss-lower", "1e-30", "--ss-upper", "1e290")
        assert cp.returncode == cli.EXIT_NUMERICAL
        assert cp.stderr == "error: target ratio is beyond float range\n"
        assert cp.stdout == ""

    @pytest.mark.parametrize("grid,limits", [([], 2), (["--tau-grid", "2,4,6,8,12,24"], 3)])
    def test_each_achieved_bound_is_read_once(self, monkeypatch, capsys, grid, limits):
        # design verifies both bounds from one limiting state, and the payload reads
        # them, and judges feasibility, from one more for each regimen it reports.
        calls = []
        real = cli.steady_state._checked_limit
        monkeypatch.setattr(cli.steady_state, "_checked_limit",
                            lambda *args: calls.append(args) or real(*args))
        assert cli.main(["design", "--ka", "1.0", "--ke", "0.1", "--gamma", "1.0",
                         "--volume", "1.0", "--mic", "100", "--tc", "250",
                         "--ss-lower", "120", "--ss-upper", "200", *grid]) == 0
        assert len(calls) == limits
        if grid:
            assert capsys.readouterr().out == (DATA / "golden_design.json").read_text()

    def test_round_trip_against_library(self):
        from multidose.steady_state import ss_lower, ss_upper

        p = PkParams(1.0, 0.1, 1.0, 1.0)
        lo, hi = ss_lower(p, 100.0, 6.0), ss_upper(p, 100.0, 6.0)
        cp = run_cli("design", "--ka", "1.0", "--ke", "0.1", "--gamma", "1.0",
                     "--volume", "1.0", "--mic", str(lo * 0.5), "--tc",
                     str(hi * 1.5), "--ss-lower", str(lo), "--ss-upper", str(hi))
        assert cp.returncode == 0, cp.stderr
        payload = json.loads(cp.stdout)
        assert payload["d_star"] == pytest.approx(100.0, rel=1e-6)
        assert payload["tau_star"] == pytest.approx(6.0, rel=1e-6)
        assert payload["feasible"] is True

    def test_antiviral_style_targets_verified_by_long_simulation(self):
        # ng/mL-scale targets for a synthetic slow-eliminating patient;
        # the returned plan must hold 1500-3500 after 200 cycles.
        from multidose.bateman import equi_multidose
        from multidose.pkmetrics import peak

        p = PkParams(ka=0.6, ke=0.07, gamma=22000.0, volume=5000.0)
        cp = run_cli("design", "--ka", "0.6", "--ke", "0.07", "--gamma",
                     "22000", "--volume", "5000", "--mic", "1000", "--tc",
                     "4000", "--ss-lower", "1500", "--ss-upper", "3500")
        assert cp.returncode == 0, cp.stderr
        payload = json.loads(cp.stdout)
        d, tau = payload["d_star"], payload["tau_star"]
        assert payload["feasible"] is True
        sol = equi_multidose(p, d, tau)
        assert sol.remainders(200)[0] == pytest.approx(1500.0, rel=1e-6)
        assert peak(p, d, tau, 200).x_max == pytest.approx(3500.0, rel=1e-6)


class TestAnalyzeCommand:
    def test_oral_auc_identity_in_output(self):
        cp = run_cli("analyze", str(DATA / "oral_equi.json"))
        payload = json.loads(cp.stdout)
        steady = payload["steady_state"]
        assert steady["auc_rel_diff"] <= 1e-12
        assert steady["auc_ss"] == pytest.approx(steady["auc_single"], rel=1e-12)
        assert steady["n_epsilon"] == 32
        assert steady["epsilon"] == 1e-6

    def test_bolus_remainder_limit_reported(self):
        cp = run_cli("analyze", str(DATA / "bolus_mixed.json"))
        payload = json.loads(cp.stdout)
        beta = float(np.exp(-0.3838 * 4.0))
        assert payload["steady_state"]["remainder_limit"] == pytest.approx(
            300.0 * beta / (1.0 - beta), rel=1e-12)

    def test_eps_flag_changes_index(self):
        loose = json.loads(run_cli("analyze", str(DATA / "oral_equi.json"),
                                   "--eps", "0.1").stdout)
        tight = json.loads(run_cli("analyze", str(DATA / "oral_equi.json"),
                                   "--eps", "1e-9").stdout)
        assert loose["steady_state"]["n_epsilon"] < tight["steady_state"]["n_epsilon"]

    @pytest.mark.parametrize("name", ["oral_equi", "bolus_mixed", "fat_mixed"])
    def test_eps_is_checked_for_every_model(self, capsys, tmp_path, name):
        out = tmp_path / "out.json"
        code = cli.main(["analyze", str(DATA / f"{name}.json"), "--eps", "-1",
                         "--out", str(out)])
        assert code == cli.EXIT_VALIDATION
        assert capsys.readouterr().err == "error: eps must be > 0 and finite, got -1.0\n"
        assert not out.exists()

    def test_no_steady_state_writes_nothing(self, capsys, tmp_path):
        path = tmp_path / "slow.json"
        path.write_text(json.dumps({
            "schema": 1, "model": "oral",
            "params": {"ka": 1.0, "ke": 1e-15, "gamma": 1.0, "volume": 1.0},
            "schedule": {"equi": {"dose": 100.0, "interval": 1.0}},
            "horizon": 10.0, "sample_step": 1.0}))
        out = tmp_path / "out.json"
        argv = ["analyze", str(path), "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_VALIDATION
        assert "no steady state within 2**53 cycles" in capsys.readouterr().err
        assert not out.exists()
        # An existing output is not even opened: it keeps every byte.
        out.write_bytes(b"earlier output\n")
        assert cli.main(argv) == cli.EXIT_VALIDATION
        assert out.read_bytes() == b"earlier output\n"

    def test_flip_flop_with_underflowing_gap_increments(self, tmp_path):
        doc = {
            "schema": 1, "model": "oral",
            "params": {"ka": 0.00403841574832288, "ke": 0.41772963543151187,
                       "gamma": 0.5603865033489327, "volume": 151.95165233930004,
                       "time_unit": "h"},
            "schedule": {"equi": {"dose": 622.8616103053552,
                                  "interval": 4.479712767430023}},
            "horizon": 44.8, "sample_step": 1.0,
        }
        path = tmp_path / "flipflop.json"
        path.write_text(json.dumps(doc))
        cp = run_cli("analyze", str(path), "--eps", "3.0640370820196855e-10")
        assert cp.returncode == 0, cp.stderr
        # The cycle-by-cycle scan reference in test_steady_state.py gives 1002.
        assert json.loads(cp.stdout)["steady_state"]["n_epsilon"] == 1002

    def test_fat_equi_limits_match_long_recursion(self, tmp_path):
        from multidose.extmodels import FatRegimen, fat_multidose

        doc = {
            "schema": 1, "model": "fat",
            "params": {"ka": 0.42, "ke": 0.4, "gamma": 0.00449,
                       "volume": 1.0, "time_unit": "h"},
            "schedule": {"equi": {"dose": 600.0, "interval": 5.0,
                                  "fat_offset": 2.0}},
            "horizon": 25.0, "sample_step": 0.5,
        }
        path = tmp_path / "fat.json"
        path.write_text(json.dumps(doc))
        cp = run_cli("analyze", str(path))
        assert cp.returncode == 0, cp.stderr
        steady = json.loads(cp.stdout)["steady_state"]
        p = PkParams(0.42, 0.4, 0.00449, 1.0)
        sol = fat_multidose(p, FatRegimen([(600.0, 5.0, 2.0)] * 400))
        assert steady["cutoff_limit"] == pytest.approx(sol.cutoff_value(400),
                                                       rel=1e-12)
        assert steady["end_limit"] == pytest.approx(sol.end_value(400),
                                                    rel=1e-12)

    def test_irregular_schedule_asymptote_uses_final_entry(self):
        cp = run_cli("analyze", str(DATA / "oral_skip.json"))
        assert cp.returncode == 0, cp.stderr
        payload = json.loads(cp.stdout)
        assert payload["asymptote_of"] == {"dose": 250.0, "interval": 4.0}
        assert len(payload["cycles"]) == 12
        from multidose.steady_state import ss_lower

        p = PkParams(1.0, 0.1, 1.0, 1.0)
        assert payload["steady_state"]["ss_lower"] == pytest.approx(
            ss_lower(p, 250.0, 4.0), rel=1e-12)


class TestAnalyzeRowTemplate:
    """`analyze` writes the cycle rows of every model from one template; the
    bytes must be those of the stdlib encoder over `cycle_metrics` (oral) and
    the solution's per-cycle accessors (bolus, FAT)."""

    @staticmethod
    def encoder_output(path: Path, eps: float = 1e-6) -> str:
        regfile = load_regimen_file(str(path))
        sol = regfile.solution()
        dose, interval = regfile.entries[-1][:2]
        n = np.arange(1, regfile.n_cycles_in_horizon() + 1)
        if regfile.model == "oral":
            payload = {
                "asymptote_of": {"dose": dose, "interval": interval},
                "steady_state": dataclasses.asdict(
                    summarize(regfile.rates, dose, interval, eps)),
                "cycles": [dataclasses.asdict(cycle_metrics(sol, k)) for k in n.tolist()],
            }
        elif regfile.model == "bolus":
            limit = bolus_equi_remainder_limit(regfile.rates, dose, interval)
            payload = {"asymptote_of": {"delta": dose, "interval": interval},
                       "steady_state": {"remainder_limit": limit},
                       "cycles": [{"n": k, "start_value": start, "remainder": left}
                                  for k, start, left in zip(n.tolist(), sol.start_value(n).tolist(),
                                                            sol.remainder(n).tolist())]}
        else:
            payload = {"cycles": [{"n": k, "cutoff_value": cutoff, "end_value": end}
                                  for k, cutoff, end in zip(n.tolist(), sol.cutoff_value(n).tolist(),
                                                            sol.end_value(n).tolist())]}
            if regfile.equi:
                cutoff, end = fat_equi_limits(regfile.rates, *regfile.entries[0])
                payload["steady_state"] = {"cutoff_limit": cutoff, "end_limit": end}
        return json.dumps({"model": regfile.model, "schema": 1, **payload},
                          indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("params,schedule,horizon,boundary_rows", [
        # Slow clearance: 2,500 cycles of the equi branch.
        ({"ka": 0.8, "ke": 0.002, "gamma": 1.0, "volume": 1000.0},
         {"equi": {"dose": 100.0, "interval": 1.0}}, 2500.0, False),
        # ka near ke at a short interval: the first cycles end still rising.
        ({"ka": 1.0, "ke": 0.9, "gamma": 1.0, "volume": 1.0},
         {"equi": {"dose": 100.0, "interval": 0.5}}, 200.0, True),
        ({"ka": 1.0, "ke": 0.95, "gamma": 1.0, "volume": 1.0},
         {"arbitrary": [{"dose": 100.0, "interval": tau}
                        for tau in [0.1, 0.5, 3.0, 0.2] * 25]}, 1.0, True),
    ], ids=["slow-clearance", "short-interval", "short-arbitrary"])
    def test_bytes_equal_stdlib_encoder(self, tmp_path, params, schedule, horizon,
                                        boundary_rows):
        path = tmp_path / "regimen.json"
        path.write_text(json.dumps({"schema": 1, "model": "oral", "params": params,
                                    "schedule": schedule, "horizon": horizon,
                                    "sample_step": 1.0}))
        cp = run_cli("analyze", str(path))
        assert cp.returncode == 0, cp.stderr
        assert cp.stdout == self.encoder_output(path)
        if boundary_rows:
            assert '"peak_in_cycle": false' in cp.stdout

    @pytest.mark.parametrize("name", ["bolus_mixed", "fat_mixed", "bolus_equi_100k",
                                      "fat_equi_100k"])
    def test_bolus_and_fat_bytes_equal_stdlib_encoder(self, tmp_path, name):
        out = tmp_path / "out.json"
        assert cli.main(["analyze", str(DATA / f"{name}.json"), "--out", str(out)]) == 0
        assert out.read_text() == self.encoder_output(DATA / f"{name}.json")

    @pytest.mark.parametrize("name", ["oral_equi", "bolus_equi_100k", "fat_equi_100k",
                                      "bolus_mixed", "fat_mixed"])
    def test_pass_boundaries(self, tmp_path, name):
        # Cycle counts on each side of one pass of ROWS_PER_PASS cycles, and past two:
        # the horizon of a constant interval, or a table of the file's entries repeated.
        doc = json.loads((DATA / f"{name}.json").read_text())
        schedule = doc["schedule"]
        for count in (ROWS_PER_PASS - 1, ROWS_PER_PASS, ROWS_PER_PASS + 1,
                      2 * ROWS_PER_PASS + 1):
            path, out = tmp_path / f"{count}.json", tmp_path / f"{count}.out"
            if "equi" in schedule:
                doc["horizon"] = count * schedule["equi"]["interval"]
            else:
                doc["schedule"] = {"arbitrary": (schedule["arbitrary"] * count)[:count]}
            path.write_text(json.dumps(doc))
            assert load_regimen_file(str(path)).n_cycles_in_horizon() == count
            assert cli.main(["analyze", str(path), "--out", str(out)]) == 0
            assert out.read_text() == self.encoder_output(path), count

    @pytest.mark.parametrize("name", ["oral_slow_100k", "bolus_equi_100k", "fat_equi_100k"])
    def test_rows_stream_in_bounded_memory(self, tmp_path, name):
        # 100,000 cycles, an 11-16 MB document: the writer holds one pass of
        # cycles, 0.55-0.91 MB traced (2.6-3.5 MB with 4,096-cycle row passes).
        path, eps = DATA / f"{name}.json", []
        if name == "oral_slow_100k":
            path, eps = tmp_path / "regimen.json", ["--eps", "1e-9"]
            path.write_text(json.dumps({
                "schema": 1, "model": "oral",
                "params": {"ka": 0.8, "ke": 0.002, "gamma": 1.0, "volume": 1000.0},
                "schedule": {"equi": {"dose": 100.0, "interval": 1.0}},
                "horizon": 100000.0, "sample_step": 1.0}))
        out = tmp_path / "out.json"
        tracemalloc.start()
        try:
            assert cli.main(["analyze", str(path), *eps, "--out", str(out)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6

    def test_non_finite_values_keep_encoder_spelling(self):
        rows = [(1, math.nan, math.inf, -math.inf, False), (2, 1.5, 0.1, 1e-300, True),
                (3, 2.5, 0.2, math.inf, True)]
        fields = ("n", "auc", "t_max", "x_max", "peak_in_cycle")
        expected = json.dumps({"model": "oral",
                               "cycles": [dict(zip(fields, row)) for row in rows]},
                              indent=2, sort_keys=True) + "\n"
        keys = ("auc", "n", "peak_in_cycle", "t_max", "x_max")
        # One block, and blocks where non-finite values fall in one and not the next.
        for sizes in ((3,), (1, 2), (2, 1), (1, 1, 1)):
            blocks, start = [], 0
            for size in sizes:
                n, auc, t_max, x_max, peak = map(list, zip(*rows[start:start + size]))
                blocks.append((auc, n, ["true" if p else "false" for p in peak], t_max, x_max))
                start += size
            text = b"".join(_json_with_cycles({"model": "oral"}, keys, blocks)).decode()
            assert text == expected, sizes
            assert '"auc": NaN' in text and '"x_max": -Infinity' in text


def test_help_exits_zero():
    cp = run_cli("--help")
    assert cp.returncode == 0
    assert "simulate" in cp.stdout
