import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from multidose.cli import CSV_BLOCK_ROWS, load_regimen_file
from multidose.core import PkParams
from multidose.bateman import single_dose

DATA = Path(__file__).parent / "data"


def run_cli(*args, **kwargs):
    cmd = [sys.executable, "-m", "multidose", *args]
    return subprocess.run(cmd, capture_output=True, text=True, **kwargs)


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


class TestSimulate:
    def test_zero_horizon_gives_header_only(self, tmp_path):
        doc = json.loads((DATA / "oral_equi.json").read_text())
        doc["horizon"] = 0.0
        path = tmp_path / "regimen.json"
        path.write_text(json.dumps(doc))
        cp = run_cli("simulate", str(path))
        assert cp.returncode == 0, cp.stderr
        assert cp.stdout == "t_hours,x_conc,y_mg,cycle\n"

    def test_verify_passes_for_all_models(self, tmp_path):
        for name in ("oral_equi", "oral_skip", "bolus_mixed", "fat_mixed"):
            cp = run_cli("simulate", str(DATA / f"{name}.json"), "--verify")
            assert cp.returncode == 0, (name, cp.stderr)
            golden = DATA / f"golden_simulate_{name}.csv"
            assert cp.stdout == golden.read_text(), name

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


class TestDesignCommand:
    def test_invalid_targets_exit_validation(self):
        cp = run_cli("design", "--ka", "1.0", "--ke", "0.1", "--gamma", "1.0",
                     "--volume", "1.0", "--mic", "100", "--tc", "250",
                     "--ss-lower", "200", "--ss-upper", "120")
        assert cp.returncode == 2

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


def test_help_exits_zero():
    cp = run_cli("--help")
    assert cp.returncode == 0
    assert "simulate" in cp.stdout
