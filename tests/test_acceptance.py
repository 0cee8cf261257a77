"""End-to-end acceptance gate.

One test per shipping criterion, each printing a PASS line with the
measured figure once its assertions hold (run with `pytest -s` or
`-rA` to see them). Tolerances are fixed here, not tuned at runtime.
"""

import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import simpson

from multidose.core import (
    Arbitrary,
    EquiDose,
    ConcentrationSeries,
    NoConvergence,
    PkParams,
)
from multidose.bateman import (
    arbitrary_multidose,
    equi_multidose,
    single_dose,
)
from multidose.pkmetrics import peak
from multidose.steady_state import (
    auc_equality_check,
    gap_envelope,
    periodicity_gap,
    ss_lower,
    ss_upper,
    width,
    width_limit,
)
from multidose.dosing import TherapeuticTarget, design, f_ratio_excess
from multidose.fit import curve_jacobian, fit_single_dose
from multidose.extmodels import (
    BolusRegimen,
    FatRegimen,
    bolus_equi_remainder_limit,
    bolus_multidose,
    fat_multidose,
)
from multidose.oracle import OracleConfig, integrate_ode, superpose
from multidose import cli

DATA = Path(__file__).parent / "data"

CANONICAL = PkParams(ka=1.0, ke=0.1, gamma=1.0, volume=1.0)
FITTED = PkParams(ka=0.7480, ke=0.2031, gamma=19.1933, volume=5000.0)
FLIPFLOP = PkParams(ka=0.4, ke=1.6, gamma=2.0, volume=250.0)
PARAM_SETS = [CANONICAL, FITTED, FLIPFLOP]

FAT_COMPANION = PkParams(ka=0.42, ke=0.4, gamma=0.00449, volume=1.0)


def random_params(rng):
    while True:
        ka = rng.uniform(0.2, 3.0)
        ke = rng.uniform(0.05, 1.5)
        if abs(ka - ke) > 1e-3 * max(ka, ke):
            return PkParams(ka=ka, ke=ke, gamma=rng.uniform(0.3, 3.0),
                            volume=rng.uniform(500.0, 5000.0))


def test_criterion_01_superposition_equivalence():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for case in range(50):
        p = random_params(rng)
        if case % 2 == 0:
            n_doses = int(rng.integers(2, 31))
            reg = EquiDose(dose=float(rng.uniform(50.0, 800.0)),
                           interval=float(rng.uniform(1.0, 12.0)))
            horizon = n_doses * reg.interval
            sol = equi_multidose(p, reg.dose, reg.interval)
        else:
            count = int(rng.integers(1, 31))
            entries = [(float(rng.uniform(50.0, 800.0)),
                        float(rng.uniform(1.0, 12.0))) for _ in range(count)]
            reg = Arbitrary(entries)
            horizon = sum(tau for _, tau in entries)
            sol = arbitrary_multidose(p, reg)
        t = np.linspace(0.0, horizon, 200)
        deviation = float(np.max(np.abs(sol.x(t) - superpose(p, reg)(t))))
        worst = max(worst, deviation)
        assert deviation <= 1e-10, (case, deviation)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"criterion 1: PASS — 50 regimens, worst |closed-superposition| = "
          f"{worst:.2e} (<= 1e-10), {elapsed:.2f}s")


def test_criterion_02_ode_oracle_and_order():
    rng = np.random.default_rng(777)
    worst_agree = 0.0
    ratios = []
    for _ in range(10):
        ka = rng.uniform(1.5, 3.0)
        ke = rng.uniform(0.1, 1.0)
        if rng.random() < 0.3:
            ka, ke = ke, ka
        p = PkParams(ka=ka, ke=ke, gamma=rng.uniform(0.5, 3.0),
                     volume=rng.uniform(100.0, 5000.0))
        d = float(rng.uniform(50.0, 800.0))
        tau = float(rng.uniform(2.0, 5.0))
        sol = equi_multidose(p, d, tau)

        def rel_error(step):
            traj = integrate_ode(p, EquiDose(d, tau), 10 * tau,
                                 OracleConfig(step=step))
            xc = sol.x(traj.times)
            return float(np.max(np.abs(traj.x - xc)) / xc.max())

        agreement = rel_error(1e-3)
        worst_agree = max(worst_agree, agreement)
        assert agreement <= 1e-6
        # The fourth-order signature needs truncation error above the
        # rounding floor; at 1e-3 the agreement is already ~1e-13, so the
        # halving pair runs where truncation dominates.
        ratio = rel_error(1.6e-2) / rel_error(8e-3)
        ratios.append(ratio)
        assert 8.0 <= ratio <= 32.0
    print(f"criterion 2: PASS — 10 regimens, worst RK4(1e-3) agreement = "
          f"{worst_agree:.2e} (<= 1e-6); halving ratios "
          f"{min(ratios):.1f}..{max(ratios):.1f} (~16x)")


def test_criterion_03_steady_state_convergence():
    sol = equi_multidose(CANONICAL, 100.0, 6.0)
    lower = ss_lower(CANONICAL, 100.0, 6.0)
    upper = ss_upper(CANONICAL, 100.0, 6.0)
    rem_gap = abs(sol.remainders(200)[0] - lower) / lower
    peak_gap = abs(peak(CANONICAL, 100.0, 6.0, 200).x_max - upper) / upper
    assert rem_gap <= 1e-9
    assert peak_gap <= 1e-9
    print(f"criterion 3: PASS — remainder(200) off by {rem_gap:.2e}, "
          f"peak(200) off by {peak_gap:.2e} (<= 1e-9 relative)")


def test_criterion_04_periodicity_envelope_and_rate():
    worst_margin = 0.0
    for p in PARAM_SETS:
        d, tau = 100.0, 5.0
        sol = equi_multidose(p, d, tau)
        gaps = {}
        for n in range(2, 61):
            gap = periodicity_gap(sol, n)
            gaps[n] = gap
            bound = gap_envelope(p, d, tau, n)
            assert gap <= bound * (1.0 + 1e-12), (p, n, gap, bound)
            worst_margin = max(worst_margin, gap / bound)
        if p.ka > p.ke:
            beta = math.exp(-p.ke * tau)
            ns = np.arange(25, 51)
            slope = np.polyfit(ns, np.log([gaps[int(n)] for n in ns]), 1)[0]
            assert slope == pytest.approx(math.log(beta), rel=0.05)
    print(f"criterion 4: PASS — sup gaps under the exponential envelope for "
          f"n=2..60 on 3 parameter sets (max gap/envelope = {worst_margin:.6f}); "
          f"log-gap slope within 5% of ln(beta)")


def test_criterion_05_auc_identity():
    total, limiting, rel = auc_equality_check(CANONICAL, 100.0, 6.0)
    assert rel <= 1e-12
    sol = equi_multidose(CANONICAL, 100.0, 6.0)
    n = 300
    t = np.linspace((n - 1) * 6.0, n * 6.0, 100_001)
    quad = simpson(sol.x(t), x=t)
    quad_rel = abs(quad - total) / total
    assert quad_rel <= 1e-8
    print(f"criterion 5: PASS — analytic AUC identity to {rel:.1e} "
          f"(<= 1e-12); cycle-300 Simpson off by {quad_rel:.2e} (<= 1e-8)")


def test_criterion_06_bound_monotonicity_and_width_limit():
    doses = np.linspace(50.0, 500.0, 20)
    taus = np.linspace(2.0, 40.0, 20)
    for p in PARAM_SETS:
        lo = np.array([[ss_lower(p, d, tau) for tau in taus] for d in doses])
        hi = np.array([[ss_upper(p, d, tau) for tau in taus] for d in doses])
        wd = hi - lo
        assert np.all(np.diff(lo, axis=0) > 0)
        assert np.all(np.diff(hi, axis=0) > 0)
        assert np.all(np.diff(lo, axis=1) < 0)
        assert np.all(np.diff(hi, axis=1) < 0)
        assert np.all(np.diff(wd, axis=1) > 0)
        limit_rel = abs(width(p, 100.0, 1e6) - width_limit(p, 100.0)) \
            / width_limit(p, 100.0)
        assert limit_rel <= 1e-6
    print("criterion 6: PASS — on a 20x20 grid the bounds increase in dose "
          "and decrease in interval, width grows with interval and hits its "
          "long-interval limit to <= 1e-6")


def test_criterion_07_designer_correctness():
    rng = np.random.default_rng(4242)
    worst = 0.0
    for _ in range(25):
        p = random_params(rng)
        d0 = float(rng.uniform(20.0, 800.0))
        tau0 = float(rng.uniform(1.0, 24.0))
        lo, hi = ss_lower(p, d0, tau0), ss_upper(p, d0, tau0)
        target = TherapeuticTarget(mic=lo * 0.5, tc=hi * 1.5, lower=lo, upper=hi)
        d, tau = design(p, target)
        err = max(abs(d - d0) / d0, abs(tau - tau0) / tau0)
        worst = max(worst, err)
        assert err <= 1e-6
        # 200-cycle simulation lands on the targets.
        sol = equi_multidose(p, d, tau)
        trough = sol.remainders(200)[0]
        crest = peak(p, d, tau, 200).x_max
        assert abs(trough - lo) <= 0.01 * lo
        assert abs(crest - hi) <= 0.01 * hi
    for p in PARAM_SETS:
        taus = np.logspace(-6, 3, 50)
        excesses = [f_ratio_excess(p, tau) for tau in taus]
        assert all(b > a for a, b in zip(excesses, excesses[1:]))
        tiny = f_ratio_excess(p, 1e-8)
        assert 0.0 < tiny < 1e-3
    print(f"criterion 7: PASS — 25 self-inversion round trips (worst rel err "
          f"{worst:.2e} <= 1e-6), 200-cycle simulations within 1% of targets, "
          f"bound ratio strictly increasing with f(1e-8)-1 in (0, 1e-3)")


def test_criterion_08_fit_recovery():
    times = np.array([0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 6.5, 8.0,
                      10.0, 12.0])
    clean = single_dose(FITTED, 250.0).x(times)
    series = ConcentrationSeries(times.tolist(), clean.tolist())
    result = fit_single_dose(series, 250.0, 5000.0)
    rel = max(abs(result.params.ka - FITTED.ka) / FITTED.ka,
              abs(result.params.ke - FITTED.ke) / FITTED.ke,
              abs(result.params.gamma - FITTED.gamma) / FITTED.gamma)
    assert rel <= 1e-6

    rng = np.random.default_rng(12345)
    covered = 0
    reps = 200
    for _ in range(reps):
        noisy = np.maximum(clean + rng.normal(0.0, 0.02 * clean.max(),
                                              size=clean.size), 0.0)
        r = fit_single_dose(ConcentrationSeries(times.tolist(), noisy.tolist()),
                            250.0, 5000.0)
        assert r.stderr is not None
        covered += all(
            abs(est - tru) <= 3.0 * se
            for est, tru, se in zip(
                (r.params.ka, r.params.ke, r.params.gamma),
                (FITTED.ka, FITTED.ke, FITTED.gamma), r.stderr))
    coverage = covered / reps
    assert coverage >= 0.95

    jac = curve_jacobian(FITTED, times, 250.0)
    worst_jac = 0.0
    for j, base in enumerate((FITTED.ka, FITTED.ke, FITTED.gamma)):
        h = base * 1e-6
        vals_hi = [FITTED.ka, FITTED.ke, FITTED.gamma]
        vals_lo = list(vals_hi)
        vals_hi[j] += h
        vals_lo[j] -= h
        up = single_dose(PkParams(*vals_hi, volume=5000.0), 250.0).x(times)
        dn = single_dose(PkParams(*vals_lo, volume=5000.0), 250.0).x(times)
        fd = (up - dn) / (2.0 * h)
        worst_jac = max(worst_jac, float(np.max(
            np.abs(jac[:, j] - fd) / np.maximum(np.abs(fd), 1e-12))))
    assert worst_jac <= 1e-5
    print(f"criterion 8: PASS — noiseless recovery to {rel:.2e} (<= 1e-6); "
          f"3-SE coverage {coverage:.1%} over 200 seeded reps (>= 95%); "
          f"Jacobian vs central differences {worst_jac:.2e} (<= 1e-5)")


def test_criterion_09_extension_models():
    ke, delta, tau = 0.3838, 600.0, 6.0
    sol = bolus_multidose(ke, BolusRegimen([(delta, tau)] * 100))
    limit = bolus_equi_remainder_limit(ke, delta, tau)
    beta = math.exp(-ke * tau)
    closed = delta * beta * (1.0 - beta ** 100) / (1.0 - beta)
    assert abs(sol.remainder(100) - closed) <= 1e-10 * closed
    assert abs(sol.remainder(100) - limit) <= 1e-10 * limit

    fat = fat_multidose(FAT_COMPANION, FatRegimen([(600.0, 5.0, 2.0)] * 6))
    p = FAT_COMPANION
    worst_cont = 0.0
    for n in range(1, 7):
        c = fat.coefficients(n)
        left = (c.c1 * math.exp(-p.ke * 2.0)
                - c.c2 * math.exp(-p.ka * 2.0))
        worst_cont = max(worst_cont, abs(left - fat.cutoff_value(n)))
        if n < 6:
            end = fat.cutoff_value(n) * math.exp(-p.ke * 3.0)
            nxt = fat.coefficients(n + 1)
            worst_cont = max(worst_cont,
                             abs(end - (nxt.c1 - nxt.c2)))
    assert worst_cont <= 1e-12
    t = np.linspace(0.0, 30.0, 6001)[:-1]
    clearance = (t % 5.0) >= 2.0
    assert np.all(fat.y(t)[clearance] == 0.0)

    # RK4 cross-check over both phases of cycle 2.
    from multidose.oracle import _rk4_segment

    carry = fat.end_value(1)
    _, xs, _ = _rk4_segment(p, 600.0, carry, 2.0, 1e-3)
    assert xs[-1] == pytest.approx(fat.cutoff_value(2), rel=1e-8)
    _, xs2, _ = _rk4_segment(p, 0.0, fat.cutoff_value(2), 3.0, 1e-3)
    assert xs2[-1] == pytest.approx(fat.end_value(2), rel=1e-8)
    print(f"criterion 9: PASS — bolus limiting remainder matches the "
          f"geometric form to <= 1e-10; finite-absorption trajectory "
          f"continuous to {worst_cont:.1e} with empty gut through clearance, "
          f"RK4 cross-checked")


def test_criterion_10_cli_determinism(tmp_path, monkeypatch):
    def run(*args):
        return subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                               "-m", "multidose", *args], capture_output=True, text=True)

    checks = [
        (("simulate", str(DATA / "oral_equi.json")),
         DATA / "golden_simulate_oral_equi.csv"),
        (("simulate", str(DATA / "oral_skip.json")),
         DATA / "golden_simulate_oral_skip.csv"),
        (("analyze", str(DATA / "oral_equi.json")),
         DATA / "golden_analyze_oral_equi.json"),
        (("analyze", str(DATA / "bolus_mixed.json")),
         DATA / "golden_analyze_bolus_mixed.json"),
        (("design", "--ka", "1.0", "--ke", "0.1", "--gamma", "1.0",
          "--volume", "1.0", "--mic", "100", "--tc", "250",
          "--ss-lower", "120", "--ss-upper", "200",
          "--tau-grid", "2,4,6,8,12,24"),
         DATA / "golden_design.json"),
    ]
    for args, golden in checks:
        cp = run(*args)
        assert cp.returncode == 0, (args, cp.stderr)
        assert cp.stdout.encode() == golden.read_bytes(), args

    # Exit-code contract: 0 success (above), 2 validation, 3 numerical.
    bad = run("design", "--ka", "1.0", "--ke", "0.1", "--gamma", "1.0",
              "--volume", "1.0", "--mic", "100", "--tc", "250",
              "--ss-lower", "200", "--ss-upper", "120")
    assert bad.returncode == 2
    missing = tmp_path / "nope.json"
    assert run("simulate", str(missing)).returncode == 2

    def explode(args):
        raise NoConvergence("synthetic non-convergence")

    # build_parser resolves cmd_design at call time, so patching the module
    # attribute routes the next main() through the failing path.
    monkeypatch.setattr(cli, "cmd_design", explode)
    code = cli.main(["design", "--ka", "1", "--ke", "0.1", "--gamma", "1",
                     "--mic", "1", "--tc", "4", "--ss-lower", "2",
                     "--ss-upper", "3"])
    assert code == 3
    print("criterion 10: PASS — byte-identical golden outputs for simulate/"
          "analyze/design; exit codes 0/2/3 honored")
