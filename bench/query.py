"""The trajectory-query workload: a library caller evaluating built solutions.

`build` reads the generated cohort (a JSON spec and an .npz of query
times) and constructs one solution per entry through the public API; this
is set-up. `run` is the measured part: every solution is evaluated with
`x`, `y`, `__call__` and, where it exists, `cycle_index` on a large sorted
time array, and the constant-interval oral solutions are also queried at
scalar far-horizon times. It writes the values at the spec's sample
indices and the far-horizon answers, for the benchmark to check.
"""

import json

import numpy as np

from multidose import (Arbitrary, BolusRegimen, FatRegimen, PkParams,
                       arbitrary_multidose, bolus_multidose, equi_multidose,
                       fat_multidose)


def build(spec_path: str, arrays_path: str) -> list[dict]:
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    arrays = np.load(arrays_path)
    sample = np.array(spec["sample"])
    cohort = []
    for i, item in enumerate(spec["solutions"]):
        kind = item["kind"]
        if kind == "bolus":
            sol = bolus_multidose(item["ke"], BolusRegimen(item["entries"]))
        else:
            p = PkParams(*item["params"])
            if kind == "equi":
                sol = equi_multidose(p, item["dose"], item["tau"])
            elif kind == "arbitrary":
                sol = arbitrary_multidose(p, Arbitrary(item["entries"]))
            else:
                sol = fat_multidose(p, FatRegimen(item["entries"]))
        cohort.append({"kind": kind, "sol": sol, "t": arrays[f"dense_{i}"],
                       "far": arrays[f"far_{i}"].tolist(), "sample": sample})
    return cohort


def run(cohort: list[dict], out_path: str) -> None:
    results = []
    for entry in cohort:
        sol, t, pick = entry["sol"], entry["t"], entry["sample"]
        x = sol.x(t)
        row = {"x": x[pick].tolist(), "checksum": float(x.sum())}
        if entry["kind"] == "bolus":
            row["call_x"] = sol(t)[pick].tolist()
        else:
            y = sol.y(t)
            call_x, call_y = sol(t)
            row["y"] = y[pick].tolist()
            row["call_x"] = call_x[pick].tolist()
            row["call_y"] = call_y[pick].tolist()
            row["checksum"] += float(y.sum())
        if entry["kind"] in ("equi", "arbitrary"):
            row["cycle"] = sol.cycle_index(t)[pick].tolist()
        row["far_x"] = [sol.x(s) for s in entry["far"]]
        row["far_cycle"] = [sol.cycle_index(s) for s in entry["far"]]
        results.append(row)
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(results, handle)


def points(kind: str, n_dense: int, n_far: int) -> int:
    """Time points one solution of this kind is queried at by `run`."""
    calls = {"bolus": 2, "fat": 3}.get(kind, 4)
    return calls * n_dense + 2 * n_far
