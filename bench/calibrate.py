"""A fixed calibration loop that measures how fast the host runs right now.

On a shared 2-vCPU VM each vCPU switches between speed levels up to 1.6x
apart, for seconds at a time and in proportions that drift over minutes.
A 25 s run of a workload therefore lands on a different mix of levels each
time, and its raw median wall time moves by 25-50% between runs of the same
code. The benchmark runs `calibrate()` between the children on the same
vCPU and states each child's times at the reference speed, the speed at
which one call takes `REFERENCE_S`:

    time at reference speed = measured time * REFERENCE_S / calibration time

where the calibration time is the mean of the calls just before and just
after the child. The loop is the kind of work the program does: float
formatting, JSON, numpy exponentials over large arrays and many calls on
small ones, and a pure-Python loop. It never touches multidose, so a
change to the program cannot move it.
"""

import json
import time

import numpy as np

#: Seconds one call takes at the reference speed (about the median on a
#: 2-vCPU Intel Xeon VM, Python 3.11, numpy 2.4).
REFERENCE_S = 0.06

_VALUES = np.linspace(0.001, 1000.0, 10_000).tolist()
_T = np.linspace(0.0, 50.0, 150_000)


def calibrate() -> float:
    """Seconds the fixed loop takes now."""
    start = time.perf_counter()
    text = "".join(f"{a:.6g},{b:.6g}\n" for a, b in zip(_VALUES, reversed(_VALUES)))
    doc = json.dumps([{"n": i, "auc": v} for i, v in enumerate(_VALUES[:3_000])],
                     indent=1)
    x = np.zeros_like(_T)
    for k in range(3):
        x += np.exp(-0.2 * k * _T) - np.exp(-0.7 * _T)
    s = _T[:64]
    gap = 0.0
    for k in range(1_000):
        d = 0.9 ** k * np.exp(-0.2 * s) - 0.8 ** k * np.exp(-0.7 * s)
        gap = max(gap, float(np.max(np.abs(d))))
    total = 0.0
    for i in range(30_000):
        total += (i % 7) * 0.5
    if not (len(text) and len(doc) and x[-1] < 4.0 and gap > 0.0 and total > 0.0):
        raise RuntimeError("calibration loop computed nothing")
    return time.perf_counter() - start
