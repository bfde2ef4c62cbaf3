"""Machine-speed calibration for the benchmark's timings.

The machines the benchmark runs on change speed by up to 2x over
seconds to minutes (other tenants, frequency scaling), and a run's
median over its own iterations does not remove a slowdown that lasts
as long as the run. So the process that times a workload also runs a
fixed calibration kernel before its first timed call and after each
one, and the run's median time is rescaled to the kernel's reference
speed:

    calibrated = median(wall times) * REFERENCE_S / median(kernel times)

(workloads.calibrated, which run.py applies). The kernel mixes the
kinds of work wtlabel does: interpreted loops, CSV formatting and
parsing, numpy sorting and a small single-threaded matmul. Its inputs are fixed, so it does the same work on every call;
it shares no code with wtlabel, so a change to wtlabel cannot move it.
"""

from __future__ import annotations

import csv
import io
import time

import numpy as np

_rng = np.random.Generator(np.random.PCG64(20230629))
_VALUES = _rng.random(200_000)
_MATRIX = _rng.random((160, 160))
_ROWS = [(f"u{i % 997}", f"v{i % 7919}", f"{v:.6f}") for i, v in enumerate(_VALUES[:30_000])]


def kernel() -> float:
    """Wall time of one pass of the fixed calibration work."""
    t0 = time.perf_counter()
    acc = 0
    for k in range(500_000):
        acc += k & 7
    buf = io.StringIO()
    csv.writer(buf).writerows(_ROWS)
    buf.seek(0)
    parsed = sum(float(row[2]) for row in csv.reader(buf))
    np.argsort(_VALUES, kind="stable")
    m = _MATRIX
    for _ in range(40):
        m = np.tanh(m @ _MATRIX)
    dt = time.perf_counter() - t0
    if acc < 0 or parsed < 0 or not np.isfinite(m).all():  # keeps the work live
        raise AssertionError("calibration kernel produced an impossible value")
    return dt
