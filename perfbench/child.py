"""One benchmark process: set up inputs, measure, or trace a workload.

run.py starts this script in a fresh interpreter whose environment pins
BLAS to one thread before numpy is imported; it refuses to run without
the pin. Usage:

    python3 perfbench/child.py {setup,measure,trace} --workload NAME
        --seed N --seconds S --data DIR --out DIR --result FILE [--toy]

The result is one JSON object written to FILE.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time

from workloads import BLAS_PIN  # standard library only

if any(os.environ.get(k) != v for k, v in BLAS_PIN.items()):
    sys.exit(f"child.py: set {', '.join(BLAS_PIN)}=1 before starting it (run.py does)")

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from wtlabel import cli  # noqa: E402

import calibrate  # noqa: E402
import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from mirror import Mirror  # noqa: E402
from tracer import Tracer, check_nesting  # noqa: E402


def blas_info() -> dict:
    """OpenBLAS version and the thread count it actually uses."""
    import ctypes
    import glob

    info = {"blas": None, "blas_threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        pass
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"] = int(fn())
                return info
    return info


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        **blas_info(),
        "pinned": {k: os.environ[k] for k in BLAS_PIN},
    }


# calibration kernel times of this process: one before the first timed
# call, one after each (see calibrate.py)
KERNEL_S: list[float] = []


def call(argv: list[str]) -> tuple[float, int]:
    """Wall time and exit code of one in-process CLI call."""
    if not KERNEL_S:
        KERNEL_S.append(calibrate.kernel())
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        rc = cli.main(argv)
        dt = time.perf_counter() - t0
    KERNEL_S.append(calibrate.kernel())
    return dt, rc


def setup(a, w) -> dict:
    times = []
    failed = 0
    repeats = 1 if a.record else workloads.SETUP_REPEATS
    min_s = 0.0 if a.record or a.toy else workloads.SETUP_MIN_S
    while len(times) < repeats or sum(times) < min_s:
        dt, rc = call(workloads.gen_argv(w, a.seed, a.data, a.toy))
        times.append(dt)
        failed += rc != 0
    return {"setup_times": times, "attempted": len(times), "failed": failed}


def _check(w, a, out_dir: str, digests: list[str], ref) -> tuple[list, float, dict]:
    _, truth = workloads.inputs(a.data)
    return checks.CHECKS[w.name](out_dir, truth, digests, ref)


def _reference(a, w):
    if a.toy or a.record:
        return None
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)[w.name][workloads.slot_of(a.seed)]


def _run_legs(w, a, out_dir: str, legs_s: dict, failures: list) -> float:
    total = 0.0
    for leg, argv in workloads.legs(w, a.data, out_dir, a.toy):
        dt, rc = call(argv)
        legs_s.setdefault(leg, []).append(dt)
        total += dt
        if rc != 0:
            failures.append(f"{leg} exited {rc}")
    return total


def measure(a, w) -> dict:
    """Repeat the workload's commands for about --seconds: at least
    MIN_ITERATIONS times, then while the median iteration still fits."""
    os.makedirs(a.out, exist_ok=True)
    legs_s: dict[str, list[float]] = {}
    failures: list[str] = []
    iterations: list[float] = []
    digests: list[str] = []
    start = time.perf_counter()
    peak_mb = 0.0
    min_iterations = 1 if a.record or a.toy else workloads.MIN_ITERATIONS
    while True:
        iterations.append(_run_legs(w, a, a.out, legs_s, failures))
        if len(iterations) == 1:
            # peak of one pass; later passes only add allocator drift
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if failures:
            break
        digests.append(checks.sha256(os.path.join(a.out, checks.DIGEST_FILE[w.name])))
        elapsed = time.perf_counter() - start
        if len(iterations) >= min_iterations and elapsed + statistics.median(iterations) > a.seconds:
            break
    calls = sum(len(v) for v in legs_s.values())
    if failures:
        results, gauc, observed = [], float("nan"), {}
    else:
        results, gauc, observed = _check(w, a, a.out, digests, _reference(a, w))
    return {
        "iterations": iterations,
        "legs": legs_s,
        "peak_rss_mb": peak_mb,
        "gauc_truth": gauc,
        "observed": observed,
        "checks": [list(c) for c in results],
        "failures": failures + [f"check {n}: {d}" for n, ok, d in results if not ok],
        "attempted": calls + len(results),
        "failed": len(failures) + sum(1 for _, ok, _ in results if not ok),
    }


def _forward_epoch(fit) -> float:
    """Public forward over one epoch of the fit's batches."""
    from wtlabel.learner import forward

    data, model, bs = fit.data, fit.model, fit.opt.batch_size
    perm = np.random.Generator(np.random.PCG64(fit.opt.seed)).permutation(data.n)
    t0 = time.perf_counter()
    for start in range(0, data.n, bs):
        take = perm[start : start + bs]
        forward(model.params, model.arch, model.tasks,
                data.user_rows[take], data.video_rows[take], data.bin_rows[take])
    return time.perf_counter() - t0


def trace(a, w) -> dict:
    """Traced set-up, then the commands untraced, through the traced
    mirrors, and untraced again; mirror outputs must match the untraced
    outputs byte for byte. The traced pass sits between the two
    untraced ones, so the first pass's cold start and any drift of the
    machine's speed do not land on one side of trace.overhead_frac."""
    tracer = Tracer(f"{w.name}-seed{a.seed}-{os.getpid()}")
    mirror = Mirror(tracer)
    mirror.run(workloads.gen_argv(w, a.seed, a.data, a.toy), "setup")

    plain = os.path.join(a.out, "untraced")
    traced = os.path.join(a.out, "traced")
    for d in (plain, traced):
        os.makedirs(d, exist_ok=True)
    legs_s: dict[str, list[float]] = {}
    failures: list[str] = []
    untraced_s = _run_legs(w, a, plain, legs_s, failures)
    results: list = []
    gauc = float("nan")
    if not failures:
        digest = checks.sha256(os.path.join(plain, checks.DIGEST_FILE[w.name]))
        results, gauc, _ = _check(w, a, plain, [digest], _reference(a, w))
        for leg, argv in workloads.legs(w, a.data, traced, a.toy):
            mirror.run(argv, leg)
        untraced_s = (untraced_s + _run_legs(w, a, plain, legs_s, failures)) / 2
    if not failures:
        for name in sorted(os.listdir(plain)):
            same = checks.sha256(os.path.join(plain, name)) == checks.sha256(os.path.join(traced, name))
            results.append((f"mirror_matches_{name}", same, "traced mirror output against the CLI's"))
    forward_s = _forward_epoch(mirror.fits[0]) if mirror.fits and not failures else 0.0
    nesting = check_nesting(tracer.spans)
    results.append(("spans_nest", not nesting, "; ".join(nesting[:3])))
    metrics = layers.compute(tracer.spans, mirror, untraced_s, forward_s) if not failures else {}
    return {
        "metrics": metrics,
        "gauc_truth": gauc,
        "untraced_legs": legs_s,
        "spans": tracer.records(),
        "checks": [list(c) for c in results],
        "failures": failures + [f"check {n}: {d}" for n, ok, d in results if not ok],
        "attempted": sum(len(v) for v in legs_s.values()) + len(results),
        "failed": len(failures) + sum(1 for _, ok, _ in results if not ok),
    }


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("mode", choices=("setup", "measure", "trace"))
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--data", required=True, help="directory of the generated inputs")
    p.add_argument("--out", required=True, help="directory for command outputs")
    p.add_argument("--result", required=True, help="JSON file to write")
    p.add_argument("--toy", action="store_true", help="toy sizes, no reference checks")
    p.add_argument("--record", action="store_true", help="skip reference checks")
    a = p.parse_args()
    w = workloads.WORKLOADS[a.workload]
    result = {"setup": setup, "measure": measure, "trace": trace}[a.mode](a, w)
    result["env"] = environment()
    result["kernel_s"] = KERNEL_S
    with open(a.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
