"""wtlabel benchmark: run one workload, or all of them, and report.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pipeline_ref --seed 1 --seconds 27 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 27

--trace 0 reports the end-to-end metrics of BENCHMARK.json from
untraced runs; --trace 1 reports its per-layer metrics from a traced
run. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Each workload runs in fresh
Python processes (child.py) whose environment pins BLAS to one thread
before numpy is imported; this process imports neither numpy nor
wtlabel. setup_s and run_s are medians of wall times rescaled by a
calibration kernel timed in the same process (calibrate.py), so a
slowdown of the whole machine that outlasts a run does not move them.
Inputs and outputs go to a temporary directory under
.perfbench_work/ in the checkout, which is removed at the end; the full
result of each run, spans included, is kept under .perfbench_out/.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

# a run must end within 180 s; leave room to clean up and print
DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark itself could not produce a result."""


def checkout_record(root: str) -> dict:
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
        commit = done.stdout.strip() or None
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "wtlabel", "*.py"))):
        with open(path, "rb") as fh:
            h.update(os.path.basename(path).encode() + b"\0" + fh.read())
    return {
        "commit": commit,
        "source_sha256": h.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


def run_child(mode: str, a, w, work: str, deadline: float) -> dict:
    result = os.path.join(work, f"{mode}.json")
    env = dict(os.environ, **workloads.BLAS_PIN)
    src = os.path.join(os.getcwd(), "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    argv = [sys.executable, os.path.join(HERE, "child.py"), mode,
            "--workload", w.name, "--seed", str(a.seed), "--seconds", str(a.seconds),
            "--data", os.path.join(work, "data"), "--out", os.path.join(work, "out"),
            "--result", result]
    argv += [flag for flag, on in (("--toy", a.toy), ("--record", a.record)) if on]
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError(f"no time left for the {mode} step")
    try:
        done = subprocess.run(argv, env=env, stdout=sys.stderr, timeout=left)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} step of {w.name} did not finish within {DEADLINE_S:.0f} s")
    if done.returncode != 0:
        raise BenchError(f"{mode} step of {w.name} exited {done.returncode}")
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(a, w, spec: dict) -> dict:
    """Set up, then measure or trace; returns the full result record."""
    deadline = time.monotonic() + DEADLINE_S
    root = os.getcwd()
    base = os.path.join(root, ".perfbench_work")
    os.makedirs(base, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{w.name}-", dir=base)
    record = {"workload": w.name, "seed": a.seed, "slot": workloads.slot_of(a.seed),
              "seconds": a.seconds, "trace": a.trace, "toy": a.toy,
              "checkout": checkout_record(root), "loadavg_start": os.getloadavg()}
    try:
        if a.trace:
            res = run_child("trace", a, w, work, deadline)
            metrics = res["metrics"]
            attempted, failed = res["attempted"], res["failed"]
        else:
            setup = run_child("setup", a, w, work, deadline)
            res = run_child("measure", a, w, work, deadline)
            legs, kernel = res["legs"], res["kernel_s"]
            record["leg_medians_s"] = {
                name: sum(workloads.calibrated(legs[leg], kernel) for leg in members)
                for name, members in workloads.LEG_METRICS[w.name].items()
            }
            record.update(setup_times_s=setup["setup_times"], setup_kernel_s=setup["kernel_s"],
                          iterations_s=res["iterations"], kernel_s=kernel)
            record["wall_medians_s"] = {
                "setup_s": statistics.median(setup["setup_times"]),
                "run_s": statistics.median(res["iterations"]),
            }
            metrics = {
                "setup_s": workloads.calibrated(setup["setup_times"], setup["kernel_s"]),
                "run_s": workloads.calibrated(res["iterations"], kernel),
                "gauc_truth": res["gauc_truth"],
                "peak_rss_mb": res["peak_rss_mb"],
            }
            attempted = setup["attempted"] + res["attempted"]
            failed = setup["failed"] + res["failed"]
        record.update(env=res["env"], checks=res["checks"], failures=res["failures"])
        if a.trace:
            record.update(spans=res["spans"], untraced_legs_s=res["untraced_legs"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["loadavg_end"] = os.getloadavg()
    names = spec["per_layer" if a.trace else "end_to_end"]
    missing = [m["name"] for m in names if m["name"] not in metrics]
    if missing and not failed:
        raise BenchError(f"{w.name}: metrics not produced: {', '.join(missing)}")
    record["metrics"] = {m["name"]: {"value": metrics.get(m["name"], float("nan")), "unit": m["unit"]}
                         for m in names}
    record["attempted"], record["failed"] = attempted, failed
    out = os.path.join(root, ".perfbench_out")
    os.makedirs(out, exist_ok=True)
    name = f"{w.name}-seed{a.seed}-trace{int(a.trace)}{'-toy' if a.toy else ''}.json"
    with open(os.path.join(out, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return record


def report(record: dict) -> None:
    """Human-readable lines for one workload, to standard output."""
    w = record["workload"]
    print(f"== {w} seed {record['seed']} (generator seed {record['slot']})"
          f"{' traced' if record['trace'] else ''}")
    for name, m in record["metrics"].items():
        print(f"  {name:<44} {m['value']:>16.6f} {m['unit']}")
    for name, value in record.get("leg_medians_s", {}).items():
        print(f"  {name:<44} {value:>16.6f} s")
    for name, value in record.get("wall_medians_s", {}).items():
        print(f"  {name + ' (uncalibrated wall)':<44} {value:>16.6f} s")
    rate = record["failed"] / record["attempted"]
    print(f"  {'error_rate':<44} {rate:>16.6f} fraction"
          f" ({record['failed']} of {record['attempted']} calls and checks failed)")
    for f in record["failures"]:
        print(f"  FAILED {f}")
    env = dict(record["env"], **record["checkout"],
               loadavg_start=record["loadavg_start"], loadavg_end=record["loadavg_end"])
    print("  env " + json.dumps(env, sort_keys=True))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=None,
                   help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true",
                   help="toy input sizes and 1 epoch; skips the recorded-reference checks")
    a = p.parse_args(argv)
    a.record = False

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "wtlabel", "cli.py")):
        print("run.py: no src/wtlabel here; run it from the root of a wtlabel checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if a.seconds is None:
        a.seconds = spec["run_seconds"]

    names = sorted(workloads.WORKLOADS) if a.workload == "all" else [a.workload]
    records = []
    try:
        for name in names:
            records.append(run_workload(a, workloads.WORKLOADS[name], spec))
            report(records[-1])
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    values = {(r["workload"] + "." if len(records) > 1 else "") + k: v
              for r in records for k, v in r["metrics"].items()}
    if not all(isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
               for m in values.values()):
        print("run.py: a metric is not a finite number; see the lines above", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": values}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
