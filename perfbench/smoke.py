"""Smoke check of the benchmark itself, at toy sizes.

Checks that BENCHMARK.json is well formed and lists exactly the
per-layer metrics layers.py computes; that every workload, untraced and
traced, emits every named metric with its unit and passes its output
checks; that spans nest, self times are >= 0 and child spans cover at
least 90% of each command's root span; and that the benchmark exits
non-zero without a result when the program's sources are missing.
Takes about ten seconds. Run from the root of a checkout:

    python3 perfbench/smoke.py
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Span, check_nesting, children_of, covered, self_times  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SEED = 7
MIN_COVERAGE = 0.9


def check_spec(spec: dict, problems: list[str]) -> None:
    if set(spec) != {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}:
        problems.append(f"BENCHMARK.json keys: {sorted(spec)}")
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in spec[key]]
    for n in names:
        if not NAME.match(n):
            problems.append(f"bad name {n!r}")
    if len(names) != len(set(names)):
        problems.append("a name is used twice")
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not UNIT.match(m["unit"]) or m["better"] not in ("lower", "higher"):
            problems.append(f"bad unit or direction in {m}")
    for m in spec["end_to_end"]:
        if not 0 < m["bound"] <= 0.25:
            problems.append(f"bound of {m['name']} outside (0, 0.25]")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        problems.append("setup_s missing or not seconds/lower")
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    if listed != layers.PER_LAYER:
        problems.append("BENCHMARK.json per_layer differs from layers.PER_LAYER")


def run(argv: list[str], cwd: str) -> tuple[int, str]:
    done = subprocess.run([sys.executable, *argv], cwd=cwd, capture_output=True,
                          text=True, timeout=170)
    return done.returncode, done.stdout


def check_run(root: str, spec: dict, workload: str, trace: int, problems: list[str]) -> None:
    rc, out = run([os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(SEED),
                   "--seconds", "1", "--trace", str(trace), "--toy"], root)
    where = f"{workload} trace {trace}"
    if rc != 0:
        problems.append(f"{where}: exit {rc}")
        return
    result = json.loads(out.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{where}: not correct ({result['failed']} of {result['attempted']} failed)")
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        problems.append(f"{where}: metrics or units differ from BENCHMARK.json")
    if not trace:
        return
    with open(os.path.join(root, ".perfbench_out",
                           f"{workload}-seed{SEED}-trace1-toy.json"), encoding="utf-8") as fh:
        spans = [Span(**s) for s in json.load(fh)["spans"]]
    problems += [f"{where}: {p}" for p in check_nesting(spans)]
    for span_id, t in self_times(spans).items():
        if t < -1e-9:
            problems.append(f"{where}: span {span_id} has self time {t}")
    kids = children_of(spans)
    for r in spans:
        if r.parent is None and r.name.startswith("cli."):
            share = covered(r, kids.get(r.id, [])) / r.duration
            if share < MIN_COVERAGE:
                problems.append(f"{where}: children cover {share:.3f} of {r.name} {r.tag}")


def check_refuses_without_sources(root: str, problems: list[str]) -> None:
    base = os.path.join(root, ".perfbench_work")
    os.makedirs(base, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=base)
    try:
        shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        rc, out = run(["perfbench/run.py", "--workload", "pipeline_ref", "--seed", "1",
                       "--seconds", "1", "--trace", "0"], bare)
        if rc == 0 or out.strip():
            problems.append(f"without sources: exit {rc}, output {out[-200:]!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems: list[str] = []
    check_spec(spec, problems)
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            check_run(root, spec, name, trace, problems)
    check_refuses_without_sources(root, problems)
    for p in problems:
        print(f"FAIL {p}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
