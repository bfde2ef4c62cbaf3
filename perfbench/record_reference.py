"""Record the values the benchmark's output checks compare against.

For every generator seed slot and workload this runs set-up and one
untraced pass of the workload's commands, and stores the digest of the
exact labeled CSV and the gauc_truth the run reached in
perfbench/reference.json. Run it from the root of a checkout, only when
the program's outputs are meant to change:

    python3 perfbench/record_reference.py
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
import time
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402


def record_one(name: str, slot: int) -> dict:
    a = SimpleNamespace(seed=slot, seconds=0, trace=0, toy=False, record=True)
    w = workloads.WORKLOADS[name]
    base = os.path.join(os.getcwd(), ".perfbench_work")
    os.makedirs(base, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"record-{name}-", dir=base)
    try:
        deadline = time.monotonic() + 600
        run.run_child("setup", a, w, work, deadline)
        res = run.run_child("measure", a, w, work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if res["failed"]:
        raise run.BenchError(f"{name} slot {slot}: {res['failures']}")
    print(f"{name} slot {slot}: {res['observed']} in {res['iterations'][0]:.2f} s",
          file=sys.stderr, flush=True)
    return res["observed"]


def main() -> int:
    ref = {
        name: [record_one(name, slot) for slot in range(workloads.SLOTS)]
        for name in workloads.WORKLOADS
    }
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
