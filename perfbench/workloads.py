"""Workload definitions: inputs, CLI command sequences and run sizes.

Imports nothing outside the standard library, so the parent process
can read it before any BLAS library is loaded.
"""

from __future__ import annotations

import os
import statistics
from dataclasses import dataclass

# The benchmark's --seed picks one of SLOTS generator seeds. Digests and
# quality floors are recorded per slot in reference.json, so every seed
# can be checked against a value recorded at the benchmarked commit.
SLOTS = 16

# BLAS threads, pinned in every benchmark process's environment before
# numpy is imported; wtlabel itself sets nothing.
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# gen is repeated at least SETUP_REPEATS times and for at least
# SETUP_MIN_S seconds per run; setup_s is the median.
SETUP_REPEATS = 3
SETUP_MIN_S = 3.0

# the workload's commands run at least this often per measuring run, so
# run_s is always a median of several passes
MIN_ITERATIONS = 2

# The calibration kernel's median wall time on the reference machine
# (2-CPU Intel Xeon at 2.1 GHz, Python 3.11, numpy 2.4, OpenBLAS pinned
# to 1 thread); calibrated times are seconds at that speed.
REFERENCE_S = 0.12


def calibrated(walls: list[float], kernels: list[float]) -> float:
    """The median of walls in seconds at the calibration kernel's
    reference speed, from the kernel times of the same process."""
    return statistics.median(walls) * REFERENCE_S / statistics.median(kernels)


# Toy sizes for the smoke check: small enough that a full traced run
# takes a few seconds.
TOY_GEN = ("--users", "24", "--videos", "80", "--per-user", "40")


@dataclass(frozen=True)
class Workload:
    name: str
    gen_args: tuple[str, ...]
    # training epochs passed to train/ablate; None when nothing trains
    epochs: int | None


WORKLOADS = {
    w.name: w
    for w in (
        # the 100k-record reference (SyntheticConfig defaults)
        Workload("pipeline_ref", (), 5),
        Workload("ablate_ref", (), 1),
        # 200k records; a third of them sit in videos below min_group_size
        Workload(
            "label_wide",
            ("--users", "2000", "--videos", "20000", "--per-user", "100"),
            None,
        ),
    )
}


def slot_of(seed: int) -> int:
    return seed % SLOTS


def gen_argv(workload: Workload, seed: int, out_dir: str, toy: bool) -> list[str]:
    sizes = TOY_GEN if toy else workload.gen_args
    return ["gen", "--out", out_dir, "--seed", str(slot_of(seed)), *sizes]


def inputs(data_dir: str) -> tuple[str, str]:
    """Interaction and truth CSV paths written by gen into data_dir."""
    return (
        os.path.join(data_dir, "interactions.csv"),
        os.path.join(data_dir, "truth.csv"),
    )


def legs(workload: Workload, data_dir: str, out_dir: str, toy: bool) -> list[tuple[str, list[str]]]:
    """The workload's CLI calls as (leg name, argv), in run order.

    Inputs are read from data_dir; every output goes to out_dir, so a
    traced mirror can write beside an untraced run and be compared.
    """
    src, truth = inputs(data_dir)
    out = lambda name: os.path.join(out_dir, name)  # noqa: E731
    epochs = ["--epochs", str(1 if toy else workload.epochs)] if workload.epochs else []
    if workload.name == "pipeline_ref":
        return [
            ("label", ["label", "--input", src, "--output", out("labeled.csv")]),
            ("train", ["train", "--input", out("labeled.csv"), "--model", out("model.bin"), *epochs]),
            ("eval", ["eval", "--input", out("labeled.csv"), "--model", out("model.bin"),
                      "--report", out("report.csv"), "--truth", truth]),
        ]
    if workload.name == "ablate_ref":
        return [("ablate", ["ablate", "--input", src, "--truth", truth, "--out", out_dir, *epochs])]
    return [
        ("label_exact", ["label", "--input", src, "--output", out("exact.csv"),
                         "--summaries-out", out("summaries.bin")]),
        ("label_sketch", ["label", "--input", src, "--output", out("sketch.csv"),
                          "--summary", "sketch"]),
        ("label_reuse", ["label", "--input", src, "--output", out("reuse.csv"),
                         "--summaries-in", out("summaries.bin")]),
    ]


# Names of the leg sums that make up run_s on each workload.
LEG_METRICS = {
    "pipeline_ref": {"pipeline_s": ("label", "train", "eval")},
    "ablate_ref": {"ablate_s": ("ablate",)},
    "label_wide": {
        "label_s": ("label_exact",),
        "sketch_label_s": ("label_sketch",),
        "relabel_s": ("label_reuse",),
    },
}
