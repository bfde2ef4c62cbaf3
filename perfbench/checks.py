"""Output checks of each workload, and the values they record.

Every check returns (name, ok, detail). The values a check compares
against (labeled-CSV digests, gauc_truth floors) are recorded per
generator seed slot in reference.json by record_reference.py.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os

# gauc_truth may fall this far below its recorded value before the floor
# check fails. At the benchmark's epoch counts the recorded values of the
# 16 generator seeds spread over 0.045 (pipeline_ref, 0.52 to 0.57) and
# 0.041 (ablate_ref, 0.50 to 0.54); the slack lets a numerically
# different training move one seed's value by about half that spread.
GAUC_SLACK = 0.02
# acceptance 4: sketch labels may flip at most this share of records
FLIP_LIMIT = 0.03
FLIP_COLUMNS = ("wpr", "wpr_d", "ev", "ev_d", "lv", "lv_d")


def sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def csv_columns(path: str, names) -> dict[str, list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        idx = [header.index(n) for n in names]
        cols = [[] for _ in names]
        for row in reader:
            for k, i in enumerate(idx):
                cols[k].append(row[i])
    return dict(zip(names, cols))


def _floor(name: str, value: float, ref) -> tuple[str, bool, str]:
    floor = ref["gauc_truth"] - GAUC_SLACK
    return (name, bool(value >= floor), f"{value:.6f} vs floor {floor:.6f}")


def _digest(name: str, digest: str, ref) -> tuple[str, bool, str]:
    return (name, digest == ref["labeled_sha256"], digest)


def _repeatable(name: str, digests: list[str]) -> tuple[str, bool, str]:
    return (name, len(set(digests)) == 1, f"{len(digests)} iterations")


def pipeline_ref(out_dir: str, truth_path: str, digests: list[str], ref):
    from wtlabel.learner import load_model

    checks = [_repeatable("labeled_csv_repeatable", digests)]
    try:
        model = load_model(os.path.join(out_dir, "model.bin"))
        checks.append(("checkpoint_loads", model.n_parameters() > 0,
                       f"{model.n_parameters()} parameters"))
    except Exception as exc:  # any failure to load is a failed check
        checks.append(("checkpoint_loads", False, f"{type(exc).__name__}: {exc}"))
    with open(os.path.join(out_dir, "report.csv"), newline="") as fh:
        rows = {r["metric"]: r["value"] for r in csv.DictReader(fh)}
    finite = all(v != "" and math.isfinite(float(v)) for v in rows.values())
    checks.append(("report_finite", finite and "gauc_truth" in rows, f"{len(rows)} rows"))
    gauc = float(rows.get("gauc_truth") or "nan")
    if ref is not None:
        checks.append(_digest("labeled_csv_digest", digests[-1], ref))
        checks.append(_floor("gauc_truth_floor", gauc, ref))
    return checks, gauc, {"labeled_sha256": digests[-1], "gauc_truth": gauc}


def ablate_ref(out_dir: str, truth_path: str, digests: list[str], ref):
    from wtlabel.cli import ABLATE_VARIANTS

    checks = [_repeatable("ablate_table_repeatable", digests)]
    with open(os.path.join(out_dir, "ablate.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    names = [r["variant"] for r in rows]
    finite = all(
        v != "" and math.isfinite(float(v))
        for r in rows for k, v in r.items() if k != "variant"
    )
    ok = names == [n for n, _ in ABLATE_VARIANTS] and finite
    checks.append(("ablate_table_9_finite_rows", ok, f"{len(rows)} rows"))
    gauc = float(rows[0]["gauc_truth"]) if rows and rows[0]["gauc_truth"] else float("nan")
    if ref is not None:
        checks.append(_floor("gauc_truth_floor", gauc, ref))
    return checks, gauc, {"gauc_truth": gauc}


def label_wide(out_dir: str, truth_path: str, digests: list[str], ref):
    import numpy as np

    from wtlabel.datagen import oracle_rank_quality
    from wtlabel.dataio import read_truth

    exact = os.path.join(out_dir, "exact.csv")
    checks = [_repeatable("exact_csv_repeatable", digests)]
    checks.append(("reuse_matches_exact", sha256(os.path.join(out_dir, "reuse.csv")) == digests[-1],
                   "label --summaries-in output against the exact leg"))
    a = csv_columns(exact, FLIP_COLUMNS)
    b = csv_columns(os.path.join(out_dir, "sketch.csv"), FLIP_COLUMNS + ("user_id",))
    for name in FLIP_COLUMNS:
        flips = sum(x != y for x, y in zip(a[name], b[name])) / len(a[name])
        checks.append((f"sketch_flips_{name}", flips <= FLIP_LIMIT, f"{flips:.6f}"))
    # label quality: the sketch leg's debiased rank label against the
    # generator's latent interest, per user
    gauc = float(oracle_rank_quality(
        np.asarray(b["wpr_d"], dtype=np.float64), read_truth(truth_path).m, b["user_id"]
    ))
    if ref is not None:
        checks.append(_digest("exact_csv_digest", digests[-1], ref))
        checks.append(_floor("gauc_truth_floor", gauc, ref))
    return checks, gauc, {"labeled_sha256": digests[-1], "gauc_truth": gauc}


# the file each workload's repeatability digest is taken of
DIGEST_FILE = {"pipeline_ref": "labeled.csv", "ablate_ref": "ablate.csv", "label_wide": "exact.csv"}
CHECKS = {"pipeline_ref": pipeline_ref, "ablate_ref": ablate_ref, "label_wide": label_wide}
