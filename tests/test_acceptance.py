"""End-to-end acceptance checks for the labeling pipeline.

Eight checks, each printing one PASS/FAIL line with its measured
numbers. They cover: rank-group occupancy at scale, duration balance
after debiasing, degenerate-config equivalences, sketch fidelity,
learning efficacy of the debiased multi-task recipe, metric
correctness against brute-force oracles, analytic gradients, and
byte-level reproducibility of the full pipeline.
"""

from __future__ import annotations

import sys
import time

import numpy as np
import pytest

from wtlabel.cli import main
from wtlabel.core import InteractionTable, make_partition
from wtlabel.datagen import SyntheticConfig, generate, oracle_rank_quality
from wtlabel.dataio import split_mask
from wtlabel.errors import NoEligibleUsers
from wtlabel.labeling import LabelConfig, label_all, label_wpr_global
from wtlabel.learner import (
    OptimizerConfig,
    TaskConfig,
    build_train_data,
    fit,
    gradient_check,
    score_records,
)
from wtlabel.metrics import auc, gauc, ks_distance, regression_metrics
from wtlabel.quantile import ExactSummary, SketchSummary

N_GROUPS = 300
PARTITION = make_partition("power_decay", N_GROUPS, gamma=0.5)


@pytest.fixture
def verdict(capfd):
    """One PASS/FAIL line per check, written past output capture so the
    verdicts appear in the live run log."""

    def _verdict(num: int, name: str, ok: bool, detail: str) -> None:
        line = f"[{'PASS' if ok else 'FAIL'}] acceptance {num} {name}: {detail}"
        with capfd.disabled():
            sys.stdout.write("\n" + line + "\n")
            sys.stdout.flush()
        assert ok, line

    return _verdict


@pytest.fixture(scope="module")
def reference():
    """Default 100k-record synthetic dataset plus its generator truth."""
    table, truth = generate(SyntheticConfig())
    return table, truth


@pytest.fixture(scope="module")
def reference_labels(reference):
    table, _ = reference
    labels = label_all(table, LabelConfig(partition=PARTITION))
    return dict(labels.columns)


# 1 -------------------------------------------------------- occupancy


def test_acceptance_1_group_occupancy_at_scale(verdict):
    n = 100_000
    rng = np.random.Generator(np.random.PCG64(17))
    watch = rng.lognormal(2.0, 1.2, size=n)
    table = InteractionTable(
        user_id=["u"] * n,
        video_id=["v"] * n,
        duration_s=np.full(n, 600.0),
        watch_time_s=watch,
    )
    start = time.perf_counter()
    labels = label_wpr_global(table, PARTITION)
    group_idx = np.searchsorted(PARTITION.prefix, labels)
    counts = np.bincount(group_idx, minlength=N_GROUPS)
    q = PARTITION.ratios * n
    ok_counts = np.all((counts == np.floor(q)) | (counts == np.ceil(q)))
    elapsed = time.perf_counter() - start
    ok = bool(ok_counts) and counts.sum() == n and elapsed < 5.0
    verdict(
        1,
        "group occupancy",
        ok,
        f"{n} records into {N_GROUPS} groups, every count at floor/ceil of "
        f"its quota={bool(ok_counts)}, {elapsed:.2f}s (limit 5s)",
    )


# 2 ------------------------------------------------- duration balance


def test_acceptance_2_debiased_labels_balance_duration_bins(reference, verdict):
    table, _ = reference
    start = time.perf_counter()
    config = LabelConfig(partition=PARTITION, bins_b=15)
    labels = label_all(table, config)
    wpr_d = labels.columns["wpr_d"]
    ev_d = labels.columns["ev_d"]
    from wtlabel.core import make_duration_bins

    bins = make_duration_bins(table, 15)
    rows = bins.bin_of_many(table.duration_s)
    big = [b for b in range(bins.n_bins) if np.sum(rows == b) >= 5000]
    worst_ks = 0.0
    for i, a in enumerate(big):
        for b in big[i + 1:]:
            worst_ks = max(worst_ks, ks_distance(wpr_d[rows == a], wpr_d[rows == b]))
    rates = [float(np.mean(ev_d[rows == b])) for b in big]
    elapsed = time.perf_counter() - start
    ok = (
        len(big) >= 2
        and worst_ks <= 0.02
        and all(0.45 <= r <= 0.55 for r in rates)
        and elapsed < 10.0
    )
    verdict(
        2,
        "duration balance",
        ok,
        f"{len(big)} bins >=5000 records, worst rank-label KS={worst_ks:.4f} "
        f"(limit 0.02), median-split positive rates in "
        f"[{min(rates):.3f}, {max(rates):.3f}] (limits 0.45..0.55), "
        f"{elapsed:.2f}s (limit 10s)",
    )


# 3 --------------------------------------------- degenerate equivalence


def test_acceptance_3_degenerate_configs_match_reference_paths(reference, verdict):
    table, _ = reference
    one_bin = label_all(table, LabelConfig(partition=PARTITION, bins_b=1))
    same_bitwise = np.array_equal(one_bin.columns["wpr_d"], one_bin.columns["wpr"])

    flat = make_partition("power_decay", N_GROUPS, gamma=0.0)
    even = make_partition("equal_frequency", N_GROUPS)
    parts_equal = np.array_equal(flat.ratios, even.ratios) and np.array_equal(
        flat.prefix, even.prefix
    )
    la = label_wpr_global(table, flat)
    lb = label_wpr_global(table, even)
    labels_equal = np.array_equal(la, lb)
    ok = bool(same_bitwise and parts_equal and labels_equal)
    verdict(
        3,
        "degenerate configs",
        ok,
        f"single-bin debias equals global bitwise={same_bitwise}, "
        f"zero-decay partition equals equal-frequency bitwise="
        f"{parts_equal and labels_equal}",
    )


# 4 --------------------------------------------------- sketch fidelity


def test_acceptance_4_sketch_rank_error_and_label_flips(reference, verdict):
    eps = 0.005
    stream_rng = np.random.Generator(np.random.PCG64(23))
    worst = 0.0
    for s in range(10):
        n = 1_000_000
        kind = s % 5
        if kind == 0:
            values = stream_rng.lognormal(1.0, 1.5, n)
        elif kind == 1:
            values = stream_rng.uniform(0.0, 600.0, n)
        elif kind == 2:
            values = stream_rng.exponential(40.0, n)
        elif kind == 3:
            values = np.abs(stream_rng.normal(60.0, 30.0, n))
        else:
            # heavy point mass plus a continuous tail
            values = np.where(
                stream_rng.uniform(size=n) < 0.3,
                7.0,
                stream_rng.lognormal(2.0, 1.0, n),
            )
        sketch = SketchSummary(eps=eps)
        sketch.extend(values)
        exact = ExactSummary()
        exact.extend(values)
        probes = np.concatenate(
            [
                stream_rng.choice(values, 500),
                stream_rng.uniform(values.min(), values.max(), 500),
            ]
        )
        err = np.max(np.abs(sketch.rank_many(probes) - exact.rank_many(probes)))
        worst = max(worst, float(err))

    table, _ = reference
    shared_exact = LabelConfig(partition=PARTITION, tie_mode="shared")
    shared_sketch = LabelConfig(
        partition=PARTITION, tie_mode="shared", summary_mode="sketch", eps_sketch=eps
    )
    ce = label_all(table, shared_exact).columns
    cs = label_all(table, shared_sketch).columns
    flips = {
        name: float(np.mean(ce[name] != cs[name]))
        for name in ("wpr", "wpr_d", "ev", "ev_d", "lv", "lv_d")
    }
    worst_flip = max(flips.values())
    ok = worst <= eps and worst_flip <= 0.03
    verdict(
        4,
        "sketch fidelity",
        ok,
        f"10 streams of 1e6: worst rank error {worst:.5f} (limit {eps}), "
        f"worst label flip rate {worst_flip:.4f} (limit 0.03)",
    )


# 5 ------------------------------------------------- learning efficacy


DML_TASKS = [
    TaskConfig("wpr_d", "squared_error"),
    TaskConfig("ev_d", "logistic"),
    TaskConfig("lv_d", "logistic"),
]
RAW_TASKS = [
    TaskConfig("wpr", "squared_error"),
    TaskConfig("ev", "logistic"),
    TaskConfig("lv", "logistic"),
]
SECONDS_TASKS = [TaskConfig("watch_time_s", "squared_error", weight=0.02)]


def _train_and_score(table, columns, truth_m, tasks, opt) -> float:
    mask = split_mask(table.row_index, 0.9, 1)
    train_table = table.subset(mask)
    train_cols = {k: v[mask] for k, v in columns.items()}
    model, _ = fit(train_table, train_cols, tasks, opt=opt)
    eval_table = table.subset(~mask)
    scores = score_records(model, eval_table)["fused"]
    return oracle_rank_quality(scores, truth_m[eval_table.row_index], eval_table.user_id)


def test_acceptance_5_debiased_multitask_beats_baselines(reference, reference_labels, verdict):
    start = time.perf_counter()
    table, truth = reference
    columns = reference_labels
    opt = lambda s: OptimizerConfig(
        lr_embed=64.0, lr_dense=0.08, batch_size=2048, epochs=50, seed=s
    )
    dml = [_train_and_score(table, columns, truth.m, DML_TASKS, opt(s)) for s in range(5)]
    raw = _train_and_score(table, columns, truth.m, RAW_TASKS, opt(0))
    sec = _train_and_score(table, columns, truth.m, SECONDS_TASKS, opt(0))
    mean_dml = float(np.mean(dml))
    spread = float(np.max(dml) - np.min(dml))
    beats_raw = mean_dml - raw > spread
    beats_sec = mean_dml - sec > spread

    # with the confounder disabled every video shares one duration, so
    # debiased and global labels coincide and the gap must vanish
    flat_table, flat_truth = generate(SyntheticConfig(s_d=0.0, sigma_d=0.0))
    flat_cols = dict(label_all(flat_table, LabelConfig(partition=PARTITION)).columns)
    gentle = OptimizerConfig(lr_embed=2.0, lr_dense=0.04, batch_size=2048, epochs=10, seed=0)
    flat_dml = _train_and_score(flat_table, flat_cols, flat_truth.m, DML_TASKS, gentle)
    flat_raw = _train_and_score(flat_table, flat_cols, flat_truth.m, RAW_TASKS, gentle)
    flat_gap = abs(flat_dml - flat_raw)

    elapsed = time.perf_counter() - start
    ok = beats_raw and beats_sec and flat_gap <= 0.01 and elapsed < 300.0
    verdict(
        5,
        "learning efficacy",
        ok,
        f"debiased multi-task mean={mean_dml:.4f} over 5 seeds "
        f"(spread {spread:.4f}) vs raw-label {raw:.4f} and seconds-regression "
        f"{sec:.4f}; margins beat the seed spread={beats_raw and beats_sec}; "
        f"confound-off gap {flat_gap:.2e} (limit 0.01); "
        f"{elapsed:.0f}s (limit 300s)",
    )


# 6 ---------------------------------------------------- metric oracles


def _brute_auc(scores, labels) -> float:
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
    return float(wins / (len(pos) * len(neg)))


def _brute_gauc(scores, labels, users) -> float:
    total = 0.0
    weight = 0
    for u in set(users):
        mask = np.asarray([x == u for x in users])
        s, l = scores[mask], labels[mask]
        if len(np.unique(l)) < 2:
            continue
        total += _brute_auc(s, l) * mask.sum()
        weight += mask.sum()
    return total / weight


def _brute_ks(a, b) -> float:
    points = np.unique(np.concatenate([a, b]))
    fa = np.searchsorted(np.sort(a), points, side="right") / len(a)
    fb = np.searchsorted(np.sort(b), points, side="right") / len(b)
    return float(np.max(np.abs(fa - fb)))


def test_acceptance_6_metrics_match_brute_force(verdict):
    rng = np.random.Generator(np.random.PCG64(31))
    worst = 0.0
    for case in range(100):
        n = int(rng.integers(10, 2001))
        if case % 2:
            scores = rng.normal(size=n)
        else:
            scores = rng.integers(0, 6, size=n).astype(np.float64)  # heavy ties
        labels = rng.integers(0, 2, size=n).astype(np.float64)
        if len(np.unique(labels)) < 2:
            labels[0], labels[1] = 0.0, 1.0
        users = [f"u{int(v)}" for v in rng.integers(0, max(2, n // 40), size=n)]

        worst = max(worst, abs(auc(scores, labels) - _brute_auc(scores, labels)))
        try:
            got = gauc(scores, labels, users)
            worst = max(worst, abs(got - _brute_gauc(scores, labels, users)))
        except NoEligibleUsers:
            pass  # all per-user slices single-class; nothing to compare

        predicted = np.abs(rng.normal(30.0, 20.0, size=n))
        actual = np.abs(rng.normal(30.0, 20.0, size=n))
        if case % 3 == 0:
            actual[rng.integers(0, n, size=max(1, n // 20))] = 0.0
        reg = regression_metrics(predicted, actual)
        err = predicted - actual
        worst = max(worst, abs(reg.mae - np.mean(np.abs(err))))
        worst = max(worst, abs(reg.rmse - np.sqrt(np.mean(err * err))))
        nz = actual != 0
        worst = max(worst, abs(reg.mape - np.mean(np.abs(err[nz]) / actual[nz])))

        m = int(rng.integers(5, 500))
        a = rng.lognormal(1.0, 1.0, size=m)
        b = rng.lognormal(1.2, 0.8, size=int(rng.integers(5, 500)))
        worst = max(worst, abs(ks_distance(a, b) - _brute_ks(a, b)))
    ok = worst <= 1e-12
    verdict(
        6,
        "metric oracles",
        ok,
        f"100 randomized inputs up to 2000 records: worst deviation from "
        f"brute-force recomputation {worst:.2e} (limit 1e-12)",
    )


# 7 ------------------------------------------------- gradient fidelity


def test_acceptance_7_analytic_gradients_match_numeric(verdict):
    table, _ = generate(SyntheticConfig(n_users=40, n_videos=150, interactions_per_user=20, seed=7))
    columns = dict(label_all(table, LabelConfig(partition=make_partition("equal_frequency", 8))).columns)
    tasks = [
        TaskConfig("wpr_d", "squared_error"),
        TaskConfig("ev_d", "logistic"),
        TaskConfig("ev", "weighted_logistic", weight=0.05),
        TaskConfig("wpr", "ordinal_cumulative"),
    ]
    from wtlabel.learner import ModelArch

    model, _ = fit(
        table, columns, tasks,
        arch=ModelArch(d_embed=4, n_experts=2, hidden=8),
        opt=OptimizerConfig(epochs=1, batch_size=128, seed=2),
        bins_b=5, bins_min_size=10,
    )
    full = dict(columns)
    full["watch_time_s"] = table.watch_time_s
    data = build_train_data(
        table, full, model.tasks, model.user_index, model.video_index, model.bins
    )
    err = gradient_check(model, data, n_probes=200, seed=5)
    ok = err <= 1e-4
    verdict(
        7,
        "gradient fidelity",
        ok,
        f"four losses, 200 probed coordinates: worst relative error "
        f"{err:.2e} (limit 1e-4)",
    )


# 8 -------------------------------------------------- reproducibility


def test_acceptance_8_pipeline_runs_are_byte_identical(tmp_path, verdict):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "lr_embed = 1.0\nlr_dense = 0.02\nbatch_size = 256\nepochs = 3\n"
    )

    def pipeline(root) -> dict[str, bytes]:
        root.mkdir()
        argv_sets = [
            ["gen", "--out", str(root), "--users", "40", "--videos", "120",
             "--per-user", "25"],
            ["label", "--input", f"{root}/interactions.csv",
             "--output", f"{root}/labeled.csv"],
            ["train", "--input", f"{root}/labeled.csv", "--model",
             f"{root}/model.bin", "--trace", f"{root}/trace.csv",
             "--config", str(cfg)],
            ["eval", "--input", f"{root}/labeled.csv", "--model",
             f"{root}/model.bin", "--report", f"{root}/report.csv",
             "--truth", f"{root}/truth.csv"],
        ]
        for argv in argv_sets:
            assert main(argv) == 0
        out = {}
        for name in ("interactions.csv", "truth.csv", "labeled.csv",
                     "model.bin", "trace.csv", "report.csv"):
            with open(root / name, "rb") as fh:
                out[name] = fh.read()
        return out

    first = pipeline(tmp_path / "one")
    second = pipeline(tmp_path / "two")
    differing = [k for k in first if first[k] != second[k]]
    ok = not differing
    verdict(
        8,
        "reproducibility",
        ok,
        "two full generate/label/train/eval runs produced byte-identical "
        f"artifacts={ok}" + (f", differing: {differing}" if differing else ""),
    )
