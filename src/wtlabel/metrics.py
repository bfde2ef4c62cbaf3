"""Ranking and regression metrics.

AUC uses rank summation with average ranks on ties, which equals the
pairwise count with ties worth half. GAUC is the impression-weighted
mean of per-user AUCs; users whose labels are all one class carry no
ranking information and are skipped but counted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import segments
from .errors import DegenerateLabels, EmptyGroup, EmptyInput, NoEligibleUsers


def _average_ranks(scores: np.ndarray) -> np.ndarray:
    order = np.argsort(scores, kind="mergesort")
    s = scores[order]
    n = len(s)
    new_run = np.empty(n, dtype=bool)
    new_run[0] = True
    new_run[1:] = s[1:] != s[:-1]
    run_id = np.cumsum(new_run) - 1
    counts = np.bincount(run_id)
    ends = np.cumsum(counts)
    starts = ends - counts
    avg = (starts + ends + 1) / 2.0  # 1-based positions
    ranks = np.empty(n, dtype=np.float64)
    ranks[order] = avg[run_id]
    return ranks


def auc(scores, labels) -> float:
    """Probability a positive outranks a negative, ties counting half."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if len(scores) != len(labels):
        raise EmptyInput("scores and labels must align")
    pos = labels == 1
    p = int(pos.sum())
    q = len(labels) - p
    if p == 0 or q == 0:
        raise DegenerateLabels("need at least one positive and one negative")
    ranks = _average_ranks(scores)
    return (ranks[pos].sum() - p * (p + 1) / 2.0) / (p * q)


@dataclass
class GaucDetail:
    value: float
    n_users_used: int
    n_users_skipped: int
    n_records_used: int


def gauc_detail(scores, labels, user_ids) -> GaucDetail:
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    ids = np.asarray(user_ids)
    if not (len(scores) == len(labels) == len(ids)):
        raise EmptyInput("scores, labels, and user ids must align")
    _, order, bounds = segments(ids)
    total = 0.0
    used = 0
    skipped = 0
    records = 0
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        idx = order[lo:hi]
        lab = labels[idx]
        p = int((lab == 1).sum())
        if p == 0 or p == len(idx):
            skipped += 1
            continue
        total += len(idx) * auc(scores[idx], lab)
        used += 1
        records += len(idx)
    if used == 0:
        raise NoEligibleUsers("no user carries both label classes")
    return GaucDetail(total / records, used, skipped, records)


def gauc(scores, labels, user_ids) -> float:
    """Impression-weighted mean per-user AUC."""
    return gauc_detail(scores, labels, user_ids).value


@dataclass
class RegressionMetrics:
    mae: float
    rmse: float
    mape: float
    n: int
    n_mape_skipped: int

    def __iter__(self):
        return iter((self.mae, self.rmse, self.mape))


def regression_metrics(predicted, actual) -> RegressionMetrics:
    """MAE and RMSE in seconds; MAPE as a fraction over actual > 0."""
    predicted = np.asarray(predicted, dtype=np.float64)
    actual = np.asarray(actual, dtype=np.float64)
    if len(predicted) != len(actual) or len(actual) == 0:
        raise EmptyInput("need aligned non-empty prediction and actual arrays")
    err = predicted - actual
    mae = float(np.mean(np.abs(err)))
    rmse = float(np.sqrt(np.mean(err * err)))
    mask = actual > 0
    skipped = int((~mask).sum())
    if mask.any():
        # ratios may legitimately overflow for near-zero actuals
        with np.errstate(over="ignore"):
            mape = float(np.mean(np.abs(err[mask]) / actual[mask]))
    else:
        mape = float("nan")
    return RegressionMetrics(mae, rmse, mape, len(actual), skipped)


def ks_distance(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov distance."""
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    if len(a) == 0 or len(b) == 0:
        raise EmptyGroup("KS distance needs two non-empty samples")
    pooled = np.concatenate([a, b])
    ca = np.searchsorted(a, pooled, side="right") / len(a)
    cb = np.searchsorted(b, pooled, side="right") / len(b)
    return float(np.max(np.abs(ca - cb)))


@dataclass
class EvalReport:
    """Metrics for one trained model on one evaluation split.

    auc and gauc rank against the engagement label (ev); the _lv pair
    ranks against the long-view label. gauc_truth is present only when
    generator truth was supplied.
    """

    auc: float
    gauc: float
    auc_lv: float
    gauc_lv: float
    mae: float
    rmse: float
    mape: float
    gauc_truth: Optional[float]
    n_records: int
    n_users_used: int
    n_users_skipped: int
    n_users_used_lv: int
    n_users_skipped_lv: int
    n_mape_skipped: int

    def rows(self) -> list[tuple[str, float, int, int]]:
        out = [
            ("auc_ev", self.auc, self.n_records, 0),
            ("gauc_ev", self.gauc, self.n_users_used, self.n_users_skipped),
            ("auc_lv", self.auc_lv, self.n_records, 0),
            ("gauc_lv", self.gauc_lv, self.n_users_used_lv, self.n_users_skipped_lv),
            ("mae", self.mae, self.n_records, 0),
            ("rmse", self.rmse, self.n_records, 0),
            ("mape", self.mape, self.n_records - self.n_mape_skipped, self.n_mape_skipped),
        ]
        if self.gauc_truth is not None:
            out.append(("gauc_truth", self.gauc_truth, self.n_records, 0))
        return out

    def format_table(self) -> str:
        lines = [f"{'metric':<12}{'value':>12}{'evaluated':>12}{'skipped':>10}"]
        for name, value, n_eval, n_skip in self.rows():
            lines.append(f"{name:<12}{value:>12.6f}{n_eval:>12}{n_skip:>10}")
        return "\n".join(lines)
