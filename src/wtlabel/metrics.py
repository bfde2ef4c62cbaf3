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


def _average_ranks(scores: np.ndarray, group: np.ndarray) -> np.ndarray:
    """1-based rank of each score among its group's scores, ties averaged."""
    order = np.lexsort((scores, group))
    s, g = scores[order], group[order]
    new_run = np.ones(len(s), dtype=bool)
    new_run[1:] = (s[1:] != s[:-1]) | (g[1:] != g[:-1])
    run_id = np.cumsum(new_run) - 1
    counts = np.bincount(run_id)
    ends = np.cumsum(counts)
    # position in (group, score) order, less the records of earlier groups
    ranks = np.empty(len(s), dtype=np.float64)
    ranks[order] = ((2 * ends - counts + 1) / 2.0)[run_id] - np.searchsorted(g, g)
    return ranks


def _auc_terms(scores, labels, group: np.ndarray, n_groups: int):
    """Each group's AUC as a numerator over its positive-negative pair
    count. Ranks are half-integers, so every sum here is exact."""
    pos = np.asarray(labels) == 1
    ranks = _average_ranks(np.asarray(scores, dtype=np.float64), group)
    p = np.bincount(group[pos], minlength=n_groups)
    q = np.bincount(group, minlength=n_groups) - p
    rank_sum = np.bincount(group[pos], weights=ranks[pos], minlength=n_groups)
    return rank_sum - p * (p + 1) / 2.0, p * q


def user_segments(user_ids) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """core.segments' order of the records, each one's user and each user's record count."""
    _, order, bounds = segments(np.asarray(user_ids))
    sizes = np.diff(bounds)
    return order, np.repeat(np.arange(len(sizes)), sizes), sizes


def eligible_user_mean(num, den, sizes, no_users: str) -> tuple[float, np.ndarray]:
    """Mean of the per-user ratios num / den over the users with den > 0,
    weighted by record count, and the mask of those users. The terms are
    summed in user order (np.cumsum; np.sum would pair them), as a loop would."""
    used = den > 0
    if not used.any():
        raise NoEligibleUsers(no_users)
    w = sizes[used].astype(np.float64)
    return float(np.cumsum(w * (num[used] / den[used]))[-1] / w.sum()), used


def auc(scores, labels) -> float:
    """Probability a positive outranks a negative, ties counting half."""
    if len(scores) != len(labels):
        raise EmptyInput("scores and labels must align")
    num, den = _auc_terms(scores, labels, np.zeros(len(scores), dtype=np.int64), 1)
    if den[0] == 0:
        raise DegenerateLabels("need at least one positive and one negative")
    return float(num[0] / den[0])


@dataclass
class GaucDetail:
    value: float
    n_users_used: int
    n_users_skipped: int
    n_records_used: int


def gauc_detail(scores, labels, user_ids) -> GaucDetail:
    if not (len(scores) == len(labels) == len(user_ids)):
        raise EmptyInput("scores, labels, and user ids must align")
    order, user, sizes = user_segments(user_ids)
    num, den = _auc_terms(np.asarray(scores)[order], np.asarray(labels)[order], user, len(sizes))
    value, used = eligible_user_mean(num, den, sizes, "no user carries both label classes")
    return GaucDetail(value, int(used.sum()), int((~used).sum()), int(sizes[used].sum()))


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


def regression_metrics(predicted, actual) -> RegressionMetrics:
    """MAE and RMSE in seconds; MAPE as a fraction over actual > 0."""
    predicted = np.asarray(predicted, dtype=np.float64)
    actual = np.asarray(actual, dtype=np.float64)
    if len(predicted) != len(actual) or len(actual) == 0:
        raise EmptyInput("need aligned non-empty prediction and actual arrays")
    err = predicted - actual
    mae = float(np.mean(np.abs(err)))
    with np.errstate(over="ignore"):
        rmse = float(np.sqrt(np.mean(err * err)))
    if np.isinf(rmse):
        # the squares of errors past ~1e154 overflow; scaled by the
        # largest error they do not (an infinite error keeps rmse inf)
        top = np.max(np.abs(err))
        if np.isfinite(top):
            rmse = float(top * np.sqrt(np.mean(np.square(err / top))))
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
