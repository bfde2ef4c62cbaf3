"""Ranking and regression metrics against brute-force references."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from wtlabel.core import segments
from wtlabel.datagen import oracle_rank_quality
from wtlabel.errors import DegenerateLabels, EmptyGroup, EmptyInput, NoEligibleUsers
from wtlabel.metrics import (
    EvalReport,
    GaucDetail,
    auc,
    gauc,
    gauc_detail,
    ks_distance,
    regression_metrics,
)


def brute_auc(scores, labels):
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (len(pos) * len(neg))


# ---------------------------------------------------------------------- auc


def test_separated_pair():
    assert auc(np.array([0.9, 0.1]), np.array([1, 0])) == 1.0


def test_tied_pair_counts_half():
    assert auc(np.array([0.5, 0.5]), np.array([1, 0])) == 0.5


def test_single_class_rejected():
    with pytest.raises(DegenerateLabels):
        auc(np.array([0.1, 0.2]), np.array([1, 1]))


def test_auc_matches_double_loop():
    rng = np.random.default_rng(1)
    scores = rng.normal(size=1000)
    labels = rng.integers(0, 2, 1000)
    scores[::7] = scores[3::7][: len(scores[::7])].mean()  # inject ties
    assert auc(scores, labels) == pytest.approx(brute_auc(scores, labels), abs=1e-12)


@settings(deadline=None, max_examples=50)
@given(
    st.lists(st.floats(min_value=-5, max_value=5, allow_nan=False), min_size=4, max_size=40),
    st.data(),
)
def test_auc_invariant_under_monotone_transform(scores, data):
    labels = np.array(
        data.draw(
            st.lists(
                st.integers(min_value=0, max_value=1),
                min_size=len(scores),
                max_size=len(scores),
            )
        )
    )
    if labels.min() == labels.max():
        return
    # 3-decimal spacing keeps exp strictly increasing in float64
    s = np.round(np.asarray(scores), 3)
    a = auc(s, labels)
    b = auc(np.exp(s) + 3.0, labels)
    assert a == pytest.approx(b, abs=1e-12)


# --------------------------------------------------------------------- gauc


def test_one_user_equals_auc():
    scores = np.array([0.2, 0.8, 0.5, 0.1])
    labels = np.array([0, 1, 1, 0])
    users = np.array(["u"] * 4)
    assert gauc(scores, labels, users) == auc(scores, labels)


def test_impression_weighting():
    # user a: 4 records, auc 1.0; user b: 2 records, auc 0.5
    scores = np.array([0.1, 0.2, 0.8, 0.9, 0.5, 0.5])
    labels = np.array([0, 0, 1, 1, 0, 1])
    users = np.array(["a", "a", "a", "a", "b", "b"])
    assert gauc(scores, labels, users) == pytest.approx(5 / 6, abs=1e-15)


def test_single_class_users_skipped_and_counted():
    scores = np.array([0.1, 0.9, 0.4, 0.6])
    labels = np.array([0, 1, 1, 1])
    users = np.array(["a", "a", "b", "b"])
    detail = gauc_detail(scores, labels, users)
    assert detail.value == 1.0
    assert detail.n_users_used == 1
    assert detail.n_users_skipped == 1
    assert detail.n_records_used == 2


def test_no_eligible_users():
    with pytest.raises(NoEligibleUsers):
        gauc(np.array([0.1, 0.2]), np.array([1, 1]), np.array(["a", "a"]))


def test_gauc_matches_per_user_double_loop():
    rng = np.random.default_rng(2)
    n = 800
    scores = rng.normal(size=n)
    labels = rng.integers(0, 2, n)
    users = rng.integers(0, 25, n).astype(str)
    total = weight = 0.0
    for u in np.unique(users):
        idx = users == u
        if labels[idx].min() == labels[idx].max():
            continue
        total += idx.sum() * brute_auc(scores[idx], labels[idx])
        weight += idx.sum()
    assert gauc(scores, labels, users) == pytest.approx(total / weight, abs=1e-12)


# ------------------------------------------- per-user loops, as references
#
# The per-user loops gauc_detail and oracle_rank_quality ran before they
# were vectorised, kept verbatim: the vectorised forms must give the same
# bits.


def _loop_average_ranks(scores: np.ndarray) -> np.ndarray:
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


def _loop_auc(scores, labels) -> float:
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if len(scores) != len(labels):
        raise EmptyInput("scores and labels must align")
    pos = labels == 1
    p = int(pos.sum())
    q = len(labels) - p
    if p == 0 or q == 0:
        raise DegenerateLabels("need at least one positive and one negative")
    ranks = _loop_average_ranks(scores)
    return (ranks[pos].sum() - p * (p + 1) / 2.0) / (p * q)


def _loop_gauc_detail(scores, labels, user_ids):
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
        total += len(idx) * _loop_auc(scores[idx], lab)
        used += 1
        records += len(idx)
    if used == 0:
        raise NoEligibleUsers("no user carries both label classes")
    return (total / records, used, skipped, records)


def _loop_oracle_rank_quality(scores, truth_m, user_ids) -> float:
    scores = np.asarray(scores, dtype=np.float64)
    m = np.asarray(truth_m, dtype=np.float64)
    ids = np.asarray(user_ids)
    _, order, bounds = segments(ids)
    total_weight = 0.0
    total = 0.0
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        idx = order[lo:hi]
        if len(idx) < 2:
            continue
        mu = m[idx]
        if np.all(mu == mu[0]):
            continue
        su = scores[idx]
        dm = mu[:, None] - mu[None, :]
        ds = su[:, None] - su[None, :]
        upper = np.triu(np.ones_like(dm, dtype=bool), k=1)
        informative = upper & (dm != 0)
        pairs = informative.sum()
        conc = (informative & (dm * ds > 0)).sum()
        ties = (informative & (ds == 0)).sum()
        value = (conc + 0.5 * ties) / pairs
        w = float(len(idx))
        total += w * value
        total_weight += w
    if total_weight == 0:
        raise NoEligibleUsers("no user has two records with differing interest")
    return total / total_weight


def _outcome(f, *args):
    """f's result with every float as hex, or its error type and message."""
    try:
        out = f(*args)
    except (DegenerateLabels, NoEligibleUsers) as e:
        return (type(e).__name__, str(e))
    if isinstance(out, GaucDetail):
        out = (out.value, out.n_users_used, out.n_users_skipped, out.n_records_used)
    return tuple(float(x).hex() if isinstance(x, float) else int(x)
                 for x in (out if isinstance(out, tuple) else (out,)))


# a user's records: (score, label, interest); scores and interest come
# from small pools so that ties, single-class users and users of
# constant interest are common; a user may have one record or none
_user_records = st.lists(
    st.tuples(
        st.one_of(st.sampled_from([-1.0, 0.0, 0.5, 2.0]),
                  st.floats(min_value=-3, max_value=3, allow_nan=False)),
        st.integers(min_value=0, max_value=1),
        st.one_of(st.sampled_from([0.0, 0.25]),
                  st.floats(min_value=-2, max_value=2, allow_nan=False)),
    ),
    max_size=12,
)


@settings(deadline=None, max_examples=300)
@given(st.lists(_user_records, max_size=16), st.randoms(use_true_random=False))
def test_per_user_metrics_equal_the_per_user_loops(users, rnd):
    rows = [(f"u{i}",) + r for i, records in enumerate(users) for r in records]
    rnd.shuffle(rows)  # a user's records need not be adjacent
    ids = np.array([r[0] for r in rows], dtype=str)
    scores, labels, m = (np.array([r[k] for r in rows], dtype=np.float64) for k in (1, 2, 3))
    assert _outcome(auc, scores, labels) == _outcome(_loop_auc, scores, labels)
    assert (_outcome(gauc_detail, scores, labels, ids)
            == _outcome(_loop_gauc_detail, scores, labels, ids))
    assert (_outcome(oracle_rank_quality, scores, m, ids)
            == _outcome(_loop_oracle_rank_quality, scores, m, ids))


def test_empty_input_has_no_eligible_users():
    empty = np.array([])
    with pytest.raises(NoEligibleUsers, match="^no user carries both label classes$"):
        gauc_detail(empty, empty, np.array([], dtype=str))
    with pytest.raises(NoEligibleUsers,
                       match="^no user has two records with differing interest$"):
        oracle_rank_quality(empty, empty, np.array([], dtype=str))


# --------------------------------------------------------------- regression


def test_perfect_predictions():
    r = regression_metrics(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
    assert (r.mae, r.rmse, r.mape) == (0.0, 0.0, 0.0)


def test_hand_arithmetic():
    r = regression_metrics(np.array([12.0, 16.0]), np.array([10.0, 20.0]))
    assert r.mae == pytest.approx(3.0, abs=1e-15)
    assert r.rmse == pytest.approx(np.sqrt(10.0), abs=1e-15)
    assert r.mape == pytest.approx(0.2, abs=1e-15)


def test_zero_actuals_excluded_from_mape_only():
    r = regression_metrics(np.array([1.0, 5.0]), np.array([0.0, 4.0]))
    assert r.mae == pytest.approx(1.0)
    assert r.rmse == pytest.approx(1.0)
    assert r.mape == pytest.approx(0.25)
    assert r.n_mape_skipped == 1


def test_empty_input_rejected():
    with pytest.raises(EmptyInput):
        regression_metrics(np.array([]), np.array([]))


@settings(deadline=None, max_examples=60)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=1e4, allow_nan=False),
            st.floats(min_value=0, max_value=1e4, allow_nan=False),
        ),
        min_size=1,
        max_size=50,
    )
)
def test_rmse_dominates_mae(pairs):
    pred = np.array([p for p, _ in pairs])
    actual = np.array([a for _, a in pairs])
    r = regression_metrics(pred, actual)
    assert r.rmse >= r.mae - 1e-12


def test_regression_matches_direct_formulas():
    rng = np.random.default_rng(3)
    actual = rng.uniform(0, 600, 500)
    pred = actual + rng.normal(0, 20, 500)
    r = regression_metrics(pred, actual)
    err = np.abs(pred - actual)
    assert r.mae == pytest.approx(err.mean(), abs=1e-12)
    assert r.rmse == pytest.approx(np.sqrt((err**2).mean()), abs=1e-12)
    pos = actual > 0
    assert r.mape == pytest.approx((err[pos] / actual[pos]).mean(), abs=1e-12)


# ----------------------------------------------------------------------- ks


def test_identical_multisets():
    a = np.array([0.25, 0.5, 0.5, 1.0])
    assert ks_distance(a, a.copy()) == 0.0


def test_disjoint_point_masses():
    assert ks_distance(np.full(5, 0.25), np.full(7, 1.0)) == 1.0


def test_empty_group_rejected():
    with pytest.raises(EmptyGroup):
        ks_distance(np.array([]), np.array([1.0]))


def test_ks_matches_scipy():
    rng = np.random.default_rng(4)
    for _ in range(20):
        a = rng.choice([0.1, 0.3, 0.55, 0.8, 1.0], rng.integers(5, 200))
        b = rng.choice([0.1, 0.3, 0.55, 0.8, 1.0], rng.integers(5, 200))
        expected = scipy.stats.ks_2samp(a, b, method="asymp").statistic
        assert ks_distance(a, b) == pytest.approx(expected, abs=1e-12)


# ------------------------------------------------------------------- report


def test_report_rows_and_table():
    rep = EvalReport(
        auc=0.7, gauc=0.65, auc_lv=0.6, gauc_lv=0.55,
        mae=12.0, rmse=20.0, mape=1.5,
        gauc_truth=0.8, n_records=100,
        n_users_used=9, n_users_skipped=1,
        n_users_used_lv=8, n_users_skipped_lv=2,
        n_mape_skipped=3,
    )
    rows = rep.rows()
    names = [r[0] for r in rows]
    assert names == [
        "auc_ev", "gauc_ev", "auc_lv", "gauc_lv", "mae", "rmse", "mape", "gauc_truth",
    ]
    table = rep.format_table()
    assert "gauc_truth" in table
    assert "mape" in table


def test_report_without_truth_omits_truth_row():
    rep = EvalReport(
        auc=0.7, gauc=0.65, auc_lv=0.6, gauc_lv=0.55,
        mae=12.0, rmse=20.0, mape=1.5,
        gauc_truth=None, n_records=10,
        n_users_used=2, n_users_skipped=0,
        n_users_used_lv=2, n_users_skipped_lv=0,
        n_mape_skipped=0,
    )
    assert [r[0] for r in rep.rows()][-1] == "mape"
