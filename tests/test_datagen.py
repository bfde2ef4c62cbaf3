"""Synthetic interaction generator and its ground-truth ranking oracle."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from wtlabel.core import make_duration_bins, make_partition
from wtlabel.datagen import SyntheticConfig, SyntheticTruth, generate, oracle_rank_quality
from wtlabel.errors import ConfigInvalid, NoEligibleUsers
from wtlabel.labeling import label_wpr_debiased, label_wpr_global


def test_shapes_and_ranges():
    cfg = SyntheticConfig(n_users=30, n_videos=100, interactions_per_user=20, seed=1)
    table, truth = generate(cfg)
    assert table.n == 600
    assert len(truth.m) == 600
    assert np.all(table.duration_s >= cfg.d_min)
    assert np.all(table.duration_s <= cfg.d_max)
    assert np.all(table.watch_time_s >= 0)
    # watch fraction is clipped to 1, so watch never exceeds duration
    assert np.all(table.watch_time_s <= table.duration_s + 1e-9)
    assert np.all(truth.f_mean > 0) and np.all(truth.f_mean < 1)


def test_watch_times_are_rounded_to_milliseconds():
    table, _ = generate(SyntheticConfig(n_users=20, n_videos=50, interactions_per_user=10, seed=2))
    assert np.array_equal(table.watch_time_s, np.round(table.watch_time_s, 3))
    assert np.array_equal(table.duration_s, np.round(table.duration_s, 3))


def test_deterministic_given_seed():
    cfg = SyntheticConfig(n_users=25, n_videos=80, interactions_per_user=15, seed=77)
    a_table, a_truth = generate(cfg)
    b_table, b_truth = generate(cfg)
    assert a_table.user_id == b_table.user_id
    assert a_table.video_id == b_table.video_id
    assert np.array_equal(a_table.duration_s, b_table.duration_s)
    assert np.array_equal(a_table.watch_time_s, b_table.watch_time_s)
    assert np.array_equal(a_truth.m, b_truth.m)


def test_seed_changes_output():
    cfg_a = SyntheticConfig(n_users=25, n_videos=80, interactions_per_user=15, seed=1)
    cfg_b = SyntheticConfig(n_users=25, n_videos=80, interactions_per_user=15, seed=2)
    a, _ = generate(cfg_a)
    b, _ = generate(cfg_b)
    assert not np.array_equal(a.watch_time_s, b.watch_time_s)


def test_no_repeat_videos_per_user():
    cfg = SyntheticConfig(n_users=10, n_videos=40, interactions_per_user=40, seed=3)
    table, _ = generate(cfg)
    for u in set(table.user_id):
        vids = [v for uu, v in zip(table.user_id, table.video_id) if uu == u]
        assert len(vids) == len(set(vids))


def test_confound_off_gives_constant_durations():
    cfg = SyntheticConfig(
        n_users=20, n_videos=60, interactions_per_user=10,
        s_d=0.0, sigma_d=0.0, sigma_y=0.0, seed=4,
    )
    table, truth = generate(cfg)
    assert len(np.unique(table.duration_s)) == 1
    # with noise off, watch time orders exactly like interest up to the
    # milliseconds rounding of equal values
    order = np.argsort(truth.m, kind="stable")
    y_sorted = table.watch_time_s[order]
    assert np.all(np.diff(y_sorted) >= 0)


def test_f_mean_monotone_in_m():
    _, truth = generate(SyntheticConfig(n_users=20, n_videos=60, interactions_per_user=10, seed=5))
    order = np.argsort(truth.m)
    assert np.all(np.diff(truth.f_mean[order]) >= 0)


def test_default_confounding_couples_duration_and_watch():
    table, truth = generate(SyntheticConfig(seed=42))
    y, v_d, m = table.watch_time_s, table.duration_s, truth.m

    def pearson(a, b):
        a = a - a.mean()
        b = b - b.mean()
        return float((a * b).sum() / np.sqrt((a * a).sum() * (b * b).sum()))

    assert pearson(y, v_d) > 0.5
    # ranking watch time inside duration deciles strips the duration
    # effect and aligns better with true interest than raw seconds do
    deciles = make_duration_bins(table.duration_s, 10, min_bin_size=1)
    idx = deciles.bin_of_many(table.duration_s)
    rank_in_decile = np.empty(table.n)
    for b in range(deciles.n_bins):
        sel = np.flatnonzero(idx == b)
        order = np.argsort(np.argsort(y[sel]))
        rank_in_decile[sel] = (order + 1) / len(sel)
    assert pearson(rank_in_decile, m) > pearson(y, m)


def test_interactions_per_user_cannot_exceed_videos():
    with pytest.raises(ConfigInvalid):
        generate(SyntheticConfig(n_users=5, n_videos=10, interactions_per_user=11))


def test_invalid_duration_range_rejected():
    with pytest.raises(ConfigInvalid):
        SyntheticConfig(d_min=0.0).validate()
    with pytest.raises(ConfigInvalid):
        SyntheticConfig(d_min=10.0, d_max=5.0).validate()


def test_confound_sign_must_be_unit():
    with pytest.raises(ConfigInvalid):
        SyntheticConfig(confound_sign=0.5).validate()


def test_negative_seed_rejected():
    with pytest.raises(ConfigInvalid, match="seed must be >= 0"):
        generate(SyntheticConfig(n_users=2, n_videos=4, interactions_per_user=2, seed=-1))


@pytest.mark.parametrize(
    "field", [f.name for f in dataclasses.fields(SyntheticConfig) if f.type == "float"]
)
def test_nan_float_rejected(field):
    config = SyntheticConfig(n_users=3, n_videos=5, interactions_per_user=2)
    with pytest.raises(ConfigInvalid, match=f"^{field} must not be NaN$"):
        generate(dataclasses.replace(config, **{field: math.nan}))


# -------------------------------------------------------------- rank oracle


def test_perfect_scores_give_one():
    table, truth = generate(SyntheticConfig(n_users=20, n_videos=60, interactions_per_user=10, seed=6))
    assert oracle_rank_quality(truth.m, truth.m, table.user_id) == 1.0


def test_reversed_scores_give_zero():
    table, truth = generate(SyntheticConfig(n_users=20, n_videos=60, interactions_per_user=10, seed=6))
    assert oracle_rank_quality(-truth.m, truth.m, table.user_id) == 0.0


def test_constant_scores_give_half():
    table, truth = generate(SyntheticConfig(n_users=20, n_videos=60, interactions_per_user=10, seed=6))
    assert oracle_rank_quality(np.zeros(table.n), truth.m, table.user_id) == 0.5


def test_oracle_matches_brute_force():
    rng = np.random.default_rng(8)
    n = 300
    users = rng.integers(0, 12, n).astype(str)
    m = rng.normal(size=n)
    scores = rng.normal(size=n)
    got = oracle_rank_quality(scores, m, users)

    total = weight = 0.0
    for u in np.unique(users):
        idx = np.flatnonzero(users == u)
        if len(idx) < 2 or np.all(m[idx] == m[idx][0]):
            continue
        conc = pairs = 0.0
        for i in range(len(idx)):
            for j in range(i + 1, len(idx)):
                dm = m[idx[i]] - m[idx[j]]
                if dm == 0:
                    continue
                pairs += 1
                ds = scores[idx[i]] - scores[idx[j]]
                if ds == 0:
                    conc += 0.5
                elif (dm > 0) == (ds > 0):
                    conc += 1
        total += len(idx) * conc / pairs
        weight += len(idx)
    assert got == pytest.approx(total / weight, abs=1e-12)


def test_no_eligible_users_raises():
    with pytest.raises(NoEligibleUsers):
        oracle_rank_quality(
            np.array([1.0, 2.0]), np.array([3.0, 4.0]), np.array(["a", "b"])
        )
    # constant interest per user is also ineligible
    with pytest.raises(NoEligibleUsers):
        oracle_rank_quality(
            np.array([1.0, 2.0]), np.array([3.0, 3.0]), np.array(["a", "a"])
        )


def test_debiased_labels_outrank_raw_watch_time():
    # moderate scale keeps this fast; the full-size check lives in the
    # acceptance suite
    table, truth = generate(
        SyntheticConfig(n_users=200, n_videos=800, interactions_per_user=100, seed=42)
    )
    part = make_partition("power_decay", 300, gamma=0.5)
    bins = make_duration_bins(table, 30, min_bin_size=20)
    wpr_d = label_wpr_debiased(table, part, bins)
    raw = oracle_rank_quality(table.watch_time_s, truth.m, table.user_id)
    debiased = oracle_rank_quality(wpr_d, truth.m, table.user_id)
    assert debiased > raw
