"""Synthetic interaction generator and its ground-truth ranking oracle."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from wtlabel.core import make_duration_bins, make_partition, sigmoid
from wtlabel.datagen import (
    SyntheticConfig, SyntheticTruth, _standard_normal, generate, oracle_rank_quality,
)
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


def _reference_generate(config):
    """generate with a reset numpy pool per user and one f-string per record id:
    the reference that the moved-position shuffle and the id gather match."""
    config.validate()
    rng = np.random.Generator(np.random.PCG64(config.seed))
    k = config.latent_dim
    scale = 1.0 / math.sqrt(k)

    users = _standard_normal(rng, (config.n_users, k))
    videos = _standard_normal(rng, (config.n_videos, k))
    eta = _standard_normal(rng, config.n_videos)

    confound = config.confound_sign * videos[:, 0] * scale
    log_d = config.mu_d + config.s_d * confound + config.sigma_d * eta
    durations = np.clip(np.exp(log_d), config.d_min, config.d_max)
    durations = np.round(durations, 3)

    ipu = config.interactions_per_user
    vid_rows = np.empty(config.n_records, dtype=np.int64)
    pool = np.empty(config.n_videos, dtype=np.int64)
    base = np.arange(config.n_videos, dtype=np.int64)
    lows = np.arange(ipu, dtype=np.int64)
    for u in range(config.n_users):
        pool[:] = base
        draws = rng.integers(lows, config.n_videos)
        for j in range(ipu):
            d = draws[j]
            pool[j], pool[d] = pool[d], pool[j]
        vid_rows[u * ipu : (u + 1) * ipu] = pool[:ipu]
    user_rows = np.repeat(np.arange(config.n_users, dtype=np.int64), ipu)

    eps = _standard_normal(rng, config.n_records)
    m = (users[user_rows] * videos[vid_rows]).sum(axis=1) * scale
    f_mean = sigmoid(config.alpha * m + config.beta)
    f = np.clip(sigmoid(config.alpha * m + config.beta + config.sigma_y * eps), 0.0, 1.0)
    watch = np.round(durations[vid_rows] * f, 3)

    width_u = len(str(config.n_users - 1))
    width_v = len(str(config.n_videos - 1))
    user_ids = [f"u{i:0{width_u}d}" for i in user_rows]
    video_ids = [f"v{i:0{width_v}d}" for i in vid_rows]
    return user_ids, video_ids, durations[vid_rows], watch, m, f_mean


@pytest.mark.parametrize("overrides", [
    dict(n_users=7, n_videos=30, interactions_per_user=30),  # a full permutation
    dict(n_users=1, n_videos=1, interactions_per_user=1),
    dict(n_users=10, n_videos=100, interactions_per_user=40),
    dict(n_users=11, n_videos=101, interactions_per_user=60),
    dict(n_users=11, n_videos=10, interactions_per_user=10),
    dict(n_users=10, n_videos=101, interactions_per_user=101, seed=9),
    dict(n_users=12, n_videos=50, interactions_per_user=20, s_d=0.0, sigma_d=0.0),
    dict(n_users=12, n_videos=50, interactions_per_user=20, confound_sign=-1.0),
])
def test_generate_matches_the_numpy_pool_reference(overrides):
    config = SyntheticConfig(**{"seed": 5, **overrides})
    table, truth = generate(config)
    user_ids, video_ids, duration, watch, m, f_mean = _reference_generate(config)
    assert table.user_id == user_ids
    assert table.video_id == video_ids
    for got, want in [(table.duration_s, duration), (table.watch_time_s, watch),
                      (truth.m, m), (truth.f_mean, f_mean)]:
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


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
