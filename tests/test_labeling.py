"""Rank labels, binary labels, and their duration-debiased variants."""

from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wtlabel.core import (
    DurationBins,
    InteractionTable,
    make_duration_bins,
    make_partition,
)
from wtlabel.datagen import SyntheticConfig, generate
from wtlabel.errors import ConfigInvalid, EmptyDataset, MissingGroupSummary, SerializationError
from wtlabel.labeling import (
    GroupKey,
    GroupedSummaries,
    LabelConfig,
    build_grouped_summaries,
    label_all,
    label_all_detailed,
    label_binary,
    label_equal_width_wpr,
    label_playing_rate,
    label_wpr_debiased,
    label_wpr_global,
    load_grouped_summaries,
    save_grouped_summaries,
)
from wtlabel.metrics import ks_distance


def table_of(watch, durations=None, users=None, videos=None) -> InteractionTable:
    watch = np.asarray(watch, dtype=np.float64)
    n = len(watch)
    if durations is None:
        durations = np.full(n, 60.0)
    return InteractionTable(
        user_id=list(users) if users is not None else [f"u{i}" for i in range(n)],
        video_id=list(videos) if videos is not None else [f"v{i}" for i in range(n)],
        duration_s=np.asarray(durations, dtype=np.float64),
        watch_time_s=watch,
    )


EQ4 = make_partition("equal_frequency", 4)


def test_assign_exponential_occupancy_matches_sort_oracle():
    rng = np.random.default_rng(2)
    n = 1000
    watch = rng.exponential(20.0, n)
    part = make_partition("power_decay", 10, gamma=1.0)
    t = table_of(watch)
    labels = label_wpr_global(t, part)
    # oracle: full sort with row-index tie-break gives each record a
    # distinct rank fraction; its group is the first prefix >= fraction
    order = np.lexsort((t.row_index, watch))
    ranks = np.empty(n)
    ranks[order] = np.arange(1, n + 1) / n
    idx = np.minimum(
        np.searchsorted(part.prefix, ranks, side="left"), part.n_groups - 1
    )
    assert np.array_equal(labels, part.prefix[idx])
    # empirical CDF at each prefix matches it up to rank granularity
    for g in range(10):
        frac = np.mean(labels <= part.prefix[g] + 1e-15)
        assert abs(frac - part.prefix[g]) < 1.0 / n


# ------------------------------------------------------------- global wpr


def test_global_wpr_sorted_input():
    t = table_of([10.0, 20.0, 30.0, 40.0])
    assert np.array_equal(label_wpr_global(t, EQ4), [0.25, 0.5, 0.75, 1.0])


def test_global_wpr_order_equivariant():
    t = table_of([40.0, 10.0, 30.0, 20.0])
    assert np.array_equal(label_wpr_global(t, EQ4), [1.0, 0.25, 0.75, 0.5])


def test_global_wpr_tie_modes():
    # distinct ranks a tie run by row index, shared gives it the run's last rank
    t = table_of([5.0, 5.0, 5.0, 5.0])
    assert label_wpr_global(t, EQ4).tolist() == [0.25, 0.5, 0.75, 1.0]
    assert label_wpr_global(t, EQ4, tie_mode="shared").tolist() == [1.0] * 4


def test_global_wpr_occupancy_within_one_of_ratio():
    rng = np.random.default_rng(4)
    n = 10_000
    t = table_of(rng.gamma(2.0, 15.0, n))
    part = make_partition("power_decay", 300, gamma=0.5)
    labels = label_wpr_global(t, part)
    values, counts = np.unique(labels, return_counts=True)
    occupancy = dict(zip(values, counts))
    for g in range(300):
        c = occupancy.get(part.prefix[g], 0)
        target = part.ratios[g] * n
        assert np.floor(target) <= c <= np.ceil(target)


def test_empty_dataset_rejected():
    with pytest.raises(EmptyDataset):
        label_wpr_global(table_of([]), EQ4)


# ----------------------------------------------------------- debiased wpr


def test_debiased_ranks_within_bins():
    # bin A holds short clips, bin B long ones; within-bin rank is all
    # that matters, so 100s in B gets the label of 1s in A
    t = table_of([1.0, 2.0, 100.0, 200.0], durations=[10.0, 10.0, 500.0, 500.0])
    part = make_partition("equal_frequency", 2)
    bins = make_duration_bins(t, 2, min_bin_size=1)
    got = label_wpr_debiased(t, part, bins)
    assert np.array_equal(got, [0.5, 1.0, 0.5, 1.0])
    # the global labeling shows the duration bias the bins remove
    assert np.array_equal(label_wpr_global(t, part), [0.5, 0.5, 1.0, 1.0])


@settings(deadline=None, max_examples=40)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=500.0, allow_nan=False),
            st.floats(min_value=1.0, max_value=600.0, allow_nan=False),
        ),
        min_size=2,
        max_size=80,
    )
)
def test_single_bin_equals_global(rows):
    watch = [w for w, _ in rows]
    durations = [d for _, d in rows]
    t = table_of(watch, durations=durations)
    bins = make_duration_bins(t, 1, min_bin_size=1)
    part = make_partition("power_decay", 5, gamma=0.7)
    assert np.array_equal(
        label_wpr_debiased(t, part, bins), label_wpr_global(t, part)
    )


def test_monotone_within_bin():
    rng = np.random.default_rng(6)
    watch = rng.uniform(0, 100, 400)
    durations = np.repeat([30.0, 300.0], 200)
    t = table_of(watch, durations=durations)
    bins = make_duration_bins(t, 2, min_bin_size=1)
    part = make_partition("power_decay", 7, gamma=0.3)
    labels = label_wpr_debiased(t, part, bins)
    for b in (0, 1):
        idx = np.flatnonzero(bins.bin_of_many(durations) == b)
        order = np.argsort(watch[idx])
        assert np.all(np.diff(labels[idx][order]) >= 0)


# ------------------------------------------------------------ binary labels


def test_global_median_split():
    t = table_of(np.arange(1.0, 11.0))
    gs = build_grouped_summaries(t, kinds=())
    got = label_binary(t, 50.0, "global", gs)
    assert np.array_equal(got, (np.arange(1, 11) >= 5).astype(np.int64))


def test_point_mass_is_all_positive():
    t = table_of([7.0] * 6)
    gs = build_grouped_summaries(t, kinds=())
    assert np.all(label_binary(t, 50.0, "global", gs) == 1)


def test_sparse_user_falls_back_to_duration_bin():
    # a 20-record user fills both bins; the 3-record user falls back to
    # its duration bin (sparsity rule applies at every chain level, so
    # the bins themselves must reach min_group_size)
    big_watch = [float(w) for w in range(10, 201, 10)]
    watch = big_watch + [5.0, 45.0, 175.0]
    durations = [20.0] * 10 + [400.0] * 10 + [20.0, 20.0, 400.0]
    users = ["big"] * 20 + ["tiny"] * 3
    t = table_of(watch, durations=durations, users=users)
    bins = make_duration_bins(t, 2, min_bin_size=1)
    assert bins.n_bins == 2
    gs = build_grouped_summaries(t, bins=bins, kinds=("duration_bin", "user"))
    got = label_binary(t, 50.0, "user", gs, min_group_size=10)
    # bin medians: short {5,10..100,45} -> 40, long {110..200,175} -> 160
    assert list(got[20:]) == [0, 1, 1]
    # the big user is large enough to use its own median, 100
    assert list(got[:20]) == [0] * 9 + [1] * 11


def test_user_group_used_when_large_enough():
    watch = list(range(1, 11))
    users = ["u"] * 10
    t = table_of(watch, users=users)
    gs = build_grouped_summaries(t, kinds=("user",), bins=make_duration_bins(t, 1))
    got = label_binary(t, 50.0, "user", gs, min_group_size=10)
    assert np.array_equal(got, (np.arange(1, 11) >= 5).astype(np.int64))


def test_missing_grouping_fails():
    t = table_of([1.0, 2.0])
    gs = GroupedSummaries({}, None, frozenset(), "exact", 0.005)
    with pytest.raises(MissingGroupSummary):
        label_binary(t, 50.0, "global", gs)


# ---------------------------------------------------------- rate and width


def test_playing_rate_examples():
    t = table_of([30.0, 90.0, 0.0], durations=[60.0, 60.0, 60.0])
    assert np.array_equal(label_playing_rate(t), [0.5, 1.0, 0.0])


def test_equal_width_grid():
    t = table_of([0.0, 25.0, 50.0, 75.0, 100.0])
    got = label_equal_width_wpr(t, 4, cap_percentile=100.0)
    assert np.array_equal(got, [0.25, 0.25, 0.5, 0.75, 1.0])


def test_equal_width_constant_input():
    t = table_of([42.0] * 5)
    got = label_equal_width_wpr(t, 4, cap_percentile=100.0)
    assert len(np.unique(got)) == 1


def test_equal_width_outlier_capped():
    watch = list(np.linspace(1, 100, 99)) + [3600.0]
    t = table_of(watch)
    got = label_equal_width_wpr(t, 4, cap_percentile=99.0)
    assert got[-1] == 1.0
    # the cap keeps the grid on the bulk: labels still spread over groups
    assert len(np.unique(got[:-1])) == 4


# ---------------------------------------------------------------- label_all


def default_config(**kw) -> LabelConfig:
    base = dict(
        partition=make_partition("power_decay", 20, gamma=0.5),
        bins_b=5,
        bins_min_size=5,
    )
    base.update(kw)
    return LabelConfig(**base)


def small_synthetic(n_users=100, per_user=50, seed=11):
    cfg = SyntheticConfig(
        n_users=n_users, n_videos=400, interactions_per_user=per_user, seed=seed
    )
    return generate(cfg)


def test_toggle_emits_only_requested_columns():
    t, _ = small_synthetic(40, 20)
    lt = label_all(t, default_config(enabled=("wpr_d",)))
    assert set(lt.columns) == {"wpr_d"}
    assert lt.column("wpr") is None


def test_label_all_deterministic():
    t, _ = small_synthetic(60, 30)
    cfg = default_config()
    a = label_all(t, cfg)
    b = label_all(t, cfg)
    assert set(a.columns) == set(b.columns)
    for name, col in a.columns.items():
        assert np.array_equal(col, b.columns[name])


def test_binary_columns_are_zero_one():
    t, _ = small_synthetic(60, 30)
    lt = label_all(t, default_config())
    for name in ("ev", "ev_d", "ev_v", "ev_u", "lv", "lv_d", "lv_v", "lv_u"):
        col = lt.column(name)
        assert col.dtype.kind == "i"
        assert set(np.unique(col)) <= {0, 1}


def test_wpr_values_come_from_prefix():
    t, _ = small_synthetic(60, 30)
    cfg = default_config()
    lt = label_all(t, cfg)
    for name in ("wpr", "wpr_d"):
        assert set(np.unique(lt.column(name))) <= set(cfg.partition.prefix)


def test_debiased_ev_rate_is_balanced_per_bin():
    t, _ = small_synthetic(150, 100, seed=3)
    cfg = default_config(bins_b=8, bins_min_size=20)
    lt, gs, bins = label_all_detailed(t, cfg)
    ev_d = lt.column("ev_d")
    idx = bins.bin_of_many(t.duration_s)
    for b in range(bins.n_bins):
        rate = ev_d[idx == b].mean()
        assert 0.45 <= rate <= 0.55


def test_debiased_label_distribution_invariant_across_bins():
    t, _ = small_synthetic(200, 150, seed=5)
    part = make_partition("power_decay", 300, gamma=0.5)
    bins = make_duration_bins(t, 4, min_bin_size=50)
    labels = label_wpr_debiased(t, part, bins)
    idx = bins.bin_of_many(t.duration_s)
    groups = [labels[idx == b] for b in range(bins.n_bins)]
    for i in range(len(groups)):
        for j in range(i + 1, len(groups)):
            if len(groups[i]) >= 5000 and len(groups[j]) >= 5000:
                assert ks_distance(groups[i], groups[j]) <= 0.02


def test_sketch_mode_flips_few_labels():
    t, _ = small_synthetic(150, 100, seed=9)
    exact = label_all(t, default_config(partition=make_partition("power_decay", 300, gamma=0.5)))
    sketch = label_all(
        t,
        default_config(
            partition=make_partition("power_decay", 300, gamma=0.5),
            summary_mode="sketch",
            eps_sketch=0.005,
            tie_mode="shared",
        ),
    )
    # distinct-rank ties are undefined in sketches, so compare against
    # the shared-tie exact labeling
    exact_shared = label_all(
        t,
        default_config(
            partition=make_partition("power_decay", 300, gamma=0.5),
            tie_mode="shared",
        ),
    )
    flips = np.mean(exact_shared.column("wpr") != sketch.column("wpr"))
    assert flips <= 0.03
    ev_flips = np.mean(exact_shared.column("ev") != sketch.column("ev"))
    assert ev_flips <= 0.03
    # and the two exact tie modes agree except inside tie runs
    assert exact.column("ev").shape == exact_shared.column("ev").shape


def test_unknown_label_name_rejected():
    t, _ = small_synthetic(20, 10)
    with pytest.raises(ConfigInvalid):
        label_all(t, default_config(enabled=("wpr", "bogus")))


def test_ablation_labels_present_when_enabled():
    t, _ = small_synthetic(40, 20)
    from wtlabel.labeling import STANDARD_LABELS, ABLATION_LABELS

    lt = label_all(t, default_config(enabled=STANDARD_LABELS + ABLATION_LABELS))
    assert lt.column("ef_wpr") is not None
    assert lt.column("ew_wpr") is not None


def test_ef_wpr_is_equal_frequency_debiased():
    t, _ = small_synthetic(60, 40, seed=7)
    cfg = default_config(enabled=("ef_wpr",))
    lt, _, bins = label_all_detailed(t, cfg)
    part_ef = make_partition("equal_frequency", cfg.partition.n_groups)
    expected = label_wpr_debiased(t, part_ef, bins)
    assert np.array_equal(lt.column("ef_wpr"), expected)


# --------------------------------------------------- summaries persistence


def test_grouped_summaries_roundtrip(tmp_path):
    t, _ = small_synthetic(80, 40, seed=13)
    cfg = default_config()
    lt, gs, bins = label_all_detailed(t, cfg)
    path = tmp_path / "summaries.bin"
    save_grouped_summaries(gs, str(path))
    loaded = load_grouped_summaries(str(path))
    assert loaded.mode == gs.mode
    assert loaded.kinds == gs.kinds
    relabeled = label_all(t, cfg, summaries=loaded)
    for name, col in lt.columns.items():
        assert np.array_equal(col, relabeled.columns[name])


def test_loaded_summaries_mode_must_match(tmp_path):
    t, _ = small_synthetic(40, 20)
    cfg = default_config()
    _, gs, _ = label_all_detailed(t, cfg)
    path = tmp_path / "s.bin"
    save_grouped_summaries(gs, str(path))
    loaded = load_grouped_summaries(str(path))
    with pytest.raises(ConfigInvalid):
        label_all(t, default_config(summary_mode="sketch", tie_mode="shared"), summaries=loaded)


def test_loaded_sketch_summaries_eps_must_match(tmp_path):
    t, _ = small_synthetic(40, 20)
    path = str(tmp_path / "s.bin")
    for mode in ("exact", "sketch"):
        cfg = default_config(summary_mode=mode, tie_mode="shared", eps_sketch=0.005)
        lt, gs, _ = label_all_detailed(t, cfg)
        save_grouped_summaries(gs, path)
        other_eps = default_config(summary_mode=mode, tie_mode="shared", eps_sketch=0.01)
        if mode == "exact":  # exact summaries do not depend on eps
            relabeled = label_all(t, other_eps, summaries=load_grouped_summaries(path))
            assert all(np.array_equal(c, relabeled.columns[n]) for n, c in lt.columns.items())
        else:
            with pytest.raises(ConfigInvalid, match="eps 0.005 but config asks for 0.01"):
                label_all(t, other_eps, summaries=load_grouped_summaries(path))


def _saved_summaries(tmp_path, **kw) -> bytes:
    t, _ = small_synthetic(40, 20)
    _, gs, _ = label_all_detailed(t, default_config(**kw))
    path = tmp_path / "good.bin"
    save_grouped_summaries(gs, str(path))
    return path.read_bytes()


@pytest.mark.parametrize("mode,offset,value,message", [
    ("exact", 6, 7, "bad header: mode byte 7, bins flag 1, 5 bins"),  # mode byte
    ("exact", 15, 2, "bad header: mode byte 0, bins flag 2, 5 bins"),  # has-bins flag
    ("exact", 15, 0, "bad header: mode byte 0, bins flag 0, 5 bins"),  # bins, flag cleared
    # entries whose mode disagrees with the file's mode byte
    ("exact", 6, 1, r"exact summary at byte \d+ is stated as \d+-byte sketch"),
    ("sketch", 6, 0, r"sketch summary at byte \d+ is stated as \d+-byte exact"),
])
def test_grouped_summaries_reject_header_bytes_outside_their_domain(
    tmp_path, mode, offset, value, message
):
    tie_mode = "shared" if mode == "sketch" else "distinct"
    blob = bytearray(_saved_summaries(tmp_path, summary_mode=mode, tie_mode=tie_mode))
    assert blob[offset] in (0, 1) and blob[offset] != value
    blob[offset] = value
    path = tmp_path / "bad.bin"
    path.write_bytes(bytes(blob))
    with pytest.raises(SerializationError, match=f"{path}: .*{message}"):
        load_grouped_summaries(str(path))


@pytest.mark.parametrize("which,index,value,message", [
    ("counts", 1, -1, "counts"),
    ("boundaries", 1, np.nan, "boundaries"),
    ("boundaries", 0, np.inf, "boundaries"),
    ("boundaries", 2, 0.0, "boundaries"),  # below its left neighbour
])
def test_grouped_summaries_reject_bins_outside_their_domain(tmp_path, which, index, value, message):
    # bins follow the 15-byte header and the (flag, count) pair: n float64
    # boundaries at byte 20, then n int64 counts. Counts are stored as
    # integers, so a NaN or fractional count cannot occur in this format.
    blob = _saved_summaries(tmp_path)
    (n,) = struct.unpack_from("<I", blob, 16)
    bounds = np.frombuffer(blob, np.float64, n, 20).copy()
    counts = np.frombuffer(blob, np.int64, n, 20 + 8 * n).copy()
    (bounds if which == "boundaries" else counts)[index] = value
    path = tmp_path / "bad.bin"
    path.write_bytes(blob[:20] + bounds.tobytes() + counts.tobytes() + blob[20 + 16 * n :])
    with pytest.raises(
        SerializationError, match=f"{path}: duration-bin {message} must be .* at byte 20$"
    ):
        load_grouped_summaries(str(path))


@pytest.mark.parametrize("with_bins,kinds", [
    (False, {"global", "video"}),  # an entity kind and no bins
    (True, {"global", "user"}),  # bins, but no duration_bin summaries
    (False, {"global", "duration_bin"}),
])
def test_grouped_summaries_without_a_bin_fallback_rejected(tmp_path, with_bins, kinds):
    t, _ = small_synthetic(40, 20)
    bins = make_duration_bins(t, 5, 5)
    full = build_grouped_summaries(t, bins=bins, kinds=("duration_bin", "video", "user"))
    gs = GroupedSummaries(
        {key: s for key, s in full.summaries.items() if key.kind in kinds},
        bins if with_bins else None, frozenset(kinds), "exact", full.eps,
    )
    path = tmp_path / "s.bin"
    save_grouped_summaries(gs, str(path))
    with pytest.raises(
        SerializationError, match=f"{path}: .* need duration bins and the duration_bin kind"
    ):
        load_grouped_summaries(str(path))


@pytest.mark.parametrize("edit,message", [
    # bin 4 of 5 keyed 99
    (lambda s: {GroupKey("duration_bin", 99) if k == GroupKey("duration_bin", 4) else k: v
                for k, v in s.items()},
     r"duration-bin key 99 outside 0\.\.4 at byte \d+$"),
    # the file declares global and duration_bin only
    (lambda s: {**s, GroupKey("user", "u0"): s[GroupKey("global")]},
     r"user summary of a kind the file does not declare at byte \d+$"),
    # the writer packs the text key "0" as the integer 0: bin 0 twice
    (lambda s: {**s, GroupKey("duration_bin", "0"): s[GroupKey("duration_bin", 1)]},
     r"second summary for duration_bin 0 at byte \d+$"),
    (lambda s: {k: v for k, v in s.items() if k != GroupKey("duration_bin", 2)},
     "no summary for duration_bin 2$"),
    (lambda s: {k: v for k, v in s.items() if k != GroupKey("global")},
     "no summary for global$"),
], ids=["bin_key_out_of_range", "undeclared_kind", "repeated_bin", "missing_bin",
        "missing_global"])
def test_grouped_summaries_reject_keys_outside_the_contract(tmp_path, edit, message):
    t, _ = small_synthetic(40, 20)
    gs = build_grouped_summaries(t, bins=make_duration_bins(t, 5, 5), kinds=("duration_bin",))
    assert gs.bins.n_bins == 5
    bad = GroupedSummaries(edit(gs.summaries), gs.bins, gs.kinds, gs.mode, gs.eps)
    path = tmp_path / "s.bin"
    save_grouped_summaries(bad, str(path))
    with pytest.raises(SerializationError, match=f"^{path}: {message}"):
        load_grouped_summaries(str(path))


def test_grouped_summaries_reject_truncation_and_trailing_bytes(tmp_path):
    blob = _saved_summaries(tmp_path)
    path = tmp_path / "bad.bin"
    for n in list(range(0, 64)) + list(range(64, len(blob), 97)):
        path.write_bytes(blob[:n])
        with pytest.raises(SerializationError, match=str(path)):
            load_grouped_summaries(str(path))
    path.write_bytes(blob + b"\x00\x00")
    with pytest.raises(SerializationError, match=f"2 trailing bytes at byte {len(blob)}"):
        load_grouped_summaries(str(path))
