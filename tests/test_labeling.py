"""Rank labels, binary labels, and their duration-debiased variants."""

from __future__ import annotations

import math
import struct
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wtlabel.core import (
    BINARY_LABELS,
    GROUP_KINDS,
    LABELS,
    DurationBins,
    InteractionTable,
    make_duration_bins,
    make_partition,
)
from wtlabel.datagen import SyntheticConfig, generate
from wtlabel.errors import (
    ConfigInvalid,
    EmptyDataset,
    MissingGroupSummary,
    NegativeValue,
    SerializationError,
)
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
from wtlabel.quantile import SketchSummary, summary_from_bytes


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


def _oracle_binary(build, label, bins, p, kind, mode, eps, min_group_size) -> list[int]:
    """Brute force: a record's threshold is the nearest-rank p-th
    percentile of its own video or user in the build table, else of its
    duration bin there, else of the whole build table; a group below
    min_group_size, or missing, passes to the next. In sketch mode every
    group's percentile comes from its own SketchSummary, fed in row order."""
    cache = {}

    def threshold(level, key, values):
        if (level, key) not in cache:
            if mode == "sketch":
                s = SketchSummary(eps)
                s.extend(values)
                cache[level, key] = s.threshold(p)
            else:
                cache[level, key] = sorted(values)[max(1, math.ceil(len(values) * p / 100)) - 1]
        return cache[level, key]

    def grouped(keys):
        out = {}
        for key, w in zip(keys, build.watch_time_s.tolist()):
            out.setdefault(key, []).append(w)
        return out

    chain = [("duration_bin", grouped(bins.bin_of_many(build.duration_s).tolist()),
              bins.bin_of_many(label.duration_s).tolist())]
    if kind in ("video", "user"):
        ids = "video_id" if kind == "video" else "user_id"
        chain.append((kind, grouped(getattr(build, ids)), getattr(label, ids)))
    out = []
    for i, w in enumerate(label.watch_time_s.tolist()):
        t = threshold("global", None, build.watch_time_s.tolist())
        for level, groups, keys in chain if kind != "global" else ():
            values = groups.get(keys[i], [])
            if len(values) >= min_group_size:
                t = threshold(level, keys[i], values)
        out.append(int(w >= t))
    return out


@settings(deadline=None, max_examples=30)
@given(data=st.data())
def test_binary_labels_match_a_per_group_oracle(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    # over 570 records lets the global and bin sketches of eps 0.45 compact
    n = data.draw(st.one_of(st.integers(1, 60), st.just(1300)))
    durations = rng.choice([10.0, 20.0, 30.0, 40.0], n)
    full = table_of(
        # few distinct watch times make many ties; many make compaction show
        rng.integers(0, data.draw(st.sampled_from([8, 10**6])), n) * 2.5,
        durations=durations,
        users=[f"u{i}" for i in rng.integers(0, max(1, n // 6), n)],
        videos=[f"v{i}" for i in rng.integers(0, max(1, n // 3), n)],
    )
    b = data.draw(st.integers(1, 4))
    bins = make_duration_bins(full, b, min_bin_size=1)
    # summarize a part of the records, so some bins are empty and some ids
    # have no group, then label them all
    keep = (durations != data.draw(st.sampled_from([0.0, 10.0, 30.0]))) & (rng.random(n) < 0.9)
    keep[0] = True
    build = full.subset(keep)
    p = data.draw(st.floats(0, 100, exclude_min=True))
    min_group_size = data.draw(st.integers(1, 6))
    own_bins = make_duration_bins(build, b, min_bin_size=1)
    # eps 0.45 is a capacity of 570, which the larger tables' sketches reach
    for mode, eps in (("exact", 0.005), ("sketch", 0.005), ("sketch", 0.45)):
        gs = build_grouped_summaries(build, bins=bins, kinds=("duration_bin", "video", "user"),
                                     mode=mode, eps=eps)
        with tempfile.TemporaryDirectory() as d:
            save_grouped_summaries(gs, f"{d}/s.bin")
            loaded = load_grouped_summaries(f"{d}/s.bin")
        for kind in GROUP_KINDS:
            want = _oracle_binary(build, full, bins, p, kind, mode, eps, min_group_size)
            assert label_binary(full, p, kind, gs, min_group_size).tolist() == want
            assert label_binary(full, p, kind, loaded, min_group_size).tolist() == want
        # label_all places the records in their groups while it summarizes them
        config = LabelConfig(partition=EQ4, bins_b=b, bins_min_size=1,
                             min_group_size=min_group_size, summary_mode=mode, eps_sketch=eps,
                             enabled=BINARY_LABELS)
        for name, col in label_all(build, config).columns.items():
            spec = LABELS[name]
            assert col.tolist() == _oracle_binary(build, build, own_bins, spec.percentile,
                                                  spec.scope, mode, eps, min_group_size)


def test_sketch_group_at_capacity_is_a_real_sketch():
    # eps 0.45 is a capacity of 570: a group of exactly 570 values compacts
    # once, so its percentiles are the sketch's, not the exact ones
    watch = np.random.default_rng(5).permutation(570) * 1.5
    t = table_of(watch)
    gs = build_grouped_summaries(t, kinds=(), mode="sketch", eps=0.45)
    sketch = SketchSummary(0.45)
    sketch.extend(watch)
    assert sketch.capacity == 570 and len(sketch._levels) > 1
    moved = 0
    for p in np.linspace(1, 100, 34):
        assert np.array_equal(label_binary(t, p, "global", gs), watch >= sketch.threshold(p))
        moved += sketch.threshold(p) != np.sort(watch)[max(1, math.ceil(570 * p / 100)) - 1]
    assert moved


@pytest.mark.parametrize("mode", ["exact", "sketch"])
@pytest.mark.parametrize("bad", [np.nan, -1.0, np.inf])
def test_grouped_summaries_reject_watch_times_outside_the_domain(mode, bad):
    t = table_of([1.0, bad, 3.0])
    with pytest.raises(NegativeValue, match="finite and >= 0"):
        build_grouped_summaries(t, bins=make_duration_bins(t, 1), kinds=("duration_bin", "user"),
                                mode=mode)


def test_missing_grouping_fails():
    t = table_of([1.0, 2.0])
    gs = GroupedSummaries({}, None, "exact", 0.005)
    with pytest.raises(MissingGroupSummary):
        label_binary(t, 50.0, "global", gs)


# ---------------------------------------------------------- rate and width


def test_playing_rate_examples():
    t = table_of([30.0, 90.0, 0.0], durations=[60.0, 60.0, 60.0])
    assert np.array_equal(label_playing_rate(t), [0.5, 1.0, 0.0])


def test_playing_rate_past_the_float_maximum_is_capped():
    t = table_of([1e10, 30.0], durations=[1e-300, 60.0])
    assert label_playing_rate(t).tolist() == [1.0, 0.5]


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


@settings(deadline=None, max_examples=200)
@given(st.lists(st.floats(0.0, 1.7e308), min_size=1, max_size=30),
       st.integers(2, 500), st.floats(1.0, 100.0))
def test_equal_width_stays_in_its_domain_up_to_the_float_maximum(watch, n_groups, cap):
    # wt * n_groups overflows here, which must neither warn nor leave [1/N, 1]
    wt = np.array(watch)
    got = label_equal_width_wpr(table_of(wt), n_groups, cap)
    assert np.all((got >= 1 / n_groups) & (got <= 1.0))
    order = np.argsort(wt, kind="stable")
    assert np.all(np.diff(got[order]) >= 0)


def test_equal_width_of_watch_times_at_the_float_maximum():
    assert label_equal_width_wpr(table_of([1e308] * 4), 300).tolist() == [1.0] * 4
    got = label_equal_width_wpr(table_of([1e308, 2.0, 1.0, 0.0]), 4, cap_percentile=100.0)
    assert got.tolist() == [1.0, 0.25, 0.25, 0.25]


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


def test_exact_summaries_stored_out_of_order_label_as_sorted(tmp_path):
    t, _ = small_synthetic(40, 20)
    cfg = default_config()
    lt, gs, _ = label_all_detailed(t, cfg)
    path = tmp_path / "s.bin"
    save_grouped_summaries(gs, str(path))
    blob = path.read_bytes()
    bad = blob
    # store the global and the first bin's values in descending order
    for key in (GroupKey("global"), GroupKey("duration_bin", 0)):
        run = gs.summaries[key].values().tobytes()
        at = bad.index(run)
        bad = bad[:at] + np.sort(gs.summaries[key].values())[::-1].tobytes() + bad[at + len(run):]
    assert bad != blob
    path.write_bytes(bad)
    loaded = load_grouped_summaries(str(path))
    relabeled = label_all(t, cfg, summaries=loaded)
    for name, col in lt.columns.items():
        assert np.array_equal(col, relabeled.columns[name])
    # saving writes each exact summary sorted, as the original file holds it
    save_grouped_summaries(loaded, str(path))
    assert path.read_bytes() == blob


def _saved_summaries(tmp_path, **kw) -> bytes:
    t, _ = small_synthetic(40, 20)
    _, gs, _ = label_all_detailed(t, default_config(**kw))
    path = tmp_path / "good.bin"
    save_grouped_summaries(gs, str(path))
    return path.read_bytes()


@pytest.mark.parametrize("mode,offset,value,message", [
    ("exact", 6, 7, "bad header: mode byte 7 at byte 6"),
    # the kind mask at byte 15: no global summary, or an unknown kind (bit 4)
    ("exact", 15, 2, "bad header: kind mask 0b10 lacks global or has unknown kinds at byte 15"),
    ("exact", 15, 0, "bad header: kind mask 0b0 lacks global or has unknown kinds at byte 15"),
    ("exact", 15, 17, "bad header: kind mask 0b10001 lacks global or has unknown kinds at byte 15"),
    # an exact file stores eps 0, a sketch file its eps: a flipped mode
    # byte disagrees with the eps
    ("exact", 6, 1, r"bad header: sketch file with eps 0\.0 at byte 7"),
    ("sketch", 6, 0, r"bad header: exact file with eps 0\.005 at byte 7"),
], ids=["exact-6-7-bad header mode byte", "exact-15-2-bad kind mask", "exact-15-0-bad kind mask",
        "exact-15-17-bad kind mask", "exact-6-1-exact file marked sketch",
        "sketch-6-0-sketch file marked exact"])
def test_grouped_summaries_reject_header_bytes_outside_their_domain(
    tmp_path, mode, offset, value, message
):
    tie_mode = "shared" if mode == "sketch" else "distinct"
    blob = bytearray(_saved_summaries(tmp_path, summary_mode=mode, tie_mode=tie_mode))
    assert blob[offset] != value
    blob[offset] = value
    path = tmp_path / "bad.bin"
    path.write_bytes(bytes(blob))
    with pytest.raises(SerializationError, match=f"^{path}: {message}$"):
        load_grouped_summaries(str(path))


def test_grouped_summaries_of_version_1_rejected(tmp_path):
    blob = _saved_summaries(tmp_path)
    path = tmp_path / "v1.bin"
    path.write_bytes(blob[:4] + struct.pack("<H", 1) + blob[6:])
    with pytest.raises(SerializationError, match=f"^{path}: unsupported version 1$"):
        load_grouped_summaries(str(path))


@pytest.mark.parametrize("which,index,value,message", [
    ("counts", 1, -1, "counts"),
    ("boundaries", 1, np.nan, "boundaries"),
    ("boundaries", 0, np.inf, "boundaries"),
    ("boundaries", 2, 0.0, "boundaries"),  # below its left neighbour
])
def test_grouped_summaries_reject_bins_outside_their_domain(tmp_path, which, index, value, message):
    # bins follow the 20-byte header, whose last field is their number n:
    # n float64 boundaries at byte 20, then n int64 counts. Counts are
    # stored as integers, so a NaN or fractional count cannot occur.
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
    full = build_grouped_summaries(t, bins=make_duration_bins(t, 5, 5),
                                   kinds=("duration_bin", "video", "user"))
    gs = GroupedSummaries({kind: g for kind, g in full.groups.items() if kind in kinds},
                          full.bins if with_bins else None, "exact", full.eps)
    path = tmp_path / "s.bin"
    save_grouped_summaries(gs, str(path))
    with pytest.raises(
        SerializationError,
        match=f"^{path}: .* need duration bins and the duration_bin kind .* at byte 15$",
    ):
        load_grouped_summaries(str(path))


def _with_bins(gs, boundaries, counts):
    return GroupedSummaries(gs.groups, DurationBins(boundaries, counts), gs.mode, gs.eps)


def _bin_block(gs):
    """Bytes of the last kind block, the duration_bin block of an exact
    global and duration_bin file: its 16-byte head (group and sketch
    counts), 5 sizes and every record's value end the file."""
    return 16 + 8 * 5 + 8 * int(gs.groups["duration_bin"].counts.sum())


def _bin_count(gs, blob):
    at = len(blob) - _bin_block(gs)
    assert struct.unpack_from("<Q", blob, at) == (5,)
    return blob[:at] + struct.pack("<Q", 6) + blob[at + 8:]


@pytest.mark.parametrize("edit,message", [
    # 5 bin groups in a file of 4 bins: bin 4 has no place
    (lambda gs, _: _with_bins(gs, gs.bins.boundaries[:4], gs.bins.counts[:4]),
     r"5 duration_bin groups where the file needs 4 at byte \d+$"),
    # a block that no mask bit declares (a second bin block) is left over
    (lambda gs, blob: blob + blob[-_bin_block(gs):], r"\d+ trailing bytes at byte \d+$"),
    # a bin block that claims one group more than there are bins
    (_bin_count, r"6 duration_bin groups where the file needs 5 at byte \d+$"),
    # 5 bin groups in a file of 6 bins: bin 5 has none
    (lambda gs, _: _with_bins(gs, np.append(gs.bins.boundaries, 1e6), np.append(gs.bins.counts, 0)),
     r"5 duration_bin groups where the file needs 6 at byte \d+$"),
    (lambda gs, _: GroupedSummaries({"duration_bin": gs.groups["duration_bin"]}, gs.bins,
                                    gs.mode, gs.eps),
     "bad header: kind mask 0b10 lacks global or has unknown kinds at byte 15$"),
], ids=["bin_key_out_of_range", "undeclared_kind", "repeated_bin", "missing_bin",
        "missing_global"])
def test_grouped_summaries_reject_keys_outside_the_contract(tmp_path, edit, message):
    t, _ = small_synthetic(40, 20)
    gs = build_grouped_summaries(t, bins=make_duration_bins(t, 5, 5), kinds=("duration_bin",))
    assert gs.bins.n_bins == 5
    path = tmp_path / "s.bin"
    save_grouped_summaries(gs, str(path))
    bad = edit(gs, path.read_bytes())
    if isinstance(bad, GroupedSummaries):
        save_grouped_summaries(bad, str(path))
    else:
        path.write_bytes(bad)
    with pytest.raises(SerializationError, match=f"^{path}: {message}"):
        load_grouped_summaries(str(path))


@pytest.mark.parametrize("swap", [False, True], ids=["twice", "unsorted"])
def test_grouped_summaries_reject_entity_keys_out_of_order(tmp_path, swap):
    t, _ = small_synthetic(40, 20)
    gs = build_grouped_summaries(t, bins=make_duration_bins(t, 5, 5),
                                 kinds=("duration_bin", "video"))
    keys = gs.groups["video"].keys
    first, second = keys[0], keys[1]
    keys[:2] = (second, first) if swap else (first, first)
    path = tmp_path / "s.bin"
    save_grouped_summaries(gs, str(path))
    blob = path.read_bytes()
    with pytest.raises(SerializationError) as exc:
        load_grouped_summaries(str(path))
    a, b = keys[1], keys[0]
    at = int(str(exc.value).rsplit(" ", 1)[1])
    assert str(exc.value) == f"{path}: video key {a!r} does not follow {b!r} at byte {at}"
    # the offset is the second key's text, right after the first's
    assert blob[at - len(b) : at + len(a)] == (b + a).encode()


def test_grouped_summaries_name_a_key_that_is_not_utf8(tmp_path):
    t = table_of(np.arange(12.0), videos=["é-unique"] * 6 + ["v"] * 6)
    gs = build_grouped_summaries(t, bins=make_duration_bins(t, 1), kinds=("duration_bin", "video"))
    path = tmp_path / "s.bin"
    save_grouped_summaries(gs, str(path))
    blob = bytearray(path.read_bytes())
    at = blob.index("é-unique".encode())
    blob[at + 1] = 0xFF  # the second byte of é
    path.write_bytes(bytes(blob))
    with pytest.raises(SerializationError, match=f"^{path}: text is not UTF-8 at byte {at}$"):
        load_grouped_summaries(str(path))


def test_grouped_summaries_hold_a_long_key_at_the_cost_of_its_text(tmp_path):
    # one 20,000-character video among 2,000: a fixed-width key array would
    # take 4 bytes per character of the longest key for every key, 160 MB
    videos = [f"v{i:04d}" for i in range(1999)] + ["w" * 20_000]
    t = table_of(np.arange(2000.0), videos=videos)
    path = tmp_path / "s.bin"
    tracemalloc.start()
    try:
        gs = build_grouped_summaries(t, bins=make_duration_bins(t, 1),
                                     kinds=("duration_bin", "video"))
        save_grouped_summaries(gs, str(path))
        back = load_grouped_summaries(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.groups["video"].keys.tolist() == videos
    assert peak < 8_000_000


def test_grouped_summaries_reject_a_huge_entity_count_before_allocating(tmp_path):
    # a video block that claims 2**40 groups fails at the read of their key
    # lengths, not at an array built from the count
    t, _ = small_synthetic(40, 20)
    gs = build_grouped_summaries(t, bins=make_duration_bins(t, 5, 5),
                                 kinds=("duration_bin", "video"))
    path = tmp_path / "s.bin"
    save_grouped_summaries(gs, str(path))
    blob = bytearray(path.read_bytes())
    at = 20 + 16 * 5 + sum(16 + 8 * len(gs.groups[kind].keys) + 8 * int(gs.groups[kind].counts.sum())
                           for kind in ("global", "duration_bin"))
    assert struct.unpack_from("<QQ", blob, at) == (len(gs.groups["video"].keys), 0)
    struct.pack_into("<Q", blob, at, 2**40)
    path.write_bytes(bytes(blob))
    with pytest.raises(SerializationError, match=rf"^{path}: truncated: {8 * 2**40} bytes wanted, "
                                                 rf"\d+ left at byte {at + 16}$"):
        load_grouped_summaries(str(path))


def test_grouped_summaries_reject_a_negative_group_size(tmp_path):
    blob = bytearray(_saved_summaries(tmp_path))
    # the global size follows the bins and the global block's 16-byte head
    (n,) = struct.unpack_from("<I", blob, 16)
    at = 20 + 16 * n + 16
    struct.pack_into("<q", blob, at, -1)
    path = tmp_path / "bad.bin"
    path.write_bytes(bytes(blob))
    with pytest.raises(SerializationError,
                       match=rf"^{path}: global group size -1 outside 0\.\.\d+ at byte {at}$"):
        load_grouped_summaries(str(path))


def _compacting(t):
    # eps 0.45 is a capacity of 570: the 800-record global group compacts
    gs = build_grouped_summaries(t, bins=make_duration_bins(t, 5, 5), kinds=("duration_bin",),
                                 mode="sketch", eps=0.45)
    assert list(gs.groups["global"].sketches) == [0] and not gs.groups["duration_bin"].sketches
    return gs


def _sketch_of(eps, values):
    s = SketchSummary(eps)
    s.extend(values)
    return s


@pytest.mark.parametrize("edit,message", [
    (lambda gs, t: gs.groups["global"].sketches.update({0: _sketch_of(0.3, t.watch_time_s)}),
     r"global group 0 holds no sketch of the file's eps 0\.45 at byte \d+$"),
    # bin 0 holds values of its own
    (lambda gs, t: gs.groups["duration_bin"].sketches.update({0: _sketch_of(0.45, [1.0])}),
     "sketch at duration_bin group 0, not an empty group after the last at byte"),
    (lambda gs, t: setattr(gs, "mode", "exact"),
     r"global block of an exact file holds 1 sketches at byte \d+$"),
], ids=["other_eps", "nonempty_group", "exact_file"])
def test_grouped_summaries_reject_sketches_outside_the_contract(tmp_path, edit, message):
    t, _ = small_synthetic(40, 20)
    gs = _compacting(t)
    edit(gs, t)
    path = tmp_path / "s.bin"
    save_grouped_summaries(gs, str(path))
    with pytest.raises(SerializationError, match=f"^{path}: {message}"):
        load_grouped_summaries(str(path))


def test_grouped_summaries_reject_a_sketch_entry_of_mode_0(tmp_path):
    t, _ = small_synthetic(40, 20)
    gs = _compacting(t)
    path = tmp_path / "s.bin"
    save_grouped_summaries(gs, str(path))
    blob = bytearray(path.read_bytes())
    at = bytes(blob).index(gs.groups["global"].sketches[0].to_bytes())
    blob[at + 6] = 0  # the WLQS mode byte, after its magic and version
    path.write_bytes(bytes(blob))
    with pytest.raises(SerializationError,
                       match=f"^{path}: unknown summary mode byte 0 at byte {at}$"):
        load_grouped_summaries(str(path))


@pytest.mark.parametrize("mode,eps", [("exact", 0.005), ("sketch", 0.45)])
def test_summaries_view_holds_each_group(mode, eps):
    # perfbench/layers.py reads labeling.n_summaries and quantile.values_*
    # from this view. Two users of 600 records: at eps 0.45 (a capacity
    # of 570) the global, bin and user groups are real sketches and the
    # videos stay below capacity
    t, _ = generate(SyntheticConfig(n_users=2, n_videos=700, interactions_per_user=600, seed=3))
    gs = build_grouped_summaries(t, bins=make_duration_bins(t, 2, 5),
                                 kinds=("duration_bin", "video", "user"), mode=mode, eps=eps)
    view = gs.summaries
    assert len(view) == sum(len(g.keys) for g in gs.groups.values())
    for kind, g in gs.groups.items():
        for i, key in enumerate(g.keys.tolist()):
            s = view[GroupKey(kind, key)]
            assert s.count == g.counts[i]
            if mode == "sketch":
                blob = s.to_bytes()
                assert summary_from_bytes(blob).to_bytes() == blob
            else:
                assert np.array_equal(s.values(), g.values[g.bounds[i] : g.bounds[i + 1]])
    if mode == "sketch":
        real = {kind for kind, g in gs.groups.items() if g.sketches}
        assert real == {"global", "duration_bin", "user"}


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
