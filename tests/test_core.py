"""Record validation, partition construction, and duration binning."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wtlabel.core import (
    DurationBins,
    InteractionTable,
    PartitionScheme,
    group_index,
    make_duration_bins,
    make_partition,
    segments,
    sigmoid,
    validate_interaction,
)
from wtlabel.errors import (
    ConfigInvalid,
    EmptyDataset,
    InvalidRatios,
    MissingField,
    NegativeWatchTime,
    NonMonotoneCurve,
    NonPositiveDuration,
)
from wtlabel.labeling import (
    LabelConfig,
    build_grouped_summaries,
    label_all_detailed,
    label_binary,
    label_equal_width_wpr,
    label_playing_rate,
    label_wpr_debiased,
    label_wpr_global,
)
from wtlabel.learner import OptimizerConfig, TaskConfig, WprInverse, fit


# ---------------------------------------------------------------- records


def test_valid_record_roundtrips():
    validate_interaction("u1", "v1", 60.0, 30.0, 0)


def test_zero_duration_rejected():
    with pytest.raises(NonPositiveDuration):
        validate_interaction("u1", "v1", 0.0, 5.0, 0)


def test_negative_duration_rejected():
    with pytest.raises(NonPositiveDuration):
        validate_interaction("u1", "v1", -3.0, 0.0, 4)


def test_negative_watch_time_rejected():
    with pytest.raises(NegativeWatchTime):
        validate_interaction("u1", "v1", 60.0, -1.0, 0)


def test_infinite_duration_and_watch_time_rejected():
    with pytest.raises(NonPositiveDuration, match=r"^row 3: duration_s=inf must be finite and >"):
        validate_interaction("u1", "v1", "inf", 5.0, 3)
    with pytest.raises(NonPositiveDuration, match=r"^row 3: duration_s=-inf must be > 0$"):
        validate_interaction("u1", "v1", float("-inf"), 5.0, 3)
    with pytest.raises(NegativeWatchTime, match=r"^row 2: watch_time_s=inf must be finite"):
        validate_interaction("u1", "v1", 60.0, "1e400", 2)
    with pytest.raises(NegativeWatchTime, match=r"^row 2: watch_time_s=nan must be >= 0$"):
        validate_interaction("u1", "v1", 60.0, "nan", 2)


def test_blank_id_rejected():
    with pytest.raises(MissingField):
        validate_interaction("", "v1", 60.0, 1.0, 0)
    with pytest.raises(MissingField):
        validate_interaction("u1", "", 60.0, 1.0, 0)


def test_zero_watch_time_allowed():
    validate_interaction("u1", "v1", 60.0, 0.0, 1)


def test_table_subset_by_mask():
    t = InteractionTable(
        user_id=["a", "b", "c"],
        video_id=["x", "y", "z"],
        duration_s=np.array([10.0, 20.0, 30.0]),
        watch_time_s=np.array([1.0, 2.0, 3.0]),
    )
    sub = t.subset(np.array([True, False, True]))
    assert sub.n == 2
    assert list(sub.user_id) == ["a", "c"]
    assert list(sub.row_index) == [0, 2]


@pytest.mark.parametrize("index", [
    np.array([True, False, True, True, False]),
    np.array([4, 0, 2, 2, -1]),
    np.array([], dtype=np.int64),
    np.zeros(5, dtype=bool),
])
@pytest.mark.parametrize("with_text", [False, True])
def test_table_subset_matches_a_per_element_gather(index, with_text):
    duration, watch = np.array([10.0, 20.0, 30.0, 40.0, 50.0]), np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    t = InteractionTable(
        ["a", "b", "c", "d", "e"], ["v", "w", "x", "y", "z"], duration, watch,
        row_index=np.array([7, 3, 9, 1, 5]),
        duration_text=[f"{x:.1f}" for x in duration] if with_text else None,
        watch_text=[f"{x:.2f}" for x in watch] if with_text else None,
    )
    sub = t.subset(index)
    rows = np.flatnonzero(index) if index.dtype == bool else index
    assert sub.user_id == [t.user_id[i] for i in rows]
    assert sub.video_id == [t.video_id[i] for i in rows]
    assert sub.duration_s.tobytes() == duration[rows].tobytes()
    assert sub.watch_time_s.tobytes() == watch[rows].tobytes()
    assert sub.row_index.tolist() == [t.row_index[i] for i in rows]
    if with_text:
        assert sub.duration_text == [t.duration_text[i] for i in rows]
        assert sub.watch_text == [t.watch_text[i] for i in rows]
    else:
        assert sub.duration_text is None and sub.watch_text is None


def test_labels_take_only_a_table():
    with pytest.raises(TypeError, match="expected an InteractionTable, got list"):
        label_wpr_global([("u1", "v1", 60.0, 30.0, 0)], make_partition("equal_frequency", 2))


EQ2 = make_partition("equal_frequency", 2)
# every entry point that takes a table, with the message it gives an empty one
TABLE_ENTRY_POINTS = {
    "build_grouped_summaries": (build_grouped_summaries, "cannot summarize an empty dataset"),
    "label_wpr_global": (lambda t: label_wpr_global(t, EQ2), "cannot label an empty dataset"),
    "label_wpr_debiased": (lambda t: label_wpr_debiased(
        t, EQ2, make_duration_bins(np.array([60.0]), 1)), "cannot label an empty dataset"),
    "label_binary": (lambda t: label_binary(t, 50.0, "global", None),
                     "cannot label an empty dataset"),
    "label_playing_rate": (label_playing_rate, "cannot label an empty dataset"),
    "label_equal_width_wpr": (lambda t: label_equal_width_wpr(t, 4),
                              "cannot label an empty dataset"),
    "label_all_detailed": (lambda t: label_all_detailed(t, LabelConfig(EQ2)),
                           "cannot label an empty dataset"),
    "fit": (lambda t: fit(t, {}, [TaskConfig("wpr", "squared_error")]), "no training records"),
}


@pytest.mark.parametrize("name", TABLE_ENTRY_POINTS)
def test_entry_points_reject_an_empty_table_and_a_non_table(name):
    call, message = TABLE_ENTRY_POINTS[name]
    empty = InteractionTable([], [], np.array([]), np.array([]))
    with pytest.raises(EmptyDataset, match=f"^{message}$"):
        call(empty)
    with pytest.raises(TypeError, match="^expected an InteractionTable, got list$"):
        call([("u1", "v1", 60.0, 30.0, 0)])


# checks that come before the table's: an unknown group kind, a bad
# setting or option, each raised for an empty table too
@pytest.mark.parametrize("call, error", [
    (lambda t: label_binary(t, 50.0, "country", None), "unknown group kind 'country'"),
    (lambda t: label_wpr_global(t, EQ2, tie_mode="random"), "tie_mode"),
    (lambda t: label_wpr_debiased(t, EQ2, None, mode="approx"), "summary_mode"),
    (lambda t: label_equal_width_wpr(t, 0), "n_groups"),
    (lambda t: fit(t, {}, [], opt=OptimizerConfig(epochs=0)), "epochs"),
], ids=["label_binary", "label_wpr_global", "label_wpr_debiased", "label_equal_width_wpr",
        "fit"])
def test_argument_checks_come_before_the_table_check(call, error):
    with pytest.raises(ConfigInvalid, match=error):
        call([])


# ------------------------------------------------------------- partitions


def test_equal_frequency_four_groups():
    p = make_partition("equal_frequency", 4)
    assert np.array_equal(p.ratios, np.full(4, 0.25))
    assert np.array_equal(p.prefix, np.array([0.25, 0.5, 0.75, 1.0]))


def test_power_decay_three_groups_gamma_one():
    p = make_partition("power_decay", 3, gamma=1.0)
    expected = np.array([6 / 11, 3 / 11, 2 / 11])
    np.testing.assert_allclose(p.ratios, expected, rtol=0, atol=1e-15)


def test_power_decay_gamma_zero_is_equal_frequency_bitwise():
    a = make_partition("power_decay", 17, gamma=0.0)
    b = make_partition("equal_frequency", 17)
    assert np.array_equal(a.ratios, b.ratios)
    assert np.array_equal(a.prefix, b.prefix)


def test_explicit_plateau_passes_non_increasing_policy():
    # q2 == q3 satisfies q1 >= q2 >= q3
    p = make_partition("explicit", ratios=(0.5, 0.25, 0.25), progressive=True)
    assert p.n_groups == 3


def test_explicit_increasing_fails_progressive_policy():
    with pytest.raises(InvalidRatios):
        make_partition("explicit", ratios=(0.25, 0.25, 0.5), progressive=True)


def test_explicit_bad_sum_rejected():
    with pytest.raises(InvalidRatios):
        make_partition("explicit", ratios=(0.5, 0.6))


def test_explicit_nonpositive_ratio_rejected():
    with pytest.raises(InvalidRatios):
        make_partition("explicit", ratios=(1.5, -0.5))


def test_single_group_rejected():
    with pytest.raises(InvalidRatios):
        make_partition("equal_frequency", 1)


def test_unknown_kind_rejected():
    with pytest.raises(InvalidRatios):
        make_partition("fibonacci", 4)


def test_prefix_ends_at_exactly_one():
    p = make_partition("power_decay", 300, gamma=0.5)
    assert p.prefix[-1] == 1.0
    assert abs(p.ratios.sum() - 1.0) <= 1e-9
    assert np.all(np.diff(p.prefix) > 0)


@settings(deadline=None)
@given(
    n=st.integers(min_value=2, max_value=400),
    gamma=st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
)
def test_power_decay_is_progressive_and_normalized(n, gamma):
    p = make_partition("power_decay", n, gamma=gamma, progressive=True)
    assert abs(p.ratios.sum() - 1.0) <= 1e-9
    assert np.all(np.diff(p.ratios) <= 1e-15)
    assert p.prefix[-1] == 1.0


def _log_quadratic_oracle(a, b, c, lo, hi, n):
    """Straight-line reimplementation: evenly spaced boundaries in
    k = ceil(ln y) space, ratios from curve differences, renormalized."""
    k_lo, k_hi = math.ceil(math.log(lo)), math.ceil(math.log(hi))
    bounds = [k_lo + (k_hi - k_lo) * i / n for i in range(n + 1)]
    w = [1.0 / (a * k * k + b * k + c) for k in bounds]
    q = [w[i + 1] - w[i] for i in range(n)]
    s = sum(q)
    return [v / s for v in q]


def test_log_quadratic_matches_inline_oracle():
    # the quadratic must fall over k = 0..9 while staying >= 1 so the
    # curve 1/(a k^2 + b k + c) rises within (0, 1]
    a, b, c = 0.01, -0.2, 2.0
    p = make_partition("log_quadratic", 5, coeffs=(a, b, c), curve_range=(1.0, 3600.0))
    expected = _log_quadratic_oracle(a, b, c, 1.0, 3600.0, 5)
    np.testing.assert_allclose(p.ratios, expected, rtol=0, atol=1e-12)


def test_log_quadratic_decreasing_curve_rejected():
    # negative a with small b makes 1/(ak^2+bk+c) fall over the range
    with pytest.raises(NonMonotoneCurve):
        make_partition("log_quadratic", 5, coeffs=(0.5, -0.1, 1.0), curve_range=(1.0, 10.0))


def test_log_quadratic_curve_above_one_rejected():
    # c < 1 pushes the curve over 1.0 at the low end
    with pytest.raises(NonMonotoneCurve):
        make_partition("log_quadratic", 5, coeffs=(0.02, 0.1, 0.2), curve_range=(1.0, 3600.0))


def test_log_quadratic_needs_scale_span():
    with pytest.raises(NonMonotoneCurve):
        make_partition("log_quadratic", 5, coeffs=(0.02, 0.1, 1.0), curve_range=(1.0, 2.0))


@pytest.mark.parametrize("curve_range", [(1.0, math.inf), (-math.inf, 10.0), (1.0, math.nan)])
def test_log_quadratic_needs_a_finite_range(curve_range):
    with pytest.raises(NonMonotoneCurve, match="not a finite, increasing positive span"):
        make_partition("log_quadratic", 5, coeffs=(0.01, -0.2, 2.0), curve_range=curve_range)


def test_group_of_rank_boundary_belongs_to_lower_group():
    p = make_partition("equal_frequency", 4)
    assert group_index(p.prefix, np.array([0.25, 0.2500000001, 1.0])).tolist() == [0, 1, 3]
    # every caller of the rule: eight distinct watch times rank 1/8 .. 8/8,
    # so 2/8 sits on the first prefix and 3/8 is the next rank above it
    wt = np.arange(1.0, 9.0)
    table = InteractionTable(["u"] * 8, ["v"] * 8, np.full(8, 60.0), wt[::-1])
    assert label_wpr_global(table, p)[[6, 5, 0]].tolist() == [0.25, 0.5, 1.0]
    inverse = WprInverse(p.prefix, np.array([[10.0, 20.0, 30.0, 40.0]]), per_bin=False)
    ranks = np.array([0.25, 0.2500000001, 1.0])
    assert inverse.lookup(ranks, None).tolist() == [10.0, 20.0, 40.0]


# ----------------------------------------------------------- duration bins


def test_two_point_masses_two_bins():
    durations = np.array([15.0] * 10 + [60.0] * 10)
    bins = make_duration_bins(durations, 2, min_bin_size=1)
    assert bins.n_bins == 2
    assert np.array_equal(bins.counts, [10, 10])
    assert bins.bin_of_many(np.array([15.0, 60.0])).tolist() == [0, 1]


def test_constant_durations_collapse_to_one_bin():
    bins = make_duration_bins(np.full(50, 30.0), 5, min_bin_size=1)
    assert bins.n_bins == 1
    assert bins.counts[0] == 50


def _bins_oracle(durations, b):
    """Nearest-rank quantile cut: boundary i at the smallest value with
    count(d <= v) >= (i+1)/b of the data, deduplicated."""
    d = np.sort(durations)
    n = len(d)
    bounds = []
    for i in range(1, b + 1):
        k = math.ceil(i * n / b)
        bounds.append(d[k - 1])
    bounds = sorted(set(bounds))
    idx = np.minimum(np.searchsorted(bounds, d, side="left"), len(bounds) - 1)
    return np.asarray(bounds), np.bincount(idx, minlength=len(bounds))


def test_log_uniform_durations_match_quantile_oracle():
    rng = np.random.default_rng(7)
    durations = np.exp(rng.uniform(np.log(5.0), np.log(600.0), 1000))
    bins = make_duration_bins(durations, 30, min_bin_size=20)
    bounds, counts = _bins_oracle(durations, 30)
    # continuous draws: no merging should trigger, 30 bins of 20..50
    assert bins.n_bins == 30
    np.testing.assert_allclose(bins.boundaries, bounds, rtol=0, atol=0)
    assert np.array_equal(bins.counts, counts)
    assert bins.counts.min() >= 20
    assert bins.counts.max() <= 50


def test_small_bins_merge_rightward():
    # 5 records of 1.0 then 100 of 2.0: bin {1.0} is under min size and
    # merges into its right neighbor
    durations = np.array([1.0] * 5 + [2.0] * 100)
    bins = make_duration_bins(durations, 2, min_bin_size=10)
    assert bins.n_bins == 1
    assert bins.counts[0] == 105


def test_last_small_bin_merges_left():
    durations = np.array([1.0] * 100 + [2.0] * 5)
    bins = make_duration_bins(durations, 2, min_bin_size=10)
    assert bins.n_bins == 1
    assert bins.counts[0] == 105


def test_bins_deterministic():
    rng = np.random.default_rng(3)
    durations = rng.uniform(5, 600, 500)
    a = make_duration_bins(durations, 10)
    b = make_duration_bins(durations.copy(), 10)
    assert np.array_equal(a.boundaries, b.boundaries)
    assert np.array_equal(a.counts, b.counts)


def test_empty_dataset_rejected():
    with pytest.raises(EmptyDataset):
        make_duration_bins(np.array([]), 5)


def test_bins_beyond_the_record_count_change_nothing():
    # every rank is a boundary candidate once b reaches n
    d = np.random.default_rng(3).integers(1, 40, 500).astype(np.float64)
    a, b = make_duration_bins(d, len(d), 5), make_duration_bins(d, 10**12, 5)
    assert np.array_equal(a.boundaries, b.boundaries)
    assert np.array_equal(a.counts, b.counts)


@pytest.mark.parametrize("boundaries,counts,message", [
    ([10.0, 20.0], [3.0, np.nan], "counts"),
    ([10.0, 20.0], [3.0, -1.0], "counts"),
    ([10.0, 20.0], [3.0, 2.5], "counts"),
    ([10.0, 20.0], [3.0, np.inf], "counts"),
    ([10.0, 20.0], [3, -1], "counts"),
    ([10.0, np.nan], [3.0, 4.0], "boundaries"),
    ([20.0, 10.0], [3.0, 4.0], "boundaries"),
    ([10.0, 10.0], [3.0, 4.0], "boundaries"),
    ([10.0, np.inf], [3.0, 4.0], "boundaries"),
    ([], [], "boundaries"),
])
def test_bins_reject_counts_and_boundaries_outside_their_domain(boundaries, counts, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"duration-bin {message} must be"):
            DurationBins(np.asarray(boundaries, dtype=np.float64), np.asarray(counts))


def test_bins_take_whole_float_counts_as_integers():
    bins = DurationBins(np.array([10.0, 20.0]), np.array([3.0, 0.0]))
    assert bins.counts.dtype == np.int64 and bins.counts.tolist() == [3, 0]


@settings(deadline=None, max_examples=60)
@given(
    st.lists(
        st.floats(min_value=0.5, max_value=100.0, allow_nan=False),
        min_size=1,
        max_size=120,
    ),
    st.integers(min_value=1, max_value=12),
)
def test_equal_durations_share_a_bin(values, b):
    durations = np.asarray(values)
    # duplicate every value so ties are guaranteed
    durations = np.concatenate([durations, durations])
    bins = make_duration_bins(durations, b, min_bin_size=1)
    assigned = bins.bin_of_many(durations)
    for v in np.unique(durations):
        idx = assigned[durations == v]
        assert np.all(idx == idx[0])
    # partition property: counts cover everything exactly once
    assert bins.counts.sum() == len(durations)
    assert np.array_equal(
        np.bincount(assigned, minlength=bins.n_bins), bins.counts
    )


def test_bin_of_many_handles_out_of_range():
    bins = make_duration_bins(np.array([10.0, 20.0, 30.0] * 10), 3, min_bin_size=1)
    assert bins.bin_of_many(np.array([0.001, 1e9])).tolist() == [0, bins.n_bins - 1]


# --------------------------------------------------------------- segments


def _brute_groups(keys) -> dict:
    groups: dict = {}
    for i, k in enumerate(keys):
        groups.setdefault(k, []).append(i)
    return groups


def _segment_lists(keys, n_keys=None) -> dict:
    uniq, order, bounds = segments(keys, n_keys)
    assert len(bounds) == len(uniq) + 1 and bounds[0] == 0 and bounds[-1] == len(keys)
    return {k: order[lo:hi].tolist() for k, lo, hi in zip(uniq.tolist(), bounds[:-1], bounds[1:])}


@settings(deadline=None, max_examples=80)
@given(st.lists(st.sampled_from(["u0", "u0\x00", "u1", "u10", "u2", "v", "β", "w" * 5000]),
                max_size=60))
def test_segments_match_dict_grouping_on_strings(keys):
    # a trailing NUL is part of the id, and a long id widens nothing
    got = _segment_lists(keys)
    # keys come out sorted, positions in their original order
    assert list(got) == sorted(set(keys))
    assert got == _brute_groups(keys)


@settings(deadline=None, max_examples=80)
@given(st.integers(min_value=1, max_value=12).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(0, n - 1), max_size=60))
))
def test_segments_with_n_keys_cover_every_key(args):
    n_keys, keys = args
    got = _segment_lists(np.asarray(keys, dtype=np.int64), n_keys)
    assert list(got) == list(range(n_keys))
    brute = _brute_groups(keys)
    for k in range(n_keys):
        # a key no record carries still gets its (empty) segment
        assert got[k] == brute.get(k, [])


# past 1 << 16 keys, segments sorts the key codes as int64, not uint16
WIDE_N_KEYS = 70_000


def _wide_codes():
    """Every code below WIDE_N_KEYS once, in shuffled order, then 30,000 repeats."""
    rng = np.random.default_rng(7)
    return np.concatenate([rng.permutation(WIDE_N_KEYS), rng.integers(0, WIDE_N_KEYS, 30_000)])


def test_segments_with_more_keys_than_uint16_holds():
    codes = _wide_codes()
    got = _segment_lists(codes, WIDE_N_KEYS)
    assert list(got) == list(range(WIDE_N_KEYS))
    assert got == _brute_groups(codes.tolist())


def test_segments_with_more_distinct_ids_than_uint16_holds():
    keys = [f"v{c}" for c in _wide_codes()]
    got = _segment_lists(keys)
    assert list(got) == sorted(set(keys)) and len(got) == WIDE_N_KEYS
    assert got == _brute_groups(keys)


# ---------------------------------------------------------------- sigmoid

# magnitudes where exp over- or underflows, or 1 + exp(-x) rounds to 1
EXTREMES = [0.0, -0.0, 36.7, -36.7, 745.0, -745.0, 1000.0, -1000.0, math.inf, -math.inf]


def _sigmoid_two_branch(x: np.ndarray) -> np.ndarray:
    """The masked two-branch form sigmoid replaced."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@settings(deadline=None, max_examples=200)
@given(st.lists(
    st.one_of(st.sampled_from(EXTREMES), st.floats(allow_nan=False)), min_size=1, max_size=50
))
def test_sigmoid_is_bitwise_the_two_branch_form(values):
    x = np.asarray(values, dtype=np.float64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = sigmoid(x)
        want = _sigmoid_two_branch(x)
    assert got.dtype == np.float64
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_sigmoid_keeps_shape_and_nan():
    x = np.array([[np.nan, -3.0], [0.0, 3.0]])
    out = sigmoid(x)
    assert out.shape == (2, 2)
    assert np.isnan(out[0, 0])
    assert np.array_equal(out[1:], _sigmoid_two_branch(x[1:]))
