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
    make_duration_bins,
    make_partition,
    segments,
    sigmoid,
    validate_interaction,
)
from wtlabel.errors import (
    EmptyDataset,
    InvalidRatios,
    MissingField,
    NegativeWatchTime,
    NonMonotoneCurve,
    NonPositiveDuration,
)
from wtlabel.labeling import label_wpr_global
from wtlabel.learner import WprInverse


# ---------------------------------------------------------------- records


def test_valid_record_roundtrips():
    rec = validate_interaction("u1", "v1", 60.0, 30.0, 0)
    assert rec.user_id == "u1"
    assert rec.video_id == "v1"
    assert rec.duration_s == 60.0
    assert rec.watch_time_s == 30.0
    assert rec.row_index == 0


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
    rec = validate_interaction("u1", "v1", 60.0, 0.0, 1)
    assert rec.watch_time_s == 0.0


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


def test_labels_take_only_a_table():
    rec = validate_interaction("u1", "v1", 60.0, 30.0, 0)
    with pytest.raises(TypeError, match="expected an InteractionTable, got list"):
        label_wpr_global([rec], make_partition("equal_frequency", 2))


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
    assert p.group_of_rank(0.25) == 0
    assert p.group_of_rank(0.2500000001) == 1
    assert p.group_of_rank(1.0) == 3
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
    assert bins.bin_of(15.0) == 0
    assert bins.bin_of(60.0) == 1


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
    assert bins.bin_of(0.001) == 0
    assert bins.bin_of(1e9) == bins.n_bins - 1


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
@given(st.lists(st.sampled_from(["u0", "u1", "u10", "u2", "v", "β"]), max_size=60))
def test_segments_match_dict_grouping_on_strings(keys):
    got = _segment_lists(np.asarray(keys, dtype=str))
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
