"""Exact and sketch watch-time summaries: thresholds, ranks, the sketch's
rank error against the exact reference, and the WLQS sketch encoding."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wtlabel.errors import (
    ConfigInvalid,
    EmptySummary,
    NegativeValue,
    PercentileOutOfRange,
    SerializationError,
)
from wtlabel.quantile import (
    ExactSummary,
    SketchSummary,
    make_summary,
    summary_from_bytes,
)

positive_floats = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)


def exact_of(values) -> ExactSummary:
    s = ExactSummary()
    s.extend(np.asarray(values, dtype=np.float64))
    return s


# ------------------------------------------------------------------ extend


def test_insert_counts():
    s = ExactSummary()
    s.extend([5.0])
    assert s.count == 1
    s.extend([])
    assert s.count == 1


def test_duplicates_preserved():
    s = exact_of([2.0, 1.0])
    s.extend([1.0])  # a later extend joins the sorted multiset
    assert s.count == 3
    assert s.values().tolist() == [1.0, 1.0, 2.0]
    # multiset semantics: two thirds of the mass sits at 1.0
    assert s.rank(1.0) == pytest.approx(2 / 3)


def test_negative_insert_rejected():
    s = ExactSummary()
    with pytest.raises(NegativeValue):
        s.extend([-0.5])
    sk = SketchSummary(0.01)
    with pytest.raises(NegativeValue):
        sk.extend([1.0, -1.0])


# --------------------------------------------------------------- threshold


def test_median_of_one_to_ten():
    s = exact_of(range(1, 11))
    assert s.threshold(50) == 5.0


def test_p75_of_one_to_ten():
    s = exact_of(range(1, 11))
    assert s.threshold(75) == 8.0


def test_point_mass_median():
    s = exact_of([7.0, 7.0, 7.0])
    assert s.threshold(50) == 7.0


def test_threshold_out_of_range():
    s = exact_of([1.0, 2.0])
    with pytest.raises(PercentileOutOfRange):
        s.threshold(0.0)
    with pytest.raises(PercentileOutOfRange):
        s.threshold(101.0)


def test_empty_summary_queries_fail():
    s = ExactSummary()
    with pytest.raises(EmptySummary):
        s.threshold(50)
    with pytest.raises(EmptySummary):
        s.rank(1.0)


# --------------------------------------------------------------------- rank


def test_rank_examples():
    s = exact_of([1.0, 2.0, 3.0, 4.0])
    assert s.rank(3.0) == 0.75
    assert s.rank(0.5) == 0.0
    assert s.rank(100.0) == 1.0


@settings(deadline=None)
@given(st.lists(positive_floats, min_size=1, max_size=200), positive_floats, positive_floats)
def test_rank_non_decreasing_in_value(values, a, b):
    s = exact_of(values)
    lo, hi = min(a, b), max(a, b)
    assert s.rank(lo) <= s.rank(hi)


@settings(deadline=None)
@given(
    st.lists(positive_floats, min_size=1, max_size=200),
    st.floats(min_value=0.001, max_value=100.0, allow_nan=False),
)
def test_threshold_is_inserted_value_reaching_p(values, p):
    s = exact_of(values)
    t = s.threshold(p)
    assert t in np.asarray(values)
    assert s.rank(t) >= p / 100.0


# ------------------------------------------------------------------- sketch


def test_sketch_tracks_count_exactly():
    sk = SketchSummary(0.01)
    rng = np.random.default_rng(0)
    sk.extend(rng.uniform(0, 100, 12345))
    assert sk.count == 12345


def test_sketch_rank_error_within_budget():
    rng = np.random.default_rng(11)
    values = np.exp(rng.normal(3.0, 1.2, 200_000))
    sk, ex = SketchSummary(0.005), ExactSummary()
    sk.extend(values)
    ex.extend(values)
    probes = rng.uniform(values.min(), values.max(), 500)
    err = np.abs(sk.rank_many(probes) - ex.rank_many(probes))
    assert err.max() <= 0.005


def test_sketch_deterministic():
    rng = np.random.default_rng(9)
    values = rng.uniform(0, 50, 30_000)
    a, b = SketchSummary(0.005), SketchSummary(0.005)
    a.extend(values)
    b.extend(values)
    assert a.to_bytes() == b.to_bytes()
    probes = np.linspace(0, 50, 101)
    assert np.array_equal(a.rank_many(probes), b.rank_many(probes))


def test_sketch_threshold_close_to_exact():
    rng = np.random.default_rng(13)
    values = rng.exponential(30.0, 100_000)
    sk, ex = SketchSummary(0.005), ExactSummary()
    sk.extend(values)
    ex.extend(values)
    for p in (10, 25, 50, 75, 90, 99):
        t_sk, t_ex = sk.threshold(p), ex.threshold(p)
        # value-space answers may differ, but their ranks must agree
        assert abs(ex.rank(t_sk) - ex.rank(t_ex)) <= 0.005 + 1.0 / len(values)


# ------------------------------------------------------------ serialization


def test_sketch_roundtrip():
    rng = np.random.default_rng(21)
    sk = SketchSummary(0.005)
    sk.extend(rng.uniform(0, 100, 40_000))
    back = summary_from_bytes(sk.to_bytes())
    assert isinstance(back, SketchSummary)
    assert back.count == sk.count
    probes = np.linspace(0, 100, 64)
    assert np.array_equal(back.rank_many(probes), sk.rank_many(probes))


def test_bad_magic_rejected():
    sketch = SketchSummary(0.005)
    sketch.extend([1.0])
    blob = sketch.to_bytes()
    with pytest.raises(SerializationError, match="bad summary magic b'XXXX' at byte 0"):
        summary_from_bytes(b"XXXX" + blob[4:])


@pytest.mark.parametrize("mode", [0, 2])
def test_mode_byte_other_than_sketch_rejected(mode):
    sketch = SketchSummary(0.005)
    sketch.extend([1.0, 2.0, 3.0])
    blob = bytearray(sketch.to_bytes())
    blob[6] = mode  # after the magic and the version
    with pytest.raises(SerializationError, match=f"unknown summary mode byte {mode} at byte 0"):
        summary_from_bytes(bytes(blob))


def test_truncated_payload_rejected():
    one = SketchSummary(0.005)
    one.extend([1.0, 2.0, 3.0])
    many = SketchSummary(0.005, capacity=16)
    many.extend(np.arange(100.0))
    for blob in (one.to_bytes(), many.to_bytes()):
        for n in range(len(blob)):
            with pytest.raises(SerializationError, match="WLQS summary: truncated"):
                summary_from_bytes(blob[:n])
        with pytest.raises(SerializationError, match=f"1 trailing bytes at byte {len(blob)}"):
            summary_from_bytes(blob + b"\x00")


def test_sketch_parity_must_be_0_or_1():
    s = SketchSummary(0.005, capacity=16)
    s.extend(np.arange(100.0))
    blob = bytearray(s.to_bytes())
    level0 = 15 + 16  # header, then eps, capacity and level count
    assert blob[level0] in (0, 1)
    blob[level0] = 9
    with pytest.raises(SerializationError, match=f"parity 9 is not 0 or 1 at byte {level0}"):
        summary_from_bytes(bytes(blob))


@pytest.mark.parametrize("bad", [float("nan"), -5.0, float("inf")])
def test_summary_values_must_be_finite_and_non_negative(bad):
    one = SketchSummary(0.005, capacity=16)
    one.extend(np.arange(10.0))  # one level, values from byte 40
    many = SketchSummary(0.005, capacity=16)
    many.extend(np.arange(100.0))  # the last value of the top level ends the blob
    for s, at in ((one, 40 + 8 * 3), (many, len(many.to_bytes()) - 8)):
        blob = bytearray(s.to_bytes())
        blob[at : at + 8] = np.float64(bad).tobytes()
        message = f"value {bad} is not finite and >= 0 at byte {at}"
        with pytest.raises(SerializationError, match=message):
            summary_from_bytes(bytes(blob))


@pytest.mark.parametrize("capacity", [0, 1])
def test_sketch_capacity_below_2_rejected(capacity):
    with pytest.raises(ConfigInvalid, match=f"capacity {capacity} is below 2"):
        SketchSummary(0.005, capacity=capacity)
    blob = bytearray(SketchSummary(0.005, capacity=16).to_bytes())
    at = 15 + 8  # header, then eps
    blob[at : at + 4] = capacity.to_bytes(4, "little")
    with pytest.raises(SerializationError, match=f"capacity {capacity} is below 2 at byte {at}"):
        summary_from_bytes(bytes(blob))


def test_sketch_odd_capacity_rejected():
    # SketchSummary stores only even capacities, so 17 cannot round-trip
    blob = bytearray(SketchSummary(0.005, capacity=16).to_bytes())
    at = 15 + 8  # header, then eps
    blob[at : at + 4] = (17).to_bytes(4, "little")
    with pytest.raises(SerializationError, match=f"capacity 17 is odd at byte {at}"):
        summary_from_bytes(bytes(blob))


@pytest.mark.parametrize("n", [37, 51_201, 333_370])
def test_sketch_count_must_match_level_weight(n):
    rng = np.random.default_rng(n)
    s = SketchSummary(0.005)
    s.extend(rng.uniform(0, 100, n // 2))
    s.extend(rng.uniform(0, 100, n - n // 2))
    # 37 values stay in level 0; 51,201 and 333,370 compact into 2 and 4 levels
    assert len(s._levels) == {37: 1, 51_201: 2, 333_370: 4}[n]
    back = summary_from_bytes(s.to_bytes())
    assert back.count == s.count == n
    assert back.to_bytes() == s.to_bytes()
    blob = bytearray(s.to_bytes())
    blob[7:15] = (n + 1).to_bytes(8, "little")
    with pytest.raises(SerializationError, match="levels hold weight"):
        summary_from_bytes(bytes(blob))


def test_make_summary_modes():
    assert isinstance(make_summary("exact"), ExactSummary)
    assert isinstance(make_summary("sketch", eps=0.01), SketchSummary)
