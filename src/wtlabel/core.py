"""Domain types for watch-time labeling.

A record is one user-video interaction carrying a video duration and an
observed watch time, both in seconds. Labels are produced by ranking
watch times inside a group of records and mapping each record's rank
fraction onto a partition of (0, 1]. The types here cover validated
records, the rank partition itself, and equal-frequency duration bins
used to remove the duration confound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from itertools import repeat
from typing import Optional, Sequence

import numpy as np

from .errors import (
    ConfigInvalid,
    EmptyDataset,
    InvalidRatios,
    MissingField,
    NegativeWatchTime,
    NonMonotoneCurve,
    NonPositiveDuration,
)

PARTITION_KINDS = ("equal_frequency", "power_decay", "log_quadratic", "explicit")

# Watch-time range (seconds) over which a log_quadratic curve is
# validated when the caller does not supply one. Covers sub-second
# skips up to an hour-long session.
DEFAULT_CURVE_RANGE = (1.0, 3600.0)


def validate_interaction(
    user_id: object,
    video_id: object,
    duration_s: object,
    watch_time_s: object,
    row_index: int,
) -> None:
    """Check the raw field values of one user-video record.

    Raises MissingField for absent or unparsable fields,
    NonPositiveDuration and NegativeWatchTime for out-of-domain values,
    infinities and NaN included.
    Diagnostics carry the row index.
    """
    fields = {
        "user_id": user_id,
        "video_id": video_id,
        "duration_s": duration_s,
        "watch_time_s": watch_time_s,
    }
    for name, value in fields.items():
        if value is None or (isinstance(value, str) and value.strip() == ""):
            raise MissingField(f"row {row_index}: field {name} is missing")
    try:
        dur = float(duration_s)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        raise MissingField(
            f"row {row_index}: field duration_s is not a number: {duration_s!r}"
        ) from None
    try:
        wt = float(watch_time_s)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        raise MissingField(
            f"row {row_index}: field watch_time_s is not a number: {watch_time_s!r}"
        ) from None
    # NaN fails both comparisons below, so it is rejected as well; only
    # +inf, which passes the lower bound, is told it must be finite.
    if not 0 < dur < math.inf:
        finite = "finite and " if dur > 0 else ""
        raise NonPositiveDuration(f"row {row_index}: duration_s={dur} must be {finite}> 0")
    if not 0 <= wt < math.inf:
        finite = "finite and " if wt >= 0 else ""
        raise NegativeWatchTime(f"row {row_index}: watch_time_s={wt} must be {finite}>= 0")


class InteractionTable:
    """Interaction records as columns.

    Keeps the original text of numeric fields when the table was read
    from a file so downstream writers can echo input columns verbatim.
    """

    __slots__ = (
        "user_id",
        "video_id",
        "duration_s",
        "watch_time_s",
        "row_index",
        "duration_text",
        "watch_text",
    )

    def __init__(
        self,
        user_id: list[str],
        video_id: list[str],
        duration_s: np.ndarray,
        watch_time_s: np.ndarray,
        row_index: Optional[np.ndarray] = None,
        duration_text: Optional[list[str]] = None,
        watch_text: Optional[list[str]] = None,
    ):
        n = len(user_id)
        if not (len(video_id) == n == len(duration_s) == len(watch_time_s)):
            raise ValueError("column lengths differ")
        self.user_id = user_id
        self.video_id = video_id
        self.duration_s = np.asarray(duration_s, dtype=np.float64)
        self.watch_time_s = np.asarray(watch_time_s, dtype=np.float64)
        if row_index is None:
            row_index = np.arange(n, dtype=np.int64)
        self.row_index = np.asarray(row_index, dtype=np.int64)
        self.duration_text = duration_text
        self.watch_text = watch_text

    @property
    def n(self) -> int:
        return len(self.user_id)

    def subset(self, index: np.ndarray) -> "InteractionTable":
        index = np.asarray(index)
        if index.dtype == bool:
            index = np.flatnonzero(index)
        rows = index.tolist()
        return InteractionTable(
            gather(self.user_id, rows),
            gather(self.video_id, rows),
            self.duration_s[index],
            self.watch_time_s[index],
            self.row_index[index],
            gather(self.duration_text, rows) if self.duration_text else None,
            gather(self.watch_text, rows) if self.watch_text else None,
        )


def as_table(dataset, empty: Optional[str] = None) -> InteractionTable:
    """dataset itself; anything but an InteractionTable raises TypeError,
    and given a message, a table with no records raises EmptyDataset."""
    if not isinstance(dataset, InteractionTable):
        raise TypeError(f"expected an InteractionTable, got {type(dataset).__name__}")
    if empty is not None and dataset.n == 0:
        raise EmptyDataset(empty)
    return dataset


def id_index(ids) -> dict:
    """Each distinct id mapped to its position among them in sorted order.
    Ids are compared exactly as given, a trailing NUL included."""
    return {key: i for i, key in enumerate(sorted(set(ids)))}


def gather(values: list, rows: list[int]) -> list:
    """values[i] for each i of rows. Rows come as Python ints, from one
    .tolist(): indexing a list by numpy integers costs one conversion each."""
    return [values[i] for i in rows]


def id_rows(index: dict, ids, unseen: int) -> np.ndarray:
    """index[id] for each of ids, unseen for an id that index does not hold."""
    return np.fromiter(map(index.get, ids, repeat(unseen)), np.int64, len(ids))


def segments(keys, n_keys: Optional[int] = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group record positions by key: (keys, order, bounds).

    The records of keys[i] are order[bounds[i]:bounds[i + 1]], in their
    original order. Without n_keys the keys are the sorted distinct ids
    of id_index, as an object array; with it they are the integers
    0..n_keys-1 and a key that no record carries gets an empty segment.
    """
    if n_keys is None:
        index = id_index(keys)
        uniq, inverse = np.fromiter(index, object, len(index)), id_rows(index, keys, -1)
    else:
        uniq, inverse = np.arange(n_keys), np.asarray(keys)
    # a stable sort of 16-bit keys is a radix sort
    order = np.argsort(inverse.astype(np.uint16) if len(uniq) <= 1 << 16 else inverse,
                       kind="stable")
    bounds = np.searchsorted(inverse[order], np.arange(len(uniq) + 1))
    return uniq, order, bounds


def group_index(upper: np.ndarray, x):
    """Index of the first group whose ascending upper bound (a rank
    prefix, a duration-bin boundary) is at or above x, scalar or array;
    x past every bound goes to the last group."""
    return np.minimum(np.searchsorted(upper, x, side="left"), len(upper) - 1)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function, evaluated without overflow on either side:
    1 / (1 + e) for x >= 0 and e / (1 + e) below, with e = exp(-|x|) <= 1,
    so the numerator is max(e, x >= 0)."""
    e = np.exp(-np.abs(x))
    return np.maximum(e, x >= 0) / (1.0 + e)


@dataclass(frozen=True, eq=False)
class PartitionScheme:
    """N ordered group ratios over (0, 1] plus their prefix sums.

    A record whose rank fraction is r gets the label prefix[g] of the
    first group g with r <= prefix[g]. The final prefix is exactly 1.0.
    """

    kind: str
    n_groups: int
    ratios: np.ndarray
    prefix: np.ndarray


def _finish_partition(kind: str, q: np.ndarray, progressive: bool) -> PartitionScheme:
    if np.any(~np.isfinite(q)) or np.any(q <= 0):
        raise InvalidRatios(f"{kind}: every group ratio must be positive and finite")
    if progressive and np.any(np.diff(q) > 1e-15):
        raise InvalidRatios(f"{kind}: ratios must be non-increasing")
    q = q / q.sum()
    prefix = np.cumsum(q)
    prefix[-1] = 1.0
    if np.any(np.diff(prefix) <= 0):
        raise InvalidRatios(f"{kind}: prefix sums are not strictly increasing")
    q.setflags(write=False)
    prefix.setflags(write=False)
    return PartitionScheme(kind, len(q), q, prefix)


def make_partition(
    kind: str,
    n_groups: int = 0,
    *,
    gamma: float = 0.5,
    coeffs: Optional[tuple[float, float, float]] = None,
    curve_range: tuple[float, float] = DEFAULT_CURVE_RANGE,
    ratios: Optional[Sequence[float]] = None,
    progressive: bool = False,
) -> PartitionScheme:
    """Build a rank partition.

    kind selects how the ratios arise:
      equal_frequency  q_n = 1/N
      power_decay      q_n proportional to n**(-gamma), gamma >= 0
      log_quadratic    q_n from successive differences of the curve
                       w(k) = 1 / (a*k^2 + b*k + c) evaluated at N+1
                       evenly spaced boundaries in k = ceil(ln y) space
                       over curve_range, then renormalized
      explicit         caller-provided ratios

    progressive demands non-increasing ratios and raises InvalidRatios
    on violation. A log_quadratic curve that is not strictly increasing,
    or leaves (0, 1], over the integer k values inside curve_range
    raises NonMonotoneCurve.
    """
    if kind not in PARTITION_KINDS:
        raise InvalidRatios(f"unknown partition kind {kind!r}")

    if kind == "explicit":
        if ratios is None:
            raise InvalidRatios("explicit partition needs ratios")
        q = np.asarray(list(ratios), dtype=np.float64)
        if n_groups and n_groups != len(q):
            raise InvalidRatios(
                f"explicit ratios have {len(q)} entries, n_groups says {n_groups}"
            )
        if len(q) < 2:
            raise InvalidRatios("a partition needs at least 2 groups")
        if np.any(q <= 0):
            raise InvalidRatios("explicit ratios must all be positive")
        if abs(q.sum() - 1.0) > 1e-9:
            raise InvalidRatios(f"explicit ratios sum to {q.sum()!r}, expected 1")
        return _finish_partition(kind, q, progressive)

    if n_groups < 2:
        raise InvalidRatios("a partition needs at least 2 groups")

    if kind == "equal_frequency":
        # unnormalized ones; _finish_partition divides by the exact
        # integer sum, keeping this bitwise equal to power_decay at
        # gamma 0 for every group count
        q = np.ones(n_groups)
        return _finish_partition(kind, q, progressive)

    if kind == "power_decay":
        check_value("gamma", gamma)
        q = np.arange(1, n_groups + 1, dtype=np.float64) ** (-gamma)
        return _finish_partition(kind, q, progressive)

    # log_quadratic
    if coeffs is None:
        raise InvalidRatios("log_quadratic partition needs coeffs (a, b, c)")
    a, b, c = (float(v) for v in coeffs)
    y_lo, y_hi = curve_range
    if not (0 < y_lo < y_hi < math.inf):
        raise NonMonotoneCurve(
            f"curve range {curve_range} is not a finite, increasing positive span"
        )
    k_lo = math.ceil(math.log(y_lo))
    k_hi = math.ceil(math.log(y_hi))
    if k_hi <= k_lo:
        raise NonMonotoneCurve(f"curve range {curve_range} spans no watch-time scale")
    ks = np.arange(k_lo, k_hi + 1, dtype=np.float64)
    denom = a * ks * ks + b * ks + c
    if np.any(denom <= 0):
        raise NonMonotoneCurve("curve denominator is not positive over the range")
    w = 1.0 / denom
    if np.any(w > 1.0) or np.any(np.diff(w) <= 0):
        raise NonMonotoneCurve(
            "curve must be strictly increasing and stay in (0, 1] over the range"
        )
    bounds = k_lo + (k_hi - k_lo) * np.arange(n_groups + 1, dtype=np.float64) / n_groups
    wb = 1.0 / (a * bounds * bounds + b * bounds + c)
    q = np.diff(wb)
    if np.any(q <= 0):
        raise NonMonotoneCurve("curve dips between integer points inside the range")
    return _finish_partition(kind, q, progressive)


@dataclass(frozen=True, eq=False)
class DurationBins:
    """Upper-inclusive duration boundaries.

    boundaries[i] is the largest duration of bin i; bin 0 additionally
    covers everything below. Boundaries are observed data values, so
    records with equal duration always share a bin. counts holds the
    build-time occupancy per bin.
    """

    boundaries: np.ndarray
    counts: np.ndarray

    def __post_init__(self) -> None:
        b, c = self.boundaries, self.counts
        if not (b.size and np.isfinite(b).all() and (np.diff(b) > 0).all()):
            raise ValueError("duration-bin boundaries must be finite and strictly ascending")
        if not ((c >= 0) & (c < 2.0**63) & (np.floor(c) == c)).all():
            raise ValueError("duration-bin counts must be non-negative whole numbers")
        object.__setattr__(self, "counts", c.astype(np.int64, copy=False))
        self.boundaries.setflags(write=False)
        self.counts.setflags(write=False)

    @property
    def n_bins(self) -> int:
        return len(self.boundaries)

    def bin_of_many(self, durations: np.ndarray) -> np.ndarray:
        return group_index(self.boundaries, durations).astype(np.int64)


def make_duration_bins(dataset, b: int, min_bin_size: int = 20) -> DurationBins:
    """Cut durations into up to b equal-frequency bins.

    Boundaries sit at nearest-rank quantiles of the duration multiset,
    deduplicated so point masses collapse. Any bin smaller than
    min_bin_size is joined to its right neighbor (leftmost first, the
    last bin joins its left one) until every remaining bin is large
    enough or one bin is left.
    """
    check_value("bins_b", b)
    if isinstance(dataset, np.ndarray):
        durations = np.asarray(dataset, dtype=np.float64)
    else:
        durations = as_table(dataset).duration_s
    n = len(durations)
    if n == 0:
        raise EmptyDataset("cannot build duration bins from an empty dataset")
    # every rank is a boundary candidate once b reaches n, so more bins add none
    b = min(b, n)
    d = np.sort(durations)
    # nearest-rank quantile at p = i/b: smallest value with
    # count(d <= v) >= p * n
    ranks = np.ceil(np.arange(1, b + 1) * n / b).astype(np.int64)
    ranks = np.clip(ranks, 1, n)
    boundaries = np.unique(d[ranks - 1])
    counts = np.bincount(group_index(boundaries, d), minlength=len(boundaries)).astype(np.int64)
    while len(boundaries) > 1 and counts.min() < min_bin_size:
        # drop the upper bound of bin k: bin k joins bin k+1, and a small
        # last bin is the k+1 of its left neighbour
        k = min(int(np.argmax(counts < min_bin_size)), len(boundaries) - 2)
        boundaries = np.delete(boundaries, k)
        counts[k + 1] += counts[k]
        counts = np.delete(counts, k)
    return DurationBins(boundaries, counts)


# The record groups a label is computed in: its scope. The order gives
# the kind codes of the WLGS summaries file.
GROUP_KINDS = ("global", "duration_bin", "video", "user")

EV_PERCENTILE = 50.0
LV_PERCENTILE = 75.0


@dataclass(frozen=True)
class LabelSpec:
    """How one label column is computed. rule is rank (groups of the
    configured partition), equal_frequency (equal-size rank groups),
    equal_width (equal-width watch-time groups), playing_rate, or binary
    (watch time at or above the percentile of the record's group). The
    first three are rank-space: labels are group prefixes in (0, 1]. scope
    is the GROUP_KINDS entry the label is computed in. An ablation label
    is emitted only when ablation labels are asked for."""

    rule: str
    scope: str = "global"
    percentile: Optional[float] = None
    ablation: bool = False

    @property
    def rank_space(self) -> bool:
        return self.rule in ("rank", "equal_frequency", "equal_width")


# Every label, in labeled-output column order.
LABELS = {
    "wpr": LabelSpec("rank"),
    "wpr_d": LabelSpec("rank", "duration_bin"),
    "ev": LabelSpec("binary", "global", EV_PERCENTILE),
    "ev_d": LabelSpec("binary", "duration_bin", EV_PERCENTILE),
    "ev_v": LabelSpec("binary", "video", EV_PERCENTILE),
    "ev_u": LabelSpec("binary", "user", EV_PERCENTILE),
    "lv": LabelSpec("binary", "global", LV_PERCENTILE),
    "lv_d": LabelSpec("binary", "duration_bin", LV_PERCENTILE),
    "lv_v": LabelSpec("binary", "video", LV_PERCENTILE),
    "lv_u": LabelSpec("binary", "user", LV_PERCENTILE),
    "playing_rate": LabelSpec("playing_rate"),
    "ef_wpr": LabelSpec("equal_frequency", "duration_bin", ablation=True),
    "ew_wpr": LabelSpec("equal_width", ablation=True),
}
STANDARD_LABELS = tuple(name for name, spec in LABELS.items() if not spec.ablation)
ABLATION_LABELS = tuple(name for name, spec in LABELS.items() if spec.ablation)
BINARY_LABELS = tuple(name for name, spec in LABELS.items() if spec.rule == "binary")


# Each config key's valid values: a tuple of choices or an interval, each
# end closed [ ] or open ( ), so an open end at inf asks for a finite value.
# Any other key takes any value but NaN. Cross-key rules stay where needed.
CONFIG_DOMAINS = {
    # synthetic data; rounding to the CSV's 3 decimals scales durations by 1e3
    "n_users": "[1, inf)", "n_videos": "[1, inf)", "interactions_per_user": "[1, inf)",
    "latent_dim": "[1, inf)", "mu_d": "(-inf, inf)", "s_d": "(-inf, inf)", "sigma_d": "[0, inf)",
    "d_min": "[0.001, inf)", "d_max": "[0.001, 1e300]", "alpha": "(-inf, inf)",
    "beta": "(-inf, inf)", "sigma_y": "[0, inf)", "confound_sign": (1.0, -1.0), "seed": "[0, inf)",
    # labeling
    "partition_kind": PARTITION_KINDS, "n_groups": "[2, inf)", "gamma": "[0, inf)",
    "coeff_a": "(-inf, inf)", "coeff_b": "(-inf, inf)", "coeff_c": "(-inf, inf)",
    "bins_b": "[1, inf)", "bins_min_size": "[1, inf)", "min_group_size": "[1, inf)",
    "tie_mode": ("distinct", "shared"), "summary_mode": ("exact", "sketch"),
    "eps_sketch": "(0, 0.5)", "ew_cap_percentile": "(0, 100]",
    # learner and split
    "d_embed": "[1, inf)", "n_experts": "[1, inf)", "hidden": "[1, inf)", "lr_embed": "(0, inf)",
    "lr_dense": "(0, inf)", "batch_size": "[1, inf)", "epochs": "[1, inf)",
    "train_seed": "[0, inf)", "split_frac": "[0, 1]", "split_seed": "[0, 18446744073709551616)",
}


def check_value(key: str, value) -> None:
    """Raise ConfigInvalid naming key if value is NaN or outside CONFIG_DOMAINS[key]."""
    domain = CONFIG_DOMAINS.get(key)
    if isinstance(value, float) and math.isnan(value):
        raise ConfigInvalid(f"{key} must not be NaN")
    if isinstance(domain, tuple) and value not in domain:
        *head, last = domain
        raise ConfigInvalid(f"{key} must be {', '.join(map(str, head))} or {last}")
    if not isinstance(domain, str):
        return
    lo, hi = (float(end) for end in domain[1:-1].split(","))
    if (lo < value if domain[0] == "(" else lo <= value) and (
            value < hi if domain[-1] == ")" else value <= hi):
        return
    problem = ("be finite" if math.isinf(value) and value in (lo, hi) else
               f"lie in {domain}" if hi < math.inf else
               f"be {'>' if domain[0] == '(' else '>='} {lo:g}")
    raise ConfigInvalid(f"{key} must {problem}")


def check_config(config) -> None:
    """check_value on each field of a config dataclass, in field order."""
    for f in fields(config):
        check_value(f.name, getattr(config, f.name))
