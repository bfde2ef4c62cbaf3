"""Watch-time label construction.

The central label is a rank label: order a group of records by watch
time ascending, split the ranks according to a PartitionScheme, and
give every record in group n the prefix sum of the first n ratios.
Coarse groups at the short end and fine groups at the long end come
from the partition, not from this module.

Duration is a confounder of watch time, so the debiased variants run
the identical procedure inside equal-frequency duration bins. With a
single bin they reduce bit-for-bit to the global variants.

Binary labels threshold watch time at a percentile of a group's watch
times (50 for the engagement label ev, 75 for the long-view label lv),
with sparse groups falling back to their duration bin and then to the
global threshold.

Tie handling: by default tied watch times get distinct consecutive
ranks ordered by row index, which keeps group occupancies exactly at
their configured ratios. The optional shared mode gives every tied
record the rank of the run's last element, so equal values always get
equal labels. Sketch-based labeling always uses shared semantics since
a sketch cannot separate equal values.
"""

from __future__ import annotations

import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import (
    ABLATION_LABELS,
    DurationBins,
    PartitionScheme,
    STANDARD_LABELS,
    as_table,
    group_index,
    make_duration_bins,
    make_partition,
    segments,
)
from .dataio import Reader, atomic_write_bytes
from .errors import (
    ConfigInvalid,
    EmptyDataset,
    MissingGroupSummary,
    PercentileOutOfRange,
    SerializationError,
)
from .quantile import (
    DEFAULT_EPS,
    QuantileSummary,
    SketchSummary,
    _nearest_rank,
    make_summary,
    read_summary,
)

EV_PERCENTILE = 50.0
LV_PERCENTILE = 75.0

GROUP_KINDS = ("global", "duration_bin", "video", "user")


@dataclass(frozen=True)
class GroupKey:
    """Identifies one record group: the whole dataset, a duration bin
    (key = bin index), or a single video or user (key = id)."""

    kind: str
    key: object = None

    def __post_init__(self) -> None:
        if self.kind not in GROUP_KINDS:
            raise ConfigInvalid(f"unknown group kind {self.kind!r}")


class GroupedSummaries:
    """Watch-time summaries per group plus the bins they were cut by."""

    def __init__(
        self,
        summaries: dict[GroupKey, QuantileSummary],
        bins: Optional[DurationBins],
        kinds: frozenset[str],
        mode: str,
        eps: float,
    ):
        self.summaries = summaries
        self.bins = bins
        self.kinds = kinds
        self.mode = mode
        self.eps = eps

    def get(self, key: GroupKey) -> Optional[QuantileSummary]:
        return self.summaries.get(key)

    @property
    def global_summary(self) -> QuantileSummary:
        s = self.summaries.get(GroupKey("global"))
        if s is None:
            raise MissingGroupSummary("no global summary present")
        return s


def build_grouped_summaries(
    dataset,
    *,
    bins: Optional[DurationBins] = None,
    kinds: tuple[str, ...] = ("duration_bin",),
    mode: str = "exact",
    eps: float = DEFAULT_EPS,
    threads: int = 1,
) -> GroupedSummaries:
    """Build one watch-time summary per requested group, plus global.

    Entity kinds (video, user) need bins as well because sparse groups
    fall back to their duration bin at threshold time.
    """
    table = as_table(dataset)
    if table.n == 0:
        raise EmptyDataset("cannot summarize an empty dataset")
    kinds = tuple(k for k in kinds if k != "global")
    for k in kinds:
        if k not in GROUP_KINDS:
            raise ConfigInvalid(f"unknown group kind {k!r}")
    if kinds and bins is None:
        raise ConfigInvalid("grouped summaries need duration bins for fallback")

    wt = table.watch_time_s
    jobs: list[tuple[GroupKey, np.ndarray]] = [(GroupKey("global"), wt)]
    groupings = []
    if kinds:
        # every bin gets a summary, an empty one included
        groupings.append(("duration_bin", bins.bin_of_many(table.duration_s), bins.n_bins))
    for kind, ids in (("video", table.video_id), ("user", table.user_id)):
        if kind in kinds:
            groupings.append((kind, ids, None))
    for kind, keys, n_keys in groupings:
        uniq, order, bounds = segments(keys, n_keys)
        for key, lo, hi in zip(uniq.tolist(), bounds[:-1], bounds[1:]):
            jobs.append((GroupKey(kind, key), wt[order[lo:hi]]))

    def _build(values: np.ndarray) -> QuantileSummary:
        s = make_summary(mode, eps)
        s.extend(values)
        return s

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            built = list(pool.map(_build, (v for _, v in jobs)))
    else:
        built = [_build(v) for _, v in jobs]

    present = frozenset(("global",) + kinds + (("duration_bin",) if kinds else ()))
    return GroupedSummaries(
        {key: s for (key, _), s in zip(jobs, built)}, bins, present, mode, eps
    )


def _rank_fractions(
    wt: np.ndarray,
    row_index: np.ndarray,
    tie_mode: str,
    mode: str,
    eps: float,
) -> np.ndarray:
    m = len(wt)
    if mode == "sketch":
        s = SketchSummary(eps)
        s.extend(wt)
        return s.rank_many(wt)
    if tie_mode == "distinct":
        order = np.lexsort((row_index, wt))
        ranks = np.empty(m, dtype=np.float64)
        ranks[order] = np.arange(1, m + 1, dtype=np.float64)
        return ranks / m
    srt = np.sort(wt)
    return np.searchsorted(srt, wt, side="right") / m


def _check_modes(tie_mode: str, mode: str) -> None:
    if tie_mode not in ("distinct", "shared"):
        raise ConfigInvalid(f"unknown tie mode {tie_mode!r}")
    if mode not in ("exact", "sketch"):
        raise ConfigInvalid(f"unknown summary mode {mode!r}")


def label_wpr_global(
    dataset,
    partition: PartitionScheme,
    *,
    tie_mode: str = "distinct",
    mode: str = "exact",
    eps: float = DEFAULT_EPS,
) -> np.ndarray:
    """Rank labels over the whole dataset."""
    return _rank_labels(dataset, partition, None, tie_mode, mode, eps)


def label_wpr_debiased(
    dataset,
    partition: PartitionScheme,
    bins: DurationBins,
    *,
    tie_mode: str = "distinct",
    mode: str = "exact",
    eps: float = DEFAULT_EPS,
) -> np.ndarray:
    """Rank labels computed independently inside each duration bin."""
    return _rank_labels(dataset, partition, bins, tie_mode, mode, eps)


def _rank_labels(
    dataset,
    partition: PartitionScheme,
    bins: Optional[DurationBins],
    tie_mode: str,
    mode: str,
    eps: float,
) -> np.ndarray:
    """The rank label of every record inside its duration bin; without
    bins the whole dataset is one segment."""
    _check_modes(tie_mode, mode)
    table = as_table(dataset)
    if table.n == 0:
        raise EmptyDataset("cannot label an empty dataset")
    if bins is None:
        parts = [slice(None)]
    else:
        _, order, bounds = segments(bins.bin_of_many(table.duration_s))
        parts = [order[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]
    out = np.empty(table.n, dtype=np.float64)
    for idx in parts:
        r = _rank_fractions(
            table.watch_time_s[idx], table.row_index[idx], tie_mode, mode, eps
        )
        out[idx] = partition.prefix[group_index(partition.prefix, r)]
    return out


def label_binary(
    dataset,
    p: float,
    group_kind: str,
    summaries: GroupedSummaries,
    min_group_size: int = 10,
) -> np.ndarray:
    """1 where watch time reaches its group's p-th percentile.

    The threshold is inclusive. Groups smaller than min_group_size fall
    back to the record's duration bin, then to the global summary.
    """
    if not 0 < p <= 100:
        raise PercentileOutOfRange(f"percentile {p} outside (0, 100]")
    if group_kind not in GROUP_KINDS:
        raise ConfigInvalid(f"unknown group kind {group_kind!r}")
    table = as_table(dataset)
    if table.n == 0:
        raise EmptyDataset("cannot label an empty dataset")
    glob = summaries.global_summary
    wt = table.watch_time_s

    if group_kind == "global":
        return (wt >= glob.threshold(p)).astype(np.int8)

    if group_kind not in summaries.kinds:
        raise MissingGroupSummary(f"{group_kind} summaries were not built")

    # entity groups fall back to duration bins, which build and load
    # both keep beside any non-global kind
    if summaries.bins is None or "duration_bin" not in summaries.kinds:
        raise MissingGroupSummary("duration_bin summaries were not built")
    t_glob = glob.threshold(p)
    bin_idx = summaries.bins.bin_of_many(table.duration_s)
    bin_thr = np.empty(summaries.bins.n_bins, dtype=np.float64)
    for b in range(summaries.bins.n_bins):
        s = summaries.get(GroupKey("duration_bin", b))
        if s is not None and s.count >= min_group_size:
            bin_thr[b] = s.threshold(p)
        else:
            bin_thr[b] = t_glob
    fallback = bin_thr[bin_idx]

    if group_kind == "duration_bin":
        return (wt >= fallback).astype(np.int8)

    keys = table.video_id if group_kind == "video" else table.user_id
    thr_by_key: dict[str, float] = {}
    for key in set(keys):
        s = summaries.get(GroupKey(group_kind, key))
        if s is not None and s.count >= min_group_size:
            thr_by_key[key] = s.threshold(p)
    thr = np.asarray([thr_by_key.get(k, np.nan) for k in keys], dtype=np.float64)
    thr = np.where(np.isnan(thr), fallback, thr)
    return (wt >= thr).astype(np.int8)


def label_playing_rate(dataset) -> np.ndarray:
    """watch_time / duration capped at 1."""
    table = as_table(dataset)
    if table.n == 0:
        raise EmptyDataset("cannot label an empty dataset")
    return np.minimum(table.watch_time_s / table.duration_s, 1.0)


def label_equal_width_wpr(
    dataset,
    n_groups: int,
    cap_percentile: float = 99.0,
) -> np.ndarray:
    """Equal-width watch-time groups over [0, t_cap], labels n/N.

    Group n covers ((n-1)*w, n*w] with w = t_cap / N; zero watch time
    belongs to group 1 and anything above the cap to group N.
    """
    if n_groups < 2:
        raise ConfigInvalid("equal-width labels need at least 2 groups")
    table = as_table(dataset)
    if table.n == 0:
        raise EmptyDataset("cannot label an empty dataset")
    wt = table.watch_time_s
    t_cap = float(np.sort(wt)[_nearest_rank(table.n, cap_percentile) - 1])
    groups = np.ones(table.n, dtype=np.int64)
    if t_cap > 0:
        pos = wt > 0
        g = np.ceil(wt[pos] * n_groups / t_cap)
        groups[pos] = np.clip(g, 1, None).astype(np.int64)
    groups[wt > t_cap] = n_groups
    groups = np.minimum(groups, n_groups)
    return groups / float(n_groups)


_BINARY_SPEC = {
    "ev": (EV_PERCENTILE, "global"),
    "ev_d": (EV_PERCENTILE, "duration_bin"),
    "ev_v": (EV_PERCENTILE, "video"),
    "ev_u": (EV_PERCENTILE, "user"),
    "lv": (LV_PERCENTILE, "global"),
    "lv_d": (LV_PERCENTILE, "duration_bin"),
    "lv_v": (LV_PERCENTILE, "video"),
    "lv_u": (LV_PERCENTILE, "user"),
}


@dataclass
class LabelConfig:
    """Everything label_all needs to produce a full label table."""

    partition: PartitionScheme
    bins_b: int = 30
    bins_min_size: int = 20
    min_group_size: int = 10
    tie_mode: str = "distinct"
    summary_mode: str = "exact"
    eps_sketch: float = DEFAULT_EPS
    enabled: tuple[str, ...] = field(default_factory=lambda: STANDARD_LABELS)
    ew_cap_percentile: float = 99.0
    threads: int = 1


class LabelTable:
    """Columnar label output; a column is None when not requested."""

    def __init__(self, n: int, columns: dict[str, np.ndarray]):
        self.n = n
        known = STANDARD_LABELS + ABLATION_LABELS
        for name in columns:
            if name not in known:
                raise ConfigInvalid(f"unknown label column {name!r}")
        self.columns = {name: columns[name] for name in known if name in columns}

    def column(self, name: str) -> Optional[np.ndarray]:
        return self.columns.get(name)


def label_all(
    dataset, config: LabelConfig, summaries: Optional[GroupedSummaries] = None
) -> LabelTable:
    """Compute every enabled label for every record."""
    return label_all_detailed(dataset, config, summaries)[0]


def label_all_detailed(
    dataset, config: LabelConfig, summaries: Optional[GroupedSummaries] = None
) -> tuple[LabelTable, Optional[GroupedSummaries], Optional[DurationBins]]:
    """label_all plus the grouped summaries and duration bins it used,
    so callers can persist them or reuse preloaded ones."""
    table = as_table(dataset)
    if table.n == 0:
        raise EmptyDataset("cannot label an empty dataset")
    known = set(STANDARD_LABELS) | set(ABLATION_LABELS)
    for name in config.enabled:
        if name not in known:
            raise ConfigInvalid(f"unknown label {name!r}")
    _check_modes(config.tie_mode, config.summary_mode)
    enabled = tuple(dict.fromkeys(config.enabled))

    needs_bins = any(
        name in enabled
        for name in ("wpr_d", "ev_d", "ev_v", "ev_u", "lv_d", "lv_v", "lv_u", "ef_wpr")
    )
    if summaries is not None:
        if summaries.mode != config.summary_mode:
            raise ConfigInvalid(
                f"loaded summaries are {summaries.mode!r} but config asks for "
                f"{config.summary_mode!r}"
            )
        if needs_bins and summaries.bins is None:
            raise ConfigInvalid("loaded summaries carry no duration bins")
        bins = summaries.bins if needs_bins else None
    else:
        bins = (
            make_duration_bins(table, config.bins_b, config.bins_min_size)
            if needs_bins
            else None
        )

    binary_kinds = tuple(
        dict.fromkeys(_BINARY_SPEC[name][1] for name in enabled if name in _BINARY_SPEC)
    )
    summary_kinds = tuple(k for k in binary_kinds if k != "global")
    if summaries is None and any(name in _BINARY_SPEC for name in enabled):
        summaries = build_grouped_summaries(
            table,
            bins=bins if summary_kinds else None,
            kinds=summary_kinds,
            mode=config.summary_mode,
            eps=config.eps_sketch,
            threads=config.threads,
        )

    wpr_kw = dict(
        tie_mode=config.tie_mode, mode=config.summary_mode, eps=config.eps_sketch
    )
    columns: dict[str, np.ndarray] = {}
    for name in enabled:
        if name == "wpr":
            columns[name] = label_wpr_global(table, config.partition, **wpr_kw)
        elif name == "wpr_d":
            columns[name] = label_wpr_debiased(table, config.partition, bins, **wpr_kw)
        elif name == "ef_wpr":
            ef_part = make_partition("equal_frequency", config.partition.n_groups)
            columns[name] = label_wpr_debiased(table, ef_part, bins, **wpr_kw)
        elif name == "ew_wpr":
            columns[name] = label_equal_width_wpr(
                table, config.partition.n_groups, config.ew_cap_percentile
            )
        elif name == "playing_rate":
            columns[name] = label_playing_rate(table)
        else:
            p, kind = _BINARY_SPEC[name]
            columns[name] = label_binary(
                table, p, kind, summaries, config.min_group_size
            )
    return LabelTable(table.n, columns), summaries, bins


# grouped-summary persistence

_GROUPED_MAGIC = b"WLGS"
_GROUPED_VERSION = 1
_KIND_CODE = {kind: code for code, kind in enumerate(GROUP_KINDS)}


def save_grouped_summaries(gs: GroupedSummaries, path: str) -> None:
    parts = [struct.pack("<4sHBd", _GROUPED_MAGIC, _GROUPED_VERSION,
                         0 if gs.mode == "exact" else 1, gs.eps)]
    if gs.bins is not None:
        parts.append(struct.pack("<BI", 1, gs.bins.n_bins))
        parts.append(np.ascontiguousarray(gs.bins.boundaries).tobytes())
        parts.append(np.ascontiguousarray(gs.bins.counts).tobytes())
    else:
        parts.append(struct.pack("<BI", 0, 0))
    kinds = sorted(gs.kinds)
    parts.append(struct.pack("<B", len(kinds)))
    for k in kinds:
        parts.append(struct.pack("<B", _KIND_CODE[k]))
    keys = sorted(
        gs.summaries.keys(), key=lambda k: (_KIND_CODE[k.kind], str(k.key))
    )
    parts.append(struct.pack("<I", len(keys)))
    for key in keys:
        blob = gs.summaries[key].to_bytes()
        parts.append(struct.pack("<B", _KIND_CODE[key.kind]))
        if key.kind == "duration_bin":
            parts.append(struct.pack("<q", int(key.key)))
        elif key.kind == "global":
            pass
        else:
            enc = str(key.key).encode("utf-8")
            parts.append(struct.pack("<I", len(enc)) + enc)
        parts.append(struct.pack("<Q", len(blob)) + blob)
    atomic_write_bytes(path, b"".join(parts))


def load_grouped_summaries(path: str) -> GroupedSummaries:
    with open(path, "rb") as fh:
        r = Reader(fh.read(), path)
    if r.raw(4) != _GROUPED_MAGIC:
        raise SerializationError(f"{path}: not a grouped-summary file")
    version, mode_byte, eps = r.take("<HBd")
    if version != _GROUPED_VERSION:
        raise SerializationError(f"{path}: unsupported version {version}")
    has_bins, n_bins = r.take("<BI")
    if mode_byte not in (0, 1) or has_bins != (n_bins > 0):
        raise r.fail(f"bad header: mode byte {mode_byte}, bins flag {has_bins}, {n_bins} bins")
    mode = ("exact", "sketch")[mode_byte]
    bins = None
    if has_bins:
        at = r.pos
        try:
            bins = DurationBins(r.floats(n_bins), r.floats(n_bins, np.int64))
        except ValueError as exc:
            raise r.fail(str(exc), at) from None
    kinds = {_read_kind(r) for _ in range(r.take("<B")[0])}
    if kinds - {"global"} and (bins is None or "duration_bin" not in kinds):
        raise SerializationError(
            f"{path}: {', '.join(sorted(kinds))} summaries need duration bins and the "
            "duration_bin kind to fall back to"
        )
    summaries: dict[GroupKey, QuantileSummary] = {}
    for _ in range(r.take("<I")[0]):
        kind = _read_kind(r)
        if kind == "duration_bin":
            key = GroupKey(kind, r.take("<q")[0])
        elif kind == "global":
            key = GroupKey(kind)
        else:
            key = GroupKey(kind, r.utf8(r.take("<I")[0]))
        (size,) = r.take("<Q")
        start = r.pos
        s = summaries[key] = read_summary(r)
        if (r.pos - start, s.mode) != (size, mode):
            raise SerializationError(
                f"{path}: the {r.pos - start}-byte {s.mode} summary at byte {start} "
                f"is stated as {size}-byte {mode}"
            )
    r.end()
    return GroupedSummaries(summaries, bins, frozenset(kinds), mode, eps)


def _read_kind(r: Reader) -> str:
    (code,) = r.take("<B")
    if code >= len(GROUP_KINDS):
        raise r.fail(f"unknown group kind code {code}")
    return GROUP_KINDS[code]
