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
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, Optional

import numpy as np

# EV_PERCENTILE, LV_PERCENTILE and ABLATION_LABELS stay importable from here
from .core import (
    ABLATION_LABELS,
    EV_PERCENTILE,
    GROUP_KINDS,
    LABELS,
    LV_PERCENTILE,
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
    EmptySummary,
    MissingGroupSummary,
    PercentileOutOfRange,
    SerializationError,
)
from .quantile import (
    DEFAULT_EPS,
    QuantileSummary,
    SketchSummary,
    _in_domain,
    _nearest_rank,
    _validate_values,
    checked_values,
    make_summary,
    plain_bytes,
    read_summary,
    sketch_capacity,
)


@dataclass(frozen=True)
class GroupKey:
    """Identifies one record group: the whole dataset, a duration bin
    (key = bin index), or a single video or user (key = id)."""

    kind: str
    key: object = None

    def __str__(self) -> str:
        return self.kind if self.key is None else f"{self.kind} {self.key!r}"


class _Groups:
    """One group kind's summaries as columns. Group i has key keys[i] and
    counts[i] values, kept in values[bounds[i]:bounds[i + 1]]: sorted when
    exact, in row order when a sketch. A sketch group that reached capacity
    is the real sketch sketches[i] instead, with an empty segment. sorted
    holds each segment sorted, for the nearest-rank gather."""

    def __init__(self, keys, sizes, values, sketches, mode):
        self.keys, self.values, self.sketches = keys, values, sketches
        self.bounds = np.concatenate(([0], np.cumsum(sizes, dtype=np.int64)))
        self.counts = np.array(sizes, dtype=np.int64)
        self.counts[list(sketches)] = [s.count for s in sketches.values()]
        seg = np.repeat(np.arange(len(keys)), sizes)
        self.sorted = values
        if np.any((np.diff(values) < 0) & (np.diff(seg) == 0)):
            by_value = np.argsort(values)
            self.sorted = values[by_value[segments(seg[by_value], len(keys))[1]]]
        if mode == "exact":
            self.values = self.sorted

    def thresholds(self, p: float) -> np.ndarray:
        """Every group's nearest-rank p-th percentile, NaN for an empty group."""
        sizes = np.diff(self.bounds)
        k = np.maximum(1, np.ceil(sizes * p / 100.0)).astype(np.int64)
        out = np.append(self.sorted, np.nan)[np.where(sizes > 0, self.bounds[:-1] + k - 1, -1)]
        for i, s in self.sketches.items():
            out[i] = s.threshold(p) if s.count else np.nan
        return out


class GroupedSummaries:
    """Watch-time summaries of every group, held one _Groups column block
    per group kind, plus the bins they were cut by."""

    def __init__(
        self, groups: dict[str, _Groups], bins: Optional[DurationBins], mode: str, eps: float
    ):
        self.groups, self.bins, self.mode, self.eps = groups, bins, mode, eps
        self.kinds = frozenset(groups)
        self._rows: tuple[object, dict[str, np.ndarray]] = (None, {})

    def rows(self, table, kind: str) -> np.ndarray:
        """Each record's group of kind, -1 where it has none. The groups of
        the last table asked about, at first the one summarized, are kept."""
        if self._rows[0] is not table:
            self._rows = (table, {})
        rows, keys = self._rows[1], self.groups[kind].keys
        if kind not in rows and len(keys):
            ids = np.asarray(self.bins.bin_of_many(table.duration_s) if kind == "duration_bin"
                             else table.video_id if kind == "video" else table.user_id)
            at = rows[kind] = np.minimum(np.searchsorted(keys, ids), len(keys) - 1)
            at[keys[at] != ids] = -1
        return rows.get(kind, np.full(table.n, -1))

    @cached_property
    def summaries(self) -> Mapping[GroupKey, QuantileSummary]:
        """A read-only QuantileSummary per group, built on first access.
        This view and GroupKey stay only until the benchmark takes its
        group counts from the WLGS file (ROADMAP item 1)."""
        view = {}
        for kind, g in self.groups.items():
            for i, key in enumerate(g.keys.tolist()):
                s = g.sketches.get(i)
                if s is None:
                    s = make_summary(self.mode, self.eps)
                    s.extend(g.values[g.bounds[i] : g.bounds[i + 1]])
                view[GroupKey(kind, key)] = s
        return MappingProxyType(view)


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
    fall back to their duration bin at threshold time. threads changes
    nothing; it stays until the benchmark stops passing it (ROADMAP
    item 1).
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
    if mode not in ("exact", "sketch"):
        raise ConfigInvalid(f"unknown summary mode {mode!r}")
    capacity = sketch_capacity(eps) if mode == "sketch" else table.n + 1

    wt = _validate_values(table.watch_time_s)
    groupings = [("global", np.zeros(table.n, dtype=np.int64), 1)]
    if kinds:
        # every bin gets a summary, an empty one included
        groupings.append(("duration_bin", bins.bin_of_many(table.duration_s), bins.n_bins))
    for kind, ids in (("video", table.video_id), ("user", table.user_id)):
        if kind in kinds:
            groupings.append((kind, ids, None))
    # grouping records taken in watch-time order leaves each exact group
    # sorted; a sketch group keeps row order
    sort = np.argsort(wt) if mode == "exact" else np.arange(table.n)
    groups, rows = {}, {}
    for kind, keys, n_keys in groupings:
        uniq, order, bounds = segments(np.asarray(keys)[sort], n_keys)
        order = sort[order]
        sizes = np.diff(bounds)
        rows[kind] = np.empty(table.n, dtype=np.int64)
        rows[kind][order] = np.repeat(np.arange(len(sizes)), sizes)
        big = sizes >= capacity
        sketches = {}
        for i in np.flatnonzero(big).tolist():
            s = sketches[i] = SketchSummary(eps)
            s.extend(wt[order[bounds[i] : bounds[i + 1]]])
        order = order[np.repeat(~big, sizes)]
        sizes[big] = 0
        keys = np.array([None]) if kind == "global" else uniq
        groups[kind] = _Groups(keys, sizes, wt[order], sketches, mode)
    gs = GroupedSummaries(groups, bins, mode, eps)
    gs._rows = (table, rows)
    return gs


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
    groups = summaries.groups
    if "global" not in groups:
        raise MissingGroupSummary("no global summary present")
    if not groups["global"].counts[0]:
        raise EmptySummary("threshold query on an empty summary")
    thr = groups["global"].thresholds(p)[0]
    if group_kind != "global":
        if group_kind not in groups:
            raise MissingGroupSummary(f"{group_kind} summaries were not built")
        # entity groups fall back to duration bins, which build and load
        # both keep beside any non-global kind
        if summaries.bins is None or "duration_bin" not in groups:
            raise MissingGroupSummary("duration_bin summaries were not built")
        # a group's own threshold where it holds min_group_size values
        for kind in dict.fromkeys(("duration_bin", group_kind)):
            g = groups[kind]
            own = np.where(g.counts >= min_group_size, g.thresholds(p), np.nan)
            own = np.append(own, np.nan)[summaries.rows(table, kind)]
            thr = np.where(np.isnan(own), thr, own)
    return (table.watch_time_s >= thr).astype(np.int8)


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
    # changes nothing; stays until the benchmark stops passing it (ROADMAP item 1)
    threads: int = 1


class LabelTable:
    """Columnar label output; a column is None when not requested."""

    def __init__(self, n: int, columns: dict[str, np.ndarray]):
        self.n = n
        for name in columns:
            if name not in LABELS:
                raise ConfigInvalid(f"unknown label column {name!r}")
        self.columns = {name: columns[name] for name in LABELS if name in columns}

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
    for name in config.enabled:
        if name not in LABELS:
            raise ConfigInvalid(f"unknown label {name!r}")
    _check_modes(config.tie_mode, config.summary_mode)
    specs = {name: LABELS[name] for name in config.enabled}

    needs_bins = any(spec.scope != "global" for spec in specs.values())
    if summaries is not None:
        if summaries.mode != config.summary_mode:
            raise ConfigInvalid(
                f"loaded summaries are {summaries.mode!r} but config asks for "
                f"{config.summary_mode!r}"
            )
        if summaries.mode == "sketch" and summaries.eps != config.eps_sketch:
            raise ConfigInvalid(
                f"loaded sketch summaries have eps {summaries.eps} but config asks for "
                f"{config.eps_sketch}"
            )
        if needs_bins and summaries.bins is None:
            raise ConfigInvalid("loaded summaries carry no duration bins")
        bins = summaries.bins if needs_bins else None
    elif needs_bins:
        bins = make_duration_bins(table, config.bins_b, config.bins_min_size)
    else:
        bins = None

    binary_kinds = {spec.scope: None for spec in specs.values() if spec.rule == "binary"}
    summary_kinds = tuple(k for k in binary_kinds if k != "global")
    if summaries is None and binary_kinds:
        summaries = build_grouped_summaries(
            table,
            bins=bins if summary_kinds else None,
            kinds=summary_kinds,
            mode=config.summary_mode,
            eps=config.eps_sketch,
        )

    columns: dict[str, np.ndarray] = {}
    for name, spec in specs.items():
        if spec.rule in ("rank", "equal_frequency"):
            partition = config.partition
            if spec.rule == "equal_frequency":
                partition = make_partition("equal_frequency", partition.n_groups)
            columns[name] = _rank_labels(
                table, partition, bins if spec.scope == "duration_bin" else None,
                config.tie_mode, config.summary_mode, config.eps_sketch,
            )
        elif spec.rule == "equal_width":
            columns[name] = label_equal_width_wpr(
                table, config.partition.n_groups, config.ew_cap_percentile
            )
        elif spec.rule == "playing_rate":
            columns[name] = label_playing_rate(table)
        else:
            columns[name] = label_binary(
                table, spec.percentile, spec.scope, summaries, config.min_group_size
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
    plain_eps = gs.eps if gs.mode == "sketch" else None
    entries = []
    for kind in sorted(gs.groups, key=_KIND_CODE.__getitem__):
        g = gs.groups[kind]
        code = struct.pack("<B", _KIND_CODE[kind])
        raw, bounds, keys = g.values.tobytes(), g.bounds.tolist(), g.keys.tolist()
        for i in sorted(range(len(keys)), key=lambda i: str(keys[i])):
            if kind == "duration_bin":
                head = code + struct.pack("<q", keys[i])
            elif kind == "global":
                head = code
            else:
                enc = keys[i].encode("utf-8")
                head = code + struct.pack("<I", len(enc)) + enc
            s = g.sketches.get(i)
            blob = (s.to_bytes() if s is not None
                    else plain_bytes(raw[8 * bounds[i] : 8 * bounds[i + 1]], plain_eps))
            entries += [head, struct.pack("<Q", len(blob)), blob]
    parts.append(struct.pack("<I", len(entries) // 3))
    atomic_write_bytes(path, b"".join(parts + entries))


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
    # per kind, key -> (real sketch or None, raw values, their offset)
    found: dict[str, dict] = {kind: {} for kind in GROUP_KINDS if kind in kinds}
    for _ in range(r.take("<I")[0]):
        at = r.pos
        kind = _read_kind(r)
        if kind not in kinds:
            raise r.fail(f"{kind} summary of a kind the file does not declare", at)
        if kind == "duration_bin":
            (key,) = r.take("<q")
            if not 0 <= key < n_bins:
                raise r.fail(f"duration-bin key {key} outside 0..{n_bins - 1}", at)
        elif kind == "global":
            key = None
        else:
            key = r.utf8(r.take("<I")[0])
        (size,) = r.take("<Q")
        start = r.pos
        entry_mode, s, raw, raw_at = read_summary(r, eps if mode == "sketch" else None)
        if (r.pos - start, entry_mode) != (size, mode):
            raise SerializationError(
                f"{path}: the {r.pos - start}-byte {entry_mode} summary at byte {start} "
                f"is stated as {size}-byte {mode}"
            )
        if key in found[kind]:
            raise r.fail(f"second summary for {GroupKey(kind, key)}", at)
        found[kind][key] = (s, raw, raw_at)
    r.end()
    needed = [GroupKey("global")]
    if "duration_bin" in kinds:
        needed += [GroupKey("duration_bin", b) for b in range(n_bins)]
    for key in needed:
        if key.key not in found.get(key.kind, ()):
            raise SerializationError(f"{path}: no summary for {key}")
    groups = {}
    for kind, got in found.items():
        entries = [got[key] for key in sorted(got)]
        values = np.frombuffer(b"".join(raw for _, raw, _ in entries), np.float64)
        if not _in_domain(values):
            for _, raw, at in got.values():  # name the kind's first bad value in the file
                checked_values(r, raw, at)
        sketches = {i: s for i, (s, _, _) in enumerate(entries) if s is not None}
        groups[kind] = _Groups(np.array(sorted(got)), [len(raw) // 8 for _, raw, _ in entries],
                               values, sketches, mode)
    return GroupedSummaries(groups, bins, mode, eps)


def _read_kind(r: Reader) -> str:
    (code,) = r.take("<B")
    if code >= len(GROUP_KINDS):
        raise r.fail(f"unknown group kind code {code}")
    return GROUP_KINDS[code]
