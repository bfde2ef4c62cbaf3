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
    _nearest_rank,
    _validate_values,
    checked_values,
    make_summary,
    read_summary,
    sketch_capacity,
)


@dataclass(frozen=True)
class GroupKey:
    """Identifies one record group: the whole dataset, a duration bin
    (key = bin index), or a single video or user (key = id)."""

    kind: str
    key: object = None


class _Groups:
    """One group kind's summaries as columns. Group i has key keys[i] and
    counts[i] values, kept sorted in values[bounds[i]:bounds[i + 1]] for the
    nearest-rank gather. A sketch group that reached capacity is the real
    sketch sketches[i] instead, with an empty segment; a smaller one never
    compacts, so the order its values came in does not matter."""

    def __init__(self, keys, sizes, values, sketches):
        self.keys, self.values, self.sketches = keys, values, sketches
        self.bounds = np.concatenate(([0], np.cumsum(sizes, dtype=np.int64)))
        self.counts = np.array(sizes, dtype=np.int64)
        self.counts[list(sketches)] = [s.count for s in sketches.values()]
        seg = np.repeat(np.arange(len(keys)), sizes)
        if np.any((np.diff(values) < 0) & (np.diff(seg) == 0)):
            by_value = np.argsort(values)
            self.values = values[by_value[segments(seg[by_value], len(keys))[1]]]

    def thresholds(self, p: float) -> np.ndarray:
        """Every group's nearest-rank p-th percentile, NaN for an empty group."""
        sizes = np.diff(self.bounds)
        k = np.maximum(1, np.ceil(sizes * p / 100.0)).astype(np.int64)
        out = np.append(self.values, np.nan)[np.where(sizes > 0, self.bounds[:-1] + k - 1, -1)]
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
    # sorted; a sketch group keeps row order, which a real sketch's
    # compactions depend on, and _Groups sorts the others
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
        groups[kind] = _Groups(keys, sizes, wt[order], sketches)
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


# grouped-summary persistence: WLGS v2, one column block per group kind

_GROUPED_MAGIC = b"WLGS"
_GROUPED_VERSION = 2


def save_grouped_summaries(gs: GroupedSummaries, path: str) -> None:
    """Write gs as WLGS v2. The header holds the mode, the eps (0 for an
    exact file), a bit mask of the group kinds held (bit i for
    GROUP_KINDS[i]) and the duration bins. Each kind then follows in
    GROUP_KINDS order: its group count and real-sketch count; for
    video and user the byte lengths and UTF-8 text of the keys; every
    group's value count; each real sketch as (group index, WLQS bytes);
    and all values, group after group. Global and bin keys are implied."""
    n_bins = 0 if gs.bins is None else gs.bins.n_bins
    mask = sum(1 << GROUP_KINDS.index(kind) for kind in gs.groups)
    exact = gs.mode == "exact"
    parts = [struct.pack("<4sHBdBI", _GROUPED_MAGIC, _GROUPED_VERSION, int(not exact),
                         0.0 if exact else gs.eps, mask, n_bins)]
    if n_bins:
        parts += [gs.bins.boundaries.tobytes(), gs.bins.counts.tobytes()]
    for kind in sorted(gs.groups, key=GROUP_KINDS.index):
        g = gs.groups[kind]
        parts.append(struct.pack("<QQ", len(g.keys), len(g.sketches)))
        if kind in ("video", "user"):
            keys = [key.encode("utf-8") for key in g.keys.tolist()]
            parts += [np.array([len(key) for key in keys], np.int64).tobytes(), *keys]
        parts.append(np.diff(g.bounds).tobytes())
        for i in sorted(g.sketches):
            parts += [struct.pack("<Q", i), g.sketches[i].to_bytes()]
        parts.append(g.values.tobytes())
    atomic_write_bytes(path, b"".join(parts))


def load_grouped_summaries(path: str) -> GroupedSummaries:
    """Read a WLGS v2 file; any fault raises SerializationError naming its
    byte offset or the missing piece. Version 1 files are not read."""
    with open(path, "rb") as fh:
        r = Reader(fh.read(), path)
    if r.raw(4) != _GROUPED_MAGIC:
        raise SerializationError(f"{path}: not a grouped-summary file")
    version, mode_byte, eps, mask, n_bins = r.take("<HBdBI")
    if version != _GROUPED_VERSION:
        raise SerializationError(f"{path}: unsupported version {version}")
    if mode_byte not in (0, 1):
        raise r.fail(f"bad header: mode byte {mode_byte}", 6)
    mode = ("exact", "sketch")[mode_byte]
    if not (eps == 0 if mode == "exact" else 0 < eps < 0.5):
        raise r.fail(f"bad header: {mode} file with eps {eps}", 7)
    kinds = [kind for code, kind in enumerate(GROUP_KINDS) if mask >> code & 1]
    if mask >> len(GROUP_KINDS) or not mask & 1:
        raise r.fail(f"bad header: kind mask {mask:#b} lacks global or has unknown kinds", 15)
    bins = None
    if n_bins:
        try:
            bins = DurationBins(r.floats(n_bins), r.floats(n_bins, np.int64))
        except ValueError as exc:
            raise r.fail(str(exc), 20) from None
    if len(kinds) > 1 and (bins is None or "duration_bin" not in kinds):
        raise r.fail(f"{', '.join(kinds)} summaries need duration bins and the duration_bin "
                     "kind to fall back to", 15)
    groups = {}
    for kind in kinds:
        n, n_sketches = r.take("<QQ")
        need = {"global": 1, "duration_bin": n_bins}.get(kind, n)
        if n != need:
            raise r.fail(f"{n} {kind} groups where the file needs {need}")
        if n_sketches and mode == "exact":
            raise r.fail(f"{kind} block of an exact file holds {n_sketches} sketches")
        if kind in ("video", "user"):
            keys = _read_keys(r, n, kind)
        else:  # n was checked against the header above
            keys = np.array([None]) if kind == "global" else np.arange(n)
        sizes = _read_counts(r, n, f"{kind} group size")
        sketches = {}
        for _ in range(n_sketches):
            (i,) = r.take("<Q")
            if not (max(sketches, default=-1) < i < n and sizes[i] == 0):
                raise r.fail(f"sketch at {kind} group {i}, not an empty group after the last")
            at = r.pos
            s = read_summary(r)[0]
            if s is None or s.eps != eps:
                raise r.fail(f"{kind} group {i} holds no sketch of the file's eps {eps}", at)
            sketches[i] = s
        raw = r.raw(8 * int(sizes.sum()))
        groups[kind] = _Groups(keys, sizes, checked_values(r, raw, r.start), sketches)
    r.end()
    return GroupedSummaries(groups, bins, mode, eps)


def _read_counts(r: Reader, n: int, what: str) -> np.ndarray:
    """n int64 counts, each in 0..len(file); the first outside fails at its offset."""
    sizes = r.floats(n, np.int64)
    bad = np.flatnonzero((sizes < 0) | (sizes > len(r.blob)))
    if bad.size:
        raise r.fail(f"{what} {sizes[bad[0]]} outside 0..{len(r.blob)}", r.start + 8 * bad[0])
    return sizes


def _read_keys(r: Reader, n: int, kind: str) -> np.ndarray:
    """n UTF-8 keys, stored as their byte lengths and then their text;
    they must ascend strictly."""
    lengths = _read_counts(r, n, f"{kind} key length")
    at = r.pos
    keys = np.array([r.utf8(k) for k in lengths.tolist()], dtype=str)
    bad = np.flatnonzero(keys[1:] <= keys[:-1])
    if bad.size:
        i = bad[0] + 1
        raise r.fail(f"{kind} key {keys[i]!r} does not follow {keys[i - 1]!r}",
                     at + int(lengths[:i].sum()))
    return keys
