"""Per-layer metrics of the traced run.

The layers are the modules under src/wtlabel/. Every metric is taken
from outside the program: from spans the mirrors put around public
calls, from files the commands wrote, or from public objects the calls
returned. A layer a workload does not run reports 0.

Imports nothing outside the standard library at module level, so the
smoke check can compare PER_LAYER with BENCHMARK.json cheaply.
"""

from __future__ import annotations

import math
import struct

from tracer import Span, children_of, covered, self_times

MODULES = ("datagen", "dataio", "core", "labeling", "learner", "metrics", "cli")
BINARY_COLUMNS = ("ev", "ev_d", "ev_v", "ev_u", "lv", "lv_d", "lv_v", "lv_u")
VARIANTS = ("dml", "wo_dg", "wo_wpr", "ef_wpr", "ew_wpr", "tr", "wlr", "or", "d2q")
COMMANDS = ("gen", "label", "train", "eval", "ablate")

# (metric, unit, span name, span tag); span-summed times first
_SPAN_TIMES = [
    ("datagen.generate_s", "datagen.generate", None),
    ("datagen.oracle_rank_quality_s", "datagen.oracle_rank_quality", None),
    ("dataio.read_interactions_s", "dataio.read_interactions", None),
    ("dataio.write_interactions_s", "dataio.write_interactions", None),
    ("dataio.write_labeled_s", "dataio.write_labeled", None),
    ("dataio.read_labeled_s", "dataio.read_labeled", None),
    ("dataio.read_truth_s", "dataio.read_truth", None),
    ("core.make_duration_bins_s", "core.make_duration_bins", None),
    ("labeling.build_grouped_summaries_s.exact", "labeling.build_grouped_summaries", "exact"),
    ("labeling.build_grouped_summaries_s.sketch", "labeling.build_grouped_summaries", "sketch"),
    ("labeling.label_wpr_global_s", "labeling.label_wpr_global", None),
    ("labeling.label_wpr_debiased_s", "labeling.label_wpr_debiased", None),
    *[(f"labeling.label_binary_s.{c}", "labeling.label_binary", c) for c in BINARY_COLUMNS],
    ("labeling.label_playing_rate_s", "labeling.label_playing_rate", None),
    ("labeling.label_equal_width_wpr_s", "labeling.label_equal_width_wpr", None),
    ("labeling.save_grouped_summaries_s", "labeling.save_grouped_summaries", None),
    ("labeling.load_grouped_summaries_s", "labeling.load_grouped_summaries", None),
    ("learner.build_train_data_s", "learner.build_train_data", None),
    ("learner.train_s", "learner.train", None),
    ("learner.fit_s", "learner.fit", None),
    *[(f"learner.fit_s.{v}", "learner.fit", v) for v in VARIANTS],
    ("learner.score_records_s", "learner.score_records", None),
    ("learner.predict_watch_time_s", "learner.predict_watch_time", None),
    ("learner.save_model_s", "learner.save_model", None),
    ("learner.load_model_s", "learner.load_model", None),
    ("metrics.auc_s", "metrics.auc", None),
    ("metrics.gauc_detail_s", "metrics.gauc_detail", None),
    ("metrics.regression_metrics_s", "metrics.regression_metrics", None),
    ("cli.evaluate_model_s", "cli.evaluate_model", None),
]

# (metric, unit, better); for workload properties and fixed counts the
# direction is nominal
PER_LAYER: list[tuple[str, str, str]] = [
    *[(name, "s", "lower") for name, _, _ in _SPAN_TIMES],
    ("dataio.bytes_read", "bytes", "lower"),
    ("dataio.bytes_written", "bytes", "lower"),
    ("core.n_bins", "count", "higher"),
    ("labeling.n_summaries", "count", "lower"),
    ("labeling.summaries_bytes", "bytes", "lower"),
    ("quantile.values_inserted", "count", "lower"),
    ("quantile.values_retained", "count", "lower"),
    ("quantile.retained_frac", "fraction", "lower"),
    ("learner.steps", "count", "lower"),
    ("learner.samples_per_s", "1/s", "higher"),
    ("learner.forward_s_per_step", "s", "lower"),
    ("learner.step_rest_s_per_step", "s", "lower"),
    ("learner.flop_per_step", "flop", "lower"),
    ("learner.gflop_per_s", "GFLOP/s", "higher"),
    ("learner.checkpoint_bytes", "bytes", "lower"),
    *[(f"cli.{c}.self_s", "s", "lower") for c in COMMANDS],
    ("cli.child_coverage", "fraction", "higher"),
    *[(f"share.{m}", "fraction", "lower") for m in MODULES],
    ("trace.overhead_frac", "fraction", "lower"),
    ("props.sparse_video_frac", "fraction", "higher"),
    ("props.sparse_user_frac", "fraction", "higher"),
    ("props.groups.video", "count", "higher"),
    ("props.groups.user", "count", "higher"),
    ("props.groups.duration_bin", "count", "higher"),
    ("props.bin_occupancy_min", "count", "higher"),
    ("props.bin_occupancy_max", "count", "higher"),
]


def retained_values(blob: bytes) -> int:
    """Stored values in one serialized WLQS summary (exact or sketch).

    Reads the version 1 layout: a 15-byte header (magic, u16 version,
    u8 mode, u64 count), then for exact a u64 size and the values, for
    sketch (f64 eps, u32 capacity, u32 levels) and per level a 9-byte
    header and the values.
    """
    magic, version, mode = struct.unpack_from("<4sHB", blob)
    if (magic, version) != (b"WLQS", 1):
        raise ValueError(f"WLQS layout {magic!r} v{version} unknown to retained_values")
    if mode == 0:
        return (len(blob) - 15 - 8) // 8
    (n_levels,) = struct.unpack_from("<I", blob, 15 + 12)
    return (len(blob) - 15 - 16 - 9 * n_levels) // 8


def flop_per_sample(model) -> int:
    """Matmul FLOPs of one forward pass for one record.

    Experts: two dense layers each; gates: one (3d -> E) layer per task;
    mixture: E*H multiply-adds per task; heads: H*n_out per task.
    """
    a = model.arch
    d_in = 3 * a.d_embed
    experts = a.n_experts * (d_in * a.hidden + a.hidden * a.hidden)
    tasks = sum(d_in * a.n_experts + a.n_experts * a.hidden + a.hidden * t.n_out
                for t in model.tasks)
    return 2 * (experts + tasks)


def _root_of(spans: list[Span]) -> dict[int, Span]:
    by_id = {s.id: s for s in spans}
    out = {}
    for s in spans:
        r = s
        while r.parent is not None:
            r = by_id[r.parent]
        out[s.id] = r
    return out


def compute(spans: list[Span], mirror, untraced_s: float, forward_s: float) -> dict[str, float]:
    """Every PER_LAYER metric from the spans and the mirror's state.

    untraced_s is the wall time of the same commands run untraced;
    forward_s the time public forward took over one epoch of the first
    fit's batches.
    """
    out: dict[str, float] = {}
    for name, span_name, tag in _SPAN_TIMES:
        out[name] = sum(s.duration for s in spans
                        if s.name == span_name and (tag is None or s.tag == tag))

    out["dataio.bytes_read"] = mirror.bytes_read
    out["dataio.bytes_written"] = mirror.bytes_written
    out["core.n_bins"] = mirror.n_bins
    out["labeling.n_summaries"] = sum(len(gs.summaries) for gs in mirror.built)
    out["labeling.summaries_bytes"] = mirror.summaries_bytes
    # sketch builds only: an exact summary always retains every value
    inserted = retained = 0
    for gs in mirror.built:
        if gs.mode != "sketch":
            continue
        for s in gs.summaries.values():
            inserted += s.count
            retained += retained_values(s.to_bytes())
    out["quantile.values_inserted"] = inserted
    out["quantile.values_retained"] = retained
    out["quantile.retained_frac"] = retained / inserted if inserted else 0.0

    steps = samples = 0
    train_s = 0.0
    for f in mirror.fits:
        per_epoch = math.ceil(f.data.n / f.opt.batch_size)
        steps += f.opt.epochs * per_epoch
        samples += f.opt.epochs * f.data.n
        train_s += f.train_s
    out["learner.steps"] = steps
    out["learner.samples_per_s"] = samples / train_s if train_s else 0.0
    for key in ("learner.forward_s_per_step", "learner.step_rest_s_per_step",
                "learner.flop_per_step", "learner.gflop_per_s"):
        out[key] = 0.0
    if mirror.fits:
        f = mirror.fits[0]
        per_epoch = math.ceil(f.data.n / f.opt.batch_size)
        fwd = forward_s / per_epoch
        out["learner.forward_s_per_step"] = fwd
        out["learner.step_rest_s_per_step"] = f.train_s / (f.opt.epochs * per_epoch) - fwd
        # backward costs two matmuls per forward matmul
        flop = 3 * flop_per_sample(f.model) * f.data.n / per_epoch
        out["learner.flop_per_step"] = flop
        out["learner.gflop_per_s"] = flop * f.opt.epochs * per_epoch / f.train_s / 1e9
    out["learner.checkpoint_bytes"] = mirror.checkpoint_bytes

    selfs = self_times(spans)
    kids = children_of(spans)
    roots = [s for s in spans if s.parent is None and s.name.startswith("cli.")]
    for c in COMMANDS:
        out[f"cli.{c}.self_s"] = sum(selfs[s.id] for s in roots if s.name == f"cli.{c}")
    out["cli.child_coverage"] = min(
        covered(r, kids.get(r.id, [])) / r.duration for r in roots
    )
    commands = [r for r in roots if r.name != "cli.gen"]
    command_ids = {r.id for r in commands}
    total = sum(r.duration for r in commands)
    root = _root_of(spans)
    for m in MODULES:
        out[f"share.{m}"] = sum(
            selfs[s.id] for s in spans
            if root[s.id].id in command_ids and s.name.split(".", 1)[0] == m
        ) / total
    out["trace.overhead_frac"] = (total - untraced_s) / untraced_s
    out.update(properties(mirror))
    return out


def properties(mirror) -> dict[str, float]:
    """Workload properties from the first labeling's table, bins and
    summaries: the share of records in entities below min_group_size,
    the group count per kind, and duration-bin occupancy."""
    import numpy as np

    from wtlabel.cli import PipelineConfig

    table, bins, summaries = mirror.first_label
    min_size = PipelineConfig().min_group_size
    out = {}
    for kind, ids in (("video", table.video_id), ("user", table.user_id)):
        _, inverse, counts = np.unique(np.asarray(ids), return_inverse=True, return_counts=True)
        out[f"props.sparse_{kind}_frac"] = float(np.mean(counts[inverse] < min_size))
    for kind in ("video", "user", "duration_bin"):
        out[f"props.groups.{kind}"] = sum(1 for k in summaries.summaries if k.kind == kind)
    out["props.bin_occupancy_min"] = int(bins.counts.min())
    out["props.bin_occupancy_max"] = int(bins.counts.max())
    return out
