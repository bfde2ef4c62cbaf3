"""Traced mirrors of the wtlabel CLI commands.

Each handler parses the same argv with the CLI's own parser and config
resolution, then calls the same public functions of dataio, core,
labeling, learner, metrics and datagen as the command does, in the same
order, with a span around each call. The traced run compares every file
a mirror writes with the file the real command wrote, so a mirror that
drifts from the command it copies is reported as a failed check.

Input validation the commands do is left out: the untraced run of the
same argv has already passed it.
"""

from __future__ import annotations

import dataclasses
import os

import numpy as np

from wtlabel import cli
from wtlabel.core import as_table, make_duration_bins, make_partition
from wtlabel.datagen import SyntheticConfig, generate, oracle_rank_quality
from wtlabel.dataio import (
    read_interactions,
    read_labeled,
    read_truth,
    split_mask,
    write_interactions,
    write_labeled,
    write_report,
    write_trace,
    write_truth,
    write_variant_table,
)
from wtlabel.labeling import (
    EV_PERCENTILE,
    LV_PERCENTILE,
    LabelTable,
    build_grouped_summaries,
    label_binary,
    label_equal_width_wpr,
    label_playing_rate,
    label_wpr_debiased,
    label_wpr_global,
    load_grouped_summaries,
    save_grouped_summaries,
)
from wtlabel.learner import (
    Model,
    ModelArch,
    OptimizerConfig,
    build_train_data,
    build_wpr_inverse,
    init_model,
    load_model,
    predict_watch_time,
    resolve_tasks,
    save_model,
    score_records,
    train,
)
from wtlabel.metrics import EvalReport, auc, gauc_detail, regression_metrics

from tracer import Tracer

BINARY_SPEC = {
    "ev": (EV_PERCENTILE, "global"),
    "ev_d": (EV_PERCENTILE, "duration_bin"),
    "ev_v": (EV_PERCENTILE, "video"),
    "ev_u": (EV_PERCENTILE, "user"),
    "lv": (LV_PERCENTILE, "global"),
    "lv_d": (LV_PERCENTILE, "duration_bin"),
    "lv_v": (LV_PERCENTILE, "video"),
    "lv_u": (LV_PERCENTILE, "user"),
}
BINNED_LABELS = ("wpr_d", "ev_d", "ev_v", "ev_u", "lv_d", "lv_v", "lv_u", "ef_wpr")


@dataclasses.dataclass
class Fit:
    """One traced fit, kept for the per-step probes."""

    model: Model
    data: object
    opt: OptimizerConfig
    train_s: float


class Mirror:
    """Runs CLI argv through traced copies of the command handlers and
    keeps what the per-layer metrics need."""

    def __init__(self, tracer: Tracer):
        self.tr = tracer
        self.parser = cli.build_parser()
        self.bytes_read = 0
        self.bytes_written = 0
        self.summaries_bytes = 0
        self.checkpoint_bytes = 0
        self.built = []     # every GroupedSummaries built
        self.fits: list[Fit] = []
        self.first_label = None  # (table, bins, summaries) of the first labeling
        self.n_bins = 0

    def run(self, argv: list[str], root_tag: str = "") -> None:
        args = self.parser.parse_args(argv)
        with self.tr.span(f"cli.{args.command}", root_tag):
            config = cli.resolve_config(args)
            getattr(self, f"cmd_{args.command}")(args, config)

    # file io, counted

    def _read(self, fn, path: str, name: str):
        with self.tr.span(name):
            out = fn(path)
        self.bytes_read += os.path.getsize(path)
        return out

    def _write(self, fn, path: str, name: str, *args) -> int:
        with self.tr.span(name):
            fn(*args)
        size = os.path.getsize(path)
        self.bytes_written += size
        return size

    # commands

    def cmd_gen(self, args, config) -> None:
        per_user = config.interactions_per_user
        if args.records is not None:
            per_user = args.records // config.n_users
        syn = SyntheticConfig(
            n_users=config.n_users,
            n_videos=config.n_videos,
            interactions_per_user=per_user,
            latent_dim=config.latent_dim,
            mu_d=config.mu_d,
            s_d=0.0 if args.confound == "off" else config.s_d,
            sigma_d=0.0 if args.confound == "off" else config.sigma_d,
            d_min=config.d_min,
            d_max=config.d_max,
            alpha=config.alpha,
            beta=config.beta,
            sigma_y=config.sigma_y,
            confound_sign=config.confound_sign,
            seed=config.seed,
        )
        with self.tr.span("datagen.generate"):
            table, truth = generate(syn)
        os.makedirs(args.out, exist_ok=True)
        data_path = os.path.join(args.out, "interactions.csv")
        truth_path = os.path.join(args.out, "truth.csv")
        # set-up writes are not counted in dataio.bytes_written
        with self.tr.span("dataio.write_interactions"):
            write_interactions(data_path, table)
        with self.tr.span("dataio.write_truth"):
            write_truth(truth_path, truth)

    def cmd_label(self, args, config) -> None:
        table = self._read(read_interactions, args.input, "dataio.read_interactions")
        label_config = cli.build_label_config(config, no_debias=args.no_debias)
        summaries = None
        if args.summaries_in:
            summaries = self._read(
                load_grouped_summaries, args.summaries_in, "labeling.load_grouped_summaries"
            )
        labels, summaries, _ = self.label_all(table, label_config, summaries)
        self._write(write_labeled, args.output, "dataio.write_labeled",
                    args.output, table, labels.columns)
        if args.summaries_out and summaries is not None:
            self.summaries_bytes += self._write(
                save_grouped_summaries, args.summaries_out,
                "labeling.save_grouped_summaries", summaries, args.summaries_out,
            )

    def label_all(self, table, lc, summaries):
        """labeling.label_all_detailed, one span per public call."""
        span = self.tr.span
        enabled = tuple(dict.fromkeys(lc.enabled))
        needs_bins = any(name in enabled for name in BINNED_LABELS)
        if summaries is not None:
            bins = summaries.bins if needs_bins else None
        elif needs_bins:
            with span("core.make_duration_bins"):
                bins = make_duration_bins(table, lc.bins_b, lc.bins_min_size)
        else:
            bins = None
        kinds = tuple(dict.fromkeys(BINARY_SPEC[n][1] for n in enabled if n in BINARY_SPEC))
        summary_kinds = tuple(k for k in kinds if k != "global")
        if summary_kinds and "duration_bin" not in summary_kinds:
            summary_kinds = ("duration_bin",) + summary_kinds
        if summaries is None and any(n in BINARY_SPEC for n in enabled):
            with span("labeling.build_grouped_summaries", lc.summary_mode):
                summaries = build_grouped_summaries(
                    table,
                    bins=bins if summary_kinds else None,
                    kinds=summary_kinds,
                    mode=lc.summary_mode,
                    eps=lc.eps_sketch,
                    threads=lc.threads,
                )
            self.built.append(summaries)
        if bins is not None:
            self.n_bins = bins.n_bins
        if self.first_label is None:
            self.first_label = (table, bins, summaries)

        wpr_kw = dict(tie_mode=lc.tie_mode, mode=lc.summary_mode, eps=lc.eps_sketch)
        columns = {}
        for name in enabled:
            if name == "wpr":
                with span("labeling.label_wpr_global"):
                    columns[name] = label_wpr_global(table, lc.partition, **wpr_kw)
            elif name in ("wpr_d", "ef_wpr"):
                part = lc.partition
                if name == "ef_wpr":
                    part = make_partition("equal_frequency", lc.partition.n_groups)
                with span("labeling.label_wpr_debiased", name):
                    columns[name] = label_wpr_debiased(table, part, bins, **wpr_kw)
            elif name == "ew_wpr":
                with span("labeling.label_equal_width_wpr"):
                    columns[name] = label_equal_width_wpr(
                        table, lc.partition.n_groups, lc.ew_cap_percentile
                    )
            elif name == "playing_rate":
                with span("labeling.label_playing_rate"):
                    columns[name] = label_playing_rate(table)
            else:
                p, kind = BINARY_SPEC[name]
                with span("labeling.label_binary", name):
                    columns[name] = label_binary(table, p, kind, summaries, lc.min_group_size)
        return LabelTable(table.n, columns), summaries, bins

    def cmd_train(self, args, config) -> None:
        table, columns = self._read(read_labeled, args.input, "dataio.read_labeled")
        tasks = cli.parse_tasks(config.tasks)
        mask = split_mask(table.row_index, config.split_frac, config.split_seed)
        train_table = table.subset(mask)
        train_columns = {k: v[mask] for k, v in columns.items()}
        model, trace = self.fit("train", train_table, train_columns, tasks, config)
        self.checkpoint_bytes = self._write(
            save_model, args.model, "learner.save_model", model, args.model
        )
        if args.trace:
            self._write(write_trace, args.trace, "dataio.write_trace", args.trace, trace)

    def fit(self, tag, table, columns, tasks, config):
        """learner.fit, one span per public call."""
        span = self.tr.span
        arch = ModelArch(d_embed=config.d_embed, n_experts=config.n_experts, hidden=config.hidden)
        opt = OptimizerConfig(
            lr_embed=config.lr_embed,
            lr_dense=config.lr_dense,
            batch_size=config.batch_size,
            epochs=config.epochs,
            seed=config.train_seed,
        )
        with span("learner.fit", tag):
            table = as_table(table)
            full_columns = dict(columns)
            full_columns.setdefault("watch_time_s", table.watch_time_s)
            with span("learner.resolve_tasks"):
                resolved = resolve_tasks(tasks, full_columns)
            with span("core.make_duration_bins"):
                bins = make_duration_bins(table, config.bins_b, config.bins_min_size)
            user_index = {u: i for i, u in enumerate(sorted(set(table.user_id)))}
            video_index = {v: i for i, v in enumerate(sorted(set(table.video_id)))}
            rng = np.random.Generator(np.random.PCG64(opt.seed))
            with span("learner.init_model"):
                params = init_model(
                    arch, resolved, len(user_index), len(video_index), bins.n_bins, rng
                )
            model = Model(arch=arch, tasks=resolved, params=params,
                          user_index=user_index, video_index=video_index, bins=bins)
            with span("learner.build_train_data"):
                data = build_train_data(
                    table, full_columns, resolved, user_index, video_index, bins
                )
            with span("learner.train") as train_span:
                trace = train(model, data, opt, rng)
            for t in resolved:
                if t.kind in ("quantile", "ordinal"):
                    with span("learner.build_wpr_inverse"):
                        model.inverses[t.name] = build_wpr_inverse(
                            np.asarray(full_columns[t.target], dtype=np.float64),
                            table.watch_time_s,
                            data.bin_rows,
                            t.per_bin,
                            bins.n_bins,
                        )
        self.fits.append(Fit(model, data, opt, train_span.duration))
        return model, trace

    def cmd_eval(self, args, config) -> None:
        table, columns = self._read(read_labeled, args.input, "dataio.read_labeled")
        model = self._read(load_model, args.model, "learner.load_model")
        mask = split_mask(table.row_index, config.split_frac, config.split_seed)
        if args.split == "train":
            keep = mask
        elif args.split == "all":
            keep = np.ones(table.n, dtype=bool)
        else:
            keep = ~mask
        sub = table.subset(keep)
        sub_columns = {k: v[keep] for k, v in columns.items()}
        truth_m = None
        if args.truth:
            truth = self._read(read_truth, args.truth, "dataio.read_truth")
            truth_m = truth.m[sub.row_index]
        report = self.evaluate_model(model, sub, sub_columns, truth_m)
        self._write(write_report, args.report, "dataio.write_report",
                    args.report, report.rows())

    def evaluate_model(self, model, table, columns, truth_m) -> EvalReport:
        """cli.evaluate_model, one span per public call."""
        span = self.tr.span
        with span("cli.evaluate_model"):
            with span("learner.score_records"):
                scores = score_records(model, table)["fused"]
            ev = columns["ev"]
            lv = columns["lv"]
            with span("metrics.gauc_detail"):
                g_ev = gauc_detail(scores, ev, table.user_id)
            with span("metrics.gauc_detail"):
                g_lv = gauc_detail(scores, lv, table.user_id)
            reg_task = next((t.name for t in model.tasks if t.kind != "binary"), None)
            if reg_task is not None:
                with span("learner.predict_watch_time"):
                    predicted = predict_watch_time(model, table, reg_task)
                with span("metrics.regression_metrics"):
                    reg = regression_metrics(predicted, table.watch_time_s)
                mae, rmse, mape, n_mape_skipped = reg.mae, reg.rmse, reg.mape, reg.n_mape_skipped
            else:
                mae = rmse = mape = float("nan")
                n_mape_skipped = 0
            gauc_truth = None
            if truth_m is not None:
                with span("datagen.oracle_rank_quality"):
                    gauc_truth = oracle_rank_quality(scores, truth_m, table.user_id)
            with span("metrics.auc"):
                auc_ev = auc(scores, ev)
            with span("metrics.auc"):
                auc_lv = auc(scores, lv)
        return EvalReport(
            auc=auc_ev, gauc=g_ev.value, auc_lv=auc_lv, gauc_lv=g_lv.value,
            mae=mae, rmse=rmse, mape=mape, gauc_truth=gauc_truth,
            n_records=table.n,
            n_users_used=g_ev.n_users_used, n_users_skipped=g_ev.n_users_skipped,
            n_users_used_lv=g_lv.n_users_used, n_users_skipped_lv=g_lv.n_users_skipped,
            n_mape_skipped=n_mape_skipped,
        )

    def cmd_ablate(self, args, config) -> None:
        table = self._read(read_interactions, args.input, "dataio.read_interactions")
        truth = self._read(read_truth, args.truth, "dataio.read_truth")
        config = dataclasses.replace(config, ablation_labels=True)
        labels, _, _ = self.label_all(table, cli.build_label_config(config), None)
        columns = dict(labels.columns)
        mask = split_mask(table.row_index, config.split_frac, config.split_seed)
        train_table = table.subset(mask)
        train_columns = {k: v[mask] for k, v in columns.items()}
        eval_table = table.subset(~mask)
        eval_columns = {k: v[~mask] for k, v in columns.items()}
        eval_truth = truth.m[eval_table.row_index]
        rows = []
        for name, tasks in cli.ABLATE_VARIANTS:
            model, _ = self.fit(name, train_table, train_columns, tasks, config)
            r = self.evaluate_model(model, eval_table, eval_columns, eval_truth)
            rows.append((name, r.gauc_truth, r.auc, r.gauc, r.mae, r.rmse, r.mape))
        os.makedirs(args.out, exist_ok=True)
        out_path = os.path.join(args.out, "ablate.csv")
        self._write(write_variant_table, out_path, "dataio.write_variant_table",
                    out_path, cli.ABLATE_HEADER, rows)

