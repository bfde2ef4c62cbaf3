"""Command-line pipeline: generate, label, train, evaluate, ablate.

One flat key=value config file feeds every subcommand; CLI flags
override file values, and --print-config echoes the fully resolved
configuration before the command runs. All randomness flows from seeds
in the config, so reruns with identical inputs produce byte-identical
outputs.

Exit codes: 0 success, 2 configuration or input error, 1 internal
error.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import learner
from .core import ABLATION_LABELS, LABELS, STANDARD_LABELS, check_config, make_partition
from .dataio import (
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
from .datagen import SyntheticConfig, generate, oracle_rank_quality
from .errors import (
    ConfigInvalid,
    MissingLabelColumn,
    MissingTruthFile,
    PipelineError,
)
from .labeling import (
    LabelConfig,
    label_all_detailed,
    load_grouped_summaries,
    save_grouped_summaries,
)
from .learner import (
    Model,
    ModelArch,
    OptimizerConfig,
    TaskConfig,
    fit,
    load_model,
    save_model,
    score_and_predict,
)
from .metrics import EvalReport, auc, gauc_detail, regression_metrics, user_segments


@dataclass(frozen=True)
class PipelineConfig(SyntheticConfig):
    """Every tunable of the pipeline as a flat key set: the generator's
    keys and defaults of SyntheticConfig, then the rest.

    Field names double as config-file keys; unknown keys are rejected
    rather than ignored so typos cannot silently change a run.
    """

    # labeling
    partition_kind: str = "power_decay"
    n_groups: int = 300
    gamma: float = 0.5
    # valid over the default curve range: 1/(a k^2 + b k + c) rises and
    # stays within (0, 1] for k = 0..9
    coeff_a: float = 0.01
    coeff_b: float = -0.2
    coeff_c: float = 2.0
    curve_lo: float = 1.0
    curve_hi: float = 3600.0
    ratios: str = ""
    progressive: bool = False
    bins_b: int = 30
    bins_min_size: int = 20
    min_group_size: int = 10
    tie_mode: str = "distinct"
    summary_mode: str = "exact"
    eps_sketch: float = 0.005
    ablation_labels: bool = False
    ew_cap_percentile: float = 99.0
    # learner
    d_embed: int = 16
    n_experts: int = 3
    hidden: int = 32
    # Embedding rows see sparse, heavily averaged gradients, so their
    # stable learning rate is far above the dense layers'. These defaults
    # sit just under the divergence edge for the reference dataset and are
    # what the ablation table is produced with; the library-level
    # OptimizerConfig keeps smaller, conservative values.
    lr_embed: float = 64.0
    lr_dense: float = 0.08
    batch_size: int = 2048
    epochs: int = 50
    train_seed: int = 0
    tasks: str = "wpr_d:squared_error,ev_d:logistic,lv_d:logistic"
    # split
    split_frac: float = 0.9
    split_seed: int = 1


_FIELDS = {f.name: f for f in dataclasses.fields(PipelineConfig)}


def _parse_value(key: str, raw: str):
    f = _FIELDS[key]
    kind = type(f.default)
    raw = raw.strip()
    try:
        if kind is bool:
            low = raw.lower()
            if low in ("1", "true", "yes", "on"):
                return True
            if low in ("0", "false", "no", "off"):
                return False
            raise ValueError(raw)
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
        return raw
    except ValueError:
        raise ConfigInvalid(f"config key {key}: cannot parse {raw!r} as {kind.__name__}")


def load_config_file(path: str) -> dict[str, object]:
    if not os.path.exists(path):
        raise ConfigInvalid(f"config file not found: {path}")
    values: dict[str, object] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ConfigInvalid(f"{path} line {lineno}: expected key=value")
            key, _, raw = text.partition("=")
            key = key.strip()
            if key not in _FIELDS:
                raise ConfigInvalid(f"{path} line {lineno}: unknown key {key!r}")
            values[key] = _parse_value(key, raw)
    return values


def resolve_config(args: argparse.Namespace) -> PipelineConfig:
    """Defaults, then config file, then CLI flags."""
    values: dict[str, object] = {}
    if getattr(args, "config", None):
        values.update(load_config_file(args.config))
    for key in _FIELDS:
        flag = getattr(args, f"cfg_{key}", None)
        if flag is not None:
            values[key] = flag
    if getattr(args, "seed", None) is not None:
        values["seed"] = args.seed
        values.setdefault("train_seed", args.seed)
    config = PipelineConfig(**values)
    check_config(config)
    if getattr(args, "print_config", False):
        for key in sorted(_FIELDS):
            print(f"{key}={getattr(config, key)}")
    return config


def build_partition(config: PipelineConfig):
    kind = config.partition_kind
    ratios = None
    if config.ratios:
        try:
            ratios = [float(x) for x in config.ratios.split(",")]
        except ValueError:
            raise ConfigInvalid(f"cannot parse ratios {config.ratios!r}")
    return make_partition(
        kind,
        config.n_groups,
        gamma=config.gamma,
        coeffs=(config.coeff_a, config.coeff_b, config.coeff_c),
        curve_range=(config.curve_lo, config.curve_hi),
        ratios=ratios,
        progressive=config.progressive,
    )


def build_label_config(config: PipelineConfig, no_debias: bool = False) -> LabelConfig:
    enabled = STANDARD_LABELS + (ABLATION_LABELS if config.ablation_labels else ())
    return LabelConfig(
        partition=build_partition(config),
        bins_b=1 if no_debias else config.bins_b,
        bins_min_size=config.bins_min_size,
        min_group_size=config.min_group_size,
        tie_mode=config.tie_mode,
        summary_mode=config.summary_mode,
        eps_sketch=config.eps_sketch,
        enabled=enabled,
        ew_cap_percentile=config.ew_cap_percentile,
    )


def parse_tasks(spec: str) -> list[TaskConfig]:
    """Comma-separated target:loss[:weight] triples."""
    tasks = []
    for piece in spec.split(","):
        piece = piece.strip()
        if not piece:
            continue
        parts = piece.split(":")
        if len(parts) not in (2, 3):
            raise ConfigInvalid(
                f"task {piece!r}: expected target:loss or target:loss:weight"
            )
        weight = 1.0
        if len(parts) == 3:
            try:
                weight = float(parts[2])
            except ValueError:
                raise ConfigInvalid(f"task {piece!r}: bad weight {parts[2]!r}")
        if not 0 < weight < math.inf:
            finite = "finite and " if weight > 0 else ""
            raise ConfigInvalid(f"task {piece!r}: weight must be {finite}> 0")
        tasks.append(TaskConfig(target=parts[0], loss=parts[1], weight=weight))
    if not tasks:
        raise ConfigInvalid("no tasks configured")
    return tasks


# command implementations

def cmd_gen(args: argparse.Namespace, config: PipelineConfig) -> int:
    per_user = config.interactions_per_user
    n_users = config.n_users
    if args.records is not None:
        if args.records <= 0:
            raise ConfigInvalid("records must be positive")
        if args.records % n_users != 0:
            raise ConfigInvalid(
                f"records={args.records} is not a multiple of n_users={n_users}"
            )
        per_user = args.records // n_users
    off = args.confound == "off"
    table, truth = generate(dataclasses.replace(
        config,
        interactions_per_user=per_user,
        s_d=0.0 if off else config.s_d,
        sigma_d=0.0 if off else config.sigma_d,
    ))
    os.makedirs(args.out, exist_ok=True)
    data_path = os.path.join(args.out, "interactions.csv")
    truth_path = os.path.join(args.out, "truth.csv")
    write_interactions(data_path, table)
    write_truth(truth_path, truth)
    print(f"wrote {table.n} records to {data_path}")
    print(f"wrote ground truth to {truth_path}")
    return 0


def cmd_label(args: argparse.Namespace, config: PipelineConfig) -> int:
    label_config = build_label_config(config, no_debias=args.no_debias)
    # a --summaries-in file fixes the duration bins; bins_b from a config
    # file stays allowed, since train reads it too
    if args.summaries_in and (args.no_debias or args.cfg_bins_b is not None):
        flag = "--no-debias" if args.no_debias else "--bins"
        raise ConfigInvalid(
            f"{flag} conflicts with --summaries-in, whose file fixes the duration bins"
        )
    table = read_interactions(args.input)
    summaries = None
    if args.summaries_in:
        summaries = load_grouped_summaries(args.summaries_in)
    labels, summaries, _bins = label_all_detailed(table, label_config, summaries)
    write_labeled(args.output, table, labels.columns)
    if args.summaries_out and summaries is not None:
        save_grouped_summaries(summaries, args.summaries_out)
        print(f"wrote group summaries to {args.summaries_out}")
    print(f"wrote {table.n} labeled records to {args.output}")
    return 0


def _training_columns(columns: dict[str, np.ndarray], tasks: list[TaskConfig], path: str):
    for task in tasks:
        if task.target == "watch_time_s":
            continue
        col = columns.get(task.target)
        if col is None:
            raise MissingLabelColumn(
                f"{path}: no label column {task.target!r} for task "
                f"{task.resolved_name()!r}"
            )
        if np.isnan(col).any():
            raise MissingLabelColumn(
                f"{path}: label column {task.target!r} has empty cells"
            )


def _fit_with_config(
    table, columns: dict[str, np.ndarray], tasks: list[TaskConfig], config: PipelineConfig
):
    """learner.fit with the architecture, optimizer and bins of config."""
    arch = ModelArch(d_embed=config.d_embed, n_experts=config.n_experts, hidden=config.hidden)
    opt = OptimizerConfig(
        lr_embed=config.lr_embed,
        lr_dense=config.lr_dense,
        batch_size=config.batch_size,
        epochs=config.epochs,
        seed=config.train_seed,
    )
    return fit(table, columns, tasks, arch, opt, config.bins_b, config.bins_min_size)


def _split(table, columns: dict[str, np.ndarray], config: PipelineConfig, part: str):
    """The records of one part of the split, "train", "eval" or "all",
    and their label columns; an empty part is a config error."""
    mask = split_mask(table.row_index, config.split_frac, config.split_seed)
    keep = {"train": mask, "eval": ~mask, "all": mask | ~mask}[part]
    sub = table.subset(keep)
    if sub.n == 0:
        raise ConfigInvalid("training split is empty; raise split_frac" if part == "train"
                            else "eval split is empty; lower split_frac")
    return sub, {k: v[keep] for k, v in columns.items()}


def _check_truth_file(path: str) -> None:
    """Fail on a missing truth file before any input is parsed."""
    if not os.path.exists(path):
        raise MissingTruthFile(f"truth file not found: {path}")


def _truth_m(path: str, n: int) -> np.ndarray:
    """The latent interest m of the truth file, which must cover n records."""
    m = read_truth(path).m
    if len(m) < n:
        raise MissingTruthFile(f"{path}: {len(m)} truth rows for {n} records")
    return m


def cmd_train(args: argparse.Namespace, config: PipelineConfig) -> int:
    tasks = parse_tasks(config.tasks)
    table, columns = read_labeled(args.input)
    _training_columns(columns, tasks, args.input)
    train_table, train_columns = _split(table, columns, config, "train")
    model, trace = _fit_with_config(train_table, train_columns, tasks, config)
    save_model(model, args.model)
    if args.trace:
        write_trace(args.trace, trace)
    n_eval = int(table.n - train_table.n)
    print(
        f"trained on {train_table.n} records ({n_eval} held out), "
        f"{model.n_parameters()} parameters, {config.epochs} epochs"
    )
    print(f"wrote checkpoint to {args.model}")
    return 0


def evaluate_model(
    model: Model,
    table,
    columns: dict[str, np.ndarray],
    truth_m: Optional[np.ndarray] = None,
) -> EvalReport:
    """Ranking metrics from the fused score, regression metrics from
    the first task with a watch-time scale."""
    for name in ("ev", "lv"):
        if name not in columns or np.isnan(columns[name]).any():
            raise MissingLabelColumn(f"evaluation needs the {name!r} label column")
    reg_task = next((t.name for t in model.tasks if t.kind != "binary"), None)
    scored, predicted = score_and_predict(model, table, reg_task)
    scores = scored["fused"]
    ev = columns["ev"]
    lv = columns["lv"]
    groups = user_segments(table.user_id)
    g_ev = gauc_detail(scores, ev, table.user_id, groups)
    g_lv = gauc_detail(scores, lv, table.user_id, groups)
    if predicted is not None:
        reg = regression_metrics(predicted, table.watch_time_s)
        mae, rmse, mape = reg.mae, reg.rmse, reg.mape
        n_mape_skipped = reg.n_mape_skipped
    else:
        mae = rmse = mape = float("nan")
        n_mape_skipped = 0
    gauc_truth = None
    if truth_m is not None:
        gauc_truth = oracle_rank_quality(scores, truth_m, table.user_id, groups)
    return EvalReport(
        auc=auc(scores, ev),
        gauc=g_ev.value,
        auc_lv=auc(scores, lv),
        gauc_lv=g_lv.value,
        mae=mae,
        rmse=rmse,
        mape=mape,
        gauc_truth=gauc_truth,
        n_records=table.n,
        n_users_used=g_ev.n_users_used,
        n_users_skipped=g_ev.n_users_skipped,
        n_users_used_lv=g_lv.n_users_used,
        n_users_skipped_lv=g_lv.n_users_skipped,
        n_mape_skipped=n_mape_skipped,
    )


def cmd_eval(args: argparse.Namespace, config: PipelineConfig) -> int:
    if args.truth:
        _check_truth_file(args.truth)
    table, columns = read_labeled(args.input)
    model = load_model(args.model)
    for task in model.tasks:
        if task.target != "watch_time_s" and task.target not in columns:
            raise MissingLabelColumn(
                f"{args.input}: checkpoint task {task.name!r} was trained on "
                f"column {task.target!r}, absent here"
            )
    sub, sub_columns = _split(table, columns, config, args.split)
    truth_m = _truth_m(args.truth, table.n)[sub.row_index] if args.truth else None
    report = evaluate_model(model, sub, sub_columns, truth_m)
    write_report(args.report, report.rows())
    print(f"split={args.split} records={sub.n}")
    print(report.format_table())
    print(f"wrote report to {args.report}")
    return 0


# ablation matrix: variant name -> task list
ABLATE_VARIANTS: list[tuple[str, list[TaskConfig]]] = [
    (name, parse_tasks(spec)) for name, spec in [
        ("dml", PipelineConfig.tasks),
        ("wo_dg", "wpr:squared_error,ev:logistic,lv:logistic"),
        ("wo_wpr", "playing_rate:squared_error,ev_d:logistic,lv_d:logistic"),
        ("ef_wpr", "ef_wpr:squared_error,ev_d:logistic,lv_d:logistic"),
        ("ew_wpr", "ew_wpr:squared_error,ev_d:logistic,lv_d:logistic"),
        # single-task baselines; weights rescale gradients toward the
        # unit-scale multi-task runs (raw seconds, watch-second sample
        # weights, and hundreds of summed ordinal terms would otherwise
        # swamp or starve the shared layers)
        ("tr", "watch_time_s:squared_error:0.02"),
        ("wlr", "ev:weighted_logistic:0.05"),
        ("or", "wpr:ordinal_cumulative:0.1"),
        ("d2q", "ef_wpr:squared_error"),
    ]
]

ABLATE_HEADER = ("variant", "gauc_truth", "auc_ev", "gauc_ev", "mae", "rmse", "mape")


# the inputs every ablate worker shares: set once per worker process by
# _ablate_worker_init, which fork hands its arguments without pickling
_ablate_inputs: tuple = ()


def _ablate_worker_init(workers: int, *inputs) -> None:
    global _ablate_inputs
    _ablate_inputs = inputs
    learner._cpus = learner._lane_cpus() // workers


def _ablate_row(variant: int) -> tuple[str, float, float, float, float, float, float]:
    """Fit and score ABLATE_VARIANTS[variant] on the worker's inputs."""
    train_table, train_columns, eval_table, eval_columns, eval_truth, config = _ablate_inputs
    name, tasks = ABLATE_VARIANTS[variant]
    model, _ = _fit_with_config(train_table, train_columns, tasks, config)
    report = evaluate_model(model, eval_table, eval_columns, eval_truth)
    return (name, report.gauc_truth, report.auc, report.gauc,
            report.mae, report.rmse, report.mape)


def run_ablation(
    table,
    columns: dict[str, np.ndarray],
    truth_m: np.ndarray,
    config: PipelineConfig,
) -> list[tuple[str, float, float, float, float, float, float]]:
    """One row per ABLATE_VARIANTS entry, in that order.

    The recipes are independent and each is deterministic from its
    seed, so they run in one forked worker process per usable CPU; the
    rows are the same at any worker count. The ordinal recipe, whose
    head has one output per group boundary, starts first, so the
    slowest fit does not run alone at the end; the rest start in recipe
    order. Results are read in recipe order, so a failure raises the
    error of the first failing recipe, and the recipes not yet started
    are cancelled."""
    train_table, train_columns = _split(table, columns, config, "train")
    eval_table, eval_columns = _split(table, columns, config, "eval")
    eval_truth = truth_m[eval_table.row_index]
    inputs = (train_table, train_columns, eval_table, eval_columns, eval_truth, config)
    order = sorted(range(len(ABLATE_VARIANTS)), key=lambda i: not any(
        t.loss == "ordinal_cumulative" for t in ABLATE_VARIANTS[i][1]))
    workers = min(len(os.sched_getaffinity(0)), len(ABLATE_VARIANTS))
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                             initializer=_ablate_worker_init, initargs=(workers, *inputs)) as pool:
        futures = {i: pool.submit(_ablate_row, i) for i in order}
        try:
            return [futures[i].result() for i in range(len(ABLATE_VARIANTS))]
        except BaseException:
            # cancel the recipes not yet started, wait for the running ones
            pool.shutdown(cancel_futures=True)
            raise


def format_ablation(rows) -> str:
    lines = ["".join(f"{h:>12}" for h in ABLATE_HEADER)]
    for row in rows:
        cells = [f"{row[0]:>12}"] + [f"{v:>12.6f}" for v in row[1:]]
        lines.append("".join(cells))
    return "\n".join(lines)


def cmd_ablate(args: argparse.Namespace, config: PipelineConfig) -> int:
    # only the columns the recipes train on, and the ev and lv evaluate_model reads
    needed = {t.target for _, tasks in ABLATE_VARIANTS for t in tasks} | {"ev", "lv"}
    label_config = dataclasses.replace(
        build_label_config(config), enabled=tuple(n for n in LABELS if n in needed))
    if not args.truth:
        raise MissingTruthFile("ablation scoring needs --truth")
    _check_truth_file(args.truth)
    table = read_interactions(args.input)
    truth_m = _truth_m(args.truth, table.n)
    labels, _, _ = label_all_detailed(table, label_config)
    rows = run_ablation(table, dict(labels.columns), truth_m, config)
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, "ablate.csv")
    write_variant_table(out_path, ABLATE_HEADER, rows)
    print(format_ablation(rows))
    print(f"wrote ablation table to {out_path}")
    return 0


# argument wiring

def _add_config_flag(parser: argparse.ArgumentParser, key: str, flag: str, help_text: str):
    kind = type(_FIELDS[key].default)
    if kind is bool:
        parser.add_argument(
            flag, dest=f"cfg_{key}", action="store_const", const=True,
            default=None, help=help_text,
        )
    else:
        parser.add_argument(
            flag, dest=f"cfg_{key}", type=kind, default=None,
            metavar=key.upper(), help=help_text,
        )


def _global_flags(default) -> argparse.ArgumentParser:
    """A parent parser of the flags accepted both before and after the
    subcommand. The top level takes None defaults and each subcommand
    argparse.SUPPRESS, so a subparser does not clobber top-level values."""
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--config", default=default, help="flat key=value config file")
    parser.add_argument("--seed", type=int, default=default,
                        help="override data seed (and training seed)")
    parser.add_argument("--print-config", action="store_const", const=True, default=default,
                        help="echo the resolved config")
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wtlabel",
        description="Watch-time labeling pipeline: synthesize interaction "
        "data, compute debiased watch-time labels, train a small "
        "multi-task ranker, and evaluate it.",
        parents=[_global_flags(None)],
    )
    sub = parser.add_subparsers(dest="command", required=True)
    flags = [_global_flags(argparse.SUPPRESS)]

    p = sub.add_parser("gen", help="generate a synthetic interaction dataset", parents=flags)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--records", type=int, help="total records (multiple of n_users)")
    p.add_argument(
        "--confound", choices=("on", "off"), default="on",
        help="off forces s_d=0 and sigma_d=0",
    )
    _add_config_flag(p, "n_users", "--users", "number of users")
    _add_config_flag(p, "n_videos", "--videos", "number of videos")
    _add_config_flag(p, "interactions_per_user", "--per-user", "records per user")
    p.set_defaults(handler=cmd_gen)

    p = sub.add_parser("label", help="compute label columns for a dataset", parents=flags)
    p.add_argument("--input", required=True, help="interaction CSV")
    p.add_argument("--output", required=True, help="labeled CSV to write")
    p.add_argument("--no-debias", action="store_true", help="force a single duration bin")
    p.add_argument("--summaries-out", help="persist group summaries to this file")
    p.add_argument("--summaries-in", help="reuse previously persisted group summaries")
    _add_config_flag(p, "partition_kind", "--partition", "partition kind")
    _add_config_flag(p, "n_groups", "--groups", "number of rank groups")
    _add_config_flag(p, "gamma", "--gamma", "power_decay exponent")
    _add_config_flag(p, "bins_b", "--bins", "duration bin count")
    _add_config_flag(p, "tie_mode", "--tie-mode", "distinct or shared ranks for ties")
    _add_config_flag(p, "summary_mode", "--summary", "exact or sketch")
    _add_config_flag(p, "eps_sketch", "--eps", "sketch rank error budget")
    _add_config_flag(p, "ablation_labels", "--ablation-labels", "also emit ef_wpr/ew_wpr")
    p.set_defaults(handler=cmd_label)

    p = sub.add_parser("train", help="train the multi-task model", parents=flags)
    p.add_argument("--input", required=True, help="labeled CSV")
    p.add_argument("--model", required=True, help="checkpoint path to write")
    p.add_argument("--trace", help="loss trace CSV to write")
    _add_config_flag(p, "tasks", "--tasks", "target:loss[:weight], comma separated")
    _add_config_flag(p, "epochs", "--epochs", "training epochs")
    _add_config_flag(p, "batch_size", "--batch-size", "minibatch size")
    _add_config_flag(p, "train_seed", "--train-seed", "training seed")
    _add_config_flag(p, "split_frac", "--split-frac", "training fraction")
    _add_config_flag(p, "split_seed", "--split-seed", "split hash seed")
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint", parents=flags)
    p.add_argument("--input", required=True, help="labeled CSV")
    p.add_argument("--model", required=True, help="checkpoint path")
    p.add_argument("--report", required=True, help="report CSV to write")
    p.add_argument("--truth", help="generator truth CSV for gauc_truth")
    p.add_argument(
        "--split", choices=("train", "eval", "all"), default="eval",
        help="which split to evaluate",
    )
    _add_config_flag(p, "split_frac", "--split-frac", "training fraction")
    _add_config_flag(p, "split_seed", "--split-seed", "split hash seed")
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("ablate", help="run the labeling/loss ablation matrix", parents=flags)
    p.add_argument("--input", required=True, help="interaction CSV")
    p.add_argument("--truth", required=True, help="generator truth CSV")
    p.add_argument("--out", required=True, help="output directory")
    _add_config_flag(p, "n_groups", "--groups", "number of rank groups")
    _add_config_flag(p, "epochs", "--epochs", "training epochs")
    _add_config_flag(p, "train_seed", "--train-seed", "training seed")
    p.set_defaults(handler=cmd_ablate)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = resolve_config(args)
        return int(args.handler(args, config))
    except (PipelineError, OSError) as exc:
        # unreadable or unwritable paths are operational errors, same
        # class as bad flags, not internal failures
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - internal failure path
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
