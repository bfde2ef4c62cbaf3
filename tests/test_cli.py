"""Command-line pipeline: flags, config files, exit codes, artifact bytes."""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import multiprocessing
import os
import signal
import struct
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wtlabel
import wtlabel.cli as cli
import wtlabel.learner as learner
from wtlabel.cli import (
    ABLATE_VARIANTS,
    PipelineConfig,
    build_label_config,
    build_parser,
    evaluate_model,
    main,
    parse_tasks,
    resolve_config,
    run_ablation,
)
from wtlabel.core import BINARY_LABELS, InteractionTable, make_partition
from wtlabel.datagen import SyntheticConfig, generate, oracle_rank_quality
from wtlabel.dataio import (
    INTERACTION_HEADER,
    read_interactions,
    read_labeled,
    read_truth,
    split_mask,
    write_interactions,
)
from wtlabel.errors import ConfigInvalid, NoEligibleUsers
from wtlabel.labeling import LabelConfig, label_all, label_all_detailed, load_grouped_summaries
from wtlabel.learner import (
    ModelArch,
    OptimizerConfig,
    TaskConfig,
    WprInverse,
    fit,
    load_model,
    predict_watch_time,
    resolve_tasks,
    save_model,
    score_records,
)
from wtlabel.metrics import EvalReport, auc, gauc_detail, regression_metrics

SMALL_GEN = ["--users", "40", "--videos", "120", "--per-user", "25"]
SMOKE_TRAIN_CFG = "\n".join(
    [
        "# gentle settings so tiny smoke datasets train stably",
        "lr_embed = 1.0",
        "lr_dense = 0.02",
        "batch_size = 256",
        "epochs = 2",
    ]
)


def run(argv) -> int:
    return main([str(a) for a in argv])


def gen_small(out_dir, extra=()):
    assert run(["gen", "--out", out_dir, *SMALL_GEN, *extra]) == 0
    return f"{out_dir}/interactions.csv", f"{out_dir}/truth.csv"


def read_bytes(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


# --------------------------------------------------------------------- gen


def test_gen_is_deterministic(tmp_path):
    a, ta = gen_small(tmp_path / "a")
    b, tb = gen_small(tmp_path / "b")
    assert read_bytes(a) == read_bytes(b)
    assert read_bytes(ta) == read_bytes(tb)


def test_gen_seed_changes_output(tmp_path):
    a, _ = gen_small(tmp_path / "a")
    b, _ = gen_small(tmp_path / "b", extra=["--seed", "7"])
    c, _ = gen_small(tmp_path / "c", extra=["--seed", "7"])
    assert read_bytes(a) != read_bytes(b)
    assert read_bytes(b) == read_bytes(c)


def test_gen_records_flag_divides_per_user(tmp_path):
    out = tmp_path / "d"
    assert run(["gen", "--out", out, "--users", "30", "--videos", "100",
                "--records", "600"]) == 0
    table = read_interactions(str(out / "interactions.csv"))
    assert table.n == 600
    assert len(set(table.user_id)) == 30


def test_gen_rejects_bad_records(tmp_path, capsys):
    assert run(["gen", "--out", tmp_path / "x", "--records", "0"]) == 2
    assert "error:" in capsys.readouterr().err
    assert run(["gen", "--out", tmp_path / "x", "--users", "30",
                "--records", "7"]) == 2
    assert "multiple" in capsys.readouterr().err


def test_gen_confound_off_freezes_duration(tmp_path):
    out = tmp_path / "flat"
    assert run(["gen", "--out", out, *SMALL_GEN, "--confound", "off"]) == 0
    table = read_interactions(str(out / "interactions.csv"))
    assert np.unique(table.duration_s).size == 1


# ------------------------------------------------------------------ config


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("jitter = 3\n")
    assert run(["gen", "--out", tmp_path / "x", "--config", cfg]) == 2
    assert "unknown key" in capsys.readouterr().err


def test_threads_is_neither_a_flag_nor_a_config_key(tmp_path, capsys):
    data = tmp_path / "in.csv"  # both are refused before the input is read
    with pytest.raises(SystemExit) as exc:
        run(["label", "--input", data, "--output", tmp_path / "a.csv", "--threads", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads" in capsys.readouterr().err
    cfg = tmp_path / "threads.cfg"
    cfg.write_text("threads = 2\n")
    assert run(["label", "--input", data, "--output", tmp_path / "b.csv", "--config", cfg]) == 2
    assert "unknown key 'threads'" in capsys.readouterr().err


def test_malformed_config_value_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("n_groups = many\n")
    assert run(["gen", "--out", tmp_path / "x", "--config", cfg]) == 2
    assert "cannot parse" in capsys.readouterr().err


def test_print_config_reports_resolved_values(tmp_path, capsys):
    cfg = tmp_path / "n.cfg"
    cfg.write_text("n_groups = 50\n")
    out = tmp_path / "g"
    assert run(["gen", "--out", out, *SMALL_GEN, "--config", cfg,
                "--print-config"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "n_groups=50" in lines
    assert "partition_kind=power_decay" in lines
    assert "seed=42" in lines


# every key of a plain gen's --print-config, with its default value
DEFAULT_CONFIG_LINES = [
    "ablation_labels=False",
    "alpha=2.0",
    "batch_size=2048",
    "beta=-0.5",
    "bins_b=30",
    "bins_min_size=20",
    "coeff_a=0.01",
    "coeff_b=-0.2",
    "coeff_c=2.0",
    "confound_sign=1.0",
    "curve_hi=3600.0",
    "curve_lo=1.0",
    "d_embed=16",
    "d_max=600.0",
    "d_min=5.0",
    "epochs=50",
    "eps_sketch=0.005",
    "ew_cap_percentile=99.0",
    "gamma=0.5",
    "hidden=32",
    "interactions_per_user=200",
    "latent_dim=8",
    "lr_dense=0.08",
    "lr_embed=64.0",
    "min_group_size=10",
    "mu_d=3.5",
    "n_experts=3",
    "n_groups=300",
    "n_users=500",
    "n_videos=2000",
    "partition_kind=power_decay",
    "progressive=False",
    "ratios=",
    "s_d=1.0",
    "seed=42",
    "sigma_d=0.3",
    "sigma_y=0.5",
    "split_frac=0.9",
    "split_seed=1",
    "summary_mode=exact",
    "tasks=wpr_d:squared_error,ev_d:logistic,lv_d:logistic",
    "tie_mode=distinct",
    "train_seed=0",
]


def test_print_config_reports_every_key_and_default(tmp_path, capsys):
    out = tmp_path / "g"
    assert run(["gen", "--out", out, "--print-config"]) == 0
    assert capsys.readouterr().out.splitlines() == DEFAULT_CONFIG_LINES + [
        f"wrote 100000 records to {out}/interactions.csv",
        f"wrote ground truth to {out}/truth.csv",
    ]


# each subcommand's required flags, which parse_args alone never opens
REQUIRED_FLAGS = {
    "gen": ["--out", "o"],
    "label": ["--input", "i.csv", "--output", "l.csv"],
    "train": ["--input", "l.csv", "--model", "m.bin"],
    "eval": ["--input", "l.csv", "--model", "m.bin", "--report", "r.csv"],
    "ablate": ["--input", "i.csv", "--truth", "t.csv", "--out", "o"],
}


@pytest.mark.parametrize("command", REQUIRED_FLAGS)
def test_global_flags_resolve_alike_before_and_after_every_subcommand(tmp_path, capsys, command):
    cfg = tmp_path / "g.cfg"
    cfg.write_text("n_groups = 50\n")
    flags = [["--config", str(cfg)], ["--seed", "9"], ["--print-config"]]
    results = set()
    for after in range(8):  # bit i: flags[i] goes after the subcommand
        before = [f for i, pair in enumerate(flags) if not after >> i & 1 for f in pair]
        behind = [f for i, pair in enumerate(flags) if after >> i & 1 for f in pair]
        config = resolve_config(build_parser().parse_args(
            [*before, command, *REQUIRED_FLAGS[command], *behind]))
        results.add((config, capsys.readouterr().out))
    assert len(results) == 1  # one config and printout wherever each flag goes
    (config, out), = results
    assert (config.n_groups, config.seed, config.train_seed) == (50, 9, 9)
    assert out.splitlines() == [f"{key}={getattr(config, key)}"
                                for key in sorted(PipelineConfig.__dataclass_fields__)]


def test_global_flags_accepted_before_subcommand(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert run(["--seed", "9", "gen", "--out", a, *SMALL_GEN]) == 0
    assert run(["gen", "--out", b, *SMALL_GEN, "--seed", "9"]) == 0
    assert read_bytes(a / "interactions.csv") == read_bytes(b / "interactions.csv")


def test_config_range_validation(tmp_path, capsys):
    cfg = tmp_path / "r.cfg"
    cfg.write_text("n_groups = 0\n")
    assert run(["gen", "--out", tmp_path / "x", "--config", cfg]) == 2
    assert "n_groups" in capsys.readouterr().err


@pytest.mark.parametrize("argv,config,message", [
    (["gen", "--seed", "-1"], "", "seed must be >= 0"),
    (["gen", "--users", "0", "--records", "10"], "", "n_users must be >= 1"),
    (["train"], "train_seed = -3\n", "train_seed must be >= 0"),
    (["train"], "split_seed = -1\n", "split_seed must lie in"),
    (["train"], f"split_seed = {2**64}\n", "split_seed must lie in"),
    (["gen"], "alpha = nan\n", "alpha must not be NaN"),
    (["train"], "lr_dense = nan\n", "lr_dense must not be NaN"),
    (["label"], "partition_kind = log_quadratic\ncurve_hi = inf\n",
     r"curve range (1.0, inf) is not a finite"),
    (["gen"], "d_min = 1e-9\nmu_d = -100\n", "d_min must be >= 0.001"),
    (["gen"], "mu_d = 1e3\nd_max = inf\n", "d_max must lie in [0.001, 1e300]"),
    (["gen"], "mu_d = 1e3\nd_max = 1e306\n", "d_max must lie in [0.001, 1e300]"),
    (["train"], "lr_embed = inf\n", "lr_embed must be finite"),
    (["train"], "tasks = wpr_d:squared_error:nan\n", "weight must be > 0"),
], ids=["seed", "n_users", "train_seed", "split_seed", "split_seed_2_64", "alpha_nan",
        "lr_dense_nan", "curve_hi_inf", "d_min_below_csv_precision", "d_max_inf", "d_max_huge",
        "lr_embed_inf", "task_weight_nan"])
def test_out_of_domain_config_exits_2_naming_the_key(small_run, tmp_path, capsys, argv,
                                                      config, message):
    paths = {"gen": ["--out", tmp_path / "g"],
             "label": ["--input", small_run["data"], "--output", tmp_path / "l.csv"],
             "train": ["--input", small_run["labeled"], "--model", tmp_path / "m.bin"]}
    cfg = tmp_path / "c.cfg"
    cfg.write_text(config)
    assert run([*argv, *paths[argv[0]], "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "g").exists() and not (tmp_path / "m.bin").exists()


@pytest.mark.parametrize("config", ["eps_sketch = 0.7\n", "gamma = -1\n"])
def test_config_error_comes_before_a_missing_input(tmp_path, capsys, config):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(config)
    argv = ["label", "--input", tmp_path / "missing.csv", "--output", tmp_path / "l.csv"]
    assert run([*argv, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config.split()[0]} must") and "missing.csv" not in err


def test_a_config_file_that_is_not_utf8_exits_2_naming_the_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"seed = 1\nn_users = 1\xff0\n")
    assert run(["gen", "--out", tmp_path / "x", "--config", cfg]) == 2
    assert capsys.readouterr().err == f"error: {cfg} line 2: text is not UTF-8\n"
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command", ["label", "ablate"])
def test_ratios_without_an_explicit_partition_exit_2_before_the_input(tmp_path, capsys, command):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("ratios = 0.7,0.3\n")
    missing = tmp_path / "missing.csv"
    argv = {"label": ["--output", tmp_path / "l.csv"],
            "ablate": ["--truth", tmp_path / "t.csv", "--out", tmp_path / "a"]}[command]
    assert run([command, "--input", missing, *argv, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "ratios" in err and "partition_kind is 'power_decay'" in err
    assert "missing.csv" not in err and "t.csv" not in err


def test_ratios_with_an_explicit_partition_still_label(small_run, tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("partition_kind = explicit\nn_groups = 2\nratios = 0.7,0.3\n")
    out = tmp_path / "l.csv"
    assert run(["label", "--input", small_run["data"], "--output", out, "--config", cfg]) == 0
    assert read_labeled(str(out))[0].n == 1000
    config = PipelineConfig(partition_kind="explicit", n_groups=2, ratios="0.7,0.3")
    assert np.allclose(build_label_config(config).partition.ratios, [0.7, 0.3])


# toy sizes for the fuzz below, given in the config file so that the drawn
# key overrides them there
FUZZ_TOY = {"n_users": 12, "n_videos": 30, "interactions_per_user": 10, "n_groups": 8,
            "bins_b": 3, "bins_min_size": 5, "min_group_size": 3, "d_embed": 4,
            "n_experts": 2, "hidden": 4, "epochs": 2, "batch_size": 64,
            "lr_embed": 1.0, "lr_dense": 0.02}
NUMERIC_KEYS = [f.name for f in dataclasses.fields(PipelineConfig)
                if type(f.default) in (int, float)]
# a huge value of these allocates or runs for real before any input is read
SIZE_KEYS = {"n_groups", "n_users", "n_videos", "latent_dim", "d_embed", "n_experts",
             "hidden", "epochs"}
HUGE = {int: str(10**20), float: "1e308"}


def _config_text(values) -> str:
    return "".join(f"{k} = {v}\n" for k, v in values.items())


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    cfg = root / "toy.cfg"
    cfg.write_text(_config_text(FUZZ_TOY))
    assert run(["gen", "--out", root, "--config", cfg]) == 0
    data, truth, labeled, model = (root / n for n in
                                   ("interactions.csv", "truth.csv", "labeled.csv", "m.bin"))
    assert run(["label", "--input", data, "--output", labeled, "--config", cfg]) == 0
    assert run(["train", "--input", labeled, "--model", model, "--config", cfg]) == 0
    return {"gen": [], "label": ["--input", data], "train": ["--input", labeled],
            "eval": ["--input", labeled, "--model", model],
            "ablate": ["--input", data, "--truth", truth]}


# hypothesis stops early once it has drawn every key and value pair
@pytest.mark.parametrize("command", ["gen", "label", "train", "eval", "ablate"])
@settings(deadline=None, max_examples=400)
@given(data=st.data())
def test_cli_fuzz_one_bad_value_exits_0_or_2(fuzz_inputs, command, data):
    key = data.draw(st.sampled_from(NUMERIC_KEYS))
    kind = type(PipelineConfig.__dataclass_fields__[key].default)
    value = data.draw(st.sampled_from(["-1", "0", "nan", "inf", "-inf", HUGE[kind]]))
    with tempfile.TemporaryDirectory() as d:
        cfg = Path(d) / "c.cfg"
        cfg.write_text(_config_text({**FUZZ_TOY, key: value}))
        outputs = {"gen": ["--out", d], "label": ["--output", f"{d}/l.csv"],
                   "train": ["--model", f"{d}/m.bin"], "eval": ["--report", f"{d}/r.csv"],
                   "ablate": ["--out", d]}
        argv = [command, *fuzz_inputs[command], *outputs[command], "--config", cfg]
        if key in SIZE_KEYS and value == HUGE[kind]:
            resolve_config(build_parser().parse_args([str(a) for a in argv]))
            return
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run(argv)
        assert code in (0, 2), err.getvalue()
        assert code == 0 or err.getvalue().startswith("error: ")
        if command == "gen" and code == 0:
            read_interactions(f"{d}/interactions.csv")


# ------------------------------------------------------------------- label


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """One generated dataset plus its default labeling, reused read-only."""
    root = tmp_path_factory.mktemp("pipeline")
    data, truth = gen_small(root)
    labeled = str(root / "labeled.csv")
    assert run(["label", "--input", data, "--output", labeled]) == 0
    return {"root": root, "data": data, "truth": truth, "labeled": labeled}


def test_label_writes_standard_columns_in_order(small_run):
    header = read_bytes(small_run["labeled"]).decode().splitlines()[0]
    assert header == (
        "user_id,video_id,duration_s,watch_time_s,"
        "wpr,wpr_d,ev,ev_d,ev_v,ev_u,lv,lv_d,lv_v,lv_u,playing_rate"
    )
    table, columns = read_labeled(small_run["labeled"])
    assert table.n == 1000
    for name in ("ev", "ev_d", "lv", "lv_d"):
        vals = columns[name]
        assert set(np.unique(vals)) <= {0.0, 1.0}


def test_label_echoes_input_fields_bytewise(small_run):
    src = read_bytes(small_run["data"]).decode().splitlines()[1:]
    out = read_bytes(small_run["labeled"]).decode().splitlines()[1:]
    for src_line, out_line in zip(src, out):
        assert out_line.startswith(src_line + ",")


def test_label_no_debias_copies_global_ranks(small_run, tmp_path):
    path = str(tmp_path / "nd.csv")
    assert run(["label", "--input", small_run["data"], "--output", path,
                "--no-debias"]) == 0
    _, columns = read_labeled(path)
    assert np.array_equal(columns["wpr"], columns["wpr_d"])


def test_label_ablation_columns_appended(small_run, tmp_path):
    path = str(tmp_path / "ab.csv")
    assert run(["label", "--input", small_run["data"], "--output", path,
                "--ablation-labels"]) == 0
    header = read_bytes(path).decode().splitlines()[0]
    assert header.endswith(",playing_rate,ef_wpr,ew_wpr")
    # every byte as csv.writer writes label_all's columns after the input rows
    config = dataclasses.replace(PipelineConfig(), ablation_labels=True)
    columns = label_all(read_interactions(small_run["data"]), build_label_config(config)).columns
    with open(small_run["data"], newline="") as fh:
        rows = list(csv.reader(fh))
    want = io.StringIO()
    writer = csv.writer(want, lineterminator="\n")
    writer.writerow(rows[0] + list(columns))
    for i, row in enumerate(rows[1:]):
        writer.writerow(row + [str(int(col[i])) if name in BINARY_LABELS else f"{col[i]:.6f}"
                               for name, col in columns.items()])
    assert read_bytes(path) == want.getvalue().encode()


def test_label_sketch_mode_rarely_flips_binaries(small_run, tmp_path):
    exact = str(tmp_path / "exact.csv")
    sketch = str(tmp_path / "sketch.csv")
    base = ["label", "--input", small_run["data"], "--tie-mode", "shared"]
    assert run(base + ["--output", exact]) == 0
    assert run(base + ["--output", sketch, "--summary", "sketch",
                       "--eps", "0.005"]) == 0
    _, ce = read_labeled(exact)
    _, cs = read_labeled(sketch)
    for name in ("ev", "ev_d", "lv", "lv_d"):
        flips = float(np.mean(ce[name] != cs[name]))
        assert flips <= 0.03, f"{name}: {flips:.4f}"


def test_label_summary_reuse_reproduces_output(small_run, tmp_path):
    first = str(tmp_path / "one.csv")
    second = str(tmp_path / "two.csv")
    store = str(tmp_path / "sums.bin")
    assert run(["label", "--input", small_run["data"], "--output", first,
                "--summaries-out", store]) == 0
    assert run(["label", "--input", small_run["data"], "--output", second,
                "--summaries-in", store]) == 0
    assert read_bytes(first) == read_bytes(second)
    # a bins_b config key, which train reads as well, is not a conflict
    assert run(["label", "--input", small_run["data"], "--output", second,
                "--summaries-in", store, *_config(tmp_path, "bins_b = 5\n")]) == 0
    assert read_bytes(first) == read_bytes(second)


def test_label_compacting_sketch_summaries_reproduce_output(small_run, tmp_path):
    # eps 0.45 is a capacity of 570, so the one 1000-record duration bin
    # and the global summary are real sketches that compacted
    first = str(tmp_path / "one.csv")
    second = str(tmp_path / "two.csv")
    store = str(tmp_path / "sums.bin")
    sketch = ["--summary", "sketch", "--eps", "0.45"]
    assert run(["label", "--input", small_run["data"], "--output", first, *sketch,
                "--bins", "1", "--summaries-out", store]) == 0
    compacted = [key.kind for key, s in load_grouped_summaries(store).summaries.items()
                 if s.count >= s.capacity]
    assert compacted == ["global", "duration_bin"]
    assert run(["label", "--input", small_run["data"], "--output", second, *sketch,
                "--summaries-in", store]) == 0
    assert read_bytes(first) == read_bytes(second)


@pytest.mark.parametrize("summary", [[], ["--summary", "sketch", "--eps", "0.45"]],
                         ids=["exact", "sketch"])
def test_label_summaries_reuse_keeps_awkward_ids(tmp_path, summary):
    # ids that need CSV quoting, are not ASCII, or are a prefix of another;
    # "v1" has 7 records, below min_group_size. At eps 0.45 (capacity 570)
    # the 700-record global summary compacts.
    ids = ("a,b", 'say "hi"', "two\nlines", "naïve ü", "視頻", "v10")
    rng = np.random.default_rng(8)
    n = 700
    videos = [ids[i // 6 % 6] for i in range(n)]
    videos[::100] = ["v1"] * 7
    duration = rng.uniform(5, 600, n).round(3)
    table = InteractionTable([ids[i % 6] for i in range(n)], videos, duration,
                             (duration * rng.uniform(0, 1, n)).round(3))
    data = str(tmp_path / "in.csv")
    write_interactions(data, table)
    first, second = str(tmp_path / "one.csv"), str(tmp_path / "two.csv")
    store = str(tmp_path / "sums.bin")
    assert run(["label", "--input", data, "--output", first, *summary,
                "--summaries-out", store]) == 0
    saved = load_grouped_summaries(store)
    assert set(saved.groups["video"].keys) == set(ids) | {"v1"}
    assert bool(saved.groups["global"].sketches) == bool(summary)
    assert run(["label", "--input", data, "--output", second, *summary,
                "--summaries-in", store]) == 0
    assert read_bytes(first) == read_bytes(second)


def test_label_keeps_ids_that_differ_by_a_trailing_nul_apart(tmp_path):
    # "a" and "a\x00" each reach their own median in 11 of 20 records;
    # grouped as one user they would split 1 and 20
    users = ["a"] * 20 + ["a\x00"] * 20
    watch = np.concatenate([np.arange(1.0, 21.0), np.arange(101.0, 121.0)])
    data = str(tmp_path / "in.csv")
    write_interactions(data, InteractionTable(users, [f"v{i}" for i in range(40)],
                                              np.full(40, 600.0), watch))
    first, second, store = (str(tmp_path / n) for n in ("one.csv", "two.csv", "sums.bin"))
    assert run(["label", "--input", data, "--output", first, "--summaries-out", store]) == 0
    assert load_grouped_summaries(store).groups["user"].keys.tolist() == ["a", "a\x00"]
    assert run(["label", "--input", data, "--output", second, "--summaries-in", store]) == 0
    assert read_bytes(first) == read_bytes(second)
    table, columns = read_labeled(first)
    assert table.user_id == users
    assert [int(columns["ev_u"][:20].sum()), int(columns["ev_u"][20:].sum())] == [11, 11]
    assert gauc_detail(watch, np.tile([0, 1], 20), table.user_id).n_users_used == 2


@pytest.mark.parametrize("flag", [["--no-debias"], ["--bins", "5"]], ids=["no_debias", "bins"])
def test_label_summaries_in_rejects_bin_flags(small_run, tmp_path, capsys, flag):
    store = str(tmp_path / "sums.bin")
    assert run(["label", "--input", small_run["data"], "--output", tmp_path / "a.csv",
                "--summaries-out", store]) == 0
    capsys.readouterr()
    assert run(["label", "--input", small_run["data"], "--output", tmp_path / "b.csv",
                "--summaries-in", store, *flag]) == 2
    assert f"error: {flag[0]} conflicts with --summaries-in" in capsys.readouterr().err


def test_label_rerun_is_byte_identical(small_run, tmp_path):
    again = str(tmp_path / "again.csv")
    assert run(["label", "--input", small_run["data"], "--output", again]) == 0
    assert read_bytes(again) == read_bytes(small_run["labeled"])


# -------------------------------------------------------------- train/eval


@pytest.fixture(scope="module")
def trained(small_run, tmp_path_factory):
    root = tmp_path_factory.mktemp("trained")
    cfg = root / "train.cfg"
    cfg.write_text(SMOKE_TRAIN_CFG + "\n")
    model = str(root / "model.bin")
    trace = str(root / "trace.csv")
    rc = run(["train", "--input", small_run["labeled"], "--model", model,
              "--trace", trace, "--config", cfg,
              "--tasks", "wpr_d:squared_error,ev_d:logistic,lv_d:logistic"])
    assert rc == 0
    return {"cfg": cfg, "model": model, "trace": trace}


def test_train_writes_model_and_trace(trained):
    blob = read_bytes(trained["model"])
    assert blob[:4] == b"WLMD"
    lines = read_bytes(trained["trace"]).decode().splitlines()
    assert lines[0] == "epoch,task,loss"
    # 2 epochs x 3 tasks
    assert len(lines) == 1 + 6


def test_train_is_deterministic(small_run, trained, tmp_path):
    model2 = str(tmp_path / "model2.bin")
    rc = run(["train", "--input", small_run["labeled"], "--model", model2,
              "--config", trained["cfg"],
              "--tasks", "wpr_d:squared_error,ev_d:logistic,lv_d:logistic"])
    assert rc == 0
    assert read_bytes(model2) == read_bytes(trained["model"])


def test_eval_writes_report_and_repeats_bytewise(small_run, trained, tmp_path):
    r1 = str(tmp_path / "r1.csv")
    r2 = str(tmp_path / "r2.csv")
    argv = ["eval", "--input", small_run["labeled"], "--model", trained["model"],
            "--truth", small_run["truth"]]
    assert run(argv + ["--report", r1]) == 0
    assert run(argv + ["--report", r2]) == 0
    assert read_bytes(r1) == read_bytes(r2)
    lines = read_bytes(r1).decode().splitlines()
    assert lines[0] == "metric,value,n_evaluated,n_skipped"
    metrics = [line.split(",")[0] for line in lines[1:]]
    assert metrics == ["auc_ev", "gauc_ev", "auc_lv", "gauc_lv",
                       "mae", "rmse", "mape", "gauc_truth"]
    values = {line.split(",")[0]: line.split(",")[1] for line in lines[1:]}
    assert 0.0 <= float(values["auc_ev"]) <= 1.0
    assert float(values["mae"]) >= 0.0


def test_eval_without_truth_omits_oracle_row(small_run, trained, tmp_path):
    report = str(tmp_path / "r.csv")
    assert run(["eval", "--input", small_run["labeled"], "--model",
                trained["model"], "--report", report]) == 0
    metrics = [line.split(",")[0]
               for line in read_bytes(report).decode().splitlines()[1:]]
    assert "gauc_truth" not in metrics
    assert len(metrics) == 7


def test_eval_split_sizes_partition_the_table(small_run, trained, tmp_path, capsys):
    counts = {}
    for split in ("train", "eval", "all"):
        report = str(tmp_path / f"{split}.csv")
        assert run(["eval", "--input", small_run["labeled"], "--model",
                    trained["model"], "--report", report, "--split", split]) == 0
        head = capsys.readouterr().out.splitlines()[0]
        counts[split] = int(head.split("records=")[1])
    assert counts["train"] + counts["eval"] == counts["all"] == 1000
    # default split keeps roughly 90 percent for training
    assert 850 <= counts["train"] <= 950


def test_eval_missing_task_column_exits_2(small_run, trained, tmp_path, capsys):
    # checkpoint trained on an ablation label, evaluated on a default
    # labeling that never wrote that column
    ab = str(tmp_path / "ab.csv")
    assert run(["label", "--input", small_run["data"], "--output", ab,
                "--ablation-labels"]) == 0
    model = str(tmp_path / "ef.bin")
    assert run(["train", "--input", ab, "--model", model, "--config", trained["cfg"],
                "--tasks", "ef_wpr:squared_error,ev:logistic"]) == 0
    capsys.readouterr()
    report = str(tmp_path / "r.csv")
    rc = run(["eval", "--input", small_run["labeled"], "--model", model,
              "--report", report])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: {small_run['labeled']}: checkpoint task 'ef_wpr' was trained on column "
        "'ef_wpr', absent here\n")


@pytest.fixture(scope="module")
def ordinal_trained(small_run, trained, tmp_path_factory):
    """A checkpoint with a per-bin rank task, a binary task and an ordinal task."""
    model = str(tmp_path_factory.mktemp("ordinal") / "m.bin")
    assert run(["train", "--input", small_run["labeled"], "--model", model, "--config",
                trained["cfg"], "--tasks",
                "wpr_d:squared_error,ev_d:logistic,wpr:ordinal_cumulative:0.1"]) == 0
    return model


def _task(model, name, **fields):
    model.tasks = tuple(dataclasses.replace(t, **fields) if t.name == name else t
                        for t in model.tasks)


def _inverse(model, name, prefix=None, reps=None):
    inv = model.inverses[name]
    model.inverses[name] = WprInverse(inv.prefix if prefix is None else prefix(inv.prefix),
                                      inv.reps if reps is None else reps(inv.reps), inv.per_bin)


LOSS_LIST = "squared_error, logistic, weighted_logistic, ordinal_cumulative"
# a change to a loaded checkpoint, after which its arrays are reshaped to
# the metadata, and the error eval then gives
CORRUPT_CHECKPOINTS = {
    "kind_bogus": (lambda m: _task(m, "wpr_d", kind="bogus"),
                   "task 'wpr_d' has kind 'bogus', expected 'quantile'"),
    "kind_binary": (lambda m: _task(m, "wpr_d", kind="binary"),
                    "task 'wpr_d' has kind 'binary', expected 'quantile'"),
    "kind_of_ordinal": (lambda m: _task(m, "wpr", kind="quantile"),
                        "task 'wpr' has kind 'quantile', expected 'ordinal'"),
    "loss_bogus": (lambda m: _task(m, "ev_d", loss="bogus_loss"),
                   f"task 'ev_d' has loss 'bogus_loss', expected one of {LOSS_LIST}"),
    "loss_changes_kind": (lambda m: _task(m, "ev_d", loss="weighted_logistic"),
                          "task 'ev_d' has kind 'binary', expected 'odds'"),
    "per_bin_yes": (lambda m: _task(m, "wpr_d", per_bin="yes"),
                    "task 'wpr_d' has per_bin 'yes', expected True"),
    "per_bin_false": (lambda m: _task(m, "wpr_d", per_bin=False),
                      "task 'wpr_d' has per_bin False, expected True"),
    "weight_heavy": (lambda m: _task(m, "ev_d", weight="heavy"),
                     "task 'ev_d' has weight 'heavy', expected finite and > 0"),
    "weight_zero": (lambda m: _task(m, "ev_d", weight=0.0),
                    "task 'ev_d' has weight 0.0, expected finite and > 0"),
    "n_out_0": (lambda m: _task(m, "ev_d", n_out=0), "task 'ev_d' has n_out 0, expected 1"),
    "n_out_2": (lambda m: _task(m, "wpr_d", n_out=2), "task 'wpr_d' has n_out 2, expected 1"),
    "ordinal_n_out_0": (lambda m: (_task(m, "wpr", n_out=0),
                                   _inverse(m, "wpr", prefix=lambda p: p[:1],
                                            reps=lambda r: r[:, :1])),
                        "task 'wpr' has n_out 0, expected >= 1"),
    "d_embed_0": (lambda m: setattr(m, "arch", dataclasses.replace(m.arch, d_embed=0)),
                  "architecture: d_embed must be >= 1"),
    "n_experts_0": (lambda m: setattr(m, "arch", dataclasses.replace(m.arch, n_experts=0)),
                    "architecture: n_experts must be >= 1"),
    "prefix_reversed": (lambda m: _inverse(m, "wpr_d", prefix=lambda p: p[::-1].copy()),
                        "inverse map of task 'wpr_d': prefix must be non-empty, finite and "
                        "strictly ascending"),
    "prefix_empty": (lambda m: _inverse(m, "wpr_d", prefix=lambda p: p[:0],
                                        reps=lambda r: r[:, :0]),
                     "inverse map of task 'wpr_d': prefix must be non-empty, finite and "
                     "strictly ascending"),
    "prefix_nan": (lambda m: _inverse(m, "wpr_d", prefix=lambda p: np.append(p[:-1], np.nan)),
                   "inverse map of task 'wpr_d': prefix must be non-empty, finite and "
                   "strictly ascending"),
    "prefix_above_1": (lambda m: _inverse(m, "wpr_d", prefix=lambda p: p * 2),
                       "inverse map of task 'wpr_d': prefix must lie in [0, 1]"),
    "prefix_below_0": (lambda m: _inverse(m, "wpr_d", prefix=lambda p: p - 0.5),
                       "inverse map of task 'wpr_d': prefix must lie in [0, 1]"),
    "ordinal_prefix_short": (lambda m: _inverse(m, "wpr", prefix=lambda p: p[:-1],
                                                reps=lambda r: r[:, :-1]),
                             "inverse map of task 'wpr': prefix must hold n_out + 1 = {n} "
                             "values, not {short}"),
    "reps_nan": (lambda m: _inverse(m, "wpr_d", reps=lambda r: np.where(r > r.min(), r, np.nan)),
                 "inverse map of task 'wpr_d': reps must be finite and >= 0"),
    "reps_negative": (lambda m: _inverse(m, "wpr", reps=lambda r: r - r.max() - 1),
                      "inverse map of task 'wpr': reps must be finite and >= 0"),
}


@pytest.mark.parametrize("case", CORRUPT_CHECKPOINTS)
def test_eval_of_a_checkpoint_with_a_field_train_never_writes_exits_2(
        small_run, ordinal_trained, tmp_path, capsys, case):
    change, message = CORRUPT_CHECKPOINTS[case]
    model = load_model(ordinal_trained)
    n = len(model.inverses["wpr"].prefix)
    change(model)
    shapes = learner._param_shapes(model.arch, model.tasks, len(model.user_index),
                                   len(model.video_index), model.bins.n_bins)
    model.params = {k: model.params[k] if model.params.get(k, np.empty(0)).shape == shape
                    else np.zeros(shape) for k, shape in shapes.items()}
    path = str(tmp_path / "corrupt.bin")
    save_model(model, path)
    capsys.readouterr()
    assert run(["eval", "--input", small_run["labeled"], "--model", path,
                "--report", tmp_path / "r.csv"]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: checkpoint {message.format(n=n, short=n - 1)}\n")
    assert not (tmp_path / "r.csv").exists()


def test_a_checkpoint_of_every_recipe_loads(small_run, tmp_path):
    # the checks above accept whatever train writes: every loss and kind,
    # an ordinal task on raw seconds whose prefix leaves [0, 1], and a rank
    # label of 0
    table, columns = read_labeled(small_run["labeled"])
    columns["wpr"] = np.where(columns["wpr"] == columns["wpr"].min(), 0.0, columns["wpr"])
    tasks = [TaskConfig(*spec) for spec in (
        ("wpr", "squared_error"), ("wpr_d", "ordinal_cumulative", 0.1), ("ev", "logistic"),
        ("lv_d", "weighted_logistic", 0.05), ("playing_rate", "squared_error"),
        ("watch_time_s", "squared_error", 0.02))]
    tasks.append(TaskConfig("watch_time_s", "ordinal_cumulative", 0.1, name="or_s"))
    model, _ = fit(table, columns, tasks, ModelArch(4, 2, 4), OptimizerConfig(epochs=1))
    assert model.inverses["wpr"].prefix[0] == 0.0
    assert model.inverses["or_s"].prefix[-1] > 1
    path = str(tmp_path / "m.bin")
    save_model(model, path)
    assert [t.kind for t in load_model(path).tasks] == [
        "quantile", "ordinal", "binary", "odds", "playing_rate", "seconds", "ordinal"]


@pytest.mark.parametrize("key", ["lr_embed", "lr_dense"])
def test_train_after_a_huge_learning_rate_exits_2(small_run, tmp_path, capsys, key):
    # one epoch of one batch: the single update throws the parameters
    # near 1e299 and no training loss is computed after it. Huge
    # embeddings overflow only inside the experts' activation, where the
    # scores stay finite; the forward pass after the last update reports
    # the overflow either way, and no checkpoint is written
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"epochs = 1\nbatch_size = 2048\n{key} = 1e300\n")
    model = tmp_path / "m.bin"
    assert run(["train", "--input", small_run["labeled"], "--model", model,
                "--config", cfg]) == 2
    assert capsys.readouterr().err == (
        "error: the forward pass after the last update overflows in expert0: "
        "overflow encountered in multiply\n")
    assert not model.exists()


def test_eval_of_a_diverged_checkpoint_exits_2(small_run, trained, tmp_path, capsys):
    # finite parameters whose products overflow to inf or nan scores
    model = load_model(trained["model"])
    for name in ("expert0_w2", "head_wpr_d_w"):
        model.params[name] *= 1e300
    path = str(tmp_path / "diverged.bin")
    save_model(model, path)
    rc = run(["eval", "--input", small_run["labeled"], "--model", path,
              "--report", tmp_path / "r.csv"])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: task 'wpr_d' scores are not finite: the model diverged in training\n")


def test_eval_of_a_checkpoint_that_overflows_to_finite_scores_exits_2(
        small_run, trained, tmp_path, capsys):
    # huge first-layer weights overflow inside the expert, yet every score
    # comes out finite; the metrics of such a model would mean nothing
    model = load_model(trained["model"])
    model.params["expert0_w1"] *= 1e300
    path = str(tmp_path / "diverged.bin")
    save_model(model, path)
    rc = run(["eval", "--input", small_run["labeled"], "--model", path,
              "--report", tmp_path / "r.csv"])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: the forward pass overflows in expert0: overflow encountered in multiply: "
        "the model diverged in training\n")
    assert not (tmp_path / "r.csv").exists()


def test_train_bad_task_specs_exit_2(small_run, tmp_path, capsys):
    model = str(tmp_path / "m.bin")
    base = ["train", "--input", small_run["labeled"], "--model", model]
    assert run(base + ["--tasks", "ev_d"]) == 2
    assert "expected target:loss" in capsys.readouterr().err
    assert run(base + ["--tasks", "ev_d:logistic:0"]) == 2
    assert "weight must be > 0" in capsys.readouterr().err
    assert run(base + ["--tasks", "ev_d:hinge"]) == 2
    assert "unknown loss" in capsys.readouterr().err
    assert run(base + ["--tasks", "mystery:logistic"]) == 2
    assert "mystery" in capsys.readouterr().err


def test_parse_tasks_triples():
    tasks = parse_tasks("wpr_d:squared_error, ev_d:logistic:0.5")
    assert [(t.target, t.loss, t.weight) for t in tasks] == [
        ("wpr_d", "squared_error", 1.0),
        ("ev_d", "logistic", 0.5),
    ]
    with pytest.raises(ConfigInvalid):
        parse_tasks("")
    with pytest.raises(ConfigInvalid):
        parse_tasks("a:b:c:d")
    with pytest.raises(ConfigInvalid):
        parse_tasks("ev:logistic:heavy")
    with pytest.raises(ConfigInvalid, match="weight must be > 0"):
        parse_tasks("ev:logistic:nan")
    for weight in ("inf", "1e400"):
        with pytest.raises(ConfigInvalid, match="weight must be finite and > 0"):
            parse_tasks(f"ev:logistic:{weight}")


# ------------------------------------------------------------------ ablate


def test_ablate_requires_readable_truth(small_run, tmp_path, capsys):
    rc = run(["ablate", "--input", small_run["data"], "--truth",
              str(tmp_path / "missing.csv"), "--out", tmp_path / "o"])
    assert rc == 2
    assert "truth" in capsys.readouterr().err


def test_ablate_smoke_table(small_run, tmp_path):
    out = tmp_path / "ablate"
    cfg = tmp_path / "a.cfg"
    cfg.write_text(SMOKE_TRAIN_CFG + "\nn_groups = 20\n")
    rc = run(["ablate", "--input", small_run["data"], "--truth",
              small_run["truth"], "--out", out, "--config", cfg])
    assert rc == 0
    assert multiprocessing.active_children() == []
    lines = read_bytes(out / "ablate.csv").decode().splitlines()
    assert lines[0] == "variant,gauc_truth,auc_ev,gauc_ev,mae,rmse,mape"
    names = [line.split(",")[0] for line in lines[1:]]
    assert names == ["dml", "wo_dg", "wo_wpr", "ef_wpr", "ew_wpr",
                     "tr", "wlr", "or", "d2q"]
    for line in lines[1:]:
        gauc_truth = float(line.split(",")[1])
        assert 0.0 <= gauc_truth <= 1.0


def test_ablate_after_an_in_process_train_matches_a_fresh_process(small_run, tmp_path):
    # train's lane thread is gone before ablate forks its workers, and each
    # worker's fits run on one lane
    cfg = tmp_path / "a.cfg"
    cfg.write_text(SMOKE_TRAIN_CFG + "\nn_groups = 20\n")
    assert run(["train", "--input", small_run["labeled"], "--model", tmp_path / "m.bin",
                "--config", cfg]) == 0
    assert run(["ablate", "--input", small_run["data"], "--truth", small_run["truth"],
                "--out", tmp_path / "here", "--config", cfg]) == 0
    env = dict(os.environ, PYTHONPATH=str(Path(wtlabel.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, "-m", "wtlabel.cli", "ablate", "--input", small_run["data"],
         "--truth", small_run["truth"], "--out", str(tmp_path / "fresh"), "--config", str(cfg)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert read_bytes(tmp_path / "here" / "ablate.csv") == read_bytes(
        tmp_path / "fresh" / "ablate.csv")


# the nine recipes as (name, [(target, loss, weight), ...])
RECIPES = [
    ("dml", [("wpr_d", "squared_error", 1.0), ("ev_d", "logistic", 1.0),
             ("lv_d", "logistic", 1.0)]),
    ("wo_dg", [("wpr", "squared_error", 1.0), ("ev", "logistic", 1.0), ("lv", "logistic", 1.0)]),
    ("wo_wpr", [("playing_rate", "squared_error", 1.0), ("ev_d", "logistic", 1.0),
                ("lv_d", "logistic", 1.0)]),
    ("ef_wpr", [("ef_wpr", "squared_error", 1.0), ("ev_d", "logistic", 1.0),
                ("lv_d", "logistic", 1.0)]),
    ("ew_wpr", [("ew_wpr", "squared_error", 1.0), ("ev_d", "logistic", 1.0),
                ("lv_d", "logistic", 1.0)]),
    ("tr", [("watch_time_s", "squared_error", 0.02)]),
    ("wlr", [("ev", "weighted_logistic", 0.05)]),
    ("or", [("wpr", "ordinal_cumulative", 0.1)]),
    ("d2q", [("ef_wpr", "squared_error", 1.0)]),
]


def test_ablate_variants_are_the_nine_recipes():
    assert ABLATE_VARIANTS == [(name, [TaskConfig(*task) for task in tasks])
                               for name, tasks in RECIPES]
    assert ABLATE_VARIANTS[0] == ("dml", parse_tasks(PipelineConfig.tasks))


def test_ablate_labels_only_the_columns_it_reads(small_run, tmp_path, monkeypatch):
    seen = {}

    def no_fits(table, columns, truth_m, config):
        seen["columns"] = list(columns)
        return []

    monkeypatch.setattr(cli, "run_ablation", no_fits)
    assert run(["ablate", "--input", small_run["data"], "--truth", small_run["truth"],
                "--out", tmp_path]) == 0
    assert seen["columns"] == ["wpr", "wpr_d", "ev", "ev_d", "lv", "lv_d", "playing_rate",
                               "ef_wpr", "ew_wpr"]


# settings for the in-process ablations below: one short epoch
ABLATE_CFG = {"lr_embed": 1.0, "lr_dense": 0.02, "batch_size": 256, "epochs": 1,
              "n_groups": 20}


@pytest.fixture(scope="module")
def ablate_inputs(small_run):
    """run_ablation's arguments on the small dataset, as cmd_ablate builds them."""
    config = dataclasses.replace(PipelineConfig(**ABLATE_CFG), ablation_labels=True)
    table = read_interactions(small_run["data"])
    labels, _, _ = label_all_detailed(table, build_label_config(config))
    return table, dict(labels.columns), read_truth(small_run["truth"]).m, config


def _sequential_ablation(table, columns, truth_m, config):
    """The rows of run_ablation, computed one recipe after another in
    this process."""
    mask = split_mask(table.row_index, config.split_frac, config.split_seed)
    train_table = table.subset(mask)
    train_columns = {k: v[mask] for k, v in columns.items()}
    eval_table = table.subset(~mask)
    eval_columns = {k: v[~mask] for k, v in columns.items()}
    rows = []
    for name, tasks in ABLATE_VARIANTS:
        model, _ = cli._fit_with_config(train_table, train_columns, tasks, config)
        r = evaluate_model(model, eval_table, eval_columns, truth_m[eval_table.row_index])
        rows.append((name, r.gauc_truth, r.auc, r.gauc, r.mae, r.rmse, r.mape))
    return rows


def _bits(rows):
    return [(row[0], *(struct.pack("<d", v) for v in row[1:])) for row in rows]


def _ablate_argv(small_run, tmp_path):
    cfg = tmp_path / "a.cfg"
    cfg.write_text(_config_text(ABLATE_CFG))
    return ["ablate", "--input", small_run["data"], "--truth", small_run["truth"],
            "--out", tmp_path / "out", "--config", cfg]


@contextlib.contextmanager
def _deadline(seconds: float):
    """Fail the block with TimeoutError rather than hang past seconds."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _fake_fit(monkeypatch, fit):
    """Make every recipe call fit(name, *args) in place of _fit_with_config;
    fork hands the patched module to the worker processes."""
    names = {id(tasks): name for name, tasks in ABLATE_VARIANTS}
    monkeypatch.setattr(cli, "_fit_with_config", lambda table, columns, tasks, config:
                        fit(names[id(tasks)], table, columns, tasks, config))


@pytest.mark.parametrize("cpus", [None, {0}], ids=["usable_cpus", "one_cpu"])
def test_run_ablation_rows_equal_a_sequential_oracle(ablate_inputs, monkeypatch, cpus):
    want = _bits(_sequential_ablation(*ablate_inputs))
    if cpus is not None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    rows = run_ablation(*ablate_inputs)
    assert [row[0] for row in rows] == [name for name, _ in ABLATE_VARIANTS]
    assert _bits(rows) == want
    assert multiprocessing.active_children() == []


def test_run_ablation_starts_the_widest_recipe_first(ablate_inputs, tmp_path, monkeypatch):
    table, columns, _, config = ablate_inputs
    want = _bits(_sequential_ablation(*ablate_inputs))
    mask = split_mask(table.row_index, config.split_frac, config.split_seed)
    fit_columns = {"watch_time_s": table.watch_time_s[mask],
                   **{k: v[mask] for k, v in columns.items()}}
    widths = {name: sum(t.n_out for t in resolve_tasks(tasks, fit_columns))
              for name, tasks in ABLATE_VARIANTS}
    log = tmp_path / "started"
    real_fit = cli._fit_with_config

    def fit(name, *args):
        with open(log, "a") as fh:
            fh.write(name + "\n")
        return real_fit(*args)

    _fake_fit(monkeypatch, fit)
    # one worker starts the recipes in the order they were submitted
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    rows = run_ablation(*ablate_inputs)
    started = log.read_text().split()
    names = [name for name, _ in ABLATE_VARIANTS]
    # the ordinal head has one output per group boundary, every other one
    assert started[0] == "or" and widths["or"] > max(w for n, w in widths.items() if n != "or")
    assert started == sorted(names, key=lambda n: -widths[n])
    assert [row[0] for row in rows] == names
    assert _bits(rows) == want
    assert multiprocessing.active_children() == []


def test_a_failing_recipe_raises_the_first_error_in_recipe_order(
        ablate_inputs, small_run, tmp_path, monkeypatch, capsys):
    real_fit = cli._fit_with_config

    def fit(name, *args):
        if name == "ew_wpr":
            time.sleep(0.3)  # so a later recipe fails first in time
        if name in ("ew_wpr", "tr", "d2q"):
            raise NoEligibleUsers(f"recipe {name}: no eligible users")
        return real_fit(*args)

    _fake_fit(monkeypatch, fit)
    with pytest.raises(NoEligibleUsers) as sequential:
        _sequential_ablation(*ablate_inputs)
    with pytest.raises(NoEligibleUsers) as pooled:
        run_ablation(*ablate_inputs)
    assert str(pooled.value) == str(sequential.value) == "recipe ew_wpr: no eligible users"
    assert multiprocessing.active_children() == []
    capsys.readouterr()
    assert run(_ablate_argv(small_run, tmp_path)) == 2
    assert capsys.readouterr().err == f"error: {sequential.value}\n"
    assert multiprocessing.active_children() == []
    assert not (tmp_path / "out" / "ablate.csv").exists()


def test_a_failing_recipe_cancels_the_recipes_not_yet_started(
        small_run, tmp_path, monkeypatch, capsys):
    started = tmp_path / "started"
    started.mkdir()

    def fit(name, *args):
        (started / name).touch()
        if name == "dml":
            raise NoEligibleUsers("recipe dml: no eligible users")
        time.sleep(0.5)
        raise AssertionError(f"recipe {name} was read after dml failed")

    _fake_fit(monkeypatch, fit)
    assert run(_ablate_argv(small_run, tmp_path)) == 2
    assert capsys.readouterr().err == "error: recipe dml: no eligible users\n"
    assert multiprocessing.active_children() == []
    assert "dml" in os.listdir(started)
    assert len(os.listdir(started)) < len(ABLATE_VARIANTS)


def test_a_killed_ablate_worker_ends_the_command(small_run, tmp_path, monkeypatch, capsys):
    parent = os.getpid()
    real_fit = cli._fit_with_config

    def fit(name, *args):
        if name == "wo_dg" and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return real_fit(*args)

    _fake_fit(monkeypatch, fit)
    with _deadline(120):
        rc = run(_ablate_argv(small_run, tmp_path))
    assert rc == 1
    assert capsys.readouterr().err.startswith("internal error: BrokenProcessPool")
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("split_frac,message", [
    (0, "error: training split is empty; raise split_frac\n"),
    (1, "error: eval split is empty; lower split_frac\n"),
], ids=["split_frac_0", "split_frac_1"])
def test_ablate_with_an_empty_split_exits_2_before_any_fit(
        small_run, tmp_path, monkeypatch, capsys, split_frac, message):
    fitted = tmp_path / "fitted"

    def fit(name, *args):
        with open(fitted, "a") as fh:
            fh.write(name + "\n")

    _fake_fit(monkeypatch, fit)
    argv = _ablate_argv(small_run, tmp_path)
    cfg = tmp_path / "a.cfg"
    cfg.write_text(cfg.read_text() + f"split_frac = {split_frac}\n")
    assert run(argv) == 2
    assert capsys.readouterr().err == message
    assert not fitted.exists()
    assert not (tmp_path / "out" / "ablate.csv").exists()
    assert multiprocessing.active_children() == []


# ------------------------------------------------- the ends of the float range


def _interactions(path, rows):
    path.write_text("user_id,video_id,duration_s,watch_time_s\n"
                    + "".join(f"u{i},v{i % 2},{d},{w}\n" for i, (d, w) in enumerate(rows)))
    return path


def test_watch_times_at_the_float_maximum_label_and_train(tmp_path):
    data = _interactions(tmp_path / "in.csv", [(30 + 10 * i, "1e308") for i in range(4)])
    labeled = tmp_path / "labeled.csv"
    assert run(["label", "--input", data, "--output", labeled, "--ablation-labels"]) == 0
    _, columns = read_labeled(str(labeled))
    assert columns["ew_wpr"].tolist() == [1.0] * 4
    assert run(["train", "--input", labeled, "--model", tmp_path / "m.bin",
                "--tasks", "ew_wpr:squared_error", "--epochs", "1"]) == 0


def test_a_duration_near_zero_labels_a_capped_playing_rate(tmp_path):
    data = _interactions(tmp_path / "in.csv", [("1e-300", "1e10"), ("60", "30")])
    labeled = tmp_path / "labeled.csv"
    assert run(["label", "--input", data, "--output", labeled]) == 0
    _, columns = read_labeled(str(labeled))
    assert columns["playing_rate"].tolist() == [1.0, 0.5]


# ------------------------------------------------------------- exit codes


def test_missing_input_file_exits_2(tmp_path, capsys):
    rc = run(["label", "--input", str(tmp_path / "nope.csv"),
              "--output", str(tmp_path / "out.csv")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def _with_cell(src, dest, row, column, text):
    """Copy a CSV with one cell of data row `row` replaced."""
    lines = read_bytes(src).decode().splitlines()
    col = lines[0].split(",").index(column)
    cells = lines[row + 1].split(",")
    cells[col] = text
    lines[row + 1] = ",".join(cells)
    dest.write_text("\n".join(lines) + "\n")
    return dest


def test_non_numeric_label_cell_exits_2(small_run, tmp_path, capsys):
    bad = _with_cell(small_run["labeled"], tmp_path / "bad.csv", 2, "ev", "x")
    rc = run(["train", "--input", bad, "--model", tmp_path / "m.bin"])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{bad} row 2: column ev is not a number: 'x'" in err


@pytest.mark.parametrize("column,text,domain", [
    ("wpr_d", "7.5", "[0, 1]"),
    ("wpr", "-0.25", "[0, 1]"),
    ("playing_rate", "inf", "[0, 1]"),
    ("ev", "nan", "{0, 1}"),
    ("ev", "3", "{0, 1}"),
    ("lv_u", "0.5", "{0, 1}"),
])
def test_label_cell_outside_its_domain_exits_2(small_run, tmp_path, capsys, column, text, domain):
    bad = _with_cell(small_run["labeled"], tmp_path / "bad.csv", 4, column, text)
    rc = run(["train", "--input", bad, "--model", tmp_path / "m.bin"])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{bad} row 4: column {column} must lie in {domain}, got {text!r}" in err
    assert not (tmp_path / "m.bin").exists()


def test_label_cells_at_the_ends_of_their_domain_are_read(small_run, tmp_path):
    path = _with_cell(small_run["labeled"], tmp_path / "edge.csv", 2, "wpr_d", "0.000000")
    path = _with_cell(path, tmp_path / "edge.csv", 3, "wpr_d", "1.000000")
    path = _with_cell(path, tmp_path / "edge.csv", 5, "wpr_d", "")
    _, columns = read_labeled(str(path))
    assert columns["wpr_d"][2] == 0.0 and columns["wpr_d"][3] == 1.0
    assert np.isnan(columns["wpr_d"][5])


def test_non_numeric_truth_cell_exits_2(small_run, trained, tmp_path, capsys):
    bad = _with_cell(small_run["truth"], tmp_path / "truth.csv", 7, "m", "x")
    rc = run(["eval", "--input", small_run["labeled"], "--model", trained["model"],
              "--report", tmp_path / "r.csv", "--truth", bad])
    assert rc == 2
    assert f"error: {bad} row 7: not a number" in capsys.readouterr().err


def _config(d, text):
    (d / "c.cfg").write_text(text)
    return ["--config", d / "c.cfg"]


def _two_truth_rows(s, d):
    lines = read_bytes(s["truth"]).decode().splitlines()[:3]
    (d / "short.csv").write_text("\n".join(lines) + "\n")
    return d / "short.csv"


def _without_column(src, dest, column):
    rows = [line.split(",") for line in read_bytes(src).decode().splitlines()]
    col = rows[0].index(column)
    dest.write_text("".join(",".join(r[:col] + r[col + 1 :]) + "\n" for r in rows))
    return dest


def _empty_global_summaries(d):
    """An exact WLGS file of one duration bin whose global and bin groups hold no values."""
    (d / "empty.wlgs").write_bytes(struct.pack("<4sHBdBI", b"WLGS", 2, 0, 0.0, 0b11, 1)
                                   + struct.pack("<dq", 1e9, 0) + struct.pack("<QQq", 1, 0, 0) * 2)
    return d / "empty.wlgs"


def _sketch_eps_summaries(s, d, eps):
    """The small run's sketch WLGS file (eps 0.45) with its first sketch's eps replaced."""
    store = d / "sketch.wlgs"
    assert run(["label", "--input", s["data"], "--output", d / "a.csv", "--summary", "sketch",
                "--eps", "0.45", "--summaries-out", store]) == 0
    blob = bytearray(read_bytes(store))
    at = blob.index(b"WLQS") + 15  # the sketch's magic, version, mode byte and count
    blob[at : at + 8] = struct.pack("<d", eps)
    store.write_bytes(bytes(blob))
    return store


def _eval(s, d, labeled, *extra):
    return ["eval", "--input", labeled, "--model", s["model"], "--report", d / "r.csv", *extra]


# each argv builder takes the small run (with the trained model) and a scratch directory
@pytest.mark.parametrize("argv,message", [
    (lambda s, d: ["gen", "--out", d / "x", "--config", d / "none.cfg"],
     "config file not found:"),
    (lambda s, d: ["gen", "--out", d / "x", *_config(d, "n_groups 5\n")],
     "line 1: expected key=value"),
    (lambda s, d: ["gen", "--out", d / "x", *_config(d, "progressive = maybe\n")],
     "cannot parse 'maybe' as bool"),
    (lambda s, d: ["label", "--input", s["data"], "--output", d / "o.csv",
                   *_config(d, "partition_kind = explicit\nratios = 0.5,half\n")],
     "cannot parse ratios"),
    (lambda s, d: ["train", "--input", s["labeled"], "--model", d / "m.bin", "--split-frac", "0"],
     "training split is empty"),
    (lambda s, d: _eval(s, d, s["labeled"], "--split-frac", "1"),
     "eval split is empty"),
    (lambda s, d: _eval(s, d, s["labeled"], "--truth", _two_truth_rows(s, d)),
     "2 truth rows for 1000 records"),
    (lambda s, d: ["ablate", "--input", s["data"], "--out", d, "--truth", _two_truth_rows(s, d)],
     "2 truth rows for 1000 records"),
    (lambda s, d: ["ablate", "--input", s["data"], "--out", d, "--truth", d / "none.csv"],
     "truth file not found"),
    # the labeled file is not read: a missing truth file fails first
    (lambda s, d: _eval(s, d, d / "no_input.csv", "--truth", d / "none.csv"),
     "truth file not found: "),
    (lambda s, d: ["ablate", "--input", s["data"], "--out", d, "--truth", ""],
     "ablation scoring needs --truth"),
    (lambda s, d: ["train", "--input", _with_cell(s["labeled"], d / "e.csv", 2, "wpr_d", ""),
                   "--model", d / "m.bin"],
     "label column 'wpr_d' has empty cells"),
    (lambda s, d: _eval(s, d, _without_column(s["labeled"], d / "no_ev.csv", "ev")),
     "evaluation needs the 'ev' label column"),
    (lambda s, d: _eval(s, d, s["labeled"], "--truth",
                        _with_cell(s["truth"], d / "nan_m.csv", 3, "m", "nan")),
     "nan_m.csv row 3: m 'nan' is not finite"),
    (lambda s, d: ["ablate", "--input", s["data"], "--out", d, "--truth",
                   _with_cell(s["truth"], d / "nan_m.csv", 3, "m", "nan")],
     "nan_m.csv row 3: m 'nan' is not finite"),
    (lambda s, d: ["label", "--input", s["data"], "--output", d / "o.csv",
                   "--summaries-in", _empty_global_summaries(d)],
     "threshold query on an empty summary"),
    (lambda s, d: ["label", "--input", s["data"], "--output", d / "o.csv", "--summary", "sketch",
                   "--eps", "0.45", "--summaries-in", _sketch_eps_summaries(s, d, 0.7)],
     "sketch eps 0.7 outside (0, 0.5) at byte"),
    # the flags are checked before the input or the summaries file is read
    (lambda s, d: ["label", "--input", d / "none.csv", "--output", d / "o.csv",
                   "--summaries-in", d / "none.wlgs", "--bins", "5"],
     "--bins conflicts with --summaries-in"),
], ids=["no_config_file", "config_line_without_eq", "bad_bool", "bad_ratios",
        "empty_train_split", "empty_eval_split", "short_truth_eval", "short_truth_ablate",
        "no_truth_file_ablate", "no_truth_file_eval", "no_truth_flag_ablate",
        "empty_label_cell", "no_ev_column", "nan_m_eval", "nan_m_ablate", "empty_global_summary",
        "sketch_eps_out_of_range", "summaries_in_conflict_before_input"])
def test_cli_input_and_config_errors_exit_2(small_run, trained, tmp_path, capsys, argv, message):
    assert run(argv({**small_run, "model": trained["model"]}, tmp_path)) == 2
    assert message in capsys.readouterr().err


def test_truncated_summaries_file_exits_2(small_run, tmp_path, capsys):
    store = tmp_path / "sums.bin"
    assert run(["label", "--input", small_run["data"], "--output", tmp_path / "a.csv",
                "--summaries-out", store]) == 0
    blob = read_bytes(store)
    store.write_bytes(blob[: len(blob) // 2])
    capsys.readouterr()
    rc = run(["label", "--input", small_run["data"], "--output", tmp_path / "b.csv",
              "--summaries-in", store])
    assert rc == 2
    assert f"error: {store}: truncated" in capsys.readouterr().err


def test_summaries_file_with_a_nan_sketch_value_exits_2(small_run, tmp_path, capsys):
    store = tmp_path / "sums.bin"
    assert run(["label", "--input", small_run["data"], "--output", tmp_path / "a.csv",
                "--summary", "sketch", "--summaries-out", store]) == 0
    blob = bytearray(read_bytes(store))
    # the file ends with the last value of the last user's sketch
    at = len(blob) - 8
    blob[at:] = struct.pack("<d", float("nan"))
    store.write_bytes(bytes(blob))
    capsys.readouterr()
    rc = run(["label", "--input", small_run["data"], "--output", tmp_path / "b.csv",
              "--summary", "sketch", "--summaries-in", store])
    assert rc == 2
    assert f"error: {store}: summary value nan is not finite and >= 0 at byte {at}" in (
        capsys.readouterr().err
    )


def test_truncated_checkpoint_exits_2(small_run, trained, tmp_path, capsys):
    model = tmp_path / "cut.bin"
    blob = read_bytes(trained["model"])
    model.write_bytes(blob[: len(blob) - 5])
    rc = run(["eval", "--input", small_run["labeled"], "--model", model,
              "--report", tmp_path / "r.csv"])
    assert rc == 2
    assert f"error: {model}: truncated" in capsys.readouterr().err


def test_checkpoint_with_a_nan_bin_count_exits_2(small_run, trained, tmp_path, capsys):
    blob = read_bytes(trained["model"])
    # the first count follows the array's name, its rank byte and its length
    at = blob.index(b"bins_counts") + len("bins_counts") + 1 + 8
    model = tmp_path / "nan-count.bin"
    model.write_bytes(blob[:at] + struct.pack("<d", float("nan")) + blob[at + 8 :])
    rc = run(["eval", "--input", small_run["labeled"], "--model", model,
              "--report", tmp_path / "r.csv"])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"error: {model}: " in err
    assert "duration-bin counts must be non-negative whole numbers" in err


# ----------------------------------------------------- interaction CSV input

GOOD_ROWS = ["u1,v1,60.0,30.0", "u2,v1,60.0,12.5", "u1,v2,15.5,0",
             "u3,v2,15.5,15.5", "u2,v3,240,3.25", "u3,v3,240,240"]
HEADER = ",".join(INTERACTION_HEADER)


def _rows_with(*edits):
    """The header and GOOD_ROWS with each (row, text) edit applied."""
    rows = list(GOOD_ROWS)
    for row, text in edits:
        rows[row] = text
    return [HEADER, *rows]


@pytest.mark.parametrize("lines,message", [
    (["user,video_id,duration_s,watch_time_s", *GOOD_ROWS],
     ": header must be user_id,video_id,duration_s,watch_time_s, "
     "got user,video_id,duration_s,watch_time_s"),
    ([], ": empty file"),
    ([HEADER], ": no data rows"),
    (_rows_with((3, "u3,v2,15.5")), " row 3: expected 4 fields, got 3"),
    (_rows_with((3, "u3,v2,15.5,1,x")), " row 3: expected 4 fields, got 5"),
    (_rows_with((2, ",v2,15.5,0")), " row 2: field user_id is missing"),
    (_rows_with((2, "u1,  ,15.5,0")), " row 2: field video_id is missing"),
    (_rows_with((2, "u1,v2,abc,0")), " row 2: field duration_s is not a number: 'abc'"),
    (_rows_with((2, "u1,v2,15.5,x")), " row 2: field watch_time_s is not a number: 'x'"),
    (_rows_with((2, "u1,v2,0,0")), " row 2: duration_s=0.0 must be > 0"),
    (_rows_with((2, "u1,v2,nan,0")), " row 2: duration_s=nan must be > 0"),
    (_rows_with((2, "u1,v2,15.5,-1.5")), " row 2: watch_time_s=-1.5 must be >= 0"),
    (_rows_with((2, "u1,v2,inf,0")), " row 2: duration_s=inf must be finite and > 0"),
    (_rows_with((2, "u1,v2,15.5,inf")), " row 2: watch_time_s=inf must be finite and >= 0"),
    # two faults: the earlier row is named, whichever kind it is
    (_rows_with((2, "u1,v2,-2,0"), (4, "u2,v3,240")), " row 2: duration_s=-2.0 must be > 0"),
    (_rows_with((2, "u1,v2,15.5"), (4, "u2,v3,-2,0")), " row 2: expected 4 fields, got 3"),
], ids=["header", "empty", "header-only", "short-row", "long-row", "blank-user",
        "blank-video", "duration-text", "watch-text", "zero-duration", "nan-duration",
        "negative-watch", "inf-duration", "inf-watch", "field-before-width",
        "width-before-field"])
def test_bad_interaction_csv_exits_2(tmp_path, capsys, lines, message):
    path = tmp_path / "in.csv"
    path.write_text("".join(line + "\n" for line in lines))
    out = tmp_path / "out.csv"
    assert run(["label", "--input", path, "--output", out]) == 2
    assert capsys.readouterr().err == f"error: {path}{message}\n"
    assert not out.exists()


def _numbered_rows(n: int) -> list[bytes]:
    return [HEADER.encode()] + [f"u{i % 9},v{i % 7},60.0,{i % 50}".encode() for i in range(n)]


@pytest.mark.parametrize("n,edits,message", [
    # text is decoded a block ahead of the rows: the earlier fault still wins
    (6000, {3: b"u1,v2,-2,0", 5001: b"u\xff,v1,60.0,1"}, " row 2: duration_s=-2.0 must be > 0"),
    (6000, {0: b"user,video_id,duration_s,watch_time_s", 5001: b"u\xff,v1,60.0,1"},
     ": header must be user_id,video_id,duration_s,watch_time_s, "
     "got user,video_id,duration_s,watch_time_s"),
    (6000, {5001: b"u\xff,v1,60.0,1"}, " row 5000: text is not UTF-8"),
    (6, {3: b"u1,v2,15.5", 5: b"u\xff,v1,60.0,1"}, " row 2: expected 4 fields, got 3"),
    (6, {5: b"u\xff,v1,60.0,1"}, " row 4: text is not UTF-8"),
    (6, {0: b"user_id,video_id,duration_s,watch_time_\xe9"}, " header: text is not UTF-8"),
    (6, {4: b"u" * 140_000 + b",v1,60.0,1"},
     f" row 3: field larger than field limit ({csv.field_size_limit()})"),
], ids=["field-before-bytes", "header-before-bytes", "bytes-late", "width-before-bytes",
        "bytes-early", "bytes-in-header", "oversized-field"])
def test_unreadable_interaction_csv_exits_2(tmp_path, capsys, n, edits, message):
    lines = _numbered_rows(n)
    for at, line in edits.items():
        lines[at] = line
    path = tmp_path / "in.csv"
    path.write_bytes(b"".join(line + b"\n" for line in lines))
    out = tmp_path / "out.csv"
    assert run(["label", "--input", path, "--output", out]) == 2
    assert capsys.readouterr().err == f"error: {path}{message}\n"
    assert not out.exists()


def test_quoted_ids_and_crlf_line_ends_are_read(small_run, tmp_path):
    lines = read_bytes(small_run["data"]).decode().splitlines()
    quoted = tmp_path / "quoted.csv"
    quoted.write_text("".join(
        '"{}","{}",{},{}\n'.format(*line.split(",")) for line in lines))
    crlf = tmp_path / "crlf.csv"
    crlf.write_bytes("".join(line + "\r\n" for line in lines).encode())
    for src in (quoted, crlf):
        out = tmp_path / f"{src.stem}-labeled.csv"
        assert run(["label", "--input", src, "--output", out]) == 0
        assert read_bytes(out) == read_bytes(small_run["labeled"])


def test_ids_with_a_comma_and_a_quote_survive_label_and_train(small_run, tmp_path):
    with open(small_run["data"], newline="") as fh:
        rows = list(csv.reader(fh))
    for row in rows[1:]:
        row[0] += ',"x'
        row[1] += '"'
    src = tmp_path / "odd.csv"
    with open(src, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    out = tmp_path / "odd-labeled.csv"
    assert run(["label", "--input", src, "--output", out]) == 0
    with open(out, newline="") as fh:
        got = list(csv.reader(fh))
    with open(small_run["labeled"], newline="") as fh:
        want = list(csv.reader(fh))
    assert [r[:2] for r in got] == [r[:2] for r in rows]
    assert [r[2:] for r in got] == [r[2:] for r in want]
    cfg = tmp_path / "train.cfg"
    cfg.write_text(SMOKE_TRAIN_CFG + "\n")
    assert run(["train", "--input", out, "--model", tmp_path / "m.bin", "--config", cfg,
                "--epochs", "1"]) == 0


def _composed_report(model, table, columns, truth_m) -> EvalReport:
    """evaluate_model rebuilt from the public calls, one forward each."""
    scores = score_records(model, table)["fused"]
    g_ev = gauc_detail(scores, columns["ev"], table.user_id)
    g_lv = gauc_detail(scores, columns["lv"], table.user_id)
    reg_task = next((t.name for t in model.tasks if t.kind != "binary"), None)
    mae = rmse = mape = float("nan")
    n_mape_skipped = 0
    if reg_task is not None:
        reg = regression_metrics(predict_watch_time(model, table, reg_task), table.watch_time_s)
        mae, rmse, mape, n_mape_skipped = reg.mae, reg.rmse, reg.mape, reg.n_mape_skipped
    return EvalReport(
        auc=auc(scores, columns["ev"]), gauc=g_ev.value,
        auc_lv=auc(scores, columns["lv"]), gauc_lv=g_lv.value,
        mae=mae, rmse=rmse, mape=mape,
        gauc_truth=oracle_rank_quality(scores, truth_m, table.user_id),
        n_records=table.n,
        n_users_used=g_ev.n_users_used, n_users_skipped=g_ev.n_users_skipped,
        n_users_used_lv=g_lv.n_users_used, n_users_skipped_lv=g_lv.n_users_skipped,
        n_mape_skipped=n_mape_skipped,
    )


@pytest.mark.parametrize("decoded,tasks", [
    ("seconds", [TaskConfig("watch_time_s", "squared_error"), TaskConfig("ev", "logistic")]),
    ("odds", [TaskConfig("ev", "logistic"), TaskConfig("ev", "weighted_logistic", name="wlr")]),
    ("playing_rate", [TaskConfig("playing_rate", "squared_error"), TaskConfig("lv_d", "logistic")]),
    ("quantile", [TaskConfig("wpr_d", "squared_error"), TaskConfig("ev_d", "logistic")]),
    ("quantile", [TaskConfig("wpr", "squared_error")]),
    ("ordinal", [TaskConfig("wpr", "ordinal_cumulative"), TaskConfig("lv", "logistic")]),
    (None, [TaskConfig("ev", "logistic"), TaskConfig("lv", "logistic")]),
], ids=["seconds", "odds", "playing-rate", "bin-quantile", "quantile", "ordinal", "binary-only"])
def test_evaluate_model_equals_its_public_composition(decoded, tasks):
    table, truth = generate(SyntheticConfig(seed=4, n_users=30, n_videos=90,
                                            interactions_per_user=12))
    columns = dict(label_all(table, LabelConfig(
        partition=make_partition("equal_frequency", 6))).columns)
    opt = OptimizerConfig(epochs=1, batch_size=64, seed=3)
    model, _ = fit(table, columns, tasks, ModelArch(3, 2, 5), opt, bins_b=4, bins_min_size=5)
    got = evaluate_model(model, table, columns, truth.m)
    want = _composed_report(model, table, columns, truth.m)
    # the first task with a watch-time scale is the one decoded
    assert next((t.kind for t in model.tasks if t.kind != "binary"), None) == decoded
    assert np.isnan(got.mae) == (decoded is None)
    for field in dataclasses.fields(EvalReport):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, float):
            assert struct.pack("<d", a) == struct.pack("<d", b), field.name
        else:
            assert type(a) is type(b) and a == b, field.name


def test_internal_error_exits_1(tmp_path, capsys, monkeypatch):
    import wtlabel.cli as cli_mod

    def boom(cfg):
        raise RuntimeError("wires crossed")

    monkeypatch.setattr(cli_mod, "generate", boom)
    rc = run(["gen", "--out", tmp_path / "x", *SMALL_GEN])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("internal error: RuntimeError")


def test_console_script_entry_point(tmp_path):
    # Check the console script that pyproject.toml declares, run through
    # the launcher an installer writes for it, so the suite needs no
    # install of the package.
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    assert scripts.get("wtlabel") == "wtlabel.cli:main"
    exe = tmp_path / "bin" / "wtlabel"
    exe.parent.mkdir()
    exe.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        "from wtlabel.cli import main\n"
        "if __name__ == '__main__':\n"
        "    sys.exit(main())\n"
    )
    exe.chmod(0o755)
    env = dict(os.environ, PYTHONPATH=str(Path(wtlabel.__file__).parent.parent))
    out = tmp_path / "cli"
    proc = subprocess.run(
        [str(exe), "gen", "--out", str(out), "--users", "5", "--videos", "20",
         "--per-user", "4", "--print-config"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert "n_groups=300" in proc.stdout
    assert (out / "interactions.csv").exists()


# ------------------------------------------------------------- split mask


def _splitmix_oracle(value: int, seed: int, frac: float) -> bool:
    mask = (1 << 64) - 1
    z = (value ^ seed) & mask
    z = (z + 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    z = z ^ (z >> 31)
    return (z % 10000) < round(frac * 10000)


def test_split_mask_matches_hash_oracle():
    rows = np.arange(5000, dtype=np.int64)
    for seed, frac in [(1, 0.9), (5, 0.5), (99, 0.25)]:
        got = split_mask(rows, frac, seed)
        want = np.array([_splitmix_oracle(int(r), seed, frac) for r in rows])
        assert np.array_equal(got, want)


def test_split_mask_fraction_and_stability():
    rows = np.arange(20000, dtype=np.int64)
    mask = split_mask(rows, 0.9, 1)
    assert abs(mask.mean() - 0.9) < 0.01
    # membership depends only on the row index, not the table size
    head = split_mask(rows[:1000], 0.9, 1)
    assert np.array_equal(mask[:1000], head)
    assert not np.array_equal(mask, split_mask(rows, 0.9, 2))
    with pytest.raises(ConfigInvalid):
        split_mask(rows, 1.5, 1)
