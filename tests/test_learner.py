"""Multi-gate mixture learner: forward math, gradients, training, inverse maps."""

from __future__ import annotations

import math
import struct
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wtlabel.learner as learner
from wtlabel.core import DurationBins, InteractionTable, make_duration_bins, make_partition
from wtlabel.cli import main as cli_main
from wtlabel.datagen import SyntheticConfig, generate
from wtlabel.dataio import write_labeled
from wtlabel.errors import (
    ConfigInvalid,
    DegenerateLabels,
    MissingInverseMap,
    MissingLabelColumn,
    NonFiniteLoss,
    SerializationError,
)
from wtlabel.labeling import LabelConfig, label_all
from wtlabel.learner import (
    CHECKPOINT_MAGIC,
    EMBEDDINGS,
    Model,
    ModelArch,
    OptimizerConfig,
    ResolvedTask,
    TaskConfig,
    WprInverse,
    _backward,
    _task_loss,
    build_train_data,
    build_wpr_inverse,
    fit,
    forward,
    gradient_check,
    init_model,
    load_model,
    predict_watch_time,
    resolve_tasks,
    save_model,
    score_records,
)


def table_of(watch, durations=None, users=None, videos=None) -> InteractionTable:
    watch = np.asarray(watch, dtype=np.float64)
    n = len(watch)
    if durations is None:
        durations = np.full(n, 60.0)
    return InteractionTable(
        user_id=list(users) if users is not None else [f"u{i}" for i in range(n)],
        video_id=list(videos) if videos is not None else [f"v{i}" for i in range(n)],
        duration_s=np.asarray(durations, dtype=np.float64),
        watch_time_s=watch,
    )


def scalar_task(name, kind="seconds", loss="squared_error", n_out=1, per_bin=False):
    return ResolvedTask(
        name=name, target=name, loss=loss, weight=1.0, n_out=n_out, kind=kind, per_bin=per_bin
    )


def one_bin() -> DurationBins:
    return make_duration_bins(table_of(np.full(4, 30.0)), 1, min_bin_size=1)


def zero_model(tasks, arch=None, bins=None, n_users=3, n_videos=3) -> Model:
    """All-zero parameters so every score equals the head bias."""
    arch = arch or ModelArch(d_embed=2, n_experts=2, hidden=4)
    bins = bins or one_bin()
    rng = np.random.Generator(np.random.PCG64(0))
    params = init_model(arch, tasks, n_users, n_videos, bins.n_bins, rng)
    params = {k: np.zeros_like(v) for k, v in params.items()}
    return Model(
        arch=arch,
        tasks=tuple(tasks),
        params=params,
        user_index={f"u{i}": i for i in range(n_users)},
        video_index={f"v{i}": i for i in range(n_videos)},
        bins=bins,
    )


def small_labeled(seed=11, users=40, videos=120, per_user=20):
    cfg = SyntheticConfig(seed=seed, n_users=users, n_videos=videos, interactions_per_user=per_user)
    table, _ = generate(cfg)
    labels = label_all(table, LabelConfig(partition=make_partition("equal_frequency", 8)))
    return table, dict(labels.columns)


# -------------------------------------------------------------- init_model


def test_parameter_count_frozen():
    # 852 embedding + 352 expert + 78 gate + 27 head values
    arch = ModelArch(d_embed=4, n_experts=2, hidden=8)
    tasks = [scalar_task(n) for n in ("a", "b", "c")]
    rng = np.random.Generator(np.random.PCG64(0))
    params = init_model(arch, tasks, 100, 100, 10, rng)
    assert sum(p.size for p in params.values()) == 1309


def test_init_deterministic_and_bounded():
    arch = ModelArch(d_embed=4, n_experts=2, hidden=8)
    tasks = [scalar_task("a")]
    p1 = init_model(arch, tasks, 5, 5, 2, np.random.Generator(np.random.PCG64(7)))
    p2 = init_model(arch, tasks, 5, 5, 2, np.random.Generator(np.random.PCG64(7)))
    assert p1.keys() == p2.keys()
    for k in p1:
        assert np.array_equal(p1[k], p2[k])
    assert np.all(np.abs(p1["emb_user"]) <= math.sqrt(3.0 / 4))
    assert np.all(np.abs(p1["expert0_w1"]) <= math.sqrt(6.0 / 12))
    assert np.all(np.abs(p1["expert0_w2"]) <= math.sqrt(6.0 / 8))
    for k in ("expert0_b1", "expert1_b2", "gate_a_b", "head_a_b"):
        assert np.count_nonzero(p1[k]) == 0


def test_init_rejects_bad_arch():
    with pytest.raises(ConfigInvalid):
        init_model(
            ModelArch(d_embed=0, n_experts=1, hidden=1),
            [scalar_task("a")],
            1,
            1,
            1,
            np.random.Generator(np.random.PCG64(0)),
        )


# ----------------------------------------------------------------- forward


def naive_forward(params, arch, tasks, user_rows, video_rows, bin_rows):
    """Straight-line per-record recomputation with erf-based gaussian CDF."""
    n = len(user_rows)
    out = {t.name: np.zeros((n, t.n_out)) for t in tasks}
    for i in range(n):
        x = np.concatenate(
            [
                params["emb_user"][user_rows[i]],
                params["emb_video"][video_rows[i]],
                params["emb_bin"][bin_rows[i]],
            ]
        )
        expert_outs = []
        for e in range(arch.n_experts):
            a = params[f"expert{e}_w1"] @ x + params[f"expert{e}_b1"]
            h = np.array([v * 0.5 * (1.0 + math.erf(v / math.sqrt(2.0))) for v in a])
            expert_outs.append(params[f"expert{e}_w2"] @ h + params[f"expert{e}_b2"])
        for t in tasks:
            logits = params[f"gate_{t.name}_w"] @ x + params[f"gate_{t.name}_b"]
            p = np.exp(logits - logits.max())
            p = p / p.sum()
            mix = sum(p[e] * expert_outs[e] for e in range(arch.n_experts))
            out[t.name][i] = params[f"head_{t.name}_w"] @ mix + params[f"head_{t.name}_b"]
    return out


def test_forward_matches_naive_recomputation():
    arch = ModelArch(d_embed=3, n_experts=2, hidden=5)
    tasks = [scalar_task("a"), scalar_task("o", kind="ordinal", loss="ordinal_cumulative", n_out=3)]
    rng = np.random.Generator(np.random.PCG64(5))
    params = init_model(arch, tasks, 6, 6, 3, rng)
    u = rng.integers(0, 7, size=16)
    v = rng.integers(0, 7, size=16)
    b = rng.integers(0, 4, size=16)
    scores, _ = forward(params, arch, tasks, u, v, b)
    want = naive_forward(params, arch, tasks, u, v, b)
    for t in tasks:
        assert np.allclose(scores[t.name], want[t.name], rtol=0, atol=1e-12)


def test_gate_weights_sum_to_one():
    arch = ModelArch(d_embed=2, n_experts=4, hidden=3)
    tasks = [scalar_task("a")]
    rng = np.random.Generator(np.random.PCG64(3))
    params = init_model(arch, tasks, 4, 4, 2, rng)
    _, cache = forward(params, arch, tasks, np.arange(4), np.arange(4), np.zeros(4, dtype=np.int64))
    gates = cache[4]["a"]
    assert gates.shape == (4, 4)
    assert np.all(gates >= 0)
    assert np.allclose(gates.sum(axis=1), 1.0, atol=1e-9)


def test_zero_parameters_give_zero_scores():
    m = zero_model([scalar_task("ev", kind="binary", loss="logistic")])
    t = table_of([1.0, 2.0, 3.0])
    scores, _ = forward(
        m.params, m.arch, m.tasks, np.zeros(3, np.int64), np.zeros(3, np.int64), np.zeros(3, np.int64)
    )
    assert np.count_nonzero(scores["ev"]) == 0
    out = score_records(m, t)
    assert np.all(out["ev"] == 0.0)
    # the fused ranking entry for a logistic task is its probability
    assert np.all(out["fused"] == 0.5)


def test_one_hot_gate_routes_to_single_expert():
    arch = ModelArch(d_embed=2, n_experts=2, hidden=4)
    tasks = [scalar_task("a")]
    rng = np.random.Generator(np.random.PCG64(9))
    params = init_model(arch, tasks, 4, 4, 2, rng)
    params["gate_a_w"][:] = 0.0
    params["gate_a_b"][:] = np.array([-1e4, 0.0])  # expert 1 only
    u = np.arange(4)
    b = np.zeros(4, dtype=np.int64)
    scores, _ = forward(params, arch, tasks, u, u, b)
    x = np.concatenate(
        [params["emb_user"][u], params["emb_video"][u], params["emb_bin"][b]], axis=1
    )
    a1 = x @ params["expert1_w1"].T + params["expert1_b1"]
    from scipy.special import ndtr

    h1 = a1 * ndtr(a1)
    out1 = h1 @ params["expert1_w2"].T + params["expert1_b2"]
    want = out1 @ params["head_a_w"].T + params["head_a_b"]
    assert np.array_equal(scores["a"], want)


def test_single_expert_ignores_gate_parameters():
    arch = ModelArch(d_embed=2, n_experts=1, hidden=4)
    tasks = [scalar_task("a")]
    rng = np.random.Generator(np.random.PCG64(2))
    params = init_model(arch, tasks, 4, 4, 2, rng)
    u = np.arange(4)
    b = np.zeros(4, dtype=np.int64)
    s1, _ = forward(params, arch, tasks, u, u, b)
    params["gate_a_w"][:] = rng.normal(size=params["gate_a_w"].shape)
    params["gate_a_b"][:] = rng.normal(size=params["gate_a_b"].shape)
    s2, _ = forward(params, arch, tasks, u, u, b)
    assert np.array_equal(s1["a"], s2["a"])


# ------------------------------------------------------------ resolve_tasks


def test_resolve_tasks_kinds_and_outputs():
    cols = {
        "wpr": np.array([0.25, 0.5, 0.75, 1.0, 0.25]),
        "wpr_d": np.array([0.5, 1.0, 0.5, 1.0, 0.5]),
        "ef_wpr": np.array([0.5, 1.0, 0.5, 1.0, 0.5]),
        "ew_wpr": np.array([0.5, 1.0, 0.5, 1.0, 0.5]),
        "ev": np.array([0.0, 1.0, 0.0, 1.0, 1.0]),
        "ev_d": np.array([0.0, 1.0, 0.0, 1.0, 1.0]),
        "lv_d": np.array([0.0, 1.0, 0.0, 0.0, 1.0]),
        "playing_rate": np.array([0.1, 0.2, 0.3, 0.4, 0.5]),
        "watch_time_s": np.array([1.0, 2.0, 3.0, 4.0, 5.0]),
    }
    tasks = resolve_tasks(
        [
            TaskConfig("wpr", "ordinal_cumulative"),
            TaskConfig("wpr_d", "squared_error"),
            TaskConfig("ev", "logistic"),
            TaskConfig("ev", "weighted_logistic", weight=0.05, name="wlr"),
            TaskConfig("playing_rate", "squared_error"),
            TaskConfig("watch_time_s", "squared_error"),
            TaskConfig("ef_wpr", "squared_error"),
            TaskConfig("ew_wpr", "squared_error"),
            TaskConfig("wpr", "squared_error", name="wpr_se"),
            TaskConfig("wpr_d", "ordinal_cumulative", name="wpr_d_or"),
            TaskConfig("ev_d", "squared_error"),
            TaskConfig("lv_d", "logistic"),
        ],
        cols,
    )
    by_name = {t.name: t for t in tasks}
    assert by_name["wpr"].kind == "ordinal" and by_name["wpr"].n_out == 3
    assert by_name["wpr_d"].kind == "quantile" and by_name["wpr_d"].per_bin
    assert by_name["ev"].kind == "binary"
    assert by_name["wlr"].kind == "odds" and by_name["wlr"].weight == 0.05
    assert by_name["playing_rate"].kind == "playing_rate"
    assert by_name["watch_time_s"].kind == "seconds"
    kind_and_bin = {name: (t.kind, t.per_bin) for name, t in by_name.items()}
    assert kind_and_bin["ef_wpr"] == ("quantile", True)
    assert kind_and_bin["ew_wpr"] == ("quantile", False)
    assert kind_and_bin["wpr_se"] == ("quantile", False)
    assert kind_and_bin["wpr_d_or"] == ("ordinal", True)
    assert kind_and_bin["ev_d"] == ("seconds", False)  # per_bin is saved in WLMD
    assert kind_and_bin["lv_d"] == ("binary", False)


def test_resolve_tasks_errors():
    cols = {"ev": np.array([0.0, 1.0]), "flat": np.array([0.5, 0.5])}
    with pytest.raises(ConfigInvalid):
        resolve_tasks([], cols)
    with pytest.raises(ConfigInvalid):
        resolve_tasks([TaskConfig("ev", "hinge")], cols)
    with pytest.raises(ConfigInvalid):
        resolve_tasks([TaskConfig("ev", "logistic"), TaskConfig("ev", "squared_error")], cols)
    with pytest.raises(MissingLabelColumn):
        resolve_tasks([TaskConfig("lv", "logistic")], cols)
    with pytest.raises(DegenerateLabels):
        resolve_tasks([TaskConfig("flat", "ordinal_cumulative")], cols)


def test_logistic_tasks_need_binary_targets():
    cols = {"ev": np.array([0.0, 1.0, 1.0]), "wpr": np.array([0.25, 0.5, 1.0]),
            "gap": np.array([0.0, np.nan, 1.0])}
    for loss in ("logistic", "weighted_logistic"):
        assert resolve_tasks([TaskConfig("ev", loss)], cols)[0].loss == loss
        for target in ("wpr", "gap"):
            with pytest.raises(ConfigInvalid, match=f"{loss} needs 0/1 targets in '{target}'"):
                resolve_tasks([TaskConfig(target, loss)], cols)


# ---------------------------------------------------------------- training


def test_weighted_logistic_with_unit_weights_matches_logistic():
    # positives watch exactly 1.0s, so the watch-second weights are all 1
    watch = np.where(np.arange(40) % 2 == 0, 1.0, 0.2)
    t = table_of(watch, users=[f"u{i % 5}" for i in range(40)], videos=[f"v{i % 8}" for i in range(40)])
    cols = {"ev": (watch == 1.0).astype(np.float64)}
    opt = OptimizerConfig(epochs=3, batch_size=16, seed=1)
    arch = ModelArch(d_embed=2, n_experts=2, hidden=4)
    m1, tr1 = fit(t, cols, [TaskConfig("ev", "logistic")], arch, opt, bins_b=1, bins_min_size=1)
    m2, tr2 = fit(
        t, cols, [TaskConfig("ev", "weighted_logistic")], arch, opt, bins_b=1, bins_min_size=1
    )
    assert tr1 == tr2
    for k in m1.params:
        assert np.array_equal(m1.params[k], m2.params[k])


def test_task_weight_scales_gradients_exactly():
    t = table_of(np.arange(1.0, 17.0), durations=np.full(16, 30.0))
    cols = {"wpr": np.tile([0.25, 0.5, 0.75, 1.0], 4)}
    task1 = resolve_tasks([TaskConfig("wpr", "squared_error", weight=1.0)], cols)
    bins = make_duration_bins(t, 1, min_bin_size=1)
    arch = ModelArch(d_embed=2, n_experts=2, hidden=4)
    rng = np.random.Generator(np.random.PCG64(4))
    params = init_model(arch, task1, 16, 16, bins.n_bins, rng)
    rows = np.arange(16)
    b = np.zeros(16, dtype=np.int64)
    scores, cache = forward(params, arch, task1, rows, rows, b)
    _, ds = _task_loss(task1[0], scores["wpr"], cols["wpr"], None)
    g1 = _backward(params, arch, task1, cache, {"wpr": ds})
    # doubling is a pure exponent shift, so the match is bitwise
    g2 = _backward(params, arch, task1, cache, {"wpr": ds * 2.0})
    for k in g1:
        assert np.array_equal(g2[k], 2.0 * g1[k])


def test_constant_target_drives_loss_down():
    t = table_of(np.full(64, 5.0), durations=np.full(64, 10.0))
    opt = OptimizerConfig(lr_embed=0.05, lr_dense=0.05, batch_size=64, epochs=40, seed=0)
    arch = ModelArch(d_embed=2, n_experts=2, hidden=4)
    model, trace = fit(
        t, {}, [TaskConfig("watch_time_s", "squared_error")], arch, opt, bins_b=1, bins_min_size=1
    )
    first = trace[0][2]
    last = trace[-1][2]
    assert last < first
    assert last < 0.5
    preds = predict_watch_time(model, t)
    assert np.all(np.abs(preds - 5.0) < 1.0)


def test_fit_is_deterministic():
    table, cols = small_labeled(seed=3, users=12, videos=40, per_user=8)
    opt = OptimizerConfig(epochs=2, batch_size=32, seed=9)
    arch = ModelArch(d_embed=3, n_experts=2, hidden=6)
    tasks = [TaskConfig("wpr_d", "squared_error"), TaskConfig("ev_d", "logistic")]
    m1, tr1 = fit(table, cols, tasks, arch, opt, bins_b=3, bins_min_size=5)
    m2, tr2 = fit(table, cols, tasks, arch, opt, bins_b=3, bins_min_size=5)
    assert tr1 == tr2
    for k in m1.params:
        assert np.array_equal(m1.params[k], m2.params[k])
    s1 = score_records(m1, table)
    s2 = score_records(m2, table)
    assert np.array_equal(s1["fused"], s2["fused"])


def test_runaway_learning_rate_raises():
    t = table_of(np.linspace(1.0, 50.0, 32), durations=np.full(32, 60.0))
    opt = OptimizerConfig(lr_embed=1e12, lr_dense=1e12, batch_size=8, epochs=10, seed=0)
    with np.errstate(all="ignore"):
        with pytest.raises(
            NonFiniteLoss,
            match=r"^epoch \d+, batch at \d+: loss became (nan|inf) "
                  r"\(non-finite task losses: watch_time_s=(nan|inf)\)$",
        ):
            fit(t, {}, [TaskConfig("watch_time_s", "squared_error")], ModelArch(2, 2, 4), opt,
                bins_b=1, bins_min_size=1)



@pytest.mark.parametrize("weight,epochs,message", [
    # one batch, one epoch: the update overflows and no batch follows it
    (1e10, 1, r"^parameter emb_user became non-finite in the last update$"),
    # the update stays finite and the next forward pass overflows
    (1.0, 2, r"^epoch 2, batch at 0: loss became inf "),
    # the same with no batch after the update: the forward pass after it
    (1.0, 1, r"^the forward pass after the last update overflows in expert0: overflow "),
])
def test_huge_learning_rate_raises_without_a_warning(weight, epochs, message):
    t = table_of(np.linspace(1.0, 50.0, 32), durations=np.full(32, 60.0))
    opt = OptimizerConfig(lr_embed=1e300, batch_size=32, epochs=epochs)
    with pytest.raises(NonFiniteLoss, match=message):
        fit(t, {}, [TaskConfig("watch_time_s", "squared_error", weight=weight)],
            ModelArch(2, 2, 4), opt, bins_b=1, bins_min_size=1)


@pytest.mark.parametrize("field,value,message", [
    ("batch_size", 0, "batch_size must be >= 1"),
    ("epochs", 0, "epochs must be >= 1"),
    ("lr_embed", math.inf, "lr_embed must be finite"),
    ("lr_dense", 0.0, "lr_dense must be > 0"),
    ("seed", -1, "seed must be >= 0"),
])
def test_fit_rejects_optimizer_settings_outside_their_domain(field, value, message):
    t = table_of(np.linspace(1.0, 50.0, 8))
    with pytest.raises(ConfigInvalid, match=f"^{message}$"):
        fit(t, {}, [TaskConfig("watch_time_s", "squared_error")], ModelArch(2, 2, 4),
            OptimizerConfig(**{field: value}), bins_b=1, bins_min_size=1)


# ---------------------------------------------------------- gradient_check


def test_gradient_check_zero_init_squared_error():
    tasks = [scalar_task("watch_time_s")]
    m = zero_model(tasks, n_users=8, n_videos=8)
    t = table_of(np.arange(1.0, 9.0), durations=np.full(8, 30.0),
                 users=[f"u{i % 3}" for i in range(8)], videos=[f"v{i % 3}" for i in range(8)])
    data = build_train_data(t, {"watch_time_s": t.watch_time_s}, m.tasks,
                            m.user_index, m.video_index, m.bins)
    assert gradient_check(m, data, n_probes=80, seed=1) <= 1e-6


def test_gradient_check_all_losses_small():
    table, cols = small_labeled(seed=11, users=30, videos=100, per_user=12)
    tasks = [
        TaskConfig("wpr_d", "squared_error"),
        TaskConfig("ev_d", "logistic"),
        TaskConfig("ev", "weighted_logistic", weight=0.05),
        TaskConfig("wpr", "ordinal_cumulative"),
    ]
    opt = OptimizerConfig(epochs=1, batch_size=64, seed=2)
    arch = ModelArch(d_embed=3, n_experts=2, hidden=6)
    model, _ = fit(table, cols, tasks, arch, opt, bins_b=4, bins_min_size=5)
    full = dict(cols)
    full["watch_time_s"] = table.watch_time_s
    data = build_train_data(table, full, model.tasks, model.user_index, model.video_index,
                            model.bins)
    assert gradient_check(model, data, n_probes=120, seed=3) <= 1e-4


def test_gradient_check_formula_detects_sign_flip():
    # guard against a vacuous check: a flipped analytic gradient must
    # register a relative error near 2, not near 0
    tasks = [scalar_task("watch_time_s")]
    arch = ModelArch(d_embed=2, n_experts=2, hidden=4)
    rng = np.random.Generator(np.random.PCG64(6))
    t = table_of(np.arange(1.0, 9.0), durations=np.full(8, 30.0))
    bins = make_duration_bins(t, 1, min_bin_size=1)
    params = init_model(arch, tasks, 8, 8, bins.n_bins, rng)
    rows = np.arange(8)
    b = np.zeros(8, dtype=np.int64)
    scores, cache = forward(params, arch, tasks, rows, rows, b)
    _, ds = _task_loss(tasks[0], scores["watch_time_s"], t.watch_time_s, None)
    grads = _backward(params, arch, tasks, cache, {"watch_time_s": ds})
    analytic = grads["head_watch_time_s_b"][0]
    assert abs(analytic) > 1e-3
    step = 1e-5
    keep = params["head_watch_time_s_b"][0]

    def loss_at(v):
        params["head_watch_time_s_b"][0] = v
        s, _ = forward(params, arch, tasks, rows, rows, b)
        l, _ = _task_loss(tasks[0], s["watch_time_s"], t.watch_time_s, None)
        return l

    numeric = (loss_at(keep + step) - loss_at(keep - step)) / (2 * step)
    params["head_watch_time_s_b"][0] = keep

    def rel(a, n):
        return abs(a - n) / max(abs(a), abs(n), 1e-8)

    assert rel(analytic, numeric) < 1e-6
    assert rel(-analytic, numeric) > 1.5


# ---------------------------------------------------------- kernel oracles
# The references are the formulas the loss and embedding-gradient
# kernels replaced. Gradients must match them bit for bit, loss values
# to 1e-12 relative.

# magnitudes where exp over- or underflows, or 1 + exp(-s) rounds to 1
EXTREME_SCORES = [0.0, -0.0, 36.7, -36.7, 745.0, -745.0, 1000.0, -1000.0]


def _softplus_reference(x):
    return np.logaddexp(0.0, x)


def _sigmoid_reference(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _cross_entropy_reference(task, s, targets, weights):
    b = s.shape[0]
    if task.loss == "ordinal_cumulative":
        z = (targets[:, None] > np.arange(task.n_out)[None, :]).astype(np.float64)
        sp_pos, sp_neg = _softplus_reference(-s), _softplus_reference(s)
        loss = float(np.mean(np.sum(z * sp_pos + (1.0 - z) * sp_neg, axis=1)))
        return loss, (_sigmoid_reference(s) - z) / b
    sv, t = s[:, 0], targets
    w = weights if weights is not None else np.ones_like(sv)
    loss = float(np.mean(w * t * _softplus_reference(-sv) + (1.0 - t) * _softplus_reference(sv)))
    sig = _sigmoid_reference(sv)
    return loss, ((t * w * (sig - 1.0) + (1.0 - t) * sig) / b)[:, None]


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def _check_cross_entropy(task, s, targets, weights):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loss, ds = _task_loss(task, s, targets, weights)
        want_loss, want_ds = _cross_entropy_reference(task, s, targets, weights)
    assert ds.shape == s.shape
    if weights is not None:
        # where w * (sig - 1) rounds to zero (w = 0 or subnormal) a positive
        # gets -0.0 and the old form +0.0 (it added (1 - t) * sig); the two
        # compare equal and leave every sum and update unchanged
        ds, want_ds = ds + 0.0, want_ds + 0.0
    assert np.array_equal(_bits(ds), _bits(want_ds))
    assert math.isclose(loss, want_loss, rel_tol=1e-12)


SCORE_VALUES = st.one_of(
    st.sampled_from(EXTREME_SCORES), st.floats(min_value=-1000.0, max_value=1000.0)
)


@settings(deadline=None, max_examples=300)
@given(st.lists(st.tuples(SCORE_VALUES, st.booleans()), min_size=1, max_size=40))
def test_logistic_kernel_matches_reference(rows):
    s = np.array([[v] for v, _ in rows])
    t = np.array([float(positive) for _, positive in rows])
    _check_cross_entropy(scalar_task("ev", kind="binary", loss="logistic"), s, t, None)


@settings(deadline=None, max_examples=300)
@given(st.lists(
    st.tuples(SCORE_VALUES, st.booleans(), st.floats(min_value=0.0, max_value=3600.0)),
    min_size=1, max_size=40,
))
def test_weighted_logistic_kernel_matches_reference(rows):
    s = np.array([[v] for v, _, _ in rows])
    t = np.array([float(positive) for _, positive, _ in rows])
    watch = np.array([w for _, _, w in rows])
    # positives weigh their watch seconds, as _prepare_targets sets them
    weights = np.where(t == 1.0, watch, 1.0)
    _check_cross_entropy(scalar_task("wlr", kind="odds", loss="weighted_logistic"), s, t, weights)


@settings(deadline=None, max_examples=60)
@given(
    k=st.sampled_from([1, 299]),
    n=st.integers(min_value=1, max_value=48),
    scale=st.sampled_from([0.01, 1.0, 30.0, 1000.0]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_ordinal_kernel_matches_reference(k, n, scale, seed):
    rng = np.random.default_rng(seed)
    s = rng.normal(0.0, scale, size=(n, k))
    hit = rng.integers(0, s.size, size=s.size // 4 + 1)
    s.flat[hit] = rng.choice(EXTREME_SCORES, size=hit.size)
    targets = rng.integers(0, k + 1, size=n).astype(np.float64)
    task = scalar_task("wpr", kind="ordinal", loss="ordinal_cumulative", n_out=k)
    _check_cross_entropy(task, s, targets, None)


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), n=st.integers(min_value=1, max_value=400))
def test_embedding_gradients_match_add_at(seed, n):
    arch = ModelArch(d_embed=3, n_experts=2, hidden=5)
    tasks = [scalar_task("a"), scalar_task("b", kind="ordinal", loss="ordinal_cumulative", n_out=4)]
    rng = np.random.Generator(np.random.PCG64(seed))
    params = init_model(arch, tasks, 3, 2, 2, rng)
    # a handful of rows per table, fallback rows included: heavy repeats
    rows = [rng.integers(0, params[k].shape[0], size=n) for k in EMBEDDINGS]
    _, cache = forward(params, arch, tasks, *rows)
    dscores = {"a": rng.normal(size=(n, 1)), "b": rng.normal(size=(n, 4))}
    grads = _backward(params, arch, tasks, cache, dscores)
    # with a table row of its own, each record's gradient stands alone
    own = np.arange(n)
    wide = dict(params, **{k: np.zeros((n, arch.d_embed)) for k in EMBEDDINGS})
    per_record = _backward(wide, arch, tasks, cache[:6] + (own, own, own), dscores)
    for k, r in zip(EMBEDDINGS, rows):
        want = np.zeros_like(params[k])
        np.add.at(want, r, per_record[k])
        assert np.array_equal(_bits(grads[k]), _bits(want))
    assert set(grads) == set(params)
    for k in params:
        assert grads[k].shape == params[k].shape
        if k not in EMBEDDINGS:
            assert np.array_equal(_bits(grads[k]), _bits(per_record[k]))


# ------------------------------------------------------ bitwise step oracle
# The forward, loss and backward bodies the preallocated, in-place
# training step replaced, kept verbatim. Every parameter and every trace
# loss of train must match them to the bit.

_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


def _reference_gelu(a):
    from scipy.special import ndtr
    cdf = ndtr(a)
    pdf = np.exp(-0.5 * a * a) * _INV_SQRT_2PI
    return a * cdf, cdf + a * pdf


def _reference_forward(params, arch, tasks, user_rows, video_rows, bin_rows):
    rows = (user_rows, video_rows, bin_rows)
    x = np.concatenate([params[k][r] for k, r in zip(EMBEDDINGS, rows)], axis=1)
    hs = []
    dacts = []
    outs = []
    for e in range(arch.n_experts):
        a = x @ params[f"expert{e}_w1"].T + params[f"expert{e}_b1"]
        h, dh = _reference_gelu(a)
        hs.append(h)
        dacts.append(dh)
        outs.append(h @ params[f"expert{e}_w2"].T + params[f"expert{e}_b2"])
    expert_out = np.stack(outs, axis=0)
    scores = {}
    gates = {}
    mixed = {}
    for t in tasks:
        logits = x @ params[f"gate_{t.name}_w"].T + params[f"gate_{t.name}_b"]
        logits = logits - logits.max(axis=1, keepdims=True)
        ex = np.exp(logits)
        p = ex / ex.sum(axis=1, keepdims=True)
        mix = np.einsum("be,ebh->bh", p, expert_out)
        scores[t.name] = mix @ params[f"head_{t.name}_w"].T + params[f"head_{t.name}_b"]
        gates[t.name] = p
        mixed[t.name] = mix
    cache = (x, hs, dacts, expert_out, gates, mixed, user_rows, video_rows, bin_rows)
    return scores, cache


def _reference_task_loss(task, s, targets, weights):
    b = s.shape[0]
    if task.loss == "squared_error":
        diff = s[:, 0] - targets
        loss = float(np.mean(diff * diff))
        ds = (2.0 / b) * diff[:, None]
        return loss, ds
    if task.loss == "ordinal_cumulative":
        pos = targets[:, None] > np.arange(task.n_out)
    else:
        pos = (targets == 1.0)[:, None]
    z = pos.astype(np.float64)
    e = np.exp(-np.abs(s))
    terms = np.maximum(s * (1.0 - 2.0 * z), 0.0) + np.log1p(e)
    sig = np.maximum(e, s >= 0) / (1.0 + e)
    w = 1.0 if weights is None else np.where(pos, weights[:, None], 1.0)
    loss = float(np.mean(np.sum(w * terms, axis=1)))
    return loss, w * (sig - z) / b


def _reference_backward(params, arch, tasks, cache, dscores):
    x, hs, dacts, expert_out, gates, mixed, user_rows, video_rows, bin_rows = cache
    grads = {}
    d_expert_out = np.zeros_like(expert_out)
    dx = np.zeros_like(x)
    for t in tasks:
        ds = dscores[t.name]
        grads[f"head_{t.name}_w"] = ds.T @ mixed[t.name]
        grads[f"head_{t.name}_b"] = ds.sum(axis=0)
        dmix = ds @ params[f"head_{t.name}_w"]
        p = gates[t.name]
        dp = np.einsum("bh,ebh->be", dmix, expert_out)
        for e in range(arch.n_experts):
            d_expert_out[e] += p[:, e, None] * dmix
        dlogits = p * (dp - (dp * p).sum(axis=1, keepdims=True))
        grads[f"gate_{t.name}_w"] = dlogits.T @ x
        grads[f"gate_{t.name}_b"] = dlogits.sum(axis=0)
        dx += dlogits @ params[f"gate_{t.name}_w"]
    for e in range(arch.n_experts):
        doe = d_expert_out[e]
        grads[f"expert{e}_w2"] = doe.T @ hs[e]
        grads[f"expert{e}_b2"] = doe.sum(axis=0)
        da = (doe @ params[f"expert{e}_w2"]) * dacts[e]
        grads[f"expert{e}_w1"] = da.T @ x
        grads[f"expert{e}_b1"] = da.sum(axis=0)
        dx += da @ params[f"expert{e}_w1"]
    d = arch.d_embed
    for j, (name, rows) in enumerate(zip(EMBEDDINGS, (user_rows, video_rows, bin_rows))):
        cells = (rows[:, None] * d + np.arange(d)).ravel()
        flat = np.bincount(cells, dx[:, j * d : (j + 1) * d].ravel(), params[name].size)
        grads[name] = flat.reshape(params[name].shape)
    return grads


def _reference_train(params, arch, tasks, data, opt, rng):
    """The SGD loop of train over the reference bodies: its trace rows."""
    trace = []
    for epoch in range(1, opt.epochs + 1):
        perm = rng.permutation(data.n)
        sums = {t.name: 0.0 for t in tasks}
        for start in range(0, data.n, opt.batch_size):
            take = perm[start : start + opt.batch_size]
            scores, cache = _reference_forward(
                params, arch, tasks, data.user_rows[take], data.video_rows[take],
                data.bin_rows[take])
            dscores = {}
            for t in tasks:
                w = data.wlr_weights.get(t.name)
                loss, ds = _reference_task_loss(
                    t, scores[t.name], data.targets[t.name][take], None if w is None else w[take])
                sums[t.name] += loss * len(take)
                dscores[t.name] = ds * t.weight
            grads = _reference_backward(params, arch, tasks, cache, dscores)
            for k, g in grads.items():
                params[k] -= (opt.lr_embed if k.startswith("emb_") else opt.lr_dense) * g
        trace.extend((epoch, t.name, sums[t.name] / data.n) for t in tasks)
    return trace


@pytest.mark.parametrize("tasks,arch", [
    ([TaskConfig("wpr_d", "squared_error"), TaskConfig("ev_d", "logistic"),
      TaskConfig("lv_d", "logistic")], ModelArch(4, 3, 6)),
    ([TaskConfig("wpr", "ordinal_cumulative", weight=0.1)], ModelArch(4, 3, 6)),
    ([TaskConfig("ev", "weighted_logistic", weight=0.05)], ModelArch(4, 3, 6)),
    ([TaskConfig("wpr_d", "squared_error"), TaskConfig("ev_d", "logistic")], ModelArch(4, 1, 6)),
], ids=["default_tasks", "ordinal", "weighted_logistic", "one_expert"])
def test_train_steps_match_the_reference_bitwise(tasks, arch):
    table, cols = small_labeled(seed=13)
    # 800 records in batches of 96: eight full batches and a tail of 32
    opt = OptimizerConfig(lr_embed=0.5, lr_dense=0.05, batch_size=96, epochs=2, seed=4)
    model, trace = fit(table, cols, tasks, arch, opt, bins_b=4, bins_min_size=20)
    columns = dict(cols, watch_time_s=table.watch_time_s)
    data = build_train_data(table, columns, model.tasks, model.user_index,
                            model.video_index, model.bins)
    if tasks[0].loss == "weighted_logistic":
        assert len(np.unique(data.wlr_weights["ev"])) > 2
    rng = np.random.Generator(np.random.PCG64(opt.seed))
    params = init_model(arch, model.tasks, len(model.user_index), len(model.video_index),
                        model.bins.n_bins, rng)
    want_trace = _reference_train(params, arch, model.tasks, data, opt, rng)
    assert [(e, n, struct.pack("<d", v)) for e, n, v in trace] == [
        (e, n, struct.pack("<d", v)) for e, n, v in want_trace]
    assert params.keys() == model.params.keys()
    for k, p in params.items():
        assert p.tobytes() == model.params[k].tobytes(), k


@pytest.mark.parametrize("arch", [ModelArch(16, 3, 32), ModelArch(16, 8, 32)],
                         ids=["three_experts", "eight_experts"])
def test_forward_and_backward_match_the_reference_bitwise_at_reference_shapes(arch):
    # the training shapes of the CLI defaults: batch 2048, the dml heads and
    # the ordinal head, on tables the size of the 100k-record reference
    tasks = [scalar_task("wpr_d"), scalar_task("ev_d", kind="binary", loss="logistic"),
             scalar_task("lv_d", kind="binary", loss="logistic"),
             scalar_task("wpr", kind="ordinal", loss="ordinal_cumulative", n_out=299)]
    rng = np.random.Generator(np.random.PCG64(21))
    params = init_model(arch, tasks, 501, 2001, 31, rng)
    for k, p in params.items():
        if p.ndim == 1:  # zero at init; random here so every bias term is checked
            p[:] = rng.normal(0.0, 0.5, p.shape)
    rows = [rng.integers(0, params[k].shape[0], size=2048) for k in EMBEDDINGS]
    scores, cache = forward(params, arch, tasks, *rows)
    want_scores, want_cache = _reference_forward(params, arch, tasks, *rows)
    x, hs, dacts, expert_out, gates, mixed = cache[:6]
    want_x, want_hs, want_dacts, want_out, want_gates, want_mixed = want_cache[:6]
    pairs = [(x, want_x), (expert_out, want_out), *zip(hs, want_hs), *zip(dacts, want_dacts)]
    for got, want in (scores, want_scores), (gates, want_gates), (mixed, want_mixed):
        pairs += [(got[t.name], want[t.name]) for t in tasks]
    for got, want in pairs:
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    dscores = {t.name: rng.normal(0.0, 1e-3, (2048, t.n_out)) for t in tasks}
    grads = _backward(params, arch, tasks, cache, dscores)
    want = _reference_backward(params, arch, tasks, want_cache, dscores)
    assert grads.keys() == want.keys() == params.keys()
    for k in params:
        assert grads[k].tobytes() == want[k].tobytes(), k


# ----------------------------------------------------------------- lanes
# A step's jobs run on the calling thread and, with learner._cpus >= 2,
# on one helper thread; every call must give the bits of one lane.

# the four configs of test_train_steps_match_the_reference_bitwise
STEP_CONFIGS = [
    ([TaskConfig("wpr_d", "squared_error"), TaskConfig("ev_d", "logistic"),
      TaskConfig("lv_d", "logistic")], ModelArch(4, 3, 6)),
    ([TaskConfig("wpr", "ordinal_cumulative", weight=0.1)], ModelArch(4, 3, 6)),
    ([TaskConfig("ev", "weighted_logistic", weight=0.05)], ModelArch(4, 3, 6)),
    ([TaskConfig("wpr_d", "squared_error"), TaskConfig("ev_d", "logistic")], ModelArch(4, 1, 6)),
]


@pytest.mark.parametrize("batch_size,epochs", [(1, 1), (7, 1), (96, 2)])
@pytest.mark.parametrize("tasks,arch", STEP_CONFIGS,
                         ids=["default_tasks", "ordinal", "weighted_logistic", "one_expert"])
def test_one_lane_and_two_lanes_give_the_same_bits(monkeypatch, tasks, arch, batch_size, epochs):
    table, cols = small_labeled(seed=13)
    if batch_size == 1:  # a step per record: a smaller table keeps the test short
        table, cols = table.subset(np.arange(table.n) < 200), {
            k: v[:200] for k, v in cols.items()}
    opt = OptimizerConfig(lr_embed=0.5, lr_dense=0.05, batch_size=batch_size, epochs=epochs, seed=4)
    columns = dict(cols, watch_time_s=table.watch_time_s)
    runs = []
    for cpus in (1, 2):
        monkeypatch.setattr(learner, "_cpus", cpus)
        model, trace = fit(table, cols, tasks, arch, opt, bins_b=4, bins_min_size=20)
        scores = score_records(model, table)
        # and one step over the whole table from the trained parameters
        data = build_train_data(table, columns, model.tasks, model.user_index,
                                model.video_index, model.bins)
        with learner._lanes() as lanes:
            _, _, dscores, cache = learner._batch_loss(
                model.params, arch, model.tasks, data, np.arange(data.n), lanes)
            grads = _backward(model.params, arch, model.tasks, cache, dscores, lanes)
        runs.append((model.params, [(e, n, struct.pack("<d", v)) for e, n, v in trace],
                     scores, grads))
    (params1, trace1, scores1, grads1), (params2, trace2, scores2, grads2) = runs
    assert trace1 == trace2
    for one, two in (params1, params2), (scores1, scores2), (grads1, grads2):
        assert list(one) == list(two)
        for k in one:
            assert one[k].tobytes() == two[k].tobytes(), k


def overflowing_expert1_model() -> Model:
    """Finite parameters whose expert 1 alone overflows: its first layer
    is near 1e200, so the GELU's a * a overflows to inf, yet every score
    stays finite."""
    tasks = [scalar_task("watch_time_s")]
    arch = ModelArch(d_embed=2, n_experts=3, hidden=4)
    rng = np.random.Generator(np.random.PCG64(5))
    model = zero_model(tasks, arch)
    model.params.update(init_model(arch, tasks, 3, 3, model.bins.n_bins, rng))
    model.params["expert1_w1"] *= 1e200
    return model


@pytest.mark.parametrize("cpus", [1, 2])
def test_an_overflow_on_the_helper_lane_names_its_expert(monkeypatch, cpus):
    # on two lanes the costs put expert 1 on the helper, beside expert 0 and
    # expert 2 on the caller
    monkeypatch.setattr(learner, "_cpus", cpus)
    model = overflowing_expert1_model()
    rows = (np.arange(3), np.arange(3), np.zeros(3, dtype=np.int64))
    with learner._lanes() as lanes:
        found = learner._forward_overflow(model, rows, lanes)
    assert found == "expert1: overflow encountered in multiply"
    # score_and_predict's errstate records the overflow on either lane, and
    # no RuntimeWarning escapes (the suite turns warnings into errors)
    table = table_of(np.ones(3), users=["u0", "u1", "u2"], videos=["v0", "v1", "v2"])
    with pytest.raises(NonFiniteLoss, match=r"^the forward pass overflows in expert1: "
                       r"overflow encountered in multiply: the model diverged in training$"):
        score_records(model, table)


@pytest.mark.parametrize("weight,epochs,message", [
    (1e10, 1, r"^parameter emb_user became non-finite in the last update$"),
    (1.0, 2, r"^epoch 2, batch at 0: loss became inf "),
    (1.0, 1, r"^the forward pass after the last update overflows in expert0: overflow "),
])
def test_huge_learning_rate_raises_the_same_error_on_two_lanes(monkeypatch, weight, epochs,
                                                                message):
    # as test_huge_learning_rate_raises_without_a_warning, with both lanes on
    monkeypatch.setattr(learner, "_cpus", 2)
    t = table_of(np.linspace(1.0, 50.0, 32), durations=np.full(32, 60.0))
    opt = OptimizerConfig(lr_embed=1e300, batch_size=32, epochs=epochs)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteLoss, match=message):
            fit(t, {}, [TaskConfig("watch_time_s", "squared_error", weight=weight)],
                ModelArch(2, 2, 4), opt, bins_b=1, bins_min_size=1)


def test_two_lanes_keep_the_bits_under_rapid_thread_switches(monkeypatch):
    # both lanes write gradients and add their terms of dx, in task-then-
    # expert order; a lost or reordered update would change the bits
    tasks = [scalar_task("a"), scalar_task("b", kind="binary", loss="logistic"),
             scalar_task("c", kind="ordinal", loss="ordinal_cumulative", n_out=4)]
    arch = ModelArch(4, 3, 8)
    rng = np.random.Generator(np.random.PCG64(8))
    params = init_model(arch, tasks, 20, 30, 5, rng)
    rows = [rng.integers(0, params[k].shape[0], size=64) for k in EMBEDDINGS]
    dscores = {t.name: rng.normal(0.0, 1e-2, (64, t.n_out)) for t in tasks}
    scores, cache = forward(params, arch, tasks, *rows)
    want = _backward(params, arch, tasks, cache, dscores)
    monkeypatch.setattr(learner, "_cpus", 2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with learner._lanes() as lanes:
            for _ in range(500):
                got_scores, got_cache = forward(params, arch, tasks, *rows, lanes)
                got = _backward(params, arch, tasks, got_cache, dscores, lanes)
                assert all(got_scores[k].tobytes() == scores[k].tobytes() for k in scores)
                assert all(got[k].tobytes() == want[k].tobytes() for k in want)
    finally:
        sys.setswitchinterval(interval)


def test_the_first_failing_job_raises_in_phase_order(monkeypatch):
    monkeypatch.setattr(learner, "_cpus", 2)
    ran = []

    def job(i, fails):
        def run():
            ran.append(i)
            if fails:
                raise ValueError(f"job {i}")
        return run

    with learner._lanes() as lanes:
        # costs put jobs 0 and 2 on the caller, 1 and 3 on the helper
        with pytest.raises(ValueError, match="^job 1$"):
            lanes([(1.0, job(0, False)), (1.0, job(1, True)), (1.0, job(2, True)),
                   (1.0, job(3, False))])
    # each lane stops at its own first failure
    assert sorted(ran) == [0, 1, 2]


def test_no_thread_outlives_a_call(monkeypatch):
    monkeypatch.setattr(learner, "_cpus", 2)
    start = threading.active_count()
    table, cols = small_labeled(seed=3, users=12, videos=40, per_user=8)
    tasks = [TaskConfig("wpr_d", "squared_error"), TaskConfig("ev_d", "logistic")]
    model, _ = fit(table, cols, tasks, ModelArch(3, 2, 6),
                   OptimizerConfig(epochs=1, batch_size=32), bins_b=3, bins_min_size=5)
    assert threading.active_count() == start
    score_records(model, table)
    assert threading.active_count() == start
    with pytest.raises(NonFiniteLoss):
        fit(table_of(np.linspace(1.0, 50.0, 32)), {}, [TaskConfig("watch_time_s", "squared_error")],
            ModelArch(2, 2, 4), OptimizerConfig(lr_embed=1e300, batch_size=32, epochs=1),
            bins_b=1, bins_min_size=1)
    assert threading.active_count() == start


# ------------------------------------------------------- watch-time decode


def test_predict_seconds_clamps_at_zero():
    m = zero_model([scalar_task("watch_time_s")])
    m.params["head_watch_time_s_b"][0] = -3.2
    t = table_of([1.0, 2.0], durations=[30.0, 30.0], users=["u0", "u1"], videos=["v0", "v1"])
    assert np.array_equal(predict_watch_time(m, t), [0.0, 0.0])
    m.params["head_watch_time_s_b"][0] = 2.5
    assert np.array_equal(predict_watch_time(m, t), [2.5, 2.5])


def test_predict_odds_exponentiates():
    m = zero_model([scalar_task("wlr", kind="odds", loss="weighted_logistic")])
    m.params["head_wlr_b"][0] = 1.0
    t = table_of([1.0], durations=[30.0], users=["u0"], videos=["v0"])
    assert np.allclose(predict_watch_time(m, t), math.e, rtol=1e-12)


def test_predict_playing_rate_scales_duration_and_clips():
    m = zero_model([scalar_task("playing_rate", kind="playing_rate")])
    t = table_of([1.0, 1.0], durations=[40.0, 80.0], users=["u0", "u1"], videos=["v0", "v1"])
    m.params["head_playing_rate_b"][0] = 0.5
    assert np.array_equal(predict_watch_time(m, t), [20.0, 40.0])
    m.params["head_playing_rate_b"][0] = 1.7
    assert np.array_equal(predict_watch_time(m, t), [40.0, 80.0])
    m.params["head_playing_rate_b"][0] = -0.3
    assert np.array_equal(predict_watch_time(m, t), [0.0, 0.0])


def test_predict_binary_task_rejected():
    m = zero_model([scalar_task("ev", kind="binary", loss="logistic")])
    t = table_of([1.0], durations=[30.0], users=["u0"], videos=["v0"])
    with pytest.raises(ConfigInvalid):
        predict_watch_time(m, t)


def test_predict_unknown_task_rejected():
    m = zero_model([scalar_task("watch_time_s")])
    t = table_of([1.0], durations=[30.0], users=["u0"], videos=["v0"])
    with pytest.raises(ConfigInvalid):
        predict_watch_time(m, t, task_name="nope")


def test_predict_quantile_boundary_maps_to_its_group():
    m = zero_model([scalar_task("wpr", kind="quantile")])
    m.inverses["wpr"] = WprInverse(
        prefix=np.array([0.5, 1.0]), reps=np.array([[10.0, 40.0]]), per_bin=False
    )
    t = table_of([1.0], durations=[30.0], users=["u0"], videos=["v0"])
    for score, want in [(0.5, 10.0), (0.2, 10.0), (0.51, 40.0), (-1.0, 10.0), (2.0, 40.0)]:
        m.params["head_wpr_b"][0] = score
        assert predict_watch_time(m, t)[0] == want


def test_predict_quantile_missing_inverse():
    m = zero_model([scalar_task("wpr", kind="quantile")])
    t = table_of([1.0], durations=[30.0], users=["u0"], videos=["v0"])
    with pytest.raises(MissingInverseMap):
        predict_watch_time(m, t)


def test_predict_bin_scoped_quantile_uses_record_bin():
    train = table_of(
        np.full(40, 5.0), durations=[10.0] * 20 + [100.0] * 20,
        users=[f"u{i % 4}" for i in range(40)], videos=[f"v{i}" for i in range(40)]
    )
    bins = make_duration_bins(train, 2, min_bin_size=5)
    assert bins.n_bins == 2
    m = zero_model([scalar_task("wpr_d", kind="quantile", per_bin=True)], bins=bins)
    m.inverses["wpr_d"] = WprInverse(
        prefix=np.array([0.5, 1.0]), reps=np.array([[10.0, 40.0], [20.0, 80.0]]), per_bin=True
    )
    m.params["head_wpr_d_b"][0] = 0.9
    t = table_of([1.0, 1.0], durations=[10.0, 100.0], users=["u0", "u1"], videos=["v0", "v1"])
    assert np.array_equal(predict_watch_time(m, t), [40.0, 80.0])


def test_predict_ordinal_rounds_expected_group():
    # zero scores across 3 thresholds give an expected group of 1.5,
    # which rounds to group 2
    m = zero_model([scalar_task("wpr", kind="ordinal", loss="ordinal_cumulative", n_out=3)])
    m.inverses["wpr"] = WprInverse(
        prefix=np.array([0.25, 0.5, 0.75, 1.0]),
        reps=np.array([[5.0, 10.0, 20.0, 40.0]]),
        per_bin=False,
    )
    t = table_of([1.0], durations=[30.0], users=["u0"], videos=["v0"])
    assert predict_watch_time(m, t)[0] == 20.0
    m.params["head_wpr_b"][:] = 100.0
    assert predict_watch_time(m, t)[0] == 40.0
    m.params["head_wpr_b"][:] = -100.0
    assert predict_watch_time(m, t)[0] == 5.0


def test_predict_bin_scoped_ordinal_uses_record_bin():
    t, columns = small_labeled(users=100, per_user=50)
    m, _ = fit(t, columns, [TaskConfig("wpr_d", "ordinal_cumulative")],
               arch=ModelArch(d_embed=4, n_experts=2, hidden=8), opt=OptimizerConfig(epochs=1))
    inv = m.inverses["wpr_d"]
    assert inv.per_bin and inv.reps.shape == (m.bins.n_bins, len(inv.prefix))
    expected_group = score_records(m, t)["wpr_d"]
    g = np.clip(np.round(expected_group), 0, len(inv.prefix) - 1).astype(np.int64)
    want = inv.reps[m.bins.bin_of_many(t.duration_s), g]
    got = predict_watch_time(m, t, "wpr_d")
    assert np.array_equal(got, want)
    assert not np.array_equal(got, inv.reps[0, g])


# ------------------------------------------------------------ inverse maps


def test_wpr_inverse_matches_filter_and_median():
    for n, n_bins, used_bins in [(400, 3, 3), (40, 5, 4), (60, 6, 3)]:
        rng = np.random.Generator(np.random.PCG64(13))
        labels = rng.choice([0.25, 0.5, 0.75, 1.0], size=n)
        watch = np.round(rng.uniform(0.0, 120.0, size=n), 3)
        # bins from used_bins on see no record, so their cells are empty
        bin_rows = rng.integers(0, used_bins, size=n)
        inv = build_wpr_inverse(labels, watch, bin_rows, per_bin=True, n_bins=n_bins)
        prefix = np.unique(labels)
        assert np.array_equal(inv.prefix, prefix)
        cell_sizes = set()
        for g, lab in enumerate(prefix):
            global_med = np.median(watch[labels == lab])
            for b in range(n_bins):
                mask = (labels == lab) & (bin_rows == b)
                cell_sizes.add(int(mask.sum()))
                want = np.median(watch[mask]) if mask.any() else global_med
                assert inv.reps[b, g] == want
        # the inputs reach even-sized cells, and empty ones where bins go unused
        assert any(c > 0 and c % 2 == 0 for c in cell_sizes)
        assert (0 in cell_sizes) == (used_bins < n_bins)
        flat = build_wpr_inverse(labels, watch, None, per_bin=False, n_bins=n_bins)
        assert flat.reps.shape == (1, len(prefix))
        for g, lab in enumerate(prefix):
            assert flat.reps[0, g] == np.median(watch[labels == lab])


def test_wpr_inverse_missing_bin_borrows_global():
    labels = np.array([0.5, 0.5, 1.0, 1.0])
    watch = np.array([3.0, 5.0, 20.0, 30.0])
    bin_rows = np.array([0, 0, 0, 1])  # bin 1 never sees label 0.5
    inv = build_wpr_inverse(labels, watch, bin_rows, per_bin=True, n_bins=2)
    assert inv.reps[1, 0] == 4.0  # global median of the 0.5 group
    assert inv.reps[1, 1] == 30.0


def test_fit_maps_wpr_d_back_to_watch_times_at_the_float_maximum():
    # the median of two values near the float maximum must not overflow
    n = 40
    watch = np.linspace(1.5e308, 1.7e308, n)
    table = InteractionTable([f"u{i % 5}" for i in range(n)], [f"v{i % 7}" for i in range(n)],
                             np.linspace(10.0, 100.0, n), watch)
    labels = label_all(table, LabelConfig(make_partition("equal_frequency", 4), bins_b=2,
                                          bins_min_size=1, enabled=("wpr_d",))).columns
    model, _ = fit(table, labels, [TaskConfig("wpr_d", "squared_error")],
                   opt=OptimizerConfig(epochs=1), bins_b=2, bins_min_size=1)
    reps = model.inverses["wpr_d"].reps
    assert np.all((reps >= 1.5e308) & (reps <= 1.7e308))


def test_bin_scoped_inverse_requires_bins():
    with pytest.raises(MissingInverseMap):
        build_wpr_inverse(np.array([0.5, 1.0]), np.array([1.0, 2.0]), None, True, 2)


# -------------------------------------------------------------- checkpoint


def test_checkpoint_roundtrip_bitwise(tmp_path):
    table, cols = small_labeled(seed=21, users=15, videos=50, per_user=10)
    tasks = [
        TaskConfig("wpr_d", "squared_error"),
        TaskConfig("ev_d", "logistic"),
        TaskConfig("wpr", "ordinal_cumulative"),
    ]
    opt = OptimizerConfig(epochs=1, batch_size=64, seed=0)
    model, _ = fit(table, cols, tasks, ModelArch(3, 2, 6), opt, bins_b=3, bins_min_size=5)
    path = str(tmp_path / "model.bin")
    save_model(model, path)
    back = load_model(path)
    assert back.arch == model.arch
    assert back.tasks == model.tasks
    assert back.user_index == model.user_index
    assert back.video_index == model.video_index
    assert np.array_equal(back.bins.boundaries, model.bins.boundaries)
    assert np.array_equal(back.bins.counts, model.bins.counts)
    assert back.params.keys() == model.params.keys()
    for k in model.params:
        assert np.array_equal(back.params[k], model.params[k])
    assert back.inverses.keys() == model.inverses.keys()
    for k, inv in model.inverses.items():
        assert np.array_equal(back.inverses[k].prefix, inv.prefix)
        assert np.array_equal(back.inverses[k].reps, inv.reps)
        assert back.inverses[k].per_bin == inv.per_bin
    s1 = score_records(model, table)
    s2 = score_records(back, table)
    for name in s1:
        assert np.array_equal(s1[name], s2[name])
    p1 = predict_watch_time(model, table, task_name="wpr_d")
    p2 = predict_watch_time(back, table, task_name="wpr_d")
    assert np.array_equal(p1, p2)


def _saved_checkpoint(tmp_path) -> bytes:
    table, cols = small_labeled(seed=21, users=15, videos=50, per_user=10)
    tasks = [TaskConfig("wpr_d", "squared_error"), TaskConfig("ev_d", "logistic")]
    opt = OptimizerConfig(epochs=1, batch_size=64, seed=0)
    model, _ = fit(table, cols, tasks, ModelArch(2, 2, 3), opt, bins_b=3, bins_min_size=5)
    path = tmp_path / "good.bin"
    save_model(model, str(path))
    return path.read_bytes()


def test_checkpoint_rejects_foreign_bytes(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"JUNKJUNKJUNKJUNKJUNK")
    with pytest.raises(SerializationError):
        load_model(str(path))
    path.write_bytes(b"\x00\x01")
    with pytest.raises(SerializationError):
        load_model(str(path))
    blob = _saved_checkpoint(tmp_path)
    for n in list(range(0, 400)) + list(range(400, len(blob), 53)):
        path.write_bytes(blob[:n])
        with pytest.raises(SerializationError, match=str(path)):
            load_model(str(path))
    path.write_bytes(blob + b"\x07")
    with pytest.raises(SerializationError, match=f"1 trailing bytes at byte {len(blob)}"):
        load_model(str(path))


def _with_meta(blob: bytes, edit) -> bytes:
    """The checkpoint with its JSON metadata passed through edit(text)."""
    (n,) = struct.unpack_from("<Q", blob, 8)
    meta = edit(blob[16 : 16 + n].decode("utf-8")).encode("utf-8")
    return blob[:8] + struct.pack("<Q", len(meta)) + meta + blob[16 + n :]


@pytest.mark.parametrize("edit,message", [
    (lambda m: m.replace('"kind"', '"kinb"', 1), "TypeError"),
    (lambda m: m.replace('"loss"', '"loqs"', 1), "TypeError"),
    (lambda m: m.replace('"per_bin": true}', '"per_bim": true}', 1), "KeyError"),
    (lambda m: m.replace('"users"', '"usars"'), "KeyError"),
    (lambda m: m.replace('"videos"', '"vodeos"'), "KeyError"),
    (lambda m: m.replace('"users": ["', '"users": ["u-extra", "', 1), "shapes disagree"),
    (lambda m: m.replace('"n_experts": 2', '"n_experts": 3'), "shapes disagree"),
    (lambda m: m.replace('"name": "ev_d"', '"name": "ev_e"'), "shapes disagree"),
    (lambda m: m.replace('"per_bin": true}', '"per_bin": false}', 1), "shapes disagree"),
    (lambda m: "[" + m + "]", "TypeError"),
], ids=["task-field", "loss-field", "inverse-scope-field", "users", "videos", "extra-user",
        "expert-count", "task-name", "inverse-scope", "not-an-object"])
def test_checkpoint_rejects_inconsistent_metadata(tmp_path, edit, message):
    path = tmp_path / "bad.bin"
    path.write_bytes(_with_meta(_saved_checkpoint(tmp_path), edit))
    with pytest.raises(SerializationError, match=f"{path}: metadata and arrays .*{message}"):
        load_model(str(path))


def test_checkpoint_rejects_metadata_that_is_not_json(tmp_path):
    blob = _saved_checkpoint(tmp_path)
    path = tmp_path / "bad.bin"
    path.write_bytes(blob[:20] + b"\xff" + blob[21:])
    with pytest.raises(SerializationError, match=f"{path}: text is not UTF-8 at byte 20"):
        load_model(str(path))
    path.write_bytes(_with_meta(blob, lambda m: m.replace(":", ";", 1)))
    with pytest.raises(SerializationError, match=f"{path}: metadata .*: JSONDecodeError"):
        load_model(str(path))


def _with_array(blob: bytes, name: str, edit) -> bytes:
    """The checkpoint with its 1-d array name passed through edit(values)."""
    at = blob.index(struct.pack("<H", len(name)) + name.encode()) + 2 + len(name)
    assert blob[at] == 1  # one dimension
    (n,) = struct.unpack_from("<Q", blob, at + 1)
    start = at + 9
    values = np.frombuffer(blob, np.float64, n, start).copy()
    edit(values)
    return blob[:start] + values.tobytes() + blob[start + 8 * n :]


def _set(i, v):
    def edit(a):
        a[i] = v
    return edit


@pytest.mark.parametrize("name,edit,message", [
    ("bins_counts", _set(0, np.nan), "counts"),
    ("bins_counts", _set(1, -1.0), "counts"),
    ("bins_counts", _set(1, 2.5), "counts"),
    ("bins_counts", _set(0, 1e300), "counts"),
    ("bins_boundaries", _set(1, np.nan), "boundaries"),
    ("bins_boundaries", lambda a: a.__setitem__(slice(None), a[::-1].copy()), "boundaries"),
], ids=["count-nan", "count-negative", "count-fraction", "count-huge", "boundary-nan",
        "boundaries-descending"])
def test_checkpoint_rejects_bins_outside_their_domain(tmp_path, name, edit, message):
    path = tmp_path / "bad.bin"
    path.write_bytes(_with_array(_saved_checkpoint(tmp_path), name, edit))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SerializationError, match=f"{path}: .*duration-bin {message} must be"):
            load_model(str(path))


@pytest.mark.parametrize("key,old,new", [
    ("users", '"u01"', '"u00"'),
    ("users", '"u01"', '"u39"'),
    ("videos", '"v001"', '"v000"'),
], ids=["users-repeat", "users-out-of-order", "videos-repeat"])
def test_checkpoint_rejects_id_lists_that_are_not_strictly_ascending(tmp_path, key, old, new):
    # a repeated id would leave the index one entry short of the embedding
    # rows and score the dropped id with another id's row
    table, cols = small_labeled(seed=21, users=40, videos=120, per_user=5)
    model, _ = fit(table, cols, [TaskConfig("ev_d", "logistic")], ModelArch(2, 2, 3),
                   OptimizerConfig(epochs=1, batch_size=64), bins_b=3, bins_min_size=5)
    assert len(model.user_index) == 40 and {"v000", "v001"} <= model.video_index.keys()
    good = tmp_path / "good.bin"
    save_model(model, str(good))
    path = tmp_path / "bad.bin"
    path.write_bytes(_with_meta(good.read_bytes(), lambda m: m.replace(old, new, 1)))
    with pytest.raises(SerializationError,
                       match=f"^{path}: checkpoint {key} list is not strictly ascending at "):
        load_model(str(path))
    labeled = tmp_path / "labeled.csv"
    write_labeled(str(labeled), table, cols)
    argv = ["eval", "--input", str(labeled), "--report", str(tmp_path / "r.csv")]
    assert cli_main([*argv, "--model", str(good)]) == 0
    assert cli_main([*argv, "--model", str(path)]) == 2


def test_checkpoint_rejects_unknown_version(tmp_path):
    path = tmp_path / "future.bin"
    path.write_bytes(struct.pack("<4sI", CHECKPOINT_MAGIC, 99) + b"\x00" * 8)
    with pytest.raises(SerializationError):
        load_model(str(path))


# ------------------------------------------------------------- unseen ids


def test_unseen_ids_share_the_fallback_row():
    table, cols = small_labeled(seed=5, users=10, videos=30, per_user=8)
    opt = OptimizerConfig(epochs=1, batch_size=32, seed=0)
    model, _ = fit(
        table, cols, [TaskConfig("ev_d", "logistic")], ModelArch(2, 2, 4), opt,
        bins_b=2, bins_min_size=5
    )
    d = float(table.duration_s[0])
    fresh = table_of(
        [1.0, 1.0, 1.0],
        durations=[d, d, d],
        users=["stranger-a", "stranger-b", table.user_id[0]],
        videos=["new-video", "new-video", "new-video"],
    )
    out = score_records(model, fresh)["ev_d"]
    # both strangers hit the same fallback embedding row
    assert out[0] == out[1]
    assert out[2] != out[0]
