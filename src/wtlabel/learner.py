"""Small multi-gate mixture-of-experts learner on id embeddings.

The model embeds user id, video id, and duration bin, concatenates the
three vectors, and feeds them to E shared experts (two affine layers
with a smooth gaussian-gated nonlinearity between). Each task owns a softmax gate over the experts and
an affine head on the gated mixture. Everything is plain float64 numpy
with hand-written gradients and momentum-free SGD, sized for a desk
dataset rather than a production one.

Losses:
  squared_error       mean squared difference on a real target
  logistic            binary cross-entropy on a sigmoid score
  weighted_logistic   the same with positives weighted by watch
                      seconds; exp(score) then estimates watch time
  ordinal_cumulative  K-1 cumulative binary targets 1{group > k} with
                      summed cross-entropy over one shared body

Watch-time back-conversion depends on the task: direct regression is
clamped at zero, odds exponentiate, rank-space scores are mapped to the
group whose prefix interval contains them and answer with that group's
median training watch time (per duration bin for bin-scoped labels).
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass, field, replace
from typing import Mapping, Optional, Sequence

import numpy as np
from scipy.special import ndtr

from .core import (
    LABELS, DurationBins, InteractionTable, as_table, check_config, group_index,
    id_index, id_rows, make_duration_bins, sigmoid,
)
from .dataio import Reader, atomic_write_bytes
from .errors import (
    ConfigInvalid,
    DegenerateLabels,
    EmptyDataset,
    MissingInverseMap,
    MissingLabelColumn,
    NonFiniteLoss,
    SerializationError,
)

CHECKPOINT_MAGIC = b"WLMD"
CHECKPOINT_VERSION = 1

LOSSES = ("squared_error", "logistic", "weighted_logistic", "ordinal_cumulative")

# embedding tables, in the order their vectors are concatenated
EMBEDDINGS = ("emb_user", "emb_video", "emb_bin")


@dataclass(frozen=True)
class ModelArch:
    d_embed: int = 16
    n_experts: int = 3
    hidden: int = 32


@dataclass(frozen=True)
class TaskConfig:
    target: str
    loss: str
    weight: float = 1.0
    name: str = ""

    def resolved_name(self) -> str:
        return self.name or self.target


@dataclass(frozen=True)
class ResolvedTask:
    name: str
    target: str
    loss: str
    weight: float
    n_out: int
    kind: str  # seconds | odds | binary | quantile | playing_rate | ordinal
    per_bin: bool


@dataclass(frozen=True)
class OptimizerConfig:
    lr_embed: float = 0.05
    lr_dense: float = 0.005
    batch_size: int = 256
    epochs: int = 10
    seed: int = 0


@dataclass
class WprInverse:
    """Maps rank-space scores back to representative watch seconds."""

    prefix: np.ndarray        # ascending group upper labels
    reps: np.ndarray          # (n_bins or 1, n_groups) median seconds
    per_bin: bool

    def lookup(self, scores: np.ndarray, bin_rows: Optional[np.ndarray]) -> np.ndarray:
        """Seconds of the group whose prefix interval holds each score."""
        r = np.clip(np.asarray(scores, dtype=np.float64), 1e-12, 1.0)
        return self.at(group_index(self.prefix, r), bin_rows)

    def at(self, groups: np.ndarray, bin_rows: Optional[np.ndarray]) -> np.ndarray:
        """Seconds of each record's group, read from its duration bin's
        row for bin-scoped labels and from the one row otherwise."""
        if not self.per_bin:
            return self.reps[0, groups]
        if bin_rows is None:
            raise MissingInverseMap("bin-scoped inverse needs duration bins")
        return self.reps[np.minimum(bin_rows, self.reps.shape[0] - 1), groups]


@dataclass
class Model:
    arch: ModelArch
    tasks: tuple[ResolvedTask, ...]
    params: dict[str, np.ndarray]
    user_index: dict[str, int]
    video_index: dict[str, int]
    bins: DurationBins
    inverses: dict[str, WprInverse] = field(default_factory=dict)

    def n_parameters(self) -> int:
        return sum(int(p.size) for p in self.params.values())


def resolve_tasks(
    tasks: Sequence[TaskConfig],
    columns: Mapping[str, np.ndarray],
) -> tuple[ResolvedTask, ...]:
    if not tasks:
        raise ConfigInvalid("need at least one task")
    out = []
    seen = set()
    for t in tasks:
        if t.loss not in LOSSES:
            raise ConfigInvalid(f"unknown loss {t.loss!r}")
        name = t.resolved_name()
        if name in seen:
            raise ConfigInvalid(f"duplicate task name {name!r}")
        seen.add(name)
        if t.target not in columns:
            raise MissingLabelColumn(f"task {name}: no label column {t.target!r}")
        col = np.asarray(columns[t.target], dtype=np.float64)
        if t.loss in ("logistic", "weighted_logistic") and not np.isin(col, (0.0, 1.0)).all():
            raise ConfigInvalid(f"task {name}: {t.loss} needs 0/1 targets in {t.target!r}")
        spec = LABELS.get(t.target)
        rank_space = spec is not None and spec.rank_space
        n_out = 1
        if t.loss == "ordinal_cumulative":
            kind = "ordinal"
            n_groups = len(np.unique(col))
            if n_groups < 2:
                raise DegenerateLabels(
                    f"task {name}: ordinal target has {n_groups} distinct value(s)"
                )
            n_out = n_groups - 1
        elif t.loss == "weighted_logistic":
            kind = "odds"
        elif t.loss == "logistic":
            kind = "binary"
        elif rank_space:
            kind = "quantile"
        elif spec is not None and spec.rule == "playing_rate":
            kind = spec.rule
        else:
            kind = "seconds"
        out.append(
            ResolvedTask(
                name=name,
                target=t.target,
                loss=t.loss,
                weight=float(t.weight),
                n_out=n_out,
                kind=kind,
                per_bin=rank_space and spec.scope == "duration_bin",
            )
        )
    return tuple(out)


def _param_shapes(
    arch: ModelArch,
    tasks: Sequence[ResolvedTask],
    n_users: int,
    n_videos: int,
    n_bins: int,
) -> dict[str, tuple[int, ...]]:
    """Name and shape of every parameter, in initialization order. One
    fallback row per embedding table catches unseen ids."""
    d, h, k, in_dim = arch.d_embed, arch.hidden, arch.n_experts, 3 * arch.d_embed
    shapes = {name: (n + 1, d) for name, n in zip(EMBEDDINGS, (n_users, n_videos, n_bins))}
    for e in range(k):
        shapes.update({f"expert{e}_w1": (h, in_dim), f"expert{e}_b1": (h,)})
        shapes.update({f"expert{e}_w2": (h, h), f"expert{e}_b2": (h,)})
    for t in tasks:
        shapes.update({f"gate_{t.name}_w": (k, in_dim), f"gate_{t.name}_b": (k,)})
        shapes.update({f"head_{t.name}_w": (t.n_out, h), f"head_{t.name}_b": (t.n_out,)})
    return shapes


def init_model(
    arch: ModelArch,
    tasks: Sequence[ResolvedTask],
    n_users: int,
    n_videos: int,
    n_bins: int,
    rng: np.random.Generator,
) -> dict[str, np.ndarray]:
    """Fresh parameter dict. Dense weights are uniform in
    +-sqrt(6/fan_in), embeddings in +-sqrt(3/d) (unit-variance rows),
    biases zero."""
    check_config(arch)
    params: dict[str, np.ndarray] = {}
    for name, shape in _param_shapes(arch, tasks, n_users, n_videos, n_bins).items():
        if len(shape) == 1:
            params[name] = np.zeros(shape)
            continue
        s = np.sqrt(3.0 / arch.d_embed) if name.startswith("emb_") else np.sqrt(6.0 / shape[1])
        params[name] = rng.uniform(-s, s, size=shape)
    return params


_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


def _gelu(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Value and derivative of a * Phi(a) with the exact gaussian CDF;
    the value overwrites a."""
    cdf = ndtr(a)
    # exp(-0.5 * a * a) in that order, then the derivative cdf + a * pdf
    dh = np.multiply(-0.5, a)
    dh *= a
    np.exp(dh, out=dh)
    dh *= _INV_SQRT_2PI
    dh *= a
    dh += cdf
    a *= cdf
    return a, dh


def forward(
    params: Mapping[str, np.ndarray],
    arch: ModelArch,
    tasks: Sequence[ResolvedTask],
    user_rows: np.ndarray,
    video_rows: np.ndarray,
    bin_rows: np.ndarray,
):
    """Scores per task plus the cache the backward pass needs."""
    rows = (user_rows, video_rows, bin_rows)
    x = np.concatenate([params[k][r] for k, r in zip(EMBEDDINGS, rows)], axis=1)
    hs = []
    dacts = []
    expert_out = np.empty((arch.n_experts, x.shape[0], arch.hidden))  # (E, B, hidden)
    for e in range(arch.n_experts):
        a = x @ params[f"expert{e}_w1"].T
        a += params[f"expert{e}_b1"]
        # a gaussian-gated unit; its curvature at the origin lets the
        # experts pick up embedding cross terms from the first step,
        # which an odd nonlinearity like tanh cannot do
        h, dh = _gelu(a)
        hs.append(h)
        dacts.append(dh)
        np.matmul(h, params[f"expert{e}_w2"].T, out=expert_out[e])
        expert_out[e] += params[f"expert{e}_b2"]
    scores = {}
    gates = {}
    mixed = {}
    for t in tasks:
        p = x @ params[f"gate_{t.name}_w"].T
        p += params[f"gate_{t.name}_b"]
        top = p[:, 0].copy()
        for e in range(1, arch.n_experts):  # exact, and faster than a max over the short axis
            np.maximum(top, p[:, e], out=top)
        p -= top[:, None]
        np.exp(p, out=p)
        p /= p.sum(axis=1, keepdims=True)
        mix = np.einsum("be,ebh->bh", p, expert_out)
        scores[t.name] = mix @ params[f"head_{t.name}_w"].T
        scores[t.name] += params[f"head_{t.name}_b"]
        gates[t.name] = p
        mixed[t.name] = mix
    cache = (x, hs, dacts, expert_out, gates, mixed, user_rows, video_rows, bin_rows)
    return scores, cache


def _task_loss(
    task: ResolvedTask,
    s: np.ndarray,
    targets: np.ndarray,
    weights: Optional[np.ndarray],
) -> tuple[float, np.ndarray]:
    """Unweighted mean loss and d(loss)/d(score) for one task."""
    b = s.shape[0]
    if task.loss == "squared_error":
        diff = s[:, 0] - targets
        loss = float(np.mean(diff * diff))
        ds = (2.0 / b) * diff[:, None]
        return loss, ds
    # binary cross-entropy on every output; pos marks the positive
    # targets, for ordinal tasks 1{group > k} on the 0-based group index
    if task.loss == "ordinal_cumulative":
        pos = targets[:, None] > np.arange(task.n_out)
    else:
        pos = (targets == 1.0)[:, None]
    # with e = exp(-|s|) <= 1 nothing overflows: max(-s, 0) + log1p(e) for
    # a positive target and max(s, 0) + log1p(e) for a negative one are
    # softplus(-s) and softplus(s), and max(e, s >= 0) / (1 + e) is
    # core.sigmoid(s), reusing e (copysign(s, -1) is -|s|)
    e = np.copysign(s, -1.0)
    np.exp(e, out=e)
    sig = np.maximum(e, s >= 0)
    sig /= np.add(1.0, e)
    terms = np.negative(s, out=s.copy(), where=pos)
    np.maximum(terms, 0.0, out=terms)
    terms += np.log1p(e, out=e)
    ds = np.subtract(sig, pos, out=sig)
    if weights is not None:
        # positives weigh w, negatives 1
        w = np.where(pos, weights[:, None], 1.0)
        terms *= w
        ds *= w
    ds /= b
    return float(np.mean(np.sum(terms, axis=1))), ds


def _backward(
    params: Mapping[str, np.ndarray],
    arch: ModelArch,
    tasks: Sequence[ResolvedTask],
    cache,
    dscores: Mapping[str, np.ndarray],
) -> dict[str, np.ndarray]:
    x, hs, dacts, expert_out, gates, mixed, user_rows, video_rows, bin_rows = cache
    grads: dict[str, np.ndarray] = {}
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
            # one expert at a time: broadcasting p.T over the whole
            # (E, B, H) block reads p with a stride, several times slower
            d_expert_out[e] += p[:, e, None] * dmix
        # a fresh C-contiguous array: updating the einsum output dp in
        # place changes the bits of the gate-bias sum below
        dlogits = p * (dp - (dp * p).sum(axis=1, keepdims=True))
        grads[f"gate_{t.name}_w"] = dlogits.T @ x
        grads[f"gate_{t.name}_b"] = dlogits.sum(axis=0)
        dx += dlogits @ params[f"gate_{t.name}_w"]
    for e in range(arch.n_experts):
        doe = d_expert_out[e]
        grads[f"expert{e}_w2"] = doe.T @ hs[e]
        grads[f"expert{e}_b2"] = doe.sum(axis=0)
        da = doe @ params[f"expert{e}_w2"]
        da *= dacts[e]
        grads[f"expert{e}_w1"] = da.T @ x
        grads[f"expert{e}_b1"] = da.sum(axis=0)
        dx += da @ params[f"expert{e}_w1"]
    # an embedding row sums its records' gradients in record order, as
    # np.add.at does, here by one bincount over flat (row, column) cells
    d = arch.d_embed
    for j, (name, rows) in enumerate(zip(EMBEDDINGS, (user_rows, video_rows, bin_rows))):
        cells = (rows[:, None] * d + np.arange(d)).ravel()
        flat = np.bincount(cells, dx[:, j * d : (j + 1) * d].ravel(), params[name].size)
        grads[name] = flat.reshape(params[name].shape)
    return grads


@dataclass
class TrainData:
    """Feature and target arrays aligned by record."""

    user_rows: np.ndarray
    video_rows: np.ndarray
    bin_rows: np.ndarray
    targets: dict[str, np.ndarray]      # task name -> target vector
    wlr_weights: dict[str, np.ndarray]  # task name -> weight vector

    @property
    def n(self) -> int:
        return len(self.user_rows)


def _prepare_targets(
    tasks: Sequence[ResolvedTask],
    columns: Mapping[str, np.ndarray],
    watch: np.ndarray,
) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
    """Target vectors per task (the 0-based group index for ordinal
    tasks) and positive weights for weighted logistic."""
    targets: dict[str, np.ndarray] = {}
    weights: dict[str, np.ndarray] = {}
    for t in tasks:
        col = np.asarray(columns[t.target], dtype=np.float64)
        if t.loss == "ordinal_cumulative":
            targets[t.name] = group_index(np.unique(col), col).astype(np.float64)
        else:
            targets[t.name] = col
        if t.loss == "weighted_logistic":
            weights[t.name] = np.where(col == 1.0, watch, 1.0)
    return targets, weights


def build_train_data(
    table: InteractionTable,
    columns: Mapping[str, np.ndarray],
    tasks: Sequence[ResolvedTask],
    user_index: Mapping[str, int],
    video_index: Mapping[str, int],
    bins: DurationBins,
) -> TrainData:
    targets, weights = _prepare_targets(tasks, columns, table.watch_time_s)
    # ids outside an index share its last embedding row
    return TrainData(
        id_rows(user_index, table.user_id, len(user_index)),
        id_rows(video_index, table.video_id, len(video_index)),
        bins.bin_of_many(table.duration_s),
        targets,
        weights,
    )


# a huge learning rate overflows in an update or the forward pass after it,
# which the next batch's loss check or, after the last update, the final
# parameter and forward checks report
@np.errstate(over="ignore", invalid="ignore")
def train(
    model: Model,
    data: TrainData,
    opt: OptimizerConfig,
    rng: np.random.Generator,
) -> list[tuple[int, str, float]]:
    """SGD over minibatches, shuffled by rng each epoch. Returns (epoch,
    task, loss) rows holding each task's unweighted mean loss per epoch."""
    if data.n == 0:
        raise EmptyDataset("no training records")
    trace: list[tuple[int, str, float]] = []
    for epoch in range(1, opt.epochs + 1):
        perm = rng.permutation(data.n)
        sums = {t.name: 0.0 for t in model.tasks}
        for start in range(0, data.n, opt.batch_size):
            take = perm[start : start + opt.batch_size]
            total, losses, dscores, cache = _batch_loss(
                model.params, model.arch, model.tasks, data, take
            )
            for t in model.tasks:
                sums[t.name] += losses[t.name] * len(take)
            if not np.isfinite(total):
                bad = ", ".join(f"{n}={v}" for n, v in losses.items() if not np.isfinite(v))
                raise NonFiniteLoss(
                    f"epoch {epoch}, batch at {start}: loss became {total} "
                    f"(non-finite task losses: {bad or 'none, their weighted sum overflowed'})"
                )
            grads = _backward(model.params, model.arch, model.tasks, cache, dscores)
            for k, g in grads.items():
                g *= opt.lr_embed if k.startswith("emb_") else opt.lr_dense
                model.params[k] -= g
        for t in model.tasks:
            trace.append((epoch, t.name, sums[t.name] / data.n))
    bad = [k for k, p in model.params.items() if not np.isfinite(p).all()]
    if bad:
        raise NonFiniteLoss(f"parameter {bad[0]} became non-finite in the last update")
    overflow = _forward_overflow(
        model, (data.user_rows[take], data.video_rows[take], data.bin_rows[take])
    )
    if overflow is not None:
        raise NonFiniteLoss(f"the forward pass after the last update overflows in {overflow}")
    return trace


def _forward_overflow(model: Model, rows: tuple[np.ndarray, ...]) -> Optional[str]:
    """None if a forward pass over rows runs without overflow, else the
    layer where it overflows and the error ("expert0: overflow encountered
    in multiply"): finite parameters near the float limit give no
    meaningful scores either. The layer is named by rerunning the experts
    one more at a time, then each task's gate and head over all of them."""
    with np.errstate(over="raise", invalid="raise"):
        try:
            forward(model.params, model.arch, model.tasks, *rows)
            return None
        except FloatingPointError as exc:
            layer, error = "one of its layers", exc
        arch = model.arch
        probes = [(f"expert{e}", replace(arch, n_experts=e + 1), ()) for e in range(arch.n_experts)]
        probes += [(f"the gate or head of task {t.name!r}", arch, (t,)) for t in model.tasks]
        for name, probe_arch, tasks in probes:
            try:
                forward(model.params, probe_arch, tasks, *rows)
            except FloatingPointError as exc:
                layer, error = name, exc
                break
    return f"{layer}: {error}"


def _batch_loss(
    params: Mapping[str, np.ndarray],
    arch: ModelArch,
    tasks: Sequence[ResolvedTask],
    data: TrainData,
    take: np.ndarray,
) -> tuple[float, dict[str, float], dict[str, np.ndarray], tuple]:
    """Forward pass over the records take: the weighted total loss, each
    task's unweighted loss, the weighted score gradients, and the cache
    the backward pass needs."""
    scores, cache = forward(
        params, arch, tasks, data.user_rows[take], data.video_rows[take], data.bin_rows[take]
    )
    total, losses, dscores = 0.0, {}, {}
    for t in tasks:
        w = data.wlr_weights.get(t.name)
        loss, ds = _task_loss(
            t, scores[t.name], data.targets[t.name][take], None if w is None else w[take]
        )
        total += t.weight * loss
        losses[t.name] = loss
        ds *= t.weight
        dscores[t.name] = ds
    return total, losses, dscores, cache


def gradient_check(
    model: Model,
    data: TrainData,
    n_probes: int = 120,
    step: float = 1e-5,
    seed: int = 0,
) -> float:
    """Largest relative error between analytic and central-difference
    gradients over randomly probed parameter coordinates."""
    rng = np.random.Generator(np.random.PCG64(seed))
    take = np.arange(min(data.n, 256))
    _, _, dscores, cache = _batch_loss(model.params, model.arch, model.tasks, data, take)
    grads = _backward(model.params, model.arch, model.tasks, cache, dscores)

    names = sorted(model.params)
    sizes = np.asarray([model.params[k].size for k in names])
    cum = np.cumsum(sizes)
    worst = 0.0
    for _ in range(n_probes):
        flat = int(rng.integers(0, cum[-1]))
        which = int(np.searchsorted(cum, flat, side="right"))
        offset = flat - (cum[which - 1] if which else 0)
        name = names[which]
        p = model.params[name]
        idx = np.unravel_index(offset, p.shape)
        keep = p[idx]
        p[idx] = keep + step
        up = _batch_loss(model.params, model.arch, model.tasks, data, take)[0]
        p[idx] = keep - step
        down = _batch_loss(model.params, model.arch, model.tasks, data, take)[0]
        p[idx] = keep
        numeric = (up - down) / (2.0 * step)
        analytic = grads[name][idx]
        rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
        worst = max(worst, rel)
    return worst


def _cell_medians(values: np.ndarray, cell: np.ndarray, n_cells: int) -> np.ndarray:
    """Median of values in each cell 0..n_cells-1; NaN for empty cells.

    One lexsort by (cell, value); a cell's median is the mean of its two
    middle values (one value twice for odd counts), as np.median gives."""
    order = np.lexsort((values, cell))
    v = values[order]
    bounds = np.searchsorted(cell[order], np.arange(n_cells + 1))
    lo, count = bounds[:-1], np.diff(bounds)
    out = np.full(n_cells, np.nan)
    full = count > 0
    lo_mid = lo[full] + (count[full] - 1) // 2
    hi_mid = lo[full] + count[full] // 2
    # halving first keeps the sum of two values near the float maximum finite
    out[full] = v[lo_mid] / 2 + v[hi_mid] / 2
    return out


def build_wpr_inverse(
    label_col: np.ndarray,
    watch: np.ndarray,
    bin_rows: Optional[np.ndarray],
    per_bin: bool,
    n_bins: int,
) -> WprInverse:
    """Representative watch seconds per rank group, median-based.

    Groups are the distinct label values observed in training. For
    bin-scoped labels each duration bin gets its own row; bins missing
    a group borrow the global representative."""
    prefix = np.unique(np.asarray(label_col, dtype=np.float64))
    gidx = group_index(prefix, label_col)
    g = len(prefix)
    global_reps = _cell_medians(watch, gidx, g)
    # every observed label value has at least one record
    if per_bin:
        if bin_rows is None:
            raise MissingInverseMap("bin-scoped inverse needs duration bins")
        reps = _cell_medians(watch, bin_rows * g + gidx, n_bins * g).reshape(n_bins, g)
        reps = np.where(np.isnan(reps), global_reps, reps)
    else:
        reps = global_reps[None, :]
    return WprInverse(prefix=prefix, reps=reps, per_bin=per_bin)


def fit(
    table: InteractionTable,
    columns: Mapping[str, np.ndarray],
    tasks: Sequence[TaskConfig],
    arch: ModelArch = ModelArch(),
    opt: OptimizerConfig = OptimizerConfig(),
    bins_b: int = 30,
    bins_min_size: int = 20,
) -> tuple[Model, list[tuple[int, str, float]]]:
    """Train a fresh model on a labeled table. One seed (opt.seed)
    drives initialization and batch shuffling."""
    check_config(opt)
    table = as_table(table, "no training records")
    full_columns = dict(columns)
    full_columns.setdefault("watch_time_s", table.watch_time_s)
    resolved = resolve_tasks(tasks, full_columns)
    bins = make_duration_bins(table, bins_b, bins_min_size)
    user_index, video_index = id_index(table.user_id), id_index(table.video_id)
    rng = np.random.Generator(np.random.PCG64(opt.seed))
    params = init_model(
        arch, resolved, len(user_index), len(video_index), bins.n_bins, rng
    )
    model = Model(
        arch=arch,
        tasks=resolved,
        params=params,
        user_index=user_index,
        video_index=video_index,
        bins=bins,
    )
    data = build_train_data(table, full_columns, resolved, user_index, video_index, bins)
    trace = train(model, data, opt, rng)
    bin_rows = data.bin_rows
    for t in resolved:
        if t.kind in ("quantile", "ordinal"):
            model.inverses[t.name] = build_wpr_inverse(
                np.asarray(full_columns[t.target], dtype=np.float64),
                table.watch_time_s,
                bin_rows,
                t.per_bin,
                bins.n_bins,
            )
    return model, trace


def score_records(model: Model, table: InteractionTable) -> dict[str, np.ndarray]:
    """Raw score per task plus a fused ranking score.

    For ranking, logistic tasks contribute their probability and the
    ordinal task its normalized expected group; other tasks contribute
    the raw score. The fused entry is the equal-weight mean."""
    return score_and_predict(model, table, None)[0]


def predict_watch_time(
    model: Model,
    table: InteractionTable,
    task_name: Optional[str] = None,
) -> np.ndarray:
    """Watch-time estimate in seconds from one task's score."""
    name = model.tasks[0].name if task_name is None else task_name
    return score_and_predict(model, table, name)[1]


def score_and_predict(
    model: Model,
    table: InteractionTable,
    task_name: Optional[str],
) -> tuple[dict[str, np.ndarray], Optional[np.ndarray]]:
    """score_records, and predict_watch_time of the task named task_name
    unless it is None, from one forward pass."""
    table = as_table(table)
    tasks = {t.name: t for t in model.tasks}
    if task_name is not None and task_name not in tasks:
        raise ConfigInvalid(f"no task named {task_name!r}")
    user_rows = id_rows(model.user_index, table.user_id, len(model.user_index))
    video_rows = id_rows(model.video_index, table.video_id, len(model.video_index))
    bin_rows = model.bins.bin_of_many(table.duration_s)
    rows = (user_rows, video_rows, bin_rows)
    # a diverged model's huge parameters overflow here, to scores that are
    # inf or nan, or finite but meaningless; the pass records each overflow,
    # and the checks below report both as errors rather than warnings
    overflows = []
    with np.errstate(over="call", invalid="call", call=lambda err, flag: overflows.append(err)):
        scores, _ = forward(model.params, model.arch, model.tasks, *rows)
    for t in model.tasks:
        if not np.isfinite(scores[t.name]).all():
            raise NonFiniteLoss(
                f"task {t.name!r} scores are not finite: the model diverged in training"
            )
    if overflows:
        raise NonFiniteLoss(f"the forward pass overflows in {_forward_overflow(model, rows)}: "
                            "the model diverged in training")
    out: dict[str, np.ndarray] = {}
    ranking = []
    for t in model.tasks:
        s = scores[t.name]
        if t.kind == "ordinal":
            out[t.name] = sigmoid(s).sum(axis=1)
            ranking.append(out[t.name] / t.n_out)
        else:
            out[t.name] = s[:, 0]
            if t.kind == "binary":
                ranking.append(sigmoid(s[:, 0]))
            else:
                ranking.append(s[:, 0])
    out["fused"] = np.mean(np.stack(ranking, axis=0), axis=0)
    if task_name is None:
        return out, None
    return out, _watch_time(model, tasks[task_name], out[task_name], bin_rows, table.duration_s)


def _watch_time(
    model: Model,
    task: ResolvedTask,
    score: np.ndarray,
    bin_rows: np.ndarray,
    duration_s: np.ndarray,
) -> np.ndarray:
    """Seconds from a task's score_records entry: the raw score, or the
    expected group for an ordinal task."""
    if task.kind == "seconds":
        return np.maximum(score, 0.0)
    if task.kind == "odds":
        # scores above ~700 would overflow; the cap is far beyond any
        # meaningful watch time already
        return np.exp(np.minimum(score, 60.0))
    if task.kind == "playing_rate":
        return np.clip(score, 0.0, 1.0) * duration_s
    if task.kind == "binary":
        raise ConfigInvalid(f"task {task.name} is binary; it has no watch-time scale")
    inverse = model.inverses.get(task.name)
    if inverse is None:
        raise MissingInverseMap(f"task {task.name} has no inverse map")
    if task.kind == "ordinal":
        g = np.clip(np.round(score), 0, len(inverse.prefix) - 1).astype(np.int64)
        return inverse.at(g, bin_rows)
    return inverse.lookup(score, bin_rows)


# checkpoint io

def save_model(model: Model, path: str) -> None:
    meta = {
        "arch": asdict(model.arch),
        "tasks": [asdict(t) for t in model.tasks],
        "users": sorted(model.user_index, key=model.user_index.get),
        "videos": sorted(model.video_index, key=model.video_index.get),
        "inverses": {
            name: {"per_bin": inv.per_bin} for name, inv in model.inverses.items()
        },
    }
    arrays: list[tuple[str, np.ndarray]] = [("bins_boundaries", model.bins.boundaries),
                                            ("bins_counts", model.bins.counts.astype(np.float64))]
    for k in sorted(model.params):
        arrays.append((f"param:{k}", model.params[k]))
    for name in sorted(model.inverses):
        inv = model.inverses[name]
        arrays.append((f"inv:{name}:prefix", inv.prefix))
        arrays.append((f"inv:{name}:reps", inv.reps))
    blob = [struct.pack("<4sI", CHECKPOINT_MAGIC, CHECKPOINT_VERSION)]
    enc = json.dumps(meta, sort_keys=True).encode("utf-8")
    blob.append(struct.pack("<Q", len(enc)))
    blob.append(enc)
    blob.append(struct.pack("<I", len(arrays)))
    for name, arr in arrays:
        arr = np.ascontiguousarray(arr, dtype=np.float64)
        nb = name.encode("utf-8")
        blob.append(struct.pack("<H", len(nb)))
        blob.append(nb)
        blob.append(struct.pack("<B", arr.ndim))
        for dim in arr.shape:
            blob.append(struct.pack("<Q", dim))
        blob.append(arr.tobytes())
    atomic_write_bytes(path, b"".join(blob))


def load_model(path: str) -> Model:
    with open(path, "rb") as fh:
        r = Reader(fh.read(), path)
    if r.raw(4) != CHECKPOINT_MAGIC:
        raise SerializationError(f"{path}: not a model checkpoint")
    (version,) = r.take("<I")
    if version != CHECKPOINT_VERSION:
        raise SerializationError(f"{path}: unsupported checkpoint version {version}")
    (meta_len,) = r.take("<Q")
    meta_text = r.utf8(meta_len)
    try:
        meta = json.loads(meta_text)
        arrays: dict[str, np.ndarray] = {}
        for _ in range(r.take("<I")[0]):
            name = r.utf8(r.take("<H")[0])
            shape = r.take(f"<{r.take('<B')[0]}Q")
            arrays[name] = r.floats(math.prod(shape)).reshape(shape)
        r.end()
        arch = ModelArch(**meta["arch"])
        tasks = tuple(ResolvedTask(**t) for t in meta["tasks"])
        users, videos = meta["users"], meta["videos"]
        # save_model writes each id list in id_index order: sorted, no repeats
        for key, ids in (("users", users), ("videos", videos)):
            at = next((i for i in range(1, len(ids)) if not ids[i - 1] < ids[i]), None)
            if at is not None:
                raise SerializationError(
                    f"{path}: checkpoint {key} list is not strictly ascending at "
                    f"entry {at} ({ids[at - 1]!r}, then {ids[at]!r})"
                )
        bins = DurationBins(arrays["bins_boundaries"], arrays["bins_counts"])
        params = {k.removeprefix("param:"): v for k, v in arrays.items() if k.startswith("param:")}
        inverses = {
            name: WprInverse(
                arrays[f"inv:{name}:prefix"], arrays[f"inv:{name}:reps"], bool(info["per_bin"])
            )
            for name, info in meta["inverses"].items()
        }
        want = _param_shapes(arch, tasks, len(users), len(videos), bins.n_bins)
        want.update(bins_boundaries=(bins.n_bins,), bins_counts=(bins.n_bins,))
        for name, inv in inverses.items():
            want[f"inv:{name}:prefix"] = (inv.prefix.size,)
            want[f"inv:{name}:reps"] = (bins.n_bins if inv.per_bin else 1, inv.prefix.size)
        if {k.removeprefix("param:"): v.shape for k, v in arrays.items()} != want:
            raise ValueError("array shapes disagree with the metadata")
        return Model(
            arch=arch,
            tasks=tasks,
            params=params,
            user_index={u: i for i, u in enumerate(users)},
            video_index={v: i for i, v in enumerate(videos)},
            bins=bins,
            inverses=inverses,
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise SerializationError(
            f"{path}: metadata and arrays do not form a model: {type(exc).__name__}: {exc}"
        ) from None
