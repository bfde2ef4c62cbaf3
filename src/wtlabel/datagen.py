"""Synthetic interaction generator with a duration confound.

Every user and video carries a latent preference vector. A video's
duration is tied to its latent vector, so longer videos are not a
random sample: duration confounds the watch-time signal exactly the
way the debiased labels are meant to correct. Interest for a record is

    m = <u, v> / sqrt(K)

and the watched fraction is a noisy squashed response to m. Watch time
is duration times fraction, rounded to 3 decimals (the CSV precision,
applied here too so in-memory and file-roundtrip pipelines agree).

Randomness comes from a PCG64 generator. Normal deviates use the
inverse CDF applied to open-interval uniforms built from 53-bit
integers, so the draw sequence is reproducible from the documented
order: user vectors, video vectors, video duration noise, per-user
video selections (partial Fisher-Yates), then per-record response
noise. Each user's selection takes exactly one rng.integers call, in
user order: integers buffers 32-bit draws within one call, so a single
batched call would consume the stream differently and change every
dataset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .core import InteractionTable, check_config, gather, sigmoid
from .errors import ConfigInvalid
from .metrics import eligible_user_mean, user_segments


@dataclass(frozen=True)
class SyntheticConfig:
    n_users: int = 500
    n_videos: int = 2000
    interactions_per_user: int = 200
    latent_dim: int = 8
    mu_d: float = 3.5
    s_d: float = 1.0
    sigma_d: float = 0.3
    d_min: float = 5.0
    d_max: float = 600.0
    alpha: float = 2.0
    beta: float = -0.5
    sigma_y: float = 0.5
    confound_sign: float = 1.0
    seed: int = 42

    def validate(self) -> None:
        check_config(self)
        if self.interactions_per_user > self.n_videos:
            raise ConfigInvalid(f"interactions_per_user must be <= n_videos ({self.n_videos})")
        if self.d_max < self.d_min:
            raise ConfigInvalid("d_max must be >= d_min")

    @property
    def n_records(self) -> int:
        return self.n_users * self.interactions_per_user


@dataclass
class SyntheticTruth:
    """Per-record latent interest and noiseless watched fraction."""

    m: np.ndarray
    f_mean: np.ndarray


def _standard_normal(rng: np.random.Generator, size) -> np.ndarray:
    """Inverse-CDF normals from uniforms strictly inside (0, 1)."""
    u = rng.integers(1, 2**53, size=size).astype(np.float64) / 2**53
    return ndtri(u)


@np.errstate(over="ignore")  # a huge setting overflows to inf, which clips and sigmoids saturate
def generate(config: SyntheticConfig) -> tuple[InteractionTable, SyntheticTruth]:
    """Generate the synthetic dataset for config, deterministically."""
    config.validate()
    rng = np.random.Generator(np.random.PCG64(config.seed))
    k = config.latent_dim
    scale = 1.0 / math.sqrt(k)

    users = _standard_normal(rng, (config.n_users, k))
    videos = _standard_normal(rng, (config.n_videos, k))
    eta = _standard_normal(rng, config.n_videos)

    # w_d is the first basis vector (up to sign): duration leans on one
    # latent coordinate, which is enough to create the confound
    confound = config.confound_sign * videos[:, 0] * scale
    log_d = config.mu_d + config.s_d * confound + config.sigma_d * eta
    durations = np.clip(np.exp(log_d), config.d_min, config.d_max)
    durations = np.round(durations, 3)

    ipu = config.interactions_per_user
    lows = np.arange(ipu, dtype=np.int64)
    picks = []
    for _ in range(config.n_users):
        # partial Fisher-Yates on the pool 0..n_videos-1, holding only the
        # positions a swap moved: moved.get(p, p) is the video at position p
        moved = {}
        for j, d in enumerate(rng.integers(lows, config.n_videos).tolist()):
            picks.append(moved.get(d, d))
            moved[d] = moved.get(j, j)
    vid_rows = np.array(picks, dtype=np.int64)
    user_rows = np.repeat(np.arange(config.n_users, dtype=np.int64), ipu)

    eps = _standard_normal(rng, config.n_records)
    m = (users[user_rows] * videos[vid_rows]).sum(axis=1) * scale
    f_mean = sigmoid(config.alpha * m + config.beta)
    f = np.clip(sigmoid(config.alpha * m + config.beta + config.sigma_y * eps), 0.0, 1.0)
    watch = np.round(durations[vid_rows] * f, 3)

    width_u = len(str(config.n_users - 1))
    width_v = len(str(config.n_videos - 1))
    user_ids = gather([f"u{i:0{width_u}d}" for i in range(config.n_users)], user_rows.tolist())
    video_ids = gather([f"v{i:0{width_v}d}" for i in range(config.n_videos)], picks)
    table = InteractionTable(user_ids, video_ids, durations[vid_rows], watch)
    return table, SyntheticTruth(m=m, f_mean=f_mean)


def oracle_rank_quality(scores, truth_m, user_ids, groups=None) -> float:
    """Impression-weighted per-user concordance of scores with m.

    Pairs with equal m are uninformative and dropped; pairs with equal
    scores count half. Users contribute when they have at least two
    records and a non-constant m, weighted by their record count.
    groups is metrics.user_segments(user_ids), when the caller has it already.
    """
    if not (len(scores) == len(truth_m) == len(user_ids)):
        raise ConfigInvalid("scores, truth, and user ids must align")
    order, user, sizes = user_segments(user_ids) if groups is None else groups
    # largest users first: step k counts at i the pairs (i, i + k) within
    # the prefix that holds the users with more than k records
    by = np.argsort(-sizes[user], kind="stable")
    user, neg_size = user[by], -sizes[user[by]]
    s, mu = (np.asarray(x, dtype=np.float64)[order[by]] for x in (scores, truth_m))
    pairs, conc, ties = np.zeros((3, len(user)), dtype=np.int32)
    for k in range(1, sizes.max(initial=0)):
        end = int(np.searchsorted(neg_size, -k))
        i, j = slice(0, end - k), slice(k, end)
        dm, ds = mu[i] - mu[j], s[i] - s[j]
        informative = (user[i] == user[j]) & (dm != 0)
        pairs[i] += informative
        conc[i] += informative & (np.multiply(dm, ds, out=dm) > 0)
        ties[i] += informative & (ds == 0)
    pairs, conc, ties = (np.bincount(user, weights=c, minlength=len(sizes))
                         for c in (pairs, conc, ties))
    return eligible_user_mean(conc + 0.5 * ties, pairs, sizes,
                              "no user has two records with differing interest")[0]
