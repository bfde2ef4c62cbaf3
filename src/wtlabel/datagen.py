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
noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .core import InteractionTable, segments, sigmoid
from .errors import ConfigInvalid, NoEligibleUsers


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
        if self.n_users < 1 or self.n_videos < 1:
            raise ConfigInvalid("need at least one user and one video")
        if not 1 <= self.interactions_per_user <= self.n_videos:
            raise ConfigInvalid(
                "interactions_per_user must lie in [1, n_videos]; "
                f"got {self.interactions_per_user} with {self.n_videos} videos"
            )
        if self.latent_dim < 1:
            raise ConfigInvalid("latent_dim must be >= 1")
        if not self.d_min > 0:
            raise ConfigInvalid("d_min must be > 0")
        if self.d_max < self.d_min:
            raise ConfigInvalid("d_max must be >= d_min")
        if self.sigma_d < 0 or self.sigma_y < 0:
            raise ConfigInvalid("noise scales must be >= 0")
        if self.confound_sign not in (1.0, -1.0):
            raise ConfigInvalid("confound_sign must be +1 or -1")
        if self.seed < 0:
            raise ConfigInvalid("seed must be >= 0")

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
    vid_rows = np.empty(config.n_records, dtype=np.int64)
    pool = np.empty(config.n_videos, dtype=np.int64)
    base = np.arange(config.n_videos, dtype=np.int64)
    lows = np.arange(ipu, dtype=np.int64)
    for u in range(config.n_users):
        pool[:] = base
        draws = rng.integers(lows, config.n_videos)
        for j in range(ipu):
            d = draws[j]
            pool[j], pool[d] = pool[d], pool[j]
        vid_rows[u * ipu : (u + 1) * ipu] = pool[:ipu]
    user_rows = np.repeat(np.arange(config.n_users, dtype=np.int64), ipu)

    eps = _standard_normal(rng, config.n_records)
    m = (users[user_rows] * videos[vid_rows]).sum(axis=1) * scale
    f_mean = sigmoid(config.alpha * m + config.beta)
    f = np.clip(sigmoid(config.alpha * m + config.beta + config.sigma_y * eps), 0.0, 1.0)
    watch = np.round(durations[vid_rows] * f, 3)

    width_u = len(str(config.n_users - 1))
    width_v = len(str(config.n_videos - 1))
    user_ids = [f"u{i:0{width_u}d}" for i in user_rows]
    video_ids = [f"v{i:0{width_v}d}" for i in vid_rows]
    table = InteractionTable(user_ids, video_ids, durations[vid_rows], watch)
    return table, SyntheticTruth(m=m, f_mean=f_mean)


def oracle_rank_quality(scores, truth_m, user_ids) -> float:
    """Impression-weighted per-user concordance of scores with m.

    Pairs with equal m are uninformative and dropped; pairs with equal
    scores count half. Users contribute when they have at least two
    records and a non-constant m, weighted by their record count.
    """
    scores = np.asarray(scores, dtype=np.float64)
    m = np.asarray(truth_m, dtype=np.float64)
    ids = np.asarray(user_ids)
    if not (len(scores) == len(m) == len(ids)):
        raise ConfigInvalid("scores, truth, and user ids must align")
    _, order, bounds = segments(ids)
    total_weight = 0.0
    total = 0.0
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        idx = order[lo:hi]
        if len(idx) < 2:
            continue
        mu = m[idx]
        if np.all(mu == mu[0]):
            continue
        su = scores[idx]
        dm = mu[:, None] - mu[None, :]
        ds = su[:, None] - su[None, :]
        upper = np.triu(np.ones_like(dm, dtype=bool), k=1)
        informative = upper & (dm != 0)
        pairs = informative.sum()
        conc = (informative & (dm * ds > 0)).sum()
        ties = (informative & (ds == 0)).sum()
        value = (conc + 0.5 * ties) / pairs
        w = float(len(idx))
        total += w * value
        total_weight += w
    if total_weight == 0:
        raise NoEligibleUsers("no user has two records with differing interest")
    return total / total_weight
