"""Rank and quantile summaries over non-negative watch times.

Two summaries answer the same nearest-rank queries:

* SketchSummary is a compactor sketch, which sketch-mode rank labels
  and every group that reaches the sketch capacity use. Values live in
  level buffers where an item at level h stands for 2**h original
  values. When a level exceeds its capacity the buffer is sorted and
  every second element is promoted one level up, alternating the
  starting offset between compactions so successive rank errors cancel
  instead of accumulating. The compaction is deterministic: no randomness is
  involved, so identical extend sequences always produce identical
  state. With per-level capacity k and L live levels the worst-case
  rank error is bounded by roughly L/k of the stream, far inside the
  configured eps; capacity is sized from eps with a wide safety factor
  so that labels derived from sketch ranks rarely move across group
  boundaries.

* ExactSummary keeps every value, sorted, in memory; threshold, rank
  and rank_many are exact. It is the reference the sketch is measured
  against.

Thresholds follow the nearest-rank convention throughout: the p-th
percentile is the smallest value w with count(x <= w) >= p/100 * n.
Counts are tracked exactly in both modes.

A sketch serializes to a small versioned binary format (magic WLQS),
which appears only inside grouped-summary (WLGS) files.
"""

from __future__ import annotations

import math
import struct
from typing import Iterable, Optional

import numpy as np

from .core import check_value
from .dataio import Reader
from .errors import (
    ConfigInvalid,
    EmptySummary,
    NegativeValue,
    PercentileOutOfRange,
)

SERIAL_MAGIC = b"WLQS"
SERIAL_VERSION = 1
_MODE_SKETCH = 1  # the only mode byte a WLQS header may hold

DEFAULT_EPS = 0.005

# Per-level capacity is ceil(CAPACITY_FACTOR / eps). The factor is far
# above what the eps rank bound alone would need; the slack keeps the
# realized error small enough that rank labels computed from a sketch
# agree with exact labels on almost every record even for fine
# partitions (hundreds of groups).
CAPACITY_FACTOR = 256.0
_MIN_CAPACITY = 16


def _in_domain(arr: np.ndarray) -> bool:
    """Whether every value is finite and >= 0; NaN fails the comparison."""
    return not arr.size or 0 <= arr.min() <= arr.max() < np.inf


def _validate_values(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64).reshape(-1)
    if not _in_domain(arr):
        raise NegativeValue("summary values must be finite and >= 0")
    return arr


def sketch_capacity(eps: float) -> int:
    """The per-level capacity of a sketch of this eps, rounded up to even:
    compaction pairs items, so an even capacity keeps leftovers rare."""
    check_value("eps_sketch", eps)
    capacity = max(_MIN_CAPACITY, math.ceil(CAPACITY_FACTOR / eps))
    return capacity + (capacity % 2)


def _nearest_rank(n, p: float):
    """1-based nearest rank for percentile p in (0, 100] of n values, for
    a count n or an array of counts."""
    if not 0 < p <= 100:
        raise PercentileOutOfRange(f"percentile {p} outside (0, 100]")
    return np.maximum(1, np.ceil(np.asarray(n) * p / 100.0)).astype(np.int64)


class QuantileSummary:
    """Interface shared by both summary modes. Each defines count,
    extend, threshold and rank_many; the sketch also to_bytes."""

    mode: str

    def rank(self, value: float) -> float:
        return float(self.rank_many(np.asarray([value]))[0])


class ExactSummary(QuantileSummary):
    """Sorted-multiset summary with exact answers."""

    mode = "exact"
    __slots__ = ("_sorted",)

    def __init__(self) -> None:
        self._sorted = np.empty(0, dtype=np.float64)

    @property
    def count(self) -> int:
        return self._sorted.size

    def extend(self, values: Iterable[float]) -> None:
        arr = _validate_values(values if isinstance(values, np.ndarray) else list(values))
        if arr.size:
            self._sorted = np.sort(np.concatenate([self._sorted, arr]))

    def values(self) -> np.ndarray:
        """Sorted array of everything extended so far."""
        return self._sorted

    def threshold(self, p: float) -> float:
        k = _nearest_rank(self.count, p)
        if self.count == 0:
            raise EmptySummary("threshold query on an empty summary")
        return float(self._sorted[k - 1])

    def rank_many(self, values: np.ndarray) -> np.ndarray:
        if self.count == 0:
            raise EmptySummary("rank query on an empty summary")
        return np.searchsorted(self._sorted, np.asarray(values, dtype=np.float64),
                               side="right") / self.count


class SketchSummary(QuantileSummary):
    """Deterministic compactor sketch."""

    mode = "sketch"
    __slots__ = ("eps", "capacity", "_levels", "_parity", "_n", "_mat")

    def __init__(self, eps: float = DEFAULT_EPS, capacity: Optional[int] = None) -> None:
        default = sketch_capacity(eps)
        self.eps = float(eps)
        if capacity is None:
            capacity = default
        if capacity < 2:
            raise ConfigInvalid(f"sketch capacity {capacity} is below 2")
        self.capacity = capacity + (capacity % 2)
        self._levels: list[np.ndarray] = [np.empty(0, dtype=np.float64)]
        self._parity: list[int] = [0]
        self._n = 0
        self._mat: Optional[tuple[np.ndarray, np.ndarray]] = None

    @property
    def count(self) -> int:
        return self._n

    def extend(self, values: Iterable[float]) -> None:
        arr = _validate_values(values if isinstance(values, np.ndarray) else list(values))
        if arr.size == 0:
            return
        self._mat = None
        # feed in capacity-sized pieces so level 0 never balloons
        for start in range(0, arr.size, self.capacity):
            piece = arr[start : start + self.capacity]
            self._levels[0] = np.concatenate([self._levels[0], piece])
            self._n += piece.size
            self._compact_cascade()

    def _compact_cascade(self) -> None:
        h = 0
        while h < len(self._levels):
            if self._levels[h].size >= self.capacity:
                self._compact_level(h)
            h += 1

    def _compact_level(self, h: int) -> None:
        arr = np.sort(self._levels[h])
        m = arr.size - (arr.size % 2)
        promoted = arr[self._parity[h] : m : 2]
        leftover = arr[m:]  # at most one item, the maximum, stays behind
        self._parity[h] ^= 1
        self._levels[h] = leftover
        if h + 1 == len(self._levels):
            self._levels.append(np.empty(0, dtype=np.float64))
            self._parity.append(0)
        self._levels[h + 1] = np.concatenate([self._levels[h + 1], promoted])

    def _materialize(self) -> tuple[np.ndarray, np.ndarray]:
        """Sorted (values, cumulative weight ending at each value)."""
        if self._mat is None:
            vals = []
            weights = []
            for h, level in enumerate(self._levels):
                if level.size:
                    vals.append(level)
                    weights.append(np.full(level.size, float(2**h)))
            if not vals:
                raise EmptySummary("query on an empty summary")
            v = np.concatenate(vals)
            w = np.concatenate(weights)
            order = np.argsort(v, kind="stable")
            v = v[order]
            cw = np.cumsum(w[order])
            self._mat = (v, cw)
        return self._mat

    def threshold(self, p: float) -> float:
        k = _nearest_rank(self._n, p)
        if self._n == 0:
            raise EmptySummary("threshold query on an empty summary")
        v, cw = self._materialize()
        idx = int(np.searchsorted(cw, k, side="left"))
        return float(v[min(idx, v.size - 1)])

    def rank_many(self, values: np.ndarray) -> np.ndarray:
        if self._n == 0:
            raise EmptySummary("rank query on an empty summary")
        v, cw = self._materialize()
        prefixed = np.concatenate([[0.0], cw])
        idx = np.searchsorted(v, np.asarray(values, dtype=np.float64), side="right")
        return prefixed[idx] / self._n

    def to_bytes(self) -> bytes:
        head = struct.pack(
            "<4sHBQ", SERIAL_MAGIC, SERIAL_VERSION, _MODE_SKETCH, self._n
        )
        body = [struct.pack("<dII", self.eps, self.capacity, len(self._levels))]
        for h, level in enumerate(self._levels):
            body.append(struct.pack("<BQ", self._parity[h], level.size))
            body.append(np.ascontiguousarray(level).tobytes())
        return head + b"".join(body)


def make_summary(mode: str = "exact", eps: float = DEFAULT_EPS) -> QuantileSummary:
    check_value("summary_mode", mode)
    return ExactSummary() if mode == "exact" else SketchSummary(eps)


def summary_from_bytes(blob: bytes) -> SketchSummary:
    r = Reader(blob, "WLQS summary")
    s = read_summary(r)
    r.end()
    return s


def checked_values(r: Reader, raw: bytes, at: int) -> np.ndarray:
    """The values stored as raw from byte at; one outside the domain fails
    at its own byte offset."""
    values = np.frombuffer(raw, np.float64).copy()
    if not _in_domain(values):
        i = int(values.argmax())  # a NaN or an inf, or else the minimum is negative
        if _in_domain(values[i : i + 1]):
            i = int(values.argmin())
        raise r.fail(f"summary value {values[i]} is not finite and >= 0", at + 8 * i)
    return values


def read_summary(r: Reader) -> SketchSummary:
    """Decode and check one WLQS sketch at the cursor."""
    magic, version, mode, n = r.take("<4sHBQ")
    if magic != SERIAL_MAGIC:
        raise r.fail(f"bad summary magic {magic!r}")
    if version != SERIAL_VERSION:
        raise r.fail(f"unsupported summary version {version}")
    if mode != _MODE_SKETCH:
        raise r.fail(f"unknown summary mode byte {mode}")
    eps, capacity, n_levels = r.take("<dII")
    if not 0 < eps < 0.5:
        raise r.fail(f"sketch eps {eps} outside (0, 0.5)")
    if capacity < 2:
        raise r.fail(f"sketch capacity {capacity} is below 2", r.start + 8)
    if capacity % 2:
        raise r.fail(f"sketch capacity {capacity} is odd", r.start + 8)
    levels = []
    for _ in range(n_levels):
        parity, size = r.take("<BQ")
        if parity not in (0, 1):
            raise r.fail(f"sketch level parity {parity} is not 0 or 1")
        levels.append((parity, r.raw(8 * size), r.start))
    # compaction keeps the total weight, so the levels must account for
    # every counted value
    weight = sum(len(raw) // 8 << h for h, (_, raw, _) in enumerate(levels))
    if weight != n:
        raise r.fail(f"sketch summary header counts {n} values, levels hold weight {weight}")
    s = SketchSummary(eps, capacity)
    s._levels = [checked_values(r, raw, at) for _, raw, at in levels] or [np.empty(0)]
    s._parity, s._n = [parity for parity, _, _ in levels] or [0], n
    return s
