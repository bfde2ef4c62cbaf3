"""Rank and quantile summaries over non-negative watch times.

Two interchangeable implementations sit behind one interface:

* ExactSummary keeps every inserted value. Queries answer from the
  sorted multiset, so threshold, rank and rank_many are exact under
  the nearest-rank convention.

* SketchSummary is a mergeable compactor sketch. Values live in level
  buffers where an item at level h stands for 2**h original values.
  When a level exceeds its capacity the buffer is sorted and every
  second element is promoted one level up, alternating the starting
  offset between compactions so successive rank errors cancel instead
  of accumulating. The compaction is deterministic: no randomness is
  involved, so identical insert and merge sequences always produce
  identical state. With per-level capacity k and L live levels the
  worst-case rank error is bounded by roughly L/k of the stream, far
  inside the configured eps; capacity is sized from eps with a wide
  safety factor so that labels derived from sketch ranks rarely move
  across group boundaries.

Thresholds follow the nearest-rank convention throughout: the p-th
percentile is the smallest value w with count(x <= w) >= p/100 * n.
Counts are tracked exactly in both modes.

Summaries serialize to a small versioned binary format (magic WLQS) so
grouped summaries can be persisted and reused across runs.
"""

from __future__ import annotations

import math
import struct
from typing import Iterable, Optional

import numpy as np

from .dataio import Reader
from .errors import (
    ConfigInvalid,
    EmptySummary,
    ModeMismatch,
    NegativeValue,
    PercentileOutOfRange,
)

SERIAL_MAGIC = b"WLQS"
SERIAL_VERSION = 1
_MODE_EXACT = 0
_MODE_SKETCH = 1

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
    if not (0 < eps < 0.5):
        raise ConfigInvalid(f"eps {eps} outside (0, 0.5)")
    capacity = max(_MIN_CAPACITY, math.ceil(CAPACITY_FACTOR / eps))
    return capacity + (capacity % 2)


def _nearest_rank(n: int, p: float) -> int:
    """1-based nearest rank for percentile p in (0, 100]."""
    if not 0 < p <= 100:
        raise PercentileOutOfRange(f"percentile {p} outside (0, 100]")
    return max(1, math.ceil(n * p / 100.0))


class QuantileSummary:
    """Interface shared by both summary modes. Each defines count,
    insert, extend, merge, threshold, rank_many and to_bytes."""

    mode: str

    def rank(self, value: float) -> float:
        return float(self.rank_many(np.asarray([value]))[0])


class ExactSummary(QuantileSummary):
    """Sorted-multiset summary with exact answers."""

    mode = "exact"
    __slots__ = ("_chunks", "_n", "_sorted")

    def __init__(self) -> None:
        self._chunks: list[np.ndarray] = []
        self._n = 0
        self._sorted: Optional[np.ndarray] = None

    @property
    def count(self) -> int:
        return self._n

    def insert(self, value: float) -> None:
        self.extend((value,))

    def extend(self, values: Iterable[float]) -> None:
        arr = _validate_values(values if isinstance(values, np.ndarray) else list(values))
        if arr.size == 0:
            return
        self._chunks.append(arr)
        self._n += arr.size
        self._sorted = None

    def merge(self, other: QuantileSummary) -> "ExactSummary":
        if not isinstance(other, ExactSummary):
            raise ModeMismatch("cannot merge exact with sketch summaries")
        out = ExactSummary()
        out._chunks = [self.values(), other.values()]
        out._n = self._n + other._n
        return out

    def values(self) -> np.ndarray:
        """Sorted array of everything inserted so far (cached)."""
        if self._sorted is None:
            parts = self._chunks or [np.empty(0, dtype=np.float64)]
            self._sorted = np.sort(parts[0] if len(parts) == 1 else np.concatenate(parts))
            self._chunks = [self._sorted]
        return self._sorted

    def threshold(self, p: float) -> float:
        k = _nearest_rank(self._n, p)
        if self._n == 0:
            raise EmptySummary("threshold query on an empty summary")
        return float(self.values()[k - 1])

    def rank_many(self, values: np.ndarray) -> np.ndarray:
        if self._n == 0:
            raise EmptySummary("rank query on an empty summary")
        return np.searchsorted(self.values(), np.asarray(values, dtype=np.float64),
                               side="right") / self._n

    def to_bytes(self) -> bytes:
        v = self.values()
        return struct.pack("<4sHBQQ", SERIAL_MAGIC, SERIAL_VERSION, _MODE_EXACT, v.size,
                           v.size) + v.tobytes()


class SketchSummary(QuantileSummary):
    """Deterministic mergeable compactor sketch."""

    mode = "sketch"
    __slots__ = ("eps", "capacity", "_levels", "_parity", "_pending", "_n", "_mat")

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
        self._pending: list[float] = []
        self._n = 0
        self._mat: Optional[tuple[np.ndarray, np.ndarray]] = None

    @property
    def count(self) -> int:
        return self._n

    def insert(self, value: float) -> None:
        (v,) = _validate_values(value)
        self._pending.append(float(v))
        self._n += 1
        self._mat = None
        if len(self._pending) + self._levels[0].size >= self.capacity:
            self._flush_pending()
            self._compact_cascade()

    def extend(self, values: Iterable[float]) -> None:
        arr = _validate_values(values if isinstance(values, np.ndarray) else list(values))
        if arr.size == 0:
            return
        self._mat = None
        # feed in capacity-sized pieces so level 0 never balloons
        for start in range(0, arr.size, self.capacity):
            piece = arr[start : start + self.capacity]
            self._flush_pending()
            self._levels[0] = np.concatenate([self._levels[0], piece])
            self._n += piece.size
            self._compact_cascade()

    def _flush_pending(self) -> None:
        if self._pending:
            self._levels[0] = np.concatenate(
                [self._levels[0], np.asarray(self._pending, dtype=np.float64)]
            )
            self._pending = []

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

    def merge(self, other: QuantileSummary) -> "SketchSummary":
        if not isinstance(other, SketchSummary):
            raise ModeMismatch("cannot merge sketch with exact summaries")
        if other.eps != self.eps or other.capacity != self.capacity:
            raise ModeMismatch(
                f"sketch accuracy differs: eps {self.eps} vs {other.eps}"
            )
        out = SketchSummary(self.eps, self.capacity)
        self._flush_pending()
        other_levels = list(other._levels)
        if other._pending:
            other_levels[0] = np.concatenate(
                [other_levels[0], np.asarray(other._pending, dtype=np.float64)]
            )
        depth = max(len(self._levels), len(other_levels))
        out._levels = []
        out._parity = []
        for h in range(depth):
            parts = []
            if h < len(self._levels):
                parts.append(self._levels[h])
            if h < len(other_levels):
                parts.append(other_levels[h])
            out._levels.append(np.concatenate(parts) if parts else np.empty(0))
            out._parity.append(self._parity[h] if h < len(self._parity) else 0)
        out._n = self._n + other._n
        out._compact_cascade()
        return out

    def _materialize(self) -> tuple[np.ndarray, np.ndarray]:
        """Sorted (values, cumulative weight ending at each value)."""
        if self._mat is None:
            self._flush_pending()
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
        self._flush_pending()
        head = struct.pack(
            "<4sHBQ", SERIAL_MAGIC, SERIAL_VERSION, _MODE_SKETCH, self._n
        )
        body = [struct.pack("<dII", self.eps, self.capacity, len(self._levels))]
        for h, level in enumerate(self._levels):
            body.append(struct.pack("<BQ", self._parity[h], level.size))
            body.append(np.ascontiguousarray(level).tobytes())
        return head + b"".join(body)


def make_summary(mode: str = "exact", eps: float = DEFAULT_EPS) -> QuantileSummary:
    if mode == "exact":
        return ExactSummary()
    if mode == "sketch":
        return SketchSummary(eps)
    raise ConfigInvalid(f"unknown summary mode {mode!r}")


def summary_from_bytes(blob: bytes) -> QuantileSummary:
    r = Reader(blob, "WLQS summary")
    s, raw, at = read_summary(r)
    if s is None:
        s = ExactSummary()
        s.extend(checked_values(r, raw, at))
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


def read_summary(r: Reader) -> tuple[Optional[SketchSummary], bytes, int]:
    """Decode one WLQS summary at the cursor as (sketch, raw, at): an exact
    one as sketch None and its values unchecked in raw, stored from byte
    at; a sketch decoded and checked."""
    magic, version, mode, n = r.take("<4sHBQ")
    if magic != SERIAL_MAGIC:
        raise r.fail(f"bad summary magic {magic!r}")
    if version != SERIAL_VERSION:
        raise r.fail(f"unsupported summary version {version}")
    if mode == _MODE_EXACT:
        (size,) = r.take("<Q")
        if size != n:
            raise r.fail(f"exact summary header counts {n} values, payload holds {size}")
        return None, r.raw(8 * size), r.start
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
    return s, b"", r.pos
