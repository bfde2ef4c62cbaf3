"""CSV and binary file handling for the pipeline.

All writers are atomic: content goes to a temp file in the target
directory and is moved into place with os.replace, so readers never
observe a half-written file. All text files are UTF-8 with LF line
endings and a header row.

Formats:
  interactions  user_id,video_id,duration_s,watch_time_s
  truth         row_index,m,f_mean            (reals with 9 decimals)
  labeled       interactions + label columns  (reals with 6 decimals,
                binary labels as 0/1, absent labels as empty fields)
  trace         epoch,task,loss
  report        metric,value,n_evaluated,n_skipped
"""

from __future__ import annotations

import csv
import os
import struct
import tempfile
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .core import (
    ABLATION_LABELS,
    BINARY_LABELS,
    STANDARD_LABELS,
    InteractionTable,
    validate_interaction,
)
from .datagen import SyntheticTruth
from .errors import (
    ConfigInvalid,
    EmptyInput,
    LabelOutOfRange,
    MissingField,
    PipelineError,
    SerializationError,
)

INTERACTION_HEADER = ("user_id", "video_id", "duration_s", "watch_time_s")
TRUTH_HEADER = ("row_index", "m", "f_mean")


def atomic_write_bytes(path: str, data: bytes) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class Reader:
    """Bounds-checked cursor over one binary artifact (WLQS, WLGS, WLMD).

    Each read starts where the last one ended. A read past the end, text
    that is not UTF-8 and bytes left over at end() raise SerializationError
    naming the artifact and the byte offset; fail() builds the same error
    for a value that was read but is out of its domain."""

    def __init__(self, blob: bytes, name: str):
        self.blob, self.name, self.pos, self.start = blob, name, 0, 0

    def fail(self, what: str) -> SerializationError:
        return SerializationError(f"{self.name}: {what} at byte {self.start}")

    def _span(self, n: int) -> int:
        """Offset of the next n bytes, which the cursor then passes."""
        start = self.start = self.pos
        if n > len(self.blob) - start:
            raise self.fail(f"truncated: {n} bytes wanted, {len(self.blob) - start} left")
        self.pos = start + n
        return start

    def raw(self, n: int) -> bytes:
        return self.blob[self._span(n) : self.pos]

    def take(self, fmt: str) -> tuple:
        return struct.unpack_from(fmt, self.blob, self._span(struct.calcsize(fmt)))

    def floats(self, n: int, dtype=np.float64) -> np.ndarray:
        dtype = np.dtype(dtype)
        return np.frombuffer(self.blob, dtype, n, self._span(n * dtype.itemsize)).copy()

    def utf8(self, n: int) -> str:
        try:
            return self.raw(n).decode("utf-8")
        except UnicodeDecodeError as exc:
            self.start += exc.start
            raise self.fail("text is not UTF-8") from None

    def end(self) -> None:
        if self.pos != len(self.blob):
            self.start = self.pos
            raise self.fail(f"{len(self.blob) - self.pos} trailing bytes")


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def _format_real(x: float, decimals: int) -> str:
    return f"{x:.{decimals}f}"


def _read_records(path: str, labeled: bool) -> tuple[InteractionTable, dict[str, np.ndarray]]:
    """Parse a CSV whose first four columns are the interaction fields.

    A labeled file carries label columns after them; empty label cells
    become NaN. The original numeric field text is kept on the table so
    later writers can echo input columns byte for byte."""
    users: list[str] = []
    videos: list[str] = []
    durations: list[float] = []
    watches: list[float] = []
    dur_text: list[str] = []
    watch_text: list[str] = []
    label_text: list[str] = []  # every label cell, row by row
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise EmptyInput(f"{path}: empty file")
        if tuple(header[:4]) != INTERACTION_HEADER or not (labeled or len(header) == 4):
            raise MissingField(
                f"{path}: header must {'start with' if labeled else 'be'} "
                f"{','.join(INTERACTION_HEADER)}, got {','.join(header)}"
            )
        for i, row in enumerate(reader):
            if len(row) != len(header):
                raise MissingField(
                    f"{path} row {i}: expected {len(header)} fields, got {len(row)}"
                )
            try:
                rec = validate_interaction(row[0], row[1], row[2], row[3], i)
            except PipelineError as exc:
                raise type(exc)(f"{path} {exc}") from None
            users.append(rec.user_id)
            videos.append(rec.video_id)
            durations.append(rec.duration_s)
            watches.append(rec.watch_time_s)
            dur_text.append(row[2])
            watch_text.append(row[3])
            label_text.extend(row[4:])
    if not users:
        raise EmptyInput(f"{path}: no data rows")
    table = InteractionTable(
        users,
        videos,
        np.asarray(durations),
        np.asarray(watches),
        duration_text=dur_text,
        watch_text=watch_text,
    )
    columns: dict[str, np.ndarray] = {}
    for j, name in enumerate(header[4:]):
        arr = _label_column(path, name, label_text[j :: len(header) - 4])
        if not np.all(np.isnan(arr)):
            columns[name] = arr
    return table, columns


def _label_column(path: str, name: str, cells: Sequence[str]) -> np.ndarray:
    """A label column of floats. Empty cells, and only they, become NaN;
    every other cell lies in [0, 1], and is 0 or 1 in a binary column."""
    try:
        arr = np.array([float(c) if c else np.nan for c in cells])
    except ValueError:
        for i, cell in enumerate(cells):
            try:
                float(cell or 0)
            except ValueError:
                raise MissingField(
                    f"{path} row {i}: column {name} is not a number: {cell!r}"
                ) from None
        raise
    empty = np.isnan(arr)
    empty[empty] = np.asarray(cells, dtype=object)[empty] == ""  # "nan" is not empty
    binary = name in BINARY_LABELS
    bad = np.flatnonzero(~(empty | (np.isin(arr, (0, 1)) if binary else (arr >= 0) & (arr <= 1))))
    if bad.size:
        raise LabelOutOfRange(
            f"{path} row {bad[0]}: column {name} must lie in "
            f"{'{0, 1}' if binary else '[0, 1]'}, got {cells[bad[0]]!r}"
        )
    return arr


def read_interactions(path: str) -> InteractionTable:
    """Parse and validate an interaction CSV."""
    return _read_records(path, labeled=False)[0]


def _interaction_fields(table: InteractionTable, i: int) -> list[str]:
    if table.duration_text is not None and table.watch_text is not None:
        dur = table.duration_text[i]
        wt = table.watch_text[i]
    else:
        dur = _format_real(table.duration_s[i], 3)
        wt = _format_real(table.watch_time_s[i], 3)
    return [table.user_id[i], table.video_id[i], dur, wt]


def write_interactions(path: str, table: InteractionTable) -> None:
    lines = [",".join(INTERACTION_HEADER)]
    for i in range(table.n):
        lines.append(",".join(_interaction_fields(table, i)))
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_truth(path: str, truth: SyntheticTruth) -> None:
    lines = [",".join(TRUTH_HEADER)]
    for i in range(len(truth.m)):
        lines.append(
            f"{i},{_format_real(truth.m[i], 9)},{_format_real(truth.f_mean[i], 9)}"
        )
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_truth(path: str) -> SyntheticTruth:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != TRUTH_HEADER:
            raise SerializationError(
                f"{path}: expected header {','.join(TRUTH_HEADER)}"
            )
        ms: list[float] = []
        fs: list[float] = []
        for i, row in enumerate(reader):
            if len(row) != 3:
                raise SerializationError(f"{path} row {i}: expected 3 fields")
            try:
                if int(row[0]) != i:
                    raise SerializationError(f"{path} row {i}: row_index out of order")
                ms.append(float(row[1]))
                fs.append(float(row[2]))
            except ValueError:
                raise SerializationError(f"{path} row {i}: not a number in {row!r}") from None
    if not ms:
        raise EmptyInput(f"{path}: no data rows")
    return SyntheticTruth(m=np.asarray(ms), f_mean=np.asarray(fs))


def labeled_header(columns: Mapping[str, np.ndarray]) -> list[str]:
    """Standard label columns always appear; ablation columns appear
    only when they were computed."""
    head = list(INTERACTION_HEADER) + list(STANDARD_LABELS)
    head += [c for c in ABLATION_LABELS if c in columns]
    return head


def write_labeled(
    path: str,
    table: InteractionTable,
    columns: Mapping[str, np.ndarray],
) -> None:
    header = labeled_header(columns)
    label_names = header[len(INTERACTION_HEADER) :]
    cells: list[Optional[list[str]]] = []
    for name in label_names:
        col = columns.get(name)
        if col is None:
            cells.append(None)
            continue
        if name in BINARY_LABELS:
            cells.append([str(int(v)) for v in col])
        else:
            cells.append([_format_real(v, 6) for v in col])
    lines = [",".join(header)]
    for i in range(table.n):
        row = _interaction_fields(table, i)
        for col_cells in cells:
            row.append("" if col_cells is None else col_cells[i])
        lines.append(",".join(row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_labeled(path: str) -> tuple[InteractionTable, dict[str, np.ndarray]]:
    """Labeled CSV back into a table plus float columns.

    Columns that are entirely empty are dropped rather than returned as
    all-NaN. A label cell that is not a number raises MissingField, one
    outside its column's domain LabelOutOfRange."""
    return _read_records(path, labeled=True)


def write_trace(path: str, rows: Iterable[tuple[int, str, float]]) -> None:
    lines = ["epoch,task,loss"]
    for epoch, task, loss in rows:
        lines.append(f"{epoch},{task},{_format_real(loss, 9)}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_report(
    path: str,
    rows: Iterable[tuple[str, float, Optional[int], Optional[int]]],
) -> None:
    lines = ["metric,value,n_evaluated,n_skipped"]
    for metric, value, n_eval, n_skip in rows:
        val = "" if value is None or np.isnan(value) else _format_real(value, 9)
        lines.append(
            f"{metric},{val},"
            f"{'' if n_eval is None else n_eval},"
            f"{'' if n_skip is None else n_skip}"
        )
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_variant_table(
    path: str,
    header: Sequence[str],
    rows: Iterable[Sequence[object]],
) -> None:
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, float):
                cells.append("" if np.isnan(v) else _format_real(v, 6))
            else:
                cells.append(str(v))
        lines.append(",".join(cells))
    atomic_write_text(path, "\n".join(lines) + "\n")


# deterministic train/eval split

_SPLIT_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SPLIT_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_SPLIT_MIX2 = np.uint64(0x94D049BB133111EB)


def split_mask(row_index: np.ndarray, train_frac: float, split_seed: int = 1) -> np.ndarray:
    """True where a record belongs to the training split.

    Each row_index is hashed with the splitmix64 finalizer after XOR
    with the split seed; the hash modulo 10⁴ is compared against the
    training fraction. Membership depends only on row_index and the
    split seed, never on dataset size or ordering."""
    if not 0.0 <= train_frac <= 1.0:
        raise ConfigInvalid(f"train fraction {train_frac} outside [0, 1]")
    with np.errstate(over="ignore"):
        z = np.asarray(row_index).astype(np.uint64) ^ np.uint64(split_seed)
        z = z + _SPLIT_GAMMA
        z = (z ^ (z >> np.uint64(30))) * _SPLIT_MIX1
        z = (z ^ (z >> np.uint64(27))) * _SPLIT_MIX2
        z = z ^ (z >> np.uint64(31))
    threshold = int(round(train_frac * 10000))
    return (z % np.uint64(10000)) < threshold
