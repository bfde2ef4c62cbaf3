"""CSV and binary file handling for the pipeline.

All writers are atomic: content goes to a temp file in the target
directory and is moved into place with os.replace, so readers never
observe a half-written file; a write that fails deletes its temp file and
leaves the target as it was. All text files are UTF-8 with a header row.

CSV reads go a block of rows at a time, so a reader holds one block's
cells beyond what it returns. Readers tokenise with csv.reader (quoted
fields, LF or CRLF line ends) and parse each numeric column of a block to
float64 before the next block is read, through a dict of its distinct
cells when the block's first cells repeat. Only the ids and the
interaction fields' numeric text stay strings. Block columns are checked
whole, and rows re-scanned only to name the first bad one; a label fault
is held to the end, so which fault is raised does not depend on the block
size. CSV writes go a block of rows at a time too, so a writer holds one
block's text beyond its input: each block's cells are built by column,
joined with LF line ends and quoted as csv.writer's default does, encoded
and written. A column of reals is formatted through its distinct values in
the block, and each run of adjacent binary labels is written as one
pre-joined cell per row. Inputs are checked whole before the temp file is
opened.

Formats:
  interactions  user_id,video_id,duration_s,watch_time_s
                (durations finite and > 0, watch times finite and >= 0)
  truth         row_index,m,f_mean            (reals with 9 decimals)
  labeled       interactions + label columns  (reals with 6 decimals,
                binary labels as 0/1, absent labels as empty fields)
  trace         epoch,task,loss
  report        metric,value,n_evaluated,n_skipped
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import os
import struct
import tempfile
from typing import BinaryIO, Callable, Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

from .core import BINARY_LABELS, LABELS, InteractionTable, check_value, validate_interaction
from .datagen import SyntheticTruth
from .errors import (
    EmptyInput,
    LabelOutOfRange,
    MissingField,
    PipelineError,
    SerializationError,
)

INTERACTION_HEADER = ("user_id", "video_id", "duration_s", "watch_time_s")
TRUTH_HEADER = ("row_index", "m", "f_mean")

# rows per CSV write block. A writer holds one block's cells, row strings,
# text and bytes beyond its input: on the 200k-record label_wide set,
# write_labeled's traced peak is 20 MB at this size against 56 MB for the
# whole file, and 5 MB at 16,384 rows. Reals are deduplicated per block, so
# smaller blocks format gen's repeated video durations more often: gen's two
# writers take 221 ms on the whole file, 232 ms here and 240 ms at 16,384.
_BLOCK_ROWS = 65536

# rows per CSV read block. A reader holds one block's cells beyond what it
# returns: read_labeled's traced peak on the 200k-record label_wide output
# is 1.9 MB above its result at this size, against 20 MB at the writers'
# 65,536 rows and 55 MB for the whole file; 2,048 to 65,536 rows read
# equally fast.
_READ_ROWS = 8192

# a numeric column of a read block is parsed through a dict of its distinct
# cells when its first _SAMPLE_CELLS cells hold at most 1/_REPEATS as many
# distinct ones. On 8,192 cells of the reference labeled CSV that takes a
# binary column from 0.6-0.7 ms to 0.45 ms, but playing_rate (8,156
# distinct cells) from 0.9 ms to 2.7 ms; wpr (300 distinct) breaks even.
# Cutoffs from 1/2 to 1/16 of the sample read equally fast.
_SAMPLE_CELLS = 1024
_REPEATS = 8


@contextlib.contextmanager
def _atomic_file(path: str) -> Iterator[BinaryIO]:
    """A binary file in path's directory that replaces path when the block
    ends and is deleted if it raises."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_bytes(path: str, data: bytes) -> None:
    with _atomic_file(path) as fh:
        fh.write(data)


class Reader:
    """Bounds-checked cursor over one binary artifact (WLQS, WLGS, WLMD).

    Each read starts where the last one ended. A read past the end, text
    that is not UTF-8 and bytes left over at end() raise SerializationError
    naming the artifact and the byte offset; fail() builds the same error
    for a value that was read but is out of its domain, at the last read's
    offset unless told another."""

    def __init__(self, blob: bytes, name: str):
        self.blob, self.name, self.pos, self.start = blob, name, 0, 0

    def fail(self, what: str, at: Optional[int] = None) -> SerializationError:
        return SerializationError(f"{self.name}: {what} at byte {self.start if at is None else at}")

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


def _csv_blocks(path: str) -> Iterator:
    """The header of a CSV file (None for an empty file), then (columns,
    fault) for each block of up to _READ_ROWS rows: the block's cells by
    column, and what is wrong with the row after them, which is not as wide
    as the header, not UTF-8 or not CSV (None if no row is). A block with a
    fault is the last, and an unreadable header raises MissingField. The
    list of columns is emptied when the next block is asked for."""
    # done counts the header and the rows yielded, cells the rows since;
    # cells stays empty while width is 0
    header, width, decode, done, cells = None, 0, "strict", 0, []
    while True:  # after a UTF-8 error, again from the first row not yet taken
        try:
            with open(path, "r", encoding="utf-8", errors=decode, newline="") as fh:
                rows = csv.reader(fh)
                if decode != "strict":  # encoding raises at the lone surrogate read for a bad byte
                    rows = (row for row in rows if ",".join(row).encode("utf-8") is not None)
                rows = itertools.islice(rows, done + len(cells) // (width or 1), None)
                if not done:
                    try:
                        header = next(rows, None)
                    except (csv.Error, UnicodeEncodeError) as exc:
                        raise MissingField(f"{path} header: {_fault(exc)}") from None
                    done, width = 1, len(header or ())
                    yield header
                while True:
                    fault = None
                    try:
                        for row in itertools.islice(rows, _READ_ROWS - len(cells) // (width or 1)):
                            if len(row) != width:
                                fault = f"expected {width} fields, got {len(row)}"
                                break
                            cells.extend(row)
                    except (csv.Error, UnicodeEncodeError) as exc:
                        fault = _fault(exc)
                    n = len(cells) // (width or 1)
                    if n or fault is not None:
                        done += n
                        columns = [cells[j::width] for j in range(width)]
                        cells = []
                        yield columns, fault
                        columns.clear()
                    if fault is not None or n < _READ_ROWS:
                        return
        except UnicodeDecodeError:  # raised for a block of text read ahead of its rows
            decode = "surrogateescape"


def _fault(exc: Exception) -> str:
    return "text is not UTF-8" if isinstance(exc, UnicodeEncodeError) else str(exc)


def _floats(cells: list[str], empty: bool = False) -> np.ndarray:
    """Cells as float64; with empty, an empty cell is NaN. When the first
    _SAMPLE_CELLS hold few distinct cells, each distinct cell is parsed once.
    A cell that is not a number raises ValueError."""
    sample = cells[:_SAMPLE_CELLS]
    if len(set(sample)) * _REPEATS <= len(sample):
        parse = (lambda c: float(c or "nan")) if empty else float
        values = map({c: parse(c) for c in set(cells)}.__getitem__, cells)
    else:
        values = map(float, [c or "nan" for c in cells] if empty and "" in cells else cells)
    return np.fromiter(values, np.float64, len(cells))


def _read_records(path: str, labeled: bool) -> tuple[InteractionTable, dict[str, np.ndarray]]:
    """Parse a CSV whose first four columns are the interaction fields.

    A labeled file carries label columns after them; empty label cells
    become NaN. The original numeric field text is kept on the table so
    later writers can echo input columns byte for byte. Of several faults
    the first raised is the header's, then the first bad interaction row's,
    an unreadable row's, a file without rows', then the label columns' in
    header order."""
    with contextlib.closing(_csv_blocks(path)) as blocks:
        header = next(blocks)
        if header is None:
            raise EmptyInput(f"{path}: empty file")
        if tuple(header[:4]) != INTERACTION_HEADER or not (labeled or len(header) == 4):
            raise MissingField(
                f"{path}: header must {'start with' if labeled else 'be'} "
                f"{','.join(INTERACTION_HEADER)}, got {','.join(header)}"
            )
        twice = [name for i, name in enumerate(header) if name in header[:i]]
        if twice:
            raise MissingField(f"{path}: header names column {twice[0]} twice")
        labels = header[4:]
        users, videos, dur_text, watch_text, durations, watches = [], [], [], [], [], []
        parts: dict[str, list[np.ndarray]] = {name: [] for name in labels}
        errors: dict[str, PipelineError] = {}  # the first in each label column
        fault = None
        for cols, fault in blocks:
            row0 = len(users)
            duration, watch = _interaction_block(path, *cols[:4], row0)
            durations.append(duration)
            watches.append(watch)
            for kept, cells in zip((users, videos, dur_text, watch_text), cols):
                kept += cells
            for name, cells in zip(labels, cols[4:]):
                if isinstance(errors.get(name), MissingField):  # a non-number ranks first
                    continue
                try:
                    values, bad = _label_block(path, name, cells, row0)
                except MissingField as exc:
                    errors[name] = exc
                    continue
                parts[name].append(values)
                if bad is not None:
                    errors.setdefault(name, bad)
    if fault is not None:
        raise MissingField(f"{path} row {len(users)}: {fault}")
    if not users:
        raise EmptyInput(f"{path}: no data rows")
    for name in labels:
        if name in errors:
            raise errors[name]
    table = InteractionTable(users, videos, _joined(durations), _joined(watches),
                             duration_text=dur_text, watch_text=watch_text)
    columns: dict[str, np.ndarray] = {}
    for name in labels:
        values = _joined(parts[name])
        if not np.all(np.isnan(values)):
            columns[name] = values
    return table, columns


def _joined(parts: list[np.ndarray]) -> np.ndarray:
    """The blocks of a column as one array; the list is emptied."""
    joined = np.concatenate(parts)
    parts.clear()
    return joined


def _interaction_block(
    path: str, users: list[str], videos: list[str], dur_text: list[str], watch_text: list[str],
    row0: int,
) -> tuple[np.ndarray, np.ndarray]:
    """The durations and watch times of a block of rows from row row0. The
    first bad row raises as validate_interaction does, naming path."""
    valid = all(map(str.strip, users)) and all(map(str.strip, videos))
    try:
        durations, watches = _floats(dur_text), _floats(watch_text)
    except ValueError:
        valid = False
    if not valid or not np.all((durations > 0) & (durations < np.inf)
                               & (watches >= 0) & (watches < np.inf)):
        for i, fields in enumerate(zip(users, videos, dur_text, watch_text), row0):
            try:
                validate_interaction(*fields, i)
            except PipelineError as exc:
                raise type(exc)(f"{path} {exc}") from None
        raise AssertionError("the column checks rejected rows validate_interaction accepts")
    return durations, watches


def _label_block(
    path: str, name: str, cells: list[str], row0: int
) -> tuple[np.ndarray, Optional[LabelOutOfRange]]:
    """A block of a label column from row row0 as floats, NaN for empty
    cells, and the error naming its first other cell outside [0, 1], or
    outside {0, 1} in a binary column (None if there is none). A cell that
    is not a number raises MissingField."""
    try:
        values = _floats(cells, empty=True)
    except ValueError:
        for i, cell in enumerate(cells, row0):
            try:
                float(cell or 0)
            except ValueError:
                msg = f"{path} row {i}: column {name} is not a number: {cell!r}"
                raise MissingField(msg) from None
        raise
    binary = name in BINARY_LABELS
    bad = np.flatnonzero(~((values == 0) | (values == 1) if binary
                           else (values >= 0) & (values <= 1)))
    if bad.size:
        bad = bad[np.asarray(cells, dtype=object)[bad] != ""]
    if not bad.size:
        return values, None
    return values, LabelOutOfRange(
        f"{path} row {row0 + bad[0]}: column {name} must lie in "
        f"{'{0, 1}' if binary else '[0, 1]'}, got {cells[bad[0]]!r}"
    )


def read_interactions(path: str) -> InteractionTable:
    """Parse and validate an interaction CSV."""
    return _read_records(path, labeled=False)[0]


def _text_cells(cells: list[str]) -> list[str]:
    """Text as CSV fields: a cell holding a comma, a double quote or a line
    break is quoted, inner quotes doubled, as csv.writer's default dialect
    does. A column that needs none, as one scan finds, is returned as is."""
    special = lambda text: any(ch in text for ch in ',"\r\n')  # noqa: E731
    if not special("".join(cells)):
        return cells
    return ['"' + c.replace('"', '""') + '"' if special(c) else c for c in cells]


def _real_cells(values: np.ndarray, decimals: int) -> list[str]:
    """Each distinct bit pattern (-0.0 apart from 0.0) formatted once, gathered by row."""
    bits, inverse = np.unique(np.asarray(values, np.float64).view(np.uint64), return_inverse=True)
    text = map(f"{{:.{decimals}f}}".format, bits.view(np.float64).tolist())
    return np.array(list(text), dtype=object)[inverse].tolist()


def _write_blocks(
    path: str, header: Sequence[str], blocks: Iterable[Iterable[Iterable[str]]]
) -> None:
    """The header, then each block's rows of cells, LF-terminated UTF-8."""
    with _atomic_file(path) as fh:
        fh.write(f"{','.join(header)}\n".encode("utf-8"))
        for rows in blocks:
            fh.write("\n".join([*map(",".join, rows), ""]).encode("utf-8"))


def _column_blocks(
    n: int, columns: Callable[[slice], list[list[str]]]
) -> Iterator[Iterator[tuple[str, ...]]]:
    """The rows of each block of n rows, from the columns of cells that
    columns(rows) builds for the block's slice (stop at most n)."""
    return (zip(*columns(slice(lo, min(lo + _BLOCK_ROWS, n)))) for lo in range(0, n, _BLOCK_ROWS))


def _row_blocks(rows: Iterable[Iterable[str]]) -> Iterator[list[Iterable[str]]]:
    """Rows taken _BLOCK_ROWS at a time."""
    rows = iter(rows)
    return iter(lambda: list(itertools.islice(rows, _BLOCK_ROWS)), [])


def _interaction_columns(table: InteractionTable, rows: slice) -> list[list[str]]:
    """Ids and read-in numeric text echoed, other numbers with 3 decimals."""
    if table.duration_text is not None and table.watch_text is not None:
        numbers = [_text_cells(table.duration_text[rows]), _text_cells(table.watch_text[rows])]
    else:
        numbers = [_real_cells(table.duration_s[rows], 3), _real_cells(table.watch_time_s[rows], 3)]
    return [_text_cells(table.user_id[rows]), _text_cells(table.video_id[rows]), *numbers]


def write_interactions(path: str, table: InteractionTable) -> None:
    _write_blocks(path, INTERACTION_HEADER,
                  _column_blocks(table.n, lambda rows: _interaction_columns(table, rows)))


def write_truth(path: str, truth: SyntheticTruth) -> None:
    def columns(rows: slice) -> list[list[str]]:
        index = list(map(str, range(rows.start, rows.stop)))
        return [index, _real_cells(truth.m[rows], 9), _real_cells(truth.f_mean[rows], 9)]

    _write_blocks(path, TRUTH_HEADER, _column_blocks(len(truth.m), columns))


def read_truth(path: str) -> SyntheticTruth:
    with contextlib.closing(_csv_blocks(path)) as blocks:
        header = next(blocks)
        if header is None or tuple(header) != TRUTH_HEADER:
            raise SerializationError(f"{path}: expected header {','.join(TRUTH_HEADER)}")
        ms, fs, n, fault = [], [], 0, None
        for cols, fault in blocks:
            m, f_mean = _truth_block(path, *cols, n)
            ms.append(m)
            fs.append(f_mean)
            n += len(m)
    if fault is not None:
        raise SerializationError(f"{path} row {n}: {fault}")
    if not n:
        raise EmptyInput(f"{path}: no data rows")
    return SyntheticTruth(m=_joined(ms), f_mean=_joined(fs))


def _truth_block(
    path: str, index: list[str], m_text: list[str], f_text: list[str], row0: int
) -> tuple[np.ndarray, np.ndarray]:
    """m and f_mean of a block of truth rows from row row0; the first bad row raises."""
    try:
        m, f_mean = _floats(m_text), _floats(f_text)
        valid = (np.array_equal(np.fromiter(map(int, index), np.int64, len(index)),
                                np.arange(row0, row0 + len(index)))
                 and np.isfinite(m).all() and np.isfinite(f_mean).all())
    except (ValueError, OverflowError):  # an index past int64 is out of order too
        valid = False
    if not valid:
        for i, row in enumerate(zip(index, m_text, f_text), row0):  # name the first bad row
            try:
                if int(row[0]) != i:
                    raise SerializationError(f"{path} row {i}: row_index out of order")
                values = float(row[1]), float(row[2])
            except ValueError:
                raise SerializationError(f"{path} row {i}: not a number in {list(row)!r}") from None
            for name, text, value in zip(TRUTH_HEADER[1:], row[1:], values):
                if not np.isfinite(value):
                    raise SerializationError(f"{path} row {i}: {name} {text!r} is not finite")
        raise AssertionError("the column checks rejected rows the row checks accept")
    return m, f_mean


def labeled_header(columns: Mapping[str, np.ndarray]) -> list[str]:
    """Standard label columns always appear; ablation columns appear
    only when they were computed."""
    labels = [name for name, spec in LABELS.items() if not spec.ablation or name in columns]
    return list(INTERACTION_HEADER) + labels


def _binary_cells(run: Sequence[np.ndarray]) -> list[str]:
    """A run of adjacent binary columns of 0s and 1s as one cell per row: the
    bits, first column highest, index a table of the 2^k joined strings "0,1,…"."""
    code = 0
    for bits in run:
        code = 2 * code + (bits == 1)
    joined = [",".join(cells) for cells in itertools.product("01", repeat=len(run))]
    return np.array(joined, dtype=object)[code].tolist()


def write_labeled(path: str, table: InteractionTable, columns: Mapping[str, np.ndarray]) -> None:
    for name, values in columns.items():
        if len(values) != table.n:
            raise EmptyInput(f"{path}: column {name} holds {len(values)} values for {table.n} rows")
    header = labeled_header(columns)
    present_binary = lambda name: name in BINARY_LABELS and name in columns  # noqa: E731
    for name in filter(present_binary, header):  # before the temp file is opened
        bits = np.asarray(columns[name])
        bad = np.flatnonzero((bits != 0) & (bits != 1))
        if bad.size:  # a stray value would spill into its neighbour's bit
            raise LabelOutOfRange(f"{path} row {bad[0]}: column {name} must lie in {{0, 1}}, "
                                  f"got {bits[bad[0]].item()!r}")
    runs = [(binary, list(run)) for binary, run in
            itertools.groupby(header[len(INTERACTION_HEADER) :], present_binary)]

    def cells(rows: slice) -> list[list[str]]:
        out = _interaction_columns(table, rows)
        for binary, run in runs:
            if binary:
                out.append(_binary_cells([np.asarray(columns[name])[rows] for name in run]))
            else:
                out += ([""] * (rows.stop - rows.start) if name not in columns
                        else _real_cells(np.asarray(columns[name])[rows], 6) for name in run)
        return out

    _write_blocks(path, header, _column_blocks(table.n, cells))


def read_labeled(path: str) -> tuple[InteractionTable, dict[str, np.ndarray]]:
    """Labeled CSV back into a table plus float columns.

    Columns that are entirely empty are dropped rather than returned as
    all-NaN. A label cell that is not a number raises MissingField, one
    outside its column's domain LabelOutOfRange."""
    return _read_records(path, labeled=True)


def write_trace(path: str, rows: Iterable[tuple[int, str, float]]) -> None:
    _write_blocks(path, ("epoch", "task", "loss"), _row_blocks(
        (str(epoch), task, f"{loss:.9f}") for epoch, task, loss in rows))


def write_report(
    path: str, rows: Iterable[tuple[str, float, Optional[int], Optional[int]]]
) -> None:
    _write_blocks(path, ("metric", "value", "n_evaluated", "n_skipped"), _row_blocks(
        (metric, "" if value is None or np.isnan(value) else f"{value:.9f}",
         "" if n_eval is None else str(n_eval), "" if n_skip is None else str(n_skip))
        for metric, value, n_eval, n_skip in rows
    ))


def write_variant_table(path: str, header: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
    def cell(v: object) -> str:
        if isinstance(v, float):
            return "" if np.isnan(v) else f"{v:.6f}"
        return str(v)

    _write_blocks(path, header, _row_blocks(map(cell, row) for row in rows))


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
    check_value("split_frac", train_frac)
    with np.errstate(over="ignore"):
        z = np.asarray(row_index).astype(np.uint64) ^ np.uint64(split_seed)
        z = z + _SPLIT_GAMMA
        z = (z ^ (z >> np.uint64(30))) * _SPLIT_MIX1
        z = (z ^ (z >> np.uint64(27))) * _SPLIT_MIX2
        z = z ^ (z >> np.uint64(31))
    threshold = int(round(train_frac * 10000))
    return (z % np.uint64(10000)) < threshold
