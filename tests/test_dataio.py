"""CSV reading and writing against the row-at-a-time reference code."""

from __future__ import annotations

import csv
import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wtlabel import dataio
from wtlabel.core import (
    ABLATION_LABELS,
    BINARY_LABELS,
    STANDARD_LABELS,
    InteractionTable,
    validate_interaction,
)
from wtlabel.datagen import SyntheticTruth
from wtlabel.dataio import (
    INTERACTION_HEADER,
    TRUTH_HEADER,
    labeled_header,
    read_interactions,
    read_labeled,
    read_truth,
    write_interactions,
    write_labeled,
    write_report,
    write_trace,
    write_truth,
    write_variant_table,
)
from wtlabel.errors import (
    EmptyInput,
    LabelOutOfRange,
    MissingField,
    PipelineError,
    SerializationError,
)

# ------------------------------------------------------------ references


def _reference_records(path: str, labeled: bool):
    """The reader as one row loop: every row through validate_interaction,
    every label cell through float."""
    users, videos, durations, watches, dur_text, watch_text = [], [], [], [], [], []
    label_text = []
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
        for j, name in enumerate(header):
            if name in header[:j]:
                raise MissingField(f"{path}: header names column {name} twice")
        for i, row in enumerate(reader):
            if len(row) != len(header):
                raise MissingField(f"{path} row {i}: expected {len(header)} fields, got {len(row)}")
            try:
                validate_interaction(row[0], row[1], row[2], row[3], i)
            except PipelineError as exc:
                raise type(exc)(f"{path} {exc}") from None
            users.append(row[0])
            videos.append(row[1])
            durations.append(float(row[2]))
            watches.append(float(row[3]))
            dur_text.append(row[2])
            watch_text.append(row[3])
            label_text.extend(row[4:])
    if not users:
        raise EmptyInput(f"{path}: no data rows")
    table = InteractionTable(users, videos, np.asarray(durations), np.asarray(watches),
                             duration_text=dur_text, watch_text=watch_text)
    columns = {}
    for j, name in enumerate(header[4:]):
        cells = label_text[j :: len(header) - 4]
        values = []
        for i, cell in enumerate(cells):  # every cell a number first ...
            try:
                values.append(float(cell) if cell else np.nan)
            except ValueError:
                msg = f"{path} row {i}: column {name} is not a number: {cell!r}"
                raise MissingField(msg) from None
        binary = name in BINARY_LABELS
        for i, (cell, v) in enumerate(zip(cells, values)):  # ... then in its domain
            if cell and not (v in (0.0, 1.0) if binary else 0.0 <= v <= 1.0):
                raise LabelOutOfRange(
                    f"{path} row {i}: column {name} must lie in "
                    f"{'{0, 1}' if binary else '[0, 1]'}, got {cell!r}"
                )
        if any(cells):
            columns[name] = np.asarray(values)
    return table, columns


def _reference_truth(path: str) -> SyntheticTruth:
    """The truth reader as one row loop (a short or long row is named with
    the width found, as in the interaction reader); m and f_mean must be finite."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != TRUTH_HEADER:
            raise SerializationError(f"{path}: expected header {','.join(TRUTH_HEADER)}")
        ms, fs = [], []
        for i, row in enumerate(reader):
            if len(row) != 3:
                raise SerializationError(f"{path} row {i}: expected 3 fields, got {len(row)}")
            try:
                if int(row[0]) != i:
                    raise SerializationError(f"{path} row {i}: row_index out of order")
                ms.append(float(row[1]))
                fs.append(float(row[2]))
            except ValueError:
                raise SerializationError(f"{path} row {i}: not a number in {row!r}") from None
            for name, text, value in (("m", row[1], ms[-1]), ("f_mean", row[2], fs[-1])):
                if not math.isfinite(value):
                    raise SerializationError(f"{path} row {i}: {name} {text!r} is not finite")
    if not ms:
        raise EmptyInput(f"{path}: no data rows")
    return SyntheticTruth(m=np.asarray(ms), f_mean=np.asarray(fs))


def _csv_line(cells) -> str:
    """One row as csv.writer's default dialect writes it, LF-terminated."""
    buf = io.StringIO()
    csv.writer(buf).writerow(cells)
    return buf.getvalue()[:-2] + "\n"


def _outcome(read, path):
    try:
        return read(path)
    except PipelineError as exc:
        return type(exc), str(exc)


def _same_float(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_same_table(got: InteractionTable, want: InteractionTable):
    assert got.user_id == want.user_id and got.video_id == want.video_id
    assert type(got.user_id) is list and type(got.video_id) is list
    assert _same_float(got.duration_s, want.duration_s)
    assert _same_float(got.watch_time_s, want.watch_time_s)
    assert np.array_equal(got.row_index, want.row_index)
    assert got.duration_text == want.duration_text and got.watch_text == want.watch_text


def _assert_same_outcome(got, want):
    if isinstance(want, tuple) and isinstance(want[0], type):
        assert got == want
    elif isinstance(want, InteractionTable):
        _assert_same_table(got, want)
    elif isinstance(want, SyntheticTruth):
        assert _same_float(got.m, want.m) and _same_float(got.f_mean, want.f_mean)
    else:
        _assert_same_table(got[0], want[0])
        assert list(got[1]) == list(want[1])
        for name in want[1]:
            assert _same_float(got[1][name], want[1][name]), name


# ------------------------------------------------------------ generators

IDS = st.sampled_from(["u1", "u2", "v10", "a b", " x", "x,y", 'q"', "é", "line\nbreak", "cr\rx"])
DURATIONS = st.sampled_from(["60.0", "15.5", "1_000", " 7 ", "2e1", "0.001", "240"])
WATCHES = st.sampled_from(["0", "30.0", "0.0", "12.5", "1e3", " 3 "])
BINARY_CELLS = st.sampled_from(["0", "1", "1.0", ""])
REAL_CELLS = st.sampled_from(["0.000000", "0.5", "1", "", "0.25"])
DAMAGE = st.sampled_from(["", " ", "abc", "0", "-1", "-0.0", "nan", "inf", "-inf",
                          "1e400", "2", "0.5", "-0.1", "1", "x,y"])


@st.composite
def csv_files(draw, labeled: bool):
    """(header, rows) of an interaction or labeled CSV, with at most one
    damaged row or header and up to two damaged cells."""
    labels = draw(st.lists(st.sampled_from(STANDARD_LABELS), unique=True, max_size=4 * labeled))
    header = list(INTERACTION_HEADER) + labels
    rows = [
        [draw(IDS), draw(IDS), draw(DURATIONS), draw(WATCHES)]
        + [draw(BINARY_CELLS if name in BINARY_LABELS else REAL_CELLS) for name in labels]
        for _ in range(draw(st.integers(0, 6)))
    ]
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        row[draw(st.integers(0, len(row) - 1))] = draw(DAMAGE)
    damage = draw(st.sampled_from(["none", "short", "long", "blank", "header", "twice"]))
    if damage == "header":
        header[draw(st.integers(0, len(header) - 1))] = "other"
    elif damage == "twice":  # a column named a second time, with cells of its own
        header.append(header[draw(st.integers(0, len(header) - 1))])
        for row in rows:
            row.append("0")
    elif damage == "blank":
        rows.insert(draw(st.integers(0, len(rows))), [])
    elif rows and damage != "none":
        row = rows[draw(st.integers(0, len(rows) - 1))]
        if damage == "short":
            del row[draw(st.integers(0, len(row) - 1))]
        else:
            row.append(draw(DAMAGE))
    return header, rows


def _write_csv(path, header, rows, terminator="\n"):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator=terminator).writerows([header, *rows])


# ------------------------------------------------------------ readers

# rows per block in the reader and writer tests, so that files of up to 6
# rows cross block boundaries
BLOCK_ROWS = st.sampled_from([1, 2, 3])


def _read_in_blocks(read, path, block_rows):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataio, "_READ_ROWS", block_rows)
        return _outcome(read, path)


@settings(deadline=None, max_examples=300)
@given(csv_files(labeled=False), st.sampled_from(["\n", "\r\n"]), BLOCK_ROWS)
def test_read_interactions_matches_row_loop(tmp_path_factory, file, terminator, block_rows):
    path = str(tmp_path_factory.mktemp("csv") / "in.csv")
    _write_csv(path, *file, terminator)
    want = _outcome(lambda p: _reference_records(p, labeled=False)[0], path)
    _assert_same_outcome(_read_in_blocks(read_interactions, path, block_rows), want)


@settings(deadline=None, max_examples=300)
@given(csv_files(labeled=True), st.sampled_from(["\n", "\r\n"]), BLOCK_ROWS)
def test_read_labeled_matches_row_loop(tmp_path_factory, file, terminator, block_rows):
    path = str(tmp_path_factory.mktemp("csv") / "in.csv")
    _write_csv(path, *file, terminator)
    want = _outcome(lambda p: _reference_records(p, labeled=True), path)
    _assert_same_outcome(_read_in_blocks(read_labeled, path, block_rows), want)


# label cells that repeat: each binary column holds two or three distinct
# cells and each real one a few, so their blocks are parsed through a dict
# of distinct cells; playing_rate and the watch times stay nearly distinct
# and are parsed cell by cell
REPEATED_CELLS = {"binary": ["0", "1", "1.0", ""], "real": ["0.250000", "0.5", "1", "0", ""]}


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2**32 - 1), st.lists(st.tuples(st.integers(0, 2999), st.integers(0, 14),
                                                     DAMAGE), min_size=1, max_size=2),
       st.sampled_from([700, 1024, 8192]))
def test_read_labeled_matches_row_loop_on_repeated_cells(tmp_path_factory, seed, damage,
                                                         block_rows):
    rng = np.random.default_rng(seed)
    n = 3000
    header = list(INTERACTION_HEADER) + list(STANDARD_LABELS)
    cols = [[f"u{i // 200}" for i in range(n)], [f"v{v}" for v in rng.integers(0, 50, n)],
            [f"{d:.3f}" for d in rng.choice([15.5, 60.0, 240.0], n)],
            [f"{w:.3f}" for w in rng.uniform(0, 300, n)]]
    for name in STANDARD_LABELS:
        if name == "playing_rate":
            cols.append([f"{v:.6f}" for v in rng.random(n)])
            continue
        pool = REPEATED_CELLS["binary" if name in BINARY_LABELS else "real"]
        # mostly the first two cells, so a sample of the first rows sees few
        cols.append(list(rng.choice(pool, n, p=[0.48, 0.48] + [0.04 / (len(pool) - 2)] *
                                    (len(pool) - 2))))
    cols[header.index("ev_v")] = [""] * n  # an absent column is dropped
    rows = [list(row) for row in zip(*cols)]
    for row, col, cell in damage:
        rows[row][col] = cell
    path = str(tmp_path_factory.mktemp("csv") / "in.csv")
    _write_csv(path, header, rows)
    want = _outcome(lambda p: _reference_records(p, labeled=True), path)
    _assert_same_outcome(_read_in_blocks(read_labeled, path, block_rows), want)


@pytest.mark.parametrize("cells, ragged, want", [
    ({(1, "ev"): "2", (5, "ev"): "x"}, None, "row 5: column ev is not a number"),
    ({(0, "ev"): "x", (5, "wpr"): "2"}, None, "row 5: column wpr must lie in"),
    ({(1, "ev"): "2", (4, "ev"): "0.5"}, None, "row 1: column ev must lie in"),
    ({(0, "ev"): "x", (5, "watch_time_s"): "-1"}, None, "row 5: watch_time_s=-1.0"),
    ({(0, "wpr"): "2"}, 5, "row 5: expected 6 fields, got 5"),
    ({(5, "duration_s"): "0"}, 3, "row 3: expected 6 fields, got 5"),
    ({(3, "user_id"): ""}, 5, "row 3: field user_id is missing"),
], ids=["non_number_outranks_range", "header_order", "first_row_in_column",
        "interaction_outranks_label", "fault_outranks_label", "fault_before_interaction",
        "interaction_before_fault"])
def test_read_labeled_ranks_faults_across_blocks(tmp_path, monkeypatch, cells, ragged, want):
    monkeypatch.setattr(dataio, "_READ_ROWS", 2)
    header = list(INTERACTION_HEADER) + ["wpr", "ev"]
    rows = [[f"u{i}", f"v{i}", "60", "30", "0.5", "1"] for i in range(7)]
    for (i, name), cell in cells.items():
        rows[i][header.index(name)] = cell
    if ragged is not None:
        del rows[ragged][-1]
    path = str(tmp_path / "l.csv")
    _write_csv(path, header, rows)
    got = _outcome(read_labeled, path)
    assert got == _outcome(lambda p: _reference_records(p, labeled=True), path)
    assert want in got[1]


TRUTH_CELLS = st.sampled_from(["0.5", "-1.25", "1e-3", " 2 ", "nan", "inf", "x", ""])


@settings(deadline=None, max_examples=200)
@given(st.integers(0, 5).flatmap(lambda n: st.tuples(
    st.lists(st.tuples(TRUTH_CELLS, TRUTH_CELLS), min_size=n, max_size=n),
    st.sampled_from(["none", "index", "short", "long", "header"]),
    st.integers(0, max(n - 1, 0)),
)), BLOCK_ROWS)
def test_read_truth_matches_row_loop(tmp_path_factory, case, block_rows):
    cells, damage, at = case
    header = list(TRUTH_HEADER)
    rows = [[str(i), m, f] for i, (m, f) in enumerate(cells)]
    if damage == "header":
        header[0] = "row"
    elif rows and damage == "index":
        rows[at][0] = str(at + 1) if at % 2 else "one"
    elif rows and damage == "short":
        del rows[at][-1]
    elif rows and damage == "long":
        rows[at].append("0")
    path = str(tmp_path_factory.mktemp("csv") / "truth.csv")
    _write_csv(path, header, rows)
    _assert_same_outcome(_read_in_blocks(read_truth, path, block_rows),
                         _outcome(_reference_truth, path))


# ------------------------------------------------------------ writers


def _table(users, videos, durations, watches, with_text):
    text = (lambda xs: [f"{x:g}" for x in xs]) if with_text else (lambda xs: None)
    return InteractionTable(list(users), list(videos), np.asarray(durations, float),
                            np.asarray(watches, float),
                            duration_text=text(durations), watch_text=text(watches))


# small pools that give columns few distinct values: 0.0 beside -0.0, and
# pairs that print alike (0.0021/0.0024 at 3 decimals, 0.1234561/0.1234564
# at 6, 0.5/0.5 + 1e-12 at 9)
DURATION_POOL = [60.0, 15.5, 0.0021, 0.0024, 240.0]
WATCH_POOL = [0.0, -0.0, 30.0, 0.0021, 0.0024]
LABEL_POOL = [0.0, -0.0, 0.25, 1.0, 0.1234561, 0.1234564]
TRUTH_POOL = [0.0, -0.0, -2.25, 0.5, 0.5 + 1e-12]


def _pooled(lo: float, hi: float, pool: list[float]):
    return st.one_of(st.floats(lo, hi), st.sampled_from(pool))


@settings(deadline=None, max_examples=150)
@given(st.data(), st.booleans(), BLOCK_ROWS)
def test_writers_match_csv_writer(tmp_path_factory, data, with_text, block_rows):
    n = data.draw(st.integers(0, 6))
    draw_rows = lambda cells: data.draw(st.lists(cells, min_size=n, max_size=n))  # noqa: E731
    users, videos = draw_rows(IDS), draw_rows(IDS)
    durations = draw_rows(_pooled(0.001, 1e4, DURATION_POOL))
    watches = draw_rows(_pooled(0.0, 1e4, WATCH_POOL))
    names = [*STANDARD_LABELS, *data.draw(st.lists(st.sampled_from(ABLATION_LABELS), unique=True))]
    absent = data.draw(st.sampled_from([None, *names]))  # a binary one splits the binary run
    columns = {
        name: np.asarray(draw_rows(st.sampled_from([0.0, -0.0, 1.0]) if name in BINARY_LABELS
                                   else _pooled(0.0, 1.0, LABEL_POOL)), float)
        for name in names if name != absent
    }
    table = _table(users, videos, durations, watches, with_text)
    root = tmp_path_factory.mktemp("out")

    def fields(i):
        if with_text:
            return [users[i], videos[i], table.duration_text[i], table.watch_text[i]]
        return [users[i], videos[i], f"{durations[i]:.3f}", f"{watches[i]:.3f}"]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataio, "_BLOCK_ROWS", block_rows)
        write_interactions(str(root / "i.csv"), table)
        write_labeled(str(root / "l.csv"), table, columns)
    want = _csv_line(INTERACTION_HEADER) + "".join(_csv_line(fields(i)) for i in range(table.n))
    assert (root / "i.csv").read_bytes() == want.encode()

    header = labeled_header(columns)
    want = _csv_line(header) + "".join(
        _csv_line(fields(i) + [
            "" if name not in columns
            else str(int(columns[name][i])) if name in BINARY_LABELS
            else f"{columns[name][i]:.6f}"
            for name in header[4:]
        ])
        for i in range(table.n)
    )
    assert (root / "l.csv").read_bytes() == want.encode()
    if table.n:
        got_table, got_columns = read_labeled(str(root / "l.csv"))
        assert got_table.user_id == list(users) and got_table.video_id == list(videos)
        assert set(got_columns) == set(columns)
        for name in set(columns) & set(BINARY_LABELS):
            assert np.array_equal(got_columns[name], columns[name])


@pytest.mark.parametrize("column, values, row, got", [
    ("ev", [-1.0, 0.5, 1.0], 0, "-1.0"),
    ("ev", [0.0, 1.0, 0.5], 2, "0.5"),
    ("lv_u", [0.0, np.nan, 1.0], 1, "nan"),
    ("lv_u", [1.0, 0.0, 2.0], 2, "2.0"),
])
def test_write_labeled_rejects_a_binary_value_outside_0_1(tmp_path, column, values, row, got):
    table = _table(["u1", "u2", "u3"], ["v1", "v2", "v3"], [60.0] * 3, [30.0] * 3, False)
    columns = {"ev": np.asarray([1.0, 0.0, 1.0]), column: np.asarray(values)}
    path = tmp_path / "l.csv"
    want = rf"l\.csv row {row}: column {column} must lie in \{{0, 1\}}, got {got}$"
    with pytest.raises(LabelOutOfRange, match=want):
        write_labeled(str(path), table, columns)
    assert not path.exists()


@pytest.mark.parametrize("columns, name, size", [
    ({"wpr": [0.5, 1.0]}, "wpr", 2),
    ({"ev": [1.0, 0.0, 1.0], "ev_d": [0.0, 1.0]}, "ev_d", 2),
    ({"ev": [1.0, 0.0, 1.0, 0.0]}, "ev", 4),
], ids=["short_real", "unequal_binary", "long_binary"])
def test_write_labeled_rejects_a_column_of_the_wrong_length(tmp_path, columns, name, size):
    table = _table(["u1", "u2", "u3"], ["v1", "v2", "v3"], [60.0] * 3, [30.0] * 3, False)
    path = tmp_path / "l.csv"
    with pytest.raises(EmptyInput, match=rf"l\.csv: column {name} holds {size} values for 3 rows$"):
        write_labeled(str(path), table, {k: np.asarray(v) for k, v in columns.items()})
    assert not path.exists()


@pytest.mark.parametrize("value", [np.nan, np.inf, -0.5, 1.5])
def test_write_labeled_rejects_a_real_value_outside_0_1(tmp_path, value):
    # a real label the writer passed on would be refused by read_labeled
    table = _table(["u1", "u2", "u3"], ["v1", "v2", "v3"], [60.0] * 3, [30.0] * 3, False)
    columns = {"ev": np.asarray([1.0, 0.0, 1.0]), "wpr": np.asarray([0.5, value, -0.0])}
    path = tmp_path / "l.csv"
    want = rf"l\.csv row 1: column wpr must lie in \[0, 1\], got {value!r}$"
    with pytest.raises(LabelOutOfRange, match=want):
        write_labeled(str(path), table, columns)
    assert not list(tmp_path.iterdir())


# ------------------------------------------------------------ real formatting

DECIMALS = st.sampled_from([0, 3, 6, 9, 15])


def _fixed_text(values, decimals: int) -> list[str]:
    """dataio._fixed's rows as text, with a check that they are right-aligned."""
    rows = [bytes(row).lstrip(b"\0") for row in dataio._fixed(np.asarray(values, float), decimals)]
    assert not any(b"\0" in row for row in rows)
    return [row.decode("ascii") for row in rows]


def _near_limit(decimals: int) -> list[float]:
    """The floats around 2^52 / 10^decimals, where the formatter hands over to format."""
    limit = 2.0**52 / 10.0**decimals
    down, up = np.nextafter(limit, 0.0), np.nextafter(limit, np.inf)
    return [float(x) for x in (np.nextafter(down, 0.0), down, limit, up, np.nextafter(up, np.inf))]


@settings(max_examples=300)
@given(st.lists(st.integers(0, 2**64 - 1), max_size=20), DECIMALS)
def test_fixed_matches_format_on_any_bit_pattern(bits, decimals):
    values = np.asarray(bits, np.uint64).view(np.float64)
    assert _fixed_text(values, decimals) == [format(v, f".{decimals}f") for v in values.tolist()]


@settings(max_examples=300)
@given(st.lists(st.floats(allow_subnormal=True) | st.floats(-1e-300, 1e-300), max_size=20),
       DECIMALS)
def test_fixed_matches_format_on_floats(values, decimals):
    assert _fixed_text(values, decimals) == [format(v, f".{decimals}f") for v in values]


@pytest.mark.parametrize("value, decimals, text", [
    (2.5, 0, "2"), (3.5, 0, "4"), (-2.5, 0, "-2"),
    (0.0625, 3, "0.062"), (0.1875, 3, "0.188"),
    (0.0078125, 6, "0.007812"), (0.0009765625, 9, "0.000976562"),
])
def test_fixed_breaks_an_exact_tie_to_even(value, decimals, text):
    assert _fixed_text([value], decimals) == [text] == [format(value, f".{decimals}f")]


@pytest.mark.parametrize("decimals", [0, 3, 6, 9, 15])
def test_fixed_matches_format_at_its_edges(decimals):
    values = [*_near_limit(decimals), *(-x for x in _near_limit(decimals)), 1e308, -1e308,
              0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, np.nan, -np.nan, np.inf, -np.inf,
              0.5 / 10**decimals, 1.5 / 10**decimals, 2**52 - 0.5, 2.0**53]
    assert _fixed_text(values, decimals) == [format(v, f".{decimals}f") for v in values]
    assert _fixed_text([], decimals) == []


@pytest.mark.parametrize("decimals", [0, 3, 6, 9, 15])
def test_fixed_matches_format_at_decimal_midpoints_and_their_neighbours(decimals):
    # each p here lies within a spacing of a half-integer, so format takes it
    limit = 2**52 // 10**decimals
    k = np.concatenate([np.arange(1000), np.random.default_rng(decimals).integers(0, limit, 1000)])
    mid = (k + 0.5) / 10.0**decimals
    values = np.concatenate([mid, np.nextafter(mid, 0.0), np.nextafter(mid, np.inf)])
    values = np.concatenate([values, -values])
    assert _fixed_text(values, decimals) == [format(v, f".{decimals}f") for v in values.tolist()]


@pytest.mark.parametrize("block_rows", [1, 2, 3])
def test_writers_match_format_at_the_fallback_edges(tmp_path, monkeypatch, block_rows):
    monkeypatch.setattr(dataio, "_BLOCK_ROWS", block_rows)
    tiny = [5e-324, 2.2250738585072014e-308]  # the least subnormal and normal floats
    m = [-0.0, *tiny, *_near_limit(9), 1e308, -1e308, -1.5e-9]
    f_mean = m[::-1]
    path = tmp_path / "truth.csv"
    write_truth(str(path), SyntheticTruth(m=np.asarray(m), f_mean=np.asarray(f_mean)))
    assert path.read_text() == "row_index,m,f_mean\n" + "".join(
        f"{i},{a:.9f},{b:.9f}\n" for i, (a, b) in enumerate(zip(m, f_mean)))
    durations = [*tiny, *_near_limit(3), 1e308, 0.0005, 0.0015]
    watches = [-0.0, *tiny, *_near_limit(3), 1e308, 0.0025]
    n = len(durations)
    table = _table([f"u{i}" for i in range(n)], ["v"] * n, durations, watches, False)
    write_interactions(str(tmp_path / "i.csv"), table)
    assert (tmp_path / "i.csv").read_text() == ",".join(INTERACTION_HEADER) + "\n" + "".join(
        f"u{i},v,{d:.3f},{w:.3f}\n" for i, (d, w) in enumerate(zip(durations, watches)))


@settings(deadline=None, max_examples=60)
@given(st.lists(st.tuples(_pooled(-1e6, 1e6, TRUTH_POOL), _pooled(0.0, 1.0, TRUTH_POOL)),
                max_size=6), BLOCK_ROWS)
def test_write_truth_matches_row_loop(tmp_path_factory, values, block_rows):
    truth = SyntheticTruth(m=np.asarray([m for m, _ in values], float),
                           f_mean=np.asarray([f for _, f in values], float))
    path = tmp_path_factory.mktemp("out") / "truth.csv"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataio, "_BLOCK_ROWS", block_rows)
        write_truth(str(path), truth)
    want = ",".join(TRUTH_HEADER) + "\n" + "".join(
        f"{i},{m:.9f},{f:.9f}\n" for i, (m, f) in enumerate(values))
    assert path.read_text() == want


def test_read_truth_names_the_first_unreadable_row(tmp_path):
    path = tmp_path / "truth.csv"
    rows = [b"row_index,m,f_mean"] + [f"{i},0.5,1.5".encode() for i in range(5000)]
    rows[4001] = b"4000,0.5,\xff"
    path.write_bytes(b"".join(row + b"\n" for row in rows))
    with pytest.raises(SerializationError, match=r"truth\.csv row 4000: text is not UTF-8$"):
        read_truth(str(path))
    rows[3] = b"2,x,1.5"
    path.write_bytes(b"".join(row + b"\n" for row in rows))
    with pytest.raises(SerializationError, match=r"truth\.csv row 2: not a number in \['2', 'x'"):
        read_truth(str(path))


# rows longer than the reader's text chunk, so the reader decodes a row
# only when it reaches it, and a bad byte past the first block sends it back
# to the file after a block was yielded
PAD = "0" * 9000
READERS = {"interactions": (read_interactions, MissingField),
           "labeled": (read_labeled, MissingField),
           "truth": (read_truth, SerializationError)}


def _long_rows(path, reader, n, bad, fault=None):
    """n rows of about 9 kB for reader, with a non-UTF-8 byte ending row bad;
    fault is ("ragged" or "field", row) for one more fault."""
    if reader == "truth":
        header, rows = "row_index,m,f_mean", [[str(i), PAD + "0.5", "1.5"] for i in range(n)]
    else:
        header = ",".join(INTERACTION_HEADER) + (",wpr,ev" if reader == "labeled" else "")
        tail = ["0.5", "1"] if reader == "labeled" else []
        rows = [[f"u{i}", "v" + PAD, "60", "30", *tail] for i in range(n)]
    if fault is not None:
        kind, at = fault
        if kind == "ragged":
            del rows[at][-1]
        else:  # m for truth, duration_s for the others
            rows[at][1 if reader == "truth" else 2] = "x" if reader == "truth" else "0"
    lines = [(",".join(row)).encode() + (b"\xff" if i == bad else b"")
             for i, row in enumerate(rows)]
    path.write_bytes(b"\n".join([header.encode(), *lines]) + b"\n")
    return str(path)


@pytest.mark.parametrize("block_rows", [2, 3])
@pytest.mark.parametrize("bad", [2, 3, 5, 7])
@pytest.mark.parametrize("reader", READERS)
def test_readers_name_a_bad_byte_after_a_yielded_block(tmp_path, monkeypatch, reader, bad,
                                                       block_rows):
    monkeypatch.setattr(dataio, "_READ_ROWS", block_rows)
    read, error = READERS[reader]
    with pytest.raises(error, match=rf"row {bad}: text is not UTF-8$"):
        read(_long_rows(tmp_path / "f.csv", reader, 8, bad))


@pytest.mark.parametrize("block_rows", [2, 3])
@pytest.mark.parametrize("fault", [("ragged", 4), ("field", 4), ("ragged", 6), ("field", 6)])
@pytest.mark.parametrize("reader", READERS)
def test_readers_rank_a_bad_byte_among_other_faults(tmp_path, monkeypatch, reader, fault,
                                                     block_rows):
    monkeypatch.setattr(dataio, "_READ_ROWS", block_rows)
    path = _long_rows(tmp_path / "f.csv", reader, 8, 5, fault)
    got = _outcome(READERS[reader][0], path)
    if fault[1] < 5:  # a fault before the bad byte is named first
        assert f"row {fault[1]}: " in got[1] and "UTF-8" not in got[1]
    else:  # and one after it is never reached
        assert got == (READERS[reader][1], f"{path} row 5: text is not UTF-8")


NON_FINITE = [(col, cell) for col in ("m", "f_mean") for cell in ("nan", "inf", "-inf", "1e400")]


@pytest.mark.parametrize("column, cell", NON_FINITE,  # the m cases keep their ids
                         ids=[c if col == "m" else f"{col}-{c}" for col, c in NON_FINITE])
def test_read_truth_rejects_a_non_finite_m(tmp_path, column, cell):
    path = tmp_path / "truth.csv"
    rows = ["row_index,m,f_mean"] + [f"{i},0.5,1.5" for i in range(5)]
    rows[3] = f"2,{cell},1.5" if column == "m" else f"2,0.5,{cell}"
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(SerializationError,
                       match=rf"truth\.csv row 2: {column} '{cell}' is not finite$"):
        read_truth(str(path))


def test_read_truth_index_past_int64_is_out_of_order(tmp_path):
    path = tmp_path / "truth.csv"
    path.write_text("row_index,m,f_mean\n0,0.5,1.5\n99999999999999999999,0.5,1.5\n")
    with pytest.raises(SerializationError, match=r"truth\.csv row 1: row_index out of order$"):
        read_truth(str(path))


def test_read_labeled_rejects_a_column_named_twice(tmp_path):
    # a second, all-zero ev column would otherwise replace the first
    path = tmp_path / "labeled.csv"
    rows = [list(INTERACTION_HEADER) + ["ev", "wpr", "ev"]]
    rows += [[f"u{i}", f"v{i}", "60", str(i), str(i % 2), "0.5", "0"] for i in range(4)]
    _write_csv(str(path), rows[0], rows[1:])
    with pytest.raises(MissingField, match=r"labeled\.csv: header names column ev twice$"):
        read_labeled(str(path))


# ------------------------------------------------------------ write blocks


def _labeled_input(n: int, seed: int = 0):
    """A table of n records read in from text, with every standard label column."""
    rng = np.random.default_rng(seed)
    table = _table([f"u{i % 97}" for i in range(n)], [f"v{i % 1009}" for i in range(n)],
                   rng.uniform(1, 300, n).round(1), rng.uniform(0, 300, n).round(1), True)
    columns = {name: (rng.random(n) < 0.5).astype(float) if name in BINARY_LABELS
               else rng.random(n) for name in STANDARD_LABELS}
    return table, columns


@pytest.mark.parametrize("first, first_row, second, second_row", [
    ("ev", 5, "lv_u", 0),   # the header's earlier column is bad only in the last block
    ("ev_d", 4, "lv", 1),
    ("ev", 2, "ev_u", 5),
], ids=["later_block_first", "later_block_run", "both_later"])
def test_write_labeled_names_the_first_bad_binary_column_across_blocks(
        tmp_path, monkeypatch, first, first_row, second, second_row):
    monkeypatch.setattr(dataio, "_BLOCK_ROWS", 2)
    table, columns = _labeled_input(6)
    columns[first][[first_row, 5]] = 0.5
    columns[second][second_row] = 2.0
    path = tmp_path / "l.csv"
    want = rf"l\.csv row {first_row}: column {first} must lie in \{{0, 1\}}, got 0\.5$"
    with pytest.raises(LabelOutOfRange, match=want):
        write_labeled(str(path), table, columns)
    assert not path.exists() and not list(tmp_path.iterdir())


@pytest.mark.parametrize("writer", ["labeled", "truth"])
def test_a_write_failing_in_a_later_block_leaves_the_target_unchanged(
        tmp_path, monkeypatch, writer):
    monkeypatch.setattr(dataio, "_BLOCK_ROWS", 2)
    table, columns = _labeled_input(5)
    truth = SyntheticTruth(m=np.linspace(0, 1, 5), f_mean=np.linspace(1, 2, 5))
    # truth formats its row index, m and f_mean; labeled each real column
    per_block = 3 if writer == "truth" else sum(n not in BINARY_LABELS for n in columns)
    fixed, calls = dataio._fixed, []

    def failing(values, decimals):  # after the first block's columns
        calls.append(len(values))
        if len(calls) > per_block:
            assert len(list(tmp_path.glob(".tmp-*~"))) == 1
            raise RuntimeError("disk gone")
        return fixed(values, decimals)

    monkeypatch.setattr(dataio, "_fixed", failing)
    path = tmp_path / "out.csv"
    path.write_bytes(b"before\n")
    with pytest.raises(RuntimeError, match="disk gone"):
        if writer == "truth":
            write_truth(str(path), truth)
        else:
            write_labeled(str(path), table, columns)
    assert calls[:per_block] == [2] * per_block
    assert path.read_bytes() == b"before\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]


def test_write_labeled_holds_one_block_beyond_its_input(tmp_path, monkeypatch):
    # the extra traced peak of a 16-block write stays within a bound that
    # is one block's size plus a constant, not the file's size
    block_rows = 2048
    monkeypatch.setattr(dataio, "_BLOCK_ROWS", block_rows)
    table, columns = _labeled_input(16 * block_rows)
    path = tmp_path / "l.csv"
    write_labeled(str(path), table, columns)
    block_bytes = path.stat().st_size / 16
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        write_labeled(str(path), table, columns)
        extra = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert extra < 1e6 + 16 * block_bytes, (extra, block_bytes)


@pytest.mark.parametrize("reader", ["labeled", "truth"])
def test_readers_hold_one_block_beyond_their_result(tmp_path, monkeypatch, reader):
    # the traced peak of a 16-block read, above what the read returns, stays
    # within a bound that is one block's text plus a constant, not the file's
    block_rows = 2048
    monkeypatch.setattr(dataio, "_READ_ROWS", block_rows)
    path = tmp_path / "in.csv"
    if reader == "labeled":
        write_labeled(str(path), *_labeled_input(16 * block_rows))
        read = read_labeled
    else:
        rng = np.random.default_rng(3)
        write_truth(str(path), SyntheticTruth(m=rng.normal(size=16 * block_rows),
                                              f_mean=rng.random(16 * block_rows)))
        read = read_truth
    block_bytes = path.stat().st_size / 16
    tracemalloc.start()
    try:
        result = read(str(path))  # still referenced, so held counts it
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result and peak - held < 1e6 + 16 * block_bytes, (peak - held, block_bytes)


@pytest.mark.parametrize("block_rows", [1, 2, 3])
@pytest.mark.parametrize("n", [0, 1, 4])
def test_row_writers_write_every_block(tmp_path, monkeypatch, block_rows, n):
    monkeypatch.setattr(dataio, "_BLOCK_ROWS", block_rows)
    trace = [(i // 2 + 1, "ev" if i % 2 else "wpr_d", 0.1 * i) for i in range(n)]
    write_trace(str(tmp_path / "trace.csv"), iter(trace))
    assert (tmp_path / "trace.csv").read_text() == "epoch,task,loss\n" + "".join(
        f"{epoch},{task},{loss:.9f}\n" for epoch, task, loss in trace)
    report = [(f"m{i}", [0.5, None, np.nan][i % 3], [7, None][i % 2], [None, 0][i % 2])
              for i in range(n)]
    write_report(str(tmp_path / "report.csv"), report)
    header = "metric,value,n_evaluated,n_skipped\n"
    assert (tmp_path / "report.csv").read_text() == header + "".join(
        f"{name},{'' if value is None or value != value else f'{value:.9f}'},"
        f"{'' if n_eval is None else n_eval},{'' if n_skip is None else n_skip}\n"
        for name, value, n_eval, n_skip in report)
    rows = [(f"r{i}", i, 0.25 * i, [np.nan, None][i % 2]) for i in range(n)]
    write_variant_table(str(tmp_path / "table.csv"), ("name", "k", "x", "y"), rows)
    assert (tmp_path / "table.csv").read_text() == "name,k,x,y\n" + "".join(
        f"r{i},{i},{0.25 * i:.6f},\n" for i in range(n))
