import filecmp
import gc
import hashlib
import itertools
import math
import os
import random
import stat
import sys
import threading
import tracemalloc
import warnings

import pytest
from reference import construction_rows, format_matrix, parse_matrix, piped, transpose

from cfcode import matrix_io
from cfcode.code_core import (TRANSPOSE_BLOCK_ROWS, BitMatrix, CodeParams, ParameterWarning,
                              materialize)
from cfcode.matrix_io import BLOCK_CHARS, MatrixFormatError, read_matrix, write_matrix


@pytest.fixture(autouse=True)
def _mute_parameter_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ParameterWarning)
        yield


def test_write_then_read_round_trip(tmp_path):
    params = CodeParams(5, 3, 2, 2)
    matrix = materialize(params)
    path = tmp_path / "m.txt"
    write_matrix(matrix, path, params=params)
    parsed, provenance = read_matrix(path)
    assert parsed == matrix
    assert provenance == {"n": 5, "k": 3, "s": 2, "ell": 2}


def test_write_without_params_omits_comment(tmp_path):
    path = tmp_path / "m.txt"
    write_matrix(BitMatrix(1, 3, [0b101]), path)
    assert path.read_text() == "cfcode v1\n1 3\n101\n"
    parsed, provenance = read_matrix(path)
    assert parsed.rows == [0b101]
    assert provenance is None


def test_bit_order_is_column_rank_order(tmp_path):
    path = tmp_path / "m.txt"
    write_matrix(BitMatrix(1, 4, [0b0001]), path)
    assert path.read_text().splitlines()[2] == "1000"


def test_comment_lines_skipped(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("cfcode v1\n1 2\n# free text\n# n=9 k=4 s=2 l=1\n10\n")
    parsed, provenance = read_matrix(path)
    assert parsed.rows == [0b01]
    assert provenance == {"n": 9, "k": 4, "s": 2, "ell": 1}


def test_read_holds_rows_not_text(tmp_path):
    # The parsed rows take well under half the file; holding its text does not.
    rng = random.Random(5)
    matrix = BitMatrix(2000, 462, [rng.getrandbits(462) for _ in range(2000)])
    path = tmp_path / "m.txt"
    write_matrix(matrix, path)
    tracemalloc.start()
    try:
        parsed, _ = read_matrix(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert parsed == matrix
    assert peak < path.stat().st_size / 2


@pytest.mark.parametrize("content,line", [
    ("wrong v1\n1 2\n10\n", 1),
    ("cfcode v1\n1 two\n10\n", 2),
    ("cfcode v1\n1\n10\n", 2),
    ("cfcode v1\n2 2\n10\n", 3),
    ("cfcode v1\n1 2\n10\n11\n", 3),
    ("cfcode v1\n1 2\n1x\n", 3),
    ("cfcode v1\n1 2\n101\n", 3),
    ("cfcode v1\n1 2\n10 \n", 3),
])
def test_malformed_files_report_line(tmp_path, content, line):
    path = tmp_path / "bad.txt"
    path.write_text(content)
    with pytest.raises(MatrixFormatError) as err:
        read_matrix(path)
    assert err.value.line == line
    assert f"line {line}:" in str(err.value)


def test_missing_final_newline(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"cfcode v1\n1 2\n10")
    with pytest.raises(MatrixFormatError):
        read_matrix(path)


def test_file_ending_after_magic_reports_missing_header(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("cfcode v1\n")
    with pytest.raises(MatrixFormatError, match="missing header") as err:
        read_matrix(path)
    assert err.value.line == 2


def test_empty_file(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("")
    with pytest.raises(MatrixFormatError):
        read_matrix(path)


def _block_rows(num_cols):
    return max(1, BLOCK_CHARS // (num_cols + 1))


def _read_as_reference(path, text):
    """read_matrix on the file agrees with the per-line reference parse of its text."""
    try:
        expected = parse_matrix(text)
    except ValueError as err:
        with pytest.raises(MatrixFormatError) as raised:
            read_matrix(path)
        assert raised.value.line == err.args[0]
        return raised.value
    matrix, provenance = read_matrix(path)
    assert (matrix.num_cols, matrix.rows, provenance) == expected
    return matrix


@pytest.mark.parametrize("shape", [(3, 0), (0, 0)])
def test_zero_column_round_trip(tmp_path, shape):
    matrix = BitMatrix(*shape)
    path = tmp_path / "m.txt"
    write_matrix(matrix, path)
    assert path.read_text() == f"cfcode v1\n{shape[0]} 0\n" + "\n" * shape[0]
    assert read_matrix(path) == (matrix, None)


@pytest.mark.parametrize("num_cols", [0, 5, 462])
@pytest.mark.parametrize("extra", [-1, 0, 1, "2B+1"])
def test_block_boundary_round_trip(tmp_path, num_cols, extra):
    b = _block_rows(num_cols)
    num_rows = 2 * b + 1 if extra == "2B+1" else b + extra
    rng = random.Random(num_rows)
    rows = [rng.getrandbits(num_cols) for _ in range(num_rows)]
    path = tmp_path / "m.txt"
    write_matrix(BitMatrix(num_rows, num_cols, rows), path)
    text = path.read_text()
    assert text == format_matrix(rows, num_cols)
    assert _read_as_reference(path, text).rows == rows


def test_row_wider_than_block(tmp_path):
    num_cols = BLOCK_CHARS + 10
    rows = [1, 1 << (num_cols - 1), (1 << num_cols) - 1]
    path = tmp_path / "m.txt"
    write_matrix(BitMatrix(3, num_cols, rows), path)
    text = path.read_text()
    assert text == format_matrix(rows, num_cols)
    assert _read_as_reference(path, text).rows == rows


def _lines_with_bad_row(num_cols, num_rows, bad):
    lines = format_matrix([0] * num_rows, num_cols).split("\n")
    lines[2 + bad] = "0" * (num_cols - 1) + "x"
    return lines


@pytest.mark.parametrize("num_cols", [5, BLOCK_CHARS + 10])
@pytest.mark.parametrize("bad", [1, 2, 3])
def test_malformed_row_in_later_block_reports_its_line(tmp_path, num_cols, bad):
    b = _block_rows(num_cols)
    row = {1: b - 1, 2: b, 3: b + 1}[bad]
    text = "\n".join(_lines_with_bad_row(num_cols, 2 * b + 1, row))
    path = tmp_path / "bad.txt"
    path.write_text(text)
    assert _read_as_reference(path, text).line == row + 3


def test_count_mismatch_beats_later_malformed_row(tmp_path):
    b = _block_rows(5)
    lines = _lines_with_bad_row(5, 2 * b + 1, 2 * b)
    lines[1] = f"{2 * b + 2} 5"
    lines[2:2] = ["# n=5 k=3 s=2 l=2"]
    text = "\n".join(lines)
    path = tmp_path / "bad.txt"
    path.write_text(text)
    assert _read_as_reference(path, text).line == 4


@pytest.mark.parametrize("bad, ending", [
    pytest.param(None, "\r\n", id="None"), pytest.param(3, "\r\n", id="3"),
    pytest.param(None, "\r", id="None-cr"), pytest.param(3, "\r", id="3-cr"),
    pytest.param(None, "mixed", id="None-mixed"), pytest.param(3, "mixed", id="3-mixed"),
])
def test_crlf_line_endings(tmp_path, bad, ending):
    b = _block_rows(5)
    rng = random.Random(2)
    lines = format_matrix([rng.getrandbits(5) for _ in range(b + 7)], 5).split("\n")[:-1]
    if bad is not None:
        lines[2 + b + bad] = "01"
    ends = itertools.cycle(["\r\n", "\r", "\n"] if ending == "mixed" else [ending])
    text = "".join(line + end for line, end in zip(lines, ends))
    if ending == "\r\n":
        # A first block of whole 6-character rows after the first data line,
        # counted in bytes, would end between the "\r" and the "\n" of a
        # 7-byte line.
        cut = sum(len(line) + 2 for line in lines[:3]) + 6 * _rows_per_block(5)
        assert text[cut - 1:cut + 1] == "\r\n"
    path = tmp_path / "m.txt"
    path.write_bytes(text.encode("ascii"))
    _read_as_reference(path, text)


@pytest.mark.parametrize("ending", ["\r\n", "\r"])
@pytest.mark.parametrize("tail", ["01", "0" * (2 * BLOCK_CHARS)], ids=["short", "past-a-block"])
def test_file_ending_inside_a_row_after_a_block(tmp_path, ending, tail):
    # The file ends inside the row after a full first block and two more rows;
    # the long row is also cut by the second block's end.
    b = _rows_per_block(5)
    lines = format_matrix([0] * (b + 7), 5).split("\n")[:b + 5]
    path = tmp_path / "bad.txt"
    path.write_bytes((ending.join(lines) + ending + tail).encode("ascii"))
    with pytest.raises(MatrixFormatError, match="missing final newline") as err:
        read_matrix(path)
    assert err.value.line == b + 6


def test_comment_lines_then_data(tmp_path):
    rng = random.Random(3)
    rows = [rng.getrandbits(7) for _ in range(_block_rows(7) + 2)]
    text = format_matrix(rows, 7, comments=["# free text", "# n=9 k=4 s=2 l=1", "#"])
    path = tmp_path / "m.txt"
    path.write_text(text)
    assert _read_as_reference(path, text).rows == rows


def _rows_per_block(num_cols):
    return max(BLOCK_CHARS // (num_cols + 1), min((num_cols + 1) // 2, TRANSPOSE_BLOCK_ROWS))


@pytest.mark.parametrize("extra", [-1, 0, 1, "2R+1"])
def test_blocks_of_half_the_width_read_as_reference(tmp_path, extra):
    # At 462 columns a block holds ceil(t/2) = 231 rows, more than fit in BLOCK_CHARS.
    r = _rows_per_block(462)
    assert r == 231 > _block_rows(462)
    num_rows = 2 * r + 1 if extra == "2R+1" else r + extra
    rng = random.Random(num_rows)
    rows = [rng.getrandbits(462) for _ in range(num_rows)]
    text = format_matrix(rows, 462)
    path = tmp_path / "m.txt"
    path.write_text(text)
    matrix = _read_as_reference(path, text)
    assert matrix.rows == rows
    assert matrix.columns() == transpose(rows, 462)


@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_wide_blocks_stop_at_transpose_block_rows(tmp_path, monkeypatch, extra):
    # With a small cap, ceil(t/2) = 10 rows is cut to 4 per block.
    monkeypatch.setattr(matrix_io, "BLOCK_CHARS", 1)
    monkeypatch.setattr(matrix_io, "TRANSPOSE_BLOCK_ROWS", 4)
    sizes = []
    read = matrix_io._read
    monkeypatch.setattr(matrix_io, "_read", lambda fh, size: sizes.append(size) or read(fh, size))
    rng = random.Random(extra)
    rows = [rng.getrandbits(20) for _ in range(8 + extra)]
    text = format_matrix(rows, 20)
    path = tmp_path / "m.txt"
    path.write_text(text)
    assert _read_as_reference(path, text).rows == rows
    assert max(sizes) == 4 * 21


@pytest.mark.parametrize("where", ["data", "comment", "magic", "size"])
def test_non_ascii_byte_reports_its_line(tmp_path, where):
    b = _rows_per_block(5)
    lines = format_matrix([0] * (2 * b + 1), 5, comments=["# n=5 k=3 s=2 l=2"]).split("\n")
    number = {"data": b + 7, "comment": 3, "magic": 1, "size": 2}[where]
    lines[number - 1] = lines[number - 1][:2] + "\xe9" + lines[number - 1][3:]
    path = tmp_path / "bad.txt"
    path.write_bytes("\n".join(lines).encode("latin-1"))
    with pytest.raises(MatrixFormatError) as err:
        read_matrix(path)
    assert err.value.line == number
    assert str(err.value).startswith(f"line {number}: ")
    assert "\\udce9" in str(err.value)  # the byte, shown as the surrogate it decodes to


@pytest.mark.parametrize("num_cols", [0, 3, 40])
@pytest.mark.parametrize("num_rows", [0, 2047, 2048, 2049, 4097])
def test_column_blocks_match_reference(tmp_path, num_rows, num_cols):
    # A matrix held as columns, as read_matrix returns it, is written through
    # one transpose and blocks of rows; the text and the columns read back
    # match the reference around TRANSPOSE_BLOCK_ROWS = 2048 rows.
    rng = random.Random(num_rows + num_cols)
    rows = [rng.getrandbits(num_cols) for _ in range(num_rows)]
    path = tmp_path / "m.txt"
    write_matrix(BitMatrix.from_columns(num_rows, num_cols, transpose(rows, num_cols)), path)
    assert path.read_text() == format_matrix(rows, num_cols)
    assert read_matrix(path)[0].columns() == transpose(rows, num_cols)


# Top blocks cut at window edges ((8,6,2,5), (7,4,2,6)), deep l ((6,4,2,13))
# and l = 1, where the member lines are the rows.
WRITER_SHAPES = [(3, 2, 1, 1), (5, 3, 2, 2), (6, 4, 2, 13), (7, 4, 2, 6), (8, 6, 2, 5),
                 (10, 9, 5, 2), (16, 15, 8, 1)]


@pytest.mark.parametrize("params", [p for p in WRITER_SHAPES if p[3] >= 2],
                         ids=lambda p: ",".join(map(str, p)))
@pytest.mark.parametrize("window", [TRANSPOSE_BLOCK_ROWS, 7])
def test_level_blocks_match_reference(monkeypatch, params, window):
    # The level writer writes l >= 2 only. Windows of 7 lines cut the blocks
    # of every level, held ones included. Every block but the last is one
    # whole window.
    monkeypatch.setattr(matrix_io, "TRANSPOSE_BLOCK_ROWS", window)
    rows = construction_rows(*params)
    blocks = list(matrix_io._level_blocks(CodeParams(*params)))
    assert [block.count(b"\n") for block in blocks[:-1]] == [window] * (len(blocks) - 1)
    assert blocks[-1].count(b"\n") <= window
    text = b"".join(blocks).decode()
    reference = format_matrix(rows, math.comb(params[0], params[1])).split("\n", 2)[2]
    assert _first_difference(text, reference) is None


@pytest.mark.parametrize("params", WRITER_SHAPES, ids=lambda p: ",".join(map(str, p)))
@pytest.mark.parametrize("block_chars", [BLOCK_CHARS, 100, 1])
def test_row_blocks_match_reference(monkeypatch, params, block_chars):
    # With no shape written level by level, every one is written row by row
    # from the member patterns; blocks of 100 characters hold from 2 to 25
    # rows, so block edges fall all through the data, and blocks of one
    # row put a block edge at every group and window edge. Every block but
    # the last holds as many whole rows as fit.
    monkeypatch.setattr(matrix_io, "LEVEL_WRITE_MAX_COLS", 0)
    monkeypatch.setattr(matrix_io, "BLOCK_CHARS", block_chars)
    num_cols = math.comb(params[0], params[1])
    step = max(1, block_chars // (num_cols + 1))
    blocks = list(matrix_io._construction_blocks(CodeParams(*params)))
    assert [block.count(b"\n") for block in blocks[:-1]] == [step] * (len(blocks) - 1)
    assert 0 < blocks[-1].count(b"\n") <= step
    text = b"".join(blocks).decode()
    reference = format_matrix(construction_rows(*params), num_cols).split("\n", 2)[2]
    assert _first_difference(text, reference) is None


# The sha256 of `cfcode gen 1000 999 1 1`'s file, as CI pins it.
DEEP_MEMBERS_DIGEST = "73c55943acef54951e1d1051e5bd60a4aa21c3cf10c33f3564a642d5c93b8315"


@pytest.mark.parametrize("params", [(3, 2, 1, 1), (16, 15, 8, 1), (12, 11, 6, 1),
                                    (1000, 999, 1, 1)], ids=lambda p: ",".join(map(str, p)))
def test_single_member_rows_take_one_path_at_every_width(monkeypatch, params):
    # At l = 1 the rows are the member patterns, written in blocks of as
    # many rows as fit in BLOCK_CHARS whether t is under LEVEL_WRITE_MAX_COLS
    # or over it: the level writer is never called.
    def refuse(*args):
        raise AssertionError("l = 1 written by the level writer")

    monkeypatch.setattr(matrix_io, "_level_blocks", refuse)
    num_rows, num_cols = math.comb(params[0], params[2]), math.comb(params[0], params[1])
    step = max(1, BLOCK_CHARS // (num_cols + 1))
    blocks = list(matrix_io._construction_blocks(CodeParams(*params)))
    assert [block.count(b"\n") for block in blocks[:-1]] == [step] * (len(blocks) - 1)
    assert 0 < blocks[-1].count(b"\n") <= step
    if params[0] == 1000:
        header = f"cfcode v1\n{num_rows} {num_cols}\n# n=1000 k=999 s=1 l=1\n".encode()
        assert hashlib.sha256(b"".join([header, *blocks])).hexdigest() == DEEP_MEMBERS_DIGEST
    else:
        text = b"".join(blocks).decode()
        reference = format_matrix(construction_rows(*params), num_cols).split("\n", 2)[2]
        assert _first_difference(text, reference) is None


def _first_difference(text, reference):
    """None when ``text`` is ``reference``, else the index of the first line
    where they differ and both lines: a failure names one line of a file
    rather than diffing the whole of it."""
    pairs = itertools.zip_longest(text.split("\n"), reference.split("\n"))
    return next(((i, got, want) for i, (got, want) in enumerate(pairs) if got != want), None)


def test_recognised_matrix_written_as_its_construction(tmp_path):
    # A matrix read from a generated file holds only its params; writing it
    # streams the construction's blocks, as gen does, and builds no rows.
    # (12,6,2,3) is 45,760 rows of 924 columns, about 7.2 MB as a row list,
    # on the row side; (8,6,2,5) is 98,280 rows of 28 columns, about 2.8 MB
    # as text, on the level side.
    for params in (CodeParams(12, 6, 2, 3), CodeParams(8, 6, 2, 5)):
        path, out = tmp_path / "m.txt", tmp_path / "out.txt"
        write_matrix(BitMatrix.of_construction(params), path, params)
        matrix, _ = read_matrix(path)
        tracemalloc.start()
        try:
            write_matrix(matrix, out, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.read_bytes() == path.read_bytes(), params
        assert peak < 2 << 20, params
        assert matrix._rows is None, params


def _overwrite_case(case):
    """The matrix and params write_matrix takes for ``case``: the level
    side, the row side at l = 3 and l = 2, or _row_blocks of a matrix held
    as columns."""
    if case == "columns":
        rng = random.Random(5)
        rows = [rng.getrandbits(40) for _ in range(4097)]
        return BitMatrix.from_columns(len(rows), 40, transpose(rows, 40)), None
    params = CodeParams(*case)
    return BitMatrix.of_construction(params), params


def _fill(path, size):
    """Write ``size`` bytes of "#", a byte no matrix file holds, to ``path``."""
    with open(path, "wb") as fh:
        for start in range(0, size, 1 << 20):
            fh.write(b"#" * min(1 << 20, size - start))


@pytest.mark.parametrize("old", ["longer", "shorter"])
@pytest.mark.parametrize("case", [(8, 6, 2, 5), (12, 6, 2, 3), (11, 5, 2, 2), "columns"],
                         ids=lambda c: ",".join(map(str, c)) if isinstance(c, tuple) else c)
def test_overwrite_equals_a_fresh_write(tmp_path, case, old):
    # An existing file is written over in place and cut at the new length:
    # the same bytes as a write to a new path, the same inode and mode, and
    # a hard link to it reads the new bytes.
    matrix, params = _overwrite_case(case)
    fresh, path, link = tmp_path / "fresh.txt", tmp_path / "m.txt", tmp_path / "link.txt"
    write_matrix(matrix, fresh, params)
    size = fresh.stat().st_size
    _fill(path, size + 4099 if old == "longer" else size // 2 + 1)
    os.chmod(path, 0o640)
    os.link(path, link)
    before = os.stat(path)
    try:
        write_matrix(matrix, path, params)
        after = os.stat(path)
        assert after.st_ino == before.st_ino
        assert stat.S_IMODE(after.st_mode) == stat.S_IMODE(before.st_mode) == 0o640
        assert after.st_size == size
        assert filecmp.cmp(path, fresh, shallow=False)
        assert filecmp.cmp(link, fresh, shallow=False)
    finally:
        # The (12,6,2,3) files are 42 MB each; kept temporary directories would hold them.
        for each in (fresh, path, link):
            each.unlink()


def test_target_is_opened_without_truncation(tmp_path, monkeypatch):
    # Truncating on open would free the old file's blocks, only for the
    # write to allocate them again.
    flags = []
    real_open = os.open

    def spy(path, flag, *args, **kwargs):
        flags.append(flag)
        return real_open(path, flag, *args, **kwargs)

    monkeypatch.setattr(os, "open", spy)
    write_matrix(BitMatrix.of_construction(CodeParams(5, 3, 2, 2)), tmp_path / "m.txt")
    assert len(flags) == 1
    assert flags[0] & os.O_CREAT and not flags[0] & os.O_TRUNC


def test_new_file_gets_mode_under_the_umask(tmp_path):
    path = tmp_path / "m.txt"
    mask = os.umask(0o022)
    try:
        write_matrix(BitMatrix.of_construction(CodeParams(5, 3, 2, 2)), path)
    finally:
        os.umask(mask)
    assert stat.S_IMODE(path.stat().st_mode) == 0o644


def test_failed_overwrite_leaves_a_prefix_of_the_new_output(tmp_path, monkeypatch):
    # Two real blocks, then a failure: the file is cut after them, so it
    # holds the header and those blocks and no byte of the longer old file.
    params = CodeParams(8, 6, 2, 5)
    blocks = list(itertools.islice(matrix_io._construction_blocks(params), 2))

    def failing(construction):
        yield from blocks
        raise RuntimeError("block failed")

    path = tmp_path / "m.txt"
    _fill(path, 4 << 20)
    monkeypatch.setattr(matrix_io, "_construction_blocks", failing)
    with pytest.raises(RuntimeError, match="block failed"):
        write_matrix(BitMatrix.of_construction(params), path, params)
    header = b"cfcode v1\n98280 28\n# n=8 k=6 s=2 l=5\n"
    assert path.read_bytes() == header + b"".join(blocks)


@pytest.mark.parametrize("params", [(8, 6, 2, 5), (11, 5, 2, 2)],
                         ids=lambda p: ",".join(map(str, p)))
def test_targets_that_are_not_regular_files_are_not_cut(tmp_path, params):
    # ftruncate fails on /dev/null and on a FIFO, so a cut there would raise.
    params = CodeParams(*params)
    matrix = BitMatrix.of_construction(params)
    write_matrix(matrix, os.devnull, params)
    if not hasattr(os, "mkfifo"):
        return
    fresh, fifo = tmp_path / "fresh.txt", tmp_path / "fifo"
    write_matrix(matrix, fresh, params)
    os.mkfifo(fifo)
    drained = []

    def drain():
        with open(fifo, "rb") as fh:
            drained.append(fh.read())

    thread = threading.Thread(target=drain, daemon=True)
    thread.start()
    write_matrix(matrix, fifo, params)
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert drained == [fresh.read_bytes()]


def test_zero_row_header_allocates_nothing_wide(tmp_path):
    # The header's width is not trusted before a data line proves it.
    path = tmp_path / "m.txt"
    path.write_bytes(b"cfcode v1\n0 80000000\n")
    tracemalloc.start()
    try:
        matrix, provenance = read_matrix(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (matrix.num_rows, matrix.num_cols, matrix.rows, provenance) == (0, 80_000_000, [], None)
    assert peak < 1 << 20


@pytest.mark.parametrize("size_line, comment, line", [
    ("1 " + "9" * 5001, "", 2),
    ("1 2", "# n=" + "9" * 5001 + " k=1 s=1 l=1\n", 3),
])
def test_number_past_the_digit_limit_reports_its_line(tmp_path, size_line, comment, line):
    # Outside the CLI, int() refuses more digits than the interpreter's limit.
    path = tmp_path / "bad.txt"
    path.write_text(f"cfcode v1\n{size_line}\n{comment}01\n")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(MatrixFormatError) as err:
            read_matrix(path)
    finally:
        sys.set_int_max_str_digits(limit)
    assert err.value.line == line
    assert str(err.value).startswith(f"line {line}: ")


# The files gen writes for the benchmark's four ladder sets, its 462-column
# file and a spread of acceptance-grid sets. Each is compared first, and
# each edit is then parsed; (7,6,2,1), where columns_fit fails, too.
GENERATED = [(8, 4, 2, 2), (8, 5, 2, 3), (8, 6, 2, 5), (7, 4, 2, 2), (11, 5, 2, 3),
             (3, 2, 1, 1), (5, 3, 2, 2), (6, 4, 1, 3), (7, 5, 2, 3), (7, 6, 2, 1)]


def _edited_copies(data):
    """A generated file's bytes and edited copies of them, by name."""
    last = data.rindex(b"\n", 0, len(data) - 1) + 1  # where the last row starts
    header = data.index(b"\n", data.index(b"#")) + 1  # just past the provenance line
    flipped = b"1" if data[-2:-1] == b"0" else b"0"
    return {
        "as-written": data,
        "last-bit-flipped": data[:-2] + flipped + b"\n",
        "row-dropped": data[:last],
        "row-appended": data + data[last:],
        "crlf": data.replace(b"\n", b"\r\n"),
        "cr": data.replace(b"\n", b"\r"),
        "no-final-newline": data[:-1],
        "second-comment": data[:header] + b"# n=9 k=4 s=2 l=1\n" + data[header:],
        "non-ascii": data[:last] + b"\xe9" + data[last + 1:],
    }


def _outcome(path):
    try:
        return read_matrix(path)
    except MatrixFormatError as err:
        return type(err), str(err), err.line


@pytest.mark.parametrize("params", GENERATED, ids=lambda p: ",".join(map(str, p)))
def test_generated_files_and_edits_read_as_reference(tmp_path, monkeypatch, params):
    path = tmp_path / "m.txt"
    params = CodeParams(*params)
    write_matrix(BitMatrix.of_construction(params), path, params)
    for name, data in _edited_copies(path.read_bytes()).items():
        path.write_bytes(data)
        try:
            num_cols, rows, provenance = parse_matrix(data.decode("latin-1"))
            expected = BitMatrix(len(rows), num_cols, rows), provenance
        except ValueError as err:
            expected = err.args[0]
        # Seven-character blocks cut every line; on the two files over 1 MB
        # they would take most of a minute, so those take 1009-character ones.
        for block_chars in (7 if len(data) < 1 << 20 else 1009, BLOCK_CHARS):
            with monkeypatch.context() as patch:
                patch.setattr(matrix_io, "BLOCK_CHARS", block_chars)
                got = _outcome(path)
                if isinstance(expected, int):
                    # The parser alone, with the compare path turned off,
                    # raises the same error.
                    patch.setattr(matrix_io, "provenance_params", lambda provenance: None)
                    assert got == _outcome(path), (name, block_chars)
                    assert got[0] is MatrixFormatError and got[2] == expected, (name, block_chars)
                else:
                    assert got == expected, (name, block_chars)


# (12,11,6,2) fails columns_fit: 924 members for 12 columns.
@pytest.mark.parametrize("params", [(5, 3, 2, 2), (11, 5, 2, 1), (12, 11, 6, 2)],
                         ids=["level-blocks", "row-blocks", "no-columns-fit"])
def test_generated_file_is_read_without_parsing(tmp_path, monkeypatch, params):
    params = CodeParams(*params)
    path = tmp_path / "m.txt"
    write_matrix(BitMatrix.of_construction(params), path, params)
    calls = []
    parse = matrix_io._parse_rows
    monkeypatch.setattr(matrix_io, "_parse_rows", lambda *args: calls.append(1) or parse(*args))
    matrix, provenance = read_matrix(path)
    assert not calls
    assert matrix == materialize(params)
    assert provenance == {"n": params.n, "k": params.k, "s": params.s, "ell": params.ell}
    data = path.read_bytes()
    path.write_bytes(data[:-2] + (b"1" if data[-2:-1] == b"0" else b"0") + b"\n")
    assert read_matrix(path)[0] != matrix
    assert calls == [1]


def test_generated_file_read_and_checked_in_no_more_memory(tmp_path):
    # A compared file is held as its params alone: the compare holds a block
    # of the writer's bytes and one of the file's. Parsing the same file
    # with its header removed holds its columns. A piped file is copied to a
    # temporary file a block at a time and compared there. So reading a
    # generated file holds no more than parsing the bare file, and reading
    # it from a pipe no more than reading it from disk, give or take one
    # block of text.
    params = CodeParams(11, 5, 2, 3)
    path, bare = tmp_path / "m.txt", tmp_path / "bare.txt"
    write_matrix(BitMatrix.of_construction(params), path, params)
    bare.write_bytes(b"".join(line for line in path.read_bytes().splitlines(keepends=True)
                              if not line.startswith(b"#")))

    def peak(source):
        tracemalloc.start()
        try:
            matrix, _ = read_matrix(source)
            assert matrix.construction == (None if source == bare else params)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(path) <= peak(bare) + BLOCK_CHARS
    with piped(path.read_bytes()) as fd_path:
        assert peak(fd_path) <= peak(path) + BLOCK_CHARS


def test_short_file_naming_a_large_code_is_parsed(tmp_path):
    # (20,10,2,3) is 1,125,180 rows by 184,756 columns, about 26 GB of
    # columns; a file too short to hold them is parsed, not compared.
    path = tmp_path / "bad.txt"
    path.write_text("cfcode v1\n1125180 184756\n# n=20 k=10 s=2 l=3\n0101\n")
    tracemalloc.start()
    try:
        with pytest.raises(MatrixFormatError, match="expected 1125180 data lines, found 1"):
            read_matrix(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_short_pipe_naming_a_large_code_is_parsed():
    # The file of test_short_file_naming_a_large_code_is_parsed, piped: its
    # one data line is copied, and the copy is too short to be compared.
    data = b"cfcode v1\n1125180 184756\n# n=20 k=10 s=2 l=3\n0101\n"
    with piped(data) as fd_path:
        tracemalloc.start()
        try:
            with pytest.raises(MatrixFormatError, match="expected 1125180 data lines, found 1"):
                read_matrix(fd_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 1 << 20


def test_piped_copies_are_closed(tmp_path, monkeypatch):
    # A piped file is compared on a temporary copy, which every read closes:
    # recognised, parsed to other bits, or refused as too short.
    path = tmp_path / "m.txt"
    params = CodeParams(8, 6, 2, 5)
    write_matrix(BitMatrix.of_construction(params), path, params)
    data = path.read_bytes()
    flipped = data[:-2] + (b"1" if data[-2:-1] == b"0" else b"0") + b"\n"
    truncated = data[:data.rindex(b"\n", 0, -1) + 1]
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        for source, construction in ((data, True), (flipped, False), (truncated, None)):
            with piped(source) as fd_path:
                if construction is None:
                    with pytest.raises(MatrixFormatError, match="data lines"):
                        read_matrix(fd_path)
                else:
                    matrix, _ = read_matrix(fd_path)
                    assert (matrix.construction is not None) is construction
        gc.collect()
    assert not [u for u in unraisable if isinstance(u.exc_value, ResourceWarning)]
