import random
import tracemalloc
import warnings

import pytest
from reference import format_matrix, parse_matrix

from cfcode.code_core import BitMatrix, CodeParams, ParameterWarning, materialize
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


@pytest.mark.parametrize("bad", [None, 3])
def test_crlf_line_endings(tmp_path, bad):
    b = _block_rows(5)
    rng = random.Random(2)
    lines = format_matrix([rng.getrandbits(5) for _ in range(b + 7)], 5).split("\n")
    if bad is not None:
        lines[2 + b + bad] = "01"
    text = "\r\n".join(lines)
    path = tmp_path / "m.txt"
    path.write_bytes(text.encode("ascii"))
    _read_as_reference(path, text)


def test_comment_lines_then_data(tmp_path):
    rng = random.Random(3)
    rows = [rng.getrandbits(7) for _ in range(_block_rows(7) + 2)]
    text = format_matrix(rows, 7, comments=["# free text", "# n=9 k=4 s=2 l=1", "#"])
    path = tmp_path / "m.txt"
    path.write_text(text)
    assert _read_as_reference(path, text).rows == rows
