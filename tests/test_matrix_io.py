import random
import tracemalloc
import warnings

import pytest

from cfcode.code_core import BitMatrix, CodeParams, ParameterWarning, materialize
from cfcode.matrix_io import MatrixFormatError, read_matrix, write_matrix


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
