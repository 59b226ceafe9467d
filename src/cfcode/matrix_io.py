"""Flat text serialization of bit matrices.

Format, all lines newline terminated, no trailing whitespace:

    cfcode v1
    <rows> <cols>
    # n=<n> k=<k> s=<s> l=<ell>        (optional comment lines)
    <rows lines of exactly <cols> characters from {0,1}>

Rows appear in row rank order and characters in column rank order, so a
generated file is byte-identical across runs and platforms.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import TextIO

from .code_core import TRANSPOSE_BLOCK_ROWS, BitMatrix, CodeParams

MAGIC = "cfcode v1"
# Characters of data lines moved per string operation when reading or writing.
BLOCK_CHARS = 1 << 15
# Characters per read call: a larger one holds several copies of its text at once.
READ_CHARS = 1 << 13

_PROVENANCE = re.compile(r"n=(\d+)\s+k=(\d+)\s+s=(\d+)\s+l=(\d+)")
_NOT_DATA = str.maketrans("", "", "01\n")


class MatrixFormatError(ValueError):
    """Malformed matrix file; ``line`` is the 1-based offending line."""

    def __init__(self, message: str, line: int | None = None) -> None:
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def write_matrix(matrix: BitMatrix, path: str | Path,
                 params: CodeParams | None = None) -> None:
    """Write the matrix; a provenance comment is added when params is given.

    Data lines are written a block of about BLOCK_CHARS characters at a time:
    the block's rows are formatted last row first and the joined string is
    reversed once, which puts the rows in order with column 0 first.
    """
    t = matrix.num_cols
    fmt = f"0{t}b"
    step = max(1, BLOCK_CHARS // (t + 1))
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(MAGIC + "\n")
        fh.write(f"{matrix.num_rows} {t}\n")
        if params is not None:
            fh.write(f"# n={params.n} k={params.k} s={params.s} l={params.ell}\n")
        for start in range(0, matrix.num_rows, step):
            block = matrix.rows[start:start + step]
            # format() writes "0" even at width 0, so zero-column rows are set out as "".
            lines = [format(r, fmt) for r in reversed(block)] if t else [""] * len(block)
            fh.write(("\n" + "\n".join(lines))[::-1])


def _decimal(digits: str, line: int) -> int:
    """A run of decimal digits from line ``line`` as an int. Past the
    interpreter's limit on digits converted (sys.set_int_max_str_digits),
    a MatrixFormatError at that line."""
    try:
        return int(digits)
    except ValueError as exc:
        raise MatrixFormatError(str(exc), line=line) from None


def _line(fh: TextIO, number: int) -> str:
    """The next line, with its newline; "" at the end of the file."""
    line = fh.readline()
    if line and not line.endswith("\n"):
        raise MatrixFormatError("missing final newline", line=number)
    return line


def _read(fh: TextIO, size: int) -> str:
    """The next ``size`` characters, fewer at the end of the file, read
    READ_CHARS at a time and joined."""
    pieces = []
    while size > 0 and (piece := fh.read(min(size, READ_CHARS))):
        pieces.append(piece)
        size -= len(piece)
    return "".join(pieces)


def read_matrix(path: str | Path) -> tuple[BitMatrix, dict[str, int] | None]:
    """Parse a matrix file straight into its columns; returns the matrix and
    any provenance parameters.

    Header and comment lines are read one at a time, data lines a block of
    whole rows at a time: as many rows of t columns as fit in BLOCK_CHARS
    characters, but at least min(ceil(t/2), TRANSPOSE_BLOCK_ROWS), so a
    block costs about two column slices per row up to t = 4096 and holds no
    more than max(BLOCK_CHARS, TRANSPOSE_BLOCK_ROWS * (t+1)) characters. A
    block is checked whole. Column j of it is then its
    stride-(t+1) slice from the last row's character j back to the first
    row's, so one int(., 2) puts the first row lowest, and it is ORed into
    column j at the block's first row. Only the columns and one block's text
    are held (two or three copies of it while it is read and checked), and
    no column is allocated before a block has passed its check.
    Only a block that fails its check is split into lines, to name the
    offending one.
    Raises MatrixFormatError naming the first offending line; a data line
    count that does not match the header is reported at the first data line,
    ahead of any malformed row. A non-ASCII byte fails its line's check like
    any other character out of place.
    """
    provenance: dict[str, int] | None = None
    with open(path, encoding="ascii", errors="surrogateescape") as fh:
        line = _line(fh, 1)
        if not line:
            raise MatrixFormatError("missing header", line=1)
        if line[:-1] != MAGIC:
            raise MatrixFormatError(f"expected header {MAGIC!r}, got {line[:-1]!r}", line=1)
        line = _line(fh, 2)
        if not line:
            raise MatrixFormatError("missing header", line=2)
        parts = line[:-1].split(" ")
        if len(parts) != 2 or not all(p.isdigit() for p in parts):
            raise MatrixFormatError(
                f"expected '<rows> <cols>' in decimal, got {line[:-1]!r}", line=2)
        num_rows, t = _decimal(parts[0], 2), _decimal(parts[1], 2)
        number = 2  # lines before the current block
        block = _line(fh, 3)
        while block.startswith("#"):
            if not block.isascii():
                raise MatrixFormatError(f"expected ASCII text, got {block[:-1]!r}",
                                        line=number + 1)
            found = _PROVENANCE.search(block)
            if found:
                provenance = {key: _decimal(value, number + 1)
                              for key, value in zip(("n", "k", "s", "ell"), found.groups())}
            number += 1
            block = _line(fh, number + 1)
        first_data = number + 1
        width = t + 1
        # Whole rows per block once the first data line has shown that rows of
        # that width are really there; a block that ends inside a row is
        # finished by readline.
        size = (width * max(BLOCK_CHARS // width, min((t + 1) // 2, TRANSPOSE_BLOCK_ROWS))
                if len(block) == width else BLOCK_CHARS)
        block += _read(fh, size)
        cols = None
        bad = None
        while block:
            if block[-1] != "\n":
                block += fh.readline()
                if block[-1] != "\n":
                    raise MatrixFormatError(
                        "missing final newline", line=number + block.count("\n") + 1)
            count = block.count("\n")
            if bad is None:
                if (len(block) == count * width and not block[t::width].strip("\n")
                        and not block.translate(_NOT_DATA)):
                    if cols is None:
                        cols = [0] * t
                    last, start = len(block) - width, number + 1 - first_data
                    for j in range(t):
                        cols[j] |= int(block[last + j::-width], 2) << start
                else:
                    i, text = next((i, text) for i, text in enumerate(block.split("\n"), 1)
                                   if len(text) != t or text.strip("01"))
                    bad = MatrixFormatError(
                        f"expected exactly {t} characters from {{0,1}}, got {text!r}",
                        line=number + i)
                    size = BLOCK_CHARS  # the rest is only counted
            number += count
            block = ""  # let go of this block's text before reading the next
            block = _read(fh, size)
    found_rows = number + 1 - first_data
    if found_rows != num_rows:
        raise MatrixFormatError(
            f"expected {num_rows} data lines, found {found_rows}", line=first_data)
    if bad is not None:
        raise bad
    if cols is None:  # no data lines
        return BitMatrix(0, t), provenance
    return BitMatrix.from_columns(num_rows, t, cols), provenance
