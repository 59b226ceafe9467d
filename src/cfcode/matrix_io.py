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

from .code_core import BitMatrix, CodeParams

MAGIC = "cfcode v1"
# Characters of data lines moved per string operation when reading or writing.
BLOCK_CHARS = 1 << 15

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


def _line(fh: TextIO, number: int) -> str:
    """The next line, with its newline; "" at the end of the file."""
    line = fh.readline()
    if line and not line.endswith("\n"):
        raise MatrixFormatError("missing final newline", line=number)
    return line


def read_matrix(path: str | Path) -> tuple[BitMatrix, dict[str, int] | None]:
    """Parse a matrix file; returns the matrix and any provenance parameters.

    Header and comment lines are read one at a time, data lines a block of
    about BLOCK_CHARS characters at a time, so only the rows' ints and one
    block are held. A block is checked and parsed whole; only a block that
    fails its check is split into lines, to name the offending one.
    Raises MatrixFormatError naming the first offending line; a data line
    count that does not match the header is reported at the first data line,
    ahead of any malformed row.
    """
    provenance: dict[str, int] | None = None
    with open(path, encoding="ascii") as fh:
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
        num_rows, t = int(parts[0]), int(parts[1])
        number = 2  # lines before the current block
        block = _line(fh, 3)
        while block.startswith("#"):
            found = _PROVENANCE.search(block)
            if found:
                provenance = {
                    "n": int(found.group(1)),
                    "k": int(found.group(2)),
                    "s": int(found.group(3)),
                    "ell": int(found.group(4)),
                }
            number += 1
            block = _line(fh, number + 1)
        first_data = number + 1
        width = t + 1
        # Whole rows per read; a row wider than the budget is finished by readline.
        size = width * (BLOCK_CHARS // width) or BLOCK_CHARS
        rows: list[int] = []
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
                    # Reversed, the block lists the rows last first, each column 0 last.
                    rows += ([int(p, 2) for p in block[::-1].split("\n")[:0:-1]]
                             if t else [0] * count)
                else:
                    i, text = next((i, text) for i, text in enumerate(block.split("\n"), 1)
                                   if len(text) != t or text.strip("01"))
                    bad = MatrixFormatError(
                        f"expected exactly {t} characters from {{0,1}}, got {text!r}",
                        line=number + i)
            number += count
            block = fh.read(size)
    found_rows = number + 1 - first_data
    if found_rows != num_rows:
        raise MatrixFormatError(
            f"expected {num_rows} data lines, found {found_rows}", line=first_data)
    if bad is not None:
        raise bad
    return BitMatrix(num_rows, t, rows), provenance
