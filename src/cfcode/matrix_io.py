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

from .code_core import BitMatrix, CodeParams

MAGIC = "cfcode v1"

_PROVENANCE = re.compile(r"n=(\d+)\s+k=(\d+)\s+s=(\d+)\s+l=(\d+)")


class MatrixFormatError(ValueError):
    """Malformed matrix file; ``line`` is the 1-based offending line."""

    def __init__(self, message: str, line: int | None = None) -> None:
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def write_matrix(matrix: BitMatrix, path: str | Path,
                 params: CodeParams | None = None) -> None:
    """Write the matrix; a provenance comment is added when params is given."""
    t = matrix.num_cols
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(MAGIC + "\n")
        fh.write(f"{matrix.num_rows} {t}\n")
        if params is not None:
            fh.write(f"# n={params.n} k={params.k} s={params.s} l={params.ell}\n")
        for row in matrix.rows:
            fh.write(format(row, f"0{t}b")[::-1] + "\n")


def read_matrix(path: str | Path) -> tuple[BitMatrix, dict[str, int] | None]:
    """Parse a matrix file; returns the matrix and any provenance parameters.

    Rows are parsed as the file is read, so only their ints are held.
    Raises MatrixFormatError naming the first offending line; a data line
    count that does not match the header is reported at the first data line,
    ahead of any malformed row.
    """
    provenance: dict[str, int] | None = None
    rows: list[int] = []
    first_data = bad = None
    number = 0
    with open(path, encoding="ascii") as fh:
        for number, line in enumerate(fh, 1):
            if not line.endswith("\n"):
                raise MatrixFormatError("missing final newline", line=number)
            line = line[:-1]
            if number == 1:
                if line != MAGIC:
                    raise MatrixFormatError(
                        f"expected header {MAGIC!r}, got {line!r}", line=1)
            elif number == 2:
                parts = line.split(" ")
                if len(parts) != 2 or not all(p.isdigit() for p in parts):
                    raise MatrixFormatError(
                        f"expected '<rows> <cols>' in decimal, got {line!r}", line=2)
                num_rows, num_cols = int(parts[0]), int(parts[1])
            elif first_data is None and line.startswith("#"):
                found = _PROVENANCE.search(line)
                if found:
                    provenance = {
                        "n": int(found.group(1)),
                        "k": int(found.group(2)),
                        "s": int(found.group(3)),
                        "ell": int(found.group(4)),
                    }
            else:
                first_data = first_data or number
                if bad is not None:
                    continue
                if len(line) != num_cols or line.strip("01"):
                    bad = MatrixFormatError(
                        f"expected exactly {num_cols} characters from {{0,1}}, got {line!r}",
                        line=number)
                else:
                    rows.append(int(line[::-1], 2) if line else 0)
    if number < 2:
        raise MatrixFormatError("missing header", line=number + 1)
    found_rows = number + 1 - first_data if first_data else 0
    if found_rows != num_rows:
        raise MatrixFormatError(
            f"expected {num_rows} data lines, found {found_rows}",
            line=first_data or number + 1)
    if bad is not None:
        raise bad
    return BitMatrix(num_rows, num_cols, rows), provenance
