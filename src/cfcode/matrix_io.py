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

import itertools
import os
import re
import warnings
from pathlib import Path
from typing import Iterable, Iterator, TextIO

from .code_core import (TRANSPOSE_BLOCK_ROWS, BitMatrix, CodeParams, ParameterError,
                        ParameterWarning, _column_tiles, columns_fit, construction_columns,
                        construction_rows, dimensions, has_dimensions)

MAGIC = "cfcode v1"
# Bytes of data lines moved per string operation when writing rows, and per
# read call when reading.
BLOCK_CHARS = 1 << 15
# The widest construction written from its columns. A block costs a format
# and a stride assignment per column on that side and a format per row on
# the other; the two sides took the same time between 224 and 288 columns.
COLUMN_WRITE_MAX_COLS = 256

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
    _write(path, matrix.num_rows, matrix.num_cols, params,
           _row_blocks(matrix.rows, matrix.num_cols))


def write_construction(params: CodeParams, path: str | Path) -> None:
    """Write the matrix of ``params``, with its provenance comment, as it is
    built, from the blocks of _construction_blocks; read_matrix recognises
    the file by comparing its data lines with the same blocks."""
    dims = dimensions(params)
    _write(path, dims.num_rows, dims.num_cols, params, _construction_blocks(params))


def _construction_blocks(params: CodeParams) -> Iterator[bytes]:
    """The data lines of the matrix of ``params``, a block at a time: from
    construction_columns when it has at most COLUMN_WRITE_MAX_COLS columns
    and columns_fit holds, otherwise from construction_rows. No row list is
    held either way."""
    dims = dimensions(params)
    if dims.num_cols <= COLUMN_WRITE_MAX_COLS and columns_fit(params):
        return _column_blocks(construction_columns(params), dims.num_rows)
    return _row_blocks(construction_rows(params), dims.num_cols)


def _write(path: str | Path, num_rows: int, t: int, params: CodeParams | None,
           blocks: Iterable[bytes]) -> None:
    header = f"{MAGIC}\n{num_rows} {t}\n"
    if params is not None:
        header += f"# n={params.n} k={params.k} s={params.s} l={params.ell}\n"
    with open(path, "wb") as fh:
        fh.write(header.encode())
        fh.writelines(blocks)


def _row_blocks(rows: Iterable[int], t: int) -> Iterator[bytes]:
    """The data lines of ``rows``, a block of about BLOCK_CHARS bytes at a
    time: the block's rows are formatted last row first and the joined
    string is reversed once, which puts the rows in order with column 0
    first."""
    fmt = f"0{t}b"
    step = max(1, BLOCK_CHARS // (t + 1))
    rows = iter(rows)
    while block := list(itertools.islice(rows, step)):
        # format() writes "0" even at width 0, so zero-column rows are set out as "".
        lines = [format(r, fmt) for r in reversed(block)] if t else [""] * len(block)
        yield ("\n" + "\n".join(lines))[::-1].encode()


def _column_blocks(cols: Iterable[int], num_rows: int) -> Iterator[bytearray]:
    """The data lines of the matrix with columns ``cols``, one tile of
    _column_tiles at a time, with no row built. Column j's piece of a block
    is formatted once, last row first, and put in place j of every line,
    from the last line back, by one stride assignment: the slice read_matrix
    parses."""
    for span, pieces in _column_tiles(cols, num_rows):
        width = len(pieces) + 1
        fmt, last = f"0{span}b", (span - 1) * width
        buf = bytearray(b"\n" * (span * width))
        for j, bits in enumerate(pieces):
            buf[last + j::-width] = format(bits, fmt).encode()
        yield buf


def _decimal(digits: str, line: int) -> int:
    """A run of decimal digits from line ``line`` as an int. Past the
    interpreter's limit on digits converted (sys.set_int_max_str_digits),
    a MatrixFormatError at that line."""
    try:
        return int(digits)
    except ValueError as exc:
        raise MatrixFormatError(str(exc), line=line) from None


def _text(data: bytes) -> str:
    """Bytes of the file as text for a message or a header check: a byte
    outside ASCII is the lone surrogate the reader decoded it to, one
    character out of place."""
    return data.decode("ascii", "surrogateescape")


def _bytes(text: str) -> bytes:
    """Text read from the file back as its bytes, for checks and slices."""
    return text.encode("ascii", "surrogateescape")


def _line(fh: TextIO, number: int, head: bytes = b"") -> bytes:
    """``head`` and the rest of its line from ``fh``, as bytes; b"" at the
    end of the file. A line the file ends inside is a MatrixFormatError at
    line ``number``."""
    line = head + _bytes(fh.readline())
    if line and not line.endswith(b"\n"):
        raise MatrixFormatError("missing final newline", line=number)
    return line


def _read(fh: TextIO, size: int) -> bytes:
    """The next ``size`` characters as bytes, fewer at the end of the file.
    They are read and encoded BLOCK_CHARS at a time and joined, so a block
    takes memory only as the file fills it."""
    pieces = []
    while size > 0 and (piece := fh.read(min(size, BLOCK_CHARS))):
        pieces.append(_bytes(piece))
        size -= len(piece)
    return b"".join(pieces)


def provenance_params(provenance: dict[str, int] | None) -> CodeParams | None:
    """The params a file's provenance header names, or None when it has none
    or they are invalid. Building them warns of nothing: the header is only
    a hint, for recognising a generated file and choosing the scan mode."""
    if provenance is None:
        return None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ParameterWarning)
        try:
            return CodeParams(**provenance)
        except ParameterError:
            return None


def read_matrix(path: str | Path) -> tuple[BitMatrix, dict[str, int] | None]:
    """Read a matrix file into its columns; returns the matrix and any
    provenance parameters.

    The file is read as ASCII text with surrogateescape, so universal
    newlines end a line at "\\r\\n" and a lone "\\r" as at "\\n", and a
    byte outside ASCII is one lone surrogate; what is read is encoded back
    to its bytes. Header and comment lines are read one at a time. A file
    whose header names a code of the size line's dimensions with
    columns_fit is first compared, a block at a time as it is read, with
    the bytes write_construction writes for that code; if they match to the
    end of the file, its columns are construction_columns and no data line
    is parsed. Any other file is parsed by _parse_rows, which alone raises
    MatrixFormatError, naming the first offending line.
    """
    provenance: dict[str, int] | None = None
    with open(path, encoding="ascii", errors="surrogateescape") as fh:
        line = _text(_line(fh, 1))
        if not line:
            raise MatrixFormatError("missing header", line=1)
        if line[:-1] != MAGIC:
            raise MatrixFormatError(f"expected header {MAGIC!r}, got {line[:-1]!r}", line=1)
        line = _text(_line(fh, 2))
        if not line:
            raise MatrixFormatError("missing header", line=2)
        parts = line[:-1].split(" ")
        if len(parts) != 2 or not all(p.isdigit() for p in parts):
            raise MatrixFormatError(
                f"expected '<rows> <cols>' in decimal, got {line[:-1]!r}", line=2)
        num_rows, t = _decimal(parts[0], 2), _decimal(parts[1], 2)
        number = 2  # lines before the first data line
        block = _line(fh, 3)
        while block.startswith(b"#"):
            line = _text(block)
            if not line.isascii():
                raise MatrixFormatError(f"expected ASCII text, got {line[:-1]!r}",
                                        line=number + 1)
            found = _PROVENANCE.search(line)
            if found:
                provenance = {key: _decimal(value, number + 1)
                              for key, value in zip(("n", "k", "s", "ell"), found.groups())}
            number += 1
            block = _line(fh, number + 1)
        params = provenance_params(provenance)
        # has_dimensions first: its capped binomials refuse a header naming a
        # larger code before columns_fit builds any binomial of it. The code
        # is built only for a file long enough to hold it, on a stream that
        # can seek back to the data lines.
        if (params is not None and has_dimensions(params, num_rows, t) and columns_fit(params)
                and fh.seekable() and os.fstat(fh.fileno()).st_size >= num_rows * (t + 1)):
            start = fh.tell()
            if _is_written(fh, block, params):
                return BitMatrix.from_columns(num_rows, t, construction_columns(params)), provenance
            fh.seek(start)
        return _parse_rows(fh, block, num_rows, t, number), provenance


def _is_written(fh: TextIO, head: bytes, params: CodeParams) -> bool:
    """Whether ``head``, the first data line, and the rest of ``fh`` are the
    data lines write_construction writes for ``params``, byte for byte. Each
    block of _construction_blocks is compared with as much of the file, read
    as _read reads it; the first block that differs ends the compare."""
    for block in _construction_blocks(params):
        got, head = head[:len(block)], head[len(block):]
        if got + _read(fh, len(block) - len(got)) != block:
            return False
    return not head and not fh.read(1)


def _parse_rows(fh: TextIO, block: bytes, num_rows: int, t: int, number: int) -> BitMatrix:
    """Parse the data lines of a file with ``num_rows`` rows of ``t``
    columns straight into columns. ``block`` is the first data line, which
    is line ``number + 1``, and ``fh`` is just past it.

    Data lines are read a block of whole rows at a time: as many rows of t
    columns as fit in BLOCK_CHARS characters, but at least
    min(ceil(t/2), TRANSPOSE_BLOCK_ROWS), so a block costs about two column
    slices per row up to t = 4096 and holds no more than
    max(BLOCK_CHARS, TRANSPOSE_BLOCK_ROWS * (t+1)) bytes. A block is checked
    whole. Column j of it is then its stride-(t+1) slice from the last row's
    character j back to the first row's, so one int(., 2) puts the first row
    lowest, and it is ORed into column j at the block's first row. Only the
    columns and one block's text are held (two or three copies of it while
    it is read and checked), and no column is allocated before a block has
    passed its check.
    Only a block that fails its check is split into lines, to name the
    offending one. A data line count that does not match the header is
    reported at the first data line, ahead of any malformed row. A non-ASCII
    byte fails its line's check like any other character out of place.
    """
    first_data = number + 1
    width = t + 1
    # Whole rows per block once the first data line has shown that rows of
    # that width are really there; a block that ends inside a row is
    # finished by _line.
    size = (width * max(BLOCK_CHARS // width, min((t + 1) // 2, TRANSPOSE_BLOCK_ROWS))
            if len(block) == width else BLOCK_CHARS)
    block += _read(fh, size)
    cols = None
    bad = None
    while block:
        if not block.endswith(b"\n"):
            block = _line(fh, number + block.count(b"\n") + 1, block)
        count = block.count(b"\n")
        if bad is None:
            if (len(block) == count * width and not block[t::width].strip(b"\n")
                    and not block.translate(None, b"01\n")):
                if cols is None:
                    cols = [0] * t
                last, start = len(block) - width, number + 1 - first_data
                for j in range(t):
                    cols[j] |= int(block[last + j::-width], 2) << start
            else:
                i, text = next((i, text) for i, text in enumerate(block.split(b"\n"), 1)
                               if len(text) != t or text.strip(b"01"))
                bad = MatrixFormatError(
                    f"expected exactly {t} characters from {{0,1}}, got {_text(text)!r}",
                    line=number + i)
                size = BLOCK_CHARS  # the rest is only counted
        number += count
        block = b""  # let go of this block's text before reading the next
        block = _read(fh, size)
    found_rows = number + 1 - first_data
    if found_rows != num_rows:
        raise MatrixFormatError(
            f"expected {num_rows} data lines, found {found_rows}", line=first_data)
    if bad is not None:
        raise bad
    if cols is None:  # no data lines
        return BitMatrix(0, t)
    return BitMatrix.from_columns(num_rows, t, cols)
