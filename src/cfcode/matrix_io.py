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

import contextlib
import itertools
import math
import os
import re
import stat
import warnings
from functools import reduce
from pathlib import Path
from typing import Iterable, Iterator, TextIO

from .code_core import (TRANSPOSE_BLOCK_ROWS, BitMatrix, CodeParams, ParameterError,
                        ParameterWarning, _member_unions, column_masks, dimensions,
                        has_dimensions)
from .combinatorics import colex_subsets

MAGIC = "cfcode v1"
# Bytes of data lines moved per string operation when writing rows, and per
# read call when reading.
BLOCK_CHARS = 1 << 15
# The widest ell >= 2 code written level by level: each level costs a stride
# assignment per column holding each member, and holds t+1 bytes a line.
LEVEL_WRITE_MAX_COLS = 256

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
    """Write the matrix; a provenance comment is added when params is given.
    A matrix whose ``construction`` is set, as BitMatrix.of_construction
    makes for gen and read_matrix returns for a generated file, is written
    from _construction_blocks, with no row built.

    An existing file is written over in place, not truncated first, so its
    inode, mode and hard links are kept and its blocks are not freed and
    allocated again. When the write ends, or raises, a regular file is cut
    at the written length, so it holds the new output, or a prefix of it,
    and nothing of the old file; a device or FIFO is not cut. A new file
    gets open()'s mode 0o666 under the umask."""
    blocks = (_row_blocks(matrix.rows, matrix.num_cols) if matrix.construction is None
              else _construction_blocks(matrix.construction))
    header = f"{MAGIC}\n{matrix.num_rows} {matrix.num_cols}\n"
    if params is not None:
        header += f"# n={params.n} k={params.k} s={params.s} l={params.ell}\n"
    with open(path, "wb", opener=lambda p, f: os.open(p, f & ~os.O_TRUNC, 0o666)) as fh:
        try:
            fh.write(header.encode())
            fh.writelines(blocks)
        finally:
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate()


def _construction_blocks(params: CodeParams) -> Iterator[bytearray]:
    """The data lines of the matrix of ``params``, a block at a time, with no
    row list held: the member patterns at ell = 1, at every width
    (_top_first_blocks); at ell >= 2, _level_blocks up to
    LEVEL_WRITE_MAX_COLS columns, else _union_blocks. A block of rows holds
    as many as fit in BLOCK_CHARS and is formatted by one bin() in _lines."""
    t = dimensions(params).num_cols
    step = max(1, BLOCK_CHARS // (t + 1))
    if params.ell == 1:
        return _top_first_blocks(_member_patterns(params), step, t)
    if t <= LEVEL_WRITE_MAX_COLS:
        return _level_blocks(params)
    return _union_blocks(list(_member_patterns(params)), params.ell, step, t)


def _row_blocks(rows: Iterable[int], t: int) -> Iterator[bytes]:
    """The data lines of write_matrix's ``rows`` (bit j = column j), a block
    of about BLOCK_CHARS bytes at a time: the block's rows are formatted last
    row first and the joined string is reversed once, which puts the rows in
    order with column 0 first."""
    fmt = f"0{t}b"
    step = max(1, BLOCK_CHARS // (t + 1))
    rows = iter(rows)
    while block := list(itertools.islice(rows, step)):
        # format() writes "0" even at width 0, so zero-column rows are set out as "".
        lines = [format(r, fmt) for r in reversed(block)] if t else [""] * len(block)
        yield ("\n" + "\n".join(lines))[::-1].encode()


def _member_patterns(params: CodeParams) -> Iterator[int]:
    """The column pattern of each of the C(n,s) members of ``params``, in
    colex order, streamed: column 0 is the top bit of the t columns, under
    a sentinel bit 1 << t, so bin() of a pattern, or of an OR of patterns,
    is "0b1" and then the data line. A member's pattern is the AND of its
    elements' patterns, and element e's is the stride slice of
    column_masks' numerals that holds bit e of each mask, after a "1" for
    the sentinel."""
    n, masks = params.n, column_masks(params.n, params.k)
    numerals = "".join([format(mask, f"0{n + 1}b") for mask in masks])
    element = [int("1" + numerals[n - e::n + 1], 2) for e in range(n + 1)]
    return (reduce(int.__and__, map(element.__getitem__, sub))
            for sub in colex_subsets(params.s, n))


def _top_first_blocks(rows: Iterable[int], step: int, t: int) -> Iterator[bytearray]:
    """The data lines of ``rows``, patterns as _member_patterns sets them
    out, ``step`` rows a block, each block _stacked and written by _lines."""
    rows = iter(rows)
    while block := list(itertools.islice(rows, step)):
        yield _lines(_stacked(block, t + 1), len(block), t)


def _union_blocks(patterns: list[int], ell: int, step: int, t: int) -> Iterator[bytearray]:
    """The rows of the ell-subsets of the members, ell >= 2, in colex order,
    ``step`` a block as _lines writes them. The rows whose top member is c
    are the first C(c,ell-1) unions of (ell-1)-subsets of the members below
    c (code_core._member_unions with s = 1), each ORed with c's pattern.
    Those unions are _stacked once, ``step`` to a window, and only the
    windows are held, about the bits of the unions. A block's rows of top
    member c are rows of one window or of two adjacent ones, ORed with c's
    pattern repeated over at least as many rows."""
    width = t + 1
    lower = _member_unions(patterns, 1, len(patterns) - 1, ell - 1)
    windows = []
    while rows := list(itertools.islice(lower, step)):
        windows.append(_stacked(rows, width) << (step - len(rows)) * width)
    block = held = 0
    for c in range(ell - 1, len(patterns)):
        size = math.comb(c, ell - 1)
        rep, reps = patterns[c], 1
        while reps < min(size, step):
            rep |= rep << reps * width
            reps *= 2
        # Pieces end where blocks do, so every piece but the first starts
        # at row step - held of a window: the mask keeps that window's rows
        # from there down.
        mask = (1 << held * width) - 1
        for a in range(-held, size, step):
            lo, hi = max(a, 0), min(size, a + step)
            w, top = divmod(lo, step)
            window = windows[w] & mask if top else windows[w]
            end = top + hi - lo
            piece = (window >> (step - end) * width if end <= step else
                     window << (end - step) * width | windows[w + 1] >> (2 * step - end) * width)
            piece |= rep >> (reps - hi + lo) * width
            block = block << (hi - lo) * width | piece if held else piece
            held += hi - lo
            if held == step:
                yield _lines(block, step, t)
                held = 0
    if held:
        yield _lines(block, held, t)


def _stacked(rows: list[int], width: int) -> int:
    """``rows`` of ``width`` bits in one int, the first on top. Adjacent
    runs are joined in pairs, each round doubling the rows a run holds, so
    each bit moves about log2(len(rows)) times."""
    rows = rows[::-1]
    while len(rows) > 1:
        pairs = zip(rows[::2], rows[1::2])
        rows = [low | high << width for low, high in pairs] + rows[len(rows) & ~1:]
        width *= 2
    return rows[0]


def _lines(block: int, count: int, t: int) -> bytearray:
    """The data lines of the ``count`` rows of ``t`` columns stacked
    top-first in ``block``, each under its sentinel bit: bin(block << 1 | 1)
    gives a 1 where each line ends, and one stride assignment makes those
    newlines."""
    text = bytearray(bin(block << 1 | 1).encode())
    del text[:3]  # "0b" and the first sentinel
    text[t::t + 1] = b"\n" * count
    return text


def _level_blocks(params: CodeParams) -> Iterator[bytearray]:
    """The data lines of the matrix of ``params``, ell >= 2, as text level
    by level. Level 1 is the m = C(n,s) member lines of _member_patterns.
    Level j's families with top member c are level j-1's first C(c,j-1)
    lines with 1s strided into c's columns. Each level grows in one buffer;
    level ell is yielded a window at a time."""
    ell, patterns = params.ell, _member_patterns(params)
    lines = [bin(v)[3:] for v in patterns]
    width = len(lines[0]) + 1
    holds = [[col for col, bit in enumerate(line) if bit == "1"] for line in lines]
    level, m = bytearray("\n".join(lines) + "\n", "ascii"), len(lines)
    for j in range(2, ell + 1):
        lower, level = level, bytearray()
        for c in range(j - 1, m - ell + j):
            at, size = math.comb(c, j), math.comb(c, j - 1)
            # Pieces end where the level's windows of TRANSPOSE_BLOCK_ROWS lines do.
            for a in range(-(at % TRANSPOSE_BLOCK_ROWS), size, TRANSPOSE_BLOCK_ROWS):
                if j == ell and len(level) == TRANSPOSE_BLOCK_ROWS * width:
                    yield level
                    level = bytearray()
                lo, hi, start = max(a, 0), min(size, a + TRANSPOSE_BLOCK_ROWS), len(level)
                level += lower[lo * width:hi * width]
                ones = b"1" * (hi - lo)
                for col in holds[c]:
                    level[start + col::width] = ones
    yield level


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
    """Read a matrix file, a generated one by name and any other into its
    columns; returns the matrix and any provenance parameters.

    The file is read as ASCII text with surrogateescape, so universal
    newlines end a line at "\\r\\n" and a lone "\\r" as at "\\n", and a
    byte outside ASCII is one lone surrogate; what is read is encoded back
    to its bytes. Header and comment lines are read one at a time. A file
    whose header names a code of the size line's dimensions is first
    compared, a block at a time as it is read, with the blocks
    _construction_blocks gives write_matrix; if they match to the end, the
    file is that code, returned by BitMatrix.of_construction with no bit
    built and no data line parsed. Any other file, or one that failed the
    compare, is parsed by _parse_rows, which alone raises MatrixFormatError
    naming the first offending line. A stream that cannot seek back is
    compared on a copy.
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
        # has_dimensions' capped binomials refuse a header naming a larger
        # code before any binomial of it is built. The writer's bytes are
        # built only for a file long enough to hold them.
        if params is None or not has_dimensions(params, num_rows, t):
            return _parse_rows(fh, block, num_rows, t, number), provenance
        with contextlib.nullcontext(fh) if fh.seekable() else _copy(fh, block) as data:
            if os.fstat(data.fileno()).st_size >= num_rows * (t + 1):
                start = data.tell()
                if _is_written(data, block, params):
                    return BitMatrix.of_construction(params), provenance
                data.seek(start)
            return _parse_rows(data, block, num_rows, t, number), provenance


@contextlib.contextmanager
def _copy(fh: TextIO, head: bytes) -> Iterator[TextIO]:
    """``head`` and the rest of ``fh`` in a temporary file, positioned past ``head``."""
    import shutil
    import tempfile
    with tempfile.TemporaryFile("w+", encoding="ascii", errors="surrogateescape") as copy:
        copy.write(_text(head))
        start = copy.tell()
        shutil.copyfileobj(fh, copy, BLOCK_CHARS)
        copy.seek(start)
        yield copy


def _is_written(fh: TextIO, head: bytes, params: CodeParams) -> bool:
    """Whether ``head``, the first data line, and the rest of ``fh`` are the
    data lines write_matrix writes for the construction of ``params``, byte
    for byte. Each block of _construction_blocks is compared with as much of
    the file, read as _read reads it; the first block that differs ends the
    compare."""
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
