"""The subset-containment code family: parameter validation, the entry rule,
row/column addressing, dense materialization, and size formulas.

A code instance is defined by (n, k, s, ell). Columns are the k-subsets of
[n]; rows are the unordered families of ell distinct s-subsets of [n]. The
entry at (row, column) is 1 exactly when at least one family member is
contained in the column subset. Rows and columns are addressed by 0-based
colex ranks, so every entry can be answered without building the matrix.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .combinatorics import KSubset, binomial, colex_rank, colex_subsets, colex_unrank

# Default cap on materialized matrix size, in bits.
MATERIALIZE_BIT_BUDGET = 1 << 30
# Rows per block of the bulk column transpose; bounds its scratch string.
TRANSPOSE_BLOCK_ROWS = 2048


class ParameterError(ValueError):
    """Invalid code parameters; ``constraint`` names the violated inequality."""

    def __init__(self, constraint: str, message: str) -> None:
        super().__init__(message)
        self.constraint = constraint


class ParameterWarning(UserWarning):
    """Parameters are accepted but sit outside the construction's intended range."""


class BudgetError(RuntimeError):
    """Materialization or a scan would exceed the configured budget."""


@dataclass(frozen=True)
class CodeParams:
    """The quadruple (n, k, s, ell) defining one code instance, checked once
    on construction, so an invalid instance cannot exist.

    Raises ParameterError naming the violated constraint. Emits a
    ParameterWarning, attributed to the line that builds the params, for
    tuple lengths at the degenerate edges (ell = 1, or ell + s equal to the
    column count), which are accepted but weaker than the construction is
    designed for.
    """

    n: int
    k: int
    s: int
    ell: int

    def __post_init__(self) -> None:
        n, k, s, ell = self.n, self.k, self.s, self.ell
        if s < 1:
            raise ParameterError("s >= 1", f"need s >= 1, got s={s}")
        if not s < k:
            raise ParameterError("s < k", f"need s < k, got s={s}, k={k}")
        if not k < n:
            raise ParameterError("k < n", f"need k < n, got k={k}, n={n}")
        if ell < 1:
            raise ParameterError("ell >= 1", f"need ell >= 1, got ell={ell}")
        # 0 < k < n gives C(n,k) >= n, so only ell + s >= n can reach the column count.
        at_edge = False
        if ell + s >= n:
            t = binomial(n, k)
            if ell + s > t:
                raise ParameterError(
                    "ell + s <= C(n,k)",
                    f"need ell + s <= C(n,k), got {ell}+{s} > C({n},{k})={t}")
            at_edge = ell + s == t
        # 0 < s < n gives C(n,s) >= n, so only ell > n can exceed the member count.
        if ell > n:
            _require_members(n, s, ell)
        # stacklevel 3 skips the generated __init__ to the caller's line.
        if ell == 1:
            warnings.warn(ParameterWarning(
                f"ell=1 is the degenerate single-subset case for {self}"), stacklevel=3)
        elif at_edge:
            warnings.warn(ParameterWarning(
                f"ell + s equals the column count C({n},{k})={t}; "
                f"{self} sits at the edge of the usable range"), stacklevel=3)


def _require_members(n: int, s: int, ell: int) -> None:
    # A row label holds ell distinct s-subsets of [n], so past C(n,s) no row exists.
    m = binomial(n, s)
    if ell > m:
        raise ParameterError(
            "ell <= C(n,s)", f"need ell <= C(n,s), got ell={ell} > C({n},{s})={m}")


@dataclass(frozen=True)
class CodeDimensions:
    """Exact matrix sizes and the derived per-column statistics."""

    num_rows: int
    num_cols: int
    column_weight: int
    rate: float


@dataclass(frozen=True)
class RowLabel:
    """An unordered family of equal-size subsets labelling one row.

    Members are canonicalized to increasing colex-rank order on construction;
    duplicate members are rejected.
    """

    subsets: tuple[KSubset, ...]

    def __post_init__(self) -> None:
        members = tuple(self.subsets)
        if not members:
            raise ValueError("row label needs at least one subset")
        ground = members[0].ground_size
        size = len(members[0])
        for m in members:
            if m.ground_size != ground:
                raise ValueError("row label mixes ground set sizes")
            if len(m) != size:
                raise ValueError("row label mixes subset sizes")
        ranked = sorted((colex_rank(m), i) for i, m in enumerate(members))
        for (a, _), (b, _) in zip(ranked, ranked[1:]):
            if a == b:
                raise ValueError("row label subsets must be pairwise distinct")
        object.__setattr__(self, "subsets", tuple(members[i] for _, i in ranked))

    def __len__(self) -> int:
        return len(self.subsets)

    def __iter__(self) -> Iterator[KSubset]:
        return iter(self.subsets)

    def __str__(self) -> str:
        return ",".join(str(m) for m in self.subsets)


class BitMatrix:
    """Dense binary matrix, one bit-packed int per row (bit j = column j)."""

    __slots__ = ("num_rows", "num_cols", "rows")

    def __init__(self, num_rows: int, num_cols: int, rows: Sequence[int] | None = None) -> None:
        if num_rows < 0 or num_cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if rows is None:
            rows = [0] * num_rows
        if len(rows) != num_rows:
            raise ValueError(f"expected {num_rows} rows, got {len(rows)}")
        limit = 1 << num_cols
        for i, r in enumerate(rows):
            if not 0 <= r < limit:
                raise ValueError(f"row {i} does not fit in {num_cols} columns")
        self.num_rows = num_rows
        self.num_cols = num_cols
        self.rows = list(rows)

    def _check_index(self, i: int, j: int) -> None:
        if not 0 <= i < self.num_rows:
            raise IndexError(f"row index {i} outside [0, {self.num_rows})")
        if not 0 <= j < self.num_cols:
            raise IndexError(f"column index {j} outside [0, {self.num_cols})")

    def get(self, i: int, j: int) -> int:
        self._check_index(i, j)
        return (self.rows[i] >> j) & 1

    def set(self, i: int, j: int, bit: int) -> None:
        self._check_index(i, j)
        if bit not in (0, 1):
            raise ValueError(f"bit must be 0 or 1, got {bit}")
        mask = 1 << j
        self.rows[i] = (self.rows[i] & ~mask) | (bit << j)

    def columns(self) -> list[int]:
        """Every column packed into an int (bit i = row i). A block of rows,
        last row first, is formatted as one string of binary numerals;
        column j is its stride-``num_cols`` slice from ``num_cols - 1 - j``."""
        t = self.num_cols
        fmt = f"0{t}b"
        cols = [0] * t
        for start in range(0, self.num_rows, TRANSPOSE_BLOCK_ROWS):
            block = self.rows[start:start + TRANSPOSE_BLOCK_ROWS]
            bits = "".join([format(r, fmt) for r in reversed(block)])
            for j in range(t):
                cols[j] |= int(bits[t - 1 - j::t], 2) << start
        return cols

    def column_sums(self) -> list[int]:
        return [c.bit_count() for c in self.columns()]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitMatrix):
            return NotImplemented
        return (self.num_rows == other.num_rows
                and self.num_cols == other.num_cols
                and self.rows == other.rows)

    __hash__ = None  # mutable

    def __repr__(self) -> str:
        return f"BitMatrix({self.num_rows}x{self.num_cols})"


def _require_column(params: CodeParams, col: KSubset) -> None:
    if col.ground_size != params.n:
        raise ValueError(
            f"column ground set [{col.ground_size}] does not match n={params.n}")
    if len(col) != params.k:
        raise ValueError(f"column must have {params.k} elements, got {len(col)}")


def _require_row_label(params: CodeParams, row: RowLabel) -> None:
    if len(row) != params.ell:
        raise ValueError(f"row label must have {params.ell} subsets, got {len(row)}")
    first = row.subsets[0]
    if first.ground_size != params.n:
        raise ValueError(
            f"row label ground set [{first.ground_size}] does not match n={params.n}")
    if len(first) != params.s:
        raise ValueError(
            f"row label subsets must have {params.s} elements, got {len(first)}")


def entry(params: CodeParams, row: RowLabel, col: KSubset) -> int:
    """The defining rule: 1 iff at least one row subset is contained in col."""
    _require_column(params, col)
    _require_row_label(params, row)
    colset = set(col.elements)
    for member in row.subsets:
        if all(e in colset for e in member.elements):
            return 1
    return 0


def row_label_from_rank(params: CodeParams, rank: int) -> RowLabel:
    """Decode a 0-based row rank into its label.

    Two-level unranking: the rank picks an ell-subset of s-subset indices in
    colex order, and each index unranks to an s-subset of [n]. A rank out of
    range raises ValueError from colex_unrank.
    """
    m = binomial(params.n, params.s)
    indices = colex_unrank(rank, params.ell, m)
    members = tuple(colex_unrank(e - 1, params.s, params.n) for e in indices.elements)
    return RowLabel(members)


def row_rank_from_label(params: CodeParams, row: RowLabel) -> int:
    """Inverse of row_label_from_rank."""
    _require_row_label(params, row)
    m = binomial(params.n, params.s)
    index_subset = KSubset(tuple(colex_rank(member) + 1 for member in row.subsets), m)
    return colex_rank(index_subset)


def column_from_rank(params: CodeParams, rank: int) -> KSubset:
    """Decode a 0-based column rank into its k-subset; a rank out of range
    raises ValueError from colex_unrank."""
    return colex_unrank(rank, params.k, params.n)


def column_rank(params: CodeParams, col: KSubset) -> int:
    """Inverse of column_from_rank."""
    _require_column(params, col)
    return colex_rank(col)


def _rate(num_cols: int, num_rows: int) -> float:
    log2_cols = math.log2(num_cols)
    try:
        return log2_cols / num_rows
    except OverflowError:
        # num_rows exceeds float range; scale through an exact fraction.
        return float(Fraction(log2_cols) / num_rows)


def dimensions(params: CodeParams) -> CodeDimensions:
    """Exact row/column counts, the per-column weight, and the code rate.

    The weight counts row labels with at least one member inside a fixed
    column, by complement: families drawn entirely from the subsets not
    contained in the column never hit it.
    """
    n, k, s, ell = params.n, params.k, params.s, params.ell
    m = binomial(n, s)
    num_rows = binomial(m, ell)
    num_cols = binomial(n, k)
    column_weight = num_rows - binomial(m - binomial(k, s), ell)
    return CodeDimensions(num_rows, num_cols, column_weight, _rate(num_cols, num_rows))


def column_masks(n: int, k: int) -> list[int]:
    """The element bitmask (bit e for element e) of every k-subset of [n], in colex order."""
    return [sum(1 << e for e in c) for c in colex_subsets(k, n)]


def _families(member_bits: list[int], level: list[int], held: int, size: int,
              hi: int) -> Iterator[int]:
    """The ORs of the size-families of the first hi members, in colex order;
    ``level`` lists those of all held-families."""
    if size == held:
        return itertools.islice(level, math.comb(hi, size))
    return (prev | member_bits[e - 1] for e in range(size, hi + 1)
            for prev in _families(member_bits, level, held, size - 1, e - 1))


def construction_rows(params: CodeParams) -> Iterator[int]:
    """Every row of the matrix as a bit-packed int, in rank order, without
    holding the matrix.

    A member's column pattern is the AND of its elements' patterns, and a
    row is the OR of its members' patterns. Rows are built level by level
    with one OR each: a j-family whose last member is e is a (j-1)-family of
    the first e-1 members plus e, and those (j-1)-families are the first
    C(e-1, j-1) entries of level j-1. Levels up to min(ell-1, C(n,s)-ell) are
    lists, none longer than the row count, and only the last is kept; the
    levels above it are walked as nested generators.
    """
    masks = column_masks(params.n, params.k)
    holding = BitMatrix(len(masks), params.n + 1, masks).columns()
    member_bits = [functools.reduce(int.__and__, map(holding.__getitem__, sub))
                   for sub in colex_subsets(params.s, params.n)]
    m, ell = len(member_bits), params.ell
    held = min(ell - 1, m - ell)
    level = [0]
    for j in range(1, held + 1):
        level = [prev | member_bits[e - 1] for e in range(j, m + 1)
                 for prev in itertools.islice(level, math.comb(e - 1, j - 1))]
    return _families(member_bits, level, held, ell, m)


def materialize(params: CodeParams, *, max_bits: int = MATERIALIZE_BIT_BUDGET) -> BitMatrix:
    """Build the full matrix, rows and columns in rank order.

    Refuses with BudgetError when the total bit count exceeds ``max_bits``;
    larger instances should be queried through entry() instead.
    """
    dims = dimensions(params)
    num_rows, num_cols = dims.num_rows, dims.num_cols
    needed = num_rows * num_cols
    if needed > max_bits:
        raise BudgetError(f"matrix needs {needed} bits, budget allows {max_bits}")
    return BitMatrix(num_rows, num_cols, list(construction_rows(params)))


def best_k(n: int, s: int, ell: int) -> tuple[int, int]:
    """The admissible k maximizing the column count, with that count.

    C(n, k) is unimodal with its first maximum at n//2, so over s < k < n it
    peaks at k* = max(n//2, s+1), ties going to the smaller k. Some k is
    admissible iff k* < n, ell + s <= C(n, k*) and ell <= C(n, s).
    """
    if s < 1:
        raise ParameterError("s >= 1", f"need s >= 1, got s={s}")
    if ell < 1:
        raise ParameterError("ell >= 1", f"need ell >= 1, got ell={ell}")
    k = max(n // 2, s + 1)
    t = binomial(n, k) if k < n else 0
    if ell + s > t:
        raise ParameterError(
            "admissible k exists",
            f"no k with s < k < n and ell + s <= C(n,k) for n={n}, s={s}, ell={ell}")
    if ell > n:
        _require_members(n, s, ell)
    return k, t


def asymptotic_estimates(n: int, s: int, ell: int) -> float:
    """Leading-order row count estimate n**(s*ell) / (s!**ell * ell!), a
    reference value for reports, not an exact claim; math.inf when it
    exceeds float range.
    """
    if n < 1 or s < 1 or ell < 1:
        raise ValueError(f"need positive n, s, ell, got ({n}, {s}, {ell})")
    denominator = math.factorial(s) ** ell * math.factorial(ell)
    try:
        # Integer true division is correctly rounded; it raises only when the
        # quotient itself is past float range.
        return n ** (s * ell) / denominator
    except OverflowError:
        return math.inf
