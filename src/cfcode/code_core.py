"""The subset-containment code family: parameter validation, the entry rule,
row/column addressing, dense materialization, and size formulas.

A code instance is defined by (n, k, s, ell). Columns are the k-subsets of
[n]; rows are the unordered families of ell distinct s-subsets of [n]. The
entry at (row, column) is 1 exactly when at least one family member is
contained in the column subset. Rows and columns are addressed by 0-based
colex ranks, so every entry can be answered without building the matrix.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
import warnings
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .combinatorics import (KSubset, binomial, capped_binomial, colex_rank, colex_subsets,
                            colex_unrank)

# Default cap on materialized matrix size, in bits.
MATERIALIZE_BIT_BUDGET = 1 << 30
# Ints per block, and bits per window of each, of the bulk transpose; together
# they bound its scratch string.
TRANSPOSE_BLOCK_ROWS = 2048
TRANSPOSE_WINDOW_BITS = 4096


class ParameterError(ValueError):
    """Invalid code parameters; ``constraint`` names the violated inequality."""

    def __init__(self, constraint: str, message: str) -> None:
        super().__init__(message)
        self.constraint = constraint


class ParameterWarning(UserWarning):
    """Parameters are accepted but sit outside the construction's intended range."""


class BudgetError(RuntimeError):
    """The matrix has more bits, rows times columns, than the budget allows."""


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
        # C(n,k) is capped just past ell + s: exact wherever the messages show it.
        t = capped_binomial(n, k, ell + s + 1)
        if ell + s > t:
            raise ParameterError(
                "ell + s <= C(n,k)",
                f"need ell + s <= C(n,k), got {ell}+{s} > C({n},{k})={t}")
        # 0 < s < n gives C(n,s) >= n, so only ell > n can exceed the member count.
        if ell > n:
            _require_members(n, s, ell)
        # stacklevel 3 skips the generated __init__ to the caller's line.
        if ell == 1:
            warnings.warn(ParameterWarning(
                f"ell=1 is the degenerate single-subset case for {self}"), stacklevel=3)
        elif ell + s == t:
            warnings.warn(ParameterWarning(
                f"ell + s equals the column count C({n},{k})={t}; "
                f"{self} sits at the edge of the usable range"), stacklevel=3)


def _require_members(n: int, s: int, ell: int) -> None:
    # A row label holds ell distinct s-subsets of [n], so past C(n,s) no row exists.
    m = capped_binomial(n, s, ell)
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
    # The members' colex ranks, in member order, kept for row_rank_from_label.
    _ranks: tuple[int, ...] = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "_ranks", tuple(r for r, _ in ranked))

    def __len__(self) -> int:
        return len(self.subsets)

    def __iter__(self) -> Iterator[KSubset]:
        return iter(self.subsets)

    def __str__(self) -> str:
        return ",".join(str(m) for m in self.subsets)


class BitMatrix:
    """Dense binary matrix held as bit-packed rows (bit j of row i is column
    j), as bit-packed columns (bit i of column j is row i), or as both. It
    keeps the orientation it was built from and derives the other once, on
    first use, by one transpose.

    A matrix made by ``of_construction`` is in a third state: it holds
    neither orientation, only the params in ``construction``; its first
    ``rows`` streams construction_rows, any other first use of a bit builds
    construction_columns once. ``construction`` is the one record that the
    matrix is a code: of_construction and read_matrix set it, set clears it."""

    __slots__ = ("num_rows", "num_cols", "_rows", "_cols", "construction")

    def __init__(self, num_rows: int, num_cols: int, rows: Sequence[int] | None = None) -> None:
        self._rows = _packed([0] * num_rows if rows is None else rows,
                             num_rows, num_cols, "row", "columns")
        self._cols: list[int] | None = None
        self.num_rows = num_rows
        self.num_cols = num_cols
        self.construction: CodeParams | None = None

    @classmethod
    def from_columns(cls, num_rows: int, num_cols: int, cols: Sequence[int]) -> "BitMatrix":
        """The matrix whose column j is ``cols[j]`` (bit i = row i)."""
        matrix = cls.__new__(cls)
        matrix._cols = _packed(cols, num_cols, num_rows, "column", "rows")
        matrix._rows = matrix.construction = None
        matrix.num_rows = num_rows
        matrix.num_cols = num_cols
        return matrix

    @classmethod
    def of_construction(cls, params: CodeParams) -> "BitMatrix":
        """The matrix of ``params``, sized by dimensions(params), no bit built
        yet: verify_cover_free checks it in orbit mode, materialize's in full."""
        dims = dimensions(params)
        matrix = cls.__new__(cls)
        matrix._rows = matrix._cols = None
        matrix.num_rows, matrix.num_cols, matrix.construction = dims.num_rows, dims.num_cols, params
        return matrix

    @property
    def rows(self) -> list[int]:
        """Every row packed into an int (bit j = column j). The list is the
        matrix's own: change bits through set(), which keeps both
        orientations in step."""
        if self._rows is None:
            self._rows = (list(construction_rows(self.construction)) if self._cols is None
                          else _transpose(self._cols, self.num_rows))
        return self._rows

    def columns(self) -> list[int]:
        """Every column packed into an int (bit i = row i); the matrix's own
        list, as for ``rows``."""
        if self._cols is None:
            self._cols = (list(construction_columns(self.construction)) if self._rows is None
                          else _transpose(self._rows, self.num_cols))
        return self._cols

    def _check_index(self, i: int, j: int) -> None:
        if not 0 <= i < self.num_rows:
            raise IndexError(f"row index {i} outside [0, {self.num_rows})")
        if not 0 <= j < self.num_cols:
            raise IndexError(f"column index {j} outside [0, {self.num_cols})")

    def get(self, i: int, j: int) -> int:
        self._check_index(i, j)
        if self._rows is not None:
            return (self._rows[i] >> j) & 1
        return (self.columns()[j] >> i) & 1

    def set(self, i: int, j: int, bit: int) -> None:
        self._check_index(i, j)
        if bit not in (0, 1):
            raise ValueError(f"bit must be 0 or 1, got {bit}")
        if self._rows is None:
            self.columns()
        self.construction = None
        if self._rows is not None:
            self._rows[i] = (self._rows[i] & ~(1 << j)) | (bit << j)
        if self._cols is not None:
            self._cols[j] = (self._cols[j] & ~(1 << i)) | (bit << i)

    def column_sums(self) -> list[int]:
        return [c.bit_count() for c in self.columns()]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitMatrix):
            return NotImplemented
        if (self.num_rows, self.num_cols) != (other.num_rows, other.num_cols):
            return False
        if self._rows is not None and other._rows is not None:
            return self._rows == other._rows
        return self.columns() == other.columns()

    __hash__ = None  # mutable

    def __repr__(self) -> str:
        return f"BitMatrix({self.num_rows}x{self.num_cols})"


def _packed(ints: Sequence[int], count: int, width: int, what: str, unit: str) -> list[int]:
    """``ints`` as a new list, checked to hold ``count`` nonnegative ints of
    at most ``width`` bits each; no ``1 << width`` bound is built."""
    if count < 0 or width < 0:
        raise ValueError("matrix dimensions must be nonnegative")
    ints = list(ints)
    if len(ints) != count:
        raise ValueError(f"expected {count} {what}s, got {len(ints)}")
    if ints and (min(ints) < 0 or max(ints).bit_length() > width):
        i = next(i for i, v in enumerate(ints) if v < 0 or v.bit_length() > width)
        raise ValueError(f"{what} {i} does not fit in {width} {unit}")
    return ints


def _transpose(ints: Iterable[int], width: int) -> list[int]:
    """The ``width`` ints whose int j holds bit j of every one of ``ints``,
    bit i from the i-th int: rows to columns, or columns to rows. ``ints``
    may be any iterable, a stream included: it is taken TRANSPOSE_BLOCK_ROWS
    ints at a time, and only one block is held. A block, last int first, is
    formatted one window of bits at a time as one string of binary numerals;
    int j of the window is its stride slice from the window's last place.
    The string holds at most TRANSPOSE_BLOCK_ROWS * TRANSPOSE_WINDOW_BITS
    characters however wide the ints are."""
    out = [0] * width
    ints = iter(ints)
    start = 0
    while block := list(itertools.islice(ints, TRANSPOSE_BLOCK_ROWS)):
        block.reverse()
        for low in range(0, width, TRANSPOSE_WINDOW_BITS):
            span = min(TRANSPOSE_WINDOW_BITS, width - low)
            fmt, mask = f"0{span}b", (1 << span) - 1
            bits = "".join([format(v >> low & mask, fmt) for v in block])
            for j in range(span):
                out[low + j] |= int(bits[span - 1 - j::span], 2) << start
        start += TRANSPOSE_BLOCK_ROWS
    return out


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
    elements = col.elements
    for member in row.subsets:
        if all(_holds(elements, e) for e in member.elements):
            return 1
    return 0


def _holds(elements: tuple[int, ...], e: int) -> bool:
    """Whether the increasing tuple ``elements`` holds ``e``, by bisection."""
    i = bisect.bisect_left(elements, e)
    return i < len(elements) and elements[i] == e


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
    index_subset = KSubset(tuple(r + 1 for r in row._ranks), m)
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
        # num_rows exceeds float range; scale through an exact fraction. Only
        # this branch needs fractions, so it is imported here, not at startup.
        from fractions import Fraction
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


def has_dimensions(params: CodeParams, num_rows: int, num_cols: int) -> bool:
    """Whether the matrix of ``params`` is ``num_rows`` by ``num_cols``. The
    binomials are capped just past those sizes, so params naming a far
    larger code are refused before any of them grows past the sizes given.
    C(m,ell) is 1 at ell == m and at least m for ell < m, so m past
    max(num_rows, ell) is too big."""
    n, k, s, ell = params.n, params.k, params.s, params.ell
    if capped_binomial(n, k, num_cols + 1) != num_cols:
        return False
    m = capped_binomial(n, s, max(num_rows, ell) + 1)
    return capped_binomial(m, ell, num_rows + 1) == num_rows


def column_masks(n: int, k: int) -> list[int]:
    """The element bitmask (bit e for element e) of every k-subset of [n], in colex order.

    Colex order of the masks is their numeric order, so each follows from the
    one before by Gosper's rule: the top bit of the lowest run of ones moves
    up one place and the rest of that run drops to bit 1.
    """
    if k > n:
        return []
    mask = ((1 << k) - 1) << 1
    last = mask << (n - k)
    masks = [mask]
    while mask != last:
        low = mask & -mask
        raised = mask + low
        mask = raised | ((raised ^ mask) >> low.bit_length() & ~1)
        masks.append(mask)
    return masks


def construction_rows(params: CodeParams) -> Iterator[int]:
    """Every row of the matrix as a bit-packed int, in rank order, without
    holding the matrix.

    A member's column pattern is the AND of its elements' patterns, and a
    row is the OR of its members' patterns. So the rows are _member_unions
    with s = 1 over the C(n,s) members: each ell-subset of them, in colex
    order, ORs the patterns of the members it holds. Its largest held
    level, the unions of the (ell-1)-subsets of the first C(n,s)-1 members,
    is rows * ell / C(n,s) long, below the row count, and the rows
    themselves are streamed.
    """
    masks = column_masks(params.n, params.k)
    holding = _transpose(masks, params.n + 1)
    member_bits = [functools.reduce(int.__and__, map(holding.__getitem__, sub))
                   for sub in colex_subsets(params.s, params.n)]
    return _member_unions(member_bits, 1, len(member_bits), params.ell)


def _member_unions(rows: list[int], s: int, n: int, k: int) -> Iterator[int]:
    """For each k-subset of [n], in colex order, the OR of ``rows[r]`` over
    the s-subsets of rank r that it holds.

    The j-subsets whose largest element is c are the (j-1)-subsets of [c-1]
    plus c. Such a set holds the s-subsets of its (j-1)-subset, and c with
    each of that subset's (s-1)-subsets, which are the s-subsets of rank
    [C(c-1,s), C(c,s)). Level j, for j = s, ..., k, is the unions of the
    j-subsets of [n-k+j]: at j = s each set holds only itself, and the
    (j-1)-subsets of [c-1] are the first C(c-1,j-1) entries of level j-1,
    so one list of that level serves every c. Levels grow with j, so at
    most two are alive at once, the largest held one C(n-1,k-1) long, and
    the top level is streamed. The (s-1)-subset unions recurse on s alone,
    to depth s + 1: at s = 0 every set holds the empty set once.
    """
    if s == 0:
        return itertools.repeat(rows[0], math.comb(n, k))
    level = iter(rows[:math.comb(n - k + s, s)])
    for j in range(s + 1, k + 1):
        level = _unions_by_top(rows, s, list(level), j, n - k + j)
    return level


def _unions_by_top(rows: list[int], s: int, lower: list[int], j: int,
                   m: int) -> Iterator[int]:
    """_member_unions' level j over [m], from ``lower``, the unions of the
    (j-1)-subsets of [m-1]; a parameter, so a level already replaced in the
    caller's loop is not read late."""
    return itertools.chain.from_iterable(
        map(operator.or_, itertools.islice(lower, math.comb(c - 1, j - 1)),
            _member_unions(rows[math.comb(c - 1, s):math.comb(c, s)], s - 1, c - 1, j - 1))
        for c in range(j, m + 1))


def construction_columns(params: CodeParams) -> Iterator[int]:
    """Every column of the matrix as a bit-packed int (bit i = row i), in
    rank order. Where columns_fit holds they are built in closed form, with
    no row built; elsewhere they are the rows of construction_rows,
    transposed a block at a time, so one block of rows is held beside the
    columns.

    The closed form: number the m = C(n,s) members 0, ..., m-1 in colex
    order. The family e_1 < ... < e_ell is the row of rank sum C(e_i, i),
    so the families whose largest member is h form the rank block
    [C(h,ell), C(h+1,ell)).
    The rows holding member e at place i are then C(e,i) + x + y: the
    places below give every x in [0, C(e,i-1)), and the places above give
    the sums y of a set Y. With bit y set for each y in Y, those rows are a
    run of C(e,i-1) ones times that int, shifted by C(e,i); all ranks are
    distinct, so the product has no carries. Y for member e is Y for e+1
    plus the place-(i+1) set for e+1 raised by C(e+1,i+1), so one pass down
    the members builds every member's rows in a few big-int steps. A column
    is the OR of the rows of the C(k,s) members it holds, built by
    _member_unions, the routine construction_rows takes with s = 1;
    besides the m member rows, its two live levels hold at most about
    C(n-1,k-1) + C(n-2,k-2) <= C(n,k-1) partial columns.
    """
    n, k, s, ell = params.n, params.k, params.s, params.ell
    if not columns_fit(params):
        return iter(_transpose(construction_rows(params), binomial(n, k)))
    m = binomial(n, s)
    # above[i] has bit y for each sum y the places above place i + 1 can give.
    above = [0] * (ell - 1) + [1]
    member_rows = [0] * m
    for e in range(m - 1, -1, -1):
        row = 0
        for i, y in enumerate(above):
            high = math.comb(e, i + 1)
            row |= ((y << math.comb(e, i)) - y) << high
            if i:
                # Members under e see e at this place: its sums raised by C(e, i+1).
                above[i - 1] |= y << high
        member_rows[e] = row
    return _member_unions(member_rows, s, n, k)


def columns_fit(params: CodeParams) -> bool:
    """Whether the working set of construction_columns' closed form, the
    C(n,s) member rows and about C(n,k-1) partial columns, ints as wide as a
    column, is at most three times the C(n,k) columns themselves. Elsewhere
    the construction is better taken a row at a time from construction_rows,
    and construction_columns transposes those rows."""
    n, k = params.n, params.k
    return binomial(n, params.s) + binomial(n, k - 1) <= 3 * binomial(n, k)


def budgeted_dimensions(params: CodeParams, max_bits: int) -> CodeDimensions:
    """dimensions(params), or BudgetError when the matrix has more than
    ``max_bits`` bits."""
    dims = dimensions(params)
    needed = dims.num_rows * dims.num_cols
    if needed > max_bits:
        raise BudgetError(f"matrix needs {needed} bits, budget allows {max_bits}")
    return dims


def materialize(params: CodeParams, *, max_bits: int = MATERIALIZE_BIT_BUDGET) -> BitMatrix:
    """Build the full matrix, rows and columns in rank order.

    Refuses with BudgetError when the total bit count exceeds ``max_bits``;
    larger instances should be queried through entry() instead.
    """
    dims = budgeted_dimensions(params, max_bits)
    return BitMatrix(dims.num_rows, dims.num_cols, list(construction_rows(params)))


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
