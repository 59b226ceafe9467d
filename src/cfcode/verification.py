"""Cover-free checking: per-row pattern tests, the exhaustive verifier over
all disjoint column families, explicit witness construction, and the
brute-force column weight oracle.

A matrix is cover-free for (s, ell) when every choice of s "negative" and
ell disjoint "positive" columns admits a row that is 0 on all negatives and
1 on all positives. Queries address columns by 1-based position.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

from .code_core import (
    BitMatrix,
    BudgetError,
    CodeParams,
    RowLabel,
    _require_column,
    dimensions,
)
from .combinatorics import KSubset, colex_subsets

# Cap on the weight oracle's exhaustive row-label scan.
FALLBACK_SCAN_LIMIT = 1_000_000


class WitnessSearchError(RuntimeError):
    """No witness row exists: the construction's guarantee fails for the
    requested column family. Surfaced loudly because callers normally rely
    on a witness always being constructible."""


@dataclass(frozen=True)
class CoverFreeQuery:
    """Disjoint negative/positive column families, 1-based column positions."""

    neg_cols: tuple[int, ...]
    pos_cols: tuple[int, ...]

    def __post_init__(self) -> None:
        neg = tuple(sorted(self.neg_cols))
        pos = tuple(sorted(self.pos_cols))
        for name, cols in (("neg_cols", neg), ("pos_cols", pos)):
            if not cols:
                raise ValueError(f"{name} must be nonempty")
            prev = 0
            for c in cols:
                if c <= prev:
                    raise ValueError(f"{name} must be distinct positive positions, got {cols}")
                prev = c
        if set(neg) & set(pos):
            raise ValueError("negative and positive columns must be disjoint")
        object.__setattr__(self, "neg_cols", neg)
        object.__setattr__(self, "pos_cols", pos)


@dataclass(frozen=True)
class Verdict:
    """Outcome of a verification run.

    When ``holds`` is false, ``counterexample`` is the first failing family in
    enumeration order, ``witness_count`` is 0 and ``min_family`` is that
    family. When it is true and the run counted witnesses, ``witness_count``
    is the least number of witness rows over all families and ``min_family``
    the first family with that few; otherwise both are None.
    """

    holds: bool
    counterexample: CoverFreeQuery | None = None
    witness_count: int | None = None
    min_family: CoverFreeQuery | None = None


def row_satisfies(row: Sequence[int], query: CoverFreeQuery) -> bool:
    """True iff the row is 0 on every negative and 1 on every positive column."""
    width = len(row)
    for j in query.neg_cols + query.pos_cols:
        if not 1 <= j <= width:
            raise IndexError(f"column {j} outside 1..{width}")
    return (all(int(row[j - 1]) == 0 for j in query.neg_cols)
            and all(int(row[j - 1]) == 1 for j in query.pos_cols))


def _check_query_shape(matrix: BitMatrix, s: int, ell: int) -> None:
    if s < 1:
        raise ValueError(f"need s >= 1, got {s}")
    if ell < 1:
        raise ValueError(f"need ell >= 1, got {ell}")
    if s + ell > matrix.num_cols:
        raise ValueError(
            f"need s + ell <= {matrix.num_cols} columns, got {s} + {ell}")


def _negatives(cols: list[int], num_rows: int,
               s: int) -> Iterator[tuple[tuple[int, ...], list[int], int]]:
    """Per negative family in colex order: the family, the other columns'
    positions, and the rows that are 0 on every negative column."""
    full = (1 << num_rows) - 1
    for neg in colex_subsets(s, len(cols)):
        base = full
        for j in neg:
            base &= ~cols[j - 1]
        yield neg, [c for c in range(1, len(cols) + 1) if c not in neg], base


def _first_least(masks: list[int], prefix: int, size: int, hi: int, bound: int,
                 chosen: tuple[int, ...]) -> tuple[int, tuple[int, ...]] | None:
    """(count, positions) of the first family, in colex order, that adds
    ``size`` positions below ``hi`` to ``chosen`` and whose AND of masks with
    ``prefix`` has the fewest bits, fewer than ``bound``; None if there is
    none. The AND is taken along the prefix, largest position first, so a
    zero prefix settles its colex-first completion at once. ``bound == 1``
    asks only for a zero."""
    if size == 1:
        window = masks[:hi]
        if bound == 1:
            least = 1 if all(map(prefix.__and__, window)) else 0
        else:
            least = min(map(int.bit_count, map(prefix.__and__, window)))
        if least >= bound:
            return None
        p = next(i for i, m in enumerate(window) if (prefix & m).bit_count() == least)
        return least, (p,) + chosen
    found = None
    for p in range(size - 1, hi):
        q = prefix & masks[p]
        if not q:
            return 0, tuple(range(size - 1)) + (p,) + chosen
        hit = _first_least(masks, q, size - 1, p, bound, (p,) + chosen)
        if hit is not None:
            found, bound = hit, hit[0]
            if not bound:
                break
    return found


def verify_cover_free(matrix: BitMatrix, s: int, ell: int, *, threads: int = 1,
                      count_witnesses: bool = False) -> Verdict:
    """Exhaustively test the cover-free condition over all disjoint (s, ell)
    column families.

    Families are enumerated in colex order of the negative family, then colex
    order of the positive family within the remaining columns, so a failing
    verdict always carries the first failing family in that order.
    ``count_witnesses`` also finds the least witness multiplicity and the
    first family with it; a zero still ends the scan. ``threads`` is
    accepted and has no effect: the scan's big ints hold the interpreter lock.
    """
    _check_query_shape(matrix, s, ell)
    cols = matrix.columns()
    bound = matrix.num_rows + 1 if count_witnesses else 1
    least: CoverFreeQuery | None = None
    for neg, rest, base in _negatives(cols, matrix.num_rows, s):
        if not base:
            hit = 0, tuple(range(ell))
        elif ell == 1:
            # Each column is ANDed once; cutting it first would cost as much.
            hit = _first_least([cols[c - 1] for c in rest], base, 1, len(rest), bound, ())
        else:
            # Each column is ANDed many times: cut it to the candidate rows.
            low = (base & -base).bit_length() - 1
            masks = [(cols[c - 1] & base) >> low for c in rest]
            hit = _first_least(masks, base >> low, ell, len(rest), bound, ())
        if hit is not None:
            bound, positions = hit
            least = CoverFreeQuery(neg, tuple(rest[p] for p in positions))
            if not bound:
                return Verdict(False, least, 0, least)
    return Verdict(True, None, bound if count_witnesses else None, least)


def witness_counts(matrix: BitMatrix, s: int, ell: int) -> Iterator[tuple[CoverFreeQuery, int]]:
    """Yield every disjoint (s, ell) column family with its witness-row count,
    in verifier enumeration order."""
    _check_query_shape(matrix, s, ell)
    cols = matrix.columns()
    for neg, rest, base in _negatives(cols, matrix.num_rows, s):
        for positions in colex_subsets(ell, len(rest)):
            pos = tuple(rest[p - 1] for p in positions)
            rows = functools.reduce(int.__and__, (cols[c - 1] for c in pos), base)
            yield CoverFreeQuery(neg, pos), rows.bit_count()


def _meeting_subsets(pool: Sequence[int], size: int, targets: list[int], *,
                     from_end: bool = False) -> Iterator[tuple[int, ...]]:
    """Yield the ``size``-subsets of ``pool`` that meet every target (a
    bitmask of elements), as tuples in pool order, lexicographic in pool
    positions; ``from_end`` tries each choice from the far end instead, which
    over the pool ``n, ..., 1`` gives colex order. A branch is cut once an
    unmet target has no element left in the rest of the pool, or, with one
    choice left, no single element there meets all unmet targets."""
    after = [0] * (len(pool) + 1)
    for i in range(len(pool) - 1, -1, -1):
        after[i] = after[i + 1] | 1 << pool[i]

    def extend(start: int, left: int, unmet: list[int],
               chosen: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        options = range(start, len(pool) - left + 1)
        for i in reversed(options) if from_end else options:
            bit = 1 << pool[i]
            rest = [m for m in unmet if not m & bit]
            if left == 1:
                if not rest:
                    yield chosen + (pool[i],)
                continue
            tail = after[i + 1]
            if (functools.reduce(int.__and__, rest, tail) if left == 2
                    else all(m & tail for m in rest)):
                yield from extend(i + 1, left - 1, rest, chosen + (pool[i],))

    return extend(0, size, targets, ())


def witness_row(params: CodeParams, neg_cols: Sequence[KSubset],
                pos_cols: Sequence[KSubset]) -> RowLabel:
    """Construct a row label separating the given column families: every
    member avoids every negative column and each positive column contains a
    member.

    An s-subset of [n] escapes when it lies in no negative column. A witness
    row exists iff every positive column contains an escaping subset and at
    least ell subsets escape, and the construction follows that condition:
    for each positive column, its first escaping subset in increasing element
    order (columns may share one); then further escaping subsets of [n] in
    colex order until the label has ell members. Both searches build only
    escaping subsets, which are those meeting every negative column's
    complement. The result is deterministic. WitnessSearchError means the
    condition fails, so no witness row exists at all.
    """
    seen: set[tuple[int, ...]] = set()
    for col in itertools.chain(neg_cols, pos_cols):
        _require_column(params, col)
        if col.elements in seen:
            raise ValueError(f"columns must be pairwise distinct, {col} repeats")
        seen.add(col.elements)
    if not neg_cols:
        raise ValueError("need at least one negative column")
    if len(pos_cols) != params.ell:
        raise ValueError(
            f"need exactly ell={params.ell} positive columns, got {len(pos_cols)}")

    s, ell = params.s, params.ell
    everything = (1 << (params.n + 1)) - 2
    complements = [everything & ~sum(1 << e for e in col.elements) for col in neg_cols]

    # Insertion-ordered set of chosen members.
    members: dict[tuple[int, ...], None] = {}
    for col in pos_cols:
        cand = next(_meeting_subsets(col.elements, s, complements), None)
        if cand is None:
            raise WitnessSearchError(
                f"no witness row exists for the given column families: "
                f"positive column {col} holds no s-subset that lies in no negative column")
        members[cand] = None
    if len(members) < ell:
        for sub in _meeting_subsets(range(params.n, 0, -1), s, complements, from_end=True):
            sub = sub[::-1]
            if sub not in members:
                members[sub] = None
                if len(members) == ell:
                    break
        else:
            raise WitnessSearchError(
                f"no witness row exists for the given column families: only "
                f"{len(members)} s-subsets of [n] lie in no negative column, "
                f"fewer than ell={ell}")
    return RowLabel(tuple(KSubset(c, params.n) for c in members))


def brute_force_column_weight(params: CodeParams, col: KSubset) -> int:
    """Count rows with a 1 in the given column by scanning every row label in
    rank order. Independent of the closed-form weight in dimensions()."""
    _require_column(params, col)
    num_rows = dimensions(params).num_rows
    if num_rows > FALLBACK_SCAN_LIMIT:
        raise BudgetError(
            f"scan of {num_rows} row labels exceeds the limit {FALLBACK_SCAN_LIMIT}")
    colset = set(col.elements)
    subs = list(colex_subsets(params.s, params.n))
    contained = [all(e in colset for e in c) for c in subs]
    count = 0
    for idx in colex_subsets(params.ell, len(subs)):
        if any(contained[e - 1] for e in idx):
            count += 1
    return count
