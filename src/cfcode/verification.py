"""Cover-free checking: the exhaustive verifier over all disjoint column
families, and explicit witness construction.

A matrix is cover-free for (s, ell) when every choice of s "negative" and
ell disjoint "positive" columns admits a row that is 0 on all negatives and
1 on all positives. Queries address columns by 1-based position.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from .code_core import BitMatrix, CodeParams, RowLabel, _require_column, column_masks
from .combinatorics import KSubset, binomial, colex_subsets


# A scan with ell >= 2 gathers the remaining columns to the rows that escape
# the negative family once those rows fill less than one bit in
# GATHER_SPARSITY of their span, and otherwise ANDs the columns whole. A
# gather costs a format and a parse of the span per column, which a dense
# span would pay on every negative family for little saving. Against whole
# columns, gathering on every scan made the full walk of (9,5,2,2) take
# 9.4-9.9 s instead of 3.0-3.7. A threshold of 8 made the full walk of
# (8,5,2,3) take 2.63 s instead of 2.38 and the counting pass of (11,5,2,3)
# at (2,2) 1.64 s instead of 1.42; 16 and 32 were no faster than 64.
GATHER_SPARSITY = 64


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
    the first family with that few; otherwise both are None. ``orbits`` is
    None in full mode. In orbit mode it is the number of negative-family
    types when the escaping-subset count decides, failing or not, and
    otherwise the number of orbits scanned, up to the counterexample's; at
    s <= 2 the walk ends once it has seen every orbit (see
    verify_cover_free), which leaves the count as it was.
    """

    holds: bool
    counterexample: CoverFreeQuery | None = None
    witness_count: int | None = None
    min_family: CoverFreeQuery | None = None
    orbits: int | None = None


def _check_query_shape(matrix: BitMatrix, s: int, ell: int) -> None:
    if s < 1:
        raise ValueError(f"need s >= 1, got {s}")
    if ell < 1:
        raise ValueError(f"need ell >= 1, got {ell}")
    if s + ell > matrix.num_cols:
        raise ValueError(
            f"need s + ell <= {matrix.num_cols} columns, got {s} + {ell}")


def _first_least(masks: list[int], prefix: int, size: int,
                 bound: int) -> tuple[int, tuple[int, ...]] | None:
    """(count, positions) of the first family of ``size`` positions of
    ``masks``, in colex order, whose AND of masks with ``prefix`` has the
    fewest bits, fewer than ``bound``; None if there is none. ``bound == 1``
    asks only for a zero.

    The lowest position (at size 1, the only one) or the lowest two are the
    tail, taken in C. The positions above it, ``top``, step through colex
    order as colex_subsets does: raise the lowest that can rise and reset
    those below it. ``held[i]`` is the prefix ANDed with the masks at
    ``top[i:]``, so a step ANDs only the positions it moved. Each step runs
    one pass over the singles or pairs of the window below ``top[0]`` that
    tests for a zero or takes the least count; a zero ``held`` fails at the
    window's first family. Only a pass under ``bound`` walks the window in
    Python, to find the colex-first family with that count."""
    tail = min(size, 2)
    up = size - tail
    top = list(range(tail, size)) + [len(masks)]  # len(masks) caps the top position
    held = [prefix] * (up + 1)
    found = None
    moved = up
    while True:
        for i in range(moved - 1, -1, -1):
            held[i] = held[i + 1] & masks[top[i]]
        q, window = held[0], masks[:top[0]]
        cut = map(q.__and__, window)
        if tail == 2:
            cut = itertools.starmap(operator.and_, itertools.combinations(list(cut), 2))
        least = (1 if all(cut) else 0) if bound == 1 else min(map(int.bit_count, cut))
        if least < bound:
            family = next(f for f in colex_subsets(tail, len(window))
                          if functools.reduce(int.__and__, [window[i - 1] for i in f],
                                              q).bit_count() == least)
            found, bound = (least, tuple(i - 1 for i in family) + tuple(top[:up])), least
            if not bound:
                return found
        moved = 0
        while moved < up and top[moved] + 1 == top[moved + 1]:
            top[moved] = tail + moved
            moved += 1
        if moved == up:
            return found
        top[moved] += 1
        moved += 1


def _gathered(cols: list[int], base: int) -> list[int]:
    """Each of ``cols`` cut to ``base``'s set bits and packed in their order:
    bit i of a result is the column's bit at base's i-th lowest set bit.
    Each column is formatted at base's width and base's "1" places are
    picked from it by one itemgetter, so the work per column is C-level."""
    fmt = f"0{base.bit_length()}b"
    text = format(base, fmt)
    places = []
    i = text.find("1")
    while i >= 0:
        places.append(i)
        i = text.find("1", i + 1)
    pick = operator.itemgetter(*places)
    # One place makes pick return a character, which join leaves as it is.
    return [int("".join(pick(format(c & base, fmt))), 2) for c in cols]


def _venn_vectors(params: CodeParams) -> Callable[[tuple[int, ...]], list[int]]:
    """A function from a negative family (1-based column positions) to its
    Venn vector: entry w counts the elements of [n] that lie in exactly the
    family's k-subsets at the set bits of w."""
    sets = column_masks(params.n, params.k)
    full = (1 << (params.n + 1)) - 2

    def venn(neg: tuple[int, ...]) -> list[int]:
        regions = [full]
        for j in neg:
            a = sets[j - 1]
            regions = [r & ~a for r in regions] + [r & a for r in regions]
        return [r.bit_count() for r in regions]

    return venn


def _canonical(s: int) -> Callable[[Sequence[int]], tuple[int, ...]]:
    """A function from a Venn vector over s sets to its least form over the
    s! orderings of the sets: two families of distinct k-subsets of [n] have
    the same form iff a permutation of [n] carries one onto the other. Empty
    sets, as in a family still being built, trade places only with each
    other, since the others hold k elements."""
    # Pattern v has bit i when the element lies in set i; reordering the sets
    # by sigma sends pattern w to the pattern with bit sigma(i) for bit i of w.
    reorders = [operator.itemgetter(*(sum((w >> i & 1) << p for i, p in enumerate(sigma))
                                      for w in range(1 << s)))
                for sigma in itertools.permutations(range(s))]
    return lambda counts: min([reorder(counts) for reorder in reorders])


def _orbit_key(params: CodeParams, s: int) -> Callable[[tuple[int, ...]], tuple[int, ...]]:
    """A function from a negative family of s columns to its S_n orbit: the
    canonical form of its Venn vector."""
    venn, canonical = _venn_vectors(params), _canonical(s)
    return lambda neg: canonical(venn(neg))


def _orbit_total(n: int, k: int, s: int) -> int | None:
    """The number of S_n orbits of families of s distinct k-subsets of [n]
    where a closed form gives it, else None: one at s = 1, and at s = 2 one
    per size of the meet of two, max(0, 2k - n) to k - 1."""
    if s == 1:
        return 1
    return k - max(0, 2 * k - n) if s == 2 else None


def _venn_types(n: int, k: int, s: int) -> list[tuple[int, ...]]:
    """The canonical Venn vectors of the families of s distinct k-subsets of
    [n], one per S_n orbit, built a set at a time; sets not yet added are
    empty. Set j takes k elements from the regions of sets 0..j-1, and must
    not lie inside an earlier set, which it would then equal."""
    canonical = _canonical(s)
    start = [n] + [0] * ((1 << s) - 1)
    types = {canonical(start): start}
    for j in range(s):
        grown = {}
        for counts in types.values():
            regions = [w for w in range(1 << j) if counts[w]]
            for split in _splits([counts[w] for w in regions], k):
                if any(sum(c for w, c in zip(regions, split) if w >> i & 1) == k
                       for i in range(j)):
                    continue
                vector = list(counts)
                for w, c in zip(regions, split):
                    vector[w] -= c
                    vector[w | 1 << j] = c
                grown.setdefault(canonical(vector), vector)
        types = grown
    return list(types)


def _splits(caps: list[int], total: int) -> Iterator[tuple[int, ...]]:
    """The tuples of ints from 0 to each cap that sum to total."""
    if len(caps) == 1:
        if total <= caps[0]:
            yield (total,)
        return
    room = sum(caps[1:])
    for c in range(max(0, total - room), min(caps[0], total) + 1):
        for rest in _splits(caps[1:], total - c):
            yield (c,) + rest


def escaping_count(counts: Sequence[int], s: int) -> int:
    """E: how many s-subsets of [n] lie in no set of a family, from its Venn
    vector, as the sum over subfamilies I of (-1)^|I| C(|the meet of I|, s).
    The meet of the sets at the bits of v holds each pattern w with v's bits."""
    return sum((-1) ** v.bit_count() * math.comb(sum(c for w, c in enumerate(counts)
                                                     if w & v == v), s)
               for v in range(len(counts)))


def _escaping_verdict(params: CodeParams, s: int, ell: int) -> Verdict:
    """The verdict on the construction of ``params`` for ``s <= params.s``
    and ``ell <= params.ell``. There negatives N and any positives have a
    witness row iff E(N) >= params.ell: a positive column holds an element
    outside each negative, and those, padded inside it, make an escaping
    member; other escaping members fill the label. So the first failure is
    the colex-first N with E(N) < params.ell and its first ``ell`` remaining
    columns."""
    types = _venn_types(params.n, params.k, s)
    if min(escaping_count(counts, params.s) for counts in types) >= params.ell:
        return Verdict(True, orbits=len(types))
    venn = _venn_vectors(params)
    neg = next(f for f in colex_subsets(s, binomial(params.n, params.k))
               if escaping_count(venn(f), params.s) < params.ell)
    pos = tuple(c for c in range(1, s + ell + 1) if c not in neg)[:ell]
    failing = CoverFreeQuery(neg, pos)
    return Verdict(False, failing, 0, failing, len(types))


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

    Orbit mode runs when ``matrix.construction`` names the code the matrix
    is (see BitMatrix); any other matrix, a materialized one too, is walked
    in full. A permutation of [n] permutes the code's rows and columns, so
    the negative families of one S_n orbit have the same least witness count.
    When ``s`` and ``ell`` are at most the construction's and witnesses are
    not counted, the escaping-subset count decides without a scan (see
    _escaping_verdict): the types of s negative columns are enumerated, and
    a colex walk runs only to name a failure. Otherwise the walk scans only
    the first family of each orbit: a later one can beat neither the bound
    its orbit's first member set nor that member's place in colex order, so
    the verdict is the one the full walk gives. At s <= 2 the orbits are
    counted in closed form (_orbit_total), and the walk stops once it has
    seen them all. At s >= 3 it runs on to the last family: counting the
    types up front doubled the cost of a failing query. Canonical forms try
    all s! orderings, so orbit mode runs only when s! <= C(t, s).
    """
    _check_query_shape(matrix, s, ell)
    t = matrix.num_cols
    orbit_key = seen = total = None
    # s! and C(t, s) are built only for a matrix that is the construction.
    if (params := matrix.construction) is not None and math.factorial(s) <= binomial(t, s):
        if s <= params.s and ell <= params.ell and not count_witnesses:
            return _escaping_verdict(params, s, ell)
        orbit_key, seen = _orbit_key(params, s), set()
        total = _orbit_total(params.n, params.k, s)
    cols = matrix.columns()
    full = (1 << matrix.num_rows) - 1
    bound = matrix.num_rows + 1 if count_witnesses else 1
    least: CoverFreeQuery | None = None
    for neg in colex_subsets(s, t):
        if orbit_key is not None:
            key = orbit_key(neg)
            if key in seen:
                continue
            seen.add(key)
        # The rows that are 0 on every negative column.
        base = full
        for j in neg:
            base &= ~cols[j - 1]
        negs = set(neg)
        rest = [c for c in range(1, t + 1) if c not in negs]
        masks, prefix = [cols[c - 1] for c in rest], base
        # At ell == 1 each column is ANDed once, so a gather would cost as
        # much as it saves. Every AND starts from base, so it runs in base's
        # length, not the column's. A zero base is never gathered and fails
        # at the colex-first family.
        if ell >= 2 and base.bit_length() > GATHER_SPARSITY * base.bit_count():
            masks, prefix = _gathered(masks, base), (1 << base.bit_count()) - 1
        hit = _first_least(masks, prefix, ell, bound)
        if hit is not None:
            bound, positions = hit
            least = CoverFreeQuery(neg, tuple(rest[p] for p in positions))
            if not bound:
                break
        if total is not None and len(seen) == total:
            break
    orbits = None if seen is None else len(seen)
    if not bound:
        return Verdict(False, least, 0, least, orbits)
    return Verdict(True, None, bound if count_witnesses else None, least, orbits)


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
