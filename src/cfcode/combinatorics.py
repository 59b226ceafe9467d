"""Exact subset addressing: big-integer binomials and the colexicographic
rank/unrank bijection.

Subsets are 1-based (drawn from [n] = {1, ..., n}); ranks are 0-based. All
values are Python ints, so nothing here overflows or rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

# Steps a rank/unrank level walks by exact binomial ratios before it jumps
# straight to the target with math.comb: dense shapes move a step or two per
# level, sparse ones (a few elements of a huge ground set) move far.
WALK_STEPS = 32


def binomial(n: int, k: int) -> int:
    """Return C(n, k) exactly; 0 when k > n, 1 when k == 0."""
    if n < 0 or k < 0:
        raise ValueError(f"binomial expects nonnegative arguments, got ({n}, {k})")
    return math.comb(n, k)


def capped_binomial(n: int, k: int, cap: int) -> int:
    """Return min(C(n, k), cap) for n, k, cap >= 0 without building a C(n, k)
    past cap: C(n, i) is built upward over i <= min(k, n - k), where it does
    not decrease, and the walk stops once it reaches cap. It stops within
    about log2(cap) steps, since C(n, i) >= 2**i there."""
    if k > n:
        return 0
    value = 1
    for i in range(min(k, n - k)):
        if value >= cap:
            break
        value = value * (n - i) // (i + 1)
    return min(value, cap)


@dataclass(frozen=True)
class KSubset:
    """A strictly increasing tuple of elements of {1, ..., ground_size}."""

    elements: tuple[int, ...]
    ground_size: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "elements", tuple(self.elements))
        if self.ground_size < 0:
            raise ValueError(f"ground size must be nonnegative, got {self.ground_size}")
        prev = 0
        for e in self.elements:
            if e <= prev:
                raise ValueError(
                    f"elements must be strictly increasing and positive, got {self.elements}")
            prev = e
        if self.elements and self.elements[-1] > self.ground_size:
            raise ValueError(
                f"element {self.elements[-1]} outside ground set [{self.ground_size}]")

    @classmethod
    def from_elements(cls, elements: Iterable[int], ground_size: int) -> "KSubset":
        """Build from any iterable, sorting first. Duplicates are still rejected."""
        return cls(tuple(sorted(elements)), ground_size)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)

    def __str__(self) -> str:
        return "{" + ",".join(str(e) for e in self.elements) + "}"


def colex_rank(subset: KSubset) -> int:
    """0-based colex rank of the subset among all subsets of its size.

    With elements c_1 < ... < c_m the rank is the sum of C(c_i - 1, i); it does
    not depend on the ground size. The terms with c_i = i are zero and form a
    prefix (c_i = i forces c_1..c_i = 1..i), so the sum starts after it. Each
    later term comes from the one before by exact ratios: a diagonal step
    C(x+1, i+1) = C(x, i)(x+1)/(i+1), then steps C(y+1, i) = C(y, i)(y+1)/(y+1-i)
    up to y = c_i - 1, or math.comb when that gap exceeds WALK_STEPS.
    """
    elements = subset.elements
    i = 0
    while i < len(elements) and elements[i] == i + 1:
        i += 1
    if i == len(elements):
        return 0
    i += 1
    x = elements[i - 1] - 1
    term = math.comb(x, i)
    rank = term
    for c in elements[i:]:
        x += 1
        i += 1
        term = term * x // i
        if c - 1 - x > WALK_STEPS:
            x = c - 1
            term = math.comb(x, i)
        else:
            while x < c - 1:
                x += 1
                term = term * x // (x - i)
        rank += term
    return rank


def _last_fitting(r: int, i: int, hi: int) -> int:
    """Largest c in [i, hi] with C(c - 1, i) <= r, by bisection."""
    lo = i
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if math.comb(mid - 1, i) <= r:
            lo = mid
        else:
            hi = mid - 1
    return lo


def colex_unrank(rank: int, m: int, n: int) -> KSubset:
    """The unique m-subset of [n] whose colex rank is ``rank``.

    Level i, from m down to 1, takes the largest c below the previous element
    with C(c - 1, i) <= the remaining rank. It walks down from the previous
    element minus one (from n at level m), carrying b = C(c - 1, i) by exact ratios: from the
    level above as C(c-2, i-1) = C(c-1, i)·i/(c-1), and within the level as
    C(c-2, i) = C(c-1, i)·(c-1-i)/(c-1). A level not settled after WALK_STEPS
    steps bisects the rest with math.comb. Dense shapes such as (1000, 500)
    take about n walk steps in all; sparse ones bisect.
    """
    total = binomial(n, m)
    if not 0 <= rank < total:
        raise ValueError(f"rank {rank} outside [0, C({n},{m})) = [0, {total})")
    if m == 0:
        return KSubset((), n)
    elements = [0] * m
    r = rank
    c = n
    b = total * (n - m) // n  # C(n - 1, m)
    for i in range(m, 0, -1):
        for _ in range(WALK_STEPS):
            if b <= r:
                break
            b = b * (c - 1 - i) // (c - 1)
            c -= 1
        if b > r:
            c = _last_fitting(r, i, c - 1)
            b = math.comb(c - 1, i)
        elements[i - 1] = c
        r -= b
        if i > 1:
            b = b * i // (c - 1)
            c -= 1
    return KSubset(tuple(elements), n)


def colex_subsets(m: int, n: int) -> Iterator[tuple[int, ...]]:
    """Yield every m-subset of [n] as a tuple, in colex (= rank) order: raise the
    lowest element that can rise, reset those below to 1, 2, ... (TAOCP 7.2.1.3)."""
    if m < 0 or n < 0:
        raise ValueError(f"colex_subsets expects nonnegative arguments, got ({m}, {n})")
    c = list(range(1, m + 1)) + [n + 1]  # n + 1 caps the top element
    while m <= n and c[m] == n + 1:
        yield tuple(c[:m])
        j = 0
        while j < m and c[j] + 1 == c[j + 1]:
            c[j] = j + 1
            j += 1
        c[j] += 1  # at j == m this lifts the cap and ends the walk
