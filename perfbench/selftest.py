"""Self-test of the oracles on the acceptance grid (every accepted set with
n <= 7, s in {1,2}, l in {1,2,3} and at most 5000 rows).

* The escaping-count rule must agree with a brute-force scan over all row
  labels of the oracle's own matrix, on random column families.
* The oracle's matrix, its row and column ranks and its entry rule must agree
  with the package's ``materialize``.

So a nonzero failure count in a run points at the program, not the oracles.
"""

from __future__ import annotations

import itertools
import random
import warnings
from math import comb

from oracles import colex_rank, escaping_count, matrix_rows, row_rank

MAX_ROWS = 5000
QUERIES_PER_SET = 100


def grid() -> list[tuple[int, int, int, int]]:
    sets = []
    for n in range(3, 8):
        for s in (1, 2):
            for k in range(s + 1, n):
                for ell in (1, 2, 3):
                    if s + ell <= comb(n, k) and comb(comb(n, s), ell) <= MAX_ROWS:
                        sets.append((n, k, s, ell))
    return sets


def run(materialize, code_params) -> list[str]:
    """Return a list of disagreements; empty means the oracles hold."""
    problems = []
    rng = random.Random(0)
    for n, k, s, ell in grid():
        rows, t = matrix_rows(n, k, s, ell)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            if materialize(code_params(n, k, s, ell)).rows != rows:
                problems.append(f"({n},{k},{s},{ell}): oracle matrix differs from materialize")
        cols = sorted(itertools.combinations(range(1, n + 1), k), key=colex_rank)
        subs = sorted(itertools.combinations(range(1, n + 1), s), key=colex_rank)
        families = sorted(itertools.combinations(subs, ell), key=row_rank)
        if [colex_rank(c) for c in cols] != list(range(t)):
            problems.append(f"({n},{k},{s},{ell}): column ranks are not 0..t-1")
        for i, family in enumerate(families):
            if row_rank(family) != i:
                problems.append(f"({n},{k},{s},{ell}): row {i} ranks as {row_rank(family)}")
                break
            bits = sum(1 << j for j, c in enumerate(cols)
                       if any(set(c).issuperset(m) for m in family))
            if bits != rows[i]:
                problems.append(f"({n},{k},{s},{ell}): entry rule differs at row {i}")
                break
        # Column j as a bit set over rows, for the brute-force witness scan.
        col_bits = [sum(1 << i for i, r in enumerate(rows) if r >> j & 1) for j in range(t)]
        full = (1 << len(rows)) - 1
        for _ in range(QUERIES_PER_SET):
            picked = rng.sample(range(t), s + ell)
            neg, pos = picked[:s], picked[s:]
            hits = full
            for j in neg:
                hits &= full ^ col_bits[j]
            for j in pos:
                hits &= col_bits[j]
            rule = escaping_count(n, s, [cols[j] for j in neg]) >= ell
            if rule != bool(hits):
                problems.append(f"({n},{k},{s},{ell}): escaping rule says {rule} for "
                                f"neg {neg} pos {pos}, brute force {bool(hits)}")
    return problems
