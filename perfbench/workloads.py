"""The benchmark's workloads: each is a fixed list of CLI calls (one pass),
built from the seed, with what each call must print.

* ``verify-ladder``: gen then verify on the ladder below at the CLI's default
  thread count, plus a ``--count-witnesses`` pass with no early exit. The
  verifier kernel does nearly all the work; the sets cover the l=2, l=3 and
  generic branches, the thread pool, early exit and the counting pass.
  Deterministic, so the seed is unused.
* ``wide-file``: a write-heavy 42 MB ``gen``, then ``gen`` and an (s,l)=(1,1)
  verify of a 12 MB, 462-column file. Column transpose and file read/write do
  most of the work; the scan kernel very little.
* ``query-mix``: a seeded interactive session of ``entry`` queries at
  n=1000 and ``witness`` queries on three parameter sets. No file I/O and no
  scan kernel.

``query-mix`` also builds a list of known-defect witness queries, which the
measured passes leave out: the ROADMAP item A regression query, and every
seeded query whose witnesses all share a member between positive columns
(``oracles.shared_member_only``). They are checked once per run, untimed.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from math import comb

from oracles import format_sets, shared_member_only

# (n, k, s, l, counting pass, pinned verdict). Counterexamples use 1-based
# column positions as the CLI prints them.
LADDER = (
    (8, 4, 2, 2, False, {"holds": True}),
    (8, 5, 2, 3, False, {"holds": True}),
    (8, 6, 2, 5, False, {"holds": False, "neg": (3, 8), "pos": (1, 2, 4, 5, 6)}),
    (7, 4, 2, 2, True, {"holds": True, "min_witnesses": 1}),
)

ENTRY_SET = (1000, 500, 2, 3)
ENTRIES_PER_PASS = 25
# (n, k, s, l, queries per pass) for witness queries on random columns.
WITNESS_SETS = (
    (200, 100, 2, 3, 10),   # per-column backtracking succeeds
    (30, 29, 2, 2, 5),      # full fallback scan; no witness exists
    (16, 14, 2, 5, 9),      # mixed: witnesses, and no witness at all
)
# A witness exists ({2,3},{1,6}) but the seed commit exits 4.
REGRESSION_QUERY = (60, 58, 2, 2,
                    (tuple(range(3, 61)), (2,) + tuple(range(4, 61))),
                    ((2, 3) + tuple(range(5, 61)), (2, 3, 4) + tuple(range(6, 61))))

WORKLOADS = ("verify-ladder", "wide-file", "query-mix")


@dataclass
class Op:
    """One CLI call and the data its check needs."""

    kind: str            # gen | verify | entry | witness
    argv: list[str]
    params: tuple[int, int, int, int]
    expect: dict = field(default_factory=dict)
    path: str = ""       # file written (gen) or read (verify)

    @property
    def label(self) -> str:
        return f"{self.kind} {' '.join(map(str, self.params))}"


def _gen(workdir: str, n: int, k: int, s: int, ell: int) -> Op:
    path = os.path.join(workdir, f"m_{n}_{k}_{s}_{ell}.txt")
    return Op("gen", ["gen", str(n), str(k), str(s), str(ell), "--out", path],
              (n, k, s, ell), path=path)


def _verify(gen: Op, s: int, ell: int, expect: dict, counting: bool = False) -> Op:
    argv = ["verify", gen.path, "--s", str(s), "--l", str(ell)]
    if counting:
        argv.append("--count-witnesses")
    return Op("verify", argv, gen.params, dict(expect, s=s, l=ell, counting=counting),
              path=gen.path)


def ladder_ops(workdir: str) -> list[Op]:
    ops = []
    for n, k, s, ell, counting, verdict in LADDER:
        gen = _gen(workdir, n, k, s, ell)
        ops += [gen, _verify(gen, s, ell, verdict, counting)]
    return ops


def wide_ops(workdir: str) -> list[Op]:
    big = _gen(workdir, 12, 6, 2, 3)
    wide = _gen(workdir, 11, 5, 2, 3)
    return [big, wide, _verify(wide, 1, 1, {"holds": True})]


def _random_columns(rng: random.Random, n: int, k: int, count: int) -> list[tuple[int, ...]]:
    cols: list[tuple[int, ...]] = []
    while len(cols) < count:
        col = tuple(sorted(rng.sample(range(1, n + 1), k)))
        if col not in cols:
            cols.append(col)
    return cols


def _witness(n: int, k: int, s: int, ell: int, neg, pos) -> Op:
    return Op("witness", ["witness", str(n), str(k), str(s), str(ell),
                          "--neg", format_sets(neg), "--pos", format_sets(pos)],
              (n, k, s, ell), {"neg": neg, "pos": pos})


def query_ops(seed: int) -> tuple[list[Op], list[Op]]:
    """The measured pass and the known-defect queries."""
    rng = random.Random(seed)
    n, k, s, ell = ENTRY_SET
    num_rows = comb(comb(n, s), ell)
    num_cols = comb(n, k)
    ops = []
    for _ in range(ENTRIES_PER_PASS):
        row, col = rng.randrange(num_rows), rng.randrange(num_cols)
        ops.append(Op("entry", ["entry", str(n), str(k), str(s), str(ell),
                                "--row-rank", str(row), "--col-rank", str(col)],
                      ENTRY_SET, {"row": row, "col": col}))
    rn, rk, rs, rl, neg, pos = REGRESSION_QUERY
    defects = [_witness(rn, rk, rs, rl, list(neg), list(pos))]
    for wn, wk, ws, wl, count in WITNESS_SETS:
        taken = 0
        while taken < count:
            cols = _random_columns(rng, wn, wk, ws + wl)
            op = _witness(wn, wk, ws, wl, cols[:ws], cols[ws:])
            if shared_member_only(wn, ws, cols[:ws], cols[ws:]):
                defects.append(op)
            else:
                ops.append(op)
                taken += 1
    rng.shuffle(ops)
    return ops, defects


def build(workload: str, seed: int, workdir: str) -> tuple[list[Op], list[Op]]:
    """(measured pass, known-defect queries) of a workload."""
    if workload == "verify-ladder":
        return ladder_ops(workdir), []
    if workload == "wide-file":
        return wide_ops(workdir), []
    if workload == "query-mix":
        return query_ops(seed)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
