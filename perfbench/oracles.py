"""Independent oracles for the benchmark's output checks.

Nothing here imports cfcode. Ranks are colex sums of ``math.comb``, entries
come from set containment, and whether a witness row exists is decided by
counting escaping s-subsets (s-subsets of [n] inside no negative column): a
witness exists iff at least ``l`` of them escape, given distinct columns of
size k > s.

Each ``check_*`` function returns ``(status, detail)`` with status ``OK``,
``WRONG`` (the program printed an answer that is false) or ``REFUSED`` (the
program gave no answer where one exists, or exited unexpectedly). Both count
as failed.
"""

from __future__ import annotations

import hashlib
import itertools
import re
from math import comb

OK, WRONG, REFUSED = "ok", "wrong", "refused"

_SET = re.compile(r"\{([^{}]*)\}")


def colex_rank(elements) -> int:
    """0-based colex rank of an increasing tuple of positive integers."""
    return sum(comb(c - 1, i) for i, c in enumerate(elements, start=1))


def row_rank(members) -> int:
    """Row rank of a family of s-subsets: colex rank of its member indices."""
    return colex_rank(sorted(colex_rank(m) + 1 for m in members))


def parse_sets(text: str) -> list[tuple[int, ...]] | None:
    """All set literals in ``text`` as tuples, or None if one is malformed."""
    out = []
    for body in _SET.findall(text):
        try:
            out.append(tuple(int(x) for x in body.split(",")))
        except ValueError:
            return None
    return out


def format_sets(sets, sep: str = ";") -> str:
    return sep.join("{" + ",".join(map(str, c)) + "}" for c in sets)


def _is_subset_of_ground(elements, size: int, n: int) -> bool:
    return (len(elements) == size
            and all(1 <= e <= n for e in elements)
            and all(a < b for a, b in zip(elements, elements[1:])))


def escaping_count(n: int, s: int, negatives) -> int:
    """Number of s-subsets of [n] contained in no negative column, by
    inclusion-exclusion over the intersections of the negative columns."""
    negs = [frozenset(c) for c in negatives]
    total = 0
    for r in range(len(negs) + 1):
        for group in itertools.combinations(negs, r):
            size = len(frozenset.intersection(*group)) if group else n
            total += (-1) ** r * comb(size, s)
    return total


def shared_member_only(n: int, s: int, neg, pos) -> bool:
    """True if a witness row exists but none gives each positive column a
    member of its own: no distinct escaping s-subset per positive column
    (Hall's condition fails), so every witness shares a member between
    positive columns."""
    if escaping_count(n, s, neg) < len(pos):
        return False
    negsets = [frozenset(c) for c in neg]
    cands = [{c for c in itertools.combinations(p, s)
              if not any(ns.issuperset(c) for ns in negsets)} for p in pos]
    return any(len(set().union(*group)) < r
               for r in range(1, len(cands) + 1)
               for group in itertools.combinations(cands, r))


def families_until(t: int, s: int, ell: int, neg=None, pos=None) -> int:
    """Families the verifier must check to reach its verdict: all
    C(t,s)*C(t-s,l) when the property holds, else the 1-based position of
    the counterexample (colex order of neg, then of pos within the rest)."""
    per_neg = comb(t - s, ell)
    if neg is None:
        return comb(t, s) * per_neg
    rest = [c for c in range(1, t + 1) if c not in set(neg)]
    return colex_rank(neg) * per_neg + colex_rank([rest.index(p) + 1 for p in pos]) + 1


def check_verify(expect: dict, code: int, out: str) -> tuple[str, str]:
    """Compare a verify report with the pinned verdict.

    ``expect`` has ``holds`` and, when the property fails, ``neg``/``pos``;
    with ``min_witnesses`` the counting report must state that minimum.
    """
    s, ell = expect["s"], expect["l"]
    lines = out.splitlines()
    if expect["holds"]:
        if code != 0 or not lines or lines[0] != f"COVER-FREE ({s},{ell})":
            return WRONG, f"expected COVER-FREE ({s},{ell}) exit 0, got exit {code}: {out[:80]!r}"
    else:
        want = [f"NOT COVER-FREE ({s},{ell})",
                "neg " + format_sets([expect["neg"]]), "pos " + format_sets([expect["pos"]])]
        if code != 1 or lines[:3] != want:
            return WRONG, f"expected {want} exit 1, got exit {code}: {out[:120]!r}"
    if "min_witnesses" in expect:
        found = re.search(r"^min witnesses (\d+)", out, re.MULTILINE)
        if not found or int(found.group(1)) != expect["min_witnesses"]:
            return WRONG, f"expected min witnesses {expect['min_witnesses']}: {out[:120]!r}"
    return OK, ""


def check_gen(path: str, code: int, out: str, rows: int, cols: int) -> tuple[str, str]:
    if code != 0:
        return REFUSED, f"gen exited {code}"
    if out != f"{path}: {rows}x{cols}\n":
        return WRONG, f"unexpected gen report {out[:80]!r}"
    return OK, ""


def check_entry(n: int, k: int, s: int, ell: int, row: int, col: int,
                code: int, out: str) -> tuple[str, str]:
    """Recompute the printed bit and both ranks from the printed label and set."""
    if code != 0:
        return REFUSED, f"entry exited {code}"
    lines = out.splitlines()
    if len(lines) < 3 or lines[0] not in ("0", "1"):
        return WRONG, f"malformed entry report {out[:80]!r}"
    m_row = re.fullmatch(r"row rank=(\d+) label=(.*)", lines[1])
    m_col = re.fullmatch(r"col rank=(\d+) set=(.*)", lines[2])
    if not m_row or not m_col:
        return WRONG, f"malformed entry report {out[:80]!r}"
    members = parse_sets(m_row.group(2))
    column = parse_sets(m_col.group(2))
    if (members is None or column is None or len(column) != 1 or len(members) != ell
            or len(set(members)) != ell
            or not all(_is_subset_of_ground(m, s, n) for m in members)
            or not _is_subset_of_ground(column[0], k, n)):
        return WRONG, f"invalid label or column in {out[:120]!r}"
    if int(m_row.group(1)) != row or row_rank(members) != row:
        return WRONG, f"row label does not have rank {row}"
    if int(m_col.group(1)) != col or colex_rank(column[0]) != col:
        return WRONG, f"column set does not have rank {col}"
    colset = set(column[0])
    bit = int(any(colset.issuperset(m) for m in members))
    if int(lines[0]) != bit:
        return WRONG, f"bit {lines[0]} but containment gives {bit}"
    return OK, ""


def check_witness(n: int, k: int, s: int, ell: int, neg, pos,
                  code: int, out: str) -> tuple[str, str]:
    """A printed witness must separate the columns; exit 4 must mean fewer
    than ``ell`` escaping s-subsets."""
    exists = escaping_count(n, s, neg) >= ell
    if code == 4:
        return (REFUSED, "exit 4 although a witness exists") if exists else (OK, "")
    if code != 0:
        return REFUSED, f"witness exited {code}"
    lines = out.splitlines()
    members = parse_sets(lines[0]) if lines else None
    if (members is None or len(members) != ell or len(set(members)) != ell
            or not all(_is_subset_of_ground(m, s, n) for m in members)):
        return WRONG, f"invalid witness label {out[:120]!r}"
    negsets = [set(c) for c in neg]
    if any(ns.issuperset(m) for m in members for ns in negsets):
        return WRONG, "a witness member lies inside a negative column"
    if not all(any(set(p).issuperset(m) for m in members) for p in pos):
        return WRONG, "a positive column contains no witness member"
    if len(lines) < 2 or lines[1] != f"rank={row_rank(members)}":
        return WRONG, f"printed rank does not match the label {out[:120]!r}"
    return OK, ""


def matrix_rows(n: int, k: int, s: int, ell: int) -> tuple[list[int], int]:
    """Rows of the (n,k,s,l) code as ints (bit j = column j), from the
    definition: a row holds 1 where one of its members lies in the column.
    Returns the rows and the column count."""
    ground = range(1, n + 1)
    cols = [frozenset(c) for c in sorted(itertools.combinations(ground, k), key=colex_rank)]
    subs = sorted(itertools.combinations(ground, s), key=colex_rank)
    masks = []
    for sub in subs:
        mask = 0
        for j, c in enumerate(cols):
            if c.issuperset(sub):
                mask |= 1 << j
        masks.append(mask)
    families = sorted(itertools.combinations(range(1, len(subs) + 1), ell), key=colex_rank)
    rows = []
    for family in families:
        bits = 0
        for i in family:
            bits |= masks[i - 1]
        rows.append(bits)
    return rows, len(cols)


def matrix_file_digest(n: int, k: int, s: int, ell: int) -> str:
    """SHA-256 of the file ``gen n k s l`` must write (the cfcode v1 format)."""
    rows, t = matrix_rows(n, k, s, ell)
    h = hashlib.sha256()
    h.update(f"cfcode v1\n{len(rows)} {t}\n# n={n} k={k} s={s} l={ell}\n".encode())
    width = f"0{t}b"
    for r in rows:
        h.update((format(r, width)[::-1] + "\n").encode())
    return h.hexdigest()


def file_digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()
