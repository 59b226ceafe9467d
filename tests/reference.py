"""Independent reference computations for the tests.

Everything here works on plain row ints (bit j of a row is column j, as in
``BitMatrix.rows``), on tuples of 1-based elements or column positions, and
on the text of matrix files. Nothing is imported from cfcode, so these
checks share no code with the package's bulk transpose, scan kernel, closed
forms or block-wise file I/O. ``piped`` feeds a file's bytes to a reader
through a pipe.
"""

import contextlib
import itertools
import os
import re
import threading


def colex_sorted(iterable):
    """Sort tuples in colex order: compare the largest element first."""
    return sorted(iterable, key=lambda c: tuple(reversed(c)))


def transpose(rows, num_cols):
    """Column masks built one bit at a time: bit i of mask j is row i's bit j.
    Only a row's set bits below num_cols are visited, lowest first."""
    masks = [0] * num_cols
    for i, row in enumerate(rows):
        row &= (1 << num_cols) - 1
        while row:
            masks[(row & -row).bit_length() - 1] |= 1 << i
            row &= row - 1
    return masks


def witness_count(rows, neg, pos):
    """The number of rows that are 0 on every negative and 1 on every positive
    column; columns are 1-based positions."""
    neg_bits = sum(1 << (c - 1) for c in set(neg))
    pos_bits = sum(1 << (c - 1) for c in set(pos))
    return sum(1 for r in rows if not r & neg_bits and r & pos_bits == pos_bits)


def witness_counts(rows, num_cols, s, ell):
    """Yield ``((neg, pos), count)`` for every disjoint family of s negative
    and ell positive columns, in the verifier's order: colex in the negatives,
    then colex in the positives among the remaining columns."""
    for neg in colex_sorted(itertools.combinations(range(1, num_cols + 1), s)):
        rest = [c for c in range(1, num_cols + 1) if c not in neg]
        for pos in colex_sorted(itertools.combinations(rest, ell)):
            yield (neg, pos), witness_count(rows, neg, pos)


def scan_summary(rows, num_cols, s, ell):
    """In verifier order: the first family with no witness row (or None), the
    least witness count, and the first family with that count."""
    first_fail, least, least_family = None, None, None
    for family, count in witness_counts(rows, num_cols, s, ell):
        if count == 0 and first_fail is None:
            first_fail = family
        if least is None or count < least:
            least, least_family = count, family
    return first_fail, least, least_family


def column_weight(n, s, ell, column):
    """The number of row labels (ell distinct s-subsets of [n]) with a member
    inside ``column``, by scanning every label."""
    col = set(column)
    inside = [col.issuperset(sub)
              for sub in itertools.combinations(range(1, n + 1), s)]
    return sum(1 for picks in itertools.combinations(range(len(inside)), ell)
               if any(inside[i] for i in picks))


def construction_rows(n, k, s, ell):
    """The rows of the (n, k, s, ell) code in rank order: each row is the OR
    of its members' column patterns, and a member's pattern has bit j set
    when the member lies inside column j (columns are the k-subsets of [n]
    in colex order)."""
    columns = [set(c) for c in colex_sorted(itertools.combinations(range(1, n + 1), k))]
    patterns = [sum(1 << j for j, col in enumerate(columns) if col.issuperset(sub))
                for sub in colex_sorted(itertools.combinations(range(1, n + 1), s))]
    rows = []
    for picks in colex_sorted(itertools.combinations(range(len(patterns)), ell)):
        row = 0
        for i in picks:
            row |= patterns[i]
        rows.append(row)
    return rows


def orbit_count(n, k, s):
    """The number of S_n orbits of families of s distinct k-subsets of [n],
    by joining every family to its images under the two permutations that
    generate S_n: the swap of 1 and 2 and the cycle 1 -> 2 -> ... -> n -> 1."""
    columns = [frozenset(c) for c in itertools.combinations(range(1, n + 1), k)]
    families = [frozenset(f) for f in itertools.combinations(columns, s)]
    parent = {f: f for f in families}

    def root(f):
        while parent[f] != f:
            parent[f] = parent[parent[f]]  # path halving keeps the chains short
            f = parent[f]
        return f

    generators = [{1: 2, 2: 1}, {e: e % n + 1 for e in range(1, n + 1)}]
    for f in families:
        for g in generators:
            image = frozenset(frozenset(g.get(e, e) for e in c) for c in f)
            parent[root(image)] = root(f)
    return len({root(f) for f in families})


def format_matrix(rows, num_cols, comments=()):
    """The text of a matrix file, built one data line at a time: a line holds
    a row's bits from column 0 up."""
    lines = ["cfcode v1", f"{len(rows)} {num_cols}", *comments]
    lines += ["".join(str(row >> j & 1) for j in range(num_cols)) for row in rows]
    return "".join(line + "\n" for line in lines)


def parse_matrix(text):
    """Parse the text of a matrix file one line at a time, after translating
    "\\r\\n" and "\\r" to "\\n". Returns ``(num_cols, rows, provenance)``.

    Raises ValueError whose argument is the 1-based line a reader must report:
    a line without its newline at once; then a bad magic or size line; then a
    data line count that differs from the header, at the first data line; then
    the first data line that is not exactly ``num_cols`` characters of 0 and 1.
    """
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if lines[-1]:
        raise ValueError(len(lines))
    lines.pop()
    if not lines or lines[0] != "cfcode v1":
        raise ValueError(1)
    size = lines[1].split(" ") if len(lines) > 1 else []
    if len(size) != 2 or not all(part.isdigit() for part in size):
        raise ValueError(2)
    num_rows, num_cols = int(size[0]), int(size[1])
    provenance, first = None, 2
    while first < len(lines) and lines[first].startswith("#"):
        found = re.search(r"n=(\d+)\s+k=(\d+)\s+s=(\d+)\s+l=(\d+)", lines[first])
        if found:
            provenance = dict(zip(("n", "k", "s", "ell"), map(int, found.groups())))
        first += 1
    data = lines[first:]
    if len(data) != num_rows:
        raise ValueError(first + 1)
    rows = []
    for number, line in enumerate(data, first + 1):
        if len(line) != num_cols or set(line) - {"0", "1"}:
            raise ValueError(number)
        # Bit j of the row is character j of the line.
        rows.append(int(line[::-1] or "0", 2))
    return num_cols, rows, provenance


@contextlib.contextmanager
def piped(data):
    """A /dev/fd path to the read end of a pipe that a thread fills with
    ``data``: a stream that cannot seek back, as ``cat m.txt | cfcode verify
    /dev/stdin`` gives the reader. A reader that stops early leaves the
    writer a broken pipe, which ends it."""
    read_end, write_end = os.pipe()

    def feed():
        with contextlib.suppress(BrokenPipeError), open(write_end, "wb") as out:
            out.write(data)

    thread = threading.Thread(target=feed)
    thread.start()
    try:
        yield f"/dev/fd/{read_end}"
    finally:
        os.close(read_end)
        thread.join(timeout=60)
        assert not thread.is_alive()
