"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

The grid covers every accepted parameter set with n <= 7, s in {1,2},
ell in {1,2,3}, s < k < n, s + ell <= C(n,k), and at most 5000 rows.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.

The construction is (s, ell)-cover-free exactly when ell <= E_min(n,k,s),
the fewest s-subsets of [n] that lie in none of s distinct negative columns.
Twenty grid sets sit past that bound. Criteria 1 and 4 check that the tools
report each case faithfully: verify fails exactly on those sets, with a
counterexample that no row separates, and the witness search gives up only
on queries that have no witness. ``_min_escaping`` computes E_min by brute
force from the definition, independently of cfcode.

Two further checks run on the same grid: ``materialize`` equals a per-row
reference construction, and the verifier's orbit mode gives the full walk's
verdict for several (s, ell) on every set.
"""

import contextlib
import functools
import io
import itertools
import random
import re
import sys
import time
import warnings
from dataclasses import replace

import pytest
from reference import construction_rows, witness_count, witness_counts

from cfcode.cli import main as cli_main
from cfcode.combinatorics import binomial
from cfcode.code_core import (
    BitMatrix,
    CodeParams,
    ParameterWarning,
    asymptotic_estimates,
    column_from_rank,
    column_rank,
    construction_columns,
    dimensions,
    entry,
    materialize,
    row_label_from_rank,
    row_rank_from_label,
)
from cfcode.matrix_io import read_matrix
from cfcode.verification import (WitnessSearchError, _venn_types, escaping_count,
                                 verify_cover_free, witness_row)

MAX_ROWS = 5000
QUERIES_PER_SET = 1000
LARGEST_QUOTED_CASE = CodeParams(7, 4, 2, 2)


@pytest.fixture(autouse=True)
def _mute_parameter_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ParameterWarning)
        yield


def _fmt(params):
    return f"({params.n},{params.k},{params.s},{params.ell})"


def _report(number, ok, detail):
    # Write straight to the terminal so the line shows regardless of capture.
    line = f"[criterion {number}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line, file=sys.__stdout__)
    return line


def _run_cli(argv):
    """Invoke the CLI in-process, returning (exit code, stdout text)."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli_main(argv)
    return code, buffer.getvalue()


@pytest.fixture(scope="session")
def grid():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ParameterWarning)
        params_list = []
        for n in range(3, 8):
            for s in (1, 2):
                for k in range(s + 1, n):
                    t = binomial(n, k)
                    for ell in (1, 2, 3):
                        if s + ell > t:
                            continue
                        params = CodeParams(n, k, s, ell)
                        if dimensions(params).num_rows > MAX_ROWS:
                            continue
                        params_list.append(params)
    return params_list


@pytest.fixture(scope="session")
def matrices(grid):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ParameterWarning)
        return {params: materialize(params) for params in grid}


@pytest.fixture(scope="session")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


def _escaping_count(n, s, negatives):
    """Count the s-subsets of [n] contained in no negative column."""
    negs = [frozenset(col) for col in negatives]
    return sum(1 for sub in itertools.combinations(range(1, n + 1), s)
               if not any(neg.issuperset(sub) for neg in negs))


@functools.lru_cache(maxsize=None)
def _min_escaping(n, k, s):
    """E_min(n,k,s): the minimum, over all s-sets of distinct k-subsets of [n]
    used as negatives, of the number of s-subsets of [n] in none of them."""
    columns = list(itertools.combinations(range(1, n + 1), k))
    return min(_escaping_count(n, s, negs) for negs in itertools.combinations(columns, s))


@pytest.fixture(scope="session")
def not_cover_free(grid):
    return {params for params in grid
            if params.ell > _min_escaping(params.n, params.k, params.s)}


def _counterexample_confirmed(out, params, matrix):
    """The verify report names s negative and ell positive columns, all
    distinct and in range, that no row of the matrix separates."""
    lines = out.splitlines()
    if len(lines) < 3 or lines[0] != f"NOT COVER-FREE ({params.s},{params.ell})":
        return False
    families = []
    for line, tag, size in ((lines[1], "neg", params.s), (lines[2], "pos", params.ell)):
        match = re.fullmatch(tag + r" \{([\d,]+)\}", line)
        if not match:
            return False
        cols = [int(x) for x in match.group(1).split(",")]
        if len(cols) != size:
            return False
        families.append(cols)
    neg, pos = families
    cols = neg + pos
    if len(set(cols)) != len(cols) or not all(1 <= c <= matrix.num_cols for c in cols):
        return False
    return witness_count(matrix.rows, neg, pos) == 0


def test_criterion_1_generate_and_verify_whole_grid(grid, matrices, not_cover_free, workdir):
    assert len(grid) >= 25
    assert not_cover_free
    wrong = []
    reported = set()
    total_time = 0.0
    largest_case_time = None
    for params in grid:
        path = workdir / f"m_{params.n}_{params.k}_{params.s}_{params.ell}.txt"
        start = time.perf_counter()
        gen_code, _ = _run_cli(["gen", str(params.n), str(params.k), str(params.s),
                                str(params.ell), "--out", str(path)])
        verify_code, out = _run_cli(["verify", str(path), "--s", str(params.s),
                                     "--l", str(params.ell), "--threads", "1"])
        elapsed = time.perf_counter() - start
        total_time += elapsed
        if params == LARGEST_QUOTED_CASE:
            largest_case_time = elapsed
        expected = 1 if params in not_cover_free else 0
        if gen_code != 0 or verify_code != expected:
            wrong.append(f"{_fmt(params)} gen={gen_code} verify={verify_code}, "
                         f"expected verify={expected}")
        elif verify_code == 1:
            if _counterexample_confirmed(out, params, matrices[params]):
                reported.add(params)
            else:
                wrong.append(f"{_fmt(params)} counterexample not confirmed: {out!r}")

    detail = (f"{len(grid)} parameter sets, {total_time:.1f}s total, "
              f"largest quoted case {largest_case_time:.2f}s; "
              f"{len(not_cover_free)} sets have l > E_min, "
              f"{len(reported)} reported NOT COVER-FREE with a confirmed counterexample")
    if wrong:
        detail += "; wrong: " + ", ".join(wrong)
    ok = (not wrong and reported == not_cover_free
          and total_time < 60 and largest_case_time < 10)
    _report(1, ok, detail)
    assert not wrong, (
        "gen must exit 0 everywhere and verify must exit 1 exactly where "
        "l > E_min(n,k,s), with a confirmed counterexample; " + "; ".join(wrong))
    assert reported == not_cover_free
    assert total_time < 60
    assert largest_case_time < 10


def test_criterion_2_constant_column_weight(grid, matrices):
    bad = []
    for params in grid:
        dims = dimensions(params)
        sums = matrices[params].column_sums()
        if set(sums) != {dims.column_weight}:
            bad.append(_fmt(params))
    reference_weight = dimensions(CodeParams(5, 3, 2, 2)).column_weight
    ok = not bad and reference_weight == 24
    _report(2, ok, f"all column sums match the closed form; (5,3,2,2) weight {reference_weight}")
    assert not bad, f"column sums deviate from the closed form for {bad}"
    assert reference_weight == 24


def test_criterion_3_matrix_dimensions(grid, matrices, workdir):
    bad = []
    for params in grid:
        dims = dimensions(params)
        m = matrices[params]
        expected_rows = binomial(binomial(params.n, params.s), params.ell)
        expected_cols = binomial(params.n, params.k)
        if not (m.num_rows == dims.num_rows == expected_rows
                and m.num_cols == dims.num_cols == expected_cols):
            bad.append(_fmt(params))
    reference = matrices[CodeParams(5, 3, 2, 2)]
    path = workdir / "dims_5_3_2_2.txt"
    assert _run_cli(["gen", "5", "3", "2", "2", "--out", str(path)])[0] == 0
    file_matrix, _ = read_matrix(path)
    ok = (not bad and (reference.num_rows, reference.num_cols) == (45, 10)
          and file_matrix == reference)
    _report(3, ok, f"shapes match the product formula; (5,3,2,2) is {reference.num_rows}x{reference.num_cols}")
    assert not bad
    assert (reference.num_rows, reference.num_cols) == (45, 10)
    assert file_matrix == reference


def test_criterion_4_witness_soundness(grid, matrices):
    failing = {}
    no_witness = {}
    for params in grid:
        t = dimensions(params).num_cols
        matrix = matrices[params]
        rng = random.Random(params.n * 10_000 + params.k * 100 + params.s * 10 + params.ell)
        bad = 0
        for _ in range(QUERIES_PER_SET):
            ranks = rng.sample(range(t), params.s + params.ell)
            neg_ranks = sorted(ranks[:params.s])
            pos_ranks = sorted(ranks[params.s:])
            neg = [column_from_rank(params, r) for r in neg_ranks]
            pos = [column_from_rank(params, r) for r in pos_ranks]
            neg_cols = [r + 1 for r in neg_ranks]
            pos_cols = [r + 1 for r in pos_ranks]
            try:
                label = witness_row(params, neg, pos)
            except WitnessSearchError:
                # Sound only if the query really has no witness.
                escaping = _escaping_count(params.n, params.s, (c.elements for c in neg))
                if (escaping >= params.ell
                        or witness_count(matrix.rows, neg_cols, pos_cols)):
                    bad += 1
                else:
                    no_witness[params] = no_witness.get(params, 0) + 1
                continue
            sound = (all(entry(params, label, col) == 1 for col in pos)
                     and all(entry(params, label, col) == 0 for col in neg))
            rank = row_rank_from_label(params, label)
            if not sound or not witness_count([matrix.rows[rank]], neg_cols, pos_cols):
                bad += 1
        if bad:
            failing[params] = bad

    detail = (f"{QUERIES_PER_SET} randomized queries per parameter set; every returned "
              f"witness separates its query; {sum(no_witness.values())} queries on "
              f"{len(no_witness)} sets report no witness, each confirmed by fewer than "
              f"l escaping s-subsets and no separating row")
    if failing:
        detail += ("; unsound answers on "
                   + ", ".join(f"{_fmt(p)} ({c}/{QUERIES_PER_SET})"
                               for p, c in failing.items()))
    _report(4, not failing, detail)
    assert not failing, (
        "every witness must validate, and the search may give up only where no "
        "witness exists; " + ", ".join(f"{_fmt(p)}: {c} failures" for p, c in failing.items()))


def test_criterion_5_oracle_matches_materialization(grid, matrices):
    mismatches = []
    for params in grid:
        matrix = matrices[params]
        cols = [column_from_rank(params, j) for j in range(matrix.num_cols)]
        for i in range(matrix.num_rows):
            row = row_label_from_rank(params, i)
            packed = matrix.rows[i]
            for j, col in enumerate(cols):
                if entry(params, row, col) != (packed >> j) & 1:
                    mismatches.append((_fmt(params), i, j))
    cells = sum(m.num_rows * m.num_cols for m in matrices.values())
    _report(5, not mismatches, f"{cells} cells compared across {len(grid)} matrices")
    assert not mismatches, f"entry oracle disagrees with materialization at {mismatches[:5]}"


def test_criterion_6_rank_bijections_round_trip(grid):
    bad = []
    for params in grid:
        dims = dimensions(params)
        for r in range(dims.num_rows):
            if row_rank_from_label(params, row_label_from_rank(params, r)) != r:
                bad.append((_fmt(params), "row", r))
        for r in range(dims.num_cols):
            if column_rank(params, column_from_rank(params, r)) != r:
                bad.append((_fmt(params), "col", r))
    total = sum(dimensions(p).num_rows + dimensions(p).num_cols for p in grid)
    _report(6, not bad, f"{total} ranks round-tripped across {len(grid)} parameter sets")
    assert not bad, f"rank bijections broke at {bad[:5]}"


def test_criterion_7_negative_controls_and_mutation(grid, matrices):
    all_ones = BitMatrix(4, 6, [0b111111] * 4)
    ones_verdict = verify_cover_free(all_ones, 1, 1)
    identity = BitMatrix(6, 6, [1 << i for i in range(6)])
    identity_verdict = verify_cover_free(identity, 1, 1)

    params = CodeParams(5, 3, 2, 1)
    pristine = matrices[params]
    assert verify_cover_free(pristine, 2, 1).holds
    neg, pos = next(f for f, c in witness_counts(pristine.rows, pristine.num_cols, 2, 1)
                    if c == 1)
    row_index = next(i for i, r in enumerate(pristine.rows) if witness_count([r], neg, pos))
    mutated = BitMatrix(pristine.num_rows, pristine.num_cols, list(pristine.rows))
    mutated.set(row_index, pos[0] - 1, 0)
    mutated_verdict = verify_cover_free(mutated, 2, 1)

    ok = (not ones_verdict.holds and ones_verdict.counterexample is not None
          and identity_verdict.holds and not mutated_verdict.holds)
    _report(7, ok, "all-ones fails with counterexample, identity passes, "
                   "unique-witness mutation flips the verdict")
    assert not ones_verdict.holds and ones_verdict.counterexample is not None
    assert identity_verdict.holds
    assert not mutated_verdict.holds


def test_criterion_8_asymptotic_ratio_checks():
    ratios = []
    for n in range(20, 201):
        exact = dimensions(CodeParams(n, n // 2, 2, 1)).num_rows
        estimate = asymptotic_estimates(n, 2, 1)
        ratios.append(exact / estimate)
    in_band = all(0.9 <= r <= 1.0 for r in ratios)
    increasing = all(a < b for a, b in zip(ratios, ratios[1:]))

    exact_singleton = True
    for n in (5, 20, 100):
        rows = dimensions(CodeParams(n, 2, 1, 1)).num_rows
        estimate = asymptotic_estimates(n, 1, 1)
        exact_singleton &= rows == n and estimate == n

    ok = in_band and increasing and exact_singleton
    _report(8, ok, f"pair-subset ratio spans [{ratios[0]:.4f}, {ratios[-1]:.4f}] "
                   "and increases; singleton ratio exactly 1")
    assert in_band and increasing and exact_singleton


def test_criterion_9_determinism(workdir):
    first, second = workdir / "det_a.txt", workdir / "det_b.txt"
    assert _run_cli(["gen", "5", "3", "2", "2", "--out", str(first)])[0] == 0
    assert _run_cli(["gen", "5", "3", "2", "2", "--out", str(second)])[0] == 0
    byte_identical = first.read_bytes() == second.read_bytes()

    runs = {}
    for threads in ("1", "8"):
        runs[threads] = _run_cli(["verify", str(first), "--s", "2", "--l", "2",
                                  "--threads", threads])
    thread_invariant = runs["1"] == runs["8"]

    ones = workdir / "det_ones.txt"
    ones.write_text("cfcode v1\n4 6\n" + ("111111\n" * 4))
    fails = {}
    for threads in ("1", "8"):
        fails[threads] = _run_cli(["verify", str(ones), "--s", "1", "--l", "1",
                                   "--threads", threads])
    failure_invariant = fails["1"] == fails["8"] and fails["1"][0] == 1

    ok = byte_identical and thread_invariant and failure_invariant
    _report(9, ok, "byte-identical generation, thread-count-invariant verdicts")
    assert byte_identical
    assert thread_invariant
    assert failure_invariant


def test_materialize_matches_reference_rows(grid, matrices):
    bad = [_fmt(p) for p in grid
           if matrices[p].rows != construction_rows(p.n, p.k, p.s, p.ell)]
    assert not bad, f"materialize differs from the per-row construction for {bad}"


def test_construction_columns_match_materialize(grid, matrices):
    bad = [_fmt(p) for p in grid
           if list(construction_columns(p)) != matrices[p].columns()]
    assert not bad, f"construction_columns differs from materialize for {bad}"


def test_least_escaping_count_over_types(grid):
    # The least E over the enumerated types of s negatives is E_min, counted
    # by brute force from its definition.
    for n, k, s in sorted({(p.n, p.k, p.s) for p in grid}):
        least = min(escaping_count(counts, s) for counts in _venn_types(n, k, s))
        assert least == _min_escaping(n, k, s), (n, k, s)


def test_orbit_mode_matches_full_walk(grid, matrices, not_cover_free):
    # Each matrix is checked for its own (s, ell) and four others; the 20
    # sets past E_min fail at their own (s, ell) in both modes.
    compared = failing = 0
    for params in grid:
        matrix, code = matrices[params], BitMatrix.of_construction(params)
        shapes = {(1, 1), (1, 2), (2, 1), (2, 2), (params.s, params.ell)}
        for s, ell in sorted(shapes):
            if s + ell > matrix.num_cols:
                continue
            for count in (False, True):
                full = verify_cover_free(matrix, s, ell, count_witnesses=count)
                orbit = verify_cover_free(code, s, ell, count_witnesses=count)
                assert full.orbits is None and orbit.orbits is not None
                assert replace(orbit, orbits=None) == full, (_fmt(params), s, ell, count)
                compared += 1
                failing += not full.holds and (s, ell) == (params.s, params.ell)
    assert compared > 500
    assert failing == 2 * len(not_cover_free)
