import itertools
import random
import time
import tracemalloc
import warnings

import pytest
from reference import (colex_sorted, column_weight, construction_rows, orbit_count, piped,
                       scan_summary, transpose, witness_count, witness_counts)

from cfcode import code_core, matrix_io, verification
from cfcode.combinatorics import KSubset
from cfcode.code_core import (
    TRANSPOSE_BLOCK_ROWS,
    BitMatrix,
    CodeParams,
    ParameterWarning,
    column_from_rank,
    column_rank,
    dimensions,
    entry,
    materialize,
    row_label_from_rank,
    row_rank_from_label,
)
from cfcode.matrix_io import provenance_params, read_matrix, write_construction, write_matrix
from cfcode.verification import (
    CoverFreeQuery,
    Verdict,
    WitnessSearchError,
    verify_cover_free,
    witness_row,
)


@pytest.fixture(autouse=True)
def _mute_parameter_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ParameterWarning)
        yield


def _as_pair(query):
    return None if query is None else (query.neg_cols, query.pos_cols)


class TestCoverFreeQuery:
    def test_normalizes(self):
        q = CoverFreeQuery((3, 1), (2,))
        assert q.neg_cols == (1, 3)

    def test_rejects_overlap(self):
        with pytest.raises(ValueError):
            CoverFreeQuery((1, 2), (2, 3))

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            CoverFreeQuery((1, 1), (2,))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            CoverFreeQuery((), (1,))


class TestRowSatisfies:
    """The reference's row test on hand-worked rows (bit j is column j + 1)."""

    def test_pattern_match(self):
        assert witness_count([0b0110], (1,), (2, 3)) == 1
        assert witness_count([0b0110], (1,), (2, 4)) == 0

    def test_negative_column_holds_one(self):
        assert witness_count([0b0110], (2,), (3,)) == 0

    def test_all_ones_row(self):
        assert witness_count([0b1111], (1,), (2,)) == 0


class TestVerifyCoverFree:
    def test_reference_instance_holds(self):
        m = materialize(CodeParams(5, 3, 2, 2))
        verdict = verify_cover_free(m, 2, 2)
        assert verdict.holds
        assert verdict.counterexample is None

    def test_identity_holds(self):
        m = BitMatrix(3, 3, [0b001, 0b010, 0b100])
        assert verify_cover_free(m, 1, 1).holds

    def test_all_ones_fails_with_first_query(self):
        m = BitMatrix(2, 3, [0b111, 0b111])
        verdict = verify_cover_free(m, 1, 1)
        assert not verdict.holds
        assert verdict.counterexample == CoverFreeQuery((1,), (2,))
        assert verdict.witness_count == 0

    def test_preconditions(self):
        m = BitMatrix(2, 3, [0b111, 0b111])
        with pytest.raises(ValueError):
            verify_cover_free(m, 0, 1)
        with pytest.raises(ValueError):
            verify_cover_free(m, 1, 0)
        with pytest.raises(ValueError):
            verify_cover_free(m, 2, 2)

    def test_matches_naive_on_random_matrices(self):
        rng = random.Random(7)
        for trial in range(30):
            rows = rng.randrange(1, 9)
            cols = rng.randrange(2, 7)
            m = BitMatrix(rows, cols,
                          [rng.randrange(1 << cols) for _ in range(rows)])
            for s in (1, 2):
                for ell in (1, 2):
                    if s + ell > cols:
                        continue
                    first_fail, _, _ = scan_summary(m.rows, cols, s, ell)
                    verdict = verify_cover_free(m, s, ell)
                    assert verdict.holds == (first_fail is None)
                    assert _as_pair(verdict.counterexample) == first_fail

    def test_thread_counts_agree(self):
        rng = random.Random(11)
        for trial in range(10):
            m = BitMatrix(8, 6, [rng.randrange(64) for _ in range(8)])
            base = verify_cover_free(m, 2, 2, threads=1)
            for threads in (2, 3, 8):
                v = verify_cover_free(m, 2, 2, threads=threads)
                assert v == base

    def test_count_witnesses_mode(self):
        m = materialize(CodeParams(5, 3, 2, 2))
        verdict = verify_cover_free(m, 2, 2, count_witnesses=True)
        assert verdict.holds
        _, least, least_family = scan_summary(m.rows, m.num_cols, 2, 2)
        assert verdict.witness_count == least > 0
        assert _as_pair(verdict.min_family) == least_family
        assert verify_cover_free(m, 2, 2).witness_count is None
        bad = BitMatrix(2, 3, [0b111, 0b111])
        verdict = verify_cover_free(bad, 1, 1, count_witnesses=True)
        assert not verdict.holds
        assert verdict.counterexample == CoverFreeQuery((1,), (2,))
        assert verdict.witness_count == 0


class TestKernelAgainstBruteForce:
    @staticmethod
    def _matrices():
        rng = random.Random(2024)
        for trial in range(160):
            num_rows = 0 if trial % 16 == 0 else rng.randrange(1, 13)
            num_cols = rng.randrange(2, 9)
            density = rng.choice((0.3, 0.5, 0.7, 0.9))
            rows = [sum(1 << j for j in range(num_cols) if rng.random() < density)
                    for _ in range(num_rows)]
            if trial % 5 == 0:
                # Column 1 is set on every row, so every negative family
                # holding it leaves no candidate rows at all.
                rows = [r | 1 for r in rows]
            yield BitMatrix(num_rows, num_cols, rows)
        # Columns 1 and 2 are set on the low 90% of about 600 rows, so a
        # negative family holding either leaves only rows high in the order:
        # the scan ANDs whole columns over a long run of low zero rows.
        for num_rows in (590, 600, 613):
            low = num_rows * 9 // 10
            yield BitMatrix(num_rows, 6, [rng.getrandbits(6) | (0b11 if i < low else 0)
                                          for i in range(num_rows)])
        # Random matrices rarely satisfy the property; these codes do for
        # small (s, ell), with many families tied at the least count.
        for params in (CodeParams(4, 2, 1, 1), CodeParams(5, 3, 2, 1),
                       CodeParams(5, 3, 2, 2), CodeParams(5, 2, 1, 2)):
            yield materialize(params)

    def test_verdicts_counterexamples_and_minima(self):
        checked = empty_base = 0
        for m in self._matrices():
            for s in (1, 2, 3):
                for ell in (1, 2, 3, 4, 5):
                    if s + ell > m.num_cols:
                        continue
                    first_fail, least, least_family = scan_summary(
                        m.rows, m.num_cols, s, ell)
                    plain = verify_cover_free(m, s, ell)
                    assert plain.holds == (first_fail is None)
                    assert _as_pair(plain.counterexample) == first_fail
                    counted = verify_cover_free(m, s, ell, count_witnesses=True)
                    assert counted.holds == plain.holds
                    assert _as_pair(counted.counterexample) == first_fail
                    assert counted.witness_count == least
                    assert _as_pair(counted.min_family) == least_family
                    checked += 1
                    empty_base += bool(m.rows) and all(r & 1 for r in m.rows)
        assert checked > 500 and empty_base > 50

    def test_deep_positive_family_fails_colex_first(self):
        # Column 1 alone is set on row 0, the rest on row 1. Negative {1}
        # leaves row 1, which every other column holds. Negative {2} leaves
        # row 0 alone, so every positive family of 1,000 fails, and the
        # verdict names the colex-first one.
        m = BitMatrix.from_columns(2, 1002, [1] + [2] * 1001)
        verdict = verify_cover_free(m, 1, 1000)
        assert not verdict.holds and verdict.orbits is None
        assert verdict.counterexample == CoverFreeQuery((2,), (1,) + tuple(range(3, 1002)))

    def test_zero_rows_fail_at_first_family(self):
        m = BitMatrix(0, 5, [])
        verdict = verify_cover_free(m, 2, 3, count_witnesses=True)
        assert not verdict.holds
        assert verdict.counterexample == CoverFreeQuery((1, 2), (3, 4, 5))
        assert verdict.witness_count == 0
        assert verdict.min_family == verdict.counterexample


class TestGatheredKernel:
    """Matrices of a few hundred to a few thousand rows, nearly all set on
    their first columns: a negative family among those leaves a few rows
    spread over the whole span, so the kernel gathers them before the scan."""

    @pytest.fixture
    def gathers(self, monkeypatch):
        calls = []
        gathered = verification._gathered

        def counting_gather(cols, base):
            calls.append(base.bit_count())
            return gathered(cols, base)

        monkeypatch.setattr(verification, "_gathered", counting_gather)
        return calls

    @staticmethod
    def _matrices():
        rng = random.Random(2026)
        for trial in range(10):
            num_rows = rng.randrange(300, 3000)
            num_cols = rng.randrange(5, 8)
            early = 1 + trial % 2
            escape = rng.choice((0.003, 0.006, 0.01, 0.03))
            density = rng.choice((0.5, 0.7, 0.9))
            rows = [sum(1 << j for j in range(early) if rng.random() >= escape)
                    | sum(1 << j for j in range(early, num_cols) if rng.random() < density)
                    for _ in range(num_rows)]
            yield BitMatrix(num_rows, num_cols, rows)

    def test_verdicts_counterexamples_and_minima(self, gathers):
        checked = tied = 0
        for m in self._matrices():
            for s in (1, 2):
                for ell in (2, 3):
                    if s + ell > m.num_cols:
                        continue
                    counts = list(witness_counts(m.rows, m.num_cols, s, ell))
                    first_fail, least, least_family = scan_summary(m.rows, m.num_cols, s, ell)
                    plain = verify_cover_free(m, s, ell)
                    assert plain.holds == (first_fail is None)
                    assert _as_pair(plain.counterexample) == first_fail
                    counted = verify_cover_free(m, s, ell, count_witnesses=True)
                    assert counted.holds == plain.holds
                    assert _as_pair(counted.counterexample) == first_fail
                    assert counted.witness_count == least
                    assert _as_pair(counted.min_family) == least_family
                    checked += 1
                    tied += sum(c == least for _, c in counts) > 1
        assert checked >= 30 and tied >= 10
        # Gathers ran on bases of a few rows, from one row up.
        assert len(gathers) > 50 and min(gathers) == 1

    def test_first_failing_pair_is_colex_first(self, gathers):
        # Column 1 is set on every row but three, two of them adjacent.
        # Among those, columns 3 and 4 share no row, nor do 2 and 5:
        # positions (1, 2) and (0, 3) of the rest both fail. Colex order puts
        # (1, 2) first; lexicographic order, as combinations yields pairs,
        # puts (0, 3) first.
        rows = [0b11111] * 2000
        rows[100], rows[1000], rows[1001] = 0b00110, 0b01010, 0b10100
        m = BitMatrix(2000, 5, rows)
        first_fail, _, _ = scan_summary(m.rows, 5, 1, 2)
        assert first_fail == ((1,), (3, 4))
        for count in (False, True):
            verdict = verify_cover_free(m, 1, 2, count_witnesses=count)
            assert verdict.counterexample == verdict.min_family == CoverFreeQuery((1,), (3, 4))
        assert gathers == [3, 3]


class TestOrbitMode:
    """A matrix equal to its construction scans one negative family per
    S_n orbit and gives the full walk's verdict."""

    # Two 3-subsets of [5] share 1 or 2 elements; two 4-subsets of [8] share 0
    # to 3, two 5-subsets of [8] 2 to 4; all columns are alike for s = 1.
    OWN_SHAPES = [((5, 3, 2, 2), 2, 2), ((8, 4, 2, 2), 2, 4), ((8, 5, 2, 3), 2, 3),
                  ((6, 3, 1, 2), 1, 1)]

    @staticmethod
    def _counted_run(quad, s, count, monkeypatch):
        """The verdict at the code's own ell, and the calls it made to the
        kernel, to the orbit-key builder and to the colex walk."""
        params = CodeParams(*quad)
        calls = {}
        for name in ("_first_least", "_orbit_key", "colex_subsets"):
            log, real = calls.setdefault(name, []), getattr(verification, name)
            monkeypatch.setattr(verification, name,
                                lambda *args, log=log, real=real: log.append(args) or real(*args))
        verdict = verify_cover_free(BitMatrix.of_construction(params), s, params.ell,
                                    count_witnesses=count)
        return verdict, calls

    @pytest.mark.parametrize("quad, s, orbits", OWN_SHAPES)
    def test_one_family_per_orbit(self, quad, s, orbits, monkeypatch):
        # The escaping-subset count decides from the types alone: no kernel
        # call, key or colex walk, and orbits is the type count.
        verdict, calls = self._counted_run(quad, s, False, monkeypatch)
        assert verdict.holds
        assert verdict.orbits == orbits
        assert calls == {"_first_least": [], "_orbit_key": [], "colex_subsets": []}

    @pytest.mark.parametrize("quad, s, orbits", OWN_SHAPES)
    def test_counting_scans_one_family_per_orbit(self, quad, s, orbits, monkeypatch):
        # Counting witnesses keys the families and scans one per orbit.
        verdict, calls = self._counted_run(quad, s, True, monkeypatch)
        assert verdict.holds
        assert verdict.orbits == len(calls["_first_least"]) == orbits
        assert len(calls["_orbit_key"]) == 1

    def test_deep_positive_families(self):
        # 998 positive columns of 999: the kernel steps 996 positions above
        # its pair tail, with no recursion on ell.
        params = CodeParams(1000, 999, 1, 1)
        verdict = verify_cover_free(BitMatrix.of_construction(params), 1, 998)
        assert verdict.holds and verdict.orbits == 1

    @pytest.mark.parametrize("n, k, s", [
        (5, 3, 2), (5, 3, 3), (6, 4, 3), (6, 3, 3), (7, 4, 2), (7, 4, 3), (6, 3, 4)])
    def test_orbit_keys_name_the_orbits(self, n, k, s):
        # Keys are constant on orbits and there are as many keys as orbits.
        key = verification._orbit_key(CodeParams(n, k, 1, 2), s)
        columns = colex_sorted(itertools.combinations(range(1, n + 1), k))
        position = {c: j for j, c in enumerate(columns, 1)}
        swap = {1: 2, 2: 1}
        keys = set()
        for neg in itertools.combinations(range(1, len(columns) + 1), s):
            keys.add(key(neg))
            image = tuple(sorted(position[tuple(sorted(swap.get(e, e) for e in columns[j - 1]))]
                                 for j in neg))
            assert key(image) == key(neg)
        assert len(keys) == orbit_count(n, k, s)
        # The enumerated types are those keys, each once.
        types = verification._venn_types(n, k, s)
        assert len(types) == len(keys) and set(types) == keys

    @pytest.mark.parametrize("n, k, s", [(5, 3, 2), (6, 3, 2), (6, 4, 3), (7, 4, 2)])
    def test_escaping_count_matches_brute_force(self, n, k, s):
        venn = verification._venn_vectors(CodeParams(n, k, s, 2))
        columns = colex_sorted(itertools.combinations(range(1, n + 1), k))
        subsets = [set(sub) for sub in itertools.combinations(range(1, n + 1), s)]
        for size in (1, 2, 3):
            for neg in itertools.combinations(range(1, len(columns) + 1), size):
                sets = [set(columns[j - 1]) for j in neg]
                escaping = sum(not any(sub <= c for c in sets) for sub in subsets)
                assert verification.escaping_count(venn(neg), s) == escaping

    @pytest.mark.parametrize("quad, s, ell", [((5, 3, 2, 2), 3, 2), ((6, 4, 2, 2), 2, 3)])
    def test_escaping_rule_stays_in_its_scope(self, quad, s, ell):
        # Past s <= params.s and ell <= params.ell every type still has
        # E >= params.ell, yet the code is not (s, ell)-cover-free: orbit
        # mode scans with the kernel there and gives the full walk's verdict.
        params = CodeParams(*quad)
        types = verification._venn_types(params.n, params.k, s)
        assert min(verification.escaping_count(c, params.s) for c in types) >= params.ell
        m = materialize(params)
        full = verify_cover_free(m, s, ell)
        orbit = verify_cover_free(BitMatrix.of_construction(params), s, ell)
        assert not full.holds and orbit.orbits is not None
        assert orbit == Verdict(full.holds, full.counterexample, full.witness_count,
                                full.min_family, orbit.orbits)

    @pytest.mark.parametrize("s, orbit", [(5, True), (6, False)])
    def test_keys_only_when_orderings_do_not_outnumber_families(self, s, orbit):
        # On 10 columns 5! = 120 <= C(10,5) = 252, but 6! = 720 > C(10,6) = 210.
        params = CodeParams(5, 3, 2, 2)
        m = materialize(params)
        verdict = verify_cover_free(BitMatrix.of_construction(params), s, 2,
                                    count_witnesses=True)
        assert (verdict.orbits is not None) is orbit
        full = verify_cover_free(m, s, 2, count_witnesses=True)
        assert verdict == Verdict(full.holds, full.counterexample, full.witness_count,
                                  full.min_family, verdict.orbits)

    def test_failure_keeps_the_first_counterexample(self):
        params = CodeParams(8, 6, 2, 5)
        verdict = verify_cover_free(BitMatrix.of_construction(params), 2, 5)
        assert not verdict.holds
        assert verdict.counterexample == CoverFreeQuery((3, 8), (1, 2, 4, 5, 6))
        assert verdict.orbits == 2

    def test_row_side_check_keeps_no_rows(self, tmp_path):
        # (12,11,6,2) has 924 members for 12 columns, so the check compares
        # rows, 426,426 of them: about 17 MB as ints, left to the scan if the
        # matrix kept them. A piped file is checked after its parse; a bit
        # cleared in the last row fails the check.
        params = CodeParams(12, 11, 6, 2)
        path = tmp_path / "m.txt"
        write_construction(params, path)
        data = path.read_bytes()
        at = len(data) - 13 + 5  # column 5 of the last row
        assert data[at:at + 1] == b"1"
        for source, mode in ((data, 1), (data[:at] + b"0" + data[at + 1:], None)):
            with piped(source) as fd_path:
                m, _ = read_matrix(fd_path)
            assert m.construction == (params if mode else None)
            verdict = verify_cover_free(m, 1, 1)
            assert verdict.holds and verdict.orbits == mode
            assert m._rows is None

    def test_row_side_check_refuses_one_flipped_bit(self):
        # (10,9,5,2) fails columns_fit, so construction_columns transposes its
        # 31,626 rows, 16 blocks of TRANSPOSE_BLOCK_ROWS. A bit flipped on
        # either side of the first block boundary, or at either end, in the
        # first or the last column, is seen.
        params = CodeParams(10, 9, 5, 2)
        cols = transpose(construction_rows(10, 9, 5, 2), 10)
        num_rows = dimensions(params).num_rows
        assert matrix_io._equals_construction(BitMatrix.from_columns(num_rows, 10, cols), params)
        for row in (0, TRANSPOSE_BLOCK_ROWS - 1, TRANSPOSE_BLOCK_ROWS, num_rows - 1):
            for col in (0, 9):
                flipped = list(cols)
                flipped[col] ^= 1 << row
                m = BitMatrix.from_columns(num_rows, 10, flipped)
                assert not matrix_io._equals_construction(m, params), (row, col)

    def test_other_matrices_use_the_full_walk(self, tmp_path):
        # Files whose header names params, read from disk and from a pipe:
        # an edited or reordered matrix is parsed and scanned in full.
        params = CodeParams(5, 3, 2, 1)
        m = materialize(params)
        neg, pos = next(f for f, c in witness_counts(m.rows, m.num_cols, 2, 1) if c == 1)
        row_index = next(i for i, r in enumerate(m.rows) if witness_count([r], neg, pos))
        flipped = BitMatrix(m.num_rows, m.num_cols, list(m.rows))
        flipped.set(row_index, pos[0] - 1, 0)
        shuffled = BitMatrix(m.num_rows, m.num_cols, m.rows[::-1])
        path = tmp_path / "m.txt"

        def reads(matrix, header):
            write_matrix(matrix, path, header)
            with piped(path.read_bytes()) as fd_path:
                return [read_matrix(path)[0], read_matrix(fd_path)[0]]

        for matrix in (flipped, shuffled):
            for read in reads(matrix, params):
                assert read.construction is None
                verdict = verify_cover_free(read, 2, 1)
                assert verdict.orbits is None
                assert verdict == verify_cover_free(matrix, 2, 1)
        assert not verify_cover_free(flipped, 2, 1).holds
        # A header naming a code of another shape, small or far larger;
        # (5,2,1,2) has this matrix's 10 rows and 10 columns.
        for other in (CodeParams(5, 3, 2, 2), CodeParams(5, 2, 1, 2),
                      CodeParams(10**6, 5 * 10**5, 2, 2)):
            for read in reads(m, other):
                assert read.construction is None
                assert verify_cover_free(read, 2, 1).orbits is None


class TestGeneratedFile:
    """A file read_matrix recognised by its bytes is the construction its
    header names: verify checks it by that name, not by its bits."""

    @staticmethod
    def _read_counting(path, monkeypatch):
        """The matrix and params read from ``path``, and a log of the
        construction_columns calls made by the read and from then on."""
        calls = []
        real = code_core.construction_columns
        for module in (code_core, matrix_io, verification):
            monkeypatch.setattr(module, "construction_columns",
                                lambda params: calls.append(params) or real(params),
                                raising=False)
        matrix, _ = read_matrix(path)
        return matrix, calls

    @pytest.mark.parametrize("quad", [(8, 6, 2, 5), (11, 5, 2, 3)],
                             ids=lambda q: ",".join(map(str, q)))
    def test_escaping_count_builds_no_columns(self, tmp_path, monkeypatch, quad):
        # At its own (s, l) the escaping count decides, so neither the read
        # nor the check builds a column, in closed form or by a transpose.
        params = CodeParams(*quad)
        expected = verify_cover_free(BitMatrix.of_construction(params), params.s, params.ell)
        path = tmp_path / "m.txt"
        write_construction(params, path)
        transposes = []
        matrix, calls = self._read_counting(path, monkeypatch)
        real = code_core._transpose
        monkeypatch.setattr(code_core, "_transpose",
                            lambda *args: transposes.append(args) or real(*args))
        verdict = verify_cover_free(matrix, params.s, params.ell)
        assert verdict == expected and verdict.orbits is not None
        assert calls == [] and transposes == []
        assert matrix._rows is None and matrix._cols is None

    def test_kernel_builds_columns_once(self, tmp_path, monkeypatch):
        # Counting witnesses scans with the kernel, on columns built once.
        params = CodeParams(7, 4, 2, 2)
        path = tmp_path / "m.txt"
        write_construction(params, path)
        matrix, calls = self._read_counting(path, monkeypatch)
        verdict = verify_cover_free(matrix, 2, 2, count_witnesses=True)
        assert calls == [params]
        assert verdict == verify_cover_free(BitMatrix.of_construction(params), 2, 2,
                                            count_witnesses=True)

    def test_read_and_verify_hold_no_columns(self, tmp_path):
        # The 42 MB (12,6,2,3) file: its 924 columns of 45,760 rows would
        # take 5.3 MB, and building them in closed form peaks at 10.7 MB.
        params = CodeParams(12, 6, 2, 3)
        path = tmp_path / "m.txt"
        write_construction(params, path)
        tracemalloc.start()
        try:
            matrix, _ = read_matrix(path)
            verdict = verify_cover_free(matrix, 2, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert verdict.holds and verdict.orbits is not None
        assert peak < 1 << 20

    def test_edited_file_builds_no_columns(self, tmp_path, monkeypatch):
        # The last data character flipped: the byte compare fails, which
        # shows the bits differ, so neither the read nor verify builds the
        # construction's columns, and the file is scanned in full as the
        # same edit with no header is.
        params = CodeParams(12, 11, 6, 2)
        path, bare = tmp_path / "m.txt", tmp_path / "bare.txt"
        write_construction(params, path)
        data = path.read_bytes()
        path.write_bytes(data[:-2] + (b"1" if data[-2:-1] == b"0" else b"0") + b"\n")
        bare.write_bytes(b"".join(line for line in path.read_bytes().splitlines(keepends=True)
                                  if not line.startswith(b"#")))
        expected = verify_cover_free(read_matrix(bare)[0], 1, 1)
        matrix, calls = self._read_counting(path, monkeypatch)
        verdict = verify_cover_free(matrix, 1, 1)
        assert calls == []
        assert matrix.construction is None
        assert verdict == expected and verdict.orbits is None

    def test_piped_file_keeps_orbit_mode(self, tmp_path):
        # A pipe cannot seek back to compare the file with the writer's
        # bytes, so the parsed matrix is compared with the construction's
        # columns; a full scan of (12,6,2,2) at (2,2) is about 1.8e11
        # families. A flipped copy fails that check.
        params = CodeParams(12, 6, 2, 2)
        path = tmp_path / "m.txt"
        write_construction(params, path)
        data = path.read_bytes()
        with piped(data) as fd_path:
            matrix, provenance = read_matrix(fd_path)
        assert matrix.construction == params
        assert provenance == {"n": 12, "k": 6, "s": 2, "ell": 2}
        verdict = verify_cover_free(matrix, 2, 2)
        assert verdict.orbits == 6
        assert verdict == verify_cover_free(read_matrix(path)[0], 2, 2)
        with piped(data[:-2] + (b"1" if data[-2:-1] == b"0" else b"0") + b"\n") as fd_path:
            flipped, _ = read_matrix(fd_path)
        assert flipped.construction is None
        assert flipped != matrix

    def test_set_clears_recognition(self, tmp_path):
        # A bit cleared on the only witness row of one family: the edited
        # matrix is no longer the construction, so it is scanned in full.
        params = CodeParams(5, 3, 2, 1)
        rows = construction_rows(5, 3, 2, 1)
        neg, pos = next(f for f, c in witness_counts(rows, 10, 2, 1) if c == 1)
        row_index = next(i for i, r in enumerate(rows) if witness_count([r], neg, pos))
        path = tmp_path / "m.txt"
        write_construction(params, path)
        matrix, provenance = read_matrix(path)
        construction = provenance_params(provenance)
        assert matrix.construction == construction == params
        matrix.set(row_index, pos[0] - 1, 0)
        assert matrix.construction is None
        assert matrix.get(row_index, pos[0] - 1) == 0
        rows[row_index] &= ~(1 << (pos[0] - 1))
        assert matrix.rows == rows
        verdict = verify_cover_free(matrix, 2, 1)
        first_fail, _, _ = scan_summary(rows, 10, 2, 1)
        assert verdict.orbits is None and not verdict.holds
        assert _as_pair(verdict.counterexample) == first_fail


class TestWitnessCounts:
    def test_counts_match_row_scan(self):
        # The reference's row-scan counts equal an AND of the package's
        # column masks, as the verifier kernel forms it.
        m = materialize(CodeParams(5, 3, 2, 1))
        masks = m.columns()
        full = (1 << m.num_rows) - 1
        seen = 0
        for (neg, pos), count in witness_counts(m.rows, m.num_cols, 2, 1):
            rows = full
            for c in neg:
                rows &= ~masks[c - 1]
            for c in pos:
                rows &= masks[c - 1]
            assert count == rows.bit_count()
            seen += 1
        assert seen == 45 * 8  # C(10,2) * C(8,1)


class TestWitnessRow:
    params = CodeParams(5, 3, 2, 2)

    def test_two_member_family(self):
        neg = [KSubset((1, 2, 3), 5), KSubset((1, 2, 4), 5)]
        pos = [KSubset((3, 4, 5), 5), KSubset((1, 4, 5), 5)]
        label = witness_row(self.params, neg, pos)
        assert all(entry(self.params, label, col) == 1 for col in pos)
        assert all(entry(self.params, label, col) == 0 for col in neg)

    def test_single_family(self):
        params = CodeParams(5, 3, 2, 1)
        label = witness_row(params, [KSubset((1, 2, 3), 5)], [KSubset((3, 4, 5), 5)])
        (member,) = label.subsets
        assert set(member.elements) <= {3, 4, 5}
        assert 4 in member.elements or 5 in member.elements

    def test_rejects_no_negative_columns(self):
        pos = [KSubset((3, 4, 5), 5), KSubset((1, 4, 5), 5)]
        with pytest.raises(ValueError, match="at least one negative column"):
            witness_row(self.params, [], pos)

    def test_rejects_shared_column(self):
        with pytest.raises(ValueError):
            witness_row(self.params,
                        [KSubset((1, 2, 3), 5), KSubset((1, 2, 4), 5)],
                        [KSubset((1, 2, 3), 5), KSubset((1, 4, 5), 5)])

    def test_rejects_wrong_positive_count(self):
        with pytest.raises(ValueError):
            witness_row(self.params, [KSubset((1, 2, 3), 5)], [KSubset((1, 4, 5), 5)])

    def test_deterministic(self):
        neg = [KSubset((1, 2, 3), 5), KSubset((1, 2, 4), 5)]
        pos = [KSubset((3, 4, 5), 5), KSubset((1, 4, 5), 5)]
        first = witness_row(self.params, neg, pos)
        second = witness_row(self.params, neg, pos)
        assert first == second

    def test_rank_indexes_satisfying_row(self):
        neg = [KSubset((1, 2, 3), 5), KSubset((1, 2, 4), 5)]
        pos = [KSubset((3, 4, 5), 5), KSubset((1, 4, 5), 5)]
        label = witness_row(self.params, neg, pos)
        rank = row_rank_from_label(self.params, label)
        m = materialize(self.params)
        query = CoverFreeQuery(
            tuple(sorted(column_rank(self.params, col) + 1 for col in neg)),
            tuple(sorted(column_rank(self.params, col) + 1 for col in pos)))
        assert witness_count([m.rows[rank]], query.neg_cols, query.pos_cols) == 1

    def test_fallback_covers_two_positives_with_one_member(self):
        # Both positives admit only {1,2} as an escaping member, so the
        # per-column assignment cannot stay distinct; a row whose first member
        # covers both positives still exists and the search must find it.
        neg = [KSubset((1, 3, 4), 5), KSubset((2, 3, 4), 5)]
        pos = [KSubset((1, 2, 3), 5), KSubset((1, 2, 4), 5)]
        label = witness_row(self.params, neg, pos)
        assert all(entry(self.params, label, col) == 1 for col in pos)
        assert all(entry(self.params, label, col) == 0 for col in neg)
        assert [m.elements for m in label] == [(1, 2), (1, 5)]

    def test_padding_skips_to_the_escaping_subsets(self):
        # Escaping 3-subsets must hold both 199 and 200, the last elements in
        # colex order; the padding walk goes straight to them.
        n = 200
        params = CodeParams(n, n - 1, 3, 3)

        def missing(e):
            return KSubset(tuple(x for x in range(1, n + 1) if x != e), n)

        neg = [missing(199), missing(200)]
        pos = [missing(1), missing(2), missing(3)]
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            label = witness_row(params, neg, pos)
            best = min(best, time.perf_counter() - start)
        assert str(label) == "{1,199,200},{2,199,200},{3,199,200}"
        assert best < 0.05

    def test_no_witness_surfaces_loudly(self):
        # With k = n - 1 and two members per row, only one subset can escape
        # both negatives, so no row separates these families.
        params = CodeParams(5, 4, 2, 2)
        neg = [KSubset((1, 2, 3, 4), 5), KSubset((1, 2, 3, 5), 5)]
        pos = [KSubset((1, 2, 4, 5), 5), KSubset((1, 3, 4, 5), 5)]
        with pytest.raises(WitnessSearchError):
            witness_row(params, neg, pos)
        # With more negatives than s, a positive column can hold no member at
        # all: {2,3,4} has no element outside both negatives.
        with pytest.raises(WitnessSearchError, match="no witness row exists"):
            witness_row(CodeParams(5, 3, 1, 1),
                        [KSubset((1, 2, 3), 5), KSubset((1, 4, 5), 5)],
                        [KSubset((2, 3, 4), 5)])

    def test_degenerate_instance_has_no_witness(self):
        # Singleton members with k = n - 1 make the matrix all ones; every
        # family is unseparable and the search reports it.
        params = CodeParams(4, 3, 1, 2)
        m = materialize(params)
        assert all(count == 0 for _, count in witness_counts(m.rows, m.num_cols, 1, 2))
        with pytest.raises(WitnessSearchError):
            witness_row(params,
                        [KSubset((1, 2, 3), 4)],
                        [KSubset((1, 2, 4), 4), KSubset((1, 3, 4), 4)])


class TestWitnessAgainstCompleteSearch:
    def test_succeeds_exactly_when_a_separating_row_exists(self):
        # Exercised on a sound instance and on a degenerate one: witness_row
        # must succeed precisely for the families some row separates.
        for params in [CodeParams(5, 3, 2, 2), CodeParams(4, 3, 2, 2)]:
            m = materialize(params)
            cols = [column_from_rank(params, j) for j in range(m.num_cols)]
            for (neg_pos, pos_pos), count in witness_counts(
                    m.rows, m.num_cols, params.s, params.ell):
                neg = [cols[j - 1] for j in neg_pos]
                pos = [cols[j - 1] for j in pos_pos]
                if count:
                    label = witness_row(params, neg, pos)
                    rank = row_rank_from_label(params, label)
                    assert witness_count([m.rows[rank]], neg_pos, pos_pos) == 1
                else:
                    with pytest.raises(WitnessSearchError):
                        witness_row(params, neg, pos)


class TestBruteForceColumnWeight:
    def test_known_weights(self):
        assert column_weight(5, 2, 2, (1, 2, 3)) == 24
        assert column_weight(5, 2, 2, (3, 4, 5)) == 24
        assert column_weight(5, 2, 1, (1, 2, 3)) == 3

    def test_matches_unrank_entry_scan(self):
        params = CodeParams(5, 3, 2, 2)
        col = KSubset((1, 3, 5), 5)
        total = dimensions(params).num_rows
        expected = sum(
            entry(params, row_label_from_rank(params, r), col) for r in range(total))
        assert column_weight(5, 2, 2, col.elements) == expected

    def test_agrees_with_closed_form_everywhere(self):
        for params in [CodeParams(5, 3, 2, 2), CodeParams(6, 3, 2, 2),
                       CodeParams(6, 4, 1, 3), CodeParams(5, 3, 1, 2)]:
            dims = dimensions(params)
            for j in range(dims.num_cols):
                col = column_from_rank(params, j).elements
                assert (column_weight(params.n, params.s, params.ell, col)
                        == dims.column_weight)


class TestMutationSensitivity:
    def test_unique_witness_flip_breaks_property(self):
        params = CodeParams(5, 3, 2, 1)
        m = materialize(params)
        assert verify_cover_free(m, 2, 1).holds
        neg, pos = next(f for f, c in witness_counts(m.rows, m.num_cols, 2, 1) if c == 1)
        row_index = next(i for i, r in enumerate(m.rows) if witness_count([r], neg, pos))
        mutated = BitMatrix(m.num_rows, m.num_cols, list(m.rows))
        mutated.set(row_index, pos[0] - 1, 0)
        assert not verify_cover_free(mutated, 2, 1).holds
