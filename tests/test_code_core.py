import itertools
import math
import random
import time
import tracemalloc
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import colex_sorted, construction_rows, format_matrix, transpose

from cfcode import code_core
from cfcode.combinatorics import KSubset, binomial, colex_rank
from cfcode.code_core import (
    TRANSPOSE_BLOCK_ROWS,
    TRANSPOSE_WINDOW_BITS,
    BitMatrix,
    BudgetError,
    CodeParams,
    ParameterError,
    ParameterWarning,
    RowLabel,
    asymptotic_estimates,
    best_k,
    column_from_rank,
    column_masks,
    column_rank,
    dimensions,
    entry,
    materialize,
    row_label_from_rank,
    row_rank_from_label,
)
from cfcode.matrix_io import write_matrix
from cfcode.verification import witness_row


@pytest.fixture(autouse=True)
def _mute_parameter_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ParameterWarning)
        yield


def naive_labels(n, s, ell):
    """All row labels as frozensets of member tuples, in rank order."""
    subsets = colex_sorted(itertools.combinations(range(1, n + 1), s))
    for picks in colex_sorted(itertools.combinations(range(len(subsets)), ell)):
        yield [subsets[i] for i in picks]


class TestValidate:
    def test_accepts_sound_parameters(self):
        params = CodeParams(5, 3, 2, 2)
        assert (params.n, params.k, params.s, params.ell) == (5, 3, 2, 2)

    def test_k_not_below_n(self):
        with pytest.raises(ParameterError) as err:
            CodeParams(5, 5, 2, 2)
        assert err.value.constraint == "k < n"

    def test_s_not_below_k(self):
        with pytest.raises(ParameterError) as err:
            CodeParams(5, 2, 2, 2)
        assert err.value.constraint == "s < k"

    def test_ell_too_small(self):
        with pytest.raises(ParameterError) as err:
            CodeParams(5, 3, 2, 0)
        assert err.value.constraint == "ell >= 1"

    def test_family_overflows_columns(self):
        # t = C(4,3) = 4 and 3 + 2 > 4.
        with pytest.raises(ParameterError) as err:
            CodeParams(4, 3, 2, 3)
        assert err.value.constraint == "ell + s <= C(n,k)"

    def test_family_overflows_members(self):
        # Only C(4,1) = 4 singletons exist for a label of 5; t = C(4,2) = 6.
        with pytest.raises(ParameterError) as err:
            CodeParams(4, 2, 1, 5)
        assert err.value.constraint == "ell <= C(n,s)"
        with pytest.raises(ParameterError) as err:
            best_k(4, 1, 5)
        assert err.value.constraint == "ell <= C(n,s)"

    def test_edges_build_no_huge_binomial(self):
        # ell + s >= n and ell > n, with C(n,k) and C(n,s) of about 600,000 digits.
        start = time.perf_counter()
        params = CodeParams(2_000_000, 1_000_001, 1_000_000, 2_000_001)
        assert time.perf_counter() - start < 5
        assert params.ell == 2_000_001

    def test_s_too_small(self):
        with pytest.raises(ParameterError) as err:
            CodeParams(5, 3, 0, 2)
        assert err.value.constraint == "s >= 1"

    def test_ell_one_warns(self):
        with pytest.warns(ParameterWarning):
            CodeParams(5, 3, 2, 1)

    def test_edge_family_size_warns(self):
        # ell + s equals t = C(5,4) = 5.
        with pytest.warns(ParameterWarning):
            CodeParams(5, 4, 2, 3)

    def test_comfortable_params_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", ParameterWarning)
            CodeParams(5, 3, 2, 2)


class TestValidateOnce:
    def test_entry_points_do_not_rewarn(self):
        params = CodeParams(5, 3, 2, 1)
        row, col = row_label_from_rank(params, 0), column_from_rank(params, 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ParameterWarning)
            assert entry(params, row, col) == 1
            assert row_label_from_rank(params, 3) == RowLabel((KSubset((1, 4), 5),))
            assert row_rank_from_label(params, row) == 0
            assert column_from_rank(params, 9) == KSubset((3, 4, 5), 5)
            assert column_rank(params, col) == 0
            assert dimensions(params).num_rows == 10
            witness_row(params, [KSubset((1, 2, 3), 5)], [KSubset((3, 4, 5), 5)])

    @pytest.mark.parametrize("quad", [(5, 3, 2, 1), (5, 4, 2, 3)])
    def test_warning_names_the_building_line(self, quad):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            CodeParams(*quad)
        assert len(caught) == 1
        assert issubclass(caught[0].category, ParameterWarning)
        assert caught[0].filename == __file__

    def test_invalid_params_cannot_be_built(self):
        with pytest.raises(ParameterError) as err:
            CodeParams(4, 3, 2, 3)
        assert err.value.constraint == "ell + s <= C(n,k)"


class TestRowLabel:
    def test_canonical_order(self):
        label = RowLabel((KSubset((1, 3), 5), KSubset((1, 2), 5)))
        assert [m.elements for m in label] == [(1, 2), (1, 3)]

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            RowLabel((KSubset((1, 2), 5), KSubset((1, 2), 5)))

    def test_rejects_mixed_sizes(self):
        with pytest.raises(ValueError):
            RowLabel((KSubset((1, 2), 5), KSubset((1, 2, 3), 5)))

    def test_rejects_mixed_grounds(self):
        with pytest.raises(ValueError):
            RowLabel((KSubset((1, 2), 5), KSubset((1, 3), 6)))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            RowLabel(())

    def test_ranks_each_member_once(self, monkeypatch):
        calls = []

        def counting_rank(subset):
            calls.append(subset)
            return colex_rank(subset)

        monkeypatch.setattr(code_core, "colex_rank", counting_rank)
        members = (KSubset((7, 900), 1000), KSubset((1, 2), 1000), KSubset((3, 999), 1000))
        label = RowLabel(members)
        assert len(calls) == 3
        assert [m.elements for m in label] == [(1, 2), (7, 900), (3, 999)]


class TestEntry:
    params = CodeParams(5, 3, 2, 2)

    def test_member_contained(self):
        row = RowLabel((KSubset((1, 2), 5), KSubset((4, 5), 5)))
        assert entry(self.params, row, KSubset((1, 2, 3), 5)) == 1

    def test_no_member_contained(self):
        row = RowLabel((KSubset((1, 4), 5), KSubset((2, 5), 5)))
        assert entry(self.params, row, KSubset((1, 2, 3), 5)) == 0

    def test_multiple_members_contained(self):
        row = RowLabel((KSubset((3, 5), 5), KSubset((4, 5), 5)))
        assert entry(self.params, row, KSubset((3, 4, 5), 5)) == 1

    def test_rejects_wrong_column_size(self):
        row = RowLabel((KSubset((1, 2), 5), KSubset((4, 5), 5)))
        with pytest.raises(ValueError):
            entry(self.params, row, KSubset((1, 2), 5))

    def test_rejects_wrong_member_size(self):
        row = RowLabel((KSubset((1, 2, 3), 5), KSubset((2, 4, 5), 5)))
        with pytest.raises(ValueError):
            entry(self.params, row, KSubset((1, 2, 3), 5))

    def test_rejects_wrong_ground(self):
        row = RowLabel((KSubset((1, 2), 6), KSubset((4, 5), 6)))
        with pytest.raises(ValueError):
            entry(self.params, row, KSubset((1, 2, 3), 5))

    def test_rejects_column_of_other_ground(self):
        row = RowLabel((KSubset((1, 2), 5), KSubset((4, 5), 5)))
        with pytest.raises(ValueError, match="does not match n=5"):
            entry(self.params, row, KSubset((1, 2, 3), 6))

    def test_rejects_row_label_of_wrong_length(self):
        row = RowLabel((KSubset((1, 2), 5),))
        with pytest.raises(ValueError, match="must have 2 subsets"):
            entry(self.params, row, KSubset((1, 2, 3), 5))

    def test_single_member_specialization(self):
        # With one member per row the entry reduces to set containment.
        params = CodeParams(5, 3, 2, 1)
        for sub in itertools.combinations(range(1, 6), 2):
            row = RowLabel((KSubset(sub, 5),))
            for col in itertools.combinations(range(1, 6), 3):
                expected = 1 if set(sub) <= set(col) else 0
                assert entry(params, row, KSubset(col, 5)) == expected


class TestRowAddressing:
    params = CodeParams(5, 3, 2, 2)

    def test_rank_zero(self):
        assert str(row_label_from_rank(self.params, 0)) == "{1,2},{1,3}"

    def test_last_rank(self):
        assert str(row_label_from_rank(self.params, 44)) == "{3,5},{4,5}"

    def test_round_trip_all_rows(self):
        for r in range(45):
            assert row_rank_from_label(self.params, row_label_from_rank(self.params, r)) == r

    def test_unsorted_input_canonicalized(self):
        label = RowLabel((KSubset((1, 3), 5), KSubset((1, 2), 5)))
        assert row_rank_from_label(self.params, label) == 0

    def test_rank_out_of_range(self):
        with pytest.raises(ValueError):
            row_label_from_rank(self.params, 45)
        with pytest.raises(ValueError):
            row_label_from_rank(self.params, -1)

    def test_matches_naive_enumeration(self):
        for i, members in enumerate(naive_labels(5, 2, 2)):
            label = row_label_from_rank(self.params, i)
            assert [m.elements for m in label] == members


class TestColumnAddressing:
    params = CodeParams(5, 3, 2, 2)

    def test_rank_zero(self):
        assert column_from_rank(self.params, 0).elements == (1, 2, 3)

    def test_last_rank(self):
        assert column_from_rank(self.params, 9).elements == (3, 4, 5)

    def test_inverse(self):
        assert column_rank(self.params, KSubset((1, 2, 3), 5)) == 0
        for r in range(10):
            assert column_rank(self.params, column_from_rank(self.params, r)) == r

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            column_from_rank(self.params, 10)


class TestDimensions:
    def test_reference_case(self):
        dims = dimensions(CodeParams(5, 3, 2, 2))
        assert dims.num_rows == 45
        assert dims.num_cols == 10
        assert dims.column_weight == 24
        assert dims.rate == pytest.approx(math.log2(10) / 45)

    def test_weight_against_naive_count(self):
        # Count labels hitting a fixed column, straight from the definition.
        for n, k, s, ell in [(5, 3, 2, 2), (5, 3, 2, 1), (6, 3, 2, 2), (6, 4, 1, 2)]:
            col = set(range(1, k + 1))
            hits = sum(
                1 for members in naive_labels(n, s, ell)
                if any(set(m) <= col for m in members))
            assert dimensions(CodeParams(n, k, s, ell)).column_weight == hits


class TestMaterialize:
    params = CodeParams(5, 3, 2, 2)

    def test_shape_and_weight(self):
        m = materialize(self.params)
        assert (m.num_rows, m.num_cols) == (45, 10)
        assert m.column_sums() == [24] * 10

    def test_first_row_pattern(self):
        # Label {{1,2},{1,3}} marks exactly the columns containing {1,2} or {1,3}.
        m = materialize(self.params)
        columns = colex_sorted(itertools.combinations(range(1, 6), 3))
        expected = "".join(
            "1" if {1, 2} <= set(c) or {1, 3} <= set(c) else "0" for c in columns)
        assert expected == "1110110000"
        assert "".join(str(m.get(0, j)) for j in range(10)) == expected

    def test_agrees_with_entry_oracle(self):
        m = materialize(self.params)
        cols = [column_from_rank(self.params, j) for j in range(m.num_cols)]
        for i in range(m.num_rows):
            row = row_label_from_rank(self.params, i)
            for j, col in enumerate(cols):
                assert m.get(i, j) == entry(self.params, row, col)

    # Past the acceptance grid's ell <= 3, with ell above half of C(n,s), so
    # construction_rows builds many levels, each held only while the next is
    # built. (1000,999,1,999) builds 998 of them, one per member added. The
    # written file is checked too: (10,5,1,2) and (11,4,1,2), 252 and 330
    # columns, sit on either side of LEVEL_WRITE_MAX_COLS; (8,4,2,3) spans two
    # windows of its top level; (6,4,2,13) has 13 levels. The columns
    # are checked as well: (10,9,5,2), 31,626 rows in 16 transpose blocks,
    # fails columns_fit, so its columns are transposed rows.
    @pytest.mark.parametrize("quad", [(5, 4, 1, 4), (5, 3, 2, 8), (6, 4, 2, 13), (6, 5, 2, 4),
                                      (8, 6, 4, 2), (10, 5, 1, 2), (11, 4, 1, 2), (8, 4, 2, 3),
                                      (1000, 999, 1, 999), (10, 9, 5, 2)])
    def test_matches_reference_rows(self, quad, tmp_path):
        params = CodeParams(*quad)
        rows = construction_rows(*quad)
        assert materialize(params).rows == rows
        assert list(code_core.construction_rows(params)) == rows
        t = binomial(quad[0], quad[1])
        assert list(code_core.construction_columns(params)) == transpose(rows, t)
        path = tmp_path / "m.txt"
        write_matrix(BitMatrix.of_construction(params), path, params)
        comment = "# n={} k={} s={} l={}".format(*quad)
        assert path.read_text() == format_matrix(rows, t, [comment])

    @pytest.mark.parametrize("quad", [(11, 5, 2, 3), (12, 6, 2, 2), (30, 29, 2, 2), (6, 4, 2, 13),
                                      (9, 6, 3, 2), (8, 6, 4, 2), (7, 5, 3, 4)])
    def test_columns_in_closed_form_match_materialize(self, quad):
        params = CodeParams(*quad)
        assert list(code_core.construction_columns(params)) == materialize(params).columns()

    def test_long_single_row_is_quick(self):
        # One row of C(200,198) = 19,900 bits: every column holds a member.
        params = CodeParams(200, 198, 1, 200)
        start = time.perf_counter()
        m = materialize(params)
        assert time.perf_counter() - start < 5
        assert m.rows == [(1 << 19900) - 1]

    def test_rows_stream_without_the_matrix(self):
        # The stream holds one lower level of ORs, a fifth of the rows here.
        params = CodeParams(8, 6, 2, 5)
        tracemalloc.start()
        try:
            for _ in code_core.construction_rows(params):
                pass
            streamed = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            rows = materialize(params).rows
            held = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rows) == 98280
        assert streamed < held / 3

    def test_bit_budget_reports_sizes(self):
        with pytest.raises(BudgetError, match="450 bits.*100"):
            materialize(self.params, max_bits=100)


class TestColumnMasks:
    def test_match_reference_columns(self):
        for n in range(1, 9):
            for k in range(0, n + 2):
                columns = colex_sorted(itertools.combinations(range(1, n + 1), k))
                assert column_masks(n, k) == [sum(1 << e for e in c) for c in columns]


class TestBitMatrix:
    def test_get_set(self):
        m = BitMatrix(3, 4)
        assert m.get(1, 2) == 0
        m.set(1, 2, 1)
        assert m.get(1, 2) == 1
        assert m.rows[1] == 0b0100
        m.set(1, 2, 0)
        assert m.rows == [0, 0, 0]

    def test_bounds(self):
        m = BitMatrix(2, 2)
        with pytest.raises(IndexError):
            m.get(2, 0)
        with pytest.raises(IndexError):
            m.get(0, 2)
        with pytest.raises(ValueError):
            m.set(0, 0, 2)

    def test_columns(self):
        m = BitMatrix(3, 2, [0b01, 0b10, 0b11])
        assert m.columns() == [0b101, 0b110]
        assert m.column_sums() == [2, 2]

    def test_columns_match_reference_transpose(self):
        rng = random.Random(3)
        sizes = [(0, 0), (0, 4), (3, 0), (1, 1), (5, 3), (TRANSPOSE_BLOCK_ROWS - 1, 5),
                 (TRANSPOSE_BLOCK_ROWS, 7), (2 * TRANSPOSE_BLOCK_ROWS + 5, 11),
                 (TRANSPOSE_BLOCK_ROWS + 1, 70), (5, TRANSPOSE_BLOCK_ROWS + 1),
                 (3, 2 * TRANSPOSE_WINDOW_BITS + 1), (TRANSPOSE_WINDOW_BITS + 1, 2)]
        for num_rows, num_cols in sizes:
            m = BitMatrix(num_rows, num_cols,
                          [rng.getrandbits(num_cols) for _ in range(num_rows)])
            assert m.columns() == transpose(m.rows, num_cols)
            assert m.column_sums() == [
                sum(r >> j & 1 for r in m.rows) for j in range(num_cols)]
            # The other way round, the rows come back from the columns.
            cols = m.columns()
            assert code_core._transpose(cols, num_rows) == transpose(cols, num_rows) == m.rows

    # Row counts on either side of one and two transpose blocks, and a width
    # past one window. Wide rows are sparse, so the reference stays quick:
    # row i holds bit i mod width and one random bit.
    @pytest.mark.parametrize("width", [1, 7, TRANSPOSE_WINDOW_BITS + 1])
    @pytest.mark.parametrize("num_rows", [0, 1, TRANSPOSE_BLOCK_ROWS - 1, TRANSPOSE_BLOCK_ROWS,
                                          TRANSPOSE_BLOCK_ROWS + 1, 2 * TRANSPOSE_BLOCK_ROWS + 1])
    def test_transpose_takes_a_stream(self, num_rows, width):
        rng = random.Random(num_rows * width)
        rows = [rng.getrandbits(width) if width < 64
                else 1 << i % width | 1 << rng.randrange(width) for i in range(num_rows)]
        assert code_core._transpose((r for r in rows), width) == transpose(rows, width)

    def test_rows_from_long_columns_hold_little_text(self):
        # 64 columns of 50,000 rows: formatted whole, they would be 3.2 MB of
        # text joined from 3.2 MB of pieces; the rows themselves take 2.2 MB.
        rng = random.Random(5)
        m = BitMatrix.from_columns(50_000, 64, [rng.getrandbits(50_000) for _ in range(64)])
        tracemalloc.start()
        try:
            rows = m.rows
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows[12_345] == sum((c >> 12_345 & 1) << j for j, c in enumerate(m.columns()))
        assert peak < 5 << 20

    def test_rejects_wide_rows(self):
        with pytest.raises(ValueError):
            BitMatrix(1, 2, [4])

    @pytest.mark.parametrize("num_rows,num_cols", [
        (0, 0), (0, 4), (3, 0), (5, 3), (TRANSPOSE_BLOCK_ROWS + 1, 9)])
    def test_from_columns_round_trips(self, num_rows, num_cols):
        rng = random.Random(num_rows + num_cols)
        cols = [rng.getrandbits(num_rows) for _ in range(num_cols)]
        m = BitMatrix.from_columns(num_rows, num_cols, cols)
        assert m.columns() == cols
        assert m.rows == transpose(cols, num_rows)
        assert BitMatrix(num_rows, num_cols, m.rows) == m
        assert BitMatrix.from_columns(num_rows, num_cols, m.columns()) == m

    def test_from_columns_reads_bits_without_rows(self):
        m = BitMatrix.from_columns(3, 2, [0b101, 0b110])
        assert [[m.get(i, j) for j in range(2)] for i in range(3)] == [[1, 0], [0, 1], [1, 1]]
        assert m.column_sums() == [2, 2]
        assert m.rows == [0b01, 0b10, 0b11]

    def test_from_columns_rejects_bad_columns(self):
        with pytest.raises(ValueError, match="column 1 does not fit in 2 rows"):
            BitMatrix.from_columns(2, 2, [0b11, 0b100])
        with pytest.raises(ValueError, match="column 0 does not fit"):
            BitMatrix.from_columns(2, 1, [-1])
        with pytest.raises(ValueError, match="expected 2 columns, got 1"):
            BitMatrix.from_columns(3, 2, [0])
        with pytest.raises(ValueError):
            BitMatrix.from_columns(-1, 2, [0, 0])

    def test_rows_are_read_only(self):
        m = BitMatrix(2, 2)
        with pytest.raises(AttributeError):
            m.rows = [1, 1]

    @pytest.mark.parametrize("build", ["rows", "columns"])
    def test_set_keeps_both_orientations_in_step(self, build):
        rng = random.Random(11)
        rows = [rng.getrandbits(6) for _ in range(5)]
        m = (BitMatrix(5, 6, rows) if build == "rows"
             else BitMatrix.from_columns(5, 6, transpose(rows, 6)))
        m.set(0, 0, 1)  # while the matrix holds one orientation
        rows[0] |= 1
        m.rows, m.columns()  # now it holds both
        for i, j, bit in [(1, 2, 1), (4, 5, 0), (2, 0, 1), (1, 2, 0)]:
            m.set(i, j, bit)
            rows[i] = rows[i] & ~(1 << j) | bit << j
            assert m.rows == rows
            assert m.columns() == transpose(rows, 6)
            assert m.get(i, j) == bit

    def test_row_bound_builds_no_wide_int(self):
        # A row bound of 1 << num_cols would take 10 MB here.
        tracemalloc.start()
        try:
            m = BitMatrix(1, 80_000_000, [1])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert m.rows == [1]
        assert peak < 1 << 20

    # (8,6,2,5) meets columns_fit; (12,11,6,2), 924 members for 12 columns,
    # does not, so its columns would be its rows transposed.
    @pytest.mark.parametrize("quad", [(8, 6, 2, 5), (12, 11, 6, 2)])
    def test_construction_rows_are_streamed_not_transposed(self, quad, monkeypatch):
        params = CodeParams(*quad)
        expected = list(code_core.construction_rows(params))
        calls = []
        monkeypatch.setattr(code_core, "construction_columns", calls.append)
        matrix = BitMatrix.of_construction(params)
        assert matrix.rows == expected
        assert calls == [] and matrix._cols is None

    def test_equality_needs_a_matrix_of_the_same_shape(self):
        m = BitMatrix(2, 3, [1, 2])
        assert m != [1, 2]
        assert not m == 5
        # Equal row ints, but one more column.
        assert m != BitMatrix(2, 4, [1, 2])


class TestBestK:
    def test_even_ground(self):
        assert best_k(10, 2, 2) == (5, 252)

    def test_tie_breaks_small(self):
        assert best_k(5, 2, 2) == (3, 10)

    @pytest.mark.parametrize("s,ell,constraint", [(0, 2, "s >= 1"), (2, 0, "ell >= 1")])
    def test_rejects_sizes_below_one(self, s, ell, constraint):
        with pytest.raises(ParameterError) as err:
            best_k(10, s, ell)
        assert err.value.constraint == constraint

    def test_no_admissible_k(self):
        with pytest.raises(ParameterError):
            best_k(4, 3, 1)

    def test_matches_scan(self):
        for n in range(2, 41):
            for s in range(1, 6):
                for ell in (1, 2, 3, 50, 10**6):
                    admissible = [
                        (binomial(n, k), -k) for k in range(s + 1, n)
                        if s + ell <= binomial(n, k) and ell <= binomial(n, s)]
                    if not admissible:
                        with pytest.raises(ParameterError):
                            best_k(n, s, ell)
                        continue
                    t, neg_k = max(admissible)
                    assert best_k(n, s, ell) == (-neg_k, t)


class TestAsymptotics:
    def test_singleton_case_exact(self):
        for n in (5, 20, 100):
            assert asymptotic_estimates(n, 1, 1) == n
            assert dimensions(CodeParams(n, 2, 1, 1)).num_rows == n

    def test_pair_case(self):
        est = asymptotic_estimates(100, 2, 1)
        assert est == 5000
        exact = dimensions(CodeParams(100, 50, 2, 1)).num_rows
        assert exact == 4950
        assert exact / est == pytest.approx(0.99)

    def test_small_n_slack(self):
        est = asymptotic_estimates(5, 2, 2)
        assert est == pytest.approx(78.125)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            asymptotic_estimates(0, 1, 1)


class TestProperties:
    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_monotone_containment(self, data):
        # Growing the column can only turn the entry on, never off.
        small = CodeParams(5, 3, 2, 2)
        big = CodeParams(5, 4, 2, 2)
        rank = data.draw(st.integers(0, 44))
        row = row_label_from_rank(small, rank)
        col_rank = data.draw(st.integers(0, 9))
        col = column_from_rank(small, col_rank)
        extra = data.draw(st.sampled_from(
            [e for e in range(1, 6) if e not in col.elements]))
        grown = KSubset.from_elements(col.elements + (extra,), 5)
        assert entry(big, row, grown) >= entry(small, row, col)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_row_round_trip_random_params(self, data):
        pool = [CodeParams(6, 3, 2, 2), CodeParams(7, 4, 2, 3),
                CodeParams(6, 4, 1, 2), CodeParams(7, 3, 1, 3)]
        params = data.draw(st.sampled_from(pool))
        total = dimensions(params).num_rows
        rank = data.draw(st.integers(0, total - 1))
        assert row_rank_from_label(params, row_label_from_rank(params, rank)) == rank
