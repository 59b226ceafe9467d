import itertools
import math
import random
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfcode.combinatorics import KSubset, binomial
from cfcode.code_core import (
    TRANSPOSE_BLOCK_ROWS,
    BitMatrix,
    BudgetError,
    CodeParams,
    ParameterError,
    ParameterWarning,
    RowLabel,
    asymptotic_estimates,
    best_k,
    column_from_rank,
    column_rank,
    dimensions,
    entry,
    materialize,
    row_label_from_rank,
    row_rank_from_label,
    validate,
)
from cfcode.verification import witness_row


@pytest.fixture(autouse=True)
def _mute_parameter_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ParameterWarning)
        yield


def colex_sorted(iterable):
    return sorted(iterable, key=lambda c: tuple(reversed(c)))


def naive_labels(n, s, ell):
    """All row labels as frozensets of member tuples, in rank order."""
    subsets = colex_sorted(itertools.combinations(range(1, n + 1), s))
    for picks in colex_sorted(itertools.combinations(range(len(subsets)), ell)):
        yield [subsets[i] for i in picks]


class TestValidate:
    def test_accepts_sound_parameters(self):
        params = CodeParams(5, 3, 2, 2)
        assert validate(params) is params

    def test_k_not_below_n(self):
        with pytest.raises(ParameterError) as err:
            validate(CodeParams(5, 5, 2, 2))
        assert err.value.constraint == "k < n"

    def test_s_not_below_k(self):
        with pytest.raises(ParameterError) as err:
            validate(CodeParams(5, 2, 2, 2))
        assert err.value.constraint == "s < k"

    def test_ell_too_small(self):
        with pytest.raises(ParameterError) as err:
            validate(CodeParams(5, 3, 2, 0))
        assert err.value.constraint == "ell >= 1"

    def test_family_overflows_columns(self):
        # t = C(4,3) = 4 and 3 + 2 > 4.
        with pytest.raises(ParameterError) as err:
            validate(CodeParams(4, 3, 2, 3))
        assert err.value.constraint == "ell + s <= C(n,k)"

    def test_s_too_small(self):
        with pytest.raises(ParameterError) as err:
            validate(CodeParams(5, 3, 0, 2))
        assert err.value.constraint == "s >= 1"

    def test_ell_one_warns(self):
        with pytest.warns(ParameterWarning):
            validate(CodeParams(5, 3, 2, 1))

    def test_edge_family_size_warns(self):
        # ell + s equals t = C(5,4) = 5.
        with pytest.warns(ParameterWarning):
            validate(CodeParams(5, 4, 2, 3))

    def test_comfortable_params_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", ParameterWarning)
            validate(CodeParams(5, 3, 2, 2))


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

    def test_row_limit(self):
        with pytest.raises(BudgetError):
            materialize(self.params, row_limit=10)

    def test_bit_budget_reports_sizes(self):
        with pytest.raises(BudgetError, match="450 bits.*100"):
            materialize(self.params, max_bits=100)


class TestBitMatrix:
    def test_get_set(self):
        m = BitMatrix(3, 4)
        assert m.get(1, 2) == 0
        m.set(1, 2, 1)
        assert m.get(1, 2) == 1
        assert m.row_bits(1) == [0, 0, 1, 0]
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

    def test_column_int(self):
        m = BitMatrix(3, 2, [0b01, 0b10, 0b11])
        assert m.column_int(0) == 0b101
        assert m.column_int(1) == 0b110
        assert m.column_sums() == [2, 2]

    def test_columns_match_column_int(self):
        rng = random.Random(3)
        sizes = [(0, 4), (1, 1), (5, 3), (TRANSPOSE_BLOCK_ROWS, 7),
                 (2 * TRANSPOSE_BLOCK_ROWS + 5, 11), (TRANSPOSE_BLOCK_ROWS + 1, 70)]
        for num_rows, num_cols in sizes:
            m = BitMatrix(num_rows, num_cols,
                          [rng.getrandbits(num_cols) for _ in range(num_rows)])
            assert m.columns() == [m.column_int(j) for j in range(num_cols)]
            assert m.column_sums() == [
                sum(r >> j & 1 for r in m.rows) for j in range(num_cols)]

    def test_rejects_wide_rows(self):
        with pytest.raises(ValueError):
            BitMatrix(1, 2, [4])


class TestBestK:
    def test_even_ground(self):
        assert best_k(10, 2, 2) == (5, 252)

    def test_tie_breaks_small(self):
        assert best_k(5, 2, 2) == (3, 10)

    def test_no_admissible_k(self):
        with pytest.raises(ParameterError):
            best_k(4, 3, 1)

    def test_matches_scan(self):
        for n in range(2, 41):
            for s in range(1, 6):
                for ell in (1, 2, 3, 50, 10**6):
                    admissible = [
                        (binomial(n, k), -k) for k in range(s + 1, n)
                        if s + ell <= binomial(n, k)]
                    if not admissible:
                        with pytest.raises(ParameterError):
                            best_k(n, s, ell)
                        continue
                    t, neg_k = max(admissible)
                    assert best_k(n, s, ell) == (-neg_k, t)


class TestAsymptotics:
    def test_singleton_case_exact(self):
        for n in (5, 20, 100):
            log_t, rows_est = asymptotic_estimates(n, 1, 1)
            assert log_t == n
            assert rows_est == n
            assert dimensions(CodeParams(n, 2, 1, 1)).num_rows == n

    def test_pair_case(self):
        _, est = asymptotic_estimates(100, 2, 1)
        assert est == 5000
        exact = dimensions(CodeParams(100, 50, 2, 1)).num_rows
        assert exact == 4950
        assert exact / est == pytest.approx(0.99)

    def test_small_n_slack(self):
        _, est = asymptotic_estimates(5, 2, 2)
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
