import itertools
import random
import time
import warnings

import pytest

from cfcode.combinatorics import KSubset
from cfcode.code_core import (
    BitMatrix,
    CodeParams,
    ParameterWarning,
    column_rank,
    dimensions,
    entry,
    materialize,
    row_label_from_rank,
    row_rank_from_label,
)
from cfcode.verification import (
    CoverFreeQuery,
    WitnessSearchError,
    brute_force_column_weight,
    row_satisfies,
    verify_cover_free,
    witness_counts,
    witness_row,
)


@pytest.fixture(autouse=True)
def _mute_parameter_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ParameterWarning)
        yield


def colex_sorted(iterable):
    return sorted(iterable, key=lambda c: tuple(reversed(c)))


def naive_verify(matrix, s, ell):
    """Reference verifier: explicit row scan per family, same enumeration order."""
    t = matrix.num_cols
    rows = [matrix.row_bits(i) for i in range(matrix.num_rows)]
    for neg in colex_sorted(itertools.combinations(range(1, t + 1), s)):
        comp = [c for c in range(1, t + 1) if c not in neg]
        for pos in colex_sorted(itertools.combinations(comp, ell)):
            query = CoverFreeQuery(neg, pos)
            if not any(row_satisfies(r, query) for r in rows):
                return False, query
    return True, None


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
    def test_pattern_match(self):
        assert row_satisfies([0, 1, 1, 0], CoverFreeQuery((1,), (2, 3)))

    def test_negative_column_holds_one(self):
        assert not row_satisfies([0, 1, 1, 0], CoverFreeQuery((2,), (3,)))

    def test_all_ones_row(self):
        assert not row_satisfies([1, 1, 1, 1], CoverFreeQuery((1,), (2,)))

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            row_satisfies([0, 1], CoverFreeQuery((1,), (3,)))


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
                    expected_holds, expected_query = naive_verify(m, s, ell)
                    verdict = verify_cover_free(m, s, ell)
                    assert verdict.holds == expected_holds
                    assert verdict.counterexample == expected_query

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
        counts = list(witness_counts(m, 2, 2))
        least = min(count for _, count in counts)
        assert verdict.witness_count == least > 0
        assert verdict.min_family == next(q for q, c in counts if c == least)
        assert verify_cover_free(m, 2, 2).witness_count is None
        bad = BitMatrix(2, 3, [0b111, 0b111])
        verdict = verify_cover_free(bad, 1, 1, count_witnesses=True)
        assert not verdict.holds
        assert verdict.counterexample == CoverFreeQuery((1,), (2,))
        assert verdict.witness_count == 0


def brute_force_summary(rows, t, s, ell):
    """From plain row ints (bit j = column j), in verifier order: the first
    (neg, pos) family with no witness row or None, the least witness-row
    count, and the first family with that count."""
    first_fail, least, least_family = None, None, None
    for neg in colex_sorted(itertools.combinations(range(1, t + 1), s)):
        rest = [c for c in range(1, t + 1) if c not in neg]
        for pos in colex_sorted(itertools.combinations(rest, ell)):
            count = sum(1 for r in rows
                        if not any(r >> (c - 1) & 1 for c in neg)
                        and all(r >> (c - 1) & 1 for c in pos))
            if count == 0 and first_fail is None:
                first_fail = (neg, pos)
            if least is None or count < least:
                least, least_family = count, (neg, pos)
    return first_fail, least, least_family


def _as_pair(query):
    return None if query is None else (query.neg_cols, query.pos_cols)


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
        # Random matrices rarely satisfy the property; these codes do for
        # small (s, ell), with many families tied at the least count.
        for params in (CodeParams(4, 2, 1, 1), CodeParams(5, 3, 2, 1),
                       CodeParams(5, 3, 2, 2), CodeParams(5, 2, 1, 2)):
            yield materialize(params)

    def test_verdicts_counterexamples_and_minima(self):
        checked = empty_base = 0
        for m in self._matrices():
            for s in (1, 2, 3):
                for ell in (1, 2, 3):
                    if s + ell > m.num_cols:
                        continue
                    first_fail, least, least_family = brute_force_summary(
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

    def test_zero_rows_fail_at_first_family(self):
        m = BitMatrix(0, 5, [])
        verdict = verify_cover_free(m, 2, 3, count_witnesses=True)
        assert not verdict.holds
        assert verdict.counterexample == CoverFreeQuery((1, 2), (3, 4, 5))
        assert verdict.witness_count == 0
        assert verdict.min_family == verdict.counterexample


class TestWitnessCounts:
    def test_counts_match_row_scan(self):
        m = materialize(CodeParams(5, 3, 2, 1))
        rows = [m.row_bits(i) for i in range(m.num_rows)]
        seen = 0
        for query, count in witness_counts(m, 2, 1):
            expected = sum(1 for r in rows if row_satisfies(r, query))
            assert count == expected
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
        assert row_satisfies(m.row_bits(rank), query)

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
        assert all(count == 0 for _, count in witness_counts(m, 1, 2))
        with pytest.raises(WitnessSearchError):
            witness_row(params,
                        [KSubset((1, 2, 3), 4)],
                        [KSubset((1, 2, 4), 4), KSubset((1, 3, 4), 4)])


class TestWitnessAgainstCompleteSearch:
    def test_succeeds_exactly_when_a_separating_row_exists(self):
        # Exercised on a sound instance and on a degenerate one: witness_row
        # must succeed precisely for the families some row separates.
        from cfcode.code_core import column_from_rank
        for params in [CodeParams(5, 3, 2, 2), CodeParams(4, 3, 2, 2)]:
            m = materialize(params)
            cols = [column_from_rank(params, j) for j in range(m.num_cols)]
            for query, count in witness_counts(m, params.s, params.ell):
                neg = [cols[j - 1] for j in query.neg_cols]
                pos = [cols[j - 1] for j in query.pos_cols]
                if count:
                    label = witness_row(params, neg, pos)
                    rank = row_rank_from_label(params, label)
                    assert row_satisfies(m.row_bits(rank), query)
                else:
                    with pytest.raises(WitnessSearchError):
                        witness_row(params, neg, pos)


class TestBruteForceColumnWeight:
    def test_known_weights(self):
        params = CodeParams(5, 3, 2, 2)
        assert brute_force_column_weight(params, KSubset((1, 2, 3), 5)) == 24
        assert brute_force_column_weight(params, KSubset((3, 4, 5), 5)) == 24
        single = CodeParams(5, 3, 2, 1)
        assert brute_force_column_weight(single, KSubset((1, 2, 3), 5)) == 3

    def test_matches_unrank_entry_scan(self):
        params = CodeParams(5, 3, 2, 2)
        col = KSubset((1, 3, 5), 5)
        total = dimensions(params).num_rows
        expected = sum(
            entry(params, row_label_from_rank(params, r), col) for r in range(total))
        assert brute_force_column_weight(params, col) == expected

    def test_agrees_with_closed_form_everywhere(self):
        from cfcode.code_core import column_from_rank
        for params in [CodeParams(5, 3, 2, 2), CodeParams(6, 3, 2, 2),
                       CodeParams(6, 4, 1, 3), CodeParams(5, 3, 1, 2)]:
            dims = dimensions(params)
            for j in range(dims.num_cols):
                col = column_from_rank(params, j)
                assert brute_force_column_weight(params, col) == dims.column_weight


class TestMutationSensitivity:
    def test_unique_witness_flip_breaks_property(self):
        params = CodeParams(5, 3, 2, 1)
        m = materialize(params)
        assert verify_cover_free(m, 2, 1).holds
        unique = next((q, c) for q, c in witness_counts(m, 2, 1) if c == 1)
        query, _ = unique
        row_index = next(
            i for i in range(m.num_rows) if row_satisfies(m.row_bits(i), query))
        mutated = BitMatrix(m.num_rows, m.num_cols, list(m.rows))
        mutated.set(row_index, query.pos_cols[0] - 1, 0)
        assert not verify_cover_free(mutated, 2, 1).holds
