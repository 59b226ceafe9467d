import itertools
import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import colex_sorted

from cfcode import combinatorics
from cfcode.code_core import CodeParams, column_from_rank, column_rank
from cfcode.combinatorics import (
    WALK_STEPS,
    KSubset,
    binomial,
    capped_binomial,
    colex_rank,
    colex_subsets,
    colex_unrank,
)


class TestBinomial:
    def test_small_values(self):
        assert binomial(5, 2) == 10
        assert binomial(10, 2) == 45
        assert binomial(3, 5) == 0
        assert binomial(0, 0) == 1
        assert binomial(7, 0) == 1
        assert binomial(7, 7) == 1

    def test_pascal_rule_exhaustive(self):
        for n in range(1, 65):
            for k in range(1, 65):
                assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)

    def test_symmetry(self):
        for n in range(0, 65):
            for k in range(0, n + 1):
                assert binomial(n, k) == binomial(n, n - k)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            binomial(-1, 0)
        with pytest.raises(ValueError):
            binomial(3, -2)

    @given(st.integers(0, 400), st.integers(0, 400))
    def test_matches_math_comb(self, n, k):
        assert binomial(n, k) == math.comb(n, k)

    @given(st.integers(0, 80), st.integers(0, 80), st.integers(0, 1 << 80))
    def test_capped_is_min_with_cap(self, n, k, cap):
        assert capped_binomial(n, k, cap) == min(math.comb(n, k), cap)


class TestKSubset:
    def test_valid(self):
        s = KSubset((1, 3, 5), 5)
        assert len(s) == 3
        assert list(s) == [1, 3, 5]
        assert str(s) == "{1,3,5}"

    def test_from_elements_sorts(self):
        assert KSubset.from_elements([5, 1, 3], 5).elements == (1, 3, 5)

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            KSubset((2, 1), 5)

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            KSubset((1, 1, 2), 5)
        with pytest.raises(ValueError):
            KSubset.from_elements([3, 3], 5)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            KSubset((1, 6), 5)
        with pytest.raises(ValueError):
            KSubset((0, 1), 5)

    def test_rejects_negative_ground_size(self):
        with pytest.raises(ValueError, match="ground size"):
            KSubset((), -1)


class TestColexRank:
    def test_known_ranks(self):
        # Independent oracle: enumerate 2-subsets of [5] in colex order.
        order = colex_sorted(itertools.combinations(range(1, 6), 2))
        assert order.index((2, 3)) == 2
        assert order.index((4, 5)) == 9
        assert colex_rank(KSubset((1, 2), 5)) == 0
        assert colex_rank(KSubset((2, 3), 5)) == 2
        assert colex_rank(KSubset((4, 5), 5)) == 9

    def test_matches_enumeration(self):
        for n in range(1, 9):
            for m in range(0, n + 1):
                order = colex_sorted(itertools.combinations(range(1, n + 1), m))
                for r, subset in enumerate(order):
                    assert colex_rank(KSubset(subset, n)) == r

    def test_empty_subset(self):
        assert colex_rank(KSubset((), 5)) == 0


class TestColexUnrank:
    def test_known_subsets(self):
        assert colex_unrank(0, 2, 5).elements == (1, 2)
        assert colex_unrank(2, 2, 5).elements == (2, 3)
        assert colex_unrank(9, 2, 5).elements == (4, 5)

    def test_rank_out_of_range(self):
        with pytest.raises(ValueError):
            colex_unrank(10, 2, 5)
        with pytest.raises(ValueError):
            colex_unrank(-1, 2, 5)

    def test_round_trip_exhaustive(self):
        for n in range(0, 11):
            for m in range(0, n + 1):
                for r in range(binomial(n, m)):
                    assert colex_rank(colex_unrank(r, m, n)) == r

    def test_order_agreement(self):
        # Walking ranks 0, 1, 2, ... yields strictly increasing colex order.
        for n in range(1, 9):
            for m in range(1, n + 1):
                seq = [colex_unrank(r, m, n).elements for r in range(binomial(n, m))]
                keys = [tuple(reversed(s)) for s in seq]
                assert keys == sorted(keys)
                assert len(set(seq)) == len(seq)

    @settings(max_examples=200)
    @given(st.data())
    def test_round_trip_random(self, data):
        n = data.draw(st.integers(1, 60))
        m = data.draw(st.integers(0, min(n, 6)))
        r = data.draw(st.integers(0, binomial(n, m) - 1))
        subset = colex_unrank(r, m, n)
        assert len(subset) == m
        assert colex_rank(subset) == r

    @settings(max_examples=200)
    @given(st.data())
    def test_rank_then_unrank(self, data):
        n = data.draw(st.integers(1, 40))
        m = data.draw(st.integers(1, min(n, 6)))
        elements = data.draw(st.sets(st.integers(1, n), min_size=m, max_size=m))
        subset = KSubset.from_elements(elements, n)
        assert colex_unrank(colex_rank(subset), m, n) == subset


class TestColexSubsets:
    def test_matches_unrank(self):
        for n in range(0, 9):
            for m in range(0, n + 2):
                expected = [colex_unrank(r, m, n).elements for r in range(binomial(n, m))]
                assert list(colex_subsets(m, n)) == expected

    @pytest.mark.parametrize("m, n", [(-1, 3), (2, -1), (-1, -1)])
    def test_rejects_negative_arguments(self, m, n):
        with pytest.raises(ValueError):
            list(colex_subsets(m, n))

    def test_deep_subsets_walk_without_recursion(self):
        # A walk that recursed once per element would overflow the stack here.
        subsets = list(colex_subsets(1099, 1100))
        assert len(subsets) == 1100
        assert subsets[0] == tuple(range(1, 1100))
        assert subsets[-1] == tuple(range(2, 1101))
        assert all(len(set(range(1, 1101)) - set(c)) == 1 for c in subsets[::100])


def oracle_rank(elements):
    """Colex rank straight from its definition, one math.comb per element."""
    return sum(math.comb(c - 1, i) for i, c in enumerate(elements, start=1))


def sample_ranks(n, m, count=6):
    total = math.comb(n, m)
    rng = random.Random(n * 1009 + m)
    return sorted({0, min(1, total - 1), total - 1, *(rng.randrange(total) for _ in range(count))})


class TestLargeShapes:
    @pytest.mark.parametrize("n,m", [(1000, 500), (200, 100), (60, 58), (499500, 3), (499500, 2)])
    def test_unrank_then_rank(self, n, m):
        for r in sample_ranks(n, m):
            subset = colex_unrank(r, m, n)
            assert len(subset) == m
            assert subset.ground_size == n
            assert oracle_rank(subset.elements) == r
            assert colex_rank(subset) == r

    @pytest.mark.parametrize("n,m", [(1000, 500), (200, 100), (499500, 3)])
    def test_rank_then_unrank(self, n, m):
        rng = random.Random(n + m)
        for _ in range(5):
            subset = KSubset.from_elements(rng.sample(range(1, n + 1), m), n)
            r = colex_rank(subset)
            assert r == oracle_rank(subset.elements)
            assert colex_unrank(r, m, n) == subset

    def test_zero_prefix(self):
        # c_i = i for the first three elements: those terms are zero.
        subset = KSubset((1, 2, 3, 50, 51, 300), 300)
        assert colex_rank(subset) == oracle_rank(subset.elements)
        assert colex_unrank(colex_rank(subset), 6, 300) == subset
        assert colex_rank(KSubset(tuple(range(1, 9)), 9)) == 0

    @settings(max_examples=200)
    @given(st.data())
    def test_matches_oracle_random(self, data):
        n = data.draw(st.integers(1, 2000))
        m = data.draw(st.integers(0, min(n, 50)))
        elements = data.draw(st.sets(st.integers(1, n), min_size=m, max_size=m))
        subset = KSubset.from_elements(elements, n)
        r = colex_rank(subset)
        assert r == oracle_rank(subset.elements)
        assert colex_unrank(r, m, n) == subset


class TestWalkLimit:
    """A level settles by ratio steps for gaps up to WALK_STEPS and bisects
    beyond it; both paths must give the same subsets."""

    N = 200

    def shapes(self, gap):
        n = self.N
        # The top level walks ``gap`` steps down from n; then the middle one.
        return [(n - gap - 2, n - gap - 1, n - gap), (n - gap - 2, n - gap - 1, n)]

    @pytest.mark.parametrize("gap,bisections", [(WALK_STEPS, 0), (WALK_STEPS + 1, 1)])
    def test_walk_then_bisect(self, monkeypatch, gap, bisections):
        calls = []
        bisect = combinatorics._last_fitting

        def counting(*args):
            calls.append(args)
            return bisect(*args)

        monkeypatch.setattr(combinatorics, "_last_fitting", counting)
        for elements in self.shapes(gap):
            calls.clear()
            r = oracle_rank(elements)
            assert colex_rank(KSubset(elements, self.N)) == r
            assert colex_unrank(r, 3, self.N).elements == elements
            assert len(calls) == bisections


def best_of_3(fn):
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


class TestLargeShapeSpeed:
    PARAMS = CodeParams(1000, 500, 2, 3)

    def test_column_from_rank(self):
        r = sample_ranks(1000, 500)[3]
        assert best_of_3(lambda: column_from_rank(self.PARAMS, r)) < 0.025

    def test_column_rank(self):
        col = colex_unrank(sample_ranks(1000, 500)[3], 500, 1000)
        assert best_of_3(lambda: column_rank(self.PARAMS, col)) < 0.025
