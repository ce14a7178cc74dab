import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heapchains import (
    Box,
    CycleError,
    ElementMismatch,
    HeapForest,
    IdOutOfRange,
    Interval,
    NotAPermutation,
    compare_total,
    k_width,
    poset_from_box_set,
    poset_from_interval_sequence,
    poset_from_interval_set,
    poset_from_permutation,
    poset_from_relations,
    verify_forest,
)

from conftest import S1_PAIRS, random_poset


class TestFromRelations:
    def test_transitivity_forced(self):
        p = poset_from_relations(3, [(0, 1), (1, 2)])
        assert p.less(0, 2)

    def test_empty_is_antichain(self):
        p = poset_from_relations(2, [])
        assert p.pairs() == []

    def test_two_cycle_rejected(self):
        with pytest.raises(CycleError):
            poset_from_relations(2, [(0, 1), (1, 0)])

    def test_long_cycle_rejected(self):
        with pytest.raises(CycleError):
            poset_from_relations(3, [(0, 1), (1, 2), (2, 0)])

    def test_self_loop_rejected(self):
        with pytest.raises(CycleError):
            poset_from_relations(2, [(1, 1)])

    def test_id_out_of_range(self):
        with pytest.raises(IdOutOfRange):
            poset_from_relations(2, [(0, 2)])

    @given(st.integers(1, 7), st.data())
    @settings(max_examples=150)
    def test_closure_invariants(self, n, data):
        pairs = data.draw(
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                    lambda p: p[0] < p[1]
                ),
                max_size=12,
            )
        )
        p = poset_from_relations(n, pairs)
        for x in range(n):
            assert not p.less(x, x)
            for y in range(n):
                assert not (p.less(x, y) and p.less(y, x))
                for z in range(n):
                    if p.less(x, y) and p.less(y, z):
                        assert p.less(x, z)


class TestFromPermutation:
    def test_identity_is_total_order(self):
        p = poset_from_permutation((0, 1, 2))
        assert p.pairs() == [(0, 1), (0, 2), (1, 2)]

    def test_reversal_is_antichain(self):
        assert poset_from_permutation((2, 1, 0)).pairs() == []

    def test_example_1203(self):
        p = poset_from_permutation((1, 2, 0, 3))
        assert set(p.pairs()) == {(1, 2), (1, 3), (2, 3), (0, 3)}

    def test_rejects_non_bijection(self):
        with pytest.raises(NotAPermutation):
            poset_from_permutation((0, 0, 1))


class TestIntervalPosets:
    def test_disjoint_comparable(self):
        p = poset_from_interval_set([Interval(0, 1), Interval(2, 3)])
        assert p.pairs() == [(0, 1)]

    def test_overlap_incomparable(self):
        p = poset_from_interval_set([Interval(0, 2), Interval(1, 3)])
        assert p.pairs() == []

    def test_touching_endpoints_comparable(self):
        p = poset_from_interval_set([Interval(0, 1), Interval(1, 2)])
        assert p.pairs() == [(0, 1)]

    def test_sequence_index_blocks_dominance(self):
        p = poset_from_interval_sequence([Interval(2, 3), Interval(0, 1)])
        assert p.pairs() == []

    def test_sequence_in_order(self):
        p = poset_from_interval_sequence([Interval(0, 1), Interval(2, 3)])
        assert p.pairs() == [(0, 1)]

    def test_s1_sequence_relations(self, s1_items):
        p = poset_from_interval_sequence(s1_items)
        # All parent->child edges of the worked configuration are relations.
        for x, y in [(0, 4), (0, 5), (1, 2), (2, 3), (2, 8), (6, 7), (6, 9)]:
            assert p.less(x, y)
        assert not p.less(0, 1)  # [1,7] overlaps [1,11]
        assert not p.less(4, 0)  # index order blocks the reverse direction

    def test_sequence_relations_subset_of_set_relations(self):
        rng = random.Random(2)
        for _ in range(50):
            items = []
            for _ in range(rng.randint(0, 12)):
                a, b = sorted((rng.randint(0, 20), rng.randint(0, 21)))
                items.append(Interval(a, b + 1 if a == b else b))
            seq, full = poset_from_interval_sequence(items), poset_from_interval_set(items)
            assert set(seq.pairs()) <= set(full.pairs())

    def test_identical_degenerate_intervals_rejected(self):
        with pytest.raises(CycleError):
            poset_from_interval_set([Interval(2, 2), Interval(2, 2)])

    def test_single_degenerate_interval_ok(self):
        p = poset_from_interval_set([Interval(2, 2), Interval(3, 4)])
        assert p.pairs() == [(0, 1)]


class TestNonFiniteCoordinates:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_interval_rejects(self, bad):
        for left, right in [(bad, bad), (bad, 1), (0, bad)]:
            with pytest.raises(ValueError, match="finite"):
                Interval(left, right)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_box_rejects(self, bad):
        for coords in [(bad, 0, 1, 1), (0, bad, 1, 1), (0, 0, bad, 1), (0, 0, 1, bad)]:
            with pytest.raises(ValueError, match="finite"):
                Box(coords[:2], coords[2:])

    def test_finite_values_of_every_type_accepted(self):
        assert Interval(0.5, Fraction(3, 2)).right == Fraction(3, 2)
        assert Box((0, 0.25), (Fraction(1, 3), 1.0)).upper == (Fraction(1, 3), 1.0)


class TestBoxPoset:
    def test_dominating_boxes(self):
        p = poset_from_box_set([Box((0, 0), (1, 1)), Box((2, 2), (3, 3))])
        assert p.pairs() == [(0, 1)]

    def test_x_overlap_incomparable(self):
        p = poset_from_box_set([Box((0, 0), (3, 1)), Box((2, 2), (3, 3))])
        assert p.pairs() == []

    def test_touching_corners_comparable(self):
        p = poset_from_box_set([Box((0, 0), (1, 1)), Box((1, 1), (2, 2))])
        assert p.pairs() == [(0, 1)]


class TestCompareTotal:
    def test_right_endpoint_first(self):
        assert compare_total(Interval(0, 1), Interval(0, 2)) < 0

    def test_left_breaks_right_ties(self):
        assert compare_total(Interval(0, 2), Interval(1, 2)) < 0

    def test_equal(self):
        assert compare_total(Interval(3, 5), Interval(3, 5)) == 0

    @given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=3, max_size=3))
    @settings(max_examples=300)
    def test_total_order_laws(self, raw):
        a, b, c = [Interval(min(x, y), max(x, y)) for x, y in raw]
        # trichotomy with antisymmetry
        assert (compare_total(a, b) == 0) == ((a.left, a.right) == (b.left, b.right))
        assert compare_total(a, b) == -compare_total(b, a)
        # transitivity
        if compare_total(a, b) <= 0 and compare_total(b, c) <= 0:
            assert compare_total(a, c) <= 0


class TestVerifyForest:
    def test_chain_path(self):
        p = poset_from_relations(3, [(0, 1), (1, 2)])
        forest = HeapForest(1, {0: None, 1: 0, 2: 1})
        assert verify_forest(p, forest, 1)

    def test_dominance_violation(self):
        p = poset_from_relations(2, [])
        forest = HeapForest(1, {0: None, 1: 0})
        assert not verify_forest(p, forest, 1)
        assert not verify_forest(p, forest, 5)

    def test_arity_violation(self):
        p = poset_from_relations(4, [(0, 1), (0, 2), (0, 3)])
        forest = HeapForest(2, {0: None, 1: 0, 2: 0, 3: 0})
        assert not verify_forest(p, forest, 2)
        assert verify_forest(p, forest, 3)

    def test_monotone_in_k(self):
        rng = random.Random(7)
        for _ in range(30):
            p = random_poset(rng, max_n=7)
            k = rng.randint(1, 3)
            _, forest = k_width(p, k)
            for bigger in range(k, k + 3):
                assert verify_forest(p, forest, bigger)

    def test_element_mismatch(self):
        p = poset_from_relations(3, [(0, 1)])
        with pytest.raises(ElementMismatch):
            verify_forest(p, HeapForest(1, {0: None, 1: 0}), 1)

    def test_parent_outside_forest(self):
        p = poset_from_relations(2, [(0, 1)])
        assert not verify_forest(p, HeapForest(1, {0: 5, 1: None}), 1)


def test_s1_fixture_matches_expected_pairs(s1_items):
    assert [(it.left, it.right) for it in s1_items] == S1_PAIRS
