import collections.abc
import math
import random
import re
from bisect import bisect_right, insort
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heapchains import (
    ATTACHED,
    NEW_CHAIN,
    REJECTED,
    Box,
    CycleError,
    HeapForest,
    IncompatibleChoice,
    Interval,
    NotAPermutation,
    TraceStep,
    best_fit_trace,
    chain_signatures,
    dominates,
    formats,
    greedy_max_heapable_subset,
    greedy_partition_permutation,
    greedy_partition_sequence,
    greedy_partition_set,
    insert_interval,
    k_width,
    max_clique_intervals,
    oracle_max_heapable,
    poset_from_box_set,
    poset_from_interval_sequence,
    poset_from_interval_set,
    poset_from_permutation,
    signature,
    sweep_partition,
    verify_forest,
)
from heapchains.greedy import _order, _set_chain_count, _set_order, _SlotPool, _sweep
from heapchains.poset import _exact_keys
from heapchains.simulate import _draws, trial_rng

from conftest import (
    dominated_pair,
    random_intervals,
    random_intervals_distinct,
    top_dominated_pair,
)


class TestSignatureAndDomination:
    def test_worked_example_signatures(self, s1_items):
        _, forest, _ = greedy_partition_sequence(s1_items, 2)
        sigs = chain_signatures(forest, s1_items)
        assert sigs[0] == (9, 9, 16, 16)
        assert sigs[1] == (11, 16, 16, 17, 17)
        assert sigs[6] == (7, 7, 19, 19)

    def test_signature_sorts(self):
        assert signature([16, 9, 16, 9]) == (9, 9, 16, 16)
        assert signature([]) == ()

    def test_domination_between_worked_chains(self):
        h1, h2, h3 = (9, 9, 16, 16), (11, 16, 16, 17, 17), (7, 7, 19, 19)
        assert dominates(h1, h2)
        assert not dominates(h1, h3)
        assert not dominates(h3, h1)
        assert not dominates(h2, h1)
        assert not dominates(h2, h3)
        assert not dominates(h3, h2)

    def test_empty_dominates_everything(self):
        assert dominates((), (1, 2, 3))
        assert dominates((), ())


def _two_branch_insert(slots, item, k, choose=None):
    """The two-branch ``insert_interval`` that one bisect lookup replaced,
    kept as the reference: a forced choice and best fit each looked up,
    checked and removed their own slot."""
    values = list(signature(slots))
    consumed = None
    if choose is not None:
        if choose > item.left:
            raise IncompatibleChoice(f"slot {choose} exceeds left endpoint {item.left}")
        idx = bisect_right(values, choose) - 1
        if idx < 0 or values[idx] != choose:
            raise IncompatibleChoice(f"slot {choose} not present in the multiset")
        consumed = values.pop(idx)
    else:
        idx = bisect_right(values, item.left) - 1
        if idx >= 0:
            consumed = values.pop(idx)
    for _ in range(k):
        insort(values, item.right)
    return tuple(values), consumed


def _outcome(insert, *args, **kwargs):
    """The repr of ``insert``'s result (values and their types), or the text
    of the IncompatibleChoice it raised."""
    try:
        return repr(insert(*args, **kwargs))
    except IncompatibleChoice as exc:
        return f"IncompatibleChoice: {exc}"


def _random_value(rng, base):
    """A value near ``base``, in one of the exact and float forms: ints,
    Fractions and floats of equal value mix, and ``base`` may lie past ±2**63."""
    value = base + Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 4)))
    form = rng.randrange(3)
    if form == 0 and value.denominator == 1:
        return int(value)
    return float(value) if form == 2 else value


class TestInsertInterval:
    def test_attach_consumes_best_slot(self):
        slots, consumed = insert_interval((7, 7), Interval(7, 9), 2)
        assert slots == (7, 9, 9) and consumed == 7

    def test_new_chain_on_empty(self):
        slots, consumed = insert_interval((), Interval(1, 7), 2)
        assert slots == (7, 7) and consumed is None

    def test_new_chain_when_no_slot_fits(self):
        slots, consumed = insert_interval((2, 2), Interval(0, 5), 2)
        assert slots == (2, 2, 5, 5) and consumed is None

    def test_choose_specific_slot(self):
        slots, consumed = insert_interval((3, 5), Interval(5, 9), 1, choose=3)
        assert slots == (5, 9) and consumed == 3

    def test_choose_absent_slot_rejected(self):
        with pytest.raises(IncompatibleChoice):
            insert_interval((3, 5), Interval(5, 9), 1, choose=4)

    def test_choose_incompatible_slot_rejected(self):
        with pytest.raises(IncompatibleChoice):
            insert_interval((3, 7), Interval(5, 9), 1, choose=7)

    def test_matches_two_branch_reference(self):
        # Seeded cases: ints, Fractions and floats, equal values of mixed
        # types, keys past ±2**63, and forced choices present, absent or
        # above item.left.
        rng = random.Random(24)
        seen = Counter()
        for case in range(20_000):
            base = rng.choice((0, 0, 0, 2**63, -(2**63), 2**64))
            slots = [_random_value(rng, base) for _ in range(rng.randint(0, 6))]
            left, right = sorted((_random_value(rng, base), _random_value(rng, base)))
            item, k = Interval(left, right), rng.randint(1, 3)
            kind = rng.choice(("best", "present", "absent", "above"))
            if kind == "present" and slots:
                c = rng.choice(slots)  # or an equal value of another type
                choose = rng.choice((c, Fraction(c), float(c) if float(c) == c else c))
            elif kind == "absent":
                choose = _random_value(rng, base)
            elif kind == "above":
                choose = item.left + rng.choice((1, Fraction(1, 3), 0.5))
            else:
                choose = None
            want = _outcome(_two_branch_insert, slots, item, k, choose)
            assert _outcome(insert_interval, slots, item, k, choose=choose) == want, case
            assert _outcome(insert_interval, tuple(slots), item, k, choose) == want, case
            if choose is None:
                seen["best fit"] += 1
            elif want.startswith("IncompatibleChoice"):
                seen["exceeds" if "exceeds" in want else "absent"] += 1
            else:
                seen["forced"] += 1
        assert len(seen) == 4 and min(seen.values()) > 1000, seen

    def test_forced_slot_is_best_fit_below_it(self):
        # The identity behind one lookup: forcing a present slot c <= item.left
        # is best fit for the interval [c, item.right].
        rng = random.Random(7)
        checked = 0
        for _ in range(4_000):
            base = rng.choice((0, 2**63, -(2**63)))
            slots = [_random_value(rng, base) for _ in range(rng.randint(1, 6))]
            left, right = sorted((_random_value(rng, base), _random_value(rng, base)))
            item, k = Interval(left, right), rng.randint(1, 3)
            for c in slots:
                if c <= item.left:
                    forced = insert_interval(slots, item, k, choose=c)
                    assert forced == insert_interval(slots, Interval(c, item.right), k)
                    checked += 1
        assert checked > 5_000

    @given(
        st.lists(st.integers(0, 20), max_size=8),
        st.tuples(st.integers(0, 20), st.integers(0, 20)),
        st.integers(1, 3),
    )
    @settings(max_examples=300)
    def test_size_law(self, slots, endpoints, k):
        item = Interval(min(endpoints), max(endpoints))
        new, consumed = insert_interval(slots, item, k)
        assert len(new) == len(slots) + k - (consumed is not None)
        if consumed is not None:
            assert consumed <= item.left


class TestSequencePartition:
    def test_worked_example_full_shape(self, s1_items):
        count, forest, trace = greedy_partition_sequence(s1_items, 2)
        assert count == 3
        assert forest.roots == (0, 1, 6)
        assert forest.children_of(0) == (4, 5)
        assert forest.children_of(1) == (2,)
        assert forest.children_of(2) == (3, 8)
        assert forest.children_of(6) == (7, 9)
        assert verify_forest(poset_from_interval_sequence(s1_items), forest, 2)
        assert [s.kind for s in trace].count(NEW_CHAIN) == 3

    def test_pairwise_overlapping_gives_n_chains(self):
        items = [Interval(0, 10), Interval(1, 11), Interval(2, 12)]
        for k in (1, 2, 5):
            assert greedy_partition_sequence(items, k)[0] == 3

    def test_chain_ordered_gives_one(self):
        items = [Interval(i, i + 1) for i in range(8)]
        for k in (1, 3):
            assert greedy_partition_sequence(items, k)[0] == 1

    def test_empty_input(self):
        count, forest, trace = greedy_partition_sequence([], 2)
        assert count == 0 and forest.parent == {} and trace == ()

    def test_one_trace_event_per_item(self):
        rng = random.Random(31)
        for _ in range(20):
            items = random_intervals(rng, rng.randint(0, 15))
            _, _, trace = greedy_partition_sequence(items, rng.randint(1, 3))
            assert sorted(s.item for s in trace) == list(range(len(items)))


class TestSetPartition:
    def test_sorts_before_inserting(self):
        count, forest, _ = greedy_partition_set([Interval(2, 3), Interval(0, 1)], 1)
        assert count == 1
        assert forest.parent == {1: None, 0: 1}

    def test_worked_example_as_set_matches_flow(self, s1_items):
        count, forest, _ = greedy_partition_set(s1_items, 2)
        poset = poset_from_interval_set(s1_items)
        assert count <= 3
        assert count == k_width(poset, 2)[0]
        assert verify_forest(poset, forest, 2)

    def test_identical_intervals_are_incomparable(self):
        items = [Interval(0, 1)] * 5
        for k in (1, 3):
            assert greedy_partition_set(items, k)[0] == 5

    def test_matches_flow_on_random_sets(self):
        rng = random.Random(33)
        for _ in range(60):
            items = random_intervals(rng, rng.randint(1, 18))
            k = rng.randint(1, 3)
            count, forest, _ = greedy_partition_set(items, k)
            poset = poset_from_interval_set(items)
            assert count == k_width(poset, k)[0]
            assert verify_forest(poset, forest, k)

    def test_matches_flow_on_random_sequences(self):
        rng = random.Random(34)
        for _ in range(60):
            items = random_intervals(rng, rng.randint(1, 18))
            k = rng.randint(1, 3)
            count, forest, _ = greedy_partition_sequence(items, k)
            poset = poset_from_interval_sequence(items)
            assert count == k_width(poset, k)[0]
            assert verify_forest(poset, forest, k)

    def test_k1_count_equals_max_clique_on_distinct_endpoints(self):
        rng = random.Random(35)
        for _ in range(60):
            items = random_intervals_distinct(rng, rng.randint(1, 20))
            assert greedy_partition_set(items, 1)[0] == max_clique_intervals(items)


class TestPermutationPartition:
    def test_identity_one_chain(self):
        assert greedy_partition_permutation(range(8), 2)[0] == 1

    def test_reversal_all_chains(self):
        assert greedy_partition_permutation((4, 3, 2, 1, 0), 3)[0] == 5

    def test_example_1203(self):
        count, forest = greedy_partition_permutation((1, 2, 0, 3), 2)
        assert count == 2
        assert count == k_width(poset_from_permutation((1, 2, 0, 3)), 2)[0]
        assert verify_forest(poset_from_permutation((1, 2, 0, 3)), forest, 2)

    def test_interval_compatibility_is_nonstrict(self):
        # equal-valued slots accept intervals (<=), unlike the strict permutation rule
        items = [Interval(0, 0), Interval(0, 0)]
        assert greedy_partition_sequence(items, 1)[0] == 1
        assert greedy_partition_permutation((0, 1), 1)[0] == 1

    def test_matches_flow_on_random_permutations(self):
        rng = random.Random(36)
        for _ in range(40):
            perm = list(range(rng.randint(1, 9)))
            rng.shuffle(perm)
            k = rng.randint(1, 3)
            count, forest = greedy_partition_permutation(perm, k)
            poset = poset_from_permutation(perm)
            assert count == k_width(poset, k)[0]
            assert verify_forest(poset, forest, k)

    def test_rejects_non_bijection(self):
        with pytest.raises(NotAPermutation):
            greedy_partition_permutation((0, 2), 1)

    @pytest.mark.parametrize(
        "perm, message",
        [
            ((0, 2), "not a bijection on 0..1: value 2 at position 1 is out of range"),
            ((1, -1, 0), "not a bijection on 0..2: value -1 at position 1 is out of range"),
            ((2, 0, 0, 9), "not a bijection on 0..3: value 0 at position 2 repeats position 1"),
            ([0] * 5000, "not a bijection on 0..4999: value 0 at position 1 repeats position 0"),
            # Past int64, where the bijection check's int64 array cannot hold the value.
            ((0, 2**63, 1),
             "not a bijection on 0..2: value 9223372036854775808 at position 1 is out of range"),
            ((1, -(2**63) - 1, 0),
             "not a bijection on 0..2: value -9223372036854775809 at position 1 is out of range"),
        ],
        ids=["out-of-range", "negative", "repeat", "long", "past-int64", "below-int64"],
    )
    def test_non_bijection_names_first_bad_value(self, perm, message):
        with pytest.raises(NotAPermutation) as raised:
            greedy_partition_permutation(perm, 1)
        assert str(raised.value) == message


class TestMaxHeapableSubset:
    def test_example_rejects_early_ender(self):
        items = [Interval(1, 2), Interval(3, 4), Interval(5, 6), Interval(0, 10)]
        subset, forest, trace = greedy_max_heapable_subset(items, 2)
        assert subset == (0, 1, 2)
        assert len(forest.roots) == 1
        assert [s.kind for s in trace if s.kind == REJECTED] == [REJECTED]

    def test_pairwise_overlapping_keeps_one(self):
        items = [Interval(0, 10), Interval(1, 11), Interval(2, 12)]
        subset, forest, _ = greedy_max_heapable_subset(items, 2)
        assert len(subset) == 1 and len(forest.roots) == 1

    def test_chain_ordered_keeps_all(self):
        items = [Interval(i, i + 1) for i in range(6)]
        subset, _, _ = greedy_max_heapable_subset(items, 1)
        assert subset == tuple(range(6))

    def test_empty_input(self):
        subset, forest, trace = greedy_max_heapable_subset([], 3)
        assert subset == () and forest.parent == {} and trace == ()

    def test_single_tree_with_valid_dominance(self):
        rng = random.Random(37)
        for _ in range(40):
            items = random_intervals(rng, rng.randint(1, 14))
            k = rng.randint(1, 2)
            subset, forest, _ = greedy_max_heapable_subset(items, k)
            assert set(forest.parent) == set(subset)
            assert len(forest.roots) == 1
            children = {e: 0 for e in subset}
            for child, par in forest.parent.items():
                if par is not None:
                    children[par] += 1
                    assert items[par].right <= items[child].left
            assert all(c <= k for c in children.values())

    def test_matches_subset_oracle(self):
        rng = random.Random(38)
        for _ in range(50):
            items = random_intervals(rng, rng.randint(1, 9))
            for k in (1, 2):
                subset, _, _ = greedy_max_heapable_subset(items, k)
                assert len(subset) == oracle_max_heapable(items, k)


class TestDominationCalculus:
    """The slot-calculus facts the optimality arguments rest on.

    Domination compares signatures from the largest value down, so the
    insertion lemma holds for multisets of any sizes.  Comparing from the
    smallest value up would break it when the sizes differ; the regression
    tests below pin minimal instances of that.
    """

    def test_lemma_preservation_equal_sizes(self):
        rng = random.Random(41)
        done = 0
        while done < 3000:
            a, b = dominated_pair(rng, equal_size=True)
            x = rng.randint(0, 26)
            item = Interval(x, rng.randint(x, x + 12))
            k = rng.randint(1, 3)
            compat_b = [s for s in b if s <= x]
            if compat_b:
                a2, _ = insert_interval(a, item, k)
                b2, _ = insert_interval(b, item, k, choose=rng.choice(compat_b))
            elif not [s for s in a if s <= x]:
                a2, _ = insert_interval(a, item, k)
                b2, _ = insert_interval(b, item, k)
            else:
                continue
            done += 1
            assert dominates(a2, b2), (a, b, item, k)

    def test_lemma_preservation_fails_for_unequal_sizes(self):
        # The name is this instance's old label: (1,12,15) dominates
        # (1,12,16,17), and inserting [7,22] best-fit consumes slot 1 on each
        # side.  Compared from the smallest value up, (12,15,22) against
        # (12,16,17,22) fails at 22 > 16; compared from the top, as the lemma
        # needs, 22 <= 22, 15 <= 17 and 12 <= 16, so domination survives.
        a2, _ = insert_interval((1, 12, 15), Interval(7, 22), 1)
        b2, _ = insert_interval((1, 12, 16, 17), Interval(7, 22), 1, choose=1)
        assert dominates((1, 12, 15), (1, 12, 16, 17))
        assert a2 == (12, 15, 22) and b2 == (12, 16, 17, 22)
        assert dominates(a2, b2)

    def test_new_chain_agreement(self):
        # When only the dominating side A starts a new chain at x, A has no
        # slot <= x: #{a > x} = |A| <= #{b > x} < |B|, so A is strictly
        # smaller and the extra chain keeps the count no larger.  (A new
        # chain on A does not force one on B: (5,) dominates (1, 6) at x=3.)
        # Bottom-aligned draws have min(a) <= min(b) and never split; the
        # general top-aligned draws must.
        rng = random.Random(42)
        for draw in (dominated_pair, top_dominated_pair):
            split = 0
            for _ in range(3000):
                a, b = draw(rng)
                assert dominates(a, b), (a, b)
                x = rng.randint(0, 26)
                if min(a) > x >= min(b):
                    split += 1
                    assert len(a) < len(b), (a, b, x)
            assert split > 0 or draw is dominated_pair

    def test_deletion_domination(self):
        rng = random.Random(43)
        for _ in range(3000):
            values = sorted(rng.randint(0, 24) for _ in range(rng.randint(2, 9)))
            i, j = sorted(rng.sample(range(len(values)), 2))
            s1, s2 = list(values), list(values)
            s1.remove(values[j])  # drop the larger
            s2.remove(values[i])
            assert dominates(s1, s2)

    def test_transposition_improves_counts_but_not_pointwise_domination(self):
        # The name is this instance's old label.  Sorted order chains [5,6]
        # under [0,1] leaving {6}; the swapped order must open two chains
        # leaving {1,6}.  Counts favor sorted order, and {6} dominates {1,6}
        # from the top (6 <= 6), although not from the bottom (6 > 1).
        items = [Interval(0, 1), Interval(5, 6)]
        count_sorted, forest_sorted, _ = greedy_partition_sequence(items, 1)
        count_swapped, forest_swapped, _ = greedy_partition_sequence(items[::-1], 1)
        sig_sorted = signature(
            v for s in chain_signatures(forest_sorted, items).values() for v in s
        )
        sig_swapped = signature(
            v for s in chain_signatures(forest_swapped, items[::-1]).values() for v in s
        )
        assert (count_sorted, count_swapped) == (1, 2)
        assert sig_sorted == (6,) and sig_swapped == (1, 6)
        assert dominates(sig_sorted, sig_swapped)

    def test_sorted_order_never_beaten_on_counts(self):
        rng = random.Random(44)
        for _ in range(200):
            items = random_intervals(rng, rng.randint(1, 10))
            k = rng.randint(1, 3)
            best = greedy_partition_set(items, k)[0]
            shuffled = list(range(len(items)))
            rng.shuffle(shuffled)
            count = greedy_partition_sequence([items[i] for i in shuffled], k)[0]
            assert best <= count


class TestExactArithmetic:
    def test_fraction_endpoints_compare_exactly(self):
        items = [Interval(Fraction(1, 3), Fraction(2, 3)), Interval(Fraction(2, 3), 1)]
        assert greedy_partition_sequence(items, 1)[0] == 1
        items = [Interval(Fraction(1, 3), Fraction(6676, 10000)), Interval(Fraction(2, 3), 1)]
        assert greedy_partition_sequence(items, 1)[0] == 2


class TestNumpyArity:
    """A numpy integer k reads as the plain int it holds; bools and floats
    still raise ValueError."""

    def test_numpy_int_arity_matches_int(self, s1_items, tmp_path):
        boxes = [Box((item.left, 0), (item.right, item.left % 3)) for item in s1_items]
        cases = [
            (greedy_partition_sequence, s1_items),
            (greedy_partition_set, s1_items),
            (greedy_max_heapable_subset, s1_items),
            (greedy_partition_permutation, [1, 2, 0, 3, 5, 4]),
            (sweep_partition, boxes),
            (k_width, poset_from_interval_set(s1_items)),
        ]
        for solve, data in cases:
            got, want = solve(data, np.int64(2)), solve(data, 2)
            assert got == want, solve.__name__
            forest = got[1]
            assert type(forest.k) is int, solve.__name__
            formats.save_forest_json(tmp_path / "numpy.json", forest)
            formats.save_forest_json(tmp_path / "int.json", want[1])
            assert (tmp_path / "numpy.json").read_bytes() == (tmp_path / "int.json").read_bytes()

    @pytest.mark.parametrize("bad", [True, 2.0, np.float64(2), 0, np.int64(0), "2"])
    def test_non_integer_arity_rejected(self, s1_items, bad):
        with pytest.raises(ValueError, match=re.escape(f"arity must be an integer >= 1, got {bad!r}")):
            greedy_partition_set(s1_items, bad)


def _naive_take(slots, bound, strict=False):
    """Best fit over a plain list of [value, owner, lives] entries: the
    highest value <= bound (< bound when strict), then the lowest owner.
    Spends one life and returns the entry, or None when nothing fits."""
    best = None
    for entry in slots:
        value, owner, _ = entry
        if value < bound or (value == bound and not strict):
            if best is None or value > best[0] or (value == best[0] and owner < best[1]):
                best = entry
    if best is not None:
        best[2] -= 1
        if best[2] == 0:
            slots.remove(best)
    return best


def _naive_intervals(items, order, k, single_chain=False):
    slots, parent, trace = [], {}, []
    for i in order:
        best = _naive_take(slots, items[i].left)
        if best is not None:
            parent[i] = best[1]
            trace.append(TraceStep(i, ATTACHED, parent=best[1], slot=best[0]))
        elif single_chain and parent:
            trace.append(TraceStep(i, REJECTED))
            continue
        else:
            parent[i] = None
            trace.append(TraceStep(i, NEW_CHAIN))
        slots.append([items[i].right, i, k])
    return parent, tuple(trace)


def _naive_permutation(perm, k):
    slots, parent, trace = [], {}, []
    for value in perm:
        best = _naive_take(slots, value, strict=True)
        if best is None:
            parent[value] = None
            trace.append(TraceStep(value, NEW_CHAIN))
        else:
            parent[value] = best[1]
            trace.append(TraceStep(value, ATTACHED, parent=best[1], slot=best[0]))
        slots.append([value, value, k])
    return parent, tuple(trace)


def _naive_sweep(boxes, k):
    """The phased sweep as a list scan on the original coordinates: at each
    x, open the slots of the boxes ending there; then the zero-width boxes
    there, by upper y and lower y, take and open; then the boxes starting
    there, by upper x (input id breaks ties), take."""
    slots, parent, ids = [], {}, range(len(boxes))
    for x in sorted({c for box in boxes for c in (box.lower[0], box.upper[0])}):
        ending = [b for b in ids if boxes[b].lower[0] < boxes[b].upper[0] == x]
        flat = sorted(
            (b for b in ids if boxes[b].lower[0] == boxes[b].upper[0] == x),
            key=lambda b: (boxes[b].upper[1], boxes[b].lower[1]),
        )
        starting = sorted(
            (b for b in ids if boxes[b].lower[0] == x < boxes[b].upper[0]),
            key=lambda b: boxes[b].upper[0],
        )
        for bid in ending:
            slots.append([boxes[bid].upper[1], bid, k])
        for bid in flat + starting:
            best = _naive_take(slots, boxes[bid].lower[1])
            parent[bid] = None if best is None else best[1]
            if bid in flat:
                slots.append([boxes[bid].upper[1], bid, k])
    return parent


def _repeats_a_point(items):
    """True when two intervals are the same point."""
    points = [item.left for item in items if item.left == item.right]
    return len(set(points)) < len(points)


def _tied_coord(rng):
    """A coordinate from a small grid, as int, Fraction or float at random, so
    equal values of different types and near-equal float/Fraction pairs both
    occur (float(1/3) is not Fraction(1, 3))."""
    value = Fraction(rng.randint(0, 12), rng.choice([1, 2, 3]))
    kind = rng.randrange(3)
    if kind == 0 and value.denominator == 1:
        return int(value)
    if kind == 1:
        return float(value)
    return value


def _typed(trace):
    return [(step, type(step.slot)) for step in trace]


def _key_order(values):
    """The dense ranks 0, 1, ... of the values' exact keys."""
    keys = _exact_keys(values)
    rank = {key: r for r, key in enumerate(sorted(set(keys)))}
    return [rank[key] for key in keys]


class TestNaiveReference:
    """Every greedy variant and the sweep against a plain list-scan best fit
    on the original coordinates: no sorted containers and no ranks."""

    KS = (1, 2, 3, 8)

    def test_dense_ranks_are_exact_across_types(self, monkeypatch):
        values = [1, Fraction(1, 2), 0.5, 0.1, Fraction(1, 10), -2, 1.0, 10**30]
        assert _key_order(values) == [4, 3, 3, 2, 1, 0, 4, 5]
        assert _key_order([]) == []
        numpy_values = [np.int64(3), 1, np.int64(1), Fraction(1, 2), np.float32(0.5), 2**70]
        assert _key_order(numpy_values) == [2, 1, 1, 0, 0, 3]

        # Plain ints rank by themselves; only the general route scales by an lcm.
        lcm_calls = []
        lcm = math.lcm
        monkeypatch.setattr(math, "lcm", lambda *qs: lcm_calls.append(qs) or lcm(*qs))
        ints = [5, -3, 5, 2**70, -(2**64), 0, -3, 2**63, 2**63 - 1]
        assert _key_order(ints) == [3, 1, 3, 6, 0, 2, 1, 5, 4]
        assert _exact_keys(ints) is ints
        assert lcm_calls == []
        assert _key_order(ints) == _key_order([Fraction(v) for v in ints])
        for odd in (True, np.int64(7)):
            mixed = ints + [odd]
            want = _key_order([Fraction(int(v)) for v in mixed])
            lcm_calls.clear()
            assert _key_order(mixed) == want
            assert lcm_calls, type(odd)

        # The keys are exact and order-isomorphic, before any ranking.
        keys = _exact_keys(values)
        assert all(type(key) is int for key in keys)
        for a, key_a in zip(values, keys):
            for b, key_b in zip(values, keys):
                assert (a <= b) == (key_a <= key_b)

    def test_interval_variants(self):
        rng = random.Random(45)
        repeats = 0
        for _ in range(400):
            n = rng.randint(0, 30)
            items = [Interval(*sorted((_tied_coord(rng), _tied_coord(rng)))) for _ in range(n)]
            k = rng.choice(self.KS)
            by_total = sorted(range(n), key=lambda i: (items[i].right, items[i].left))

            parent, trace = _naive_intervals(items, range(n), k)
            count, forest, got = greedy_partition_sequence(items, k)
            assert count == list(parent.values()).count(None)
            assert forest.parent == parent and _typed(got) == _typed(trace)

            if _repeats_a_point(items):
                # Two equal point intervals dominate each other; only the
                # sequence order, where the index breaks the tie, allows them.
                repeats += 1
                with pytest.raises(CycleError):
                    greedy_partition_set(items, k)
                with pytest.raises(CycleError):
                    greedy_max_heapable_subset(items, k)
                continue

            parent, trace = _naive_intervals(items, by_total, k)
            count, forest, got = greedy_partition_set(items, k)
            assert count == list(parent.values()).count(None)
            assert forest.parent == parent and _typed(got) == _typed(trace)

            parent, trace = _naive_intervals(items, by_total, k, single_chain=True)
            subset, forest, got = greedy_max_heapable_subset(items, k)
            assert subset == tuple(sorted(parent))
            assert forest.parent == parent and _typed(got) == _typed(trace)
        assert repeats == 9

    def test_trace_slots_keep_their_coordinates(self):
        items = [Interval(0, Fraction(1, 2)), Interval(0.5, 0.75), Interval(Fraction(3, 4), 2)]
        _, _, trace = greedy_partition_sequence(items, 1)
        slots = [step.slot for step in trace]
        assert slots == [None, Fraction(1, 2), 0.75]
        assert [type(slot) for slot in slots] == [type(None), Fraction, float]

    def test_permutation(self):
        rng = random.Random(46)
        for _ in range(300):
            perm = list(range(rng.randint(0, 40)))
            rng.shuffle(perm)
            k = rng.choice(self.KS)
            parent, trace = _naive_permutation(perm, k)
            count, forest = greedy_partition_permutation(perm, k)
            assert count == list(parent.values()).count(None)
            assert forest.parent == parent
            assert _typed(best_fit_trace(forest, perm, range(len(perm)))) == _typed(trace)

    def test_sweep(self):
        rng = random.Random(47)
        for _ in range(400):
            boxes = []
            for _ in range(rng.randint(0, 30)):
                x1, x2 = sorted((_tied_coord(rng), _tied_coord(rng)))
                y1, y2 = sorted((_tied_coord(rng), _tied_coord(rng)))
                boxes.append(Box((x1, y1), (x2, y2)))
            k = rng.choice(self.KS)
            parent = _naive_sweep(boxes, k)
            count, forest = sweep_partition(boxes, k)
            assert count == list(parent.values()).count(None)
            assert forest.parent == parent


def _huge_coord(rng, anchors):
    """An int at or next to one of ``anchors``, or a small int."""
    if rng.random() < 0.25:
        return rng.randint(0, 3)
    return rng.choice(anchors) + rng.randint(-1, 1)


def _fraction_coord(rng):
    """A Fraction over 3**41 or a small denominator: the keys' lcm passes 2**64."""
    return Fraction(rng.randint(0, 6), rng.choice([1, 2, 7, 3**41, 2 * 3**41]))


def _csv_text(rng, value):
    """One of the texts the CSV loaders read as ``value``: p/q (in lowest
    terms or not), and for a value with a short decimal expansion a plain
    decimal or, for an integer, an int or an exponent."""
    value = Fraction(value)
    p, q = value.numerator, value.denominator
    forms = [f"{p}/{q}", f" {2 * p}/{2 * q} "]
    if q == 1:
        forms += [str(p), f"{p}e0"]
    if 10**6 * p % q == 0:
        micro = abs(10**6 * p // q)
        forms.append(f"{'-' if p < 0 else ''}{micro // 10**6}.{micro % 10**6:06d}")
    return rng.choice(forms)


def _loaded(rng, path, rows, load):
    """Rows of exact coordinates written to a CSV file, each number in a
    random text form, then loaded back."""
    path.write_text("".join(",".join(_csv_text(rng, v) for v in row) + "\n" for row in rows))
    return load(path)


def _both_routes(solve, loaded, *args):
    """``solve`` on loaded items (their key columns) and on the same items
    built in memory (``_exact_keys``): equal answers, traces typed alike."""
    got, want = solve(loaded, *args), solve(list(loaded), *args)
    assert got == want
    if isinstance(got, tuple) and len(got) == 3:
        assert _typed(got[2]) == _typed(want[2])
    return got


class TestExactKeys:
    """Coordinates whose exact keys do not fit int64 (or, as a numpy array
    guessed by ``np.asarray``, would round to float64): the pool must rank
    them exactly.  Each variant matches the naive list scan on the original
    coordinates, and its forest matches the one on ``_exact_keys`` keys.
    The same items written to a CSV file and loaded give the same answers
    from the file's key columns as from the items they build."""

    ANCHORS = (-(2**63) - 1, 2**63, 2**63 + 1, 2**70)

    def _draws(self, rng):
        """Per round: one coordinate maker, so each instance is a tied grid."""
        kind = rng.randrange(3)
        if kind == 0:  # only 2**63 and 2**63 + 1 near: asarray guesses float64
            return lambda: _huge_coord(rng, self.ANCHORS[1:3])
        if kind == 1:
            return lambda: _huge_coord(rng, self.ANCHORS)
        return lambda: _fraction_coord(rng)

    def test_interval_variants(self, tmp_path):
        rng = random.Random(61)
        for _ in range(300):
            draw = self._draws(rng)
            n, k = rng.randint(0, 20), rng.choice((1, 2, 3))
            items = [Interval(*sorted((draw(), draw()))) for _ in range(n)]
            keys = _exact_keys([item.left for item in items] + [item.right for item in items])
            ranked = [Interval(keys[i], keys[n + i]) for i in range(n)]
            by_total = sorted(range(n), key=lambda i: (items[i].right, items[i].left))
            rows = [(item.left, item.right) for item in items]
            loaded = _loaded(rng, tmp_path / "iv.csv", rows, formats.load_intervals_csv)
            assert loaded == items

            parent, trace = _naive_intervals(items, range(n), k)
            count, forest, got = greedy_partition_sequence(items, k)
            assert count == list(parent.values()).count(None)
            assert forest.parent == parent and _typed(got) == _typed(trace)
            assert greedy_partition_sequence(ranked, k)[1].parent == parent
            assert _both_routes(greedy_partition_sequence, loaded, k)[1].parent == parent
            _both_routes(poset_from_interval_sequence, loaded)
            if _repeats_a_point(items):
                for route in (loaded, list(loaded)):
                    for solve in (greedy_partition_set, greedy_max_heapable_subset):
                        with pytest.raises(CycleError):
                            solve(route, k)
                    with pytest.raises(CycleError):
                        poset_from_interval_set(route)
                continue
            _both_routes(poset_from_interval_set, loaded)

            parent, trace = _naive_intervals(items, by_total, k)
            count, forest, got = greedy_partition_set(items, k)
            assert count == list(parent.values()).count(None)
            assert forest.parent == parent and _typed(got) == _typed(trace)
            assert greedy_partition_set(ranked, k)[1].parent == parent
            assert _both_routes(greedy_partition_set, loaded, k)[1].parent == parent

            parent, trace = _naive_intervals(items, by_total, k, single_chain=True)
            subset, forest, got = greedy_max_heapable_subset(items, k)
            assert subset == tuple(sorted(parent))
            assert forest.parent == parent and _typed(got) == _typed(trace)
            assert greedy_max_heapable_subset(ranked, k)[1].parent == parent
            assert _both_routes(greedy_max_heapable_subset, loaded, k)[1].parent == parent

    def test_sweep(self, tmp_path):
        rng = random.Random(62)
        for _ in range(300):
            draw = self._draws(rng)
            n, k = rng.randint(0, 20), rng.choice((1, 2, 3))
            boxes = []
            for _ in range(n):
                x1, x2 = sorted((draw(), draw()))
                y1, y2 = sorted((draw(), draw()))
                boxes.append(Box((x1, y1), (x2, y2)))
            rows = [(*box.lower, *box.upper) for box in boxes]
            loaded = _loaded(rng, tmp_path / "bx.csv", rows, formats.load_boxes_csv)
            assert loaded == boxes
            points = [box.lower for box in boxes if box.lower == box.upper]
            if len(set(points)) < len(points):
                for route in (loaded, list(loaded)):  # a repeated point raises CycleError
                    with pytest.raises(CycleError):
                        sweep_partition(route, k)
                    with pytest.raises(CycleError):
                        poset_from_box_set(route)
                continue
            xs = _exact_keys([b.lower[0] for b in boxes] + [b.upper[0] for b in boxes])
            ys = _exact_keys([b.lower[1] for b in boxes] + [b.upper[1] for b in boxes])
            ranked = [Box((xs[i], ys[i]), (xs[n + i], ys[n + i])) for i in range(n)]
            parent = _naive_sweep(boxes, k)
            count, forest = sweep_partition(boxes, k)
            assert count == list(parent.values()).count(None)
            assert forest.parent == parent
            assert sweep_partition(ranked, k)[1].parent == parent
            assert _both_routes(sweep_partition, loaded, k)[1].parent == parent
            _both_routes(poset_from_box_set, loaded)


class TestLazyTrace:
    """``best_fit_trace`` is a read-only sequence that builds steps on read
    and behaves as the tuple of its steps."""

    def test_behaves_as_the_tuple_of_its_steps(self, s1_items):
        _, _, trace = greedy_partition_sequence(s1_items, 2)
        steps = tuple(trace)
        assert isinstance(trace, collections.abc.Sequence) and not isinstance(trace, tuple)
        assert trace == steps and steps == trace and trace != steps[:-1]
        assert trace != list(steps)
        assert hash(trace) == hash(steps)
        assert len(trace) == len(steps) == len(s1_items)
        assert [trace[i] for i in range(-len(steps), len(steps))] == list(steps + steps)
        for part in (slice(2, 5), slice(None, None, -1), slice(1, -1, 3), slice(7, 2)):
            assert type(trace[part]) is type(trace)
            assert trace[part] == steps[part] and hash(trace[part]) == hash(steps[part])
        assert list(reversed(trace)) == list(reversed(steps))
        assert trace.index(steps[3]) == 3 and steps[3] in trace
        with pytest.raises(IndexError):
            trace[len(steps)]
        with pytest.raises(TypeError):
            trace[0] = steps[1]

    def test_empty(self):
        for trace in (greedy_partition_set([], 1)[2], best_fit_trace(HeapForest(1, {}), [], [])):
            assert () == trace and trace == () and len(trace) == 0
            assert hash(trace) == hash(()) and list(reversed(trace)) == []

    def test_snapshot_of_forest_and_order(self):
        items = [Interval(0, 1), Interval(1, 2), Interval(0, 5), Interval(2, 3)]
        _, forest, trace = greedy_max_heapable_subset(items, 1)
        steps = tuple(trace)
        assert REJECTED in {step.kind for step in steps}
        forest.parent.clear()
        assert tuple(trace) == steps
        order, slots = [3, 1, 0], [10, 11, 12, 13]
        forest = HeapForest(1, {0: None, 1: 0, 3: 1})
        trace = best_fit_trace(forest, order, slots)
        steps = tuple(trace)
        forest.parent[1] = None
        del forest.parent[3]
        order.reverse()
        assert trace == steps == (
            TraceStep(3, ATTACHED, parent=1, slot=11),
            TraceStep(1, ATTACHED, parent=0, slot=10),
            TraceStep(0, NEW_CHAIN),
        )
        # Order may be any iterable; it is read once.
        assert best_fit_trace(forest, iter([2, 1]), slots) == (
            TraceStep(2, REJECTED),
            TraceStep(1, NEW_CHAIN),
        )

    def test_repr_shows_the_steps(self):
        _, _, trace = greedy_partition_set([Interval(0, 1), Interval(1, 2)], 1)
        assert repr(trace) == (
            "_Trace((TraceStep(item=0, kind='new_chain', parent=None, slot=None), "
            "TraceStep(item=1, kind='attached', parent=0, slot=1)))")
        assert repr(trace[1:]) == f"_Trace(({trace[1]!r},))"


class TestLoadedItems:
    """The CSV loaders return a read-only sequence of key columns that builds
    each Interval or Box when it is read, and that the solvers never read."""

    def test_behaves_as_the_list_of_its_items(self, tmp_path):
        path = tmp_path / "iv.csv"
        path.write_text("0.5,1\n-2,7/3\n1_000,1e4\n0.25,0.250\n")
        loaded = formats.load_intervals_csv(path)
        items = [Interval(Fraction(1, 2), 1), Interval(-2, Fraction(7, 3)),
                 Interval(1000, 10000), Interval(Fraction(1, 4), Fraction(1, 4))]
        assert isinstance(loaded, collections.abc.Sequence) and not isinstance(loaded, list)
        assert loaded == items and items == loaded and loaded != items[:-1]
        assert loaded != tuple(items)
        assert [type(v) for v in (loaded[0].left, loaded[0].right, loaded[2].right)] == [
            Fraction, int, int]
        assert len(loaded) == len(items)
        assert [loaded[i] for i in range(-len(items), len(items))] == items + items
        for part in (slice(1, 3), slice(None, None, -1), slice(0, -1, 2), slice(3, 1)):
            assert type(loaded[part]) is type(loaded) and loaded[part] == items[part]
        assert list(reversed(loaded)) == items[::-1]
        assert loaded.index(items[2]) == 2 and items[3] in loaded
        with pytest.raises(IndexError):
            loaded[len(items)]
        with pytest.raises(TypeError):
            loaded[0] = items[1]
        with pytest.raises(TypeError):
            hash(loaded)
        assert repr(loaded[1:3]) == (
            "_KeyedItems([Interval(left=-2, right=Fraction(7, 3)), "
            "Interval(left=1000, right=10000)])")
        empty = tmp_path / "empty.csv"
        empty.write_text("\n")
        assert formats.load_intervals_csv(empty) == [] and formats.load_boxes_csv(empty) == []

    def test_solving_a_loaded_file_builds_no_items(self, tmp_path, monkeypatch):
        iv_path, bx_path = tmp_path / "iv.csv", tmp_path / "bx.csv"
        iv_path.write_text("".join(f"{a},{b}\n" for a, b in [
            ("0.1", "0.5"), ("0.5", "7/3"), ("1/3", "3"), ("2.75", "4"), ("-1", "0.1")]))
        bx_path.write_text("0,0,1,1\n1.5,1,2,2\n0,2,1/2,3\n")
        built = []
        for kind in (Interval, Box):
            check = kind.__post_init__
            monkeypatch.setattr(kind, "__post_init__",
                                lambda self, check=check: built.append(self) or check(self))

        intervals = formats.load_intervals_csv(iv_path)
        boxes = formats.load_boxes_csv(bx_path)
        traces = [solve(intervals, 1)[2] for solve in (
            greedy_partition_sequence, greedy_partition_set, greedy_max_heapable_subset)]
        poset_from_interval_sequence(intervals)
        poset_from_interval_set(intervals)
        sweep_partition(boxes, 1)
        poset_from_box_set(boxes)
        assert len(intervals) == 5 and len(boxes) == 3
        assert built == []

        # Reading every step reads each slot from the right-key column.
        steps = [_typed(trace) for trace in traces]
        assert built == [] and any(step.kind == ATTACHED for trace in traces for step in trace)
        assert steps == [_typed(solve(list(intervals), 1)[2]) for solve in (
            greedy_partition_sequence, greedy_partition_set, greedy_max_heapable_subset)]


def _open(pool, owner, lives):
    """Give owner ``lives`` slots: one open-only step."""
    assert pool.run((~owner,), lives) == (0, [-1] * len(pool._bounds))


def _take(pool, item):
    """Spend a life of item's best slot: one take-only step.  The owner, or None."""
    n = len(pool._bounds)
    count, parent = pool.run((n + item,), 1)
    assert count == (parent[item] is None)
    return parent[item]


class TestPoolCallers:
    """The two callers that do more than take-and-open every item, on small
    tied int grids: max-heapable drops the items that never took (-1), and
    the sweep turns its phased events into take, open and take-and-open steps."""

    def test_tied_grids_match_naive(self):
        rng = random.Random(54)
        rejected = flat = 0
        for _ in range(300):
            n = rng.randint(0, 25)
            k = rng.randint(1, 3)
            items = [Interval(*sorted((rng.randint(0, 6), rng.randint(0, 6)))) for _ in range(n)]
            if not _repeats_a_point(items):
                by_total = sorted(range(n), key=lambda i: (items[i].right, items[i].left))
                parent, _ = _naive_intervals(items, by_total, k, single_chain=True)
                subset, forest, _ = greedy_max_heapable_subset(items, k)
                assert forest.parent == parent and subset == tuple(sorted(parent))
                rejected += n - len(parent)
            boxes = []
            for _ in range(n):
                x1, x2 = sorted((rng.randint(0, 4), rng.randint(0, 4)))
                y1, y2 = sorted((rng.randint(0, 4), rng.randint(0, 4)))
                boxes.append(Box((x1, y1), (x2, y2)))
            if len({box for box in boxes if box.lower == box.upper}) < sum(
                box.lower == box.upper for box in boxes
            ):
                continue  # a repeated point raises CycleError
            count, forest = sweep_partition(boxes, k)
            parent = _naive_sweep(boxes, k)
            assert forest.parent == parent and count == list(parent.values()).count(None)
            flat += sum(box.lower[0] == box.upper[0] for box in boxes)
        assert rejected > 500 and flat > 500


class TestSetOrder:
    """The interval-set order has two writers: ``_set_order``, which the
    particle process takes its draws in, and the sweep's zero-width tie keys."""

    def test_sweep_takes_in_set_order_on_tied_floats(self):
        rng = random.Random(58)
        tied = 0
        for _ in range(300):
            n, k = rng.randint(0, 40), rng.randint(1, 3)
            pairs = [sorted((rng.randint(0, 6) / 3, rng.randint(0, 6) / 3)) for _ in range(n)]
            lefts = np.array([left for left, _ in pairs], dtype=float)
            rights = np.array([right for _, right in pairs], dtype=float)
            order = _set_order(lefts, rights).tolist()
            count, forest, taken = _sweep(rights, lefts, rights, rights, k)
            assert taken == order
            assert (count, [forest.parent[i] for i in range(n)]) == _SlotPool(
                lefts, rights).run(order, k)
            tied += len(set(map(tuple, pairs))) < n
        assert tied > 250


def _pairings(points):
    """Every way to pair up the given points, each pair as (smaller, larger)."""
    if not points:
        yield []
        return
    first, rest = points[0], points[1:]
    for j, other in enumerate(rest):
        for more in _pairings(rest[:j] + rest[j + 1:]):
            yield [(first, other), *more]


class TestSetChainCount:
    """``_set_chain_count``, the matching bound over nested neighbourhoods,
    against best fit and flow."""

    def test_every_endpoint_pairing_up_to_five(self):
        # 2n distinct endpoint ranks, so no point interval repeats.
        seen = Counter()
        for n in range(6):
            for pairs in _pairings(list(range(2 * n))):
                items = [Interval(a, b) for a, b in pairs]
                lefts, rights = [a for a, _ in pairs], [b for _, b in pairs]
                poset = poset_from_interval_set(items)
                for k in (1, 2, 3):
                    count = _set_chain_count(lefts, rights, k)
                    assert count == greedy_partition_set(items, k)[0] == k_width(poset, k)[0]
                seen[n] += 1
        assert [seen[n] for n in range(6)] == [1, 1, 3, 15, 105, 945]

    def test_equals_the_pool_in_set_order_on_tied_grids(self):
        rng = random.Random(61)
        repeated = 0
        for _ in range(20_000):
            n, grid, k = rng.randint(0, 12), rng.randint(0, 8), rng.randint(1, 3)
            pairs = [sorted((rng.randint(0, grid), rng.randint(0, grid))) for _ in range(n)]
            lefts = np.array([a for a, _ in pairs], dtype=np.int64)
            rights = np.array([b for _, b in pairs], dtype=np.int64)
            order = _set_order(lefts, rights)
            want = _SlotPool(lefts[order], rights[order]).run(range(n), k)[0]
            assert _set_chain_count(lefts, rights, k) == want, (pairs, k)
            points = [a for a, b in pairs if a == b]
            repeated += len(set(points)) < len(points)
        assert repeated > 5_000


class TestSlotPool:
    """The bitset pool against _naive_take: one owner per rank, the highest
    live rank <= bound wins, one life spent per take.  Distinct slot values
    0..n-1 make each value its own rank, and bound b is item b + 1 of
    ``range(-1, n)``."""

    def test_block_boundary_ranks(self):
        ranks = (0, 63, 64, 127, 128, 191, 192, 255)
        owners = list(range(256))[::-1]
        pool, slots = _SlotPool(range(-1, 256), [255 - owner for owner in range(256)]), []
        for rank, lives in zip(ranks, (1, 2, 3, 1, 2, 3, 1, 2)):
            _open(pool, owners[rank], lives)
            slots.append([rank, owners[rank], lives])
        assert _take(pool, 0) is None
        assert _take(pool, 256) == owners[255] == _naive_take(slots, 255)[1]
        for bound in (-1, 0, 1, 62, 63, 64, 65, 126, 127, 128, 190, 191, 192, 254, 255):
            while True:
                best = _naive_take(slots, bound)
                assert _take(pool, bound + 1) == (None if best is None else best[1])
                if best is None:
                    break
        assert slots == [] and pool.owners_left() == []

    def test_random_operations(self):
        rng = random.Random(49)
        for _ in range(300):
            n = rng.choice([1, 2, 63, 64, 65, 100, 128, 300])
            owners = list(range(n))
            rng.shuffle(owners)
            values = [0] * n
            for rank, owner in enumerate(owners):
                values[owner] = rank
            pool, slots = _SlotPool(range(-1, n), values), []
            unopened = list(range(n))
            rng.shuffle(unopened)
            # Boundary ranks, moved to the end, often open first: block edges.
            for rank in (0, 63, 64, 127, 128, 255, n - 1):
                if rank < n and rng.random() < 0.5:
                    unopened.remove(rank)
                    unopened.append(rank)
            for _ in range(rng.randint(0, 150)):
                if unopened and rng.random() < 0.5:
                    rank, lives = unopened.pop(), rng.randint(1, 3)
                    _open(pool, owners[rank], lives)
                    slots.append([rank, owners[rank], lives])
                else:
                    bound = rng.randint(-1, n - 1)
                    best = _naive_take(slots, bound)
                    assert _take(pool, bound + 1) == (None if best is None else best[1])
            left = [owner for _, owner, lives in sorted(slots) for _ in range(lives)]
            assert pool.owners_left() == left

    def test_mixed_steps_match_naive(self):
        """Runs of all three step codes, with and without ``reject``, against
        a list of [value, owner, lives] slots.  A pool may have more bounds
        than slots: only items below len(values) open.  The state carries
        over between runs; each run counts its own chain starts, and with
        ``reject`` skips a failed take once it has started one."""
        rng = random.Random(53)
        edges = (62, 63, 64, 65, 126, 127, 128, 129)
        for case in range(400):
            m = rng.choice([0, 1, 5, 63, 64, 65, 127, 128, 129, 200])
            n = m + rng.choice([0, 0, 1, 7])
            # Odd cases: distinct values, each its own rank.  Even: a coarse tied grid.
            distinct = case % 2
            top = m if distinct else max(1, m // 8)
            values = rng.sample(range(m), m) if distinct else [rng.randint(0, top) for _ in range(m)]
            bounds = [
                rng.choice(edges) if distinct and rng.random() < 0.5 else rng.randint(-1, top)
                for _ in range(n)
            ]
            pool, slots = _SlotPool(bounds, values), []
            steps = []
            for i in range(n):
                kind = rng.randrange(5) if i < m else rng.choice([1, 4])
                if kind == 0:
                    steps.append(i)
                elif kind == 1:
                    steps.append(n + i)
                elif kind == 2:
                    steps.append(~i)
                elif kind == 3:
                    steps += [n + i, ~i]
            rng.shuffle(steps)
            cuts = sorted(rng.sample(range(len(steps) + 1), min(2, len(steps) + 1)))
            for run_steps in (steps[: cuts[0]], steps[cuts[0] : cuts[-1]], steps[cuts[-1] :]):
                k, reject = rng.randint(1, 3), rng.random() < 0.5
                parent, count = [-1] * n, 0
                for step in run_steps:
                    i = ~step if step < 0 else step % n
                    if step >= 0:
                        best = _naive_take(slots, bounds[i])
                        if best is None and reject and count:
                            continue
                        count += best is None
                        parent[i] = None if best is None else best[1]
                        if step >= n:
                            continue
                    slots.append([values[i], i, k])
                assert pool.run(run_steps, k, reject) == (count, parent)
            left = sorted(slots, key=lambda slot: (slot[0], -slot[1]))
            assert pool.owners_left() == [owner for _, owner, lives in left for _ in range(lives)]


class TestSlotRanks:
    """The pool's ranking puts _naive_take's rule (highest value <= bound,
    then the lowest owner) into the ranks, so the highest live rank <= bound
    picks the same owner on tied values."""

    def test_ties_rank_by_descending_owner(self):
        pool = _SlotPool([2, 1, 0, 5], [1, 2, 1, 2])
        for owner in range(4):
            _open(pool, owner, 1)
        # Ranks ascend by value, equal values by descending owner.
        assert pool.owners_left() == [2, 0, 3, 1]
        # Items 0 and 3 take below 2 and 5, item 1 below 1, item 2 below 0.
        assert [_take(pool, 3), _take(pool, 0), _take(pool, 2)] == [1, 3, None]
        assert [_take(pool, 1), _take(pool, 3), _take(pool, 0)] == [0, 2, None]
        assert pool.owners_left() == []

    def test_no_slots(self):
        assert _SlotPool([], []).owners_left() == []
        pool = _SlotPool([-1.5, 0, 7], [])
        assert pool._bounds == [-1, -1, -1]
        assert [_take(pool, i) for i in range(3)] == [None, None, None]
        assert pool.run(range(3, 6), 2) == (3, [None, None, None])
        assert pool.run(range(3, 6), 2, reject=True) == (1, [None, -1, -1])
        assert pool.owners_left() == []

    @pytest.mark.parametrize("kind", ["int", "float"])
    def test_pool_on_ranks_matches_naive(self, kind):
        rng = random.Random(51 if kind == "int" else 52)

        def value():
            v = rng.randint(-2, 10)
            return v if kind == "int" else v / 3

        for _ in range(300):
            n = rng.randint(0, 40)
            values = [value() for _ in range(n)]
            # Bounds on the same grid tie with slots; the extremes lie below
            # and above every slot.
            bound_values = [value() for _ in range(60)] + [-10**6, 10**6]
            rng.shuffle(bound_values)
            pool, slots = _SlotPool(bound_values, values), []
            # The ranks: a permutation, inverse to the owners, and each bound
            # the number of slots at or below it, minus one.
            assert sorted(pool._ranks) == list(range(n))
            assert [pool._ranks[owner] for owner in pool._owners] == list(range(n))
            for b, v in zip(pool._bounds, bound_values):
                assert b == sum(slot <= v for slot in values) - 1
            unopened = list(range(n))
            rng.shuffle(unopened)
            for j, bound_value in enumerate(bound_values):
                while unopened and rng.random() < 0.6:
                    owner, lives = unopened.pop(), rng.randint(1, 3)
                    _open(pool, owner, lives)
                    slots.append([values[owner], owner, lives])
                best = _naive_take(slots, bound_value)
                assert _take(pool, j) == (None if best is None else best[1])


def _order_keys(rng, dtype, n, tied):
    """n keys of one dtype: tied keys repeat on a coarse grid, distinct keys
    never repeat.  Object keys lie past +-2**63."""
    top = max(1, n // 4) if tied else 4 * n + 8
    values = [rng.randrange(top) for _ in range(n)] if tied else rng.sample(range(top), n)
    if dtype == "float":
        return np.array(values, dtype=float) / 3
    if dtype == "object":
        return np.array([v * 2**60 - 2**64 for v in values], dtype=object)
    return np.array(values, dtype=np.int64) - 2**40


class TestOrder:
    """``_order(keys, *ties)`` is ``np.lexsort((*ties, keys))``: one argsort
    when the sorted keys strictly increase, the lexsort when they do not."""

    @pytest.mark.parametrize("dtype", ["int64", "float", "object"])
    def test_matches_lexsort(self, dtype):
        rng = random.Random({"int64": 71, "float": 72, "object": 73}[dtype])
        tied = 0
        for case in range(300):
            n = rng.choice([0, 1, 2, 3, 17, 40, 200])
            keys = _order_keys(rng, dtype, n, tied=case % 2 == 1)
            ties = [np.array([rng.randrange(3) for _ in range(n)]) for _ in range(case % 3)]
            assert _order(keys, *ties).tolist() == np.lexsort((*ties, keys)).tolist()
            tied += len(set(keys.tolist())) < n
        assert tied > 100

    def test_nan_and_signed_zero_take_the_lexsort(self):
        for keys in ([0.5, np.nan, 0.25, np.nan], [0.0, -0.0, 1.0], [np.nan], [np.nan, 1.0]):
            keys = np.array(keys)
            tie = np.arange(len(keys))[::-1].copy()
            assert _order(keys, tie).tolist() == np.lexsort((tie, keys)).tolist()

    def test_distinct_keys_never_lexsort(self, monkeypatch):
        rng = random.Random(74)
        monkeypatch.setattr(np, "lexsort", None)
        for dtype in ("int64", "float", "object"):
            for n in (0, 1, 2, 300):
                keys = _order_keys(rng, dtype, n, tied=False)
                assert _order(keys, np.zeros(n)).tolist() == np.argsort(keys, kind="stable").tolist()


def _lexsort_ranking(bounds, slots):
    """The pool's ranking before ``_order``: owners by one lexsort (value,
    then descending id), each bound searched in its given order."""
    slots = np.asarray(slots)
    owners = np.lexsort((-np.arange(len(slots)), slots))
    ranks = np.empty_like(owners)
    ranks[owners] = np.arange(len(owners))
    found = np.searchsorted(slots[owners], bounds, side="right") - 1
    return found.tolist(), ranks.tolist(), owners.tolist()


class TestPoolRanking:
    """``_SlotPool`` ranks owners through ``_order`` and searches its bounds in
    sorted order; its ranks and bounds equal the lexsort ranking's."""

    @staticmethod
    def _check(bounds, slots):
        pool = _SlotPool(bounds, slots)
        assert (pool._bounds, pool._ranks, pool._owners) == _lexsort_ranking(bounds, slots)

    def test_fixed_cases(self):
        self._check([], [])
        self._check([-1.5, 0, 7], [])
        self._check(range(-1, 6), [3, 1, 4, 1, 5])
        self._check(range(8), [0.5, 1, 1, 2.5, 7.0])
        self._check([-10, -20, -30], [0, 1, 2])  # every bound below every slot
        self._check([2, 0.5, 1, 3.5], [1, 0.5, 1, 2])  # mixed int and float
        huge = [2**64, -(2**63) - 1, 2**63, 3]
        self._check(np.array(huge[::-1], dtype=object), np.array(huge, dtype=object))

    def test_seeded_draws(self):
        for trial in range(40):
            lefts, rights = _draws(trial_rng(9, trial), trial * 25)
            self._check(lefts, rights)
            # Rounded draws tie among themselves and with the bounds.
            self._check(np.round(lefts, 1), np.round(rights, 1))
            order = _set_order(lefts, rights)
            self._check(lefts[order], rights[order])

    @pytest.mark.parametrize("dtype", ["int64", "float", "object"])
    def test_random_grids(self, dtype):
        rng = random.Random({"int64": 75, "float": 76, "object": 77}[dtype])
        for case in range(300):
            n = rng.choice([0, 1, 2, 17, 64, 65, 300])
            slots = _order_keys(rng, dtype, n, tied=case % 2 == 1)
            m = rng.choice([0, 1, n, n + 7])
            pool_keys = _order_keys(rng, dtype, m + n, tied=True)
            # Bounds on the slots' grid, plus bounds below and above every slot.
            bounds = np.concatenate((slots, pool_keys[:m]))[rng.sample(range(m + n), m)]
            if m and n:
                bounds[0], bounds[-1] = slots.min() - 1, slots.max() + 1
            self._check(bounds, slots)
