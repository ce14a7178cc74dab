import bisect
import copy
import math
import pickle
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heapchains import (
    MODE_SEQUENCE,
    Box,
    CycleError,
    ElementMismatch,
    FrozenRecordError,
    HeapForest,
    IdOutOfRange,
    Interval,
    LeftKMatching,
    NotAPermutation,
    SimConfig,
    SimStats,
    SplitGraph,
    TraceStep,
    greedy_max_heapable_subset,
    greedy_partition_permutation,
    greedy_partition_set,
    k_width,
    poset_from_box_set,
    poset_from_interval_sequence,
    poset_from_interval_set,
    poset_from_permutation,
    poset_from_relations,
    sweep_partition,
    verify_forest,
)
from heapchains.poset import (
    Coord,
    _box_arrays,
    _box_poset,
    _check_arity,
    _check_finite,
    _element_id,
    _exact_keys,
    _interval_boxes,
    _key_columns,
)
from heapchains.simulate import _MODES

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


def _kahn_closure(n, pairs):
    """Reference closure: Kahn's topological order over the direct edges, then
    one OR pass in reverse order.  Returns the closed successor masks, or the
    type of the exception ``poset_from_relations`` must raise."""
    direct = [0] * n
    for x, y in pairs:
        if not (0 <= x < n and 0 <= y < n):
            return IdOutOfRange
        if x == y:
            return CycleError
        direct[x] |= 1 << y
    indegree = [0] * n
    for x in range(n):
        for y in range(n):
            if (direct[x] >> y) & 1:
                indegree[y] += 1
    queue = [x for x in range(n) if indegree[x] == 0]
    order = []
    while queue:
        x = queue.pop()
        order.append(x)
        for y in range(n):
            if (direct[x] >> y) & 1:
                indegree[y] -= 1
                if indegree[y] == 0:
                    queue.append(y)
    if len(order) != n:
        return CycleError
    closed = [0] * n
    for x in reversed(order):
        acc = direct[x]
        for y in range(n):
            if (direct[x] >> y) & 1:
                acc |= closed[y]
        closed[x] = acc
    return tuple(closed)


def _closure_outcome(n, pairs):
    try:
        return poset_from_relations(n, pairs).successor_masks
    except (CycleError, IdOutOfRange) as exc:
        return type(exc)


def _random_relation_list(rng):
    """Pairs of a random DAG on shuffled ids: unclosed or closed, sometimes
    with a back edge (cycle), a self-pair or an out-of-range id."""
    n = rng.randint(0, 40)
    density = rng.choice([0.05, 0.15, 0.4, 0.8])
    label = list(range(n))
    rng.shuffle(label)
    pairs = [
        (label[i], label[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < density
    ]
    if pairs and rng.random() < 0.4:
        pairs = list(poset_from_relations(n, pairs).pairs())
    rng.shuffle(pairs)
    fault = rng.random()
    if n and fault < 0.15 and pairs:
        x, y = rng.choice(pairs)
        pairs.append((y, x))
    elif n >= 3 and fault < 0.25:
        a, b, c = rng.sample(range(n), 3)
        pairs += [(a, b), (b, c), (c, a)]
    elif n and fault < 0.3:
        x = rng.randrange(n)
        pairs.insert(rng.randint(0, len(pairs)), (x, x))
    elif n and fault < 0.35:
        bad = (rng.randrange(n), n + rng.randrange(3))
        pairs.insert(rng.randint(0, len(pairs)), bad if rng.random() < 0.5 else bad[::-1])
    elif fault < 0.4:
        pairs.insert(rng.randint(0, len(pairs)), (-1, rng.randrange(max(n, 1))))
    return n, pairs


class TestClosureAgainstReference:
    def test_random_relation_lists(self):
        rng = random.Random(31)
        raised = 0
        for _ in range(1500):
            n, pairs = _random_relation_list(rng)
            want = _kahn_closure(n, pairs)
            assert _closure_outcome(n, pairs) == want, (n, pairs)
            raised += isinstance(want, type)
        assert 200 < raised < 1000  # both outcomes well represented

    def test_long_chain_does_not_recurse(self):
        n = 5000
        pairs = [(i, i + 1) for i in range(n - 1)]
        random.Random(32).shuffle(pairs)
        p = poset_from_relations(n, pairs)
        assert p.relation_count() == n * (n - 1) // 2
        assert p.successor_masks[0] == (1 << n) - 2
        with pytest.raises(CycleError):
            poset_from_relations(n, pairs + [(n - 1, 0)])

    def test_closed_interval_order(self):
        # An interval order is transitive, so its relation list is already
        # closed and the closure must return exactly the direct masks.
        rng = random.Random(33)
        n = 2000
        ends = [sorted((rng.randint(0, 3 * n), rng.randint(0, 3 * n))) for _ in range(n)]
        by_left = sorted(range(n), key=lambda j: ends[j][0])
        lefts = [ends[j][0] for j in by_left]
        masks, pairs = [], []
        for i in range(n):
            above = by_left[bisect.bisect_right(lefts, ends[i][1]):]
            masks.append(sum(1 << j for j in above))
            pairs += [(i, j) for j in above]
        rng.shuffle(pairs)
        assert poset_from_relations(n, pairs).successor_masks == tuple(masks)


# The pairwise builders the dominance kernel replaced, kept as its
# reference.  Each returns the successor masks, or the type of the
# exception the real builder must raise.
def _pairwise_dominance(n, dominates):
    masks = [0] * n
    for i in range(n):
        for j in range(n):
            if i != j and dominates(i, j):
                masks[i] |= 1 << j
    for i in range(n):
        for j in range(i + 1, n):
            if (masks[i] >> j) & 1 and (masks[j] >> i) & 1:
                return CycleError
    return tuple(masks)


def _pairwise_interval_set(items):
    return _pairwise_dominance(len(items), lambda i, j: items[i].right <= items[j].left)


def _pairwise_interval_sequence(items):
    n = len(items)
    masks = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if items[i].right <= items[j].left:
                masks[i] |= 1 << j
    return tuple(masks)


def _pairwise_box_set(items):
    def dom(i, j):
        return (
            items[i].upper[0] <= items[j].lower[0]
            and items[i].upper[1] <= items[j].lower[1]
        )

    return _pairwise_dominance(len(items), dom)


def _pairwise_permutation(perm):
    seq = list(perm)
    n = len(seq)
    if sorted(seq) != list(range(n)):
        return NotAPermutation
    position = [0] * n
    for idx, value in enumerate(seq):
        position[value] = idx
    masks = [0] * n
    for a in range(n):
        for b in range(a + 1, n):
            if position[a] < position[b]:
                masks[a] |= 1 << b
    return tuple(masks)


def _builder_outcome(build, arg):
    try:
        return build(arg).successor_masks
    except (CycleError, NotAPermutation) as exc:
        return type(exc)


def _random_coord(rng, hi):
    """A value on a coarse grid, so ties are common, as an int, a Fraction or
    a float; the same value often comes in two types, and thirds make floats
    that are close to but not equal to Fractions."""
    halves = rng.randint(0, 2 * hi)
    kind = rng.random()
    if kind < 0.35:
        return halves // 2 if halves % 2 == 0 else Fraction(halves, 2)
    if kind < 0.6:
        return Fraction(halves, 2)
    if kind < 0.85:
        return halves / 2
    thirds = rng.randint(0, 3 * hi)
    return Fraction(thirds, 3) if rng.random() < 0.5 else thirds / 3


def _random_span(rng, hi, points, coord):
    """Ordered endpoints; sometimes a degenerate one, often repeated from
    ``points`` so that identical degenerate items occur."""
    if points and rng.random() < 0.2:
        p = rng.choice(points)
        return p, p
    a, b = sorted((coord(rng, hi), coord(rng, hi)))
    if rng.random() < 0.1:
        points.append(a)
        return a, a
    return a, b


def _random_builder_inputs(rng, n, coord=_random_coord):
    """(intervals, boxes, permutation) of n items each."""
    hi = rng.choice([2, 5, max(n, 1)])
    points, xs, ys = [], [], []
    intervals = [Interval(*_random_span(rng, hi, points, coord)) for _ in range(n)]
    boxes = []
    for _ in range(n):
        x1, x2 = _random_span(rng, hi, xs, coord)
        y1, y2 = _random_span(rng, hi, ys, coord)
        boxes.append(Box((x1, y1), (x2, y2)))
    perm = list(range(n))
    rng.shuffle(perm)
    fault = rng.random()
    if n and fault < 0.1:
        perm[rng.randrange(n)] = perm[rng.randrange(n)]
    elif n and fault < 0.15:
        perm[rng.randrange(n)] = n + rng.randrange(2)
    elif fault < 0.2:
        perm.append(-1)
    return intervals, boxes, perm


_BUILDERS = [
    (poset_from_interval_set, _pairwise_interval_set, 0),
    (poset_from_interval_sequence, _pairwise_interval_sequence, 0),
    (poset_from_box_set, _pairwise_box_set, 1),
    (poset_from_permutation, _pairwise_permutation, 2),
]


class TestBuildersAgainstPairwiseReference:
    def test_random_small_inputs(self):
        rng = random.Random(41)
        raised = {CycleError: 0, NotAPermutation: 0}
        for _ in range(600):
            inputs = _random_builder_inputs(rng, rng.randint(0, 30))
            for build, reference, slot in _BUILDERS:
                want = reference(inputs[slot])
                assert _builder_outcome(build, inputs[slot]) == want, (build, inputs[slot])
                if isinstance(want, type):
                    raised[want] += 1
        assert all(count > 50 for count in raised.values()), raised

    def test_rows_across_the_block_boundary(self):
        rng = random.Random(42)
        for n in (1030, 1100):
            # Int coordinates keep the pairwise reference fast at this size.
            intervals, boxes, _ = _random_builder_inputs(rng, n, lambda r, hi: r.randint(0, hi))
            # Only distinct degenerate items, so the masks are compared
            # rather than a CycleError: widen the drawn ones, then put
            # three distinct points on both sides of row 1,024.
            intervals = [
                Interval(iv.left, iv.left + 1) if iv.left == iv.right else iv for iv in intervals
            ]
            boxes = [
                Box(b.lower, (b.upper[0] + 1, b.upper[1])) if b.lower == b.upper else b
                for b in boxes
            ]
            for i, at in enumerate((5, 1026, n)):
                intervals.insert(at, Interval(Fraction(2 * i + 1, 7), Fraction(2 * i + 1, 7)))
                boxes.insert(at, Box((i, 2 - i), (i, 2 - i)))
            inputs = (intervals, boxes, rng.sample(range(n), n))
            for build, reference, slot in _BUILDERS:
                want = reference(inputs[slot])
                assert not isinstance(want, type)
                assert _builder_outcome(build, inputs[slot]) == want, build


class TestRelationIds:
    def test_numpy_ints_accepted(self):
        np = pytest.importorskip("numpy")
        p = poset_from_relations(np.int64(100), [(0, np.int64(70)), (np.int32(70), 99)])
        assert p.n == 100 and p.less(0, 70) and p.less(0, 99)
        assert p.relation_count() == 3
        assert all(mask.__class__ is int for mask in p.successor_masks)

    @pytest.mark.parametrize("bad", [1.5, 1.0, "1", True, None])
    def test_non_integer_ids_rejected(self, bad):
        with pytest.raises(TypeError):
            poset_from_relations(3, [(0, bad)])
        with pytest.raises(TypeError):
            poset_from_relations(3, [(bad, 2)])

    @pytest.mark.parametrize("bad", [3.7, 3.0, "3", True])
    def test_non_integer_size_rejected(self, bad):
        with pytest.raises(TypeError):
            poset_from_relations(bad, [])

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            poset_from_relations(-1, [])

    def test_size_beyond_list_index_rejected(self):
        with pytest.raises(ValueError, match="too large"):
            poset_from_relations(10**20, [])


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

    @pytest.mark.parametrize("bad", [[1.0, 0.0], [True, False], [0, 1.0, 2]])
    def test_rejects_non_integer_values(self, bad):
        with pytest.raises(TypeError):
            poset_from_permutation(bad)
        with pytest.raises(TypeError):
            greedy_partition_permutation(bad, 2)

    def test_numpy_ints_become_ints(self):
        np = pytest.importorskip("numpy")
        count, forest = greedy_partition_permutation(np.array([1, 0, 2]), 1)
        assert count == 2 and forest.parent == {1: None, 0: None, 2: 1}
        assert all(value.__class__ is int for value in forest.parent)


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

    def test_repr_and_hash(self):
        items = [Interval(0, 2), Interval(3, 5), Interval(1, 4)]
        p = poset_from_interval_set(items)
        assert repr(p) == "Poset(n=3, relations=[(0, 1)])"
        same = poset_from_relations(3, [(0, 1)])
        assert p == same and hash(p) == hash(same)
        assert len({p, same, poset_from_relations(3, [])}) == 2

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
        # The builders, the set greedies and the sweep share one check.
        items = [Interval(2, 2), Interval(1, 3), Interval(2, 2)]
        with pytest.raises(CycleError):
            poset_from_interval_set(items)
        with pytest.raises(CycleError):
            greedy_partition_set(items, 2)
        with pytest.raises(CycleError):
            greedy_max_heapable_subset(items, 2)
        with pytest.raises(CycleError):
            sweep_partition([Box((1, 2), (1, 2)), Box((0, 0), (3, 3)), Box((1, 2), (1, 2))], 2)

    def test_single_degenerate_interval_ok(self):
        p = poset_from_interval_set([Interval(2, 2), Interval(3, 4)])
        assert p.pairs() == [(0, 1)]

    def test_set_on_one_axis_matches_its_two_axis_boxes(self):
        # right_i <= left_j decides the set order; the zero-width boxes'
        # x test, right_i <= right_j, adds nothing.  Keys past int64 too.
        rng = random.Random(7)
        grid = [-(2**64), -1, 0, 1, 2, 2**63, 2**63 + 1, 2**80]
        for trial in range(300):
            values = grid if trial % 2 else range(-3, 25)
            items = [Interval(*sorted(rng.choices(values, k=2))) for _ in range(rng.randint(0, 40))]
            try:
                got = poset_from_interval_set(items)
            except CycleError:
                continue
            assert got == _box_poset(*_interval_boxes(items, as_set=True)), items


def _item_loop_repeat(low, high):
    """The repeated-point message of the item-by-item check: the first item
    by id whose point an earlier item already is, or None."""
    first = {}
    for i, (lo, hi) in enumerate(zip(zip(*low), zip(*high))):
        if lo == hi and first.setdefault(lo, i) != i:
            return f"items {first[lo]} and {i} are one point and dominate each other"
    return None


def _repeat_raised(embed, items):
    try:
        embed(items)
    except CycleError as exc:
        return str(exc)
    return None


class TestDistinctPoints:
    def test_messages_match_the_item_loop_on_tied_draws(self):
        # Every fourth draw puts its keys past int64 (object arrays).
        rng = random.Random(71)
        raised = huge = 0
        for draw in range(20_000):
            n, grid = rng.randint(0, 12), rng.randint(0, 4)
            base = 2**64 if draw % 4 == 0 else 0
            huge += bool(base and n)

            def span():
                a, b = sorted((rng.randint(0, grid), rng.randint(0, grid)))
                return (base + a, base + a) if rng.random() < 0.4 else (base + a, base + b)

            intervals = [Interval(*span()) for _ in range(n)]
            boxes = []
            for _ in range(n):
                (x1, x2), (y1, y2) = span(), span()
                boxes.append(Box((x1, y1), (x2, y2)))
            for items, kind, embed in (
                (intervals, Interval, lambda items: _interval_boxes(items, as_set=True)),
                (boxes, Box, lambda items: _box_arrays(*_key_columns(items, Box))),
            ):
                want = _item_loop_repeat(*_key_columns(items, kind))
                assert _repeat_raised(embed, items) == want, items
                raised += want is not None
        assert raised > 10_000 and huge > 4_000


_NON_FINITE = [math.nan, math.inf, -math.inf] + [
    pytest.param(t(v), id=f"{t.__name__}-{v}")
    for t in (np.float32, np.float16, np.longdouble)
    for v in ("nan", "inf", "-inf")
]


class TestNonFiniteCoordinates:
    @pytest.mark.parametrize("bad", _NON_FINITE)
    def test_interval_rejects(self, bad):
        for left, right in [(bad, bad), (bad, 1), (0, bad)]:
            with pytest.raises(ValueError, match="finite"):
                Interval(left, right)

    @pytest.mark.parametrize("bad", _NON_FINITE)
    def test_box_rejects(self, bad):
        for coords in [(bad, 0, 1, 1), (0, bad, 1, 1), (0, 0, bad, 1), (0, 0, 1, bad)]:
            with pytest.raises(ValueError, match="finite"):
                Box(coords[:2], coords[2:])

    @pytest.mark.parametrize(
        "left, right, text",
        [
            (Fraction(7, 2), Fraction(10, 3), "[7/2, 10/3]"),
            (Fraction(-1, 3), Fraction(-2, 3), "[-1/3, -2/3]"),
            (5, 2, "[5, 2]"),
            (Fraction(5, 2), 2, "[5/2, 2]"),
            (3, Fraction(5, 2), "[3, 5/2]"),
            (2.5, Fraction(1, 2), "[2.5, 1/2]"),
        ],
    )
    def test_out_of_order_message(self, left, right, text):
        # Two Fractions are ordered by cross-multiplying; every type gives one message.
        with pytest.raises(ValueError, match=re.escape(f"interval endpoints out of order: {text}")):
            Interval(left, right)
        assert Interval(right, left).right == left

    def test_fraction_order_and_nan(self):
        assert Interval(Fraction(1, 3), Fraction(1, 3)).left == Fraction(1, 3)
        assert Interval(Fraction(-1, 3), Fraction(1, 10**30)).right == Fraction(1, 10**30)
        for left, right in [(Fraction(1, 2), math.nan), (math.nan, Fraction(1, 2))]:
            with pytest.raises(ValueError, match="finite"):
                Interval(left, right)

    def test_finite_values_of_every_type_accepted(self):
        assert Interval(0.5, Fraction(3, 2)).right == Fraction(3, 2)
        assert Box((0, 0.25), (Fraction(1, 3), 1.0)).upper == (Fraction(1, 3), 1.0)
        assert Interval(np.float16(0.5), np.longdouble(2)).left == 0.5
        if np.finfo(np.longdouble).maxexp > 1024:
            # Finite, though too large for a float.
            assert Interval(0, np.longdouble("1e400")).left == 0


class TestBoxPoset:
    @pytest.mark.parametrize(
        "lower, upper", [((0, 0, 5), (1, 1, 0)), ((0,), (1,)), ((0, 0), (1, 1, 1)), ((), ())])
    def test_corners_must_be_pairs(self, lower, upper):
        # A third coordinate would be dropped by every embedding; one would not index.
        want = f"box corners must be pairs: {lower} / {upper}"
        with pytest.raises(ValueError, match=re.escape(want)):
            Box(lower, upper)

    def test_dominating_boxes(self):
        p = poset_from_box_set([Box((0, 0), (1, 1)), Box((2, 2), (3, 3))])
        assert p.pairs() == [(0, 1)]

    def test_x_overlap_incomparable(self):
        p = poset_from_box_set([Box((0, 0), (3, 1)), Box((2, 2), (3, 3))])
        assert p.pairs() == []

    def test_touching_corners_comparable(self):
        p = poset_from_box_set([Box((0, 0), (1, 1)), Box((1, 1), (2, 2))])
        assert p.pairs() == [(0, 1)]


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


# The eight records as they were defined with dataclasses.  poset._record
# builds them now; these definitions are the reference they must match.
def _dataclass_records():
    @dataclass(frozen=True)
    class Interval:
        left: Coord
        right: Coord

        def __post_init__(self):
            left, right = self.left, self.right
            if type(left) is Fraction and type(right) is Fraction:
                out_of_order = (left.numerator * right.denominator
                                > right.numerator * left.denominator)
            else:
                _check_finite(left, right)
                out_of_order = left > right
            if out_of_order:
                raise ValueError(f"interval endpoints out of order: [{left}, {right}]")

    @dataclass(frozen=True)
    class Box:
        lower: tuple[Coord, Coord]
        upper: tuple[Coord, Coord]

        def __post_init__(self):
            if len(self.lower) != 2 or len(self.upper) != 2:
                raise ValueError(f"box corners must be pairs: {self.lower} / {self.upper}")
            _check_finite(*self.lower, *self.upper)
            if self.lower[0] > self.upper[0] or self.lower[1] > self.upper[1]:
                raise ValueError(f"box corners out of order: {self.lower} / {self.upper}")

    @dataclass(frozen=True)
    class HeapForest:
        k: int
        parent: Mapping[int, Optional[int]]

    @dataclass(frozen=True)
    class SplitGraph:
        n: int
        k: int
        succ: tuple[int, ...]

    @dataclass(frozen=True)
    class LeftKMatching:
        k: int
        edges: frozenset[tuple[int, int]]

    @dataclass(frozen=True)
    class TraceStep:
        item: int
        kind: str
        parent: Optional[int] = None
        slot: Optional[Coord] = None

    @dataclass(frozen=True)
    class SimConfig:
        n: int
        k: int
        trials: int
        seed: int
        mode: str = MODE_SEQUENCE

        def __post_init__(self):
            k = _check_arity(self.k)
            n, trials, seed = (_element_id(v) for v in (self.n, self.trials, self.seed))
            if n < 0:
                raise ValueError(f"n must be >= 0, got {n}")
            if trials < 1:
                raise ValueError(f"trials must be >= 1, got {trials}")
            if seed < 0:
                raise ValueError(f"seed must be >= 0, got {seed}")
            if self.mode not in _MODES:
                raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
            for name, value in (("n", n), ("k", k), ("trials", trials), ("seed", seed)):
                object.__setattr__(self, name, value)

    @dataclass(frozen=True)
    class SimStats:
        counts: tuple[int, ...]
        mean: float
        normalized: float
        stderr: float

    classes = [Interval, Box, HeapForest, SplitGraph, LeftKMatching, TraceStep, SimConfig,
               SimStats]
    for cls in classes:
        cls.__qualname__ = cls.__name__  # the name repr prints
    return {cls.__name__: cls for cls in classes}


_REFERENCE = _dataclass_records()
_RECORDS = {cls.__name__: cls for cls in (Interval, Box, HeapForest, SplitGraph, LeftKMatching,
                                          TraceStep, SimConfig, SimStats)}

_ints = st.integers(-3, 3) | st.integers()
# No NaN: dataclasses compare fields one by one from Python 3.13 on, so a
# shared NaN field makes records equal before 3.13 and unequal after.
_coords = _ints | st.fractions(max_denominator=12) | st.floats(width=16, allow_nan=False)
_optional_ids = st.none() | st.integers(0, 5)
_np_ints = st.integers(-3, 2**31 - 1).map(np.int64) | st.integers(-3, 9).map(np.int8)
_sim_ints = _ints | _np_ints | st.booleans() | st.just(2.0)
_FIELD_STRATEGIES = {
    "Interval": [_coords, _coords],
    "Box": [st.tuples(_coords, _coords) | st.lists(_coords, max_size=3).map(tuple)] * 2,
    "HeapForest": [_ints, st.dictionaries(st.integers(0, 5), _optional_ids, max_size=4)],
    "SplitGraph": [_ints, _ints, st.lists(st.integers(0, 63), max_size=4).map(tuple)],
    "LeftKMatching": [_ints, st.frozensets(st.tuples(st.integers(0, 5), st.integers(0, 5)))],
    "TraceStep": [st.integers(0, 5), st.sampled_from(["new_chain", "attached", "rejected"]),
                  _optional_ids, st.none() | _coords],
    "SimConfig": [_sim_ints] * 4 + [st.sampled_from(["seq", "set", "neither"])],
    "SimStats": [st.lists(_ints, max_size=3).map(tuple)] + [st.floats(allow_nan=False)] * 3,
}


def _outcome(call, *args):
    """call(*args), or the type and text of the error it raised."""
    try:
        return call(*args)
    except Exception as exc:
        return type(exc), str(exc)


class TestRecordsMatchDataclasses:
    @pytest.mark.parametrize("name", sorted(_RECORDS))
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_same_behaviour_as_the_dataclass(self, name, data):
        cls, ref = _RECORDS[name], _REFERENCE[name]
        names = ref.__match_args__
        assert cls.__match_args__ == names
        draws = _FIELD_STRATEGIES[name]
        a, b = (tuple(data.draw(s) for s in draws) for _ in range(2))
        if data.draw(st.booleans()):
            b = a[:-1] + b[-1:]  # often differ in one field only
        got_a, want_a = _outcome(cls, *a), _outcome(ref, *a)
        got_b, want_b = _outcome(cls, *b), _outcome(ref, *b)
        if isinstance(want_a, tuple):
            assert got_a == want_a
            return
        assert not isinstance(got_a, tuple), got_a
        fields = [getattr(want_a, f) for f in names]
        assert [getattr(got_a, f) for f in names] == fields
        assert [type(getattr(got_a, f)) for f in names] == [type(v) for v in fields]
        assert _outcome(cls, *fields) == got_a  # normalized fields rebuild the same record
        assert cls(**dict(zip(names, a))) == got_a
        assert repr(got_a) == repr(want_a)
        assert _outcome(hash, got_a) == _outcome(hash, want_a)
        assert got_a == got_a and not got_a != got_a
        assert got_a != want_a and not got_a == want_a  # no equality across classes
        assert got_a != fields and got_a != tuple(fields)
        if not isinstance(want_b, tuple):
            assert (got_a == got_b) == (want_a == want_b)
            assert (got_a != got_b) == (want_a != want_b)
        for attr in (*names, "other"):
            with pytest.raises(FrozenRecordError):
                setattr(got_a, attr, 0)
            with pytest.raises(FrozenRecordError):
                delattr(got_a, attr)
        for twin in (pickle.loads(pickle.dumps(got_a)), copy.copy(got_a), copy.deepcopy(got_a)):
            assert type(twin) is cls and twin == got_a

    def test_defaults_and_keywords(self):
        assert TraceStep(0, "new_chain").parent is None
        assert TraceStep(0, "new_chain").slot is None
        assert TraceStep(kind="attached", item=1, slot=Fraction(1, 2)) == TraceStep(
            1, "attached", None, Fraction(1, 2))
        assert SimConfig(n=1, k=1, trials=1, seed=0).mode == MODE_SEQUENCE
        with pytest.raises(TypeError):
            Interval(1)
        with pytest.raises(TypeError):
            Interval(1, 2, right=3)

    def test_plain_ints_from_numpy_ints(self):
        config = SimConfig(np.int64(5), np.int32(2), np.uint8(3), np.int16(7), "set")
        assert [type(v) for v in (config.n, config.k, config.trials, config.seed)] == [int] * 4
        assert config == SimConfig(5, 2, 3, 7, "set")
        assert hash(config) == hash(SimConfig(5, 2, 3, 7, "set"))

    def test_frozen_error_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="cannot assign to field 'left'"):
            Interval(1, 2).left = 0
        assert Interval(1, 2) != (1, 2) and not Interval(1, 2) == (1, 2)
        match Interval(1, 2):
            case Interval(left, right):
                assert (left, right) == (1, 2)


def _reference_key_columns(items, kind):
    """``_key_columns`` as it keyed in-memory items before plain-int axes
    were handed over as they are."""
    n = len(items)
    if kind is Interval:
        axes = [([item.left for item in items], [item.right for item in items])]
    else:
        axes = [([box.lower[a] for box in items], [box.upper[a] for box in items]) for a in (0, 1)]
    keys = [_exact_keys(low + high) for low, high in axes]
    return tuple(k[:n] for k in keys), tuple(k[n:] for k in keys)


def _mixed_value(rng, kinds):
    kind = rng.choice(kinds)
    if kind == "int":
        return rng.randint(-20, 20)
    if kind == "huge":
        return rng.choice([-1, 1]) * (2**63 + rng.randint(0, 2**66))
    if kind == "fraction":
        return Fraction(rng.randint(-60, 60), rng.randint(1, 7))
    if kind == "float":
        return rng.randint(-80, 80) / 4
    return rng.choice([np.int64, np.int32, np.uint8])(rng.randint(0, 20))


def _ordered_pair(rng, kinds):
    pair = sorted((_mixed_value(rng, kinds) for _ in range(2)), key=Fraction)
    if any(type(v) is int and abs(v) >= 2**63 for v in pair):
        pair = [int(v) for v in pair]  # numpy ints are not compared with ints past int64
    return pair


class TestKeyColumns:
    def test_keys_match_the_concatenating_reference(self):
        rng = random.Random(29)
        all_kinds = ["int", "huge", "fraction", "float", "numpy"]
        for trial in range(600):
            kinds = rng.sample(all_kinds, rng.randint(1, len(all_kinds)))
            if trial % 3 == 0:
                kinds = ["int"]
            n = rng.randint(0, 12)
            intervals = [Interval(*_ordered_pair(rng, kinds)) for _ in range(n)]
            # Each box axis draws from its own mix, so plain-int and mixed axes meet.
            x_kinds = ["int"] if rng.random() < 0.5 else kinds
            boxes = [Box(*zip(_ordered_pair(rng, x_kinds), _ordered_pair(rng, kinds)))
                     for _ in range(n)]
            for items, kind in ((intervals, Interval), (boxes, Box)):
                got, want = _key_columns(items, kind), _reference_key_columns(items, kind)
                as_lists = [[list(column) for column in half] for half in got]
                assert as_lists == [[list(column) for column in half] for half in want], items
                assert {type(key) for half in got for column in half for key in column} <= {int}
