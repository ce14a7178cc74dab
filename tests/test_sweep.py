import random

import pytest

from heapchains import (
    Box,
    CycleError,
    Interval,
    greedy_partition_sequence,
    greedy_partition_set,
    k_width,
    poset_from_box_set,
    sweep_partition,
    verify_forest,
)
from heapchains.poset import _box_arrays

from conftest import random_boxes_distinct


class TestSweepExamples:
    def test_dominating_pair_single_chain(self):
        boxes = [Box((0, 0), (1, 1)), Box((2, 2), (3, 3))]
        count, forest = sweep_partition(boxes, 1)
        assert count == 1
        assert forest.parent == {0: None, 1: 0}

    def test_fully_overlapping_pair(self):
        boxes = [Box((0, 0), (5, 5)), Box((1, 1), (4, 4))]
        for k in (1, 3):
            assert sweep_partition(boxes, k)[0] == 2

    def test_touching_x_allows_parenthood(self):
        boxes = [Box((0, 0), (2, 1)), Box((2, 1), (3, 3))]
        count, forest = sweep_partition(boxes, 2)
        assert count == 1 and forest.parent[1] == 0

    def test_twenty_random_boxes_match_flow(self):
        rng = random.Random(50)
        boxes = random_boxes_distinct(rng, 20)
        poset = poset_from_box_set(boxes)
        count, forest = sweep_partition(boxes, 2)
        assert count == k_width(poset, 2)[0]
        assert verify_forest(poset, forest, 2)

    def test_empty_input(self):
        count, forest = sweep_partition([], 2)
        assert count == 0 and forest.parent == {}

    def test_point_below_zero_width_box_in_either_order(self):
        # The point (1, 0) is the lower corner of the other box, so it can be
        # that box's parent whichever comes first in the input.
        boxes = [Box((1, 0), (1, 5)), Box((1, 0), (1, 0))]
        for ordered in (boxes, boxes[::-1]):
            count, forest = sweep_partition(ordered, 1)
            assert count == 1
            assert verify_forest(poset_from_box_set(ordered), forest, 1)


class TestSweepProperties:
    def test_matches_flow_on_random_instances(self):
        rng = random.Random(51)
        for _ in range(60):
            boxes = random_boxes_distinct(rng, rng.randint(1, 16))
            k = rng.randint(1, 3)
            count, forest = sweep_partition(boxes, k)
            poset = poset_from_box_set(boxes)
            assert count == k_width(poset, k)[0]
            assert verify_forest(poset, forest, k)

    def test_input_order_is_normalized(self):
        rng = random.Random(52)
        for _ in range(30):
            boxes = random_boxes_distinct(rng, rng.randint(1, 12))
            shuffled = boxes[:]
            rng.shuffle(shuffled)
            k = rng.randint(1, 3)
            assert sweep_partition(boxes, k)[0] == sweep_partition(shuffled, k)[0]

    def test_zero_x_extent_reduces_to_interval_sequence(self):
        rng = random.Random(53)
        for _ in range(60):
            n = rng.randint(1, 20)
            xs = sorted(rng.sample(range(10 * n + 5), n))
            items, boxes = [], []
            for i in range(n):
                y1, y2 = sorted((rng.randint(0, 40), rng.randint(0, 40)))
                items.append(Interval(y1, y2))
                boxes.append(Box((xs[i], y1), (xs[i], y2)))
            for k in (1, 2, 3):
                assert sweep_partition(boxes, k)[0] == greedy_partition_sequence(items, k)[0]

    def test_tied_grid_matches_flow(self):
        # Coordinates 0..3 make shared corners and zero-width boxes common.
        rng = random.Random(55)
        checked = 0
        for _ in range(1500):
            boxes = []
            for _ in range(rng.randint(1, 9)):
                x1, x2 = sorted((rng.randint(0, 3), rng.randint(0, 3)))
                y1, y2 = sorted((rng.randint(0, 3), rng.randint(0, 3)))
                boxes.append(Box((x1, y1), (x2, y2)))
            k = rng.randint(1, 3)
            try:
                poset = poset_from_box_set(boxes)
            except CycleError:
                with pytest.raises(CycleError):
                    sweep_partition(boxes, k)
                continue
            count, forest = sweep_partition(boxes, k)
            assert count == k_width(poset, k)[0]
            assert verify_forest(poset, forest, k)
            checked += 1
        assert checked > 1400

    def test_keys_past_int64_match_flow(self):
        # Keys past int64 make the sweep's event keys object arrays; a coarse
        # grid of them ties x values and makes zero-width boxes common.
        rng = random.Random(57)
        grid = (-(2**64), -1, 2**63, 2**63 + 1, 2**80)
        checked = huge = flat = 0
        for _ in range(300):
            boxes = []
            for _ in range(rng.randint(1, 9)):
                x1, x2 = sorted((rng.choice(grid), rng.choice(grid)))
                y1, y2 = sorted((rng.choice(grid), rng.choice(grid)))
                boxes.append(Box((x1, y1), (x2, y2)))
            k = rng.randint(1, 3)
            try:
                poset = poset_from_box_set(boxes)
            except CycleError:
                with pytest.raises(CycleError):
                    sweep_partition(boxes, k)
                continue
            count, forest = sweep_partition(boxes, k)
            assert count == k_width(poset, k)[0] == len(forest.roots)
            assert verify_forest(poset, forest, k)
            checked += 1
            huge += _box_arrays(boxes)[0].dtype == object
            flat += sum(box.lower[0] == box.upper[0] for box in boxes)
        assert checked > 200 and huge > 150 and flat > 250

    def test_zero_width_at_one_x_is_an_interval_set(self):
        rng = random.Random(56)
        for _ in range(200):
            n = rng.randint(1, 12)
            pairs = [sorted((rng.randint(0, 8), rng.randint(0, 8))) for _ in range(n)]
            points = [y1 for y1, y2 in pairs if y1 == y2]
            if len(set(points)) < len(points):
                continue  # two equal points dominate each other
            items = [Interval(y1, y2) for y1, y2 in pairs]
            boxes = [Box((4, item.left), (4, item.right)) for item in items]
            for k in (1, 2, 3):
                assert sweep_partition(boxes, k)[0] == greedy_partition_set(items, k)[0]

    def test_parent_upper_corner_precedes_child_lower_corner(self):
        # availability discipline: a parent's x-extent lies fully left of the child's
        rng = random.Random(54)
        for _ in range(40):
            boxes = random_boxes_distinct(rng, rng.randint(1, 14))
            _, forest = sweep_partition(boxes, 2)
            for child, par in forest.parent.items():
                if par is not None:
                    assert boxes[par].upper[0] <= boxes[child].lower[0]
                    assert boxes[par].upper[1] <= boxes[child].lower[1]
