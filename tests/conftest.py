"""Shared generators for randomized cross-checks.

Library-mode tests use exact integer / Fraction endpoints so every comparison
is exact; nothing here touches binary floats except the simulator tests.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

import pytest

from heapchains import Box, Interval, Poset, poset_from_relations

# S1, the ten-interval worked example; ids are input positions.
S1_PAIRS = [(1, 7), (1, 11), (11, 12), (15, 16), (7, 9), (8, 16), (1, 2), (3, 19), (13, 17), (5, 7)]


@pytest.fixture
def s1_items() -> list[Interval]:
    return [Interval(a, b) for a, b in S1_PAIRS]


def random_poset(rng: random.Random, max_n: int = 7, min_n: int = 1) -> Poset:
    """Random labeled poset: a random DAG on index order, relabeled."""
    n = rng.randint(min_n, max_n)
    density = rng.choice([0.15, 0.3, 0.5, 0.8])
    relabel = list(range(n))
    rng.shuffle(relabel)
    pairs = [
        (relabel[i], relabel[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < density
    ]
    return poset_from_relations(n, pairs)


def all_posets(n: int):
    """Every strict partial order on 0..n-1 (relations stored closed)."""
    idpairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    for bits in product((False, True), repeat=len(idpairs)):
        rel = {p for p, keep in zip(idpairs, bits) if keep}
        if any((j, i) in rel for i, j in rel):
            continue
        if any((i, l) not in rel for i, j in rel for jj, l in rel if jj == j):
            continue
        yield poset_from_relations(n, sorted(rel))


def random_intervals(rng: random.Random, n: int, hi: int | None = None) -> list[Interval]:
    """Random exact-endpoint intervals, occasionally with fractional endpoints."""
    hi = hi if hi is not None else max(3 * n, 6)
    items = []
    for _ in range(n):
        a, b = rng.randint(0, hi), rng.randint(0, hi)
        if a > b:
            a, b = b, a
        elif a == b:
            b = a + 1
        if rng.random() < 0.15:
            items.append(Interval(Fraction(2 * a, 2), Fraction(2 * b + 1, 2)))
        else:
            items.append(Interval(a, b))
    return items


def random_intervals_distinct(rng: random.Random, n: int) -> list[Interval]:
    """Random intervals with all 2n endpoints distinct."""
    coords = rng.sample(range(10 * n + 10), 2 * n)
    return [
        Interval(min(coords[2 * i], coords[2 * i + 1]), max(coords[2 * i], coords[2 * i + 1]))
        for i in range(n)
    ]


def random_boxes_distinct(rng: random.Random, n: int) -> list[Box]:
    """Random boxes with all x coordinates distinct and all y coordinates distinct."""
    xs = rng.sample(range(10 * n + 10), 2 * n)
    ys = rng.sample(range(10 * n + 10), 2 * n)
    boxes = []
    for i in range(n):
        x1, x2 = sorted((xs[2 * i], xs[2 * i + 1]))
        y1, y2 = sorted((ys[2 * i], ys[2 * i + 1]))
        boxes.append(Box((x1, y1), (x2, y2)))
    return boxes


def random_slot_multiset(rng: random.Random, n: int, hi: int = 24) -> tuple[int, ...]:
    return tuple(sorted(rng.randint(0, hi) for _ in range(n)))


def dominated_pair(rng: random.Random, max_n: int = 9, equal_size: bool = False):
    """A pair (A, B) of slot multisets with A dominating B.

    Draws are bottom-aligned (A[i] <= B[i] for i < |A|), a special case of
    the top-aligned domination that ``dominates`` checks: the i-th largest
    of A is A[|A|-1-i] <= B[|A|-1-i] <= B[|B|-1-i].
    """
    nb = rng.randint(1, max_n)
    b = sorted(rng.randint(0, 24) for _ in range(nb))
    na = nb if equal_size else rng.randint(1, nb)
    a = sorted(rng.randint(max(0, b[i] - 8), b[i]) for i in range(na))
    a = tuple(min(x, y) for x, y in zip(a, b))
    return a, tuple(b)


def top_dominated_pair(rng: random.Random, max_n: int = 9):
    """A pair (A, B) of slot multisets with A dominating B from the top.

    The i-th largest of A is drawn at or below the i-th largest of B, from
    anywhere down to 0, so most pairs are not bottom-aligned (e.g. (5,)
    against (1, 6)).
    """
    nb = rng.randint(1, max_n)
    b = sorted(rng.randint(0, 24) for _ in range(nb))
    na = rng.randint(1, nb)
    a = sorted(rng.randint(0, b[nb - 1 - i]) for i in range(na))
    return tuple(a), tuple(b)
