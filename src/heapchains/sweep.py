"""Sweep-line partition of box sequences into k-ary chains.

Boxes are processed as corner events from left to right.  A box's k slots
(valued at its upper y) are created when its lower corner is reached but stay
*unavailable* until its upper corner has been swept, because only a box whose
x-extent is fully to the left may serve as a parent.  A lower corner attaches
to the highest available slot at or below its y, or starts a new chain when
none exists (the permanent sentinel below all inputs).  The y coordinates
are ranked once, exactly, and the slots live in the counted pool of
``heapchains.greedy``.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .greedy import _SlotPool
from .poset import Box, HeapForest, _check_arity, _dense_ranks

_UPPER = 0  # at equal x, upper corners are swept before lower corners
_LOWER = 1


def sweep_partition(boxes: Sequence[Box], k: int) -> tuple[int, HeapForest]:
    """Optimal partition into k-ary chains of boxes ordered by upper-corner x.

    Input in any order is normalized by a stable sort on upper x.  Returns the
    chain count and a forest over the original box ids.
    """
    _check_arity(k)
    n = len(boxes)
    ys = _dense_ranks([box.lower[1] for box in boxes] + [box.upper[1] for box in boxes])
    lower_y, upper_y = ys[:n], ys[n:]
    order = sorted(range(n), key=lambda i: boxes[i].upper[0])
    rank = {bid: pos for pos, bid in enumerate(order)}
    events = []
    for bid, box in enumerate(boxes):
        events.append((box.upper[0], _UPPER, rank[bid], bid))
        events.append((box.lower[0], _LOWER, rank[bid], bid))
    events.sort(key=lambda e: e[:3])

    # Not greedy._best_fit: a box opens its slots at a later event than it takes.
    available = _SlotPool(2 * n, n)
    # A box's slots open once both its corners have been swept: only then
    # does its whole x-extent lie left of the sweep.
    half_swept = [False] * n
    parent: dict[int, Optional[int]] = {}
    count = 0
    for _, kind, _, bid in events:
        if kind == _LOWER:
            owner = available.take_best(lower_y[bid])
            if owner is None:
                count += 1
            parent[bid] = owner
        if half_swept[bid]:
            available.open(upper_y[bid], bid, k)
        half_swept[bid] = True
    return count, HeapForest(k, parent)
