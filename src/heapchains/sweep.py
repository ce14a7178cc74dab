"""Sweep-line partition of box sequences into k-ary chains.

Boxes become events sorted by x.  A box *takes* at its lower x: it spends
the highest open slot at or below its lower y, or starts a new chain when
none fits.  It *opens* its k slots, valued at its upper y, at its upper x,
since only a box whose x-extent lies fully to the left may be a parent.  A
zero-width box does both in one event.  At one x, opens run first, then the
zero-width boxes by upper y and lower y (the order of an interval set, see
``greedy_partition_set``), then takes by upper x and input id.  Events
compare x and y by their exact int keys (``poset._key_columns``), and the
slots live in the counted pool of ``heapchains.greedy``, which ranks the y
keys, the only ranking they get, and runs the sorted events as its take,
open and take-and-open steps.
"""

from __future__ import annotations

from typing import Sequence

from .greedy import _key_array, _SlotPool
from .poset import Box, HeapForest, _check_arity, _check_distinct_points, _key_columns

_OPEN, _BOTH, _TAKE = 0, 1, 2  # phase order at one x


def sweep_partition(boxes: Sequence[Box], k: int) -> tuple[int, HeapForest]:
    """Optimal partition into k-ary chains of boxes ordered by dominance.

    Returns the chain count, the same for input in any order, and a forest
    over the original box ids.  Two boxes that are one point raise CycleError.
    """
    k = _check_arity(k)
    (lo_xs, lo_ys), (hi_xs, hi_ys) = _key_columns(boxes, Box)
    n = len(lo_xs)
    _check_distinct_points((lo_xs, lo_ys), (hi_xs, hi_ys))
    # Each event ends in its pool step: a take-and-open, a take or an open.
    events = []
    for bid, (lo_x, hi_x) in enumerate(zip(lo_xs, hi_xs)):
        if lo_x == hi_x:
            events.append((lo_x, _BOTH, hi_ys[bid], lo_ys[bid], bid))
        else:
            events.append((lo_x, _TAKE, hi_x, n + bid))
            events.append((hi_x, _OPEN, ~bid))
    events.sort()
    y_keys = _key_array(lo_ys + hi_ys)
    count, parent = _SlotPool(y_keys[:n], y_keys[n:]).run([event[-1] for event in events], k)
    return count, HeapForest(k, dict(enumerate(parent)))
