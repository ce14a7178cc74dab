"""Sweep-line partition of box sets into k-ary chains.

A box set goes, as its exact int keys, into the one dominance sweep,
``greedy._sweep``, which describes its events and tie order; the interval
and permutation families reach it through their box embeddings.
"""

from __future__ import annotations

from typing import Sequence

from .greedy import _sweep
from .poset import Box, HeapForest, _box_arrays, _check_arity, _key_columns


def sweep_partition(boxes: Sequence[Box], k: int) -> tuple[int, HeapForest]:
    """Optimal partition into k-ary chains of boxes ordered by dominance.

    Returns the chain count, the same for input in any order, and a forest
    over the original box ids.  Two boxes that are one point raise CycleError.
    """
    k = _check_arity(k)
    return _sweep(*_box_arrays(*_key_columns(boxes, Box)), k)[:2]
