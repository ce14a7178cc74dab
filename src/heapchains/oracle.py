"""Independent brute-force references for the optimality claims.

These exist to cross-check the solvers on small instances and deliberately
share no search logic with them.  Size guards are hard errors: past the
guards the searches are exponential and the oracles are not meant to run.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations
from typing import Sequence

from .poset import Interval, Poset, _check_arity


class TooLarge(ValueError):
    """Instance exceeds the oracle's hard size guard."""


def oracle_k_width(poset: Poset, k: int) -> int:
    """Minimum root count over all valid parent assignments, by backtracking."""
    k = _check_arity(k)
    n = poset.n
    if n > 8:
        raise TooLarge(f"oracle_k_width is limited to n <= 8, got {n}")
    preds = [poset.predecessors(x) for x in range(n)]
    child_count = [0] * n
    best = n

    def assign(x: int, roots: int) -> None:
        nonlocal best
        if roots >= best:
            return
        if x == n:
            best = roots
            return
        for p in preds[x]:
            if child_count[p] < k:
                child_count[p] += 1
                assign(x + 1, roots)
                child_count[p] -= 1
        assign(x + 1, roots + 1)

    assign(0, 0)
    return best


def oracle_max_heapable(items: Sequence[Interval], k: int) -> int:
    """Largest subset forming a single k-ary chain, by subset enumeration.

    The relation right <= left is computed once.  A subset holding two
    mutually dominating items (the same point twice) is never a chain.  Any
    other subset is listed with every item after all items below it and
    checked by backtracking: its first item is the root, and each later item
    takes as parent an earlier item below it that has fewer than k children.
    """
    k = _check_arity(k)
    n = len(items)
    if n > 12:
        raise TooLarge(f"oracle_max_heapable is limited to n <= 12, got {n}")
    below = [{i for i in range(n) if i != j and items[i].right <= items[j].left} for j in range(n)]

    @cache
    def place(members: tuple[int, ...], pos: int, free: tuple[int, ...]) -> bool:
        # free[q] is how many more children members[q] may take.
        return pos == len(members) or any(
            free[q] and members[q] in below[members[pos]]
            and place(members, pos + 1, free[:q] + (free[q] - 1,) + free[q + 1 :])
            for q in range(pos)
        )

    # Fewer items below first: in a mutual-free subset, parents precede children.
    ranked = sorted(range(n), key=lambda j: len(below[j]))
    for size in range(n, 0, -1):
        for subset in combinations(ranked, size):
            mutual = any(i in below[j] for i in subset for j in below[i].intersection(subset))
            if not mutual and place(subset, 1, (k,) * size):
                return size
    return 0


def oracle_width_antichain(poset: Poset) -> int:
    """Largest pairwise-incomparable subset, by pruned subset search."""
    n = poset.n
    if n > 20:
        raise TooLarge(f"oracle_width_antichain is limited to n <= 20, got {n}")
    incomparable = []
    for x in range(n):
        mask = 0
        for y in range(n):
            if y != x and not poset.less(x, y) and not poset.less(y, x):
                mask |= 1 << y
        incomparable.append(mask)
    best = 0

    def grow(candidates: int, size: int) -> None:
        nonlocal best
        if size + candidates.bit_count() <= best:
            return
        if candidates == 0:
            best = max(best, size)
            return
        low = candidates & -candidates
        x = low.bit_length() - 1
        grow(candidates & incomparable[x], size + 1)
        grow(candidates ^ low, size)

    grow((1 << n) - 1, 0)
    return best


def max_clique_intervals(items: Sequence[Interval]) -> int:
    """Maximum number of intervals sharing a point (closed intervals), by sweep."""
    events = []
    for item in items:
        events.append((item.left, 0))  # starts before ends: touching endpoints overlap
        events.append((item.right, 1))
    events.sort()
    depth = best = 0
    for _, kind in events:
        if kind == 0:
            depth += 1
            best = max(best, depth)
        else:
            depth -= 1
    return best
