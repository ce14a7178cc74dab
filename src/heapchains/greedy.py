"""Greedy best-fit slot algorithms for intervals and permutations.

When an item joins a chain it opens k single-use *slots*, all valued at the
item's right endpoint (the item's own value, for permutations).  A later
interval may attach beneath a slot whose value does not exceed its left
endpoint; best fit always consumes the highest compatible slot.  The sorted
vector of outstanding slot values (the *signature*) drives all optimality
arguments, so it is exposed here together with the domination check used
by the property tests: A dominates B when A is no larger and, compared
from the largest value down, no slot of A exceeds its partner in B.  This
is the relation best-fit insertion preserves.

Slot multisets are plain iterables of exact numeric values; signatures are
sorted tuples.

Every partition is one sweep over boxes ordered by dominance, ``_sweep``:
each family is a box embedding of its exact int keys, made in
``heapchains.poset``, and the sweep orders all events with one ``_order``:
one argsort by x, and a ``np.lexsort`` over the tie keys only when two
events share an x.  One counted slot pool, ``_SlotPool``, ranks the boxes'
bounds (lower y) and slot values (upper y) from those keys, the only
ranking they get: one rank per owner with the tie rule built in, each
bound searched in sorted order, and each rank's unused lives; callers name
items, never ranks.  Best fit compares only ints, and its cost does not
depend on k.  Its one loop,
``_SlotPool.run``, serves the sweep (max-heapable adds ``reject``) and the
sequence-mode particle process of ``heapchains.simulate``; a set-mode trial
needs only its count, which ``_set_chain_count`` reads from the matching
bound over the draws in ``_set_order``.  A trace is a read-only sequence
that reports slots by original coordinate and builds each step when it is
read; an interval trace reads a loaded file's slots from its key column and
builds no item.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from itertools import repeat
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Sequence

from .poset import Coord, HeapForest, Interval, _check_arity, _exact_value, _interval_boxes
from .poset import _KeyedItems, _LazySequence, _permutation_points, _record

if TYPE_CHECKING:
    import numpy as np

NEW_CHAIN = "new_chain"
ATTACHED = "attached"
REJECTED = "rejected"


class IncompatibleChoice(ValueError):
    """ChooseSlot named a slot that is absent or too high for the interval."""


@_record
class TraceStep:
    """One greedy decision: which item, what happened, which slot it consumed."""

    item: int
    kind: str
    parent: Optional[int] = None
    slot: Optional[Coord] = None


def signature(slots: Iterable[Coord]) -> tuple[Coord, ...]:
    """Slot values sorted ascending."""
    return tuple(sorted(slots))


def dominates(a: Iterable[Coord], b: Iterable[Coord]) -> bool:
    """True iff sig(a) is no longer than sig(b) and, for every i <= len(a),
    the i-th largest value of a is <= the i-th largest value of b.

    Equivalently, a never has more slots above any threshold than b does.
    The size condition keeps the chain count of a no larger (two runs over
    the same items hold (k-1)*t + chains slots after t items), and the
    top-aligned comparison is what best-fit insertion preserves.
    """
    sig_a, sig_b = signature(a), signature(b)
    return len(sig_a) <= len(sig_b) and all(
        x <= y for x, y in zip(reversed(sig_a), reversed(sig_b))
    )


def insert_interval(
    slots: Iterable[Coord], item: Interval, k: int, choose: Optional[Coord] = None
) -> tuple[tuple[Coord, ...], Optional[Coord]]:
    """Insert one interval into a bare slot multiset.

    Best fit consumes the highest slot value <= item.left.  ``choose`` forces
    a slot value c <= item.left, which must be present: that is best fit
    below c, since a present c is the highest slot value <= c.  Either way k
    copies of item.right are added.  Returns the new multiset (sorted) and
    the consumed slot value, or None when the interval started a new chain.
    """
    k = _check_arity(k)
    values = list(signature(slots))
    bound = item.left if choose is None else choose
    if bound > item.left:
        raise IncompatibleChoice(f"slot {choose} exceeds left endpoint {item.left}")
    idx = bisect_right(values, bound) - 1
    if choose is not None and (idx < 0 or values[idx] != choose):
        raise IncompatibleChoice(f"slot {choose} not present in the multiset")
    consumed = values.pop(idx) if idx >= 0 else None
    for _ in range(k):
        insort(values, item.right)
    return tuple(values), consumed


def _order(keys: np.ndarray, *ties: np.ndarray) -> np.ndarray:
    """``np.lexsort((*ties, keys))``: ids by key, equal keys by the last tie
    key, and so on, then by id.  Keys that sort strictly increasing (no tie,
    no NaN) admit one order, which one unstable argsort finds; only tied
    keys pay for the lexsort."""
    import numpy as np

    order = np.argsort(keys)
    ranked = keys[order]
    if (ranked[1:] > ranked[:-1]).all():
        return order
    return np.lexsort((*ties, keys))


def _set_order(lefts, rights) -> np.ndarray:
    """Item ids in interval-set order: right endpoint, then left, then id."""
    return _order(rights, lefts)


def _set_chain_count(lefts, rights, k: int) -> int:
    """The chain count of best fit over an interval set, given as two
    arrays, without running it.

    In set order, item i may be the parent of item j when right_i <= left_j.
    Such an i comes before j, since right_i <= left_j <= right_j, so j's
    possible parents are the first p[j] items: the items whose right is at
    most left_j, capped at j so that of equal point intervals each later one
    may attach only to earlier ones, as best fit does.  A forest of k-ary chains
    is a matching of each child to one earlier possible parent, each parent
    taking at most k children, and it has n - |matching| chains.  By Hall's
    theorem (deficiency form, parents of capacity k) the fewest chains is the
    largest |S| - k |N(S)| over sets S of items, N(S) their possible parents.
    These neighbourhoods are nested prefixes, so for |N(S)| <= v the largest
    S is {j : p[j] <= v}, and the count is the largest #{p[j] <= v} - k v
    over v = 0..n.  Best fit is optimal, so this is its count too.

    The cap binds only for a point interval j, whose p[j] is then j, so for
    v < n, #{p[j] <= v} is the number of non-point lefts below the v-th
    right in set order plus the number of points among the first v + 1
    items.  v = n is left out: its excess n - k n is at most 0, and since
    p[0] = 0 the excess at v = 0 is at least 1 unless there are no items.
    For the same reason any k >= n counts as k = n, which keeps k v in int64.
    """
    import numpy as np

    lefts, rights = np.asarray(lefts), np.asarray(rights)
    order = _set_order(lefts, rights)
    lefts, rights = lefts[order], rights[order]
    point = lefts >= rights
    below = np.searchsorted(np.sort(lefts[~point]), rights, side="left") + np.cumsum(point)
    return int((below - min(k, len(order)) * np.arange(len(order))).max(initial=0))


class _SlotPool:
    """Open slots of items: item i takes below ``bounds[i]`` and opens slots
    valued at ``slots[i]``.  Owners rank by slot value, equal values by
    descending id, and each bound becomes the highest rank whose value does
    not exceed it (-1 if none), so the highest live rank at or below a bound
    is the lowest owner among the highest values that fit: the one place
    this tie rule is written.  Each rank counts its unused lives.  Live ranks
    are bits of 64-bit block ints under a summary int with a bit per
    non-empty block, so a take costs at most two masks and ``bit_length``s.
    """

    __slots__ = ("_blocks", "_summary", "_bounds", "_ranks", "_owners", "_lives")

    def __init__(self, bounds, slots):
        import numpy as np

        slots, bounds = np.asarray(slots), np.asarray(bounds)
        n = len(slots)
        owners = _order(slots, -np.arange(n))
        # Searched in sorted order, the bounds walk the sorted slots once.
        # Each temporary array is freed before the next list is built, which
        # keeps the peak near the three lists the pool keeps.
        by_bound = np.argsort(bounds)
        found = np.empty(len(bounds), dtype=np.intp)
        found[by_bound] = np.searchsorted(slots[owners], bounds[by_bound], side="right") - 1
        del by_bound
        self._bounds = found.tolist()
        del found
        ranks = np.empty_like(owners)
        ranks[owners] = np.arange(n)
        self._ranks = ranks.tolist()
        del ranks
        self._owners = owners.tolist()
        self._blocks = [0] * ((n + 63) >> 6)
        self._summary = 0
        self._lives = [0] * n

    def run(self, steps, k: int, reject: bool = False) -> tuple[int, list]:
        """The one best-fit loop.  With n bounds, step ``i`` (0 <= i < n) takes
        for item i, then gives it k slots; ``n + i`` only takes for item i, and
        ``~i`` only gives item i, whose slots are not open yet, k slots.  A
        take spends a life of the item's best slot (the highest value at or
        below its bound, then the lowest owner) or starts a chain.  With
        ``reject``, once this run has started a chain, an item that finds no
        slot is skipped: it keeps -1 and opens nothing.  Returns the run's
        chain-start count and a list over the bounds: each item's owner, None
        for a chain start, -1 if it never took.
        """
        bounds, ranks, owners = self._bounds, self._ranks, self._owners
        blocks, lives, summary = self._blocks, self._lives, self._summary
        n = len(bounds)
        parent = [-1] * n
        count = 0
        for step in steps:
            if step >= 0:
                i = step - n if step >= n else step
                bound, owner = bounds[i], None
                if bound >= 0:
                    block = bound >> 6
                    mask = blocks[block] & ((2 << (bound & 63)) - 1)
                    if not mask:
                        below = summary & ((1 << block) - 1)
                        if below:
                            block = below.bit_length() - 1
                            mask = blocks[block]
                    if mask:
                        top = mask.bit_length() - 1
                        rank = block << 6 | top
                        left = lives[rank] - 1
                        lives[rank] = left
                        if not left:
                            mask = blocks[block] = blocks[block] ^ (1 << top)
                            if not mask:
                                summary ^= 1 << block
                        owner = owners[rank]
                if owner is None:
                    if reject and count:
                        continue
                    count += 1
                parent[i] = owner
                if step >= n:
                    continue
            else:
                i = ~step
            rank = ranks[i]
            lives[rank] = k
            block = rank >> 6
            if not blocks[block]:
                summary |= 1 << block
            blocks[block] |= 1 << (rank & 63)
        self._summary = summary
        return count, parent

    def owners_left(self) -> list[int]:
        """Owners of the unused slots by ascending rank, one per life."""
        owners = self._owners
        return [owners[rank] for rank, lives in enumerate(self._lives) for _ in range(lives)]


_OPEN, _BOTH, _TAKE = 0, 1, 2  # event phases, in their order at one x


def _sweep(lo_x, lo_y, hi_x, hi_y, k: int, reject: bool = False) -> tuple[int, HeapForest, list]:
    """The one dominance sweep over boxes i from (lo_x[i], lo_y[i]) to
    (hi_x[i], hi_y[i]), given as key arrays with one dtype per axis.  A box
    takes at its lower x the best open slot at or below its lower y, or
    starts a chain, and opens k slots valued at its upper y at its upper x:
    only a box wholly to its left may be its parent.  A zero-width box does
    both in one event.  At one x, opens run first, then zero-width boxes by
    upper y, lower y and id (for an interval set, ``_set_order``), then takes
    by upper x and id.  With ``reject``, a box that finds no slot once a
    chain has started takes nothing and, if zero-width, opens nothing.
    Events sort by x with ``_order``, so the tie keys (phase, then upper and
    lower y or upper x) are sorted only when two events share an x.  Returns
    the chain-start count, the forest of the boxes that took, and the box
    ids in the order they took.
    """
    import numpy as np

    n = len(lo_x)
    ids = np.arange(n)
    flat = lo_x == hi_x
    wide = np.flatnonzero(~flat)
    opens = hi_x[wide]
    # Pool steps: i takes and opens, n + i only takes, ~i only opens.
    steps = np.concatenate((np.where(flat, ids, n + ids), ~wide))
    # Equal keys keep id order.  A take's second tie key is its lower x, the
    # same for all its group.
    events = steps[_order(
        np.concatenate((lo_x, opens)),
        np.concatenate((np.where(flat, lo_y, lo_x), opens)),
        np.concatenate((np.where(flat, hi_y, hi_x), opens)),
        np.concatenate((np.where(flat, _BOTH, _TAKE), np.full(len(wide), _OPEN))),
    )]
    count, parent = _SlotPool(lo_y, hi_y).run(events.tolist(), k, reject)
    takes = events[events >= 0]
    order = np.where(takes >= n, takes - n, takes).tolist()
    # In id order, so a witness writer's sort finds one run.
    return count, HeapForest(k, {i: p for i, p in enumerate(parent) if p != -1}), order


class _Trace(_LazySequence):
    """Lazy TraceSteps: item ``order[j]`` took a slot of ``owners[j]`` (None
    for a new chain, -1 if rejected), valued at ``slot_of(owner)``.  It
    equals, and hashes as, the tuple of its steps."""

    __slots__ = ("_slot_of",)

    def __init__(self, order: tuple, owners: list, slot_of: Callable[[int], Coord]):
        self._columns, self._slot_of = (order, owners), slot_of

    def _entry(self, item: int, owner: Optional[int]) -> TraceStep:
        if owner is None:
            return TraceStep(item, NEW_CHAIN)
        if owner == -1:
            return TraceStep(item, REJECTED)
        return TraceStep(item, ATTACHED, parent=owner, slot=self._slot_of(owner))

    def __hash__(self):
        return hash(tuple(self))


def best_fit_trace(forest: HeapForest, order: Iterable, slots: Sequence) -> Sequence[TraceStep]:
    """The greedy decisions behind a forest, in ``order``: an item missing from
    the forest was rejected, a root started a new chain, and any other item
    attached beneath its parent, consuming a slot valued at ``slots[parent]``.

    The result is a read-only sequence (``len``, indexing, slices, iteration)
    equal to the tuple of its steps.  It copies ``order`` and each item's
    parent when it is made, so later edits to them or to ``forest.parent``
    leave it unchanged; ``slots`` is read when a step is read.
    """
    return _trace(forest, order, slots.__getitem__)


def _trace(forest: HeapForest, order: Iterable, slot_of: Callable[[int], Coord]) -> _Trace:
    order = tuple(order)
    return _Trace(order, list(map(forest.parent.get, order, repeat(-1))), slot_of)


def _interval_chains(items: Sequence[Interval], k: int, as_set: bool, reject: bool = False):
    """Count, forest and trace of the sweep over the items' boxes.  A loaded
    file's slots are read from its right-key column, building no item."""
    k = _check_arity(k)
    count, forest, order = _sweep(*_interval_boxes(items, as_set), k, reject)
    if isinstance(items, _KeyedItems):
        rights, scale = items._columns[1], items._scale
        return count, forest, _trace(forest, order, lambda i: _exact_value(rights[i], scale))
    return count, forest, _trace(forest, order, lambda i: items[i].right)


def greedy_partition_sequence(
    items: Sequence[Interval], k: int
) -> tuple[int, HeapForest, Sequence[TraceStep]]:
    """Minimum partition of an interval sequence into k-ary chains (best fit)."""
    return _interval_chains(items, k, as_set=False)


def greedy_partition_set(
    items: Sequence[Interval], k: int
) -> tuple[int, HeapForest, Sequence[TraceStep]]:
    """Minimum partition of an interval set: sort by the total order, then best fit.
    Two equal point intervals dominate each other and raise CycleError."""
    return _interval_chains(items, k, as_set=True)


def greedy_partition_permutation(perm: Sequence[int], k: int) -> tuple[int, HeapForest]:
    """Minimum partition of a permutation into k-ary chains.

    Compatibility is strict here: a value may only attach beneath a strictly
    smaller earlier value.  ``best_fit_trace(forest, perm, range(len(perm)))``
    gives the decisions.
    """
    k = _check_arity(k)
    return _sweep(*_permutation_points(perm), k)[:2]


def greedy_max_heapable_subset(
    items: Sequence[Interval], k: int
) -> tuple[tuple[int, ...], HeapForest, Sequence[TraceStep]]:
    """Largest subset of an interval set that forms a single k-ary chain.

    Items are taken in the total order; the first roots the tree, and later
    items either attach best-fit or are rejected outright (rejected items
    never open slots).  Two equal point intervals raise CycleError.
    """
    _, forest, trace = _interval_chains(items, k, as_set=True, reject=True)
    return tuple(sorted(forest.parent)), forest, trace


def chain_signatures(
    forest: HeapForest, items: Sequence[Interval]
) -> dict[int, tuple[Coord, ...]]:
    """Per-chain signatures of a forest: each node keeps k - (child count)
    unused slots valued at its right endpoint.  Linear: one walk per root."""
    children: dict[int, list[int]] = {e: [] for e in forest.parent}
    for e, par in forest.parent.items():
        if par is not None:
            children[par].append(e)
    signatures = {}
    for root in forest.roots:
        values, stack = [], [root]
        while stack:
            e = stack.pop()
            values.extend([items[e].right] * (forest.k - len(children[e])))
            stack.extend(children[e])
        signatures[root] = signature(values)
    return signatures
