"""Domain types: finite posets, intervals, boxes, and k-ary chain forests.

Elements of a poset are the integers ``0..n-1``.  The strict order is stored
transitively closed, so ``less(x, z)`` is a single lookup.  Coordinates of
intervals and boxes are exact numbers (``int`` or ``fractions.Fraction``) in
library mode; the Monte-Carlo simulator feeds plain floats through the same
types.

Every exact coordinate becomes an order-isomorphic integer key once, by one
step that scales exact ratios p/q to a common denominator (``_scale``).
Items built in memory reach it through ``_exact_keys``.  A CSV file is
loaded as a ``_KeyedItems``: key columns on the file's one scale, whose
``Interval`` or ``Box`` objects are built only when read.  ``_key_columns``
hands either route's keys on.  Every geometric family is a box set:
``_box_arrays`` turns box key columns into four key arrays, and
``_interval_boxes`` and ``_permutation_points`` embed the other families
(see ``heapchains.greedy``).  The one sweep and the one dominance builder,
``_box_poset``, take those arrays.  The builder takes any number of axes
(an interval set needs one, right_i <= left_j) and numbers each axis's keys
0, 1, ... (``np.unique``'s inverse, on int64 and object keys alike) to fit
the int64 blocks in which its kernel compares them: O(n^2) work per axis,
about 10 ms for an interval set of 2,100 items on one Xeon core.  The sweep
hands the keys to its pool unranked.
A poset read from relations never touches numpy.

``Interval``, ``Box`` and ``HeapForest``, and the records of the other
modules, are frozen classes built by ``_record`` from their annotated
fields: what ``@dataclass(frozen=True)`` gave them, without importing
``dataclasses`` (and with it ``inspect``) on every CLI call.
"""

from __future__ import annotations

import collections.abc
import copy
import math
import numbers
import operator
import sys
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence, Union

Coord = Union[int, Fraction, float]
_BLOCK_ROWS = 1024  # rows per kernel block: 10 MB of bools per column at n = 10,000


class CycleError(ValueError):
    """The input relations contradict a strict partial order."""


class IdOutOfRange(ValueError):
    """A relation names an element id outside 0..n-1."""


class NotAPermutation(ValueError):
    """The input sequence is not a bijection on 0..n-1."""


class ElementMismatch(ValueError):
    """A forest does not cover exactly the poset's elements."""


class FrozenRecordError(AttributeError):
    """An attribute of a record (``Interval``, ``HeapForest``, ...) was set or deleted."""


def _frozen_setattr(self, name, value):
    raise FrozenRecordError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise FrozenRecordError(f"cannot delete field {name!r}")


def _record(cls: type) -> type:
    """Make ``cls`` a frozen record of its annotated fields, in order.

    It gains what ``@dataclass(frozen=True)`` would give it: ``__init__``
    (by position or keyword, with the class body's values as defaults, then
    ``__post_init__`` when the class defines one); ``__eq__`` on the field
    tuples of two instances of one class; ``__hash__`` and ``__repr__`` of
    the field values; ``__match_args__``; and FrozenRecordError on setting or
    deleting any attribute.  The first four are compiled from one source per
    class, as ``dataclasses`` compiles them.  Fields live in the instance
    ``__dict__``, so ``pickle`` and ``copy`` work unchanged.
    """
    names = tuple(cls.__annotations__)
    params = "".join(
        f", {name}=_defaults[{name!r}]" if name in cls.__dict__ else f", {name}" for name in names
    )
    sets = "".join(f"\n    _set(self, {name!r}, {name})" for name in names)
    if "__post_init__" in cls.__dict__:
        sets += "\n    self.__post_init__()"
    mine = "".join(f"self.{name}," for name in names)
    theirs = "".join(f"other.{name}," for name in names)
    shown = ", ".join(f"{name}={{self.{name}!r}}" for name in names)
    source = (
        f"def __init__(self{params}):{sets}\n"
        "def __eq__(self, other):\n"
        f"    if other.__class__ is self.__class__:\n        return ({mine}) == ({theirs})\n"
        "    return NotImplemented\n"
        f"def __hash__(self):\n    return hash(({mine}))\n"
        f"def __repr__(self):\n    return f'{{self.__class__.__qualname__}}({shown})'\n"
    )
    namespace = {"_set": object.__setattr__, "_defaults": cls.__dict__}
    exec(source, namespace)
    for name in ("__init__", "__eq__", "__hash__", "__repr__"):
        method = namespace[name]
        method.__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name, method)
    cls.__setattr__, cls.__delattr__ = _frozen_setattr, _frozen_delattr
    cls.__match_args__ = names
    return cls


def _check_finite(*coords: Coord) -> None:
    # Exact coordinates skip the test (int and Fraction by a fast type check).
    # np.isfinite judges a numpy longdouble too large for a float; it is
    # imported only for a value math.isfinite rejects that is not a plain
    # float, so the common path runs no import statement.
    for c in coords:
        if type(c) in (int, Fraction) or isinstance(c, numbers.Rational) or math.isfinite(c):
            continue
        if type(c) is not float:
            import numpy as np

            if np.isfinite(c):
                continue
        raise ValueError(f"coordinate must be finite, got {c!r}")


@_record
class Interval:
    """Closed interval [left, right] with left <= right; NaN and ±inf are rejected."""

    left: Coord
    right: Coord

    def __post_init__(self):
        left, right = self.left, self.right
        if type(left) is Fraction and type(right) is Fraction:
            # Always finite; cross-multiplying skips Fraction.__gt__'s dispatch.
            out_of_order = left.numerator * right.denominator > right.numerator * left.denominator
        else:
            _check_finite(left, right)
            out_of_order = left > right
        if out_of_order:
            raise ValueError(f"interval endpoints out of order: [{left}, {right}]")


@_record
class Box:
    """Axis-parallel box given by its lower and upper corners; NaN and ±inf are rejected."""

    lower: tuple[Coord, Coord]
    upper: tuple[Coord, Coord]

    def __post_init__(self):
        if len(self.lower) != 2 or len(self.upper) != 2:
            raise ValueError(f"box corners must be pairs: {self.lower} / {self.upper}")
        _check_finite(*self.lower, *self.upper)
        if self.lower[0] > self.upper[0] or self.lower[1] > self.upper[1]:
            raise ValueError(f"box corners out of order: {self.lower} / {self.upper}")


class Poset:
    """Strict partial order on 0..n-1, transitively closed.

    Successor sets are bitmasks, so ``less`` is O(1) and closure-based
    constructions stay cheap up to a few thousand elements.
    """

    __slots__ = ("n", "_succ")

    def __init__(self, n: int, succ_masks: list[int]):
        self.n = n
        self._succ = tuple(succ_masks)

    @property
    def successor_masks(self) -> tuple[int, ...]:
        """Bit y of entry x is set iff x strictly precedes y; the stored tuple, not a copy."""
        return self._succ

    def less(self, x: int, y: int) -> bool:
        """True iff x strictly precedes y."""
        return (self._succ[x] >> y) & 1 == 1

    def successors(self, x: int) -> list[int]:
        """Elements strictly above x, ascending."""
        mask = self._succ[x]
        out = []
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return out

    def predecessors(self, y: int) -> list[int]:
        """Elements strictly below y, ascending."""
        return [x for x in range(self.n) if (self._succ[x] >> y) & 1]

    def pairs(self) -> list[tuple[int, int]]:
        """All comparable pairs (x, y) with x strictly below y."""
        return [(x, y) for x in range(self.n) for y in self.successors(x)]

    def relation_count(self) -> int:
        return sum(mask.bit_count() for mask in self._succ)

    def __eq__(self, other):
        return isinstance(other, Poset) and self.n == other.n and self._succ == other._succ

    def __hash__(self):
        return hash((self.n, self._succ))

    def __repr__(self):
        return f"Poset(n={self.n}, relations={self.pairs()!r})"


def _check_arity(k: int) -> int:
    """k as a plain int (numpy ints too, as ``_element_id`` reads them);
    ValueError for bools, floats and anything below 1."""
    try:
        arity = _element_id(k)
    except TypeError:
        arity = 0
    if arity < 1:
        raise ValueError(f"arity must be an integer >= 1, got {k!r}")
    return arity


def _element_id(value) -> int:
    """An int from anything with ``__index__`` (numpy ints too); floats, strings
    and bools raise TypeError instead of being truncated or coerced."""
    if isinstance(value, bool):
        raise TypeError(f"expected an integer, got {value!r}")
    return operator.index(value)


def poset_from_relations(n: int, pairs: Iterable[tuple[int, int]]) -> Poset:
    """Transitive closure of the given (smaller, larger) pairs.

    ``n`` and the ids must be integers (``operator.index``; bools are not):
    anything else raises TypeError.  Raises IdOutOfRange for ids outside
    0..n-1 (checked for every pair before any cycle) and CycleError if the
    closure would relate any element to itself.

    One pass over the pairs builds the direct successor masks.  The closure
    is a memoized depth-first search with an explicit stack, so long chains
    do not recurse.  Each node takes its successors lowest id first; a
    finished successor's closure is ORed in and its bits are cleared from the
    node's remaining successors, so a relation that an earlier successor
    already implies is never visited.  An input that is already closed thus
    costs about its transitive reduction, not all its relations.  A successor
    still on the stack closes a cycle.
    """
    if n.__class__ is not int:
        n = _element_id(n)
    if n < 0:
        raise ValueError(f"element count must be >= 0, got {n}")
    if n > sys.maxsize:
        raise ValueError(f"element count {n} is too large to index a list")
    direct = [0] * n
    for x, y in pairs:
        if x.__class__ is not int:
            x = _element_id(x)
        if y.__class__ is not int:
            y = _element_id(y)
        if not (0 <= x < n and 0 <= y < n):
            raise IdOutOfRange(f"relation ({x}, {y}) outside 0..{n - 1}")
        if x == y:
            raise CycleError(f"element {x} related to itself")
        direct[x] |= 1 << y

    closed = [0] * n
    state = bytearray(n)  # 0 unvisited, 1 on the stack, 2 finished
    for root in range(n):
        if state[root]:
            continue
        state[root] = 1
        # The frame being expanded lives in locals (node, closure so far,
        # successors not yet taken); its ancestors wait on the stack.
        x = root
        acc = rest = direct[root]
        stack = []
        while True:
            while rest:
                low = rest & -rest
                y = low.bit_length() - 1
                seen = state[y]
                if seen == 2:
                    covered = closed[y]
                    acc |= covered
                    rest &= ~(covered | low)
                elif seen == 1:
                    raise CycleError(f"relations contain a cycle through element {y}")
                else:
                    stack.append((x, acc, rest ^ low))
                    state[y] = 1
                    x = y
                    acc = rest = direct[y]
            closed[x] = acc
            state[x] = 2
            if not stack:
                break
            covered = acc
            x, acc, rest = stack.pop()
            acc |= covered
            rest &= ~covered
    return Poset(n, closed)


def _scale(ratios: Sequence[tuple[int, int]]) -> tuple[list[int], int]:
    """Exact ratios p/q (q > 0) as int keys on one scale L, the lcm of the
    denominators: key p * (L // q) is the value times L, so the keys are
    order-isomorphic to the values and key / L gives each value back.
    Returns the keys and L."""
    lcm = math.lcm(*{q for _, q in ratios})
    return [p * (lcm // q) for p, q in ratios], lcm


def _exact_value(p: int, q: int) -> Coord:
    """The value p/q (q > 0): an int when it is integral, else a Fraction."""
    if q == 1:
        return p
    value = Fraction(p, q)
    return value.numerator if value.denominator == 1 else value


def _exact_keys(values: Sequence[Coord]) -> Sequence[int]:
    """Exact, order-isomorphic int keys: key(a) <= key(b) iff a <= b.

    Exact for any mix of int, Fraction and finite float: the values' integer
    ratios go through ``_scale``, so values are only ever compared as ints.
    Plain ints (type exactly ``int``, so not bools or numpy integers) are
    their own keys, and then ``values`` itself is returned.  Keys can be any
    size.
    """
    if {*map(type, values)} == {int}:
        return values
    try:
        ratios = [v.as_integer_ratio() for v in values]
    except AttributeError:  # numpy integers are Rational but lack the method
        ratios = [
            (int(v.numerator), int(v.denominator))
            if isinstance(v, numbers.Rational)
            else v.as_integer_ratio()
            for v in values
        ]
    return _scale(ratios)[0]


def _row_item(kind: type, values: Sequence[Coord]):
    """The item of one CSV row: an Interval from (left, right), a Box from
    (lower x, lower y, upper x, upper y).  Raises the type's ValueError when
    the row is out of order."""
    if kind is Interval:
        return Interval(*values)
    return Box(tuple(values[:2]), tuple(values[2:]))


class _LazySequence(collections.abc.Sequence):
    """Read-only sequence over parallel columns whose entry i, built when it
    is read, is ``_entry(*(column[i] for column in _columns))``.  It equals,
    as a ``_like`` (tuple or list), any ``_like`` and any of its own kind."""

    __slots__ = ("_columns",)
    _like: type = tuple

    def __len__(self) -> int:
        return len(self._columns[0])

    def __getitem__(self, index):
        if isinstance(index, slice):
            sliced = copy.copy(self)
            sliced._columns = tuple(column[index] for column in self._columns)
            return sliced
        return self._entry(*[column[index] for column in self._columns])

    def __iter__(self):
        return map(self._entry, *self._columns)

    def __eq__(self, other):
        if isinstance(other, (self._like, type(self))):
            return self._like(self) == self._like(other)
        return NotImplemented

    def __repr__(self):
        return f"{type(self).__name__}({self._like(self)!r})"


class _KeyedItems(_LazySequence):
    """Lazy intervals or boxes (``kind``) held as columns of exact int keys
    on one scale, in CSV field order: coordinate c of item i is
    ``columns[c][i] / scale``, an int where it is integral, else a Fraction.
    It equals a list of equal items and, like a list, is unhashable."""

    __slots__ = ("_kind", "_scale")
    _like = list

    def __init__(self, kind: type, columns: Sequence[list[int]], scale: int):
        self._kind, self._columns, self._scale = kind, tuple(columns), scale

    def _entry(self, *keys: int):
        return _row_item(self._kind, [_exact_value(key, self._scale) for key in keys])


def _key_columns(items: Sequence, kind: type) -> tuple[tuple[list[int], ...], ...]:
    """Exact int keys of the items' low and high coordinates, one column
    each: ((left,), (right,)) for intervals, ((lower x, lower y), (upper x,
    upper y)) for boxes.  An axis's low and high columns share one scale.
    Items loaded from a file (a ``_KeyedItems`` of ``kind``) hand over their
    own columns; any other sequence has its coordinates read per axis.  An
    axis of plain ints (type exactly ``int``) is its own keys; any other
    axis is keyed by one ``_exact_keys`` call over its low and high values."""
    if isinstance(items, _KeyedItems) and items._kind is kind:
        half = len(items._columns) // 2
        return items._columns[:half], items._columns[half:]
    if kind is Interval:
        axes = [([item.left for item in items], [item.right for item in items])]
    else:
        axes = [([box.lower[a] for box in items], [box.upper[a] for box in items]) for a in (0, 1)]
    lows, highs = [], []
    for low, high in axes:
        if {*map(type, low)} != {int} or {*map(type, high)} != {int}:
            keys = _exact_keys(low + high)
            low, high = keys[:len(low)], keys[len(low):]
        lows.append(low)
        highs.append(high)
    return tuple(lows), tuple(highs)


def _permutation_error(seq: list[int]) -> NotAPermutation:
    """The error for a list of ints that is not a bijection on 0..n-1: it
    names the first value out of range or repeated, and its position."""
    n = len(seq)
    # The loop breaks: n distinct values in 0..n-1 would be a bijection.
    first: dict[int, int] = {}
    for pos, value in enumerate(seq):
        if not 0 <= value < n:
            problem = "is out of range"
            break
        if value in first:
            problem = f"repeats position {first[value]}"
            break
        first[value] = pos
    return NotAPermutation(
        f"not a bijection on 0..{n - 1}: value {value} at position {pos} {problem}"
    )


def _check_distinct_points(low: tuple, high: tuple) -> None:
    """CycleError if two items are one point: low == high in every key array,
    and equal.  It names the first item by id that repeats an earlier point,
    and the first item at that point.  Only zero-extent items are compared:
    each axis's keys among them are numbered 0, 1, ... (``np.unique``'s
    inverse, on int64 and object keys alike) into one int64 key per item."""
    import numpy as np

    ids = np.flatnonzero(np.logical_and.reduce([lo == hi for lo, hi in zip(low, high)]))
    m = len(ids)
    key = np.zeros(m, dtype=np.int64)
    for lo in low:
        key = key * m + np.unique(lo[ids], return_inverse=True)[1]
    order = np.argsort(key, kind="stable")
    ranked = key[order]
    repeats = order[1:][ranked[1:] == ranked[:-1]]
    if len(repeats):
        i = repeats.min()
        first = order[np.searchsorted(ranked, key[i])]
        raise CycleError(f"items {ids[first]} and {ids[i]} are one point and dominate each other")


def _key_array(keys: Sequence[int]):
    """Exact int keys as one numpy array: int64 when every key fits, else
    object.  ``np.asarray`` would guess float64 for ``[3, 2**63 + 1]`` and round."""
    import numpy as np

    try:
        return np.array(keys, dtype=np.int64)
    except OverflowError:
        return np.array(keys, dtype=object)


def _box_arrays(low: tuple[Sequence[int], ...], high: tuple[Sequence[int], ...]):
    """Box key columns, shaped as ``_key_columns`` gives them, as four key arrays
    (lo_x, lo_y, hi_x, hi_y), after checking that no point repeats."""
    n = len(low[0])
    xs, ys = (_key_array([*lo, *hi]) for lo, hi in zip(low, high))
    lows, highs = (xs[:n], ys[:n]), (xs[n:], ys[n:])
    _check_distinct_points(lows, highs)
    return *lows, *highs


def _interval_boxes(items: Sequence[Interval], as_set: bool) -> tuple:
    """Intervals as box key arrays: item i of a sequence is (i, left)-(i, right),
    an item of a set the zero-width (right, left)-(right, right), whose x
    bounds are both the one right-key array."""
    (lefts,), (rights,) = _key_columns(items, Interval)
    n = len(lefts)
    ys = _key_array([*lefts, *rights])
    if as_set:
        _check_distinct_points((ys[:n],), (ys[n:],))
        xs = ys[n:]
    else:
        import numpy as np

        xs = np.arange(n, dtype=np.int64)
    return xs, ys[:n], xs, ys[n:]


def _permutation_points(perm: Iterable[int]) -> tuple:
    """A permutation as box key arrays: value v at position p is the point
    (p, v), box v.  No two points share an x, so none repeats.  TypeError for
    values that are not integers (floats, bools); NotAPermutation, from
    ``_permutation_error``, unless the sequence is a bijection on 0..n-1."""
    import numpy as np

    seq = [v if v.__class__ is int else _element_id(v) for v in perm]
    values = np.arange(len(seq))
    try:
        keys = np.array(seq, dtype=np.int64)
    except OverflowError:  # a value past int64 is out of range
        raise _permutation_error(seq) from None
    positions = np.argsort(keys)
    if not (keys[positions] == values).all():
        raise _permutation_error(seq)
    return positions, values, positions, values


def _box_poset(*bounds) -> Poset:
    """The one dominance builder, on the key arrays of d-dimensional boxes,
    the d lower bounds then the d upper bounds (lo_x, lo_y, hi_x, hi_y for
    d = 2): less(i, j) iff i != j and upper(i) <= lower(j) on every axis.
    The caller checks for repeated points."""
    import numpy as np

    d, n = len(bounds) // 2, len(bounds[0])
    # Each axis's keys, int64 or object, ranked 0, 1, ... to fit the kernel's int64 blocks.
    axes = [np.unique(np.concatenate(axis), return_inverse=True)[1]
            for axis in zip(bounds[:d], bounds[d:])]
    lows, highs = np.array(axes, dtype=np.int64).reshape(d, 2, n).swapaxes(0, 1)
    masks: list[int] = []
    for start in range(0, n, _BLOCK_ROWS):
        rows = np.arange(start, min(start + _BLOCK_ROWS, n))
        less = highs[0, rows, None] <= lows[0]
        for high, low in zip(highs[1:], lows[1:]):
            less &= high[rows, None] <= low
        less[rows - start, rows] = False
        packed = np.packbits(less, axis=1, bitorder="little")
        masks.extend(int.from_bytes(row.tobytes(), "little") for row in packed)
    return Poset(n, masks)


def poset_from_permutation(perm: Iterable[int]) -> Poset:
    """Permutation order: less(a, b) iff a < b and a appears before b."""
    return _box_poset(*_permutation_points(perm))


def poset_from_interval_set(items: Sequence[Interval]) -> Poset:
    """Interval dominance: less(i, j) iff items[i].right <= items[j].left.
    That one axis decides it: right_i <= left_j implies right_i <= right_j."""
    _, lefts, _, rights = _interval_boxes(items, as_set=True)
    return _box_poset(lefts, rights)


def poset_from_interval_sequence(items: Sequence[Interval]) -> Poset:
    """Sequence order: less(i, j) iff i < j and items[i].right <= items[j].left."""
    return _box_poset(*_interval_boxes(items, as_set=False))


def poset_from_box_set(items: Sequence[Box]) -> Poset:
    """Box dominance: componentwise upper(i) <= lower(j)."""
    return _box_poset(*_box_arrays(*_key_columns(items, Box)))


@_record
class HeapForest:
    """Partition of elements into rooted trees with at most k children per node.

    ``parent`` maps every covered element to its parent id, or None for roots.
    """

    k: int
    parent: Mapping[int, Optional[int]]

    @property
    def roots(self) -> tuple[int, ...]:
        return tuple(sorted(e for e, p in self.parent.items() if p is None))

    def children_of(self, x: int) -> tuple[int, ...]:
        return tuple(sorted(c for c, p in self.parent.items() if p == x))


def verify_forest(poset: Poset, forest: HeapForest, k: int) -> bool:
    """Validate a forest against a poset: coverage, arity <= k, parent precedes child.

    Raises ElementMismatch when the forest covers a different element set;
    dominance, arity and partition violations just return False.
    """
    k = _check_arity(k)
    if set(forest.parent) != set(range(poset.n)):
        raise ElementMismatch(
            f"forest covers {len(forest.parent)} elements, poset has {poset.n}"
        )
    child_count = dict.fromkeys(forest.parent, 0)
    for child, par in forest.parent.items():
        if par is None:
            continue
        if par not in child_count:
            return False
        child_count[par] += 1
        if child_count[par] > k:
            return False
        # Strict dominance also rules out parent-pointer cycles.
        if not poset.less(par, child):
            return False
    return True
