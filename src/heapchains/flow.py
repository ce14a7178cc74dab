"""Exact minimum partition into k-ary chains via matching on the k-split graph.

Each element contributes a minus node of capacity k (it may feed up to k
children) and a plus node of capacity 1 (it has at most one parent); an edge
joins x-minus to y-plus whenever x strictly precedes y.  A maximum matching
that respects these capacities leaves exactly ``n - |matching|`` elements
parentless, and those are the chain roots of an optimal partition.

The matching is a max flow on the network
``source -(k)-> minus -(1)-> plus -(1)-> sink``, found by augmenting paths
on the poset's own successor bitmasks, which the split graph shares: a
greedy start, then one breadth-first search per augmentation from every
minus node with spare capacity, each step taking a row's unseen plus nodes
in one mask operation.  A search that reaches no
free plus node proves the matching maximum (max-flow/min-cut).  Ascending
ids everywhere keep the result deterministic.
"""

from __future__ import annotations

from .poset import HeapForest, Poset, _check_arity, _record, verify_forest


class InvalidMatching(ValueError):
    """An edge set violates the left-k / right-1 degree constraints."""


@_record
class SplitGraph:
    """Bipartite split graph of a poset, capacities folded into the nodes.

    ``succ`` holds the poset's successor masks themselves, not a copy: bit y
    of ``succ[x]`` is the edge x-minus to y-plus.  Every minus node has
    capacity k, every plus node capacity 1.
    """

    n: int
    k: int
    succ: tuple[int, ...]

    def edge_count(self) -> int:
        return sum(mask.bit_count() for mask in self.succ)


@_record
class LeftKMatching:
    """Chosen (x, y) edges with out-degree <= k per x and in-degree <= 1 per y."""

    k: int
    edges: frozenset[tuple[int, int]]

    def __len__(self) -> int:
        return len(self.edges)


def build_split_graph(poset: Poset, k: int) -> SplitGraph:
    """Split graph sharing the poset's successor masks; nothing is copied."""
    return SplitGraph(poset.n, _check_arity(k), poset.successor_masks)


def max_left_k_matching(graph: SplitGraph) -> LeftKMatching:
    """Maximum-cardinality matching respecting the split-graph capacities.

    Greedy start, then one breadth-first alternating-path search per
    augmentation until a search finds no free plus node.
    """
    n, k = graph.n, graph.k
    succ = graph.succ
    mate = [-1] * n  # left owner of each plus node
    load = [0] * n  # children of each left node
    free = (1 << n) - 1  # plus nodes without a parent
    for x in range(n):
        avail = succ[x] & free
        while avail and load[x] < k:
            low = avail & -avail
            avail ^= low
            free ^= low
            mate[low.bit_length() - 1] = x
            load[x] += 1

    while free:
        # via[x] is the plus node the search reached x through (-1 for a
        # source), found_by[y] the left node whose row discovered y.
        via = [-2] * n
        found_by = [-1] * n
        queue = [x for x in range(n) if load[x] < k]
        for x in queue:
            via[x] = -1
        unseen = (1 << n) - 1
        end = -1
        for x in queue:
            new = succ[x] & unseen
            if not new:
                continue
            hit = new & free
            if hit:
                end, y = x, (hit & -hit).bit_length() - 1
                break
            unseen ^= new
            while new:
                low = new & -new
                new ^= low
                z = low.bit_length() - 1
                found_by[z] = x
                owner = mate[z]
                if via[owner] == -2:
                    via[owner] = z
                    queue.append(owner)
        if end < 0:
            break
        # Flip the path: each left node on it trades the plus node it was
        # reached through for the next one, and the source gains a child.
        free ^= 1 << y
        x = end
        while True:
            mate[y] = x
            y = via[x]
            if y < 0:
                load[x] += 1
                break
            x = found_by[y]
    return LeftKMatching(k, frozenset((mate[y], y) for y in range(n) if mate[y] >= 0))


def matching_to_partition(poset: Poset, matching: LeftKMatching) -> HeapForest:
    """Forest with parent(y) = x for each chosen edge; unmatched elements are roots.

    Raises InvalidMatching on an id outside 0..n-1, on a second parent, and
    unless ``verify_forest`` accepts the forest (edges in the poset, <= k children).
    """
    parent: dict[int, int | None] = dict.fromkeys(range(poset.n))
    for x, y in sorted(matching.edges):
        if x not in parent or y not in parent:
            raise InvalidMatching(f"edge ({x}, {y}) names an id outside 0..{poset.n - 1}")
        if parent[y] is not None:
            raise InvalidMatching(f"element {y} matched to two parents")
        parent[y] = x
    forest = HeapForest(matching.k, parent)
    if not verify_forest(poset, forest, matching.k):
        raise InvalidMatching(f"edges leave the split graph or exceed k={matching.k} children")
    return forest


def k_width(poset: Poset, k: int) -> tuple[int, HeapForest]:
    """Minimum number of k-ary chains partitioning the poset, with a witness."""
    matching = max_left_k_matching(build_split_graph(poset, k))
    forest = matching_to_partition(poset, matching)
    return poset.n - len(matching), forest
