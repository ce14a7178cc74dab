import random

import pytest

from heapchains import (
    InvalidMatching,
    LeftKMatching,
    build_split_graph,
    greedy_partition_permutation,
    greedy_partition_sequence,
    greedy_partition_set,
    k_width,
    matching_to_partition,
    max_left_k_matching,
    oracle_k_width,
    oracle_width_antichain,
    poset_from_box_set,
    poset_from_interval_sequence,
    poset_from_interval_set,
    poset_from_permutation,
    poset_from_relations,
    sweep_partition,
    verify_forest,
)

from conftest import random_boxes_distinct, random_intervals, random_poset


def chain(n):
    return poset_from_relations(n, [(i, i + 1) for i in range(n - 1)])


def antichain(n):
    return poset_from_relations(n, [])


class TestSplitGraph:
    def test_chain_closure_edges(self):
        g = build_split_graph(chain(3), 2)
        assert g.succ == (0b110, 0b100, 0)
        assert g.edge_count() == 3
        assert g.k == 2

    def test_antichain_no_edges(self):
        assert build_split_graph(antichain(4), 1).edge_count() == 0

    def test_s1_edge_count_matches_pair_count(self, s1_items):
        p = poset_from_interval_sequence(s1_items)
        want = sum(
            1
            for i in range(len(s1_items))
            for j in range(i + 1, len(s1_items))
            if s1_items[i].right <= s1_items[j].left
        )
        assert build_split_graph(p, 2).edge_count() == want

    def test_holds_poset_masks_uncopied(self):
        rng = random.Random(3)
        for _ in range(30):
            p = random_poset(rng, max_n=60)
            g = build_split_graph(p, rng.randint(1, 3))
            assert g.succ is p.successor_masks
            assert g.edge_count() == p.relation_count()
            for x in range(p.n):
                assert [y for y in range(p.n) if g.succ[x] >> y & 1] == p.successors(x)


class TestMatching:
    def test_chain_k1(self):
        m = max_left_k_matching(build_split_graph(chain(3), 1))
        assert len(m) == 2

    def test_antichain_empty(self):
        assert len(max_left_k_matching(build_split_graph(antichain(5), 2))) == 0

    def test_star_k2(self):
        star = poset_from_relations(4, [(0, 1), (0, 2), (0, 3)])
        m = max_left_k_matching(build_split_graph(star, 2))
        assert len(m) == 2
        assert all(x == 0 for x, _ in m.edges)
        assert oracle_k_width(star, 2) == 4 - len(m)

    def test_degree_constraints_on_random_posets(self):
        rng = random.Random(4)
        for _ in range(40):
            p = random_poset(rng)
            k = rng.randint(1, 3)
            m = max_left_k_matching(build_split_graph(p, k))
            out = [0] * p.n
            seen_plus = set()
            for x, y in m.edges:
                assert p.less(x, y)
                out[x] += 1
                assert y not in seen_plus
                seen_plus.add(y)
            assert all(d <= k for d in out)

    def test_size_matches_networkx_max_flow(self):
        # Independent reference: networkx max flow on the network
        # source -(k)-> minus -(1)-> plus -(1)-> sink.
        import networkx as nx

        rng = random.Random(5)
        for _ in range(40):
            p = random_poset(rng, max_n=120, min_n=20)
            k = rng.randint(1, 4)
            net = nx.DiGraph()
            for x in range(p.n):
                net.add_edge("s", ("-", x), capacity=k)
                net.add_edge(("+", x), "t", capacity=1)
                for y in p.successors(x):
                    net.add_edge(("-", x), ("+", y), capacity=1)
            want = nx.maximum_flow_value(net, "s", "t")
            assert len(max_left_k_matching(build_split_graph(p, k))) == want

    def test_deterministic_edges(self):
        rng = random.Random(6)
        for _ in range(20):
            p = random_poset(rng, max_n=60, min_n=10)
            k = rng.randint(1, 3)
            first = max_left_k_matching(build_split_graph(p, k))
            assert max_left_k_matching(build_split_graph(p, k)).edges == first.edges


class TestPartitionReconstruction:
    def test_empty_matching_all_roots(self):
        p = antichain(4)
        forest = matching_to_partition(p, LeftKMatching(2, frozenset()))
        assert forest.roots == (0, 1, 2, 3)

    def test_chain_path(self):
        p = chain(3)
        forest = matching_to_partition(p, LeftKMatching(1, frozenset({(0, 1), (1, 2)})))
        assert forest.parent == {0: None, 1: 0, 2: 1}
        assert verify_forest(p, forest, 1)

    def test_s1_worked_matching_reconstructs_worked_forest(self, s1_items):
        p = poset_from_interval_sequence(s1_items)
        worked_edges = frozenset({(0, 4), (0, 5), (1, 2), (2, 3), (2, 8), (6, 7), (6, 9)})
        forest = matching_to_partition(p, LeftKMatching(2, worked_edges))
        assert forest.roots == (0, 1, 6)
        assert forest.children_of(0) == (4, 5)
        assert forest.children_of(2) == (3, 8)
        assert forest.children_of(6) == (7, 9)
        assert verify_forest(p, forest, 2)

    def test_rejects_double_parent(self):
        with pytest.raises(InvalidMatching):
            matching_to_partition(chain(3), LeftKMatching(1, frozenset({(0, 2), (1, 2)})))

    def test_rejects_arity_overflow(self):
        star = poset_from_relations(3, [(0, 1), (0, 2)])
        with pytest.raises(InvalidMatching):
            matching_to_partition(star, LeftKMatching(1, frozenset({(0, 1), (0, 2)})))

    def test_rejects_foreign_edge(self):
        with pytest.raises(InvalidMatching):
            matching_to_partition(antichain(2), LeftKMatching(1, frozenset({(0, 1)})))

    @pytest.mark.parametrize("edge", [(5, 1), (0, -1), (0, 7), (-1, 2)])
    def test_rejects_ids_outside_poset(self, edge):
        with pytest.raises(InvalidMatching):
            matching_to_partition(chain(3), LeftKMatching(1, frozenset({edge})))

    def test_root_count_is_n_minus_matching_size(self):
        rng = random.Random(9)
        for _ in range(60):
            p = random_poset(rng)
            k = rng.randint(1, 3)
            m = max_left_k_matching(build_split_graph(p, k))
            # any sub-matching is valid too
            kept = frozenset(e for e in m.edges if rng.random() < 0.7)
            forest = matching_to_partition(p, LeftKMatching(k, kept))
            assert len(forest.roots) == p.n - len(kept)


class TestKWidth:
    def test_s1_sequence_is_three(self, s1_items):
        count, forest = k_width(poset_from_interval_sequence(s1_items), 2)
        assert count == 3
        assert len(forest.roots) == 3

    def test_antichain(self):
        for k in (1, 2, 4):
            assert k_width(antichain(5), k)[0] == 5

    def test_chain_any_k(self):
        assert k_width(chain(7), 3)[0] == 1
        assert k_width(chain(7), 1)[0] == 1

    def test_witness_always_valid(self):
        rng = random.Random(13)
        for _ in range(50):
            p = random_poset(rng)
            k = rng.randint(1, 3)
            count, forest = k_width(p, k)
            assert verify_forest(p, forest, k)
            assert len(forest.roots) == count
            assert 1 <= count <= p.n or p.n == 0

    def test_matches_oracle_small(self):
        rng = random.Random(21)
        for _ in range(80):
            p = random_poset(rng, max_n=6)
            for k in (1, 2, 3):
                assert k_width(p, k)[0] == oracle_k_width(p, k)

    def test_k1_width_equals_largest_antichain(self):
        rng = random.Random(22)
        for _ in range(80):
            p = random_poset(rng, max_n=7)
            assert k_width(p, 1)[0] == oracle_width_antichain(p)

    def test_monotone_in_k(self):
        rng = random.Random(23)
        for _ in range(40):
            p = random_poset(rng)
            counts = [k_width(p, k)[0] for k in (1, 2, 3, 4)]
            assert all(a >= b for a, b in zip(counts, counts[1:]))

    @pytest.mark.parametrize("variant", ["sequence", "set", "permutation", "sweep"])
    def test_fast_solver_matches_at_n_1500(self, variant):
        rng = random.Random(1500)
        n, k = 1500, 2
        if variant == "sequence":
            items = random_intervals(rng, n)
            poset = poset_from_interval_sequence(items)
            count, forest = greedy_partition_sequence(items, k)[:2]
        elif variant == "set":
            items = random_intervals(rng, n)
            poset = poset_from_interval_set(items)
            count, forest = greedy_partition_set(items, k)[:2]
        elif variant == "permutation":
            perm = rng.sample(range(n), n)
            poset = poset_from_permutation(perm)
            count, forest = greedy_partition_permutation(perm, k)
        else:
            boxes = random_boxes_distinct(rng, n)
            poset = poset_from_box_set(boxes)
            count, forest = sweep_partition(boxes, k)
        flow_count, flow_forest = k_width(poset, k)
        assert count == flow_count
        assert len(forest.roots) == len(flow_forest.roots) == count
        assert verify_forest(poset, forest, k)
        assert verify_forest(poset, flow_forest, k)

    def test_count_n_iff_antichain(self):
        rng = random.Random(24)
        for _ in range(40):
            p = random_poset(rng)
            assert (k_width(p, 2)[0] == p.n) == (p.relation_count() == 0)
