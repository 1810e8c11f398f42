"""Tests for fixed-port interval tree routing (Lemma 14 substrate)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConstructionError, TableLookupError
from repro.graph.digraph import Digraph
from repro.graph.generators import random_strongly_connected
from repro.graph.shortest_paths import DistanceOracle, dijkstra
from repro.tree_routing.fixed_port import (
    IntervalForest,
    OutTreeRouter,
    ToRootPointers,
    TreeAddress,
    build_out_tree,
)


def shortest_path_out_tree(g: Digraph, root: int) -> list:
    _dist, parents = dijkstra(g, root)
    return parents


def shortest_path_in_pointers(g: Digraph, root: int) -> list:
    _dist, succ = dijkstra(g, root, reverse=True)
    return succ


class TestOutTreeRouter:
    def test_route_on_random_sp_tree(self):
        g = random_strongly_connected(30, rng=random.Random(1))
        oracle = DistanceOracle(g)
        parents = shortest_path_out_tree(g, 0)
        tree = OutTreeRouter(g, 0, parents, tree_id=7)
        for v in range(g.n):
            path = tree.route(0, v)
            assert path[0] == 0 and path[-1] == v
            # route is exactly optimal from the root (Lemma 14)
            total = sum(g.weight(a, b) for a, b in zip(path, path[1:]))
            assert total == pytest.approx(oracle.d(0, v))

    def test_route_from_interior_vertex(self):
        g = random_strongly_connected(25, rng=random.Random(2))
        parents = shortest_path_out_tree(g, 3)
        tree = OutTreeRouter(g, 3, parents, tree_id=0)
        # pick a vertex with a deep subtree: route from it to any
        # descendant must stay in its subtree
        for v in range(g.n):
            tree.address_of(v)
            # from the root, always routable
            assert tree.route(3, v)[-1] == v

    def test_addresses_unique(self):
        g = random_strongly_connected(20, rng=random.Random(3))
        tree = OutTreeRouter(g, 0, shortest_path_out_tree(g, 0), tree_id=1)
        addrs = {tree.address_of(v).dfs for v in range(g.n)}
        assert len(addrs) == g.n

    def test_next_port_none_at_target(self):
        g = random_strongly_connected(10, rng=random.Random(4))
        tree = OutTreeRouter(g, 0, shortest_path_out_tree(g, 0), tree_id=0)
        assert tree.next_port(5, tree.address_of(5)) is None

    def test_wrong_tree_address_rejected(self):
        g = random_strongly_connected(10, rng=random.Random(5))
        tree = OutTreeRouter(g, 0, shortest_path_out_tree(g, 0), tree_id=3)
        with pytest.raises(TableLookupError):
            tree.next_port(0, TreeAddress(tree_id=99, dfs=1))

    def test_outside_subtree_rejected(self):
        # Line 0 -> 1, 0 -> 2: from 1 you cannot route to 2.
        g = Digraph(3)
        g.add_edge(0, 1, 1.0)
        g.add_edge(0, 2, 1.0)
        g.add_edge(1, 0, 1.0)  # make strongly connectable, unused by tree
        g.add_edge(2, 0, 1.0)
        g.freeze()
        tree = OutTreeRouter(g, 0, [-1, 0, 0], tree_id=0)
        with pytest.raises(TableLookupError):
            tree.next_port(1, tree.address_of(2))

    def test_non_member_rejected(self):
        g = Digraph(3)
        g.add_edge(0, 1, 1.0)
        g.add_edge(1, 0, 1.0)
        g.add_edge(1, 2, 1.0)
        g.add_edge(2, 1, 1.0)
        g.freeze()
        tree = OutTreeRouter(g, 0, [-1, 0, -1], tree_id=0)  # 2 not in tree
        assert not tree.contains(2)
        with pytest.raises(TableLookupError):
            tree.address_of(2)
        with pytest.raises(TableLookupError):
            tree.next_port(2, tree.address_of(1))

    def test_missing_edge_rejected(self):
        g = Digraph(3)
        g.add_edge(0, 1, 1.0)
        g.add_edge(1, 2, 1.0)
        g.add_edge(2, 0, 1.0)
        g.freeze()
        with pytest.raises(ConstructionError, match="not present"):
            OutTreeRouter(g, 0, [-1, 0, 0], tree_id=0)  # edge (0,2) missing

    def test_vertex_cut_off_from_root_rejected(self):
        # 2's parent 1 has no parent and is not the root.
        g = Digraph(3)
        g.add_edge(0, 1, 1.0)
        g.add_edge(1, 2, 1.0)
        g.add_edge(2, 0, 1.0)
        g.freeze()
        with pytest.raises(ConstructionError, match="disconnected"):
            OutTreeRouter(g, 0, [-1, -1, 1], tree_id=0)

    def test_cyclic_parents_rejected(self):
        g = Digraph(3)
        g.add_edge(0, 1, 1.0)
        g.add_edge(1, 2, 1.0)
        g.add_edge(2, 1, 1.0)
        g.add_edge(1, 0, 1.0)
        g.freeze()
        with pytest.raises(ConstructionError, match="cycle"):
            OutTreeRouter(g, 0, [-1, 2, 1], tree_id=0)

    @pytest.mark.parametrize("length", [2, 3, 4, 5, 8])
    def test_cycles_of_every_length_rejected(self, length):
        # Vertices 1..length form a cycle, with a tail hanging off it;
        # power-of-two lengths map back onto themselves under pointer
        # jumping and must still be reported as cycles.
        n = 12
        g = Digraph(n)
        for u in range(n):
            for v in range(n):
                if u != v:
                    g.add_edge(u, v, 1.0)
        g.freeze()
        parents = [-1] * n
        for i in range(1, length + 1):
            parents[i] = i % length + 1
        parents[length + 1] = 1
        with pytest.raises(ConstructionError, match="cycle"):
            OutTreeRouter(g, 0, parents, tree_id=0)
        with pytest.raises(ConstructionError, match="cycle"):
            IntervalForest(g, [0, 0], [[-1, 0] + [0] * (n - 2), parents])

    def test_members_listing(self):
        g = random_strongly_connected(12, rng=random.Random(6))
        tree = OutTreeRouter(g, 0, shortest_path_out_tree(g, 0), tree_id=0)
        assert tree.members() == list(range(12))

    def test_table_entries_counts_children(self):
        g = Digraph(4)
        g.add_edge(0, 1, 1.0)
        g.add_edge(0, 2, 1.0)
        g.add_edge(0, 3, 1.0)
        for v in (1, 2, 3):
            g.add_edge(v, 0, 1.0)
        g.freeze()
        tree = OutTreeRouter(g, 0, [-1, 0, 0, 0], tree_id=0)
        assert tree.table_entries_at(0) == 2 + 3 * 3
        assert tree.table_entries_at(1) == 2
        assert tree.table_entries_at(99 % 4) >= 0

    def test_address_bit_size(self):
        addr = TreeAddress(3, 100)
        assert addr.bit_size(1024) == 2 * 10


class TestRestrictedTree:
    def test_pruning_keeps_steiner_vertices(self):
        # Path 0 -> 1 -> 2; restricting to {2} must keep 1 as Steiner.
        g = Digraph(3)
        g.add_edge(0, 1, 1.0)
        g.add_edge(1, 2, 1.0)
        g.add_edge(2, 0, 1.0)
        g.freeze()
        tree = build_out_tree(g, 0, [-1, 0, 1], tree_id=0, restrict_to=[2])
        assert tree.contains(1)
        assert tree.route(0, 2) == [0, 1, 2]

    def test_pruning_drops_unneeded_branches(self):
        g = Digraph(4)
        g.add_edge(0, 1, 1.0)
        g.add_edge(0, 3, 1.0)
        g.add_edge(1, 2, 1.0)
        g.add_edge(2, 0, 1.0)
        g.add_edge(3, 0, 1.0)
        g.freeze()
        tree = build_out_tree(g, 0, [-1, 0, 1, 0], tree_id=0, restrict_to=[2])
        assert tree.contains(2) and tree.contains(1)
        assert not tree.contains(3)

    def test_unrestricted_spans_everything(self):
        g = random_strongly_connected(15, rng=random.Random(7))
        tree = build_out_tree(g, 0, shortest_path_out_tree(g, 0), tree_id=0)
        assert len(tree.members()) == 15


class TestToRootPointers:
    def test_routes_to_root_optimally(self):
        g = random_strongly_connected(30, rng=random.Random(8))
        oracle = DistanceOracle(g)
        pointers = ToRootPointers(g, 5, shortest_path_in_pointers(g, 5))
        for v in range(g.n):
            path = pointers.route(v)
            assert path[0] == v and path[-1] == 5
            total = sum(g.weight(a, b) for a, b in zip(path, path[1:]))
            assert total == pytest.approx(oracle.d(v, 5))

    def test_next_port_none_at_root(self):
        g = random_strongly_connected(10, rng=random.Random(9))
        pointers = ToRootPointers(g, 2, shortest_path_in_pointers(g, 2))
        assert pointers.next_port(2) is None

    def test_missing_pointer_raises(self):
        g = Digraph(3)
        g.add_edge(0, 1, 1.0)
        g.add_edge(1, 0, 1.0)
        g.add_edge(1, 2, 1.0)
        g.add_edge(2, 1, 1.0)
        g.freeze()
        pointers = ToRootPointers(g, 0, [-1, 0, -1])
        assert not pointers.contains(2)
        with pytest.raises(TableLookupError):
            pointers.next_port(2)

    def test_missing_edge_rejected(self):
        g = Digraph(3)
        g.add_edge(0, 1, 1.0)
        g.add_edge(1, 2, 1.0)
        g.add_edge(2, 0, 1.0)
        g.freeze()
        with pytest.raises(ConstructionError):
            ToRootPointers(g, 0, [-1, 0, 0])  # edge (2, 0) exists, (1,0) doesn't

    def test_table_entries(self):
        g = random_strongly_connected(10, rng=random.Random(10))
        pointers = ToRootPointers(g, 0, shortest_path_in_pointers(g, 0))
        assert pointers.table_entries_at(0) == 0
        assert all(pointers.table_entries_at(v) == 1 for v in range(1, 10))


# ----------------------------------------------------------------------
# array numbering == a recursive reference DFS
# ----------------------------------------------------------------------
def reference_numbering(root, parents):
    """Preorder numbers, interval ends and sorted children of the tree
    rooted at ``root`` (children visited in ascending vertex order)."""
    children = {}
    for v, p in enumerate(parents):
        if v != root and p >= 0:
            children.setdefault(p, []).append(v)
    dfs, end = {}, {}

    def visit(v):
        dfs[v] = len(dfs)
        for c in sorted(children.get(v, [])):
            visit(c)
        end[v] = len(dfs)

    visit(root)
    return dfs, end, children


@st.composite
def rooted_trees(draw, n):
    """One tree over a random member subset of ``0..n-1``: a path of
    depth ``|members| - 1``, a star, or random attachment; vertices
    outside the subset have parent -1."""
    order = draw(st.permutations(range(n)))
    members = order[: draw(st.integers(1, n))]
    shape = draw(st.sampled_from(("path", "star", "random")))
    parents = [-1] * n
    for i, v in enumerate(members[1:], start=1):
        if shape == "path":
            parents[v] = members[i - 1]
        elif shape == "star":
            parents[v] = members[0]
        else:
            parents[v] = members[draw(st.integers(0, i - 1))]
    return members[0], parents


@st.composite
def forests(draw):
    n = draw(st.integers(1, 40))
    trees = draw(st.lists(rooted_trees(n), min_size=1, max_size=4))
    return n, trees


def _graph_with_tree_edges(n, trees, seed):
    g = Digraph(n)
    edges = {(p, v) for _root, parents in trees for v, p in enumerate(parents) if p >= 0}
    for p, v in sorted(edges):
        g.add_edge(p, v, 1.0)
    return g.freeze(port_rng=random.Random(seed))


def _assert_matches_reference(g, forest, t, root, parents):
    dfs, end, children = reference_numbering(root, parents)
    expected = [dfs.get(v, -1) for v in range(g.n)]
    assert forest.dfs[t].tolist() == expected
    for v in range(g.n):
        lo, hi = forest.row_ptr[t * g.n + v : t * g.n + v + 2]
        rows = list(zip(
            forest.row_child[lo:hi].tolist(), forest.row_lo[lo:hi].tolist(),
            forest.row_hi[lo:hi].tolist(), forest.row_port[lo:hi].tolist(),
        ))
        assert rows == [
            (c, dfs[c], end[c], g.port_of(v, c)) for c in sorted(children.get(v, []))
        ]


class TestArrayNumbering:
    @settings(max_examples=40, deadline=None)
    @given(forests(), st.integers(0, 2**16))
    def test_forest_equals_reference_dfs(self, case, seed):
        n, trees = case
        g = _graph_with_tree_edges(n, trees, seed)
        forest = IntervalForest(g, [r for r, _ in trees], [p for _, p in trees])
        for t, (root, parents) in enumerate(trees):
            _assert_matches_reference(g, forest, t, root, parents)

    @settings(max_examples=40, deadline=None)
    @given(forests(), st.integers(0, 2**16))
    def test_single_tree_router_equals_reference_dfs(self, case, seed):
        n, trees = case
        root, parents = trees[0]
        g = _graph_with_tree_edges(n, trees[:1], seed)
        tree = OutTreeRouter(g, root, parents, tree_id=5)
        _assert_matches_reference(g, tree, 0, root, parents)
        dfs, _end, _children = reference_numbering(root, parents)
        assert tree.members() == sorted(dfs)
        for v, number in dfs.items():
            assert tree.address_of(v) == TreeAddress(5, number)
            path = [v]
            while path[-1] != root:
                path.append(parents[path[-1]])
            assert tree.route(root, v) == path[::-1]

    def test_deep_path_and_wide_star(self):
        n = 300
        path = [-1] + list(range(n - 1))
        star = [-1] + [0] * (n - 1)
        g = _graph_with_tree_edges(n, [(0, path), (0, star)], 1)
        forest = IntervalForest(g, [0, 0], [path, star])
        assert forest.dfs[0].tolist() == list(range(n))
        assert forest.dfs[1].tolist() == list(range(n))
        path_rows = slice(forest.row_ptr[0], forest.row_ptr[n])
        assert forest.row_lo[path_rows].tolist() == list(range(1, n))
        assert forest.row_hi[path_rows].tolist() == [n] * (n - 1)
        star_rows = slice(forest.row_ptr[n], forest.row_ptr[n + 1])
        assert forest.row_lo[star_rows].tolist() == list(range(1, n))
        assert forest.row_hi[star_rows].tolist() == list(range(2, n + 1))
