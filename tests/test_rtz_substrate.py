"""Tests for the RTZ substrate: Lemma 2 legs and Lemma 5 handshakes."""

from __future__ import annotations

import random

import pytest

from repro.exceptions import ConstructionError
from repro.graph.generators import (
    asymmetric_torus,
    bidirected_torus,
    directed_cycle,
    random_dht_overlay,
    random_strongly_connected,
)
from repro.graph.roundtrip import RoundtripMetric
from repro.graph.shortest_paths import DistanceOracle, path_length
from repro.rtz.centers import CenterAssignment, sample_centers
from repro.rtz.routing import RTZStretch3
from repro.rtz.spanner import HandshakeSpanner


def make_metric(g) -> RoundtripMetric:
    return RoundtripMetric(DistanceOracle(g))


def metric_for(n: int, seed: int) -> RoundtripMetric:
    return make_metric(random_strongly_connected(n, rng=random.Random(seed)))


class TestCenters:
    def test_sample_size_default(self):
        a = sample_centers(100, random.Random(1))
        assert len(a) == 10

    def test_sample_bounds(self):
        assert sample_centers(5, random.Random(0), size=100) == [0, 1, 2, 3, 4]
        assert len(sample_centers(50, random.Random(0), size=0)) == 1

    def test_home_center_minimises(self):
        metric = metric_for(20, 1)
        a = sample_centers(20, random.Random(2))
        assign = CenterAssignment(metric, a)
        for v in range(20):
            c = assign.home_center(v)
            assert c in a
            for other in a:
                assert metric.r(v, c) <= metric.r(v, other) + 1e-12
            assert assign.r_to_centers(v) == pytest.approx(metric.r(v, c))

    def test_home_center_ties_go_to_the_smaller_center(self):
        # On a directed cycle every r(v, c) with v != c is the cycle length.
        metric = make_metric(directed_cycle(9))
        assign = CenterAssignment(metric, [7, 2, 5])
        for v in range(9):
            assert assign.home_center(v) == (v if v in (2, 5, 7) else 2)

    def test_cluster_definition(self):
        metric = metric_for(18, 3)
        assign = CenterAssignment(metric, sample_centers(18, random.Random(4)))
        for v in range(18):
            bound = assign.r_to_centers(v)
            for u in range(18):
                if u == v:
                    assert not assign.in_cluster(u, v)
                else:
                    assert assign.in_cluster(u, v) == (metric.r(u, v) < bound - 1e-12)

    def test_cluster_path_closure(self):
        for seed in range(4):
            metric = metric_for(16, 10 + seed)
            assign = CenterAssignment(
                metric, sample_centers(16, random.Random(seed))
            )
            assign.verify_cluster_path_closure()

    def test_empty_centers_rejected(self):
        metric = metric_for(6, 5)
        with pytest.raises(ConstructionError):
            CenterAssignment(metric, [])

    def test_cluster_sizes_reported(self):
        metric = metric_for(25, 6)
        assign = CenterAssignment(metric, sample_centers(25, random.Random(7)))
        assert assign.mean_cluster_size() <= assign.max_cluster_size()


class TestRTZLegs:
    @pytest.mark.parametrize("seed", range(3))
    def test_leg_reaches_destination(self, seed: int):
        metric = metric_for(22, 20 + seed)
        rtz = RTZStretch3(metric, random.Random(seed))
        for x in range(0, 22, 3):
            for y in range(0, 22, 4):
                path = rtz.route_leg(x, y)
                assert path[0] == x and path[-1] == y

    @pytest.mark.parametrize("seed", range(3))
    def test_leg_cost_bound_lemma2(self, seed: int):
        # p(x, y) <= r(x, y) + d(x, y) for every leg.
        metric = metric_for(20, 30 + seed)
        g = metric.oracle.graph
        rtz = RTZStretch3(metric, random.Random(seed))
        for x in range(20):
            for y in range(20):
                if x == y:
                    continue
                cost = path_length(g, rtz.route_leg(x, y))
                assert cost <= rtz.leg_cost_bound(x, y) + 1e-9

    def test_roundtrip_stretch_three(self):
        metric = metric_for(24, 40)
        g = metric.oracle.graph
        rtz = RTZStretch3(metric, random.Random(3))
        worst = 0.0
        for x in range(24):
            for y in range(24):
                if x == y:
                    continue
                cost = path_length(g, rtz.route_leg(x, y)) + path_length(
                    g, rtz.route_leg(y, x)
                )
                worst = max(worst, cost / metric.r(x, y))
        assert worst <= 3.0 + 1e-9

    def test_direct_leg_is_shortest_path(self):
        metric = metric_for(20, 50)
        g = metric.oracle.graph
        rtz = RTZStretch3(metric, random.Random(4))
        for y in range(20):
            for x in range(20):
                if x != y and rtz.has_direct(x, y):
                    cost = path_length(g, rtz.route_leg(x, y))
                    assert cost == pytest.approx(metric.d(x, y))

    def test_cycle_graph_legs(self):
        metric = make_metric(directed_cycle(15))
        g = metric.oracle.graph
        rtz = RTZStretch3(metric, random.Random(5))
        for x in range(0, 15, 2):
            for y in range(0, 15, 3):
                if x == y:
                    continue
                cost = path_length(g, rtz.route_leg(x, y))
                assert cost <= rtz.leg_cost_bound(x, y) + 1e-9

    def test_asymmetric_torus_legs(self):
        metric = make_metric(asymmetric_torus(3, 4))
        rtz = RTZStretch3(metric, random.Random(6))
        for x in range(0, 12, 2):
            for y in range(12):
                if x == y:
                    continue
                path = rtz.route_leg(x, y)
                assert path[-1] == y

    def test_label_bits_small(self):
        metric = metric_for(64, 60)
        rtz = RTZStretch3(metric, random.Random(7))
        for v in range(0, 64, 7):
            assert rtz.label(v).header_bits(64) <= 4 * 6  # 4 id-fields

    def test_single_center_degenerate(self):
        metric = metric_for(10, 70)
        rtz = RTZStretch3(metric, random.Random(8), center_count=1)
        for x in range(10):
            for y in range(10):
                if x != y:
                    assert rtz.route_leg(x, y)[-1] == y

    def test_all_centers_degenerate(self):
        metric = metric_for(10, 80)
        rtz = RTZStretch3(metric, random.Random(9), center_count=10)
        g = metric.oracle.graph
        for x in range(10):
            for y in range(10):
                if x != y:
                    cost = path_length(g, rtz.route_leg(x, y))
                    assert cost <= rtz.leg_cost_bound(x, y) + 1e-9

    def test_table_entries_positive_and_bounded(self):
        metric = metric_for(49, 90)
        rtz = RTZStretch3(metric, random.Random(10))
        sizes = [rtz.table_entries(u) for u in range(49)]
        assert all(s > 0 for s in sizes)
        assert max(sizes) <= rtz.expected_entry_bound() * 3


class TestHandshakeSpanner:
    @pytest.mark.parametrize("seed", range(2))
    def test_hop_reaches_target(self, seed: int):
        metric = metric_for(18, 100 + seed)
        sp = HandshakeSpanner(metric, k=2)
        for x in range(0, 18, 2):
            for y in range(0, 18, 3):
                if x == y:
                    continue
                path = sp.route_hop(x, y)
                assert path[0] == x and path[-1] == y

    def test_return_hop_uses_same_label(self):
        metric = metric_for(16, 110)
        sp = HandshakeSpanner(metric, k=2)
        for x in range(0, 16, 3):
            for y in range(0, 16, 5):
                if x == y:
                    continue
                label = sp.r2(x, y)
                back = sp.route_hop_back(y, label)
                assert back[0] == y and back[-1] == x

    def test_hop_roundtrip_bound(self):
        metric = metric_for(16, 120)
        g = metric.oracle.graph
        sp = HandshakeSpanner(metric, k=2)
        for x in range(16):
            for y in range(16):
                if x == y:
                    continue
                label = sp.r2(x, y)
                fwd = path_length(g, sp.route_hop(x, y))
                back = path_length(g, sp.route_hop_back(y, label))
                assert fwd + back <= sp.hop_roundtrip_bound(x, y) + 1e-9

    def test_hop_cost_at_most_via_root(self):
        # A hop either passes the tree root or stops early when it
        # walks over its target on the way up; either way its cost is
        # bounded by the via-root cost.
        metric = metric_for(14, 130)
        g = metric.oracle.graph
        sp = HandshakeSpanner(metric, k=2)
        for x in range(0, 14, 3):
            for y in range(0, 14, 4):
                if x == y:
                    continue
                label = sp.r2(x, y)
                tree = sp.tree_of(label)
                path = sp.route_hop(x, y)
                cost = path_length(g, path)
                assert cost <= tree.route_cost(x, y) + 1e-9
                if tree.root not in path:
                    assert y in path  # early arrival on the up-leg

    def test_label_header_bits(self):
        metric = metric_for(32, 140)
        sp = HandshakeSpanner(metric, k=2)
        label = sp.r2(0, 5)
        # o(log^2 n): a couple of ids + two addresses
        assert label.header_bits(32) <= 10 * 5

    def test_label_reversed(self):
        metric = metric_for(12, 150)
        sp = HandshakeSpanner(metric, k=2)
        label = sp.r2(2, 7)
        rev = label.reversed()
        assert rev.tree_id == label.tree_id
        assert rev.addr_to == label.addr_from
        assert rev.addr_from == label.addr_to

    def test_works_on_torus(self):
        metric = make_metric(bidirected_torus(3, 4))
        sp = HandshakeSpanner(metric, k=2)
        for x in range(0, 12, 2):
            for y in range(0, 12, 3):
                if x != y:
                    assert sp.route_hop(x, y)[-1] == y

    def test_works_on_dht(self):
        metric = make_metric(random_dht_overlay(16, rng=random.Random(1)))
        sp = HandshakeSpanner(metric, k=3)
        for x in range(0, 16, 3):
            for y in range(0, 16, 5):
                if x != y:
                    assert sp.route_hop(x, y)[-1] == y

    def test_table_entries_accounting(self):
        metric = metric_for(12, 160)
        sp = HandshakeSpanner(metric, k=2)
        assert sum(sp.table_entries(v) for v in range(12)) > 0
