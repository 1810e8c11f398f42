"""Tests for the Section 2 stretch-6 TINN scheme."""

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
from repro.graph.shortest_paths import DistanceOracle
from repro.naming.permutation import identity_naming, random_naming
from repro.runtime.simulator import Simulator
from repro.runtime.sizing import log2_squared
from repro.runtime.stats import measure_stretch, measure_tables
from repro.schemes.stretch6 import StretchSixScheme


def build(g, naming_seed=0, rng_seed=1):
    oracle = DistanceOracle(g)
    naming = random_naming(g.n, random.Random(naming_seed))
    metric = RoundtripMetric(oracle, ids=naming.all_names())
    scheme = StretchSixScheme(metric, naming, rng=random.Random(rng_seed))
    return oracle, naming, scheme


class TestDeliveryAndStretch:
    @pytest.mark.parametrize("seed", range(3))
    def test_random_graph_all_pairs(self, seed: int):
        g = random_strongly_connected(26, rng=random.Random(seed))
        oracle, naming, scheme = build(g, seed, seed + 1)
        report = measure_stretch(scheme, oracle)
        assert report.max_stretch <= StretchSixScheme.STRETCH_BOUND + 1e-9

    def test_cycle_all_pairs(self):
        g = directed_cycle(20, rng=random.Random(5))
        oracle, naming, scheme = build(g)
        report = measure_stretch(scheme, oracle)
        assert report.max_stretch <= 6.0 + 1e-9

    def test_torus_all_pairs(self):
        g = bidirected_torus(4, 5, rng=random.Random(6))
        oracle, naming, scheme = build(g)
        report = measure_stretch(scheme, oracle)
        assert report.max_stretch <= 6.0 + 1e-9

    def test_asymmetric_torus(self):
        g = asymmetric_torus(4, 4)
        oracle, naming, scheme = build(g)
        report = measure_stretch(scheme, oracle)
        assert report.max_stretch <= 6.0 + 1e-9

    def test_dht_overlay(self):
        g = random_dht_overlay(24, rng=random.Random(7))
        oracle, naming, scheme = build(g)
        report = measure_stretch(scheme, oracle)
        assert report.max_stretch <= 6.0 + 1e-9

    def test_near_destination_stretch_three(self):
        # Case t in N(s): the paper's analysis promises stretch 3.
        g = random_strongly_connected(25, rng=random.Random(8))
        oracle, naming, scheme = build(g)
        sim = Simulator(scheme)
        metric = scheme.metric
        for s in range(25):
            for t in metric.sqrt_neighborhood(s):
                if t == s:
                    continue
                trace = sim.roundtrip(s, naming.name_of(t))
                assert trace.total_cost <= 3 * oracle.r(s, t) + 1e-9

    def test_roundtrip_paths_wellformed(self):
        g = random_strongly_connected(20, rng=random.Random(9))
        oracle, naming, scheme = build(g)
        sim = Simulator(scheme)
        for s in range(0, 20, 3):
            for t in range(0, 20, 4):
                if s == t:
                    continue
                trace = sim.roundtrip(s, naming.name_of(t))
                assert trace.outbound.path[0] == s
                assert trace.outbound.path[-1] == t
                assert trace.inbound.path[0] == t
                assert trace.inbound.path[-1] == s


class TestNamingIndependence:
    def test_works_under_many_namings(self):
        g = random_strongly_connected(18, rng=random.Random(10))
        oracle = DistanceOracle(g)
        for seed in range(4):
            naming = random_naming(18, random.Random(seed))
            metric = RoundtripMetric(oracle, ids=naming.all_names())
            scheme = StretchSixScheme(metric, naming, rng=random.Random(99))
            report = measure_stretch(
                scheme, oracle, sample=60, rng=random.Random(seed)
            )
            assert report.max_stretch <= 6.0 + 1e-9

    def test_fresh_packet_carries_name_only(self):
        g = directed_cycle(9)
        _oracle, naming, scheme = build(g)
        header = scheme.new_packet_header(naming.name_of(4))
        assert set(header) == {"mode", "dest"}


class TestSizes:
    def test_header_within_log_squared_budget(self):
        g = random_strongly_connected(32, rng=random.Random(11))
        oracle, naming, scheme = build(g)
        report = measure_stretch(scheme, oracle, sample=120, rng=random.Random(0))
        # O(log^2 n) with a small constant
        assert report.max_header_bits <= 8 * log2_squared(32)

    def test_tables_scale_near_sqrt(self):
        sizes = {}
        for n in (16, 64):
            g = random_strongly_connected(n, rng=random.Random(n))
            _oracle, _naming, scheme = build(g, n, n + 1)
            sizes[n] = measure_tables(scheme).max_entries
        # quadrupling n should roughly double table size (sqrt shape);
        # allow generous slack for the log factors
        assert sizes[64] <= sizes[16] * 2 * 4

    def test_every_node_stores_something(self):
        g = random_strongly_connected(16, rng=random.Random(12))
        _oracle, _naming, scheme = build(g)
        for v in range(16):
            assert scheme.table_entries(v) > 0


class TestConstruction:
    def test_naming_size_mismatch_rejected(self):
        g = random_strongly_connected(10, rng=random.Random(13))
        oracle = DistanceOracle(g)
        metric = RoundtripMetric(oracle)
        with pytest.raises(ConstructionError):
            StretchSixScheme(metric, identity_naming(12))

    def test_substrate_sharing(self):
        from repro.rtz.routing import RTZStretch3

        g = random_strongly_connected(14, rng=random.Random(14))
        oracle = DistanceOracle(g)
        naming = identity_naming(14)
        metric = RoundtripMetric(oracle)
        rtz = RTZStretch3(metric, random.Random(0))
        scheme = StretchSixScheme(metric, naming, substrate=rtz)
        assert scheme.rtz is rtz
        report = measure_stretch(scheme, oracle, sample=40, rng=random.Random(1))
        assert report.max_stretch <= 6.0 + 1e-9

    def test_remote_dictionary_path_exercised(self):
        # With the default O(log n) budget on small graphs every node
        # holds every block, so force a lean dictionary and verify the
        # remote-lookup path (case 2 of Section 2.2) both fires and
        # stays within stretch 6.
        g = random_strongly_connected(30, rng=random.Random(77))
        oracle = DistanceOracle(g)
        naming = random_naming(30, random.Random(78))
        metric = RoundtripMetric(oracle, ids=naming.all_names())
        scheme = StretchSixScheme(
            metric, naming, rng=random.Random(79), blocks_per_node=1
        )
        sim = Simulator(scheme)
        remote_pairs = 0
        for s in range(30):
            for t in range(30):
                if s == t:
                    continue
                dest = naming.name_of(t)
                if scheme._lookup_r3(s, dest) is not None:
                    continue
                remote_pairs += 1
                trace = sim.roundtrip(s, dest)
                assert trace.total_cost <= 6 * oracle.r(s, t) + 1e-9
        assert remote_pairs > 50, "remote path barely exercised"

    def test_dictionary_serves_all_names(self):
        # Every name must be resolvable from every source's
        # neighborhood dictionary pointer.
        g = random_strongly_connected(16, rng=random.Random(15))
        _oracle, naming, scheme = build(g)
        for u in range(16):
            for name in range(16):
                block = scheme.blocks.block_of(name)
                holder = scheme._block_ptr[u][block]
                assert name in scheme._dict[holder]


@pytest.mark.parametrize("scheme_name", ["stretch6", "wild_names"])
def test_python_path_tables_built_on_demand(scheme_name):
    """The name-keyed dictionaries only the Python forwarding path
    reads are built on its first use; compiled routing and
    ``table_entries`` never need them, and the entry counts are exactly
    the sizes of the forced dictionaries."""
    from repro.api import Network

    g = random_strongly_connected(40, rng=random.Random(8))
    net = Network(g, seed=2, store=None)
    scheme = net.build_scheme(scheme_name, blocks_per_node=2)
    net.router(scheme_name).route_many([(0, 9), (5, 31)])
    entries = [scheme.table_entries(v) for v in range(g.n)]
    assert "_near" not in vars(scheme) and "_dict" not in vars(scheme)
    # a Python-engine route forces them (the counts below force the rest)
    Simulator(scheme).roundtrip(3, scheme.name_of(17))
    assert "_near" in vars(scheme)
    assert entries == [
        len(scheme._near[v])
        + len(scheme._block_ptr[v])
        + len(scheme._dict[v])
        + scheme.rtz.table_entries(v)
        for v in range(g.n)
    ]
