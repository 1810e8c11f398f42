"""Tests for the Lemma 1 / Lemma 4 block distribution."""

from __future__ import annotations

import math
import random

import pytest

from repro.dictionary.distribution import BlockDistribution
from repro.exceptions import ConstructionError
from repro.graph.generators import (
    directed_cycle,
    random_strongly_connected,
)
from repro.graph.roundtrip import RoundtripMetric
from repro.graph.shortest_paths import DistanceOracle
from repro.naming.blocks import BlockSpace, sqrt_block_space


def make_metric(n: int, seed: int) -> RoundtripMetric:
    g = random_strongly_connected(n, rng=random.Random(seed))
    return RoundtripMetric(DistanceOracle(g))


class TestLemma1SqrtCase:
    """k = 2: the Section 2 case (Fig. 2)."""

    def test_coverage_sqrt_neighborhood(self):
        n = 36
        metric = make_metric(n, 1)
        bs = sqrt_block_space(n)
        dist = BlockDistribution(metric, bs, random.Random(2))
        dist.verify()
        # Explicit Lemma 1 statement: every block type has a holder in
        # every sqrt-neighborhood.
        for v in range(n):
            nbhd = metric.level_neighborhood(v, 1, 2)
            for b in range(bs.num_blocks()):
                assert any(b in dist.sets[w] for w in nbhd)

    def test_log_blocks_per_node(self):
        n = 49
        metric = make_metric(n, 3)
        dist = BlockDistribution(metric, sqrt_block_space(n), random.Random(4))
        assert dist.max_blocks_per_node() <= dist.per_node_bound()
        assert dist.per_node_bound() <= 10 * int(math.log(n) + 1)

    def test_holder_lookup_is_closest(self):
        n = 25
        metric = make_metric(n, 5)
        bs = sqrt_block_space(n)
        dist = BlockDistribution(metric, bs, random.Random(6))
        for v in range(n):
            for b in range(bs.num_blocks()):
                tau = bs.block_prefix(b)
                holder = dist.holder_in_neighborhood(v, 1, tau)
                order = metric.init_order(v)
                pos = order.index(holder)
                # nobody closer holds a block with this prefix
                for w in order[:pos]:
                    assert not any(
                        bs.block_has_prefix(bb, tau) for bb in dist.sets[w]
                    )


class TestLemma4GeneralK:
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_coverage_all_levels(self, k: int):
        n = 40
        metric = make_metric(n, 10 + k)
        dist = BlockDistribution(metric, BlockSpace(n, k), random.Random(k))
        dist.verify()

    @pytest.mark.parametrize("seed", range(5))
    def test_coverage_many_seeds(self, seed: int):
        n = 30
        metric = make_metric(n, 20)
        dist = BlockDistribution(metric, BlockSpace(n, 3), random.Random(seed))
        dist.verify()

    def test_cycle_graph(self):
        g = directed_cycle(27)
        metric = RoundtripMetric(DistanceOracle(g))
        dist = BlockDistribution(metric, BlockSpace(27, 3), random.Random(1))
        dist.verify()

    def test_patching_repairs_tiny_samples(self):
        # Force failures with a sample budget of 1 block per node; the
        # patching pass must still deliver full coverage.
        n = 32
        metric = make_metric(n, 30)
        dist = BlockDistribution(
            metric, BlockSpace(n, 2), random.Random(0), blocks_per_node=1
        )
        dist.verify()
        assert dist.patches_applied >= 0  # typically > 0 here

    @pytest.mark.parametrize(
        "n,k,budget", [(32, 2, 1), (40, 3, 1), (40, 3, 2), (50, 4, 1), (27, 3, None)]
    )
    def test_patch_walk_matches_sequential_scan(self, n, k, budget):
        """Reference: sample, then scan every (v, i, tau) requirement in
        order, patching each one the current sets leave uncovered."""
        metric = make_metric(n, 40 + n)
        bs = BlockSpace(n, k)
        dist = BlockDistribution(metric, bs, random.Random(k), blocks_per_node=budget)

        rng = random.Random(k)
        size = budget or min(bs.num_blocks(), int(3 * math.log(n)) + 1)
        sets = [set(rng.sample(range(bs.num_blocks()), size)) for _ in range(n)]
        patches = 0
        for v in range(n):
            for i in range(k):
                nbhd = metric.level_neighborhood(v, i, k)
                for tau in dict.fromkeys(
                    bs.block_prefix(b)[:i] for b in range(bs.num_blocks())
                ):
                    if any(bs.block_has_prefix(b, tau) for w in nbhd for b in sets[w]):
                        continue
                    target = min(nbhd, key=lambda w: (len(sets[w]), w))
                    sets[target].add(bs.blocks_with_prefix(tau)[0])
                    patches += 1
        assert dist.sets == sets
        assert dist.patches_applied == patches

    def test_nearest_holder_global(self):
        n = 27
        metric = make_metric(n, 40)
        bs = BlockSpace(n, 3)
        dist = BlockDistribution(metric, bs, random.Random(2))
        for v in range(0, n, 5):
            for tau in [(0,), (1,), (0, 0), (2, 1)]:
                try:
                    holder = dist.nearest_holder(v, tau)
                except ConstructionError:
                    continue  # prefix may be empty in padded spaces
                order = metric.init_order(v)
                pos = order.index(holder)
                for w in order[:pos]:
                    assert not any(
                        bs.block_has_prefix(b, tau) for b in dist.sets[w]
                    )

    def test_augmented_blocks_include_own(self):
        n = 25
        metric = make_metric(n, 50)
        bs = BlockSpace(n, 2)
        dist = BlockDistribution(metric, bs, random.Random(3))
        for v in range(n):
            own_name = v  # identity naming
            s_prime = dist.augmented_blocks_of(v, own_name)
            assert bs.block_of(own_name) in s_prime
            assert dist.sets[v] <= s_prime

    def test_holders_of_block_consistent(self):
        n = 16
        metric = make_metric(n, 60)
        bs = BlockSpace(n, 2)
        dist = BlockDistribution(metric, bs, random.Random(4))
        for b in range(bs.num_blocks()):
            holders = dist.holders_of_block(b)
            for v in range(n):
                assert (v in holders) == (b in dist.sets[v])

    def test_mismatched_sizes_rejected(self):
        metric = make_metric(10, 70)
        with pytest.raises(ConstructionError):
            BlockDistribution(metric, BlockSpace(12, 2), random.Random(0))

    def test_bad_budget_rejected(self):
        metric = make_metric(10, 80)
        with pytest.raises(ConstructionError):
            BlockDistribution(
                metric, BlockSpace(10, 2), random.Random(0), blocks_per_node=0
            )

    def test_total_entries_accounting(self):
        n = 20
        metric = make_metric(n, 90)
        bs = BlockSpace(n, 2)
        dist = BlockDistribution(metric, bs, random.Random(5))
        manual = 0
        for v in range(n):
            for b in dist.sets[v]:
                manual += len(bs.block_members(b))
        assert dist.total_entries() == manual

    def test_statistics_sane(self):
        n = 36
        metric = make_metric(n, 95)
        dist = BlockDistribution(metric, BlockSpace(n, 2), random.Random(6))
        assert 1 <= dist.mean_blocks_per_node() <= dist.max_blocks_per_node()
