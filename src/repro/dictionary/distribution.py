"""Randomized block distribution — Lemma 1 (k=2) and Lemma 4 (general k).

Lemma 4 asserts an assignment of block sets ``S_v`` to nodes such that

* for every node ``v``, every level ``0 <= i < k``, and every prefix
  ``tau`` of length ``i``, some node ``w`` in the roundtrip
  neighborhood ``N_i(v)`` stores a block ``B_alpha`` whose prefix
  extends ``tau`` (``sigma^i(B_alpha) = tau``), and
* every node stores ``O(log n)`` blocks.

The paper proves this by the probabilistic method, yielding "a simple
randomized procedure": give every node ``c * ln(n)`` uniformly random
blocks and take a union bound over the polynomially many (node, level,
prefix) coverage events.

:class:`BlockDistribution` implements that procedure plus a
*deterministic patching* pass: after sampling, any still-uncovered
``(v, i, tau)`` triple is repaired by handing a block with prefix
``tau`` to the least-loaded node of ``N_i(v)``.  Patching converts the
with-high-probability guarantee into a certainty while adding at most a
few blocks (tests and benchmarks record how many), so the
``O(log n)``-blocks-per-node shape is preserved and *verified* rather
than assumed.

Coverage is array work.  A holders x blocks bool matrix is OR-reduced
over the runs of blocks sharing a level-``i`` prefix (block ``b`` has
prefix ``b // q**(k-1-i)``), then indexed by the ``N_i`` slice of the
metric's order matrix: ``any`` over a neighborhood is coverage and
``argmax`` is the closest holder.  Only *detection* is vectorised.  A
patch adds a block that may cover a later requirement, so the flagged
triples are walked sequentially in ``(v, i, tau)`` order, each
re-checked against the current sets first.  Patches only add blocks,
so a requirement covered before the walk stays covered, and the result
equals a full sequential scan.

Note on levels: coverage at level ``i`` concerns prefixes of length
``i``; level 0 is trivial for nonempty ``S_v`` (the empty prefix) but is
still checked, and the top level ``i = k-1`` concerns whole blocks
inside ``N_{k-1}(v)``.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.exceptions import ConstructionError, NamingError
from repro.graph.roundtrip import RoundtripMetric
from repro.naming.blocks import BlockSpace


class BlockDistribution:
    """Assignment of dictionary blocks to nodes satisfying Lemma 4.

    Args:
        metric: roundtrip metric of the graph (provides ``N_i(v)``).
        blocks: the block/prefix structure over the name space.
        rng: randomness for the sampling phase.
        blocks_per_node: how many random blocks each node draws; the
            default ``3 * ln(n) + 1`` mirrors the lemma's constant.

    Attributes:
        sets: ``sets[v]`` is the set ``S_v`` of block indices stored at
            vertex ``v``.
        patches_applied: number of deterministic repairs performed
            after sampling (0 for most seeds — recorded for E3).
    """

    def __init__(
        self,
        metric: RoundtripMetric,
        blocks: BlockSpace,
        rng: Optional[random.Random] = None,
        blocks_per_node: Optional[int] = None,
    ):
        if blocks.n != metric.n:
            raise ConstructionError(
                f"block space covers {blocks.n} names but graph has "
                f"{metric.n} nodes"
            )
        self._metric = metric
        self._blocks = blocks
        rng = rng or random.Random(0)
        n = metric.n
        num_blocks = blocks.num_blocks()
        if blocks_per_node is None:
            blocks_per_node = min(num_blocks, int(3 * math.log(max(n, 2))) + 1)
        if blocks_per_node < 1:
            raise ConstructionError("blocks_per_node must be >= 1")
        self._sample_size = blocks_per_node

        self.sets: List[Set[int]] = [
            set(rng.sample(range(num_blocks), min(blocks_per_node, num_blocks)))
            for _ in range(n)
        ]
        # (neighborhood level, prefix length) -> first-holder table; see
        # holders().  Valid for the current ``sets`` only.
        self._holder_cache: Dict[Tuple[int, int], np.ndarray] = {}
        self.patches_applied = self._patch_uncovered()

    # ------------------------------------------------------------------
    # Lemma 4 guarantee
    # ------------------------------------------------------------------
    def _run(self, length: int) -> int:
        """Blocks sharing a length-``length`` prefix are runs of this
        many consecutive indices."""
        return self._blocks.q ** (self._blocks.k - 1 - length)

    def held(self) -> np.ndarray:
        """``(n, num_blocks)`` bool: ``held[w, b]`` iff ``b in S_w``
        (freshly built from the current sets)."""
        held = np.zeros((self._metric.n, self._blocks.num_blocks()), dtype=bool)
        rows = np.repeat(np.arange(self._metric.n), [len(s) for s in self.sets])
        cols = np.fromiter(itertools.chain.from_iterable(self.sets), dtype=np.intp)
        held[rows, cols] = True
        return held

    def _first_holders(self, held: np.ndarray, i: int, length: int) -> np.ndarray:
        """``(n, P)`` table of the first node of ``N_i(v)`` storing a
        block with packed length-``length`` prefix ``p``, or -1."""
        runs = np.arange(0, held.shape[1], self._run(length))
        holds = np.logical_or.reduceat(held, runs, axis=1)
        size = self._metric.level_size(i, self._blocks.k)
        nbhd = self._metric.order_matrix()[:, :size]
        inside = holds[nbhd]
        table = np.take_along_axis(nbhd, inside.argmax(axis=1), axis=1)
        table[~inside.any(axis=1)] = -1
        return table

    def _patch_uncovered(self) -> int:
        """Deterministically repair any uncovered requirement."""
        k = self._blocks.k
        flagged = sorted(
            (int(v), i, int(p))
            for i in range(k)
            for v, p in np.argwhere(self.holders(i) < 0)
        )
        if not flagged:
            return 0
        held = self.held()
        order = self._metric.order_matrix()
        patches = 0
        for v, i, p in flagged:
            nbhd = order[v, : self._metric.level_size(i, k)]
            lo = p * self._run(i)
            if held[nbhd, lo : lo + self._run(i)].any():
                continue
            # Give the first block with prefix tau to the least-loaded
            # neighbor.
            target = min(nbhd.tolist(), key=lambda w: (len(self.sets[w]), w))
            self.sets[target].add(lo)
            held[target, lo] = True
            patches += 1
        self._holder_cache.clear()
        return patches

    # ------------------------------------------------------------------
    # queries used by the schemes
    # ------------------------------------------------------------------
    @property
    def metric(self) -> RoundtripMetric:
        """The roundtrip metric the neighborhoods come from."""
        return self._metric

    @property
    def block_space(self) -> BlockSpace:
        """The underlying block structure."""
        return self._blocks

    def blocks_of(self, v: int) -> Set[int]:
        """``S_v`` — the blocks stored at vertex ``v``."""
        return set(self.sets[v])

    def augmented_blocks_of(self, v: int, own_name: int) -> Set[int]:
        """``S'_v = S_v + {own block}`` (Section 3.3: every node also
        stores the block containing its own name)."""
        return self.sets[v] | {self._blocks.block_of(own_name)}

    def holders_of_block(self, block: int) -> List[int]:
        """All vertices storing ``block``."""
        return [v for v in range(self._metric.n) if block in self.sets[v]]

    def holders(self, i: int, length: Optional[int] = None) -> np.ndarray:
        """The read-only ``(n, P)`` first-holder table of level ``i``.

        ``holders(i, length)[v, p]`` is the first node of ``N_i(v)`` (in
        ``Init_v`` order, i.e. the closest) storing a block whose
        length-``length`` prefix (default ``i``) packs to ``p``, or -1
        if none does.  With ``length = k - 1`` the prefixes are the
        blocks themselves, so ``p`` is a block index.
        """
        length = i if length is None else length
        table = self._holder_cache.get((i, length))
        if table is None:
            table = self._first_holders(self.held(), i, length)
            table.setflags(write=False)
            self._holder_cache[(i, length)] = table
        return table

    def block_pointers(self) -> np.ndarray:
        """Lemma 1's pointer table: ``[u, b]`` is the closest node of
        ``N_1(u)`` storing block ``b`` (``holders(1, k - 1)``).

        Raises:
            ConstructionError: if some block has no holder there.
        """
        table = self.holders(1, self._blocks.k - 1)
        if (table < 0).any():
            u, b = (int(x) for x in np.argwhere(table < 0)[0])
            raise ConstructionError(
                f"coverage violated: no holder of block {b} in N_1({u})"
            )
        return table

    def _prefix_index(self, tau: Tuple[int, ...]) -> Optional[int]:
        """Packed index of ``tau`` among its length's prefixes, or
        ``None`` when no block extends it."""
        bs = self._blocks
        if len(tau) > bs.k - 1:
            raise NamingError(
                f"block prefixes have length <= k-1={bs.k - 1}, got {len(tau)}"
            )
        p = 0
        for digit in tau:
            if not 0 <= digit < bs.q:
                return None
            p = p * bs.q + digit
        return p if p * self._run(len(tau)) < bs.num_blocks() else None

    def holder_in_neighborhood(
        self, v: int, i: int, tau: Tuple[int, ...]
    ) -> int:
        """The first node of ``N_i(v)`` (in ``Init_v`` order, i.e. the
        closest) holding a block with prefix ``tau``.

        This is the lookup the routing schemes perform; Lemma 4
        guarantees existence.

        Raises:
            ConstructionError: if coverage is violated (cannot happen
                after patching; kept as an invariant check).
        """
        p = self._prefix_index(tau)
        holder = -1 if p is None else int(self.holders(i, len(tau))[v, p])
        if holder < 0:
            raise ConstructionError(
                f"coverage violated: no holder of prefix {tau} in N_{i}({v})"
            )
        return holder

    def nearest_holder(self, v: int, tau: Tuple[int, ...]) -> int:
        """The globally closest node to ``v`` (by ``Init_v``) holding a
        block with prefix ``tau`` (used by ExStretch storage rule 3a)."""
        p = self._prefix_index(tau)
        if p is not None:
            lo = p * self._run(len(tau))
            row = self._metric.order_matrix()[v]
            inside = self.held()[row, lo : lo + self._run(len(tau))].any(axis=1)
            if inside.any():
                return int(row[inside.argmax()])
        raise ConstructionError(f"no node stores any block with prefix {tau}")

    # ------------------------------------------------------------------
    # verification / statistics
    # ------------------------------------------------------------------
    def verify(self) -> None:
        """Assert both Lemma 4 properties (test/benchmark helper)."""
        held = self.held()
        for i in range(self._blocks.k):
            missing = np.argwhere(self._first_holders(held, i, i) < 0)
            if missing.size:
                v, p = (int(x) for x in missing[0])
                tau = self._blocks.block_prefix(p * self._run(i))[:i]
                raise AssertionError(f"(v={v}, i={i}, tau={tau}) uncovered")
        bound = self.per_node_bound()
        for v in range(self._metric.n):
            assert len(self.sets[v]) <= bound, (
                f"node {v} stores {len(self.sets[v])} blocks, bound {bound}"
            )

    def per_node_bound(self) -> int:
        """The ``O(log n)`` bound we hold ourselves to: the sampling
        budget plus a slack constant for patches."""
        return self._sample_size + max(4, self._sample_size)

    def max_blocks_per_node(self) -> int:
        """Observed maximum ``|S_v|``."""
        return max(len(s) for s in self.sets)

    def mean_blocks_per_node(self) -> float:
        """Observed mean ``|S_v|``."""
        return sum(len(s) for s in self.sets) / self._metric.n

    def total_entries(self) -> int:
        """Total dictionary entries implied: sum over nodes of block
        sizes (each block stores one entry per member name)."""
        return sum(
            len(self._blocks.block_members(b))
            for s in self.sets
            for b in s
        )
