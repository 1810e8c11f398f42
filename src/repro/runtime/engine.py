"""Compiled vectorized routing execution (the batched fast path).

The hop-by-hop :class:`~repro.runtime.simulator.Simulator` is the
reference semantics: one ``forward()`` call per packet per hop, dict
headers, Python everywhere.  Under traffic that is the last scalar
bottleneck — a workload of ``10^5`` journeys executes ``10^6+``
interpreted forwarding decisions.

This module *compiles* a built scheme's forwarding function into dense
numpy decision tables over the graph's CSR snapshot and executes whole
workloads as **frontier sweeps**: every in-flight packet advances one
hop per sweep via array gathers, so the per-hop cost is a few vector
operations amortized over the batch instead of a Python call.

The compilation contract
------------------------

A scheme opts in by implementing
:meth:`~repro.runtime.scheme.RoutingScheme.compile_tables`, returning a
:class:`CompiledRoutes`:

* ``tables`` — a :class:`StepTables` giving the *within-leg* decision
  function as dense next-vertex arrays (ports resolved through
  ``head_of_port`` at compile time);
* ``plan(sources, dests)`` — a :class:`JourneyPlan` describing each
  journey as two legs (outbound, acknowledgment), each a short list of
  :class:`Segment` s (e.g. ``s -> dictionary node``, then
  ``dictionary node -> t``) with the per-segment forwarded-header bit
  size precomputed from representative headers.

This covers every scheme whose headers, between segment boundaries,
carry a *structurally constant* payload (a fixed set of fields whose
bit sizes do not depend on the packet's position).  Schemes with
growing headers — the ExStretch/PolynomialStretch waypoint stacks —
return ``None`` and transparently fall back to the Python simulator.

What a batch returns
--------------------

:func:`run_roundtrips` returns a
:class:`~repro.runtime.simulator.TraceBatch`: ``(2, B)`` arrays of
per-leg cost, hop count and max header bits, filled by the sweeps, and
the sweep log (per sweep, each stepping packet's ``(packet, leg)`` key
and the vertex it stepped to).  ``Router.route_many`` and
``run_workload`` read only the arrays.  A trace's vertex paths are
built when a caller first reads any trace of the batch: one stable
argsort of the log, one ``tolist()``, then one slice per leg.  The
batch owns its log, so later batches never change it.

Bit-identical by construction
-----------------------------

The executor reproduces the reference semantics *exactly* — paths,
float costs (same per-packet addition order), hop counts, max header
bits, and :class:`~repro.exceptions.HopLimitExceeded` behaviour — and
``tests/test_engine_differential.py`` asserts that equivalence for
every registered scheme on every workload kind.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import HopLimitExceeded, RoutingError, TableLookupError
from repro.graph.csr import CSRGraph
from repro.graph.digraph import Digraph, sorted_lookup
from repro.graph.limits import dense_table_max_n
from repro.runtime.simulator import (  # noqa: F401  (re-export)
    EXECUTION_ENGINES,
    TraceBatch,
)

#: substrate leg phases (mirror repro.rtz.routing's DIRECT/TO_CENTER/
#: DOWN_TREE leg modes)
PHASE_DIRECT = 0
PHASE_UP = 1
PHASE_DOWN = 2

#: Compiled-table families: ``dense`` is the original (n, n) matrices,
#: ``blocked`` the sparse/blocked structures (BlockedNextHop /
#: LandmarkTables), ``auto`` picks by graph size.
TABLE_FAMILIES = ("auto", "dense", "blocked")


def resolve_table_family(tables: str, n: int) -> str:
    """Resolve a ``--tables`` value to a concrete family.

    ``auto`` selects ``dense`` while the graph fits under the
    dense-table threshold (:func:`repro.graph.limits.dense_table_max_n`)
    and ``blocked`` beyond it, so big graphs never trip
    :class:`~repro.exceptions.TableTooLargeError` by default.
    """
    if tables not in TABLE_FAMILIES:
        raise RoutingError(
            f"unknown table family {tables!r}; expected one of "
            f"{', '.join(TABLE_FAMILIES)}"
        )
    if tables == "auto":
        return "dense" if n <= dense_table_max_n() else "blocked"
    return tables


# ----------------------------------------------------------------------
# step tables: the compiled within-leg decision function
# ----------------------------------------------------------------------
class StepTables:
    """Vectorized within-leg forwarding over dense next-vertex arrays.

    Subclasses implement :meth:`begin_phase` (the leg's first decision
    mode, mirroring the scheme's ``begin_leg``) and :meth:`step` (one
    forwarding decision for a batch of packets *not yet at their
    target*)."""

    def begin_phase(self, at: np.ndarray, target: np.ndarray) -> np.ndarray:
        """Initial phase for packets starting a leg at ``at`` toward
        ``target`` (int8 array)."""
        raise NotImplementedError

    def step(
        self, at: np.ndarray, target: np.ndarray, phase: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One decision per packet: ``(next_vertex, new_phase)``.

        Raises:
            TableLookupError: when any packet has no table entry (the
                compiled analogue of the scheme's own lookup errors).
        """
        raise NotImplementedError


def _require_entries(nxt, at, target, what: str, phase=None) -> None:
    """Raise :class:`TableLookupError` for the first packet whose
    compiled decision is missing (``-1``)."""
    if (nxt < 0).any():
        bad = int(np.flatnonzero(nxt < 0)[0])
        where = "" if phase is None else f" (phase {int(phase[bad])})"
        raise TableLookupError(
            f"no compiled {what} at vertex {int(at[bad])} toward "
            f"{int(target[bad])}{where}"
        )


class DenseNextHop(StepTables):
    """Single-matrix step tables: ``next[u, target]`` is the next
    vertex (full-table schemes; also the looping-stub test double)."""

    def __init__(self, next_vertex: np.ndarray):
        self.next_vertex = next_vertex

    def begin_phase(self, at: np.ndarray, target: np.ndarray) -> np.ndarray:
        return np.zeros(at.shape[0], dtype=np.int8)

    def step(
        self, at: np.ndarray, target: np.ndarray, phase: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        nxt = self.next_vertex[at, target]
        _require_entries(nxt, at, target, "next hop")
        return nxt, phase


class BlockedNextHop(StepTables):
    """Row-blocked first-hop step tables (the sparse ``DenseNextHop``).

    The ``(n, n)`` next-vertex matrix is split into row blocks of
    ``block_rows`` sources each; block ``b`` holds rows
    ``[b * block_rows, min(n, (b + 1) * block_rows))``.  Blocks are
    built by streaming source-blocked APSP (never materializing the
    full matrix) and persisted individually, so later processes
    memory-map exactly the blocks they touch.  Lookups gather per
    block but return results in the original batch order, so the
    decision function — values, phases, and the first-failure error —
    is bit-identical to :class:`DenseNextHop`.
    """

    def __init__(self, n: int, block_rows: int, blocks: Sequence[np.ndarray]):
        self.n = int(n)
        self.block_rows = int(block_rows)
        self.blocks = list(blocks)

    def nbytes(self) -> int:
        """Bytes resident across all currently-loaded blocks."""
        return sum(int(blk.nbytes) for blk in self.blocks)

    def begin_phase(self, at: np.ndarray, target: np.ndarray) -> np.ndarray:
        return np.zeros(at.shape[0], dtype=np.int8)

    def step(
        self, at: np.ndarray, target: np.ndarray, phase: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        nxt = np.empty(at.shape[0], dtype=np.int64)
        bidx = at // self.block_rows
        for b in np.unique(bidx):
            sel = bidx == b
            block = self.blocks[int(b)]
            nxt[sel] = block[at[sel] - int(b) * self.block_rows, target[sel]]
        _require_entries(nxt, at, target, "next hop")
        return nxt, phase


def compile_blocked_next_hop(
    oracle, block_rows: Optional[int] = None, store="auto"
) -> BlockedNextHop:
    """Build :class:`BlockedNextHop` tables from a distance oracle,
    one source block at a time.

    Each block is computed via :meth:`DistanceOracle.first_hop_block`
    (peak memory ``O(block_rows * n)``) and, when ``store`` is active
    (``"auto"`` resolves :func:`repro.store.default_store`; ``None``
    is off), persisted under its own ``first-hop-block`` key — keyed
    by (graph content hash, block geometry) — so warm processes
    memory-map blocks instead of recomputing them.
    """
    from repro.graph.blocked import default_block_rows

    n = oracle.n
    g = oracle.graph
    if block_rows is None:
        block_rows = default_block_rows(n)
    block_rows = max(1, min(max(n, 1), int(block_rows)))

    ghash = None
    if not g.frozen:
        store = None
    else:
        from repro.store import default_store, graph_content_hash

        if store == "auto":
            store = default_store()
        if store is not None:
            ghash = graph_content_hash(g)

    blocks: List[np.ndarray] = []
    for lo in range(0, n, block_rows):
        hi = min(n, lo + block_rows)
        store_key = None
        if store is not None:
            from repro.store import StoreKey

            store_key = StoreKey(
                "first-hop-block",
                1,
                {"graph": ghash, "rows": block_rows, "lo": lo},
            )
            entry = store.get(store_key)
            if entry is not None and entry.arrays["first"].shape == (hi - lo, n):
                blocks.append(entry.arrays["first"])
                continue
        t0 = time.perf_counter()
        block = oracle.first_hop_block(lo, hi)
        block.flags.writeable = False
        if store_key is not None:
            store.put(
                store_key,
                {"first": block},
                meta={"lo": lo, "rows": block_rows},
                build_seconds=time.perf_counter() - t0,
            )
        blocks.append(block)
    return BlockedNextHop(n, block_rows, blocks)


class SubstrateStepTables(StepTables):
    """Compiled Lemma 2 substrate legs (direct / up-tree / down-tree).

    Attributes:
        direct_next: ``(n, n)`` int32 — next vertex on the direct
            (cluster) path toward ``target``, ``-1`` when ``at`` has no
            direct entry.
        up_next: ``(n, C)`` int32 — next vertex toward landmark
            (column = landmark index), ``-1`` at the landmark itself.
        down_next: ``(n, n)`` int32 — next vertex from ``at`` toward
            ``target`` inside ``OutTree(center(target))``; only slots
            on canonical ``center -> target`` paths are populated.
        center_of: ``(n,)`` int32 — ``a(v)``, the home landmark vertex.
        center_idx: ``(n,)`` int32 — column of ``a(v)`` in ``up_next``.
        has_direct: ``(n, n)`` bool — the cluster membership test
            ``begin_leg`` makes.
    """

    def __init__(
        self,
        direct_next: np.ndarray,
        up_next: np.ndarray,
        down_next: np.ndarray,
        center_of: np.ndarray,
        center_idx: np.ndarray,
        has_direct: np.ndarray,
    ):
        self.direct_next = direct_next
        self.up_next = up_next
        self.down_next = down_next
        self.center_of = center_of
        self.center_idx = center_idx
        self.has_direct = has_direct

    @classmethod
    def from_substrate(cls, substrate) -> "SubstrateStepTables":
        """Scatter the substrate's direct and down rows into dense
        matrices (pair key ``u * n + v`` is the flat index of
        ``[u, v]``)."""
        n = substrate.metric.n
        direct_keys, direct_hop = substrate.direct_table()
        direct_next = np.full((n, n), -1, dtype=np.int32)
        direct_next.flat[direct_keys] = direct_hop
        p, w, x = substrate.down_table()
        down_next = np.full((n, n), -1, dtype=np.int32)
        down_next.flat[p * n + w] = x
        up_next, center_of, center_idx = _landmark_columns(substrate)
        return cls(
            direct_next, up_next, down_next, center_of, center_idx,
            direct_next >= 0,
        )

    def _direct_found(self, at: np.ndarray, target: np.ndarray) -> np.ndarray:
        return self.has_direct[at, target]

    def _direct_step(self, at: np.ndarray, target: np.ndarray) -> np.ndarray:
        return self.direct_next[at, target]

    def _down_step(self, at: np.ndarray, target: np.ndarray) -> np.ndarray:
        return self.down_next[at, target]

    def begin_phase(self, at: np.ndarray, target: np.ndarray) -> np.ndarray:
        direct = (at == target) | self._direct_found(at, target)
        at_center = at == self.center_of[target]
        return np.where(
            direct, PHASE_DIRECT, np.where(at_center, PHASE_DOWN, PHASE_UP)
        ).astype(np.int8)

    def step(
        self, at: np.ndarray, target: np.ndarray, phase: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        # TO_CENTER flips to DOWN_TREE on arrival at the landmark,
        # within the same decision (exactly as leg_step does).
        center = self.center_of[target]
        phase = np.where(
            (phase == PHASE_UP) & (at == center), PHASE_DOWN, phase
        ).astype(np.int8)
        nxt = np.where(
            phase == PHASE_DIRECT,
            self._direct_step(at, target),
            np.where(
                phase == PHASE_UP,
                self.up_next[at, self.center_idx[target]],
                self._down_step(at, target),
            ),
        )
        _require_entries(nxt, at, target, "substrate entry", phase)
        return nxt, phase


class LandmarkTables(SubstrateStepTables):
    """Landmark-factored substrate step tables with o(n²) memory.

    Same decision function as :class:`SubstrateStepTables` — the paper's
    Lemma 2 direct / up-tree / down-tree factorization — but the two
    quadratic matrices become sorted sparse pair tables:

    * ``direct`` holds one entry per cluster membership (Θ(n·√n) for
      the balanced RTZ clusters), replacing both ``direct_next`` and
      ``has_direct``;
    * ``down`` holds one entry per (ancestor, descendant) slot on a
      canonical ``center(v) -> v`` path — at most one entry per
      (vertex on path, v), i.e. O(n · avg path length);
    * ``up_next`` stays dense at ``(n, C)`` = O(n·√n).

    Every lookup returns the identical int32 next-vertex values the
    dense tables hold, so routing is bit-identical across families.
    """

    def __init__(
        self,
        direct_keys: np.ndarray,
        direct_next: np.ndarray,
        down_keys: np.ndarray,
        down_next: np.ndarray,
        up_next: np.ndarray,
        center_of: np.ndarray,
        center_idx: np.ndarray,
    ):
        self.direct_keys = direct_keys
        self.direct_next = direct_next
        self.down_keys = down_keys
        self.down_next = down_next
        self.up_next = up_next
        self.center_of = center_of
        self.center_idx = center_idx

    @classmethod
    def from_substrate(cls, substrate) -> "LandmarkTables":
        """Take the substrate's direct rows, whose keys are already
        sorted, and sort its down rows into a pair table."""
        n = substrate.metric.n
        direct_keys, direct_hop = substrate.direct_table()
        p, w, x = substrate.down_table()
        down_keys = p * n + w
        order = np.argsort(down_keys)  # unique keys: the order is canonical
        return cls(
            direct_keys, direct_hop.astype(np.int32),
            down_keys[order], x[order].astype(np.int32),
            *_landmark_columns(substrate),
        )

    @property
    def n(self) -> int:
        return int(self.center_of.shape[0])

    def nbytes(self) -> int:
        """Bytes across every table (the o(n²) claim is testable)."""
        return sum(int(arr.nbytes) for arr in vars(self).values())

    def _pairs(self, at: np.ndarray, target: np.ndarray) -> np.ndarray:
        return at.astype(np.int64) * np.int64(self.n) + target.astype(np.int64)

    def _direct_found(self, at: np.ndarray, target: np.ndarray) -> np.ndarray:
        return sorted_lookup(
            self.direct_keys, self.direct_next, self._pairs(at, target)
        )[1]

    def _direct_step(self, at: np.ndarray, target: np.ndarray) -> np.ndarray:
        return sorted_lookup(
            self.direct_keys, self.direct_next, self._pairs(at, target)
        )[0]

    def _down_step(self, at: np.ndarray, target: np.ndarray) -> np.ndarray:
        return sorted_lookup(
            self.down_keys, self.down_next, self._pairs(at, target)
        )[0]


def _landmark_columns(substrate) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(up_next, center_of, center_idx)``: the ``(n, C)`` next vertex
    toward each landmark (``-1`` at it), each vertex's home landmark
    and that landmark's column."""
    arrays = substrate.to_arrays()
    return (
        np.ascontiguousarray(arrays["in_succ"].T, dtype=np.int32),
        arrays["home"].astype(np.int32),
        np.searchsorted(arrays["centers"], arrays["home"]).astype(np.int32),
    )


def compile_substrate_tables(substrate, tables: str = "dense") -> StepTables:
    """Compile an :class:`~repro.rtz.routing.RTZStretch3` substrate's
    three forwarding structures into step tables.

    ``tables="dense"`` yields the original :class:`SubstrateStepTables`
    (three ``(n, n)`` arrays); ``tables="blocked"`` yields
    :class:`LandmarkTables`, the o(n²) landmark-factored form.  Both
    make identical decisions — the family only changes memory — and
    both are scatters or sorts of the substrate's own table arrays.

    The result is cached on the substrate object, so every scheme
    sharing one substrate (stretch-6, its variant, wild names, the RTZ
    baseline — deduplicated by :func:`repro.rtz.routing.shared_substrate`)
    compiles each family exactly once.  The tables are not persisted:
    compiling them from the substrate's arrays is cheaper than reading
    them back from the artifact store.
    """
    family, attr = (
        (LandmarkTables, "_compiled_landmark_tables")
        if tables == "blocked"
        else (SubstrateStepTables, "_compiled_step_tables")
    )
    compiled = getattr(substrate, attr, None)
    if compiled is None:
        compiled = family.from_substrate(substrate)
        setattr(substrate, attr, compiled)
    return compiled


# ----------------------------------------------------------------------
# journey plans
# ----------------------------------------------------------------------
@dataclass
class Segment:
    """One within-leg stage of a batch of journeys.

    Attributes:
        target: ``(B,)`` int64 per-packet segment endpoint; ``-1``
            marks packets that skip this segment entirely (e.g. no
            dictionary detour needed).
        fwd_bits: ``(B,)`` int64 bit size of the header attached to
            every ``Forward`` decision made during this segment.
    """

    target: np.ndarray
    fwd_bits: np.ndarray


@dataclass
class JourneyPlan:
    """A compiled batch: two legs (outbound, acknowledgment), each a
    list of segments, plus each leg's *initial* header bit size (the
    header as injected / as returned by the destination host, measured
    before any forwarding decision)."""

    legs: List[List[Segment]]
    leg_init_bits: List[np.ndarray]


class CompiledRoutes:
    """What :meth:`RoutingScheme.compile_tables` returns.

    Args:
        graph: the scheme's (frozen) digraph.
        tables: the within-leg step tables.
        planner: ``(sources, dest_vertices) -> JourneyPlan`` over int64
            vertex arrays.
        family: which table family these routes were compiled with
            (``"dense"`` or ``"blocked"``; surfaced in stats).
    """

    def __init__(
        self,
        graph: Digraph,
        tables: StepTables,
        planner,
        family: str = "dense",
    ):
        self.graph = graph
        self.tables = tables
        self._planner = planner
        self.family = family

    def plan(self, sources: np.ndarray, dests: np.ndarray) -> JourneyPlan:
        """Compile a batch of (source, dest-vertex) pairs."""
        return self._planner(sources, dests)


def constant_bits(value: int, batch: int) -> np.ndarray:
    """Broadcast one representative-header bit size over a batch."""
    return np.full(batch, int(value), dtype=np.int64)


class DenseKnowledge:
    """Planner inputs for the dictionary-based schemes, dense form:
    an ``(n, n)`` bool "holds the destination's label locally" matrix
    plus the (already sub-quadratic) block-pointer tables."""

    def __init__(
        self, knows: np.ndarray, block_ptr: np.ndarray, bov: np.ndarray
    ):
        self._knows = knows
        self.block_ptr = block_ptr
        self.block_of_vertex = bov

    def local(self, sources: np.ndarray, dests: np.ndarray) -> np.ndarray:
        """Whether each source holds its destination's label locally."""
        return self._knows[sources, dests]

    def dict_node(self, sources: np.ndarray, dests: np.ndarray) -> np.ndarray:
        """The dictionary holder each source consults for its dest."""
        return self.block_ptr[sources, self.block_of_vertex[dests]]


class SparseKnowledge(DenseKnowledge):
    """Same planner answers from a sorted membership-key set instead of
    the ``(n, n)`` bool matrix: each (node, known destination) pair is
    one int64 key, Θ(n·√n) total for the paper's table sizes."""

    def __init__(
        self, n: int, keys: np.ndarray, block_ptr: np.ndarray, bov: np.ndarray
    ):
        super().__init__(None, block_ptr, bov)
        self.n = int(n)
        self.keys = keys

    def local(self, sources: np.ndarray, dests: np.ndarray) -> np.ndarray:
        queries = (
            sources.astype(np.int64) * np.int64(self.n)
            + dests.astype(np.int64)
        )
        return sorted_lookup(self.keys, self.keys, queries)[1]


def compile_knowledge(
    near: np.ndarray,
    held: np.ndarray,
    block_vertices: Sequence[np.ndarray],
    block_ptr: np.ndarray,
    tables: str = "dense",
) -> DenseKnowledge:
    """Planner inputs shared by the dictionary-based schemes.

    A node holds a destination's label locally when the destination is
    in its neighbourhood (Fig. 3 case 1) or in a block it stores
    (case 3); both are read off arrays, never off the label tables.

    Args:
        near: ``(n, s)`` vertex array; row ``u`` is ``N(u)`` (case 1).
        held: ``(n, num_blocks)`` bool; ``held[u, b]`` iff ``u``
            stores block ``b`` (case 3).
        block_vertices: per block, the vertices whose names it holds
            (every vertex in exactly one block).
        block_ptr: ``(n, num_blocks)`` block-index -> holder-vertex
            array (case 2).
        tables: ``"dense"`` builds the ``(n, n)`` bool matrix;
            ``"blocked"`` builds the sorted-key :class:`SparseKnowledge`
            (identical answers, Θ(table entries) memory).

    Returns:
        A :class:`DenseKnowledge` (or :class:`SparseKnowledge`).
    """
    n = near.shape[0]
    block_ptr = np.asarray(block_ptr, dtype=np.int64)
    bov = np.empty(n, dtype=np.int64)
    rows = np.arange(n, dtype=np.int64)[:, None]
    holders = [np.flatnonzero(held[:, b]) for b in range(held.shape[1])]
    for b, verts in enumerate(block_vertices):
        bov[verts] = b
    if tables == "blocked":
        keys = np.sort(np.concatenate([(rows * n + near).ravel()] + [
            (h[:, None] * n + verts[None, :]).ravel()
            for h, verts in zip(holders, block_vertices)
        ]))
        first = np.ones(keys.shape[0], dtype=bool)
        first[1:] = keys[1:] != keys[:-1]
        return SparseKnowledge(n, keys[first], block_ptr, bov)
    knows = np.zeros((n, n), dtype=bool)
    knows[rows, near] = True
    for h, verts in zip(holders, block_vertices):
        knows[h[:, None], verts[None, :]] = True
    return DenseKnowledge(knows, block_ptr, bov)


# ----------------------------------------------------------------------
# the frontier-sweep executor
# ----------------------------------------------------------------------
def run_roundtrips(
    compiled: CompiledRoutes,
    pairs: Sequence[Tuple[int, int]],
    hop_limit: int,
    scheme_name: str = "?",
) -> TraceBatch:
    """Execute a batch of roundtrips against compiled tables.

    All in-flight packets advance one hop per sweep; per-packet leg
    cost/hop/header-bit accounting reproduces the Python simulator
    bit-for-bit (see the module docstring).

    Args:
        compiled: the scheme's compiled routes.
        pairs: ``(source_vertex, dest_vertex)`` pairs.
        hop_limit: per-leg hop budget (same contract as the simulator:
            a leg may make at most ``hop_limit + 1`` forwarding
            decisions before :class:`HopLimitExceeded`).
        scheme_name: label used in error messages.

    Returns:
        A :class:`TraceBatch` in input order: the per-leg cost, hop and
        header-bit arrays the sweeps filled, plus the sweep log its
        hop-by-hop paths are built from on first read.
    """
    batch = len(pairs)
    if batch == 0:
        return TraceBatch.from_traces([])
    sources = np.fromiter((p[0] for p in pairs), dtype=np.int64, count=batch)
    dests = np.fromiter((p[1] for p in pairs), dtype=np.int64, count=batch)
    plan = compiled.plan(sources, dests)
    tables = compiled.tables
    # Edge weights are charged through the O(m) sparse pair lookup (the
    # dense matrix would reintroduce the n² memory the blocked tables
    # remove); values and accumulation order are identical.
    csr = CSRGraph.from_digraph(compiled.graph)

    num_legs = len(plan.legs)
    # Flatten the per-leg segment lists into (num_segs, batch) matrices;
    # leg_of_seg maps a flat segment index to its leg (with a sentinel
    # row so "past the last segment" reads as leg ``num_legs``).
    target_mat = np.stack(
        [seg.target for leg in plan.legs for seg in leg]
    ).astype(np.int64)
    bits_mat = np.stack(
        [seg.fwd_bits for leg in plan.legs for seg in leg]
    ).astype(np.int64)
    leg_of_seg = np.array(
        [li for li, leg in enumerate(plan.legs) for _ in leg] + [num_legs],
        dtype=np.int64,
    )
    init_bits = np.stack(plan.leg_init_bits).astype(np.int64)

    at = sources.copy()
    cur_seg = np.zeros(batch, dtype=np.int64)
    phase = np.zeros(batch, dtype=np.int8)

    leg_cost = np.zeros(batch, dtype=np.float64)
    leg_hops = np.zeros(batch, dtype=np.int64)
    leg_bits = init_bits[0].copy()

    out_cost = np.zeros((num_legs, batch), dtype=np.float64)
    out_bits = np.zeros((num_legs, batch), dtype=np.int64)
    leg_start = np.zeros((num_legs, batch), dtype=np.int64)
    leg_start[0] = sources

    # Sweep log: per sweep, each stepping packet's (packet, leg) key
    # ``packet * num_legs + leg`` and the vertex it stepped to.
    log_key: List[np.ndarray] = []
    log_vert: List[np.ndarray] = []

    # Aim every packet at its first segment.
    first_tgt = target_mat[0]
    present = first_tgt >= 0
    if present.any():
        phase[present] = tables.begin_phase(at[present], first_tgt[present])

    # Per-leg destination (the Python simulator's ``expect_end``): the
    # last segment of each leg is always present, so hop-limit errors
    # can name the failing *leg*'s endpoints exactly as _run_leg does.
    leg_end = np.stack([leg[-1].target for leg in plan.legs])
    failed = np.full(batch, -1, dtype=np.int64)  # leg id at failure

    # The in-flight packets, ascending: delivered and failed packets
    # drop out, so a sweep costs O(in flight), not O(batch).
    live = np.arange(batch, dtype=np.int64)
    while live.shape[0]:
        # --- hop budget: the simulator allows a leg at most
        # ``hop_limit + 1`` forwarding decisions; a packet that has
        # forwarded hop_limit + 1 times without delivering is a loop
        # (even if its last hop happened to land on the target).  The
        # sequential reference raises for the first *input-order* pair
        # that loops (later pairs never run), so park failed packets
        # and keep sweeping — the raise below picks the same pair.
        over = leg_hops[live] > hop_limit
        if over.any():
            lost = live[over]
            failed[lost] = leg_of_seg[cur_seg[lost]]
            live = live[~over]
        # --- segment/leg transitions: packets sitting at their current
        # segment's endpoint (or whose segment is absent for them)
        # advance without consuming a hop, exactly like the scheme's
        # same-call header reprocessing at a dictionary node.
        while True:
            tgt = target_mat[cur_seg[live], live]
            pend = (tgt == -1) | (tgt == at[live])
            if not pend.any():
                break
            pp = live[pend]
            old_leg = leg_of_seg[cur_seg[pp]]
            cur_seg[pp] += 1
            new_leg = leg_of_seg[cur_seg[pp]]
            crossed = new_leg != old_leg
            finished = new_leg >= num_legs
            if crossed.any():
                cp = pp[crossed]
                out_cost[old_leg[crossed], cp] = leg_cost[cp]
                out_bits[old_leg[crossed], cp] = leg_bits[cp]
                opened = crossed & ~finished
                open_p = pp[opened]
                if open_p.shape[0]:
                    olids = new_leg[opened]
                    leg_cost[open_p] = 0.0
                    leg_hops[open_p] = 0
                    leg_bits[open_p] = init_bits[olids, open_p]
                    leg_start[olids, open_p] = at[open_p]
            if finished.any():
                keep = np.ones(live.shape[0], dtype=bool)
                keep[np.flatnonzero(pend)[finished]] = False
                live = live[keep]
                pp = pp[~finished]
            # Re-aim packets that advanced into a live, present segment.
            if pp.shape[0]:
                aim_p = pp[target_mat[cur_seg[pp], pp] >= 0]
                if aim_p.shape[0]:
                    phase[aim_p] = tables.begin_phase(
                        at[aim_p], target_mat[cur_seg[aim_p], aim_p]
                    )
        if not live.shape[0]:
            break
        # --- one synchronized hop for every in-flight packet.
        seg = cur_seg[live]
        here = at[live]
        nxt, new_phase = tables.step(here, target_mat[seg, live], phase[live])
        leg_cost[live] += csr.pair_weights(here, nxt)
        leg_hops[live] += 1
        leg_bits[live] = np.maximum(leg_bits[live], bits_mat[seg, live])
        log_key.append(live * num_legs + leg_of_seg[seg])
        log_vert.append(nxt.astype(np.int64))
        at[live] = nxt
        phase[live] = new_phase

    if (failed >= 0).any():
        p = int(np.flatnonzero(failed >= 0)[0])
        li = int(failed[p])
        raise HopLimitExceeded(
            f"scheme {scheme_name} exceeded {hop_limit} hops routing "
            f"from {int(leg_start[li, p])} to {int(leg_end[li, p])} (loop?)"
        )
    keys = np.concatenate(log_key) if log_key else np.empty(0, np.int64)
    # a leg's hop count is the number of sweeps that logged it
    out_hops = np.bincount(keys, minlength=batch * num_legs)
    out_hops = out_hops.reshape(batch, num_legs).T
    return TraceBatch(
        out_cost, out_hops, out_bits,
        partial(_leg_paths, leg_start, out_hops, keys, log_vert),
    )


def _leg_paths(
    leg_start: np.ndarray,
    leg_hops: np.ndarray,
    keys: np.ndarray,
    log_vert: List[np.ndarray],
) -> List[List[int]]:
    """Every leg's vertex path, packet-major, from the sweep log.

    Each leg's start vertex goes in ahead of its logged hops under the
    same ``(packet, leg)`` key, so one stable argsort leaves every path
    contiguous and in sweep order, and each path is one slice of a
    single list.
    """
    num_legs, batch = leg_start.shape
    order = np.argsort(
        np.concatenate([np.arange(batch * num_legs, dtype=np.int64), keys]),
        kind="stable",
    )
    verts = np.concatenate([leg_start.T.ravel()] + log_vert)[order].tolist()
    ends = np.cumsum(leg_hops.T.ravel() + 1).tolist()
    return [verts[lo:hi] for lo, hi in zip([0] + ends, ends)]
