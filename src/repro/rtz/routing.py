"""The name-dependent stretch-3 roundtrip substrate (Lemma 2).

Re-implementation of the Roditty-Thorup-Zwick SODA'02 scheme from its
defining properties (see DESIGN.md, substitutions):

* landmarks ``A`` (about ``sqrt(n)`` of them); per landmark ``c`` a
  full in-pointer structure (optimal ``x -> c``) and out-tree (optimal
  ``c -> x`` by interval routing);
* clusters ``C(v) = {u : r(u, v) < r(v, A)}``; every member stores a
  direct next-hop for ``v`` along the canonical shortest path.  The
  cluster is closed under shortest-path suffixes, so hop-by-hop direct
  forwarding is well defined;
* the label ``R3(v) = (v, a(v), addr_{OutTree(a(v))}(v))`` of
  ``O(log n)`` bits.

Routing a leg ``x -> y`` given ``R3(y)``:

* if ``x`` holds a direct entry for ``y`` the leg is the exact shortest
  path (cost ``d(x, y)``);
* otherwise up to ``a(y)`` (cost ``d(x, a(y))``) and down the out-tree
  (cost ``d(a(y), y)``); since the direct case failed,
  ``r(y, a(y)) <= r(x, y)``, giving the Lemma 2 leg bound
  ``p(x, y) <= d(x, y) + r(x, y)``.

Two legs make a roundtrip of cost at most ``3 r(x, y)`` — stretch 3.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import TableLookupError
from repro.graph.apsp import apsp_rows, vectorized_engine_supported
from repro.graph.csr import CSRGraph
from repro.graph.roundtrip import RoundtripMetric
from repro.graph.shortest_paths import dijkstra
from repro.rtz.centers import CenterAssignment, sample_centers
from repro.runtime.sizing import id_bits
from repro.tree_routing.fixed_port import IntervalForest, TreeAddress

#: leg-forwarding modes
DIRECT = "dir"
TO_CENTER = "up"
DOWN_TREE = "dn"


@dataclass(frozen=True)
class R3Label:
    """The globally valid routing address of one vertex (Lemma 2).

    Attributes:
        dest: destination vertex identifier.
        center: the destination's home landmark ``a(dest)``.
        addr: the destination's address in ``OutTree(center)``.
    """

    dest: int
    center: int
    addr: TreeAddress

    def header_bits(self, n: int) -> int:
        """Encoded size: two identifiers plus a tree address."""
        return 2 * id_bits(n) + self.addr.bit_size(n)


class RTZStretch3:
    """The Lemma 2 substrate over one graph.

    Every table is an array, and the arrays :meth:`to_arrays` stores are
    the in-memory form:

    * ``in_succ`` ``(C, n)`` — each vertex's successor toward landmark
      ``C[i]`` on the canonical shortest path into it (``-1`` at the
      landmark), from one batched reverse APSP over the landmarks;
    * ``direct_u/v/port`` — one row per cluster membership ``u in C(v)``,
      sorted by ``(u, v)``: the port of the canonical first hop;
    * the landmark out-trees, one :class:`IntervalForest` over the
      oracle's canonical parent rows (re-derived, never stored).

    Per-hop forwarding (:meth:`leg_step`) reads list copies of these
    arrays, made on its first call.

    Args:
        metric: roundtrip metric of the graph.
        rng: landmark sampling randomness.
        center_count: landmark count override (default ``ceil(sqrt n)``).
        centers: explicit landmark set; when given, ``rng`` and
            ``center_count`` are ignored (used by
            :func:`shared_substrate` to build from pre-sampled
            landmarks).
    """

    def __init__(
        self,
        metric: RoundtripMetric,
        rng: Optional[random.Random] = None,
        center_count: Optional[int] = None,
        centers: Optional[Sequence[int]] = None,
    ):
        g = metric.oracle.graph
        if centers is None:
            centers = sample_centers(g.n, rng, center_count)
        assignment = CenterAssignment(metric, centers)
        self._adopt(
            metric, assignment, _in_tree_successors(g, assignment.centers),
            *np.nonzero(assignment.membership().T), None,
        )

    def _adopt(
        self,
        metric: RoundtripMetric,
        assignment: CenterAssignment,
        in_succ: np.ndarray,
        direct_u: np.ndarray,
        direct_v: np.ndarray,
        direct_port: Optional[np.ndarray],
    ) -> None:
        """Install the table arrays and derive the direct rows' first
        hops (and, when ``direct_port`` is ``None``, their ports), the
        out-trees and the labels; shared by the constructor and
        :meth:`from_arrays`."""
        g = metric.oracle.graph
        n = g.n
        parent = metric.oracle.parent_matrix()
        # Walk each direct pair's canonical u -> v path back from v to
        # the vertex whose parent is u: the first hop.
        direct_next = direct_v.copy()
        live = np.arange(direct_u.shape[0])
        while live.shape[0]:
            up = parent[direct_u[live], direct_next[live]]
            moving = up != direct_u[live]
            live = live[moving]
            direct_next[live] = up[moving]
        if direct_port is None:
            direct_port = g.ports_of(direct_u, direct_next)
        self._metric = metric
        self._n = n
        self.assignment = assignment
        centers = assignment.centers
        self._center_index: Dict[int, int] = {c: i for i, c in enumerate(centers)}
        self._out = IntervalForest(g, centers, parent[centers])
        self._in_succ = in_succ
        self._direct_u = direct_u
        self._direct_v = direct_v
        self._direct_port = direct_port
        self._direct_next = direct_next
        self._direct_keys = direct_u * n + direct_v
        self._entries: Optional[np.ndarray] = None
        self._hop_lists: Optional[Tuple[List[int], List[int], List[List[int]]]] = None
        home = [assignment.home_center(v) for v in range(n)]
        self._home_tree = np.array([self._center_index[c] for c in home])
        dfs = self._out.dfs[self._home_tree, np.arange(n)].tolist()
        self._labels: List[R3Label] = [
            R3Label(v, c, TreeAddress(t, d))
            for v, (c, t, d) in enumerate(zip(home, self._home_tree.tolist(), dfs))
        ]

    # ------------------------------------------------------------------
    @property
    def metric(self) -> RoundtripMetric:
        """The roundtrip metric."""
        return self._metric

    @property
    def centers(self) -> List[int]:
        """The landmark set ``A``."""
        return list(self.assignment.centers)

    def label(self, v: int) -> R3Label:
        """``R3(v)`` — assigned at preprocessing, handed to senders by
        the TINN dictionary layer."""
        return self._labels[v]

    def _make_hop_lists(self) -> Tuple[List[int], List[int], List[List[int]]]:
        """List copies of the tables for per-hop lookups, made on first
        use: the sorted direct keys and their ports, and each landmark's
        in-pointer port per vertex (``-1`` where there is none)."""
        live = self._in_succ >= 0
        in_port = np.full(self._in_succ.shape, -1, dtype=np.int64)
        in_port[live] = self._metric.oracle.graph.ports_of(
            np.nonzero(live)[1], self._in_succ[live]
        )
        self._hop_lists = (
            self._direct_keys.tolist(), self._direct_port.tolist(),
            in_port.tolist(),
        )
        return self._hop_lists

    def _direct_row(self, u: int, v: int) -> int:
        """Index of ``u``'s direct row for ``v``, or -1."""
        keys = (self._hop_lists or self._make_hop_lists())[0]
        key = u * self._n + v
        row = bisect_left(keys, key)
        return row if row < len(keys) and keys[row] == key else -1

    def has_direct(self, u: int, v: int) -> bool:
        """Whether ``u`` stores a direct next-hop for ``v``."""
        return self._direct_row(u, v) >= 0

    # ------------------------------------------------------------------
    # compiled-table inputs (array reads; see also to_arrays)
    # ------------------------------------------------------------------
    def direct_table(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(u * n + v, next_vertex)`` per direct row, keys ascending."""
        return self._direct_keys, self._direct_next

    def down_table(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(p, v, x)`` for every edge ``p -> x`` on the out-tree path
        from ``a(v)`` to ``v``: the down-tree decisions a leg toward
        ``v`` can consult.

        An edge's child ``x`` lies on that path exactly when ``v``'s
        number falls in ``x``'s interval, so each child row expands to
        the run of ``a``-homed vertices inside its interval.
        """
        forest = self._out
        n = self._metric.n
        tree = self._home_tree
        slot = tree * n + forest.dfs[tree, np.arange(n)]
        by_slot = np.argsort(slot)
        slot = slot[by_slot]
        row_tree = forest.row_key // n
        first = np.searchsorted(slot, row_tree * n + forest.row_lo)
        count = np.searchsorted(slot, row_tree * n + forest.row_hi) - first
        starts = np.repeat(first - np.cumsum(count) + count, count)
        flat = np.arange(int(count.sum())) + starts
        return (
            np.repeat(forest.row_key % n, count),
            by_slot[flat],
            np.repeat(forest.row_child, count),
        )

    # ------------------------------------------------------------------
    # leg forwarding (pure local decisions)
    # ------------------------------------------------------------------
    def begin_leg(self, at: int, label: R3Label) -> str:
        """Choose the leg mode at the leg's first vertex."""
        if at == label.dest or self._direct_row(at, label.dest) >= 0:
            return DIRECT
        if at == label.center:
            return DOWN_TREE
        return TO_CENTER

    def leg_step(
        self, at: int, label: R3Label, mode: str
    ) -> Tuple[Optional[int], str]:
        """One forwarding decision of a leg.

        Args:
            at: current vertex.
            label: the leg's destination label.
            mode: current leg mode (``DIRECT``/``TO_CENTER``/
                ``DOWN_TREE``).

        Returns:
            ``(port, next_mode)`` — ``port`` is ``None`` exactly when
            ``at`` is the destination.

        Raises:
            TableLookupError: on a missing table entry (a bug; the
                closure property rules it out for correct tables).
        """
        if at == label.dest:
            return None, mode
        if mode == DIRECT:
            row = self._direct_row(at, label.dest)
            if row < 0:
                raise TableLookupError(
                    f"direct entry for {label.dest} missing at {at} "
                    "(cluster closure violated?)"
                )
            return self._hop_lists[1][row], DIRECT
        if mode == TO_CENTER:
            if at == label.center:
                mode = DOWN_TREE
            else:
                in_port = (self._hop_lists or self._make_hop_lists())[2]
                port = in_port[self._center_index[label.center]][at]
                if port < 0:
                    raise TableLookupError(
                        f"vertex {at} has no pointer toward root {label.center}"
                    )
                return port, TO_CENTER
        if mode == DOWN_TREE:
            tree = self._center_index[label.center]
            if label.addr.tree_id != tree:
                raise TableLookupError(
                    f"address for tree {label.addr.tree_id} used in tree {tree}"
                )
            port = self._out.port_toward(at, label.addr.dfs, tree)
            if port is None:  # pragma: no cover - dest check above
                return None, DOWN_TREE
            return port, DOWN_TREE
        raise TableLookupError(f"unknown leg mode {mode!r}")

    def route_leg(self, x: int, y: int) -> List[int]:
        """Drive a full leg ``x -> y`` (analysis helper; packet-time
        forwarding goes through a scheme + simulator)."""
        label = self.label(y)
        mode = self.begin_leg(x, label)
        at = x
        path = [at]
        g = self._metric.oracle.graph
        for _ in range(4 * g.n + 8):
            port, mode = self.leg_step(at, label, mode)
            if port is None:
                return path
            at = g.head_of_port(at, port)
            path.append(at)
        raise TableLookupError(f"leg {x} -> {y} failed to terminate")

    def leg_cost_bound(self, x: int, y: int) -> float:
        """Lemma 2's per-leg bound ``r(x, y) + d(x, y)``."""
        return self._metric.r(x, y) + self._metric.d(x, y)

    # ------------------------------------------------------------------
    # artifact-store serialization
    # ------------------------------------------------------------------
    def to_arrays(self) -> Dict[str, np.ndarray]:
        """The substrate's store arrays, which are its in-memory tables.

        They are the landmark set, the home-center assignment, the
        in-tree successors and the direct rows — every part whose
        reconstruction needs shortest-path work or the rng.  Out-trees
        and labels are *not* stored: :meth:`from_arrays` re-derives them
        from the oracle's canonical forward trees, which is cheap and
        deterministic.
        """
        return {
            "centers": np.asarray(self.assignment.centers, dtype=np.int64),
            "home": np.asarray(self.assignment._home, dtype=np.int64),
            "r_to_a": np.asarray(self.assignment._r_to_a, dtype=np.float64),
            "in_succ": self._in_succ,
            "direct_u": self._direct_u,
            "direct_v": self._direct_v,
            "direct_port": self._direct_port,
        }

    @classmethod
    def from_arrays(
        cls, metric: RoundtripMetric, arrays: Dict[str, np.ndarray]
    ) -> "RTZStretch3":
        """Rehydrate a substrate from :meth:`to_arrays` output.

        The stored arrays become the tables as they are; only the
        out-tree numbering, the direct rows' first hops (a parent walk)
        and the labels are derived.  The result is bit-identical to a
        fresh build and is registered in :func:`shared_substrate`'s
        per-metric cache so subsequent scheme builds reuse it.
        """
        self = cls.__new__(cls)
        assignment = CenterAssignment.restore(
            metric, arrays["centers"].tolist(), arrays["home"], arrays["r_to_a"]
        )
        self._adopt(metric, assignment, *(
            np.asarray(arrays[k], dtype=np.int64)
            for k in ("in_succ", "direct_u", "direct_v", "direct_port")
        ))
        _adopt_shared(metric, self)
        return self

    def __getstate__(self):
        """Pickle the substrate *without* its compiled step tables.

        The dense :class:`~repro.runtime.engine.SubstrateStepTables`
        cache (three ``(n, n)``-shaped arrays) is rebuilt worker-side
        from the substrate's own arrays on the first compile, so
        process-pool shard execution never ships it.
        """
        state = dict(self.__dict__)
        state.pop("_compiled_step_tables", None)
        state.pop("_compiled_landmark_tables", None)
        return state

    # ------------------------------------------------------------------
    # size accounting
    # ------------------------------------------------------------------
    def table_entries(self, u: int) -> int:
        """Rows stored at ``u``: direct entries, per-landmark pointers
        and interval rows, plus its own label."""
        if self._entries is None:
            self._entries = (
                np.bincount(self._direct_u, minlength=self._metric.n)
                + (self._in_succ >= 0).sum(axis=0)
                + self._out.entries().sum(axis=0)
                + 3  # own label (dest, center, addr)
            )
        return int(self._entries[u])

    def expected_entry_bound(self) -> float:
        """The ``~O(sqrt(n))`` shape: ``c * sqrt(n) * log(n)`` with a
        generous constant, used by size benchmarks."""
        n = self._metric.n
        return 12.0 * math.sqrt(n) * max(1.0, math.log2(n))


def _in_tree_successors(g, centers: List[int]) -> np.ndarray:
    """``(C, n)`` successor of every vertex on its canonical shortest
    path into each landmark, ``-1`` at the landmark.

    One batched APSP over the transposed graph: its canonical parents
    are the reverse Dijkstras' successors, floats and tie-breaks alike
    (see :mod:`repro.graph.apsp`).  Graphs outside the batched engine's
    exact range use the sequential reverse Dijkstra.
    """
    csr = CSRGraph.from_digraph(g)
    if vectorized_engine_supported(csr):
        # the transposed snapshot: out and in arrays swap roles
        transposed = CSRGraph(
            g.n, csr.in_indptr, csr.in_tails, csr.in_weights,
            csr.out_indptr, csr.out_heads, csr.out_weights,
        )
        succ = apsp_rows(transposed, centers)[1]
    else:
        succ = np.array([dijkstra(g, c, reverse=True)[1] for c in centers])
    succ[np.arange(len(centers)), centers] = -1
    return succ


# ----------------------------------------------------------------------
# shared-substrate cache
# ----------------------------------------------------------------------
# Every scheme that rides on the Lemma 2 substrate (stretch-6, its
# variant, the wild-name scheme, and the RTZ baseline) historically
# built its own RTZStretch3 unless a ``substrate=`` kwarg was threaded
# through by hand.  shared_substrate() deduplicates those builds: the
# landmark set is sampled first (consuming the caller's rng exactly as
# a fresh construction would, so downstream draws are unchanged), and
# the expensive tree/table construction is reused whenever the same
# metric and landmark set come around again.
#
# The cache lives on the metric object itself (not in a module-level
# WeakKeyDictionary): a substrate strongly references its metric, so a
# weak-keyed mapping would pin every entry forever, whereas the
# metric -> cache -> substrate -> metric cycle here is ordinary
# garbage once the metric's last external reference drops.
_CACHE_ATTR = "_rtz_substrate_cache"


def _adopt_shared(metric: RoundtripMetric, substrate: "RTZStretch3") -> None:
    """Register a substrate in the per-metric shared cache (idempotent;
    an existing entry for the same landmark set wins)."""
    per_metric: Optional[Dict[Tuple[int, ...], RTZStretch3]] = getattr(
        metric, _CACHE_ATTR, None
    )
    if per_metric is None:
        per_metric = {}
        setattr(metric, _CACHE_ATTR, per_metric)
    per_metric.setdefault(tuple(substrate.assignment.centers), substrate)


def shared_substrate(
    metric: RoundtripMetric,
    rng: Optional[random.Random] = None,
    center_count: Optional[int] = None,
) -> RTZStretch3:
    """A cached :class:`RTZStretch3` for ``metric``.

    Identical ``(metric, sampled landmark set)`` pairs share one
    substrate object; distinct rngs (hence distinct landmark sets) get
    distinct substrates, so results are bit-identical to building
    fresh.  This is the default construction path of the scheme
    wrappers; pass ``substrate=`` explicitly to bypass it.  Cache
    entries die with their metric.
    """
    centers = tuple(sample_centers(metric.n, rng, center_count))
    per_metric: Optional[Dict[Tuple[int, ...], RTZStretch3]] = getattr(
        metric, _CACHE_ATTR, None
    )
    if per_metric is None:
        per_metric = {}
        setattr(metric, _CACHE_ATTR, per_metric)
    substrate = per_metric.get(centers)
    if substrate is None:
        substrate = RTZStretch3(metric, centers=centers)
        per_metric[centers] = substrate
    return substrate
