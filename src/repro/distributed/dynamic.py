"""Dynamic maintenance of the routing tables (Section 6, second half).

The paper: "An open problem is how to efficiently maintain these
tables in a dynamic network... the strength of the TINN model is that
the node names are decoupled from network topology".  This module
implements the baseline everyone must beat — *incremental
recomputation after an edge-weight change* — and quantifies the two
things the paper's remark promises:

1. **Names never change.** A weight update invalidates distances,
   neighborhoods, clusters, and labels — but not a single name.  Any
   identity an application stored keeps working after the tables are
   repaired (tested in ``tests/test_dynamic_maintenance.py``).
2. **Most of the table survives.** The incremental protocol re-floods
   only the distance entries whose values actually changed, and
   reports how many table ingredients (per node) were touched, versus
   a full rebuild.

The repair itself now rides the real stack: the update is expressed as
a :class:`~repro.graph.delta.GraphDelta` and folded through the
incremental APSP repair protocol (:mod:`repro.graph.repair`), which
certifies which per-source rows an op can affect and recomputes only
those with the vectorized engine's own kernels — so the reported
"entries touched vs full rebuild" numbers come from the same machinery
:meth:`repro.api.network.Network.evolve` uses, not from a simulation
side-path.  Weight *increases* are the poison path: rows whose
shortest-path tree used the changed edge are invalidated by the
certificate and recomputed exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.distributed.preprocessing import DistributedPreprocessing
from repro.exceptions import ConstructionError
from repro.graph.delta import GraphDelta
from repro.graph.digraph import Digraph
from repro.graph.repair import repair_apsp
from repro.graph.shortest_paths import DistanceOracle

INF = math.inf


def reweighted_copy(g: Digraph, tail: int, head: int, weight: float) -> Digraph:
    """A frozen copy of ``g`` with one edge's weight replaced.

    Ports are preserved for every edge (including the changed one), so
    forwarding state that stores ports remains meaningful.  This is
    now a thin veneer over the public port-preserving delta API
    (:meth:`Digraph.apply_delta`), which validates the edge exists and
    the weight is positive.
    """
    return g.apply_delta(GraphDelta.reweight(tail, head, weight))


@dataclass
class UpdateReport:
    """What one edge-weight update cost and touched.

    Attributes:
        rounds: distance-repair rounds until convergence.
        messages: vector entries exchanged during the repair.
        dist_entries_changed: how many ``(node, target)`` distance
            entries changed value.
        nodes_with_changed_neighborhood: nodes whose ``N(v)`` changed.
        names_changed: always 0 — recorded to make the TINN promise
            explicit in experiment output.
    """

    rounds: int
    messages: int
    dist_entries_changed: int
    nodes_with_changed_neighborhood: int
    names_changed: int = 0


class DynamicMaintenance:
    """Incrementally maintains a :class:`DistributedPreprocessing`
    state across edge-weight updates.

    Args:
        prep: a completed preprocessing run (its node states are
            updated in place by :meth:`update_edge_weight`).
    """

    def __init__(self, prep: DistributedPreprocessing):
        self._prep = prep
        self._g = prep.graph
        # Canonical APSP state for the current graph: the substrate the
        # incremental repair protocol patches across updates.
        oracle = DistanceOracle(self._g)
        self._d = np.array(oracle.d_matrix, dtype=np.float64)
        self._parent = oracle.parent_matrix()

    # ------------------------------------------------------------------
    def update_edge_weight(
        self, tail: int, head: int, weight: float
    ) -> Tuple[Digraph, UpdateReport]:
        """Apply a weight change and repair all distance state.

        Returns:
            ``(new_graph, report)``; the preprocessing state now refers
            to the new graph (self._g is replaced).
        """
        old_nb = [set(self._prep.neighborhood_of(v)) for v in range(self._g.n)]
        new_g, report = self._repair_distances(
            GraphDelta.reweight(tail, head, weight)
        )
        self._g = new_g
        # downstream ingredients recomputed from repaired vectors
        self._refresh_derived()
        changed_nb = sum(
            1
            for v in range(new_g.n)
            if set(self._prep.neighborhood_of(v)) != old_nb[v]
        )
        report.nodes_with_changed_neighborhood = changed_nb
        return new_g, report

    # ------------------------------------------------------------------
    def _repair_distances(
        self, delta: GraphDelta
    ) -> Tuple[Digraph, UpdateReport]:
        """Fold ``delta`` through the incremental APSP repair protocol
        and refresh every node's name-keyed distance vectors from the
        repaired matrices.

        Rows whose shortest-path trees the delta cannot have touched
        are certified unchanged and carried over; the rest are
        recomputed with the vectorized engine's own kernels
        (:func:`repro.graph.repair.repair_apsp`).  When the protocol
        does not apply (e.g. weights below the vectorized engine's safe
        floor) the update degrades to a full rebuild — the baseline the
        incremental path is measured against.
        """
        n = self._g.n
        nodes = self._prep.nodes
        new_g = self._g.apply_delta(delta)
        result = repair_apsp(self._g, self._d, self._parent, delta, new_g)
        if result is not None:
            d_new = result.d
            p_new = result.parent
            rows_recomputed = result.report.rows_recomputed
        else:
            oracle = DistanceOracle(new_g)
            d_new = np.array(oracle.d_matrix, dtype=np.float64)
            p_new = oracle.parent_matrix()
            rows_recomputed = n
        # Each d entry appears in two per-node vectors (dist_to at its
        # row's node, dist_from at its column's node), matching the
        # distance-vector accounting this report historically used.
        entries_changed = 2 * int(
            np.count_nonzero(np.abs(d_new - self._d) > 1e-9)
        )
        # Message analog: every node examines its certificate (one
        # vector scan per op) and touched rows re-announce full vectors.
        messages = (len(delta.ops) + rows_recomputed) * n
        names = [nodes[v].name for v in range(n)]
        for u in range(n):
            row = d_new[u]
            col = d_new[:, u]
            nodes[u].dist_to = {
                names[t]: float(row[t]) for t in range(n)
            }
            nodes[u].dist_from = {
                names[s]: float(col[s]) for s in range(n)
            }
        self._d = d_new
        self._parent = p_new
        return new_g, UpdateReport(
            rounds=max(1, len(delta.ops)),
            messages=messages,
            dist_entries_changed=entries_changed,
            nodes_with_changed_neighborhood=0,
        )

    def _refresh_derived(self) -> None:
        """Recompute next hops from the repaired vectors, then let the
        preprocessing redo center radii and tree addresses over the new
        graph (names, landmarks, and block sets are untouched — the
        TINN decoupling)."""
        prep = self._prep
        g = self._g
        n = g.n
        for u in range(n):
            node = prep.nodes[u]
            node.next_port = {}
            for t_name in node.known_names:
                if t_name == node.name:
                    continue
                best: Optional[Tuple[float, int, int]] = None
                for (x, w) in g.out_neighbors(u):
                    cand = w + prep.nodes[x].dist_to.get(t_name, INF)
                    key = (cand, prep.nodes[x].name, x)
                    if best is None or key < best:
                        best = key
                if best is None or best[0] == INF:
                    raise ConstructionError(
                        "repair left an unreachable destination"
                    )
                node.next_port[t_name] = g.port_of(u, best[2])
        prep.reconverge(g)

    # ------------------------------------------------------------------
    def verify(self, oracle: DistanceOracle) -> None:
        """Check the repaired state against a fresh centralized oracle
        of the updated graph."""
        self._prep.verify_against_oracle(oracle)
        self._prep.verify_cluster_decisions(oracle)
