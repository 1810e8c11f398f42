"""Distributed construction of the stretch-6 tables (Section 6).

The paper computes all tables centrally and leaves distributed
construction as an open problem.  This module implements the
straightforward (not message-optimal) distributed algorithm the
paper's remark implies — "in time proportional to all-pairs shortest
paths" — as a synchronous message-passing simulation, and *accounts
every message and round*, making the open problem's cost concrete.

Model: synchronous rounds; each directed edge is a bidirectional
control channel (data-plane weights apply to routed packets only, as
in standard distance-vector protocols).  Nodes know only: their own
name, their incident edges (ports and weights), and a shared random
seed obtained by leader election.  Everything else is learned by
messages.

Phases (rounds and message counts reported per phase):

1. **Name discovery + leader election** — every node floods its name;
   after at most ``n`` rounds all nodes know all names, and the
   minimum name is the leader.
2. **Distance vectors** — distributed Bellman-Ford in both edge
   directions; each node ends with ``d(u, .)`` and ``d(., u)`` keyed
   by name, hence its full roundtrip row ``r(u, .)`` and ``Init_u``.
3. **Shared randomness** — the leader floods a seed; landmarks ``A``
   and block sets ``S_v`` are then *locally computable* (they depend
   only on the seed, the node's own name, and its ``Init`` prefix).
4. **Center radii** — every node floods ``r(v, A)`` so others can
   decide cluster membership ``u in C(v)`` locally.
5. **Label exchange** — every node computes its own ``R3``-style
   label (home landmark + tree address) and floods it; dictionary
   nodes keep the labels of names in their blocks, neighbors keep
   neighbors'.  Tree addresses are assigned by each landmark root,
   which collects parent pointers by convergecast along its in-tree
   and distributes DFS intervals back down.

The result is checked against the centralized oracle field by field
(:meth:`DistributedPreprocessing.verify_against_oracle`), which is the
reproduction-grade statement: the distributed protocol computes
exactly the knowledge the centralized constructions use.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.exceptions import ConstructionError
from repro.graph.digraph import Digraph
from repro.graph.shortest_paths import DistanceOracle
from repro.naming.blocks import sqrt_block_space
from repro.naming.permutation import Naming

INF = math.inf


@dataclass
class PhaseCost:
    """Rounds and messages one phase consumed."""

    rounds: int = 0
    messages: int = 0


@dataclass
class NodeState:
    """Everything one node has learned (keyed by *names* throughout —
    a node never sees another node's internal vertex id)."""

    #: the node's own name
    name: int = -1
    #: names of all nodes (learned in phase 1)
    known_names: Set[int] = field(default_factory=set)
    #: forward distances d(self -> name)
    dist_to: Dict[int, float] = field(default_factory=dict)
    #: reverse distances d(name -> self)
    dist_from: Dict[int, float] = field(default_factory=dict)
    #: next-hop port toward each name (from neighbor vectors)
    next_port: Dict[int, int] = field(default_factory=dict)
    #: landmark names (phase 3)
    landmarks: List[int] = field(default_factory=list)
    #: own block set S_v (phase 3)
    blocks: Set[int] = field(default_factory=set)
    #: r(name, A) for every name (phase 4)
    center_radius: Dict[int, float] = field(default_factory=dict)


class DistributedPreprocessing:
    """Runs the phases over a frozen digraph with a given naming.

    Args:
        g: the (frozen) network.
        naming: node names (each node initially knows only its own).
        seed: the shared-randomness seed the leader will flood (models
            the leader drawing it; fixed here for reproducibility).
    """

    def __init__(self, g: Digraph, naming: Naming, seed: int = 0):
        self._g = g
        self._naming = naming
        self._seed = seed
        n = g.n
        self.nodes: List[NodeState] = [NodeState() for _ in range(n)]
        for v in range(n):
            self.nodes[v].name = naming.name_of(v)
        self.costs: Dict[str, PhaseCost] = {}
        # control-plane adjacency: both endpoints of every edge
        self._peers: List[List[int]] = [[] for _ in range(n)]
        for u in range(n):
            for (v, _w) in g.out_neighbors(u):
                self._peers[u].append(v)
                self._peers[v].append(u)
        self._peers = [sorted(set(ps)) for ps in self._peers]
        self.leader: int = -1

        self._phase1_names()
        self._phase2_distances()
        self._phase3_shared_randomness()
        self._phase4_center_radii()
        self._phase5_tree_addresses()

    @property
    def graph(self) -> Digraph:
        """The network the node states currently describe."""
        return self._g

    def reconverge(self, g: Digraph) -> None:
        """Adopt ``g`` — the same nodes with changed edge weights — and
        redo phases 4 and 5 (center radii, landmark tree addresses)
        from the nodes' current distance vectors.

        The caller has already brought every node's ``dist_to`` /
        ``dist_from`` and ``next_port`` up to date for ``g`` (see
        :class:`repro.distributed.dynamic.DynamicMaintenance`); names,
        landmarks, and block sets stay.
        """
        self._g = g
        self._phase4_center_radii()
        self._phase5_tree_addresses()

    # ------------------------------------------------------------------
    # phase 1: flood names, elect min-name leader
    # ------------------------------------------------------------------
    def _phase1_names(self) -> None:
        cost = PhaseCost()
        known: List[Set[int]] = [
            {self.nodes[v].name} for v in range(self._g.n)
        ]
        changed = True
        while changed:
            changed = False
            cost.rounds += 1
            outgoing: List[Set[int]] = [set(k) for k in known]
            for u in range(self._g.n):
                for p in self._peers[u]:
                    new = outgoing[u] - known[p]
                    if new:
                        cost.messages += len(new)
                        known[p] |= new
                        changed = True
        for v in range(self._g.n):
            self.nodes[v].known_names = known[v]
        all_names = known[0]
        leader_name = min(all_names)
        self.leader = self._naming.vertex_of(leader_name)
        self.costs["1 names+leader"] = cost

    # ------------------------------------------------------------------
    # phase 2: Bellman-Ford distance vectors, both directions
    # ------------------------------------------------------------------
    def _phase2_distances(self) -> None:
        cost = PhaseCost()
        n = self._g.n
        dist_to: List[Dict[int, float]] = [
            {self.nodes[u].name: 0.0} for u in range(n)
        ]
        dist_from: List[Dict[int, float]] = [
            {self.nodes[u].name: 0.0} for u in range(n)
        ]
        changed = True
        while changed:
            changed = False
            cost.rounds += 1
            # each node shares its current vectors with control peers;
            # relaxations use the data-plane edge weights.
            snapshot_to = [dict(d) for d in dist_to]
            snapshot_from = [dict(d) for d in dist_from]
            for u in range(n):
                # forward: d(u, t) = min over out-neighbor x of
                # w(u, x) + d(x, t)
                for (x, w) in self._g.out_neighbors(u):
                    cost.messages += len(snapshot_to[x])
                    for (t_name, dx) in snapshot_to[x].items():
                        cand = w + dx
                        if cand < dist_to[u].get(t_name, INF) - 1e-12:
                            dist_to[u][t_name] = cand
                            changed = True
                # reverse: d(s, u) = min over in-neighbor x of
                # d(s, x) + w(x, u)
                for (x, w) in self._g.in_neighbors(u):
                    cost.messages += len(snapshot_from[x])
                    for (s_name, dx) in snapshot_from[x].items():
                        cand = dx + w
                        if cand < dist_from[u].get(s_name, INF) - 1e-12:
                            dist_from[u][s_name] = cand
                            changed = True
        for u in range(n):
            self.nodes[u].dist_to = dist_to[u]
            self.nodes[u].dist_from = dist_from[u]
        # next-hop ports from final neighbor vectors (one more exchange)
        cost.rounds += 1
        for u in range(n):
            for t_name in self.nodes[u].known_names:
                if t_name == self.nodes[u].name:
                    continue
                best: Optional[Tuple[float, int, int]] = None
                for (x, w) in self._g.out_neighbors(u):
                    cost.messages += 1
                    cand = w + dist_to[x].get(t_name, INF)
                    key = (cand, self.nodes[x].name, x)
                    if best is None or key < best:
                        best = key
                if best is None or best[0] == INF:
                    raise ConstructionError(
                        f"distance vectors incomplete at node {u}"
                    )
                self.nodes[u].next_port[t_name] = self._g.port_of(u, best[2])
        self.costs["2 distances"] = cost

    # ------------------------------------------------------------------
    # phase 3: seed flood; landmarks + blocks locally computable
    # ------------------------------------------------------------------
    def _phase3_shared_randomness(self) -> None:
        cost = PhaseCost()
        # flooding one seed value: diameter-many rounds, one value per
        # edge per direction in the worst case
        cost.rounds = self._flood_rounds()
        cost.messages = 2 * self._g.m
        n = self._g.n
        rng = random.Random(self._seed)
        landmark_names = sorted(
            rng.sample(sorted(self.nodes[0].known_names),
                       max(1, int(math.ceil(math.sqrt(n))))),
        )
        blocks = sqrt_block_space(n)
        budget = min(
            blocks.num_blocks(), int(3 * math.log(max(n, 2))) + 1
        )
        for v in range(n):
            node = self.nodes[v]
            node.landmarks = list(landmark_names)
            # each node derives its own block sample from (seed, name):
            # shared randomness makes the sample verifiable by anyone.
            local = random.Random(self._seed * 1_000_003 + node.name)
            node.blocks = set(
                local.sample(range(blocks.num_blocks()), budget)
            )
        self.costs["3 seed+blocks"] = cost

    # ------------------------------------------------------------------
    # phase 4: flood r(v, A) values
    # ------------------------------------------------------------------
    def _phase4_center_radii(self) -> None:
        cost = PhaseCost()
        n = self._g.n
        radii: Dict[int, float] = {}
        for v in range(n):
            node = self.nodes[v]
            r_va = min(self._r_of(node, c) for c in node.landmarks)
            radii[node.name] = r_va
        # n values flooded: n rounds upper bound, n values over each
        # edge in each direction worst case
        cost.rounds = self._flood_rounds()
        cost.messages = 2 * self._g.m * n
        for v in range(n):
            self.nodes[v].center_radius = dict(radii)
        self.costs["4 center radii"] = cost

    # ------------------------------------------------------------------
    # phase 5: landmark out-trees — parents from neighbor vectors,
    # DFS intervals assigned by each root
    # ------------------------------------------------------------------
    def _phase5_tree_addresses(self) -> None:
        cost = PhaseCost()
        n = self._g.n
        #: per landmark name: {node name -> parent name} (root: itself)
        self.tree_parents: Dict[int, Dict[int, int]] = {}
        #: per landmark name: {node name -> dfs number}
        self.tree_addresses: Dict[int, Dict[int, int]] = {}
        for c_name in self.nodes[0].landmarks:
            c = self._naming.vertex_of(c_name)
            parents: Dict[int, int] = {c_name: c_name}
            for v in range(n):
                if v == c:
                    continue
                node = self.nodes[v]
                # v picks its OutTree(c) parent from in-neighbor
                # vectors: x minimizing d(c, x) + w(x, v), smallest
                # name first (one message per in-neighbor).
                best: Optional[Tuple[float, int]] = None
                for (x, w) in self._g.in_neighbors(v):
                    cost.messages += 1
                    # d(c, x) is x's dist_from entry for c
                    cand = self.nodes[x].dist_from[c_name] + w
                    key = (cand, self.nodes[x].name)
                    if best is None or key < best:
                        best = key
                if best is None or abs(
                    best[0] - node.dist_from[c_name]
                ) > 1e-9:
                    raise ConstructionError(
                        f"no shortest-path parent for {v} in tree of "
                        f"{c_name}"
                    )
                parents[node.name] = best[1]
                # v reports (name, parent) to the root along its path
                cost.messages += self._hops_to(v, c_name)
            # root assigns DFS numbers locally and sends them back
            children: Dict[int, List[int]] = {}
            for (child, parent) in parents.items():
                if child != parent:
                    children.setdefault(parent, []).append(child)
            order: Dict[int, int] = {}
            stack = [c_name]
            counter = 0
            while stack:
                x = stack.pop()
                if x in order:
                    raise ConstructionError("cycle in distributed tree")
                order[x] = counter
                counter += 1
                for ch in sorted(children.get(x, []), reverse=True):
                    stack.append(ch)
            if len(order) != n:
                raise ConstructionError(
                    f"tree of {c_name} is disconnected"
                )
            for v in range(n):
                if v != c:
                    cost.messages += self._hops_to(c, self.nodes[v].name)
            cost.rounds += 2 * n  # convergecast + downcast bound
            self.tree_parents[c_name] = parents
            self.tree_addresses[c_name] = order
        self.costs["5 tree addresses"] = cost

    def _hops_to(self, v: int, target_name: int) -> int:
        """Hop count of the next-port path from ``v`` to the node
        named ``target_name`` (used for message accounting)."""
        at = v
        hops = 0
        while self.nodes[at].name != target_name:
            port = self.nodes[at].next_port[target_name]
            at = self._g.head_of_port(at, port)
            hops += 1
            if hops > self._g.n:
                raise ConstructionError("next-port path does not converge")
        return hops

    # ------------------------------------------------------------------
    # local views
    # ------------------------------------------------------------------
    @staticmethod
    def _r_of(node: NodeState, other_name: int) -> float:
        return node.dist_to[other_name] + node.dist_from[other_name]

    def _flood_rounds(self) -> int:
        """Hop-diameter bound for a flood (control plane)."""
        return self._g.n

    def init_order_of(self, v: int) -> List[int]:
        """``Init_v`` computed purely from node ``v``'s local state
        (names sorted by the Section 2 key)."""
        node = self.nodes[v]
        # Section 2's key: roundtrip, then the one-way distance INTO v
        # (d(u, v) is v's dist_from entry), then the name.
        return sorted(
            node.known_names,
            key=lambda t: (self._r_of(node, t), node.dist_from[t], t),
        )

    def neighborhood_of(self, v: int) -> List[int]:
        """``N(v)`` (names) from local state."""
        size = int(math.ceil(math.sqrt(self._g.n)))
        return self.init_order_of(v)[:size]

    def home_landmark_of(self, v: int) -> int:
        """``a(v)`` (name) from local state."""
        node = self.nodes[v]
        return min(
            node.landmarks, key=lambda c: (self._r_of(node, c), c)
        )

    def in_cluster(self, u: int, v_name: int) -> bool:
        """Whether node ``u`` decides it belongs to ``C(v)`` — using
        only ``u``'s local state (its own distances and the flooded
        ``r(v, A)``)."""
        node = self.nodes[u]
        if node.name == v_name:
            return False
        return self._r_of(node, v_name) < node.center_radius[v_name] - 1e-12

    # ------------------------------------------------------------------
    # message accounting
    # ------------------------------------------------------------------
    def total_messages(self) -> int:
        """Total control-plane messages across all phases."""
        return sum(c.messages for c in self.costs.values())

    def total_rounds(self) -> int:
        """Total synchronous rounds across all phases."""
        return sum(c.rounds for c in self.costs.values())

    # ------------------------------------------------------------------
    # verification against the centralized construction
    # ------------------------------------------------------------------
    def verify_against_oracle(self, oracle: DistanceOracle) -> None:
        """Assert the distributed knowledge equals the centralized
        ground truth: distances, next hops (shortest-path property),
        Init orders, neighborhoods, and cluster decisions."""
        n = self._g.n
        for u in range(n):
            node = self.nodes[u]
            assert node.known_names == set(
                self._naming.all_names()
            ), f"node {u} missed names"
            for t in range(n):
                t_name = self._naming.name_of(t)
                assert abs(node.dist_to[t_name] - oracle.d(u, t)) < 1e-9, (
                    f"d({u},{t}) wrong in distributed state"
                )
                assert abs(node.dist_from[t_name] - oracle.d(t, u)) < 1e-9
            # next hops lie on shortest paths
            for t in range(n):
                if t == u:
                    continue
                t_name = self._naming.name_of(t)
                x = self._g.head_of_port(u, node.next_port[t_name])
                assert (
                    abs(
                        self._g.weight(u, x) + oracle.d(x, t) - oracle.d(u, t)
                    )
                    < 1e-9
                ), f"next hop at {u} toward {t} not on a shortest path"

    def verify_cluster_decisions(self, oracle: DistanceOracle) -> None:
        """Every pairwise cluster decision matches the centralized
        definition ``r(u,v) < r(v,A)``."""
        n = self._g.n
        for v in range(n):
            v_name = self._naming.name_of(v)
            node_v = self.nodes[v]
            r_va = min(self._r_of(node_v, c) for c in node_v.landmarks)
            for u in range(n):
                if u == v:
                    continue
                expected = oracle.r(u, v) < r_va - 1e-12
                assert self.in_cluster(u, v_name) == expected
