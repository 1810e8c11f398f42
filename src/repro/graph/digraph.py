"""Weighted directed graphs in the fixed-port model.

The paper's network model (Section 1.1) is a strongly connected directed
graph with positive real edge weights, where:

* node *names* are assigned by an adversary (handled in
  :mod:`repro.naming`), and
* each node's outgoing edges carry *port numbers* assigned by an
  adversary with no global consistency (Section 1.1.3, the *fixed-port*
  model).  A port number at ``u`` says nothing about the endpoint of the
  edge, and the same port number may appear at many nodes.

:class:`Digraph` stores the topology with internal vertex ids
``0..n-1``.  Those ids are *not* visible to routing schemes at packet
time; schemes may only place information derived from them into their
local tables during (centralized) preprocessing, exactly as the paper
allows.

Ports are modelled as small integers unique per node.  By default they
are assigned adversarially, i.e. drawn as a random permutation of an
arbitrary range so that no scheme can exploit their values; a
deterministic mode exists for debugging.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import GraphError
from repro.graph.delta import (
    Arrival,
    Departure,
    GraphDelta,
    LinkDown,
    LinkUp,
    Reweight,
)


@dataclass(frozen=True)
class Edge:
    """A directed weighted edge with its fixed-port number at the tail.

    Attributes:
        tail: source vertex id.
        head: target vertex id.
        weight: positive edge weight.
        port: the port number of this edge in ``tail``'s local port
            space.  Following the fixed-port model, the value carries no
            topological meaning.
    """

    tail: int
    head: int
    weight: float
    port: int


class Digraph:
    """A weighted directed multigraph-free graph in the fixed-port model.

    The graph is immutable once frozen (see :meth:`freeze`); all routing
    substrates require a frozen graph so that cached structures (port
    maps, adjacency) remain valid.

    Args:
        n: number of vertices; vertices are ``0..n-1``.

    Example:
        >>> g = Digraph(3)
        >>> g.add_edge(0, 1, 1.0)
        >>> g.add_edge(1, 2, 2.0)
        >>> g.add_edge(2, 0, 1.5)
        >>> g.freeze()
        >>> g.out_degree(0)
        1
    """

    def __init__(self, n: int):
        if n <= 0:
            raise GraphError(f"graph must have at least one vertex, got n={n}")
        self._n = n
        # adjacency: per-vertex list of (head, weight); ports assigned at freeze
        self._succ: List[List[Tuple[int, float]]] = [[] for _ in range(n)]
        self._pred: List[List[Tuple[int, float]]] = [[] for _ in range(n)]
        self._edge_set: set[Tuple[int, int]] = set()
        self._frozen = False
        # assigned at freeze():
        self._ports: List[Dict[int, int]] = []        # vertex -> {head: port}
        self._port_to_head: List[Dict[int, int]] = [] # vertex -> {port: head}
        self._edges: List[Edge] = []
        # sorted port lookup arrays, built on first vectorised lookup
        self._port_index: Optional[Tuple[np.ndarray, np.ndarray]] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_edge(self, tail: int, head: int, weight: float = 1.0) -> None:
        """Add a directed edge ``tail -> head`` with positive ``weight``."""
        if self._frozen:
            raise GraphError("cannot add edges to a frozen graph")
        self._check_vertex(tail)
        self._check_vertex(head)
        if tail == head:
            raise GraphError(f"self-loops are not allowed (vertex {tail})")
        if weight <= 0:
            raise GraphError(
                f"edge weights must be positive, got w({tail},{head})={weight}"
            )
        if (tail, head) in self._edge_set:
            raise GraphError(f"duplicate edge ({tail}, {head})")
        self._edge_set.add((tail, head))
        self._succ[tail].append((head, float(weight)))
        self._pred[head].append((tail, float(weight)))

    def freeze(self, port_rng: Optional[random.Random] = None) -> "Digraph":
        """Finalize the graph and assign fixed-port numbers.

        Args:
            port_rng: source of adversarial port randomness.  When given,
                each vertex's out-edges receive ports drawn as a random
                subset of an inflated range (so port values are
                meaningless, per Section 1.1.3).  When ``None``, vertex
                ``u``'s edges get ports ``0..outdeg(u)-1`` in insertion
                order (deterministic, for debugging).

        Returns:
            ``self``, for chaining.
        """
        if self._frozen:
            return self
        self._ports = [dict() for _ in range(self._n)]
        self._port_to_head = [dict() for _ in range(self._n)]
        self._edges = []
        for u in range(self._n):
            heads = [h for (h, _w) in self._succ[u]]
            deg = len(heads)
            if port_rng is None:
                port_values: Sequence[int] = range(deg)
            else:
                # Sample distinct meaningless port numbers from a range
                # about 4x the degree (the paper allows any O(n) port
                # namespace), then shuffle the edge order too.
                universe = max(4 * deg, 8)
                port_values = port_rng.sample(range(universe), deg)
            for (head, _w), port in zip(self._succ[u], port_values):
                self._ports[u][head] = port
                self._port_to_head[u][port] = head
        for u in range(self._n):
            for (head, w) in self._succ[u]:
                self._edges.append(Edge(u, head, w, self._ports[u][head]))
        self._frozen = True
        return self

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of vertices."""
        return self._n

    @property
    def m(self) -> int:
        """Number of directed edges."""
        return len(self._edge_set)

    @property
    def frozen(self) -> bool:
        """Whether :meth:`freeze` has been called."""
        return self._frozen

    def vertices(self) -> range:
        """Iterate over all vertex ids."""
        return range(self._n)

    def edges(self) -> Iterator[Edge]:
        """Iterate over all edges (graph must be frozen)."""
        self._require_frozen()
        return iter(self._edges)

    def has_edge(self, tail: int, head: int) -> bool:
        """Return whether the directed edge ``tail -> head`` exists."""
        return (tail, head) in self._edge_set

    def out_neighbors(self, u: int) -> List[Tuple[int, float]]:
        """Return ``[(head, weight), ...]`` for ``u``'s out-edges."""
        self._check_vertex(u)
        return list(self._succ[u])

    def in_neighbors(self, u: int) -> List[Tuple[int, float]]:
        """Return ``[(tail, weight), ...]`` for ``u``'s in-edges."""
        self._check_vertex(u)
        return list(self._pred[u])

    def out_degree(self, u: int) -> int:
        """Number of outgoing edges of ``u``."""
        self._check_vertex(u)
        return len(self._succ[u])

    def in_degree(self, u: int) -> int:
        """Number of incoming edges of ``u``."""
        self._check_vertex(u)
        return len(self._pred[u])

    def weight(self, tail: int, head: int) -> float:
        """Return the weight of edge ``tail -> head``.

        Raises:
            GraphError: if the edge does not exist.
        """
        for (h, w) in self._succ[tail]:
            if h == head:
                return w
        raise GraphError(f"no edge ({tail}, {head})")

    # ------------------------------------------------------------------
    # fixed-port interface (what forwarding functions are allowed to use)
    # ------------------------------------------------------------------
    def port_of(self, tail: int, head: int) -> int:
        """Return the port number of edge ``tail -> head`` at ``tail``.

        This is a *preprocessing-time* helper: schemes call it while
        building tables.  At packet time only :meth:`head_of_port` style
        movement is available (via the simulator).
        """
        self._require_frozen()
        try:
            return self._ports[tail][head]
        except KeyError as exc:
            raise GraphError(f"no edge ({tail}, {head})") from exc

    def head_of_port(self, tail: int, port: int) -> int:
        """Return the head vertex of the edge leaving ``tail`` on ``port``.

        This is the operation the network itself performs when a node
        forwards a packet on a port.

        Raises:
            GraphError: if ``tail`` has no such port.
        """
        self._require_frozen()
        try:
            return self._port_to_head[tail][port]
        except KeyError as exc:
            raise GraphError(f"vertex {tail} has no port {port}") from exc

    def ports_of(self, tails, heads) -> np.ndarray:
        """Vectorised :meth:`port_of`: the int64 port of every edge
        ``tails[i] -> heads[i]``, by binary search in a sorted
        ``tail * n + head`` table built once per frozen graph.

        Raises:
            GraphError: naming the first pair that is not an edge.
        """
        self._require_frozen()
        if self._port_index is None:
            m = len(self._edges)
            counts = [len(p) for p in self._ports]
            keys = np.repeat(np.arange(self._n, dtype=np.int64) * self._n, counts)
            keys += np.fromiter(chain.from_iterable(self._ports), np.int64, m)
            ports = np.fromiter(
                chain.from_iterable(p.values() for p in self._ports), np.int64, m
            )
            order = np.argsort(keys)
            self._port_index = (keys[order], ports[order])
        keys, ports = self._port_index
        tails = np.asarray(tails, dtype=np.int64)
        heads = np.asarray(heads, dtype=np.int64)
        found_ports, found = sorted_lookup(keys, ports, tails * self._n + heads)
        if not found.all():
            i = int(np.argmin(found))
            raise GraphError(f"no edge ({tails[i]}, {heads[i]})")
        return found_ports

    def ports(self, u: int) -> List[int]:
        """Return all port numbers at vertex ``u``."""
        self._require_frozen()
        return sorted(self._port_to_head[u])

    # ------------------------------------------------------------------
    # port-preserving construction & mutation
    # ------------------------------------------------------------------
    @classmethod
    def from_port_edges(
        cls,
        n: int,
        edges: Iterable[Tuple[int, int, float, int]],
    ) -> "Digraph":
        """Build a *frozen* graph with explicit fixed-port assignments.

        This is the public port-preserving constructor: where
        :func:`from_edge_list` + :meth:`freeze` draw fresh (possibly
        adversarial) port numbers, this takes ``(tail, head, weight,
        port)`` quadruples — e.g. from :meth:`edges` of an existing
        frozen graph — and reproduces the given port assignment
        exactly.  It is what :meth:`apply_delta` and topology-copying
        transforms use so that forwarding state keyed by port numbers
        stays meaningful across the copy.

        Args:
            n: vertex count.
            edges: ``(tail, head, weight, port)`` quadruples.  The
                usual edge rules apply (no self-loops or duplicates,
                positive weights) plus port rules: non-negative and
                unique per tail.

        Returns:
            A frozen :class:`Digraph` with exactly the given ports.
        """
        g = cls(n)
        ports: List[Dict[int, int]] = [dict() for _ in range(n)]
        port_to_head: List[Dict[int, int]] = [dict() for _ in range(n)]
        for (tail, head, weight, port) in edges:
            g.add_edge(tail, head, weight)
            port = int(port)
            if port < 0:
                raise GraphError(
                    f"port numbers must be non-negative, got {port} at "
                    f"vertex {tail}"
                )
            if port in port_to_head[tail]:
                raise GraphError(f"duplicate port {port} at vertex {tail}")
            ports[tail][head] = port
            port_to_head[tail][port] = head
        g._ports = ports
        g._port_to_head = port_to_head
        g._edges = [
            Edge(u, head, w, ports[u][head])
            for u in range(n)
            for (head, w) in g._succ[u]
        ]
        g._frozen = True
        return g

    def apply_delta(self, delta: GraphDelta) -> "Digraph":
        """Fold a :class:`~repro.graph.delta.GraphDelta` into a new
        frozen graph; ``self`` is untouched.

        Ports are preserved for every surviving edge.  New edges
        (:class:`~repro.graph.delta.LinkUp`, arrival in-edges) receive
        the smallest port number their tail has free; an arriving
        node's own out-edges are ported ``0..k-1`` in the given order.
        A departure shifts vertex ids above the departed node down by
        one (ports untouched).

        Ops fold one at a time, and an edge op shares every per-vertex
        container the edge does not touch with its predecessor — frozen
        graphs are immutable and their accessors hand out copies.  It
        copies only the tail's out-adjacency and port maps and the
        head's in-adjacency, plus flat copies of the edge list and edge
        set with the one entry patched: O(n + m) C-level work instead of
        an edge-by-edge rebuild.  A new in-edge goes to the end of its
        head's in-neighbour list.  An arrival is a shared graph with one
        more vertex plus a link-up per edge; a departure renumbers
        vertices and rebuilds through :meth:`from_port_edges`.

        Raises:
            GraphError: when an op is inconsistent with the graph it
                meets (missing/duplicate edge, vertex out of range,
                non-positive weight, departure emptying the graph).
        """
        self._require_frozen()
        if not isinstance(delta, GraphDelta):
            raise GraphError(
                f"expected a GraphDelta, got {type(delta).__name__}"
            )
        g = self
        for op in delta.ops:
            if isinstance(op, Departure):
                g = g._without(op.node)
            elif isinstance(op, Arrival):
                new = g._n
                g = g._shared(extra=1)
                for (head, w) in op.out_edges:
                    g = g._edge_op(LinkUp(new, head, w))
                for (tail, w) in op.in_edges:
                    g = g._edge_op(LinkUp(tail, new, w))
            else:
                g = g._edge_op(op)
        return g

    def _check_delta_vertex(self, u: int) -> None:
        if not (0 <= u < self._n):
            raise GraphError(
                f"delta references vertex {u} out of range [0, {self._n})"
            )

    def _shared(self, extra: int = 0) -> "Digraph":
        """A frozen copy holding ``self``'s per-vertex containers in
        fresh outer lists (so one slot can be swapped out), plus
        ``extra`` edgeless vertices."""
        g = Digraph.__new__(Digraph)
        g._n = self._n + extra
        g._frozen = True
        g._port_index = None
        g._succ = self._succ + [[] for _ in range(extra)]
        g._pred = self._pred + [[] for _ in range(extra)]
        g._ports = self._ports + [{} for _ in range(extra)]
        g._port_to_head = self._port_to_head + [{} for _ in range(extra)]
        g._edge_set = self._edge_set
        g._edges = self._edges
        return g

    def _edge_op(self, op: "Reweight | LinkDown | LinkUp") -> "Digraph":
        """The successor across one edge op, sharing every untouched
        container with ``self`` (see :meth:`apply_delta`)."""
        tail, head = op.tail, op.head
        self._check_delta_vertex(tail)
        self._check_delta_vertex(head)
        present = (tail, head) in self._edge_set
        if isinstance(op, LinkUp):
            if tail == head:
                raise GraphError(f"self-loops are not allowed (vertex {tail})")
            if present:
                raise GraphError(f"link_up of existing edge ({tail}, {head})")
        elif not present:
            kind = "reweight" if isinstance(op, Reweight) else "link_down"
            raise GraphError(f"{kind} of missing edge ({tail}, {head})")
        if not isinstance(op, LinkDown) and op.weight <= 0:
            raise GraphError(
                f"edge weights must be positive, got "
                f"w({tail},{head})={op.weight}"
            )
        g = self._shared()
        g._edge_set = set(self._edge_set)
        g._edges = list(self._edges)
        out = g._succ[tail] = list(self._succ[tail])
        inn = g._pred[head] = list(self._pred[head])
        ports = g._ports[tail] = dict(self._ports[tail])
        to_head = g._port_to_head[tail] = dict(self._port_to_head[tail])
        # the tail's out-edges are one contiguous run of the edge list
        base = sum(map(len, self._succ[:tail]))
        if isinstance(op, LinkUp):
            weight = float(op.weight)
            port = 0
            while port in to_head:
                port += 1
            g._edges.insert(base + len(out), Edge(tail, head, weight, port))
            out.append((head, weight))
            inn.append((tail, weight))
            ports[head] = port
            to_head[port] = head
            g._edge_set.add((tail, head))
            return g
        i = next(i for i, (h, _w) in enumerate(out) if h == head)
        j = next(j for j, (t, _w) in enumerate(inn) if t == tail)
        if isinstance(op, Reweight):
            weight = float(op.weight)
            out[i] = (head, weight)
            inn[j] = (tail, weight)
            g._edges[base + i] = Edge(tail, head, weight, ports[head])
        else:
            del out[i], inn[j], g._edges[base + i]
            del to_head[ports.pop(head)]
            g._edge_set.discard((tail, head))
        return g

    def _without(self, x: int) -> "Digraph":
        """The successor across the departure of ``x``: ids above it
        shift down by one, surviving ports are kept."""
        if self._n <= 1:
            raise GraphError("departure would leave an empty graph")
        self._check_delta_vertex(x)
        return Digraph.from_port_edges(
            self._n - 1,
            (
                (e.tail - (e.tail > x), e.head - (e.head > x), e.weight, e.port)
                for e in self._edges
                if x not in (e.tail, e.head)
            ),
        )

    # ------------------------------------------------------------------
    # transforms
    # ------------------------------------------------------------------
    def reversed(self) -> "Digraph":
        """Return a new graph with every edge reversed (same weights).

        Useful for computing distances *into* a target via a forward
        Dijkstra on the reverse graph.
        """
        rg = Digraph(self._n)
        for u in range(self._n):
            for (head, w) in self._succ[u]:
                rg.add_edge(head, u, w)
        if self._frozen:
            rg.freeze()
        return rg

    def copy(self) -> "Digraph":
        """Return an unfrozen deep copy of the topology."""
        g = Digraph(self._n)
        for u in range(self._n):
            for (head, w) in self._succ[u]:
                g.add_edge(u, head, w)
        return g

    def max_weight(self) -> float:
        """Return the maximum edge weight (``W`` in the paper)."""
        return max(w for adj in self._succ for (_h, w) in adj)

    def min_weight(self) -> float:
        """Return the minimum edge weight."""
        return min(w for adj in self._succ for (_h, w) in adj)

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _check_vertex(self, u: int) -> None:
        if not (0 <= u < self._n):
            raise GraphError(f"vertex {u} out of range [0, {self._n})")

    def _require_frozen(self) -> None:
        if not self._frozen:
            raise GraphError("operation requires a frozen graph; call freeze()")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "frozen" if self._frozen else "building"
        return f"Digraph(n={self._n}, m={self.m}, {state})"


def sorted_lookup(
    keys: np.ndarray, values: np.ndarray, queries, missing=-1
) -> Tuple[np.ndarray, np.ndarray]:
    """``(values at each query's slot in the sorted unique keys, or
    missing; whether the query is present)`` — one binary search per
    query, the O(m)-memory stand-in for a dense ``(n, n)`` gather."""
    queries = np.asarray(queries)
    if keys.size == 0:
        return np.full(queries.shape, missing), np.zeros(queries.shape, dtype=bool)
    pos = np.minimum(np.searchsorted(keys, queries), keys.size - 1)
    found = keys[pos] == queries
    return np.where(found, values[pos], missing), found


def from_edge_list(
    n: int,
    edges: Iterable[Tuple[int, int, float]],
    port_rng: Optional[random.Random] = None,
) -> Digraph:
    """Build and freeze a :class:`Digraph` from an edge list.

    Args:
        n: vertex count.
        edges: iterable of ``(tail, head, weight)`` triples.
        port_rng: adversarial port randomness forwarded to
            :meth:`Digraph.freeze`.

    Returns:
        A frozen :class:`Digraph`.
    """
    g = Digraph(n)
    for (u, v, w) in edges:
        g.add_edge(u, v, w)
    return g.freeze(port_rng)
