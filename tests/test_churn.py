"""The dynamic-topology layer: deltas, evolution, and churn timelines.

Four concerns, bottom-up:

* :class:`~repro.graph.delta.GraphDelta` — the value type and its JSON
  round-trip, plus :meth:`~repro.graph.digraph.Digraph.apply_delta`'s
  port-preservation contract;
* :meth:`~repro.api.Network.evolve` — generation lineage, repair
  accounting, and artifact carry;
* the **differential**: incremental oracle repair must be
  *bit-identical* to a cold full rebuild — distances, parents, first
  hops, and every routed journey, across compiled schemes and both
  table families, including a hypothesis sweep over random edit
  sequences (weight increases included: those invalidate paths, the
  hard direction for repair);
* churn timelines — parsing, determinism across worker counts, and
  the per-epoch stretch rows :func:`~repro.runtime.churn.run_timeline`
  threads through :class:`~repro.runtime.traffic.TrafficSummary`.
"""

from __future__ import annotations

import json
import random
from dataclasses import replace
from typing import List, Tuple

import numpy as np
import pytest

from repro.api import Network, all_specs
from repro.exceptions import GraphError
from repro.graph.delta import (
    Arrival,
    Departure,
    GraphDelta,
    LinkDown,
    LinkUp,
    Reweight,
)
from repro.graph.digraph import Digraph
from repro.graph.scc import is_strongly_connected
from repro.runtime.churn import (
    EpochSpec,
    Timeline,
    load_timeline,
    materialize_delta,
    run_timeline,
)
from repro.runtime.traffic import run_workload


def _grid_graph(n: int, seed: int, extra: int = 0) -> Digraph:
    """A strongly connected digraph with two-decimal grid weights
    (a directed cycle plus ``extra`` random chords).  Grid weights keep
    distinct path sums separated by >= 0.01, the regime the repair
    certificates assume."""
    rng = random.Random(seed)
    g = Digraph(n)
    present = set()
    for u in range(n):
        v = (u + 1) % n
        g.add_edge(u, v, round(rng.uniform(0.5, 8.0), 2))
        present.add((u, v))
    added = 0
    while added < extra:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v or (u, v) in present:
            continue
        g.add_edge(u, v, round(rng.uniform(0.5, 8.0), 2))
        present.add((u, v))
        added += 1
    return g.freeze()


# ----------------------------------------------------------------------
# GraphDelta: the value type
# ----------------------------------------------------------------------

class TestGraphDelta:
    def test_needs_at_least_one_op(self):
        with pytest.raises(GraphError):
            GraphDelta(())

    def test_rejects_unknown_op_values(self):
        with pytest.raises(GraphError):
            GraphDelta(("not-an-op",))  # type: ignore[arg-type]

    def test_doc_round_trip_all_op_kinds(self):
        delta = GraphDelta((
            Reweight(0, 1, 2.5),
            LinkDown(1, 2),
            LinkUp(2, 3, 1.25),
            Departure(4),
            Arrival(((0, 1.0), (1, 2.0)), ((2, 3.0),)),
        ))
        assert GraphDelta.from_doc(delta.to_doc()) == delta
        # the wire form survives an actual JSON encode/decode
        assert GraphDelta.from_doc(json.loads(json.dumps(delta.to_doc()))) == delta

    def test_op_names_in_order(self):
        delta = GraphDelta((LinkUp(0, 2, 1.0), Reweight(0, 1, 2.0)))
        assert delta.op_names() == ["link_up", "reweight"]

    def test_same_n(self):
        assert GraphDelta.reweight(0, 1, 2.0).same_n
        assert GraphDelta.link_down(0, 1).same_n
        assert not GraphDelta.departure(3).same_n
        assert not GraphDelta.arrival([(0, 1.0)], [(1, 1.0)]).same_n

    @pytest.mark.parametrize("doc", [
        "nope",
        {},
        {"ops": {}},
        {"ops": ["x"]},
        {"ops": [{"op": "teleport"}]},
        {"ops": [{"op": "reweight", "tail": 0}]},
        {"ops": [{"op": "link_up", "tail": 0, "head": 1}]},
        {"ops": [{"op": "arrival", "out": [[0]], "in": []}]},
    ])
    def test_from_doc_rejects_malformed(self, doc):
        with pytest.raises(GraphError):
            GraphDelta.from_doc(doc)


# ----------------------------------------------------------------------
# Digraph.apply_delta: port preservation and validation
# ----------------------------------------------------------------------

class TestApplyDelta:
    def test_reweight_keeps_ports(self):
        g = _grid_graph(6, 0, extra=4)
        tail, head = next((e.tail, e.head) for e in g.edges())
        port = g.port_of(tail, head)
        h = g.apply_delta(GraphDelta.reweight(tail, head, 4.44))
        assert h.frozen
        assert h.weight(tail, head) == 4.44
        assert h.port_of(tail, head) == port
        # every other edge is untouched, weight and port alike
        for e in g.edges():
            if (e.tail, e.head) != (tail, head):
                assert h.weight(e.tail, e.head) == e.weight
                assert h.port_of(e.tail, e.head) == g.port_of(e.tail, e.head)

    def test_link_up_takes_smallest_free_port(self):
        g = Digraph(3)
        g.add_edge(0, 1, 1.0)
        g.add_edge(1, 2, 1.0)
        g.add_edge(2, 0, 1.0)
        g = g.freeze()
        h = g.apply_delta(GraphDelta.link_up(0, 2, 2.0))
        assert h.port_of(0, 1) == g.port_of(0, 1)
        # port 0 at tail 0 is taken by 0->1 (or vice versa); the new
        # edge fills the smallest hole
        used = {h.port_of(0, 1)}
        assert h.port_of(0, 2) == min(set(range(2)) - used)

    def test_down_then_up_reuses_freed_port(self):
        g = _grid_graph(5, 1)
        freed = g.port_of(0, 1)
        h = g.apply_delta(GraphDelta((LinkDown(0, 1), LinkUp(0, 1, 3.0))))
        assert h.port_of(0, 1) == freed
        assert h.weight(0, 1) == 3.0

    def test_departure_shifts_ids(self):
        g = _grid_graph(5, 2)
        # keep it connected: bridge around the departing node 2
        h = g.apply_delta(GraphDelta((LinkUp(1, 3, 1.5), Departure(2))))
        assert h.n == 4
        # old vertex 3 is now 2, old 4 is now 3; the bridge survives
        assert h.has_edge(1, 2)
        assert h.weight(1, 2) == 1.5

    def test_arrival_appends_vertex(self):
        g = _grid_graph(4, 3)
        h = g.apply_delta(GraphDelta.arrival([(0, 1.0)], [(1, 2.0)]))
        assert h.n == 5
        assert h.weight(4, 0) == 1.0
        assert h.weight(1, 4) == 2.0
        assert is_strongly_connected(h)

    @pytest.mark.parametrize("delta, msg", [
        (GraphDelta.reweight(0, 3, 1.0), "missing edge"),
        (GraphDelta.link_down(0, 3), "missing edge"),
        (GraphDelta.reweight(0, 1, -1.0), "positive"),
        (GraphDelta.link_up(0, 0, 1.0), "self-loop"),
    ])
    def test_rejects_inconsistent_ops(self, delta, msg):
        g = _grid_graph(6, 4)
        with pytest.raises(GraphError, match=msg):
            g.apply_delta(delta)

    def test_rejects_duplicate_link_up(self):
        g = _grid_graph(6, 5)
        with pytest.raises(GraphError):
            g.apply_delta(GraphDelta.link_up(0, 1, 1.0))


def _content(g: Digraph):
    """Everything a graph exposes, in-neighbour order aside: a new
    in-edge goes to the end of its head's list, where a rebuild sorts
    it in by tail."""
    return (
        g.n,
        g.m,
        [(e.tail, e.head, e.weight, e.port) for e in g.edges()],
        [g.out_neighbors(u) for u in g.vertices()],
        [sorted(g.in_neighbors(u)) for u in g.vertices()],
        [{p: g.head_of_port(u, p) for p in g.ports(u)} for u in g.vertices()],
        sorted((e.tail, e.head) for e in g.edges() if g.has_edge(e.tail, e.head)),
    )


def _rebuilt(g: Digraph, op) -> Digraph:
    """The successor across ``op`` rebuilt edge by edge through
    :meth:`Digraph.from_port_edges`, with the port rules spelled out."""
    n = g.n
    quads = [(e.tail, e.head, e.weight, e.port) for e in g.edges()]

    def free_port(tail):
        used = {p for (t, _h, _w, p) in quads if t == tail}
        return min(set(range(len(used) + 1)) - used)

    if isinstance(op, Reweight):
        quads = [
            (t, h, op.weight if (t, h) == (op.tail, op.head) else w, p)
            for (t, h, w, p) in quads
        ]
    elif isinstance(op, LinkDown):
        quads = [q for q in quads if q[:2] != (op.tail, op.head)]
    elif isinstance(op, LinkUp):
        quads.append((op.tail, op.head, op.weight, free_port(op.tail)))
    elif isinstance(op, Departure):
        x = op.node
        quads = [
            (t - (t > x), h - (h > x), w, p)
            for (t, h, w, p) in quads if x not in (t, h)
        ]
        n -= 1
    else:
        quads += [(n, h, w, k) for k, (h, w) in enumerate(op.out_edges)]
        for (t, w) in op.in_edges:
            quads.append((t, n, w, free_port(t)))
        n += 1
    return Digraph.from_port_edges(n, quads)


class TestApplyDeltaSharing:
    """Same-``n`` ops share the untouched adjacency with the
    predecessor; the successor must still equal a full rebuild, and the
    predecessor must not see the change."""

    def _ops(self, g: Digraph):
        chord = _a_chord(g)
        last = g.n - 1  # its out-edges end the edge list
        return [
            Reweight(*chord, 6.25),
            LinkDown(*chord),
            LinkUp(*_a_non_edge(g), 1.75),
            LinkUp(last, next(v for v in range(last) if not g.has_edge(last, v)), 2.5),
        ]

    @pytest.mark.parametrize("build", ["generated", "rebuilt"])
    def test_edge_ops_equal_a_rebuild(self, build):
        g = _grid_graph(12, 40, extra=10)
        if build == "rebuilt":
            g = Digraph.from_port_edges(
                g.n, [(e.tail, e.head, e.weight, e.port) for e in g.edges()]
            )
        for op in self._ops(g):
            before = _content(g)
            h = g.apply_delta(GraphDelta((op,)))
            assert _content(h) == _content(_rebuilt(g, op)), op
            assert _content(g) == before, f"{op} leaked into the predecessor"
            assert np.array_equal(
                h.ports_of([e.tail for e in h.edges()], [e.head for e in h.edges()]),
                [e.port for e in h.edges()],
            )
            if build == "rebuilt" and not isinstance(op, LinkUp):
                # in-neighbour order too, where no edge was added
                assert [h.in_neighbors(u) for u in h.vertices()] == [
                    _rebuilt(g, op).in_neighbors(u) for u in h.vertices()
                ]

    def test_chained_ops_keep_every_generation(self):
        g = _grid_graph(10, 41, extra=8)
        chain = [g]
        for op in self._ops(g):
            chain.append(chain[-1].apply_delta(GraphDelta((op,))))
        snapshots = [_content(x) for x in chain]
        # a multi-op delta folds to the same graph as the single steps
        folded = g.apply_delta(GraphDelta(tuple(self._ops(g))))
        assert _content(folded) == snapshots[-1]
        assert [_content(x) for x in chain] == snapshots

    @pytest.mark.parametrize("op", [
        Departure(3),
        Arrival(((0, 1.5), (2, 2.5)), ((4, 3.5), (2, 0.75))),
    ])
    def test_node_ops_equal_a_rebuild(self, op):
        g = _grid_graph(8, 42, extra=6)
        before = _content(g)
        h = g.apply_delta(GraphDelta((op,)))
        assert _content(h) == _content(_rebuilt(g, op))
        assert _content(g) == before


# ----------------------------------------------------------------------
# Network.evolve: lineage, carry, repair accounting
# ----------------------------------------------------------------------

class TestEvolve:
    def test_generation_lineage(self):
        net = Network(_grid_graph(10, 6, extra=6), seed=3, store=None)
        assert net.generation == 1
        child = net.evolve(GraphDelta.reweight(0, 1, 7.77))
        grand = child.evolve(GraphDelta.reweight(1, 2, 6.66))
        assert (child.generation, grand.generation) == (2, 3)
        assert net.generation == 1  # parent untouched
        assert child.seed == net.seed and child.engine == net.engine

    def test_incremental_repair_accounting(self):
        net = Network(_grid_graph(12, 7, extra=8), seed=0, store=None)
        net.oracle()  # warm: repair needs the parent oracle in memory
        net.naming()
        child = net.evolve(GraphDelta.reweight(0, 1, 0.51))
        repair = child.stats().repair
        assert repair is not None
        assert repair.incremental == 1 and repair.full_rebuilds == 0
        assert repair.rows_recomputed + repair.rows_reused == net.n
        assert repair.artifacts_carried >= 1
        # the TINN promise: names survive topology change
        assert child.naming() is net.naming()

    def test_cold_parent_means_full_rebuild(self):
        net = Network(_grid_graph(12, 8, extra=8), seed=0, store=None)
        child = net.evolve(GraphDelta.reweight(0, 1, 0.52))
        repair = child.stats().repair
        assert repair.incremental == 0 and repair.full_rebuilds == 1

    def test_arrival_is_full_rebuild(self):
        net = Network(_grid_graph(10, 9, extra=4), seed=0, store=None)
        net.oracle()
        child = net.evolve(GraphDelta.arrival([(0, 1.0)], [(1, 1.0)]))
        assert child.n == net.n + 1
        repair = child.stats().repair
        assert repair.incremental == 0 and repair.full_rebuilds == 1

    def test_accepts_document_form(self):
        net = Network(_grid_graph(8, 10, extra=4), seed=0, store=None)
        child = net.evolve({"ops": [{"op": "reweight", "tail": 0,
                                     "head": 1, "weight": 2.0}]})
        assert child.generation == 2
        assert child.graph.weight(0, 1) == 2.0

    def test_rejects_junk(self):
        net = Network(_grid_graph(8, 11, extra=4), seed=0, store=None)
        with pytest.raises(GraphError):
            net.evolve(42)
        with pytest.raises(GraphError):
            net.evolve({"ops": [{"op": "teleport"}]})

    def test_stats_carry_generation(self):
        net = Network(_grid_graph(8, 12, extra=4), seed=0, store=None)
        child = net.evolve(GraphDelta.reweight(0, 1, 1.23))
        doc = child.stats().as_dict()
        assert doc["generation"] == 2
        assert doc["repair"]["ops"] == 1


# ----------------------------------------------------------------------
# The differential: incremental repair == full rebuild, bit for bit
# ----------------------------------------------------------------------

def _oracle_triple(net: Network):
    oracle = net.oracle()
    return (
        np.array(oracle.d_matrix, copy=True),
        oracle.parent_matrix(),
        np.array(oracle.first_hop_matrix(), copy=True),
    )


def _assert_oracles_identical(evolved: Network, fresh: Network):
    d1, p1, f1 = _oracle_triple(evolved)
    d2, p2, f2 = _oracle_triple(fresh)
    assert np.array_equal(d1, d2), "repaired distances drifted from rebuild"
    assert np.array_equal(p1, p2), "repaired parents drifted from rebuild"
    assert np.array_equal(f1, f2), "repaired first hops drifted from rebuild"


def _fresh_like(evolved: Network) -> Network:
    """A cold network over the evolved graph: same knobs, empty cache,
    so every artifact is a genuine full rebuild."""
    return Network(
        evolved.graph,
        seed=evolved.seed,
        engine=evolved.engine,
        store=None,
        tables=evolved.tables,
    )


def _a_chord(g: Digraph) -> Tuple[int, int]:
    """An edge that is not on the 0 -> 1 -> ... -> 0 backbone cycle:
    removing it always keeps a :func:`_grid_graph` strongly connected
    (the full cycle survives), so intermediates stay in the repair
    protocol's regime."""
    n = g.n
    return next(
        (e.tail, e.head) for e in g.edges() if (e.head - e.tail) % n != 1
    )


def _a_non_edge(g: Digraph) -> Tuple[int, int]:
    return next(
        (u, v)
        for u in range(g.n)
        for v in range(g.n)
        if u != v and not g.has_edge(u, v)
    )


def _mixed_events(g: Digraph) -> Tuple[GraphDelta, ...]:
    """A mixed same-n edit sequence: weight drop, weight increase (path
    invalidation — the hard repair direction), edge birth + chord
    removal (every intermediate graph stays strongly connected — the
    repair protocol folds ops one at a time)."""
    chord = _a_chord(g)
    new_edge = _a_non_edge(g)
    return (
        GraphDelta.reweight(0, 1, 0.55),
        GraphDelta.reweight(0, 1, 7.95),
        GraphDelta((LinkUp(*new_edge, 1.05), LinkDown(*chord))),
        GraphDelta.link_up(*_a_non_edge(g.apply_delta(GraphDelta.link_up(*new_edge, 1.05))), 0.75),
    )


def test_differential_mixed_sequence_every_event():
    """After *every* event in a mixed churn sequence the repaired
    oracle equals a cold rebuild bit-for-bit (d, parents, first hops).
    """
    net = Network(_grid_graph(24, 13, extra=20), seed=5, store=None)
    net.oracle().first_hop_matrix()  # memoize so repair patches it
    for delta in _mixed_events(net.graph):
        child = net.evolve(delta)
        assert child.stats().repair.incremental == 1, (
            f"expected incremental repair for {delta.op_names()}"
        )
        _assert_oracles_identical(child, _fresh_like(child))
        child.oracle().first_hop_matrix()
        net = child


_PAIR_RNG_SEED = 99


def _sample_pairs(n: int, count: int) -> List[Tuple[int, int]]:
    rng = random.Random(_PAIR_RNG_SEED)
    pairs = []
    while len(pairs) < count:
        s, t = rng.randrange(n), rng.randrange(n)
        if s != t:
            pairs.append((s, t))
    return pairs


@pytest.mark.parametrize("tables", ["dense", "blocked"])
def test_differential_routed_traces_every_scheme(tables):
    """Routing on an evolved network (repaired oracle) is bit-identical
    to routing on a cold rebuild, for every registered scheme and both
    compiled table families — cost, hops, headers, and full traces."""
    net = Network(_grid_graph(16, 14, extra=14), seed=2,
                  store=None, tables=tables)
    net.oracle()
    child = net.evolve(GraphDelta((
        Reweight(0, 1, 7.5),
        LinkUp(*_a_non_edge(net.graph), 0.85),
        LinkDown(*_a_chord(net.graph)),
    )))
    assert child.stats().repair.incremental == 1
    fresh = _fresh_like(child)
    _assert_oracles_identical(child, fresh)
    pairs = _sample_pairs(child.n, 12)
    for spec in all_specs():
        params = {"k": 2} if spec.accepts("k") else {}
        evolved_router = child.router(spec.name, **params)
        fresh_router = fresh.router(spec.name, **params)
        got = evolved_router.route_many(pairs)
        want = fresh_router.route_many(pairs)
        for a, b in zip(got, want):
            assert (a.source, a.dest, a.dest_name) == (b.source, b.dest, b.dest_name)
            assert a.cost == b.cost, f"{spec.name}: cost drift on {a.source}->{a.dest}"
            assert a.hops == b.hops
            assert a.max_header_bits == b.max_header_bits
            assert a.trace == b.trace


def test_differential_blocked_first_hops_cross_boundaries(monkeypatch):
    """Shrink the blocked-family block size so repaired first-hop rows
    are checked against a rebuild whose blocks split mid-matrix."""
    import repro.graph.blocked as blocked

    monkeypatch.setattr(blocked, "_BLOCK_ELEMS", 64)
    net = Network(_grid_graph(20, 15, extra=16), seed=1,
                  store=None, tables="blocked")
    net.oracle().first_hop_matrix()
    child = net.evolve(GraphDelta.reweight(0, 1, 7.91))
    assert child.stats().repair.incremental == 1
    fresh = _fresh_like(child)
    _assert_oracles_identical(child, fresh)
    # the block iterator itself agrees with the repaired dense matrix
    repaired = child.oracle().first_hop_matrix()
    lo = 0
    while lo < child.n:
        hi = min(lo + 4, child.n)
        assert np.array_equal(
            fresh.oracle().first_hop_block(lo, hi), repaired[lo:hi]
        )
        lo = hi


@pytest.mark.parametrize("tables", ["dense", "blocked"])
def test_differential_mixed_timeline_every_event(tables):
    """The acceptance bar: after *every* event in a mixed churn
    timeline — reweight, link up/down, arrival, departure — the
    evolved network's oracle and routed traces are bit-identical to a
    cold rebuild, on both compiled table families.  Events come from
    the timeline machinery's own materializer (connectivity-preserving
    candidates, seeded)."""
    net = Network(_grid_graph(18, 16, extra=12), seed=3,
                  store=None, tables=tables)
    net.oracle().first_hop_matrix()
    event_docs = (
        ({"op": "reweight"},),
        ({"op": "link_up"}, {"op": "link_down"}),
        ({"op": "arrival"},),
        ({"op": "departure"},),
        ({"op": "reweight"},),
    )
    for i, docs in enumerate(event_docs):
        delta = materialize_delta(net.graph, docs, random.Random(f"diff|{i}"))
        child = net.evolve(delta)
        fresh = _fresh_like(child)
        _assert_oracles_identical(child, fresh)
        pairs = _sample_pairs(child.n, 6)
        got = child.router("stretch6").route_many(pairs)
        want = fresh.router("stretch6").route_many(pairs)
        for a, b in zip(got, want):
            assert (a.cost, a.hops, a.max_header_bits, a.trace) == (
                b.cost, b.hops, b.max_header_bits, b.trace
            )
        child.oracle().first_hop_matrix()
        net = child


def _order_events(g: Digraph, rng: random.Random):
    """The deltas of the order-matrix differential, starting from
    ``g``: every same-``n`` op kind, a multi-op delta, then an arrival
    and the departure of the arrived node.  Each is valid for the graph
    the previous ones leave (they only reweight ``g``'s edges and add
    non-edges of ``g``)."""
    def weight():
        return round(rng.uniform(0.5, 8.0), 2)

    def edge():
        return rng.choice([(e.tail, e.head) for e in g.edges()])

    def non_edge():
        return rng.choice([
            (u, v) for u in g.vertices() for v in g.vertices()
            if u != v and not g.has_edge(u, v)
        ])

    added = non_edge()
    yield GraphDelta.reweight(*edge(), weight())
    yield GraphDelta.link_up(*added, weight())
    yield GraphDelta.link_down(*added)
    yield GraphDelta((Reweight(*edge(), weight()), LinkUp(*non_edge(), weight()),
                      Reweight(*edge(), weight())))
    yield GraphDelta.arrival([(0, weight())], [(g.n - 1, weight())])
    yield GraphDelta.departure(g.n)
    yield GraphDelta.reweight(*edge(), weight())


@pytest.mark.parametrize("family", ["random", "cycle", "torus"])
def test_differential_order_matrix_every_event(family):
    """After every event the evolved metric's ``Init_v`` order matrix —
    carried from the predecessor and re-sorted only where distances
    moved — equals a cold metric over a cold oracle; node arrivals and
    departures fall back to a cold sort."""
    from repro.graph.roundtrip import RoundtripMetric
    from repro.graph.shortest_paths import DistanceOracle

    net = Network.from_family(family, 36, seed=4, store=None)
    net.metric().order_matrix()
    rng = random.Random(family)
    partial = 0
    for delta in _order_events(net.graph, rng):
        child = net.evolve(delta)
        got = child.metric().order_matrix()
        cold = RoundtripMetric(
            DistanceOracle(child.graph), ids=child.naming().all_names()
        )
        assert np.array_equal(got, cold.order_matrix()), delta.op_names()
        metric_stats = child.stats().cache.as_dict()["metric"]
        carried = delta.same_n
        assert metric_stats["builds"] == (0 if carried else 1), delta.op_names()
        if carried:
            changed = net.oracle().d_matrix != child.oracle().d_matrix
            stale = int((changed.any(axis=0) | changed.any(axis=1)).sum())
            partial += 0 < stale < child.n
        net = child
    assert partial, "no event exercised a partial re-sort"


def test_evolve_keeps_no_old_generation_alive():
    """Five generations on, with the old networks dropped, the first
    generation's oracle and metric are collected: a successor copies
    what it carries and lets go of it once its own matrix is built."""
    import gc
    import weakref

    net = Network.from_family("random", 40, seed=6, store=None)
    net.router("stretch6").route_many([(0, 1)])
    first = [weakref.ref(net.oracle()), weakref.ref(net.metric())]
    rng = random.Random(6)
    for _ in range(5):
        tail, head = rng.choice([(e.tail, e.head) for e in net.graph.edges()])
        net = net.evolve(GraphDelta.reweight(tail, head, round(rng.uniform(0.5, 8.0), 2)))
        net.router("stretch6").route_many([(0, 1)])
        assert net.stats().repair.incremental == 1
    gc.collect()
    assert [ref() for ref in first] == [None, None]


# ----------------------------------------------------------------------
# hypothesis: random edit sequences
# ----------------------------------------------------------------------

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


@st.composite
def edit_sequences(draw):
    """(graph seed, [ops]) — each op is a recipe applied against the
    then-current graph, so sequences stay consistent as edges move."""
    gseed = draw(st.integers(min_value=0, max_value=3))
    count = draw(st.integers(min_value=1, max_value=4))
    recipes = []
    for _ in range(count):
        kind = draw(st.sampled_from(["reweight", "increase", "link_up", "link_down"]))
        recipes.append((kind, draw(st.integers(min_value=0, max_value=10 ** 6))))
    return gseed, recipes


def _materialize_recipe(g: Digraph, kind: str, salt: int):
    """Turn a recipe into a concrete op valid for ``g`` (or None)."""
    rng = random.Random(salt)
    edges = sorted((e.tail, e.head) for e in g.edges())
    if kind == "reweight":
        t, h = edges[rng.randrange(len(edges))]
        return Reweight(t, h, round(rng.uniform(0.5, 8.0), 2))
    if kind == "increase":
        # poison a currently-used-looking edge: push it near the top of
        # the weight range so shortest paths re-route around it
        t, h = edges[rng.randrange(len(edges))]
        return Reweight(t, h, round(rng.uniform(7.0, 8.0), 2))
    if kind == "link_up":
        candidates = [
            (u, v)
            for u in range(g.n)
            for v in range(g.n)
            if u != v and not g.has_edge(u, v)
        ]
        if not candidates:
            return None
        t, h = candidates[rng.randrange(len(candidates))]
        return LinkUp(t, h, round(rng.uniform(0.5, 8.0), 2))
    # link_down: only candidates that keep the graph strongly connected
    rng.shuffle(edges)
    for t, h in edges:
        candidate = g.apply_delta(GraphDelta.link_down(t, h))
        if is_strongly_connected(candidate):
            return LinkDown(t, h)
    return None


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(instance=edit_sequences())
def test_differential_random_edit_sequences(instance):
    gseed, recipes = instance
    net = Network(_grid_graph(12, 20 + gseed, extra=10), seed=0, store=None)
    net.oracle().first_hop_matrix()
    for kind, salt in recipes:
        op = _materialize_recipe(net.graph, kind, salt)
        if op is None:
            continue
        child = net.evolve(GraphDelta((op,)))
        assert child.stats().repair.incremental == 1
        _assert_oracles_identical(child, _fresh_like(child))
        child.oracle().first_hop_matrix()
        net = child


# ----------------------------------------------------------------------
# timelines
# ----------------------------------------------------------------------

_TIMELINE_DOC = {
    "version": 1,
    "seed": 7,
    "workload": "mixed",
    "epochs": [
        {"pairs": 30},
        {"pairs": 30, "events": [{"op": "reweight"}, {"op": "link_up"}]},
        {"pairs": 20, "events": [{"op": "arrival"}], "workload": "uniform"},
    ],
}


class TestTimeline:
    def test_load_from_dict_string_and_file(self, tmp_path):
        t1 = load_timeline(_TIMELINE_DOC)
        t2 = load_timeline(json.dumps(_TIMELINE_DOC))
        path = tmp_path / "timeline.json"
        path.write_text(json.dumps(_TIMELINE_DOC))
        t3 = load_timeline(str(path))
        assert t1 == t2 == t3
        assert t1.seed == 7
        assert len(t1.epochs) == 3
        assert t1.epochs[2].workload == "uniform"
        assert t1.total_events == 3

    def test_doc_round_trip(self):
        timeline = load_timeline(_TIMELINE_DOC)
        assert Timeline.from_doc(timeline.to_doc()) == timeline

    @pytest.mark.parametrize("mutate", [
        lambda d: d.update(version=99),
        lambda d: d.update(workload="bogus"),
        lambda d: d.update(epochs=[]),
        lambda d: d.update(epochs=[{"pairs": -1}]),
        lambda d: d.update(epochs=[{"pairs": 5, "events": [{"op": "teleport"}]}]),
        lambda d: d.update(epochs=[{"pairs": 5, "events": ["x"]}]),
    ])
    def test_from_doc_rejects_malformed(self, mutate):
        doc = json.loads(json.dumps(_TIMELINE_DOC))
        mutate(doc)
        with pytest.raises(GraphError):
            Timeline.from_doc(doc)

    def test_materialize_preserves_connectivity(self):
        g = _grid_graph(10, 30, extra=6)
        events = ({"op": "link_down"}, {"op": "departure"})
        delta = materialize_delta(g, events, random.Random(4))
        h = g.apply_delta(delta)
        assert is_strongly_connected(h)

    def test_materialize_is_deterministic(self):
        g = _grid_graph(10, 31, extra=6)
        events = ({"op": "reweight"}, {"op": "link_up"}, {"op": "arrival"})
        d1 = materialize_delta(g, events, random.Random(9))
        d2 = materialize_delta(g, events, random.Random(9))
        assert d1 == d2


class TestRunTimeline:
    def _network(self, seed=40):
        return Network(_grid_graph(14, seed, extra=10), seed=1, store=None)

    def test_epoch_rows_track_generations(self):
        net = self._network()
        timeline = Timeline(seed=3, workload="mixed", epochs=(
            EpochSpec(pairs=20),
            EpochSpec(pairs=20, events=({"op": "reweight"},)),
            EpochSpec(pairs=15, events=({"op": "arrival"},)),
        ))
        summary, final = run_timeline(net, "stretch6", timeline)
        assert summary.pairs == 55
        assert [e.generation for e in summary.epochs] == [1, 2, 3]
        assert [e.repair for e in summary.epochs] == [
            "none", "incremental", "rebuild",
        ]
        assert summary.epochs[1].events == ("reweight",)
        assert summary.epochs[2].events == ("arrival",)
        assert final.generation == 3
        assert final.n == net.n + 1
        # per-epoch rows show up in the human format
        text = summary.format()
        assert "epoch 0" in text and "gen 3" in text

    def test_bit_identical_across_jobs(self):
        """The churn acceptance bar: a timeline run is bit-identical
        across worker counts at a fixed shard plan."""
        timeline = Timeline(seed=11, workload="mixed", epochs=(
            EpochSpec(pairs=24, events=({"op": "reweight"},)),
            EpochSpec(pairs=24, events=({"op": "link_down"}, {"op": "link_up"})),
        ))
        summaries = []
        for jobs in (1, 2, 4):
            summary, _ = run_timeline(
                self._network(), "stretch6", timeline,
                shard_size=8, jobs=jobs,
            )
            # wall-clock is the one field allowed to differ
            summaries.append(replace(summary, elapsed_s=0.0))
        assert summaries[0] == summaries[1] == summaries[2]

    def test_run_workload_events_delegation(self):
        net = self._network(seed=41)
        timeline = Timeline(seed=2, workload="uniform", epochs=(
            EpochSpec(pairs=10, events=({"op": "reweight"},)),
        ))
        summary = run_workload("stretch6", events=timeline, network=net)
        assert summary.pairs == 10
        assert len(summary.epochs) == 1

    def test_run_workload_events_needs_network(self):
        with pytest.raises(GraphError, match="network"):
            run_workload("stretch6", events=_TIMELINE_DOC)

    def test_run_workload_rejects_events_plus_workload(self):
        net = self._network(seed=42)
        with pytest.raises(GraphError, match="do not pass"):
            run_workload(
                "stretch6", workload=[], events=_TIMELINE_DOC, network=net
            )
