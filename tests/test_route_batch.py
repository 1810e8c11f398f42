"""Differential tests for array-native batch results.

``Router.route_many`` and ``run_workload`` read a batch's per-leg cost,
hop and header-bit arrays and build hop-by-hop paths only when a trace
is read.  This suite checks that those results equal the hop-by-hop
Python engine's for every registered scheme on three graph families,
that lazily built traces equal eagerly built ones (also after later
batches ran), and that errors, summaries, result equality and pickling
are what they were when every trace was built up front.
"""

from __future__ import annotations

import math
import pickle
import random

import numpy as np
import pytest

from repro.api import Network, scheme_names
from repro.api.router import Router
from repro.exceptions import GraphError, HopLimitExceeded
from repro.graph.digraph import Digraph
from repro.runtime.engine import (
    CompiledRoutes,
    DenseNextHop,
    JourneyPlan,
    Segment,
    constant_bits,
)
from repro.runtime.scheme import Deliver, Forward, RoutingScheme
from repro.runtime.simulator import Simulator, TraceBatch
from repro.runtime.traffic import TrafficSummary, generate_workload

N = 30
PAIRS = 40


@pytest.fixture(scope="module", params=["random", "torus", "cycle"])
def net(request) -> Network:
    return Network.from_family(request.param, N, seed=4, store=None)


def workload_pairs(net, seed):
    return generate_workload(
        "mixed", net.n, PAIRS, rng=random.Random(seed), oracle=net.oracle()
    ).pairs


def result_figures(r):
    return (r.source, r.dest, r.dest_name, r.cost, r.hops,
            r.max_header_bits, r.stretch)


def assert_traces_equal(a, b):
    for leg_a, leg_b in ((a.outbound, b.outbound), (a.inbound, b.inbound)):
        assert leg_a.path == leg_b.path
        assert leg_a.cost == leg_b.cost
        assert leg_a.max_header_bits == leg_b.max_header_bits


@pytest.mark.parametrize("scheme_name", scheme_names())
def test_route_many_matches_python_engine(net, scheme_name):
    pairs = workload_pairs(net, 2)
    auto = net.router(scheme_name).route_many(pairs)
    python = net.router(scheme_name, engine="python").route_many(pairs)
    assert [result_figures(r) for r in auto] == [
        result_figures(r) for r in python
    ]
    for a, b in zip(auto, python):
        assert a.hops == a.trace.total_hops
        assert_traces_equal(a.trace, b.trace)


def test_batch_traces_survive_later_batches(net):
    router = net.router("stretch6")
    assert router.resolve_engine() == "vectorized"
    first_pairs = workload_pairs(net, 3)
    first = router.route_many(first_pairs)
    for seed in (4, 5):
        later = router.route_many(workload_pairs(net, seed))
        later[0].trace  # builds the later batch's paths
    expected = net.router("stretch6", engine="python").route_many(first_pairs)
    for a, b in zip(first, expected):
        assert_traces_equal(a.trace, b.trace)


def test_batch_arrays_match_its_traces(net):
    batch = Simulator(net.build_scheme("rtz")).roundtrip_many(
        workload_pairs(net, 6)
    )
    traces = list(batch)
    assert batch.total_cost().tolist() == [t.total_cost for t in traces]
    assert batch.total_hops().tolist() == [t.total_hops for t in traces]
    assert batch.max_header_bits().tolist() == [
        t.max_header_bits for t in traces
    ]
    assert batch == TraceBatch.from_traces(traces)
    assert batch[len(traces) - 1] is traces[-1]


def test_serve_workload_summary_equals_eager_summary(net):
    """The summary read off the batch arrays equals one summed over
    eagerly built traces, field by field and bit for bit."""
    pairs = workload_pairs(net, 7)
    router = net.router("stretch6")
    served = router.serve_workload(pairs)
    traces = list(Simulator(router.scheme).roundtrip_many(pairs, engine="python"))
    r = net.oracle().r_matrix
    stretches = [t.total_cost / float(r[s, v]) for t, (s, v) in zip(traces, pairs)]
    worst = max(range(len(stretches)), key=stretches.__getitem__)
    total_cost = sum(t.total_cost for t in traces)
    total_hops = sum(t.total_hops for t in traces)
    assert served == TrafficSummary(
        kind="custom",
        pairs=len(traces),
        total_cost=total_cost,
        total_hops=total_hops,
        mean_cost=total_cost / len(traces),
        mean_hops=total_hops / len(traces),
        max_hops=max(t.total_hops for t in traces),
        max_header_bits=max(t.max_header_bits for t in traces),
        mean_stretch=sum(stretches) / len(stretches),
        max_stretch=stretches[worst],
        worst_pair=pairs[worst],
        elapsed_s=served.elapsed_s,
    )


def test_route_results_equal_and_pickle(net):
    pairs = workload_pairs(net, 8)
    auto = net.router("stretch6").route_many(pairs)
    python = net.router("stretch6", engine="python").route_many(pairs)
    assert auto == python
    assert auto[0] != auto[1]
    for r in auto[:3]:
        clone = pickle.loads(pickle.dumps(r))
        assert clone == r
        assert_traces_equal(clone.trace, r.trace)
    # a pickled result carries its own trace, not the whole batch
    assert len(pickle.dumps(auto[0])) < len(pickle.dumps(auto)) / 4
    with pytest.raises(TypeError):
        hash(auto[0])


def test_results_without_oracle_compare_equal(net):
    scheme = net.build_scheme("rtz")
    a = Router(scheme).route_many([(0, 5), (7, 2)])
    b = Router(scheme, engine="python").route_many([(0, 5), (7, 2)])
    assert all(math.isnan(r.stretch) for r in a)
    assert a == b


def test_accounting_folds_batches_in_input_order(net):
    pairs = workload_pairs(net, 9)
    batched = net.router("stretch6")
    batched.route_many(pairs)
    single = net.router("stretch6", engine="python")
    for s, t in pairs:
        single.route(s, t)
    a, b = batched.accounting(), single.accounting()
    assert (a.queries, a.total_cost, a.total_hops, a.max_header_bits) == (
        b.queries, b.total_cost, b.total_hops, b.max_header_bits
    )


# ----------------------------------------------------------------------
# a pair whose source is its destination is refused before routing
# ----------------------------------------------------------------------
def test_route_rejects_source_equal_dest(net):
    router = net.router("stretch6")
    with pytest.raises(GraphError, match="source != destination"):
        router.route(3, 3)
    assert router.accounting().queries == 0


def test_route_many_rejects_source_equal_dest(net):
    router = net.router("stretch6")
    with pytest.raises(GraphError, match=r"got \(4, 4\)"):
        router.route_many([(0, 5), (4, 4)])
    with pytest.raises(GraphError, match="source != destination"):
        router.route_many([(2, router.scheme.name_of(2))], by_name=True)
    stats = router.accounting()
    assert stats.queries == 0
    assert stats.engines["vectorized"]["pairs"] == 0


def test_route_many_rejects_vertices_outside_the_graph(net):
    with pytest.raises(GraphError, match="out of range"):
        net.router("stretch6").route_many([(0, N)])


# ----------------------------------------------------------------------
# hop-limit errors name the same pair on both engines
# ----------------------------------------------------------------------
class AckLoopScheme(RoutingScheme):
    """Delivers ``s -> t`` along the cycle ``0 -> 1 -> 2 -> 3 -> 0`` and
    bounces every acknowledgment between vertices 2 and 3."""

    name = "ack-loop-stub"

    def __init__(self):
        g = Digraph(4)
        for i in range(4):
            g.add_edge(i, (i + 1) % 4, 1.0)
        g.add_edge(3, 2, 1.0)
        g.freeze(port_rng=random.Random(0))
        self._g = g

    @property
    def graph(self) -> Digraph:
        return self._g

    def name_of(self, vertex: int) -> int:
        return vertex

    def vertex_of(self, name: int) -> int:
        return name

    def forward(self, at, header):
        if header["mode"] == "new" and at == header["dest"]:
            return Deliver(header)
        if header["mode"] == "new":
            return Forward(self._g.port_of(at, (at + 1) % 4), header)
        nxt = 2 if at == 3 else 3
        return Forward(self._g.port_of(at, nxt), header)

    def table_entries(self, vertex: int) -> int:
        return 1

    def compile_tables(self, tables: str = "dense") -> CompiledRoutes:
        bits = 8
        out = np.array([[(u + 1) % 4] * 4 for u in range(4)], dtype=np.int64)
        back = np.array([[3, 3, 3, 3]] * 3 + [[2, 2, 2, 2]], dtype=np.int64)
        tables_ = AckLoopTables(out, back)

        def planner(sources, dests):
            b = sources.shape[0]
            return JourneyPlan(
                legs=[[Segment(dests.copy(), constant_bits(bits, b))],
                      [Segment(sources.copy(), constant_bits(bits, b))]],
                leg_init_bits=[constant_bits(bits, b), constant_bits(bits, b)],
            )

        return CompiledRoutes(self._g, tables_, planner)

    def make_return_header(self, header):
        return {"mode": "ret", "dest": header["dest"]}


class AckLoopTables(DenseNextHop):
    """Outbound packets follow ``out``; a packet whose leg began at its
    own previous target (the acknowledgment) follows ``back``."""

    def __init__(self, out, back):
        super().__init__(out)
        self.back = back

    def begin_phase(self, at, target):
        # the test's outbound legs target 2 or 3, its acknowledgments
        # 0 or 1
        return (target <= 1).astype(np.int8)

    def step(self, at, target, phase):
        nxt = np.where(phase == 1, self.back[at, target],
                       self.next_vertex[at, target])
        return nxt, phase


def test_hop_limit_error_names_the_same_pair():
    # (1, 2)'s acknowledgment starts looping two sweeps before
    # (0, 3)'s, but the first input-order failure is the one reported
    messages = []
    for engine in ("python", "vectorized"):
        router = Router(AckLoopScheme(), hop_limit=12, engine=engine)
        with pytest.raises(HopLimitExceeded) as exc:
            router.route_many([(0, 3), (1, 2)])
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
    assert "from 3 to 0" in messages[0]
