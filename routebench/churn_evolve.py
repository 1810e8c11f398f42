"""churn-evolve: topology change, then time to serve again.

An n=512 network is built, then a fixed seeded sequence of
connectivity-preserving deltas is applied, cycling reweight ->
link_down -> link_up (the link that went down comes back with a new
weight).  After each delta the new generation is brought to its first
answered route: ``Network.evolve`` with incremental oracle repair, then
the scheme rebuild that follows, which dominates.  Steady-state routing
does almost nothing here.

The unit operation is one event, timed from ``evolve(delta)`` to the new
router's first answered route: ``op_p50_ms`` is the median reconvergence
time (``reconverge_p50_s`` x 1000) and ``throughput_per_s`` the
generations brought up per second, both at the reference host speed
(see ``common.HostClock``).  After
timing ends, the final generation's oracle must be bit-identical to a
cold ``DistanceOracle`` of the final graph.
"""

from __future__ import annotations

import contextlib
import gc
import random
import statistics
import time
from typing import Optional, Tuple

import numpy as np
from repro.exceptions import RoutingError
from repro.graph.delta import GraphDelta
from repro.graph.digraph import Digraph
from repro.graph.scc import is_strongly_connected
from repro.graph.shortest_paths import DistanceOracle

import ladder
from common import (
    SCHEME,
    Digest,
    HostClock,
    Outcome,
    Scale,
    WorkloadResult,
    distinct_pairs,
    overhead_pct,
    peak_rss_mb,
    quantile,
    stretch_ok,
)
from tracer import Tracer


def _weight(rng: random.Random) -> float:
    return round(rng.uniform(0.5, 8.0), 2)


def next_delta(
    g: Digraph, event: int, rng: random.Random,
    down: Optional[Tuple[int, int]],
) -> Tuple[GraphDelta, Optional[Tuple[int, int]]]:
    """The ``event``-th delta of the cycle against the current graph
    ``g``, and the link currently down (restored by the next link_up)."""
    edges = list(g.edges())
    kind = event % 3
    if kind == 1:
        rng.shuffle(edges)
        for e in edges:
            delta = GraphDelta.link_down(e.tail, e.head)
            if is_strongly_connected(g.apply_delta(delta)):
                return delta, (e.tail, e.head)
    elif kind == 2 and down is not None:
        return GraphDelta.link_up(down[0], down[1], _weight(rng)), None
    e = edges[rng.randrange(len(edges))]
    return GraphDelta.reweight(e.tail, e.head, _weight(rng)), down


def run(scale: Scale, seed: int, seconds: float, tracer: Tracer) -> WorkloadResult:
    rng = random.Random(f"{seed}|churn-evolve")
    n = scale.churn_n
    outcome = Outcome()
    digest = Digest()
    clock = HostClock(tracer)
    counts = {"graph.repair.rows_recomputed": 0, "graph.repair.rows_reused": 0}

    setup_s = []
    firsts = []
    net = None
    for first_pair in distinct_pairs(rng, n, scale.setups):
        net = None
        gc.collect()
        clock.sample()
        with tracer.span("phase.setup"):
            t0 = time.perf_counter()
            net = ladder.generate(tracer, n, store=None)
            router, first = ladder.bring_up(tracer, net, first_pair)
            setup_s.append(time.perf_counter() - t0)
        firsts.append(first)
    bound = net.stretch_bound(SCHEME)
    for first in firsts:
        if stretch_ok(first.stretch, bound):
            outcome.ok()
        else:
            outcome.fail("stretch")

    reconverge = []
    by_mode = ([], [])
    down = None
    event = 0
    rss = 0.0
    with tracer.span("phase.measure"):
        deadline = time.perf_counter() + seconds
        while event < scale.churn_min_events or time.perf_counter() < deadline:
            with tracer.span("bench.inputs"):
                delta, down = next_delta(net.graph, event, rng, down)
                first_pair, *check_pairs = distinct_pairs(
                    rng, n, 1 + scale.churn_check_pairs
                )
                gc.collect()
            clock.sample()
            traced = not tracer.enabled or event % 2 == 0
            t0 = time.perf_counter()
            try:
                with contextlib.nullcontext() if traced else tracer.untraced():
                    with tracer.span("api.network.evolve"):
                        child = net.evolve(delta)
                    router, first = ladder.bring_up(tracer, child, first_pair)
            except RoutingError:
                outcome.fail("routing-error")
                break
            elapsed = time.perf_counter() - t0
            reconverge.append(elapsed)
            by_mode[0 if traced else 1].append(elapsed)
            net = child
            with tracer.untraced("bench.check"):
                try:
                    results = [first] + router.route_many(check_pairs)
                except RoutingError:
                    outcome.fail("routing-error", len(check_pairs))
                    results = [first]
                bad = sum(1 for r in results if not stretch_ok(r.stretch, bound))
                if bad:
                    outcome.fail("stretch", bad)
                outcome.ok(len(results) - bad)
                if event < scale.churn_min_events:
                    digest.add_results(results)
                    repair = child.stats().repair
                    counts["graph.repair.rows_recomputed"] += repair.rows_recomputed
                    counts["graph.repair.rows_reused"] += repair.rows_reused
            event += 1
            if event == scale.churn_min_events:
                # how many events fit in the run depends on the host's
                # speed, so memory and tables are read after a fixed number
                rss = peak_rss_mb()
                counts["schemes.stretch6.max_table_entries"] = (
                    router.table_report().max_entries
                )
    rss = rss or peak_rss_mb()

    with tracer.span("phase.verify"):
        with tracer.span("bench.cold_oracle"):
            cold = DistanceOracle(net.graph)
            warm = net.oracle()
            if (np.array_equal(cold.d_matrix, warm.d_matrix)
                    and np.array_equal(cold.r_matrix, warm.r_matrix)):
                outcome.ok()
            else:
                outcome.fail("repaired-oracle-differs")

    counts["runtime.engine.hops_per_pair"] = digest.hops_per_pair()
    counts["schemes.stretch6.max_header_bits"] = digest.max_header_bits
    return WorkloadResult(
        outcome=outcome,
        end_to_end={
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": rss,
            "op_p50_ms": 1000.0 * statistics.median(reconverge),
            "throughput_per_s": len(reconverge) / sum(reconverge),
        },
        counts=counts,
        digest=digest.hexdigest(),
        note=(
            f"n={n}, {len(reconverge)} events, "
            f"setups={[round(s, 3) for s in setup_s]}"
        ),
        overhead_pct=overhead_pct(*by_mode),
        tail_ms=1000.0 * quantile(reconverge, 90),
        host_factor=clock.factor(),
    )
