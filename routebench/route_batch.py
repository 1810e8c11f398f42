"""route-batch: cold build, then closed-loop bulk routing.

A cold build with the store off brings an n=1024 network to its first
answered route (``setup_s``; the build layers do nearly all of it).
Routing then runs closed-loop through ``Router.route_many`` in
1024-pair batches, the large-batch regime where per-pair engine cost
dominates.  The store and the daemon are bypassed.

The unit operation is one batch: ``op_p50_ms`` is the median batch
latency and ``throughput_per_s`` the pairs routed per second of routing,
both at the reference host speed (see ``common.HostClock``).
"""

from __future__ import annotations

import gc
import random
import statistics
import time

from repro.exceptions import RoutingError

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


def run(scale: Scale, seed: int, seconds: float, tracer: Tracer) -> WorkloadResult:
    rng = random.Random(f"{seed}|route-batch")
    n = scale.batch_n
    pool = [distinct_pairs(rng, n, scale.batch_pairs) for _ in range(scale.batch_pool)]
    first_pairs = distinct_pairs(rng, n, scale.setups)
    outcome = Outcome()
    digest = Digest()
    clock = HostClock(tracer)

    setup_s = []
    firsts = []
    net = router = None
    for first_pair in first_pairs:
        net = router = None
        gc.collect()
        clock.sample()
        with tracer.span("phase.setup"):
            t0 = time.perf_counter()
            net = ladder.generate(tracer, n, store=None)
            router, first = ladder.bring_up(tracer, net, first_pair)
            setup_s.append(time.perf_counter() - t0)
        firsts.append(first)
    clock.sample()
    bound = net.stretch_bound(SCHEME)
    for first in firsts:
        if stretch_ok(first.stretch, bound):
            outcome.ok()
        else:
            outcome.fail("stretch")

    latencies = []           # every batch, seconds
    by_mode = ([], [])       # (traced, untraced) batch latencies
    routed = 0
    i = 0
    with tracer.span("phase.measure"):
        deadline = time.perf_counter() + seconds
        while i < scale.batch_digest or time.perf_counter() < deadline:
            pairs = pool[i % len(pool)]
            traced = not tracer.enabled or i % 2 == 0
            t0 = time.perf_counter()
            try:
                if traced:
                    with tracer.span("api.router.route_many"):
                        results = router.route_many(pairs)
                else:
                    with tracer.untraced():
                        results = router.route_many(pairs)
            except RoutingError:
                outcome.fail("routing-error", len(pairs))
                i += 1
                continue
            elapsed = time.perf_counter() - t0
            latencies.append(elapsed)
            by_mode[0 if traced else 1].append(elapsed)
            routed += len(pairs)
            with tracer.span("bench.check"):
                bad = sum(1 for r in results if not stretch_ok(r.stretch, bound))
                if bad:
                    outcome.fail("stretch", bad)
                outcome.ok(len(pairs) - bad)
                if i < scale.batch_digest:
                    digest.add_results(results)
            if i % 8 == 7:
                clock.sample()
            if tracer.enabled and traced:
                # the same batch through the traffic runner: the gap to
                # route_many is the router's per-pair result assembly
                with tracer.span("runtime.traffic.run_workload"):
                    summary = router.serve_workload(pairs)
                with tracer.span("bench.check"):
                    if (summary.total_hops != sum(r.hops for r in results)
                            or summary.max_header_bits
                            != max(r.max_header_bits for r in results)):
                        outcome.fail("run-workload-mismatch")
                    else:
                        outcome.ok()
            i += 1
    rss = peak_rss_mb()

    return WorkloadResult(
        outcome=outcome,
        end_to_end={
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": rss,
            "op_p50_ms": 1000.0 * statistics.median(latencies),
            "throughput_per_s": routed / sum(latencies),
        },
        counts={
            "runtime.engine.hops_per_pair": digest.hops_per_pair(),
            "schemes.stretch6.max_table_entries": router.table_report().max_entries,
            "schemes.stretch6.max_header_bits": digest.max_header_bits,
        },
        digest=digest.hexdigest(),
        note=(
            f"n={n}, {len(latencies)} batches of {scale.batch_pairs} pairs, "
            f"setups={[round(s, 3) for s in setup_s]}"
        ),
        overhead_pct=overhead_pct(*by_mode),
        tail_ms=1000.0 * quantile(latencies, 90),
        host_factor=clock.factor(),
    )
