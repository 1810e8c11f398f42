"""The build ladder: one network brought to its first answered route,
one traced call per layer.

The ladder calls each layer's public entry point in dependency order, so
every later call finds its inputs cached and a span's time is that
layer's own work: the generator, the APSP oracle, the ``Init_v`` orders,
the RTZ substrate, the stretch-6 tables (naming blocks, dictionary
distribution, table assembly), the compiled engine tables, and the
first one-pair ``route_many``.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.api import Network, Router
from repro.api.router import RouteResult
from repro.store import ArtifactStore

from common import FAMILY, GRAPH_SEED, SCHEME
from tracer import Tracer


def generate(tracer: Tracer, n: int, store: Optional[ArtifactStore]) -> Network:
    """The benchmark graph behind a fresh network facade."""
    with tracer.span("graph.generators.build"):
        return Network.from_family(FAMILY, n, seed=GRAPH_SEED, store=store)


def bring_up(
    tracer: Tracer, net: Network, first_pair: Tuple[int, int],
    rehydrate: bool = False,
) -> Tuple[Router, RouteResult]:
    """Build (or, with ``rehydrate``, load from the store) every layer
    of ``net`` and answer one route.  Returns the router and that
    route."""
    if rehydrate:
        with tracer.span("store.rehydrate"):
            with tracer.span("graph.shortest_paths.oracle"):
                net.oracle()
            with tracer.span("rtz.substrate"):
                net.rtz()
    else:
        with tracer.span("graph.shortest_paths.oracle"):
            net.oracle()
    with tracer.span("graph.roundtrip.init_orders"):
        metric = net.metric()
        for v in range(net.n):
            metric.init_order(v)
    if not rehydrate:
        with tracer.span("rtz.substrate"):
            net.rtz()
    with tracer.span("schemes.stretch6.build"):
        scheme = net.build_scheme(SCHEME)
    with tracer.span("runtime.engine.compile"):
        scheme.compiled_routes()
    with tracer.span("api.network.router"):
        router = net.router(SCHEME)
    with tracer.span("api.router.route_many"):
        (first,) = router.route_many([first_pair])
    return router, first
