"""Shared pieces of the benchmark: sizes, metric catalogue, failure
accounting, result digests and process measurements."""

from __future__ import annotations

import gc
import hashlib
import json
import math
import statistics
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

HERE = Path(__file__).resolve().parent
#: run outputs (Chrome traces, the serve workload's scratch store)
OUT_DIR = HERE / "out"

#: every workload serves this scheme on this graph family and seed
SCHEME = "stretch6"
FAMILY = "random"
GRAPH_SEED = 1
#: the workload seed whose route digests are pinned in digests.json
DEFAULT_SEED = 1


@dataclass(frozen=True)
class Scale:
    """Input sizes of one benchmark scale (``full`` is what the numbers
    in BENCHMARK.json mean; ``tiny`` is the test-suite smoke size)."""

    setups: int                 # set-ups per run; setup_s is their median
    batch_n: int                # route-batch graph size
    batch_pairs: int            # pairs per route_many batch
    batch_pool: int             # distinct batches generated per seed
    batch_digest: int           # leading batches folded into the digest
    serve_n: int                # serve-open graph size
    serve_rate: float           # open-loop arrival rate, requests/s
    serve_min_requests: int     # floor on the schedule length
    serve_digest: int           # leading requests folded into the digest
    churn_n: int                # churn-evolve graph size
    churn_min_events: int       # events always run (and digested)
    churn_check_pairs: int      # pairs routed after each event to check it


SCALES = {
    "full": Scale(
        setups=3,
        batch_n=1024, batch_pairs=1024, batch_pool=32, batch_digest=4,
        serve_n=512, serve_rate=50.0, serve_min_requests=256,
        serve_digest=256,
        churn_n=512, churn_min_events=4, churn_check_pairs=256,
    ),
    "tiny": Scale(
        setups=2,
        batch_n=48, batch_pairs=64, batch_pool=4, batch_digest=2,
        serve_n=40, serve_rate=100.0, serve_min_requests=40,
        serve_digest=40,
        churn_n=40, churn_min_events=3, churn_check_pairs=32,
    ),
}

#: open-loop requests slower than this, from their due time, miss goodput
SERVE_LATENCY_LIMIT_MS = 100.0
#: keep-alive connections (and client threads) driving the daemon
SERVE_CONNECTIONS = 2
#: per-request client timeout; a timeout is a failed request
SERVE_CLIENT_TIMEOUT_S = 5.0
#: longest wait for a daemon to print its listening line
SERVE_START_TIMEOUT_S = 60.0

#: end-to-end metrics (untraced run): name -> unit.  Each workload has
#: one unit operation, which op_p50_ms and throughput_per_s measure.  The
#: tail of the operation latency is printed but not declared: on a shared
#: host it spreads between runs by more than the largest bound allowed.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_p50_ms": "ms",
    "throughput_per_s": "1/s",
}

#: per-layer metrics (traced run): name -> unit.  Times are medians per
#: call of the named layer; 0 means the workload bypasses the layer.
PER_LAYER = {
    "graph.generators.build_s": "s",
    "graph.shortest_paths.oracle_s": "s",
    "graph.roundtrip.init_orders_s": "s",
    "rtz.substrate_s": "s",
    "schemes.stretch6.build_s": "s",
    "runtime.engine.compile_s": "s",
    "store.rehydrate_s": "s",
    "api.router.route_many_ms": "ms",
    "runtime.traffic.run_workload_ms": "ms",
    "api.network.evolve_s": "s",
    "serve.client.rtt_ms": "ms",
    "serve.client.conn_wait_ms": "ms",
    "serve.broker.pairs_per_batch": "pairs",
    "serve.broker.exec_ms_per_batch": "ms",
    "serve.broker.shed_pairs": "count",
    "runtime.engine.hops_per_pair": "hops",
    "schemes.stretch6.max_table_entries": "count",
    "schemes.stretch6.max_header_bits": "bits",
    "graph.repair.rows_recomputed": "count",
    "graph.repair.rows_reused": "count",
    "store.hits": "count",
    "bench.span_coverage_pct": "%",
    "bench.trace_overhead_pct": "%",
}

#: layer spans whose per-call median duration is a per-layer metric
SPAN_METRICS = {
    "graph.generators.build_s": ("graph.generators.build", 1.0),
    "graph.shortest_paths.oracle_s": ("graph.shortest_paths.oracle", 1.0),
    "graph.roundtrip.init_orders_s": ("graph.roundtrip.init_orders", 1.0),
    "rtz.substrate_s": ("rtz.substrate", 1.0),
    "schemes.stretch6.build_s": ("schemes.stretch6.build", 1.0),
    "runtime.engine.compile_s": ("runtime.engine.compile", 1.0),
    "store.rehydrate_s": ("store.rehydrate", 1.0),
    "api.router.route_many_ms": ("api.router.route_many", 1000.0),
    "runtime.traffic.run_workload_ms": ("runtime.traffic.run_workload", 1000.0),
    "api.network.evolve_s": ("api.network.evolve", 1.0),
    "serve.client.rtt_ms": ("serve.client.rtt", 1000.0),
}


#: seconds one calibration sample takes on a quiet 2-core Xeon host;
#: in-process end-to-end figures are reported at this speed (HostClock)
CALIBRATION_REF_S = 0.010

_CAL_KEYS = list(range(4096))


def _calibration_kernel(array: np.ndarray, index: np.ndarray) -> int:
    """Fixed work shaped like the library's: a dict build, a keyed sort,
    and a random gather from a 4 MiB array.  It calls no library code,
    so no change to the library can move it."""
    table = {k: (k * 7919) % 10007 for k in _CAL_KEYS}
    order = sorted(_CAL_KEYS, key=lambda k: (table[k], k))
    return order[0] + int(array[index][:8].sum())


class HostClock:
    """How fast the host runs right now, relative to a quiet host.

    A shared host runs the same code up to 1.7x slower for minutes at a
    time, which moves every timing in a run together.  The workloads time
    a fixed calibration kernel at intervals through the run; ``factor``
    is the median sample over ``CALIBRATION_REF_S``, and the end-to-end
    times are divided by it (throughputs multiplied), so they read as on
    the quiet host.  The raw figures are printed alongside.
    """

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.samples: List[float] = []
        self._array = np.arange(1 << 19, dtype=np.int64)[::-1].copy()
        self._index = np.random.default_rng(0).integers(0, 1 << 19, size=1 << 16)

    def sample(self) -> None:
        with self.tracer.span("bench.calibrate"):
            enabled = gc.isenabled()
            gc.disable()
            try:
                t0 = time.perf_counter()
                for _ in range(3):
                    _calibration_kernel(self._array, self._index)
                self.samples.append(time.perf_counter() - t0)
            finally:
                if enabled:
                    gc.enable()

    def factor(self) -> float:
        return statistics.median(self.samples) / CALIBRATION_REF_S


def at_reference_speed(
    raw: Dict[str, float], factor: Optional[float]
) -> Dict[str, float]:
    """End-to-end metrics scaled to the reference host speed: times
    divided by ``factor``, rates multiplied, memory unchanged.  Without a
    factor the figures stay as measured."""
    if factor is None:
        return dict(raw)
    scaled = {}
    for name, value in raw.items():
        if name.endswith("_per_s"):
            value = value * factor
        elif name.endswith(("_s", "_ms")):
            value = value / factor
        scaled[name] = value
    return scaled


class Outcome:
    """Operations attempted and failed, with failures counted by cause."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: Counter = Counter()

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def ok(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, cause: str, count: int = 1) -> None:
        self.attempted += count
        self.failures[cause] += count


@dataclass
class WorkloadResult:
    """What one workload run hands back to the runner."""

    outcome: Outcome
    end_to_end: Dict[str, float]
    counts: Dict[str, float]
    digest: str
    note: str
    overhead_pct: float
    tail_ms: float                      # p90 operation latency, printed only
    host_factor: Optional[float]        # None: figures from another process


def quantile(values: Sequence[float], q: int) -> float:
    """The ``q``-th percentile (``statistics.quantiles``, n=100)."""
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100)[q - 1]


def overhead_pct(traced: Sequence[float], untraced: Sequence[float]) -> float:
    """Traced minus untraced median operation time, in percent of the
    untraced median."""
    if not traced or not untraced:
        return 0.0
    base = statistics.median(untraced)
    return 100.0 * (statistics.median(traced) - base) / base


class Digest:
    """SHA-256 over routed results ``(source, dest, cost, hops,
    max_header_bits)``, one text line each; floats hash by ``repr`` so
    any change of a route changes the digest."""

    def __init__(self) -> None:
        self._h = hashlib.sha256()
        self.routes = 0
        self.hops = 0
        self.max_header_bits = 0

    def add_results(self, results: Iterable) -> None:
        """Fold in routed results (``RouteResult`` or ``ServedRoute``)."""
        for r in results:
            self._h.update(
                f"{r.source} {r.dest} {r.cost!r} {r.hops} {r.max_header_bits}\n".encode()
            )
            self.routes += 1
            self.hops += r.hops
            self.max_header_bits = max(self.max_header_bits, r.max_header_bits)

    def hexdigest(self) -> str:
        return self._h.hexdigest()

    def hops_per_pair(self) -> float:
        return self.hops / self.routes if self.routes else 0.0


def pinned_digest(workload: str, scale: str, seed: int) -> Optional[str]:
    """The pinned digest for ``(workload, scale)`` at the default seed,
    or ``None`` for other seeds."""
    if seed != DEFAULT_SEED:
        return None
    doc = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
    return doc.get(scale, {}).get(workload)


def peak_rss_mb(pid: str = "self") -> float:
    """Peak resident set (``VmHWM``) of a process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def distinct_pairs(rng, n: int, count: int) -> List[Tuple[int, int]]:
    """``count`` random ``(source, dest)`` pairs with ``source != dest``."""
    pairs = []
    while len(pairs) < count:
        s, t = rng.randrange(n), rng.randrange(n)
        if s != t:
            pairs.append((s, t))
    return pairs


def stretch_ok(stretch: float, bound: float) -> bool:
    """Whether a routed stretch is within the scheme's bound."""
    return math.isfinite(stretch) and stretch <= bound + 1e-9
