"""serve-open: open-loop single-pair requests against ``repro serve``.

The benchmark warms an artifact store of its own, then starts the
daemon (``repro serve --n 512 --scheme stretch6 --cache-dir <store>``),
so the storable build artifacts (oracle, RTZ substrate) are rehydrated,
not built.  Load is an open loop of single-pair ``/route_many`` requests
with seeded Poisson arrivals at a fixed rate, over two keep-alive
connections.  Here, unlike route-batch, per-request overhead dominates:
parse, linger and engine batch set-up.

The unit operation is one request, timed from its due time:
``op_p50_ms`` is the median latency and ``throughput_per_s`` the
goodput (200 responses within the stretch
bound and within SERVE_LATENCY_LIMIT_MS; a failure or a 429 misses it).
``setup_s`` runs from spawning the daemon to its first answered route;
``peak_rss_mb`` is the daemon's.  These figures are reported as
measured: the work runs in the daemon, on a CPU the benchmark's
HostClock does not see.
"""

from __future__ import annotations

import os
import random
import select
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.serve.client import ServeClient, ServeConnectionError
from repro.serve.protocol import ProtocolError
from repro.store import ArtifactStore

import ladder
from common import (
    FAMILY,
    GRAPH_SEED,
    OUT_DIR,
    SCHEME,
    SERVE_CLIENT_TIMEOUT_S,
    SERVE_CONNECTIONS,
    SERVE_LATENCY_LIMIT_MS,
    SERVE_START_TIMEOUT_S,
    Digest,
    Outcome,
    Scale,
    WorkloadResult,
    distinct_pairs,
    overhead_pct,
    peak_rss_mb,
    quantile,
    stretch_ok,
)
from tracer import Tracer, run_in_thread_context

SRC = Path(__file__).resolve().parent.parent / "src"


class Daemon:
    """One ``repro serve`` subprocess on an ephemeral port."""

    def __init__(self, n: int, store_dir: Path, log_path: Path):
        self.log_path = log_path
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self._log = open(log_path, "wb")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--family", FAMILY, "--n", str(n), "--seed", str(GRAPH_SEED),
                "--scheme", SCHEME, "--cache-dir", str(store_dir),
                "--port", "0",
            ],
            stdout=subprocess.PIPE,
            stderr=self._log,
            env=env,
        )
        self.port = self._read_port()

    def _read_port(self) -> int:
        deadline = time.monotonic() + SERVE_START_TIMEOUT_S
        out = self.proc.stdout
        while time.monotonic() < deadline:
            ready, _, _ = select.select([out], [], [], 0.5)
            if ready:
                line = out.readline().decode("utf-8", "replace")
                if not line:
                    break
                if "listening on http://" in line:
                    return int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
            elif self.proc.poll() is not None:
                break
        self.stop()
        raise RuntimeError(
            f"repro serve did not start (exit {self.proc.returncode}); "
            f"log: {self.log_path.read_text(errors='replace')[-2000:]}"
        )

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(str(self.proc.pid))

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


class _OpenLoop:
    """Seeded arrivals replayed over a few keep-alive connections."""

    def __init__(self, tracer: Tracer, port: int, due: List[float], pairs):
        self.tracer = tracer
        self.port = port
        self.due = due
        self.pairs = pairs
        self.latency: List[Optional[float]] = [None] * len(due)
        self.wait: List[float] = [0.0] * len(due)
        self.routes: List[object] = [None] * len(due)
        self.errors: List[Optional[str]] = [None] * len(due)
        self._next = 0
        self._lock = threading.Lock()
        self.start = 0.0

    def _take(self) -> int:
        with self._lock:
            i = self._next
            self._next += 1
            return i

    def worker(self) -> None:
        tracer = self.tracer
        with ServeClient(port=self.port, timeout=SERVE_CLIENT_TIMEOUT_S) as client:
            while True:
                i = self._take()
                if i >= len(self.due):
                    return
                due = self.start + self.due[i]
                pause = due - time.perf_counter()
                if pause > 0:
                    with tracer.span("loadgen.idle"):
                        time.sleep(pause)
                sent = time.perf_counter()
                self.wait[i] = sent - due
                traced = not tracer.enabled or i % 2 == 0
                try:
                    if traced:
                        with tracer.span("serve.client.rtt"):
                            _, route = client.route(*self.pairs[i])
                    else:
                        with tracer.untraced():
                            _, route = client.route(*self.pairs[i])
                    self.routes[i] = route
                except ProtocolError as exc:
                    self.errors[i] = f"http-{exc.code}"
                except ServeConnectionError:
                    self.errors[i] = "transport"
                self.latency[i] = time.perf_counter() - due

    def run(self, span_s: float) -> float:
        """Replay the schedule; returns the wall time until the last
        response, at least the schedule's length ``span_s``."""
        threads = [
            run_in_thread_context(self.worker) for _ in range(SERVE_CONNECTIONS)
        ]
        self.start = time.perf_counter() + 0.01
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return max(time.perf_counter() - self.start, span_s)


def _broker_delta(before: Dict, after: Dict) -> Dict[str, float]:
    b0, b1 = before["broker"], after["broker"]
    batches = b1["executed_batches"] - b0["executed_batches"]
    pairs = b1["executed_pairs"] - b0["executed_pairs"]
    exec_s = b1["exec_seconds"] - b0["exec_seconds"]
    return {
        "serve.broker.pairs_per_batch": pairs / batches if batches else 0.0,
        "serve.broker.exec_ms_per_batch": 1000.0 * exec_s / batches if batches else 0.0,
        "serve.broker.shed_pairs": b1["shed_pairs"] - b0["shed_pairs"],
    }


def run(scale: Scale, seed: int, seconds: float, tracer: Tracer) -> WorkloadResult:
    n = scale.serve_n
    count = max(scale.serve_min_requests, round(scale.serve_rate * seconds))
    span_s = count / scale.serve_rate
    # separate streams, so the leading (digested) pairs do not depend on
    # the run length; arrivals are a Poisson process conditioned on its
    # count: sorted uniform times
    arrivals = random.Random(f"{seed}|serve-open|arrivals")
    due = sorted(arrivals.uniform(0.0, span_s) for _ in range(count))
    rng = random.Random(f"{seed}|serve-open|pairs")
    first_pairs = distinct_pairs(rng, n, scale.setups)
    pairs = distinct_pairs(rng, n, count)
    outcome = Outcome()
    digest = Digest()
    counts: Dict[str, float] = {}

    workdir = OUT_DIR / f"serve-{os.getpid()}"
    store_dir = workdir / "store"
    workdir.mkdir(parents=True, exist_ok=True)
    daemon: Optional[Daemon] = None
    try:
        # warm the store the daemon will rehydrate from (untimed)
        warm = ladder.generate(Tracer(False), n, store=ArtifactStore(store_dir))
        bound = warm.stretch_bound(SCHEME)
        del warm

        setup_s = []
        for k, first_pair in enumerate(first_pairs):
            if daemon is not None:
                client.close()
                daemon.stop()
            with tracer.span("phase.setup"):
                t0 = time.perf_counter()
                with tracer.span("serve.spawn"):
                    daemon = Daemon(n, store_dir, workdir / f"daemon-{k}.log")
                client = ServeClient(port=daemon.port, timeout=SERVE_CLIENT_TIMEOUT_S)
                with tracer.span("serve.client.rtt"):
                    _, first = client.route(*first_pair)
                setup_s.append(time.perf_counter() - t0)
            if stretch_ok(first.stretch, bound):
                outcome.ok()
            else:
                outcome.fail("stretch")

        if tracer.enabled:
            # the daemon's start-up replayed in-process on the warm store,
            # so its layers show up in this process's trace
            with tracer.span("phase.replay"):
                replay = ladder.generate(tracer, n, store=ArtifactStore(store_dir))
                router, _ = ladder.bring_up(
                    tracer, replay, first_pairs[0], rehydrate=True
                )
            counts["store.hits"] = replay.stats().store.hits
            counts["schemes.stretch6.max_table_entries"] = (
                router.table_report().max_entries
            )
            del replay, router

        loop = _OpenLoop(tracer, daemon.port, due, pairs)
        with tracer.span("phase.measure"):
            stats_before = client.stats()
            wall = loop.run(span_s)
            stats_after = client.stats()
        rss = daemon.peak_rss_mb()
        client.close()
        daemon.stop()
        daemon = None
    finally:
        if daemon is not None:
            daemon.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    good = 0
    latency = []
    for i, (route, error, lat) in enumerate(zip(loop.routes, loop.errors, loop.latency)):
        latency.append(lat)
        if error is not None:
            outcome.fail(error)
            continue
        if not stretch_ok(route.stretch, bound):
            outcome.fail("stretch")
            continue
        outcome.ok()
        if i < scale.serve_digest:
            digest.add_results([route])
        if 1000.0 * lat <= SERVE_LATENCY_LIMIT_MS:
            good += 1

    counts.update(_broker_delta(stats_before, stats_after))
    counts["serve.client.conn_wait_ms"] = 1000.0 * statistics.fmean(loop.wait)
    counts["runtime.engine.hops_per_pair"] = digest.hops_per_pair()
    counts["schemes.stretch6.max_header_bits"] = digest.max_header_bits
    traced_lat = [lat for i, lat in enumerate(latency) if i % 2 == 0]
    untraced_lat = [lat for i, lat in enumerate(latency) if i % 2 == 1]
    return WorkloadResult(
        outcome=outcome,
        end_to_end={
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": rss,
            "op_p50_ms": 1000.0 * statistics.median(latency),
            "throughput_per_s": good / wall,
        },
        counts=counts,
        digest=digest.hexdigest(),
        note=(
            f"n={n}, {count} requests at {scale.serve_rate:g}/s over "
            f"{SERVE_CONNECTIONS} connections, {good} within "
            f"{SERVE_LATENCY_LIMIT_MS:g} ms, setups={[round(s, 3) for s in setup_s]}"
        ),
        overhead_pct=overhead_pct(traced_lat, untraced_lat) if tracer.enabled else 0.0,
        tail_ms=1000.0 * quantile(latency, 90),
        host_factor=None,
    )
