"""Run one benchmark workload (or all of them) and print its metrics.

Usage, from the repository root::

    python3 routebench/run.py --workload route-batch --seed 1 --seconds 20 --trace 0
    python3 routebench/run.py --workload all --seed 1 --seconds 20 --trace 1

The workloads are ``route-batch``, ``serve-open`` and ``churn-evolve``
(see README.md).  Every metric is printed by name with its unit, then
the operations attempted and failed; the last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps every
call into a layer in a span and reports the per-layer metrics, prints
each layer's self time, and writes a Chrome trace-event file under
``routebench/out/``.  The exit code is 0 only when every operation
succeeded and, at the default seed, the routed-result digest matches
the pinned one.
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("route-batch", "serve-open", "churn-evolve")


def _bootstrap() -> None:
    """Put the library's source tree on the import path, or stop."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"routebench: no library sources at {src}")
    sys.path.insert(0, str(src))


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(prog="routebench", description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1, help="workload input seed")
    p.add_argument("--seconds", type=float, default=20.0,
                   help="length of the measured phase")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: traced run reporting per-layer metrics")
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="input sizes (tiny is the test-suite smoke size)")
    return p.parse_args(argv)


def run_workload(args: argparse.Namespace) -> dict:
    """Run one workload in this process; print its report and return
    the result document."""
    import churn_evolve
    import route_batch
    import serve_open
    from common import (
        END_TO_END, OUT_DIR, PER_LAYER, SCALES, SPAN_METRICS, at_reference_speed,
        pinned_digest,
    )
    from tracer import Tracer

    module = {
        "route-batch": route_batch,
        "serve-open": serve_open,
        "churn-evolve": churn_evolve,
    }[args.workload]
    tracer = Tracer(enabled=bool(args.trace))
    result = module.run(SCALES[args.scale], args.seed, args.seconds, tracer)

    if args.trace:
        metrics = {}
        for name, unit in PER_LAYER.items():
            if name in SPAN_METRICS:
                span, factor = SPAN_METRICS[name]
                value = factor * tracer.median_s(span)
            elif name == "bench.span_coverage_pct":
                value = tracer.coverage()
            elif name == "bench.trace_overhead_pct":
                value = result.overhead_pct
            else:
                # a layer this workload bypasses reads 0
                value = result.counts.get(name, 0)
            metrics[name] = {"value": value, "unit": unit}
    else:
        scaled = at_reference_speed(result.end_to_end, result.host_factor)
        metrics = {
            name: {"value": scaled[name], "unit": unit}
            for name, unit in END_TO_END.items()
        }

    pinned = pinned_digest(args.workload, args.scale, args.seed)
    digest_ok = pinned is None or pinned == result.digest
    outcome = result.outcome
    correct = outcome.failed == 0 and digest_ok

    print(f"routebench {args.workload}: seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} scale={args.scale}")
    print(f"  {result.note}")
    if result.host_factor is not None:
        print(f"  host speed factor {result.host_factor:.4f}; as measured: "
              + ", ".join(f"{k}={v:.6g}" for k, v in result.end_to_end.items()))
    print(f"  p90 operation latency {result.tail_ms:.6g} ms (as measured, not declared)")
    if args.trace:
        path = OUT_DIR / f"{args.workload}-seed{args.seed}.trace.json"
        tracer.write_chrome_trace(path, {"workload": args.workload, "seed": args.seed})
        print(f"  {'layer (span)':<34} {'calls':>7} {'total_s':>10} {'self_s':>10}")
        for name, calls, total_s, self_s in tracer.layer_table():
            print(f"  {name:<34} {calls:>7} {total_s:>10.4f} {self_s:>10.4f}")
        print(f"  chrome trace: {path.relative_to(ROOT)}")
    for name, m in metrics.items():
        print(f"  {name:<36} {m['value']:>14.6g} {m['unit']}")
    print(f"  attempted {outcome.attempted}  failed {outcome.failed}"
          + "".join(f"  {cause}={count}" for cause, count in sorted(outcome.failures.items())))
    state = "not pinned" if pinned is None else ("matches pin" if digest_ok else
                                                 f"DIFFERS from pin {pinned}")
    print(f"  route digest {result.digest} ({state})")
    return {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }


def run_all(args: argparse.Namespace) -> dict:
    """Each workload in its own process (peak RSS is per process)."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scale", args.scale]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            doc = json.loads(lines[-1])
        except (IndexError, ValueError):  # the workload crashed before its result
            doc = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
        summary["correct"] &= doc["correct"] and proc.returncode == 0
        summary["attempted"] += doc["attempted"]
        summary["failed"] += doc["failed"]
        for name, m in doc["metrics"].items():
            summary["metrics"][f"{workload}/{name}"] = m
    return summary


def main(argv=None) -> int:
    args = parse_args(argv)
    # a terminated run still unwinds, so the serve daemon it started stops
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    _bootstrap()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    doc = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(doc))
    return 0 if doc["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
