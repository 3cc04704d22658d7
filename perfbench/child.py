"""One cold run of one workload, in its own process (started by run.py).

Prints one JSON line: set-up seconds (from the parent's timestamp taken just
before it started this process, to the first timed call), then either the
reference-kernel seconds (``--setup-only``: a set-up probe, which runs no
job) or run seconds, peak RSS, the output check and -- when traced -- the
per-layer metrics.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import os
import resource
import sys
import time
import traceback

import jobs
import layers


def reference_seconds() -> float:
    """Wall seconds of a fixed pure-Python kernel: the host-speed yardstick.

    The kernel churns a binary heap, small objects and a dict the way the
    simulators do, then updates nodes at random in a list of them too large
    for the private caches, the way the workloads walk their heaps.  So host
    slowdowns -- noisy neighbours in the shared cache and memory bus, and
    frequency changes -- stretch it about as much as they stretch the
    workloads.  run.py divides every timing by it.  Changing this kernel
    rescales every reported time: never change it in place.

    It runs only in set-up probes, never after a job, and with the cyclic
    collector off: how often a collection runs and what it costs depend on
    how many objects the program keeps alive, and the yardstick must not
    move with the program it measures.
    """

    class Event:
        __slots__ = ("when", "key")

        def __init__(self, when, key):
            self.when = when
            self.key = key

    gc.collect()
    gc.disable()
    start = time.perf_counter()
    heap, tally, x = [], {}, 12345
    for i in range(100_000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        heapq.heappush(heap, (x, i, Event(x, i)))
        if len(heap) > 1000:
            event = heapq.heappop(heap)[2]
            tally[event.key % 4096] = tally.get(event.key % 4096, 0) + 1
    nodes = [[i, 0] for i in range(1 << 18)]  # about 20 MB
    for _ in range(1 << 18):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        nodes[x & 0x3FFFF][1] += 1
    seconds = time.perf_counter() - start
    del nodes
    gc.enable()
    return seconds


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(jobs.WORKLOADS))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() in the parent before spawning")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up and time the reference kernel")
    parser.add_argument("--trace-out", default=None,
                        help="trace the layers; write spans to this file")
    parser.add_argument("--trace-counters", action="store_true",
                        help="with --trace-out, also install the counters")
    parser.add_argument("--inject", default=None,
                        help="LAYER=SECONDS: delay every call of one layer")
    args = parser.parse_args()

    out = {"error": None}
    try:
        job, check = jobs.WORKLOADS[args.workload](
            jobs.seeds_for(args.workload, args.seed))
        if args.inject:
            layer, _, seconds = args.inject.partition("=")
            if not layers.install_delay(layer, float(seconds)):
                raise SystemExit(f"--inject: no layer named {layer!r}")
        trace = None
        if args.trace_out:
            trace = layers.LayerTrace(os.path.basename(args.trace_out))
            trace.install(counters=args.trace_counters)
            timed = lambda: trace.root(job)  # noqa: E731
        else:
            timed = job
        start = time.monotonic()
        out["setup_s"] = start - args.t0
        if args.setup_only:
            out["ref_s"] = reference_seconds()
            print(json.dumps(out))
            return 0
        result = timed()
        out["run_s"] = time.monotonic() - start
        out["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        outcome = check(result)
        out.update(ops=outcome.ops, checks=outcome.checks,
                   digests=outcome.digests)
        if trace is not None:
            out["layers"] = trace.layer_metrics(args.workload, outcome.ops,
                                                outcome.counts)
            out["missing_hooks"] = trace.missing
            out["silent_hooks"] = trace.silent_hooks(args.workload)
            trace.write(args.trace_out)
    except Exception:  # the run's ops count as failed; the parent reports it
        out["error"] = traceback.format_exc(limit=8)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
