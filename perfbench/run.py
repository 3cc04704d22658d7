"""Layered benchmark of the reproduction (see BENCHMARK.json).

Usage, from the repository root::

    python3 perfbench/run.py --workload scorecard --seed 42 --seconds 20 --trace 0

Every measured run is a fresh ``python3 perfbench/child.py`` process, one at
a time, so each pays interpreter start, imports and the per-process caches
the way a CLI call does.  ``--trace 0`` repeats cold runs until ``--seconds``
have passed and prints the end-to-end metrics as medians over them:

* ``setup_s``: process start to the first timed call.  Besides the set-up
  of every full run, the set-up probes (below) add samples, so the median
  rests on about twice as many.
* ``run_s``: seconds of the timed call.
* ``ops_per_s``: operations per second of ``run_s``.
* ``peak_rss_mb``: the child's peak resident memory.

Times are host-normalized.  On a shared 2-vCPU VM the same job ran up to
1.8x slower for minutes at a time, so raw wall seconds of runs a few
minutes apart could not resolve a 25% change.  So a set-up probe -- a
fresh child that does the workload's set-up, runs no job and then times
a fixed reference kernel (``child.reference_seconds``) -- runs before the
first run and after every run.  Each run's wall times are multiplied by
``REF_NOMINAL_S / mean(the two probes around it)``, which reads as wall
seconds on a host where the kernel takes ``REF_NOMINAL_S``.  The kernel
never runs in a process that ran the job, so the program's retained heap
cannot move the yardstick.  Each run's raw wall times and host factor are
printed.

``--trace 1`` makes one untraced run and four traced runs, between two
set-up probes, and prints the per-layer metrics (layers.py): times come
from two runs with spans only, counts from two runs that add the call
counters, and every count must repeat exactly across those two.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A run whose output check fails
(or that raises) counts all of its operations as failed.

``--seed`` replaces every seed of the workload; without it the CLI defaults
are used, and then the outputs must also match the digests in pins.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import jobs  # noqa: E402
import layers  # noqa: E402

# Reference-kernel seconds that define one host-normalized second (about
# the kernel's time on a 2-vCPU Xeon VM with Python 3.11 when it is quiet).
REF_NOMINAL_S = 0.3
WALL_LIMIT_S = 165.0  # stop starting runs well inside the 180 s budget

END_TO_END = {"setup_s": "s", "run_s": "s", "ops_per_s": "1/s",
              "peak_rss_mb": "MB"}


def spawn(workload: str, seed, *, setup_only=False, trace_out=None,
          counters=False, inject=None, timeout: float) -> dict:
    """Run child.py once and return its JSON line (or an error record)."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", workload]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    if setup_only:
        cmd.append("--setup-only")
    if trace_out:
        cmd += ["--trace-out", trace_out]
    if counters:
        cmd.append("--trace-counters")
    if inject:
        cmd += ["--inject", inject]
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT, env=env,
                              capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"error": f"exit {proc.returncode}: {proc.stderr[-2000:]}"}


def load_pins() -> dict:
    with open(os.path.join(HERE, "pins.json"), encoding="utf-8") as handle:
        return json.load(handle)


def problems(rep: dict, seeds: dict, pins: dict) -> list:
    """Why a run's output is wrong (empty when it is right)."""
    if rep.get("error"):
        return [rep["error"].strip().splitlines()[-1]]
    found = [f"check failed: {name}"
             for name, ok in rep["checks"].items() if not ok]
    for component, pin in pins.items():
        if seeds.get(component) == pin["seed"] and \
                rep["digests"].get(component) != pin["digest"]:
            found.append(f"{component} output differs from the digest "
                         f"pinned at seed {pin['seed']}")
    return found


def probe(args, start) -> dict:
    """One set-up probe: set-up seconds and reference-kernel seconds."""
    return spawn(args.workload, args.seed, setup_only=True,
                 timeout=WALL_LIMIT_S - (time.monotonic() - start))


def untraced(args, seeds, pins, start):
    reps, bad = [], []
    setups, runs, rates, rss = [], [], [], []
    step = 0.0  # wall seconds of the last run-plus-probe iteration
    probes = [probe(args, start)]
    while True:
        elapsed = time.monotonic() - start
        # Start another run only if it should end within --seconds.
        if reps and elapsed + step > min(args.seconds, WALL_LIMIT_S):
            break
        rep = spawn(args.workload, args.seed,
                    timeout=WALL_LIMIT_S - (time.monotonic() - start))
        probes.append(probe(args, start))
        reps.append(rep)
        step = time.monotonic() - start - elapsed
        issues = problems(rep, seeds, pins)
        bad.append(bool(issues))
        line = f"run {len(reps)}:"
        # The host speed around this run: the probes just before and after.
        refs = [p["ref_s"] for p in probes[-2:] if "ref_s" in p]
        if "run_s" in rep and refs:
            scale = REF_NOMINAL_S / statistics.mean(refs)
            setups.append(rep["setup_s"] * scale)
            runs.append(rep["run_s"] * scale)
            rates.append(rep["ops"] / runs[-1])
            rss.append(rep["peak_rss_mb"])
            line += (f" wall setup {rep['setup_s']:.3f} s run {rep['run_s']:.3f} s"
                     f"  host x{1 / scale:.2f}  setup {setups[-1]:.3f} s"
                     f" run {runs[-1]:.3f} s  ops {rep['ops']}"
                     f"  rss {rep['peak_rss_mb']:.1f} MB")
        print(line + ("  FAILED: " + "; ".join(issues) if issues else "  ok"))
    if not runs:
        return None
    setups += [p["setup_s"] * REF_NOMINAL_S / p["ref_s"]
               for p in probes if "ref_s" in p]
    metrics = {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(runs),
        "ops_per_s": statistics.median(rates),
        "peak_rss_mb": statistics.median(rss),
    }
    return reps, bad, {k: {"value": v, "unit": END_TO_END[k]}
                       for k, v in metrics.items()}


def traced(args, seeds, pins, start):
    """One untraced run, two traced runs for times, two more for counts."""
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    label = "default" if args.seed is None else args.seed
    probes = [probe(args, start)]
    base = spawn(args.workload, args.seed, timeout=WALL_LIMIT_S)
    reps, bad = [base], [bool(problems(base, seeds, pins))]
    for kind, counters in (("times", False), ("times", False),
                           ("counts", True), ("counts", True)):
        path = os.path.join(out_dir, f"{args.workload}-seed{label}-"
                                     f"{kind}{len(reps)}.spans.jsonl")
        rep = spawn(args.workload, args.seed, trace_out=path, counters=counters,
                    timeout=WALL_LIMIT_S - (time.monotonic() - start))
        rep["kind"] = kind
        reps.append(rep)
        issues = problems(rep, seeds, pins)
        if not issues and "layers" not in rep:
            issues = ["no layer metrics"]
        bad.append(bool(issues))
        print(f"traced run ({kind}): run {rep.get('run_s', float('nan')):.3f} s"
              f"  spans -> {os.path.relpath(path, ROOT)}"
              + ("  FAILED: " + "; ".join(issues) if issues else "  ok"))
        for hook in rep.get("missing_hooks", ()):
            print(f"  hook not found (metric reads 0): {hook}")
        for hook in rep.get("silent_hooks", ()):
            print(f"  hook the workload must reach recorded no span: {hook}")
    probes.append(probe(args, start))
    timing = [r for r in reps if r.get("kind") == "times" and "layers" in r]
    counting = [r for r in reps if r.get("kind") == "counts" and "layers" in r]
    refs = [p["ref_s"] for p in probes if "ref_s" in p]
    if len(timing) < 2 or len(counting) < 2 or "run_s" not in base or not refs:
        return None
    first, second = counting[0]["layers"], counting[1]["layers"]
    drift = [n for n in first
             if not layers.is_time_metric(n) and first[n] != second.get(n)]
    if drift:
        print("counts differ between the two traced runs: " + ", ".join(drift))
        bad[3:] = [True, True]
    values = {n: (statistics.median(r["layers"][n] for r in timing)
                  if layers.is_time_metric(n) else v)
              for n, v in first.items()}
    values["host.ref_s"] = statistics.mean(refs)
    values["trace.run_s"] = statistics.median(r["run_s"] for r in timing)
    # Raw wall over raw wall: the runs are back to back, and one reference
    # sample per process would add more noise than it removes.
    values["trace.overhead_ratio"] = values["trace.run_s"] / base["run_s"]
    print(f"untraced run {base['run_s']:.3f} s, traced {values['trace.run_s']:.3f} s"
          f" (overhead x{values['trace.overhead_ratio']:.2f})")
    metrics = {name: {"value": value, "unit": _unit(name)}
               for name, value in sorted(values.items())}
    return reps, bad, metrics


def _unit(name: str) -> str:
    for suffix, unit in (("_s", "s"), ("_per_op", "count/op"),
                         ("_row", "count/row"),
                         ("_per_record", "count/record"),
                         ("_per_user_byte", "B/B"), ("_rate", "ratio"),
                         ("_ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return "us" if "_us_" in name else "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(jobs.WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="replaces every seed of the workload "
                             "(default: the CLI's seeds)")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    start = time.monotonic()

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no program to measure: {os.path.join(ROOT, 'src', 'repro')}"
              " is missing", file=sys.stderr)
        return 2
    seeds = jobs.seeds_for(args.workload, args.seed)
    pins = load_pins().get(args.workload, {})
    measured = (traced if args.trace else untraced)(args, seeds, pins, start)
    if measured is None:
        print("error: no run completed", file=sys.stderr)
        return 1
    reps, bad, metrics = measured
    known = [r["ops"] for r in reps if r.get("ops")]
    fallback = max(known) if known else 1
    ops = [r.get("ops") or fallback for r in reps]
    attempted = sum(ops)
    failed = sum(n for n, is_bad in zip(ops, bad) if is_bad)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
