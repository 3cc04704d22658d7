"""Attribution self-test: does the benchmark blame the layer that got slower?

Usage, from the repository root::

    python3 perfbench/selftest.py

For each case a busy-wait delay is injected into every call of one layer's
public entry point, from the benchmark side (``child.py --inject``; nothing
in ``src`` changes).  Runs are made in pairs, one with and one without the
delay, alternating which goes first, so both halves of a pair see the same
host, and the run without the delay wraps the layer with a zero delay; each
figure below is the median over the pairs.  The test checks:

1. In traced runs of the workload that uses the layer, the injected layer's
   self time grows by about ``calls x delay`` and grows more than any other
   layer's self time.
2. The untraced ``run_s`` of that workload grows by about the same amount.
3. The untraced ``run_s`` of a workload that bypasses the layer moves by no
   more than ``BYPASS_TOLERANCE`` (over twice as many pairs).

All times here are raw wall seconds: the two halves of a pair run back to
back on the same host, so no host normalization is needed (and a single
reference-kernel sample per run would only add noise).

Prints one JSON object per case and exits 1 if any check fails.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

import run

# (layer, delay per call in seconds, workload using it, workload bypassing it)
CASES = [
    ("hive.metastore", 2e-3, "scorecard", "eventsim-closed"),
    ("common.seed_for", 3e-6, "eventsim-open", "eventsim-closed"),
]
# Calls per run of each injected layer, as the traced run counts them.
CALL_COUNTS = {"hive.metastore": "hive.metastore_calls",
               "common.seed_for": "common.seed_for_calls"}
TRACED_PAIRS = 2
UNTRACED_PAIRS = 8  # on the using workload; twice as many on the bypassing one
# The measured slowdown must be within this share of calls x delay.
EXPECTED_TOLERANCE = 0.5
# run_s of the bypassing workload may move by at most this share.
BYPASS_TOLERANCE = 0.05
CHILD_TIMEOUT_S = 170.0


def pairs(workload: str, layer: str, delay: float, count: int,
          traced: bool = False) -> list:
    """``count`` result pairs {"base", "slow"}, alternating the order.

    The base side wraps the layer with a zero delay, so both sides import
    and wrap the same code and differ only by the delay itself.
    """
    out_dir = os.path.join(run.HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    sides = [("base", f"{layer}=0"), ("slow", f"{layer}={delay!r}")]
    results = []
    for k in range(count):
        pair = {}
        for name, inject in (sides if k % 2 == 0 else sides[::-1]):
            trace_out = (os.path.join(out_dir, f"selftest-{workload}.spans.jsonl")
                         if traced else None)
            rep = run.spawn(workload, None, inject=inject, trace_out=trace_out,
                            timeout=CHILD_TIMEOUT_S)
            issues = run.problems(rep, run.jobs.seeds_for(workload, None),
                                  run.load_pins().get(workload, {}))
            if issues:
                raise SystemExit(f"{workload} (--inject {inject}): {issues}")
            pair[name] = rep
        results.append(pair)
    return results


def run_case(layer, delay, used_by, bypass, count) -> dict:
    traced = pairs(used_by, layer, delay, TRACED_PAIRS, traced=True)
    calls = traced[0]["base"]["layers"][CALL_COUNTS[layer]]
    expected = calls * delay
    names = [n for n in traced[0]["base"]["layers"] if n.endswith("_s")]
    deltas = {n: statistics.median(
        p["slow"]["layers"][n] - p["base"]["layers"][n] for p in traced)
        for n in names}
    blamed = max(deltas, key=deltas.get)
    used = pairs(used_by, layer, delay, count)
    run_delta = statistics.median(p["slow"]["run_s"] - p["base"]["run_s"]
                                  for p in used)
    # A null effect needs more pairs than a 20% one to read as null.
    skipped = pairs(bypass, layer, delay, 2 * count)
    bypass_change = statistics.median(
        p["slow"]["run_s"] / p["base"]["run_s"] - 1 for p in skipped)
    layer_delta = deltas[layer + "_s"]
    return {
        "layer": layer, "delay_s_per_call": delay, "calls": calls,
        "expected_delay_s": round(expected, 4),
        "workload": used_by,
        "self_time_delta_s": round(layer_delta, 4),
        "blamed": blamed,
        "run_s_base": round(statistics.median(
            p["base"]["run_s"] for p in used), 4),
        "run_s_delta_s": round(run_delta, 4),
        "bypass_workload": bypass,
        "bypass_run_s_base": round(statistics.median(
            p["base"]["run_s"] for p in skipped), 4),
        "bypass_change": round(bypass_change, 4),
        "pairs": [count, 2 * count],
        "checks": {
            "blames_injected_layer": blamed == layer + "_s",
            "self_time_matches_delay":
                abs(layer_delta - expected) <= EXPECTED_TOLERANCE * expected,
            "run_s_matches_delay":
                abs(run_delta - expected) <= EXPECTED_TOLERANCE * expected,
            "bypass_unchanged": abs(bypass_change) <= BYPASS_TOLERANCE,
        },
    }


def main() -> int:
    ok = True
    for case in CASES:
        result = run_case(*case, count=UNTRACED_PAIRS)
        print(json.dumps(result), flush=True)
        ok = ok and all(result["checks"].values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
