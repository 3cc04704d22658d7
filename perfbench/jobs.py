"""The four workloads: set-up, the timed call, and the output check.

Each workload is a function ``setup(seeds) -> job`` where ``job()`` is the
timed call and returns a raw result, plus a ``check(result)`` that turns the
result into an :class:`Outcome` outside the timed region.  Set-up does the
imports and any construction the user would do before the call; everything
the user waits on happens inside ``job``.

Every workload starts cold in a fresh process: users pay all of it on every
CLI call, and ``repro.tpch.volumes.calibrate`` is cached per process.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

# The CLI's default seeds.  ``--seed N`` replaces every seed of the workload.
DEFAULT_SEEDS = {
    "scorecard": {"dbgen": 42},
    "eventsim-closed": {"eventsim": 1234},
    "eventsim-open": {"frontier": 11, "overload": 1234},
    "chaos-functional": {"chaos": 1234},
}

# eventsim-closed: one figure point, re-measured for a long virtual time.
CLOSED_POINT = ("mongo-as", "A", 10_000)
CLOSED_SCALE = 0.02
CLOSED_DURATION_S = 600.0
# benchmarks/ablations/test_model_validation.py: sim within 15% of MVA.
CLOSED_MVA_TOLERANCE = 0.15

# eventsim-open: the CI frontier smoke cell (one knee search) ...
FRONTIER_CELL = dict(systems=["mongo-as"], workloads=["A"], slo_ms=20.0,
                     measure_ops=1200, warmup_ops=300, min_window_s=0.1)
# ... and the bare ``oltp --overload`` demo; gate.py's recovery ceiling.
RECOVERY_CEILING_S = 15.0

# chaos-functional: ``oltp --chaos`` at its CLI size (workload A).
CHAOS_OPERATIONS = 500


def seeds_for(workload: str, seed: int | None) -> dict:
    """Every seed of ``workload``: the CLI defaults, or all equal to ``seed``."""
    return {name: default if seed is None else seed
            for name, default in DEFAULT_SEEDS[workload].items()}


def digest(value) -> str:
    """SHA-256 of a JSON value (floats keep every digit) or of a string."""
    if not isinstance(value, str):
        value = json.dumps(value, sort_keys=True)
    return hashlib.sha256(value.encode("utf-8")).hexdigest()


@dataclass
class Outcome:
    """What one run of a workload produced, as the check sees it."""

    ops: int
    checks: dict  # check name -> passed
    digests: dict  # seed name -> digest of that component's output
    counts: dict = field(default_factory=dict)  # extra per-layer counts


# -- scorecard ---------------------------------------------------------------

def scorecard(seeds: dict):
    from repro.core.dss import DssStudy
    from repro.core.oltp import OltpStudy
    from repro.core.scorecard import build_scorecard

    def job():
        return build_scorecard(DssStudy(seed=seeds["dbgen"]), OltpStudy())

    def check(card) -> Outcome:
        geomeans = {name: summary.geomean
                    for name, summary in card.accuracy.items()}
        return Outcome(
            ops=1,
            checks={"nine_claims_hold":
                    len(card.claims) == 9 and card.all_claims_hold},
            digests={"dbgen": digest(geomeans)},
        )

    return job, check


# -- eventsim-closed ---------------------------------------------------------

def eventsim_closed(seeds: dict):
    from repro.core.oltp import OltpStudy

    study = OltpStudy()
    system, workload, target = CLOSED_POINT

    def job():
        return study.event_sim_point(system, workload, target,
                                     scale=CLOSED_SCALE,
                                     duration=CLOSED_DURATION_S,
                                     seed=seeds["eventsim"])

    def check(result) -> Outcome:
        point, sim = result
        scaled = sim.throughput / CLOSED_SCALE
        return Outcome(
            ops=sim.completed_ops,
            checks={"within_15pct_of_mva": abs(scaled - point.achieved)
                    <= CLOSED_MVA_TOLERANCE * point.achieved},
            digests={"eventsim": digest({
                "completed_ops": sim.completed_ops,
                "throughput": sim.throughput,
                "latency": sim.latency,
                "latency_p99": sim.latency_p99,
                "windows": sim.window_throughputs,
            })},
        )

    return job, check


# -- eventsim-open -----------------------------------------------------------

def eventsim_open(seeds: dict):
    # The report modules are bound, not their functions: ``job`` looks each
    # function up when it runs, so the traced run's wrappers (installed
    # after set-up) are the ones called.
    import repro.overload.report as overload_codec
    import repro.ycsb.frontier as frontier_codec
    from repro.core.oltp import OltpStudy
    from repro.overload import OverloadPolicy

    study = OltpStudy()
    policy = OverloadPolicy.parse("default")
    probe_ops: list[int] = []
    _tap_open_loop_points(OltpStudy, probe_ops)

    def job():
        probe_ops.clear()
        frontier = frontier_codec.frontier_report(
            seed=seeds["frontier"], params=study.params,
            isolation=study.isolation, **FRONTIER_CELL)
        frontier_codec.validate_frontier_report(frontier)
        frontier_text = frontier_codec.dumps_frontier_report(frontier)
        frontier_codec.render_frontier_report(frontier)
        overload = overload_codec.overload_report(policy, seed=seeds["overload"])
        overload_codec.validate_overload_report(overload)
        overload_text = overload_codec.dumps_overload_report(overload)
        overload_codec.render_overload_report(overload)
        return frontier, frontier_text, overload, overload_text

    def check(result) -> Outcome:
        frontier, frontier_text, overload, overload_text = result
        knee = frontier["rows"][0]["knee"]
        contrast = overload["contrast"]
        recovery = contrast["protected_time_to_recovery_s"]
        # One op per simulated arrival in a measured window: the simulator
        # does the work whether the op completes, is shed or times out.
        ops = (sum(probe_ops) + overload["protected"]["arrivals"]
               + overload["unprotected"]["arrivals"])
        return Outcome(
            ops=ops,
            checks={
                "knee_bracketed": bool(knee["bracketed"]),
                "metastable_demonstrated":
                    bool(contrast["metastable_demonstrated"]),
                "recovery_within_15s":
                    recovery is not None and recovery <= RECOVERY_CEILING_S,
            },
            digests={"frontier": digest(frontier_text),
                     "overload": digest(overload_text)},
            counts={"ycsb.frontier_probes": knee["evaluations"]},
        )

    return job, check


def _tap_open_loop_points(study_class, sink: list) -> None:
    """Record the measured-window arrivals of every frontier probe.

    ``frontier_report`` builds its own study, so the tap sits on the class.
    It adds one call frame per probe (about 15 per run) and times nothing.
    """
    original = study_class.open_loop_point

    def open_loop_point(self, *args, **kwargs):
        result = original(self, *args, **kwargs)
        sink.append(result.arrivals)
        return result

    study_class.open_loop_point = open_loop_point


# -- chaos-functional --------------------------------------------------------

def chaos_functional(seeds: dict):
    # The module is bound, not its functions (see eventsim_open).
    import repro.faults.availability as availability
    from repro.faults.chaos import ChaosConfig

    chaos = ChaosConfig()

    def job():
        report = availability.availability_report(
            chaos=chaos, workload="A", operations=CHAOS_OPERATIONS,
            seed=seeds["chaos"])
        availability.validate_availability_report(report)
        text = availability.dumps_availability_report(report)
        availability.render_availability_report(report)
        return report, text

    def check(result) -> Outcome:
        report, text = result
        rows = report["rows"]
        return Outcome(
            ops=sum(row["attempted"] for row in rows),
            checks={"write_safety_every_row": bool(report["invariant_ok"])
                    and all(row["invariant_ok"] for row in rows)},
            digests={"chaos": digest(text)},
            counts={"faults.retries": sum(row["retries"] for row in rows)},
        )

    return job, check


WORKLOADS = {
    "scorecard": scorecard,
    "eventsim-closed": eventsim_closed,
    "eventsim-open": eventsim_open,
    "chaos-functional": chaos_functional,
}
