"""Benchmark-side tracing: wrap each layer's public entry points from outside.

Nothing in ``src/repro`` is edited.  After a workload is set up, the child
process replaces the entry points listed below with wrappers:

* ``SPANS`` record one span per call (name, hook, start, end, parent span,
  run id) and accumulate the layer's *self* time: its span time minus the
  time its child spans cover.
* ``COUNTS`` only count calls; they sit on paths hot enough (``Expr.eval``,
  ``Environment.timeout``) that a span per call would swamp the run.
* A few wrappers read a value off the call (rows generated, WAL bytes,
  buffer-pool hits, user bytes written) to form the per-layer ratios.

Counters and readers are optional (``LayerTrace.install(counters=...)``):
their cost inflates the self time of the layer that makes the counted
calls, so times come from traced runs without them.

Spans stay in memory and are written once the run ends.  A hook whose
target no longer exists is skipped and counted in ``trace.missing_hooks``,
and a hook that ``REACHED_BY`` says the workload calls but that recorded no
span is counted in ``trace.silent_hooks``, so a later refactor of the
program (or a caller that kept the unwrapped function) degrades the traced
run visibly instead of breaking it or reading as a 0 s layer.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time
from collections import Counter, defaultdict

# (layer metric stem, module, attribute path) -- one span per call.
SPANS = [
    ("core.calibrate", "repro.tpch.volumes", "calibrate"),
    ("tpch.dbgen", "repro.tpch.dbgen", "DbGen.generate"),
    ("tpch.queries", "repro.tpch.queries", "run_query"),
    ("hive.metastore", "repro.hive.metastore", "Metastore.file_sizes"),
    ("hive.query", "repro.hive.engine", "HiveEngine.run_query"),
    ("pdw.query", "repro.pdw.engine", "PdwEngine.run_query"),
    ("core.mva", "repro.core.oltp", "OltpStudy.evaluate"),
    ("ycsb.closed_loop", "repro.ycsb.eventsim", "simulate_closed_loop"),
    ("ycsb.open_loop", "repro.ycsb.eventsim", "simulate_open_loop"),
    ("overload.open_loop", "repro.overload.sim", "overload_open_loop"),
    ("common.seed_for", "repro.common.rng", "SeedStream.seed_for"),
    ("ycsb.frontier_codec", "repro.ycsb.frontier", "validate_frontier_report"),
    ("ycsb.frontier_codec", "repro.ycsb.frontier", "dumps_frontier_report"),
    ("ycsb.frontier_codec", "repro.ycsb.frontier", "render_frontier_report"),
    ("overload.report_codec", "repro.overload.report", "validate_overload_report"),
    ("overload.report_codec", "repro.overload.report", "dumps_overload_report"),
    ("overload.report_codec", "repro.overload.report", "render_overload_report"),
    ("faults.availability_codec", "repro.faults.availability",
     "validate_availability_report"),
    ("faults.availability_codec", "repro.faults.availability",
     "dumps_availability_report"),
    ("faults.availability_codec", "repro.faults.availability",
     "render_availability_report"),
    ("faults.load", "repro.faults.runner", "FaultedYcsbRun.load"),
    ("faults.run", "repro.faults.runner", "FaultedYcsbRun.run"),
    ("faults.audit", "repro.faults.chaos", "ChaosYcsbRun.audit"),
    ("ycsb.make_record", "repro.ycsb.workloads", "make_record"),
    ("replication.tick", "repro.replication.replicaset", "ReplicaSet.tick"),
    ("docstore.read", "repro.docstore.cluster", "MongoAsCluster.read"),
    ("docstore.read", "repro.docstore.cluster", "MongoCsCluster.read"),
    ("docstore.update", "repro.docstore.cluster", "MongoAsCluster.update"),
    ("docstore.update", "repro.docstore.cluster", "MongoCsCluster.update"),
    ("sqlstore.read", "repro.sqlstore.cluster", "SqlCsCluster.read"),
    ("sqlstore.update", "repro.sqlstore.cluster", "SqlCsCluster.update"),
]

# The SPANS layers each workload must reach (notes.json's prediction table).
# Every hook of a listed layer must record at least one span in a traced
# run of that workload; the ones that do not are its silent hooks.
REACHED_BY = {
    "scorecard": ("core.calibrate", "tpch.dbgen", "tpch.queries",
                  "hive.metastore", "hive.query", "pdw.query", "core.mva"),
    "eventsim-closed": ("ycsb.closed_loop",),
    "eventsim-open": ("ycsb.open_loop", "overload.open_loop",
                      "common.seed_for", "ycsb.frontier_codec",
                      "overload.report_codec"),
    "chaos-functional": ("faults.availability_codec", "faults.load",
                         "faults.run", "faults.audit", "ycsb.make_record",
                         "replication.tick", "docstore.read",
                         "docstore.update", "sqlstore.read",
                         "sqlstore.update"),
}

# Spans whose per-call wall latency is reported as percentiles.
LATENCY_SPANS = ("docstore.read", "docstore.update",
                 "sqlstore.read", "sqlstore.update")

# (counter, module, attribute path) -- call counts only.  A method listed
# here is also wrapped on every subclass that overrides it.
COUNTS = [
    ("relational.expr_evals", "repro.relational.expressions", "Expr.eval"),
    ("simcluster.timeouts", "repro.simcluster.events", "Environment.timeout"),
    ("simcluster.processes", "repro.simcluster.events", "Environment.process"),
    ("simcluster.requests", "repro.simcluster.events", "Resource.request"),
    ("docstore.bson_encodes", "repro.docstore.bson", "encode"),
]

# Entry points whose RNG draws are charged to their own bucket instead of
# to the operations (``common.rng_draws_per_op``).
RNG_BUCKETS = {"tpch.dbgen": "dbgen", "ycsb.make_record": "record"}


def _resolve(module_name: str, path: str):
    """Return ``(owner, attribute, original)`` or ``None`` if it is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = owner.__dict__.get(parts[-1]) if isinstance(owner, type) \
        else getattr(owner, parts[-1], None)
    if original is None:
        return None
    return owner, parts[-1], original


def _install(owner, attribute: str, original, wrapper) -> None:
    """Put ``wrapper`` wherever ``original`` is reachable by name.

    A method is replaced on its class.  A module-level function is also
    replaced in every ``repro`` module that imported it by name
    (``from x import f``).
    """
    setattr(owner, attribute, wrapper)
    if isinstance(owner, type):
        return
    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "") or ""
        if not name.startswith("repro"):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def busy_wait(seconds: float) -> None:
    """Spin for ``seconds`` of wall time (sleep is too coarse below 1 ms)."""
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def install_delay(target: str, seconds: float) -> bool:
    """Delay every call of the ``SPANS`` layer ``target`` (attribution test)."""
    found = False
    for stem, module_name, path in SPANS:
        if stem != target:
            continue
        resolved = _resolve(module_name, path)
        if resolved is None:
            continue
        owner, attribute, original = resolved

        def delayed(*args, _fn=original, **kwargs):
            busy_wait(seconds)
            return _fn(*args, **kwargs)

        _install(owner, attribute, original,
                 functools.wraps(original)(delayed))
        found = True
    return found


class LayerTrace:
    """Spans and counters for one traced run of one workload."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []  # (id, name, hook, start, end, parent)
        self.self_s: dict = defaultdict(float)
        self.counts: dict = defaultdict(int)
        self.durations: dict = defaultdict(list)
        self.missing: list[str] = []
        self._stack: list[list] = []  # open spans: [span id, child seconds]
        self._next_id = 0
        self._rng_bucket = "op"

    # -- recording ------------------------------------------------------------

    def _enter(self) -> list:
        self._next_id += 1
        frame = [self._next_id, 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, name: str, hook: str, start: float,
              end: float) -> None:
        self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += duration
        self.spans.append((frame[0], name, hook, start, end,
                           parent[0] if parent else None))
        self.self_s[name] += duration - frame[1]

    def root(self, job):
        """Run ``job`` under the root span and return its result."""
        frame = self._enter()
        start = time.perf_counter()
        try:
            return job()
        finally:
            self._exit(frame, "bench.root", "", start, time.perf_counter())

    def _span_wrapper(self, name: str, hook: str, original):
        enter, leave = self._enter, self._exit
        keep = self.durations[name].append if name in LATENCY_SPANS else None
        bucket = RNG_BUCKETS.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = enter()
            saved = self._rng_bucket
            if bucket:
                self._rng_bucket = bucket
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                end = clock()
                self._rng_bucket = saved
                leave(frame, name, hook, start, end)
                if keep:
                    keep(end - start)

        return functools.wraps(original)(wrapper)

    def _count_wrapper(self, name: str, original, outermost: list | None):
        """Count calls; with ``outermost`` (a shared depth cell), count a
        call made from inside another counted call only once."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        def outer_only(*args, **kwargs):
            if not outermost[0]:
                counts[name] += 1
            outermost[0] += 1
            try:
                return original(*args, **kwargs)
            finally:
                outermost[0] -= 1

        return functools.wraps(original)(
            wrapper if outermost is None else outer_only)

    # -- installation ---------------------------------------------------------

    def install(self, counters: bool) -> None:
        """Wrap the hooks; call after set-up, before the timed call.

        Spans are always installed.  ``counters`` adds the call counters and
        value readers, whose cost lands in the self time of the layer that
        makes the counted calls, so run.py takes times from runs without
        them and counts from runs with them.
        """
        for stem, module_name, path in SPANS:
            resolved = _resolve(module_name, path)
            if resolved is None:
                self.missing.append(f"{module_name}:{path}")
                continue
            owner, attribute, original = resolved
            _install(owner, attribute, original, self._span_wrapper(
                stem, f"{module_name}:{path}", original))
        if not counters:
            return
        for counter, module_name, path in COUNTS:
            resolved = _resolve(module_name, path)
            if resolved is None:
                self.missing.append(f"{module_name}:{path}")
                continue
            owner, attribute, original = resolved
            # AdmissionResource.request calls Resource.request through
            # super(): count the outermost call only.
            outermost = [0] if counter == "simcluster.requests" else None
            targets = [(owner, original)]
            if isinstance(owner, type):
                targets += [(sub, sub.__dict__[attribute])
                            for sub in _subclasses(owner)
                            if attribute in sub.__dict__]
            for cls, fn in targets:
                _install(cls, attribute, fn,
                         self._count_wrapper(counter, fn, outermost))
        self._install_readers()

    def _hook(self, module_name: str, path: str, make) -> None:
        resolved = _resolve(module_name, path)
        if resolved is None:
            self.missing.append(f"{module_name}:{path}")
            return
        owner, attribute, original = resolved
        _install(owner, attribute, original,
                 functools.wraps(original)(make(original)))

    def _install_readers(self) -> None:
        counts = self.counts

        def next_raw(original):
            def wrapper(rng):
                counts["rng." + self._rng_bucket] += 1
                return original(rng)
            return wrapper

        self._hook("repro.common.rng", "TpchRandom.next_raw", next_raw)
        self._hook("repro.common.rng", "TpchRandom64.next_raw", next_raw)

        def scan(original):
            def wrapper(op, ctx):
                counts["relational.rows_scanned"] += len(
                    ctx.db.table(op.table).rows)
                return original(op, ctx)
            return wrapper

        self._hook("repro.relational.operators", "Scan._execute", scan)

        def generate(original):
            def wrapper(gen):
                db = original(gen)
                counts["tpch.rows_generated"] += sum(
                    len(db.table(name).rows) for name in db.table_names)
                return db
            return wrapper

        self._hook("repro.tpch.dbgen", "DbGen.generate", generate)

        def make_record(original):
            def wrapper(rng):
                counts["ycsb.records"] += 1
                return original(rng)
            return wrapper

        self._hook("repro.ycsb.workloads", "make_record", make_record)

        def wal_append(original):
            def wrapper(*args, **kwargs):
                record = original(*args, **kwargs)
                counts["sqlstore.wal_bytes"] += record.byte_size
                return record
            return wrapper

        self._hook("repro.sqlstore.wal", "WriteAheadLog.append", wal_append)

        def pool_access(original):
            def wrapper(*args, **kwargs):
                hit = original(*args, **kwargs)
                counts["sqlstore.pool_accesses"] += 1
                counts["sqlstore.pool_hits"] += bool(hit)
                return hit
            return wrapper

        self._hook("repro.sqlstore.bufferpool", "BufferPool.access", pool_access)

        def sql_insert(original):
            def wrapper(cluster, key, record):
                counts["sqlstore.user_bytes"] += sum(
                    len(value) for value in record.values())
                return original(cluster, key, record)
            return wrapper

        def sql_update(original):
            def wrapper(cluster, key, fieldname, value):
                counts["sqlstore.user_bytes"] += len(value)
                return original(cluster, key, fieldname, value)
            return wrapper

        self._hook("repro.sqlstore.cluster", "SqlCsCluster.insert", sql_insert)
        self._hook("repro.sqlstore.cluster", "SqlCsCluster.update", sql_update)

    # -- results --------------------------------------------------------------

    def write(self, path: str) -> None:
        """Write the spans, one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, hook, start, end, parent in self.spans:
                handle.write(json.dumps({
                    "run": self.run_id, "id": span_id, "name": name,
                    "hook": hook, "start": start, "end": end, "parent": parent,
                }) + "\n")

    def silent_hooks(self, workload: str) -> list:
        """Hooks of the layers ``workload`` must reach that recorded no span."""
        fired = {span[2] for span in self.spans}
        return [f"{module_name}:{path}" for stem, module_name, path in SPANS
                if stem in REACHED_BY[workload]
                and f"{module_name}:{path}" not in fired
                and f"{module_name}:{path}" not in self.missing]

    def layer_metrics(self, workload: str, ops: int,
                      extra_counts: dict) -> dict:
        """The per-layer metrics of this run (see BENCHMARK.json)."""
        c = dict(self.counts)
        c.update(extra_counts)
        ops = max(ops, 1)

        def ratio(num, den):
            den = c.get(den, 0) if isinstance(den, str) else den
            return c.get(num, 0) / den if den else 0.0

        calls = Counter(span[1] for span in self.spans)
        m = {stem + "_s": self.self_s.get(stem, 0.0)
             for stem in {s for s, _, _ in SPANS}}
        m.update({
            "bench.root_self_s": self.self_s.get("bench.root", 0.0),
            "relational.expr_evals_per_row": ratio(
                "relational.expr_evals", "relational.rows_scanned"),
            "common.rng_draws_per_dbgen_row": ratio(
                "rng.dbgen", "tpch.rows_generated"),
            "common.rng_draws_per_record": ratio("rng.record", "ycsb.records"),
            "common.rng_draws_per_op": ratio("rng.op", ops),
            "hive.metastore_calls": calls["hive.metastore"],
            "simcluster.timeouts_per_op": ratio("simcluster.timeouts", ops),
            "simcluster.requests_per_op": ratio("simcluster.requests", ops),
            "simcluster.processes_per_op": ratio("simcluster.processes", ops),
            "common.seed_for_calls": calls["common.seed_for"],
            "common.seed_for_per_op": calls["common.seed_for"] / ops,
            "replication.ticks_per_op": calls["replication.tick"] / ops,
            "docstore.bson_encodes_per_op": ratio("docstore.bson_encodes", ops),
            "sqlstore.wal_bytes_per_user_byte": ratio(
                "sqlstore.wal_bytes", "sqlstore.user_bytes"),
            "sqlstore.pool_hit_rate": ratio(
                "sqlstore.pool_hits", "sqlstore.pool_accesses"),
            "faults.retries_per_op": ratio("faults.retries", ops),
            "ycsb.frontier_probes": c.get("ycsb.frontier_probes", 0),
            "trace.spans": len(self.spans),
            "trace.missing_hooks": len(self.missing),
            "trace.silent_hooks": len(self.silent_hooks(workload)),
        })
        for name in LATENCY_SPANS:
            samples = sorted(self.durations.get(name, ()))
            m[f"{name}_samples"] = len(samples)
            m[f"{name}_us_p50"] = _percentile(samples, 0.50) * 1e6
            m[f"{name}_us_p99"] = _percentile(samples, 0.99) * 1e6
        return m


def _percentile(ordered: list, q: float) -> float:
    """Nearest-rank percentile of a sorted list (0 when empty)."""
    if not ordered:
        return 0.0
    return ordered[max(1, math.ceil(len(ordered) * q)) - 1]


def is_time_metric(name: str) -> bool:
    """Wall-time metrics; every other layer metric is an exact count."""
    return name.endswith(("_s", "_us_p50", "_us_p99"))
