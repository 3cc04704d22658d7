"""The functional YCSB client: loads data and drives real operations.

This layer exercises the *storage engines themselves* (Mongo-AS, Mongo-CS,
SQL-CS) at a reduced scale, verifying functional correctness — every read
returns the full 10-field record, updates are read-your-writes, appends are
immediately visible, scans return ordered contiguous keys.  The paper-scale
latency/throughput figures come from the analytic model in
:mod:`repro.core.oltp`, which is parameterized by behaviour measured here
(buffer-pool hit rates, lock acquisitions, shards touched per scan).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import WorkloadError
from repro.common.rng import SeedStream
from repro.ycsb.generators import (
    CounterGenerator,
    HotspotGenerator,
    LatestGenerator,
    ScrambledZipfianGenerator,
    UniformGenerator,
)
from repro.ycsb.workloads import (
    FIELD_COUNT,
    MAX_SCAN_LENGTH,
    OP_INSERT,
    OP_READ,
    OP_RMW,
    OP_UPDATE,
    WorkloadSpec,
    load_records,
    make_field_value,
    make_key,
    make_record,
)


@dataclass
class OpStats:
    """Counts and consistency-check results from a functional run."""

    reads: int = 0
    updates: int = 0
    inserts: int = 0
    scans: int = 0
    rmws: int = 0
    scanned_records: int = 0
    read_misses: int = 0
    verification_failures: list[str] = field(default_factory=list)

    @property
    def total_ops(self) -> int:
        return self.reads + self.updates + self.inserts + self.scans + self.rmws


class YcsbClient:
    """Drives a cluster implementing read/update/insert/scan by key."""

    def __init__(self, cluster, workload: WorkloadSpec, record_count: int, seed: int = 7):
        if record_count < 2:
            raise WorkloadError("need at least two records")
        self.cluster = cluster
        self.workload = workload
        self.record_count = record_count
        self.seeds = SeedStream(seed)
        self._op_rng = self.seeds.rng_for("ops")
        self._data_rng = self.seeds.rng_for("data")
        self._counter = CounterGenerator(record_count)
        self._chooser = self._make_chooser()
        # Shadow copy of sampled fields for read-your-writes verification.
        self._shadow: dict[tuple[str, str], str] = {}

    def _make_chooser(self):
        rng = self.seeds.rng_for("chooser")
        dist = self.workload.request_distribution
        if dist == "uniform":
            gen = UniformGenerator(self.record_count, rng)
            return lambda: gen.next()
        if dist == "zipfian":
            gen = ScrambledZipfianGenerator(self.record_count, rng)
            return lambda: min(gen.next(), self._counter.last)
        if dist == "hotspot":
            gen = HotspotGenerator(self.record_count, rng)
            return lambda: min(gen.next(), self._counter.last)
        gen = LatestGenerator(self.record_count, rng)
        self._latest = gen
        return lambda: gen.next()

    # -- load phase -------------------------------------------------------------------

    def load(self) -> None:
        """Insert records 0 .. record_count-1 (ordered keys, as the paper)."""
        for i, record in enumerate(load_records(self._data_rng, self.record_count)):
            self.cluster.insert(make_key(i), record)

    # -- run phase ---------------------------------------------------------------------

    def run(self, operations: int, verify: bool = True) -> OpStats:
        stats = OpStats()
        for _ in range(operations):
            op = self.workload.pick_operation(self._op_rng)
            if op == OP_READ:
                self._do_read(stats, verify)
            elif op == OP_UPDATE:
                self._do_update(stats)
            elif op == OP_INSERT:
                self._do_insert(stats, verify)
            elif op == OP_RMW:
                self._do_rmw(stats)
            else:
                self._do_scan(stats, verify)
        return stats

    def _do_rmw(self, stats: OpStats) -> None:
        """Workload F: read the record, modify one field, write it back."""
        key = make_key(self._chooser())
        record = self.cluster.read(key)
        if record is not None:
            fieldname = f"field{self._op_rng.random_int(0, FIELD_COUNT - 1)}"
            value = make_field_value(self._data_rng)
            if self.cluster.update(key, fieldname, value):
                self._shadow[(key, fieldname)] = value
        stats.rmws += 1

    def _do_read(self, stats: OpStats, verify: bool) -> None:
        key = make_key(self._chooser())
        record = self.cluster.read(key)
        stats.reads += 1
        if record is None:
            stats.read_misses += 1
            return
        if verify:
            fields = [f for f in record if f.startswith("field")]
            if len(fields) != FIELD_COUNT:
                stats.verification_failures.append(f"read {key}: {len(fields)} fields")
            for (k, fname), expected in list(self._shadow.items()):
                if k == key and record.get(fname) != expected:
                    stats.verification_failures.append(
                        f"read {key}.{fname}: stale value"
                    )

    def _do_update(self, stats: OpStats) -> None:
        key = make_key(self._chooser())
        fieldname = f"field{self._op_rng.random_int(0, FIELD_COUNT - 1)}"
        value = make_field_value(self._data_rng)
        if self.cluster.update(key, fieldname, value):
            self._shadow[(key, fieldname)] = value
        stats.updates += 1

    def _do_insert(self, stats: OpStats, verify: bool) -> None:
        index = self._counter.next()
        key = make_key(index)
        self.cluster.insert(key, make_record(self._data_rng))
        if hasattr(self, "_latest"):
            self._latest.observe_insert()
        stats.inserts += 1
        if verify and self.cluster.read(key) is None:
            stats.verification_failures.append(f"insert {key}: not visible")

    def _do_scan(self, stats: OpStats, verify: bool) -> None:
        start = self._chooser()
        length = self._op_rng.random_int(1, MAX_SCAN_LENGTH)
        rows = self.cluster.scan(make_key(start), length)
        stats.scans += 1
        stats.scanned_records += len(rows)
        if verify and rows:
            keys = [r.get("_id") or r.get("_key") for r in rows]
            if keys != sorted(keys):
                stats.verification_failures.append(f"scan @{start}: unordered result")
