"""Tests for the YCSB generators, workloads, and the functional client."""

import pytest

from repro.common.errors import WorkloadError
from repro.common.rng import TpchRandom64
from repro.docstore import MongoAsCluster, MongoCsCluster
from repro.sqlstore import SqlCsCluster
from repro.ycsb import (
    CounterGenerator,
    LatestGenerator,
    ScrambledZipfianGenerator,
    UniformGenerator,
    WORKLOADS,
    YcsbClient,
    ZipfianGenerator,
    load_records,
    make_field_value,
    make_key,
    make_record,
)
from repro.ycsb.workloads import WorkloadSpec


class TestGenerators:
    def test_uniform_bounds_and_spread(self):
        gen = UniformGenerator(100, TpchRandom64(1))
        values = [gen.next() for _ in range(5000)]
        assert min(values) >= 0 and max(values) <= 99
        assert len(set(values)) > 90

    def test_zipfian_skew(self):
        gen = ZipfianGenerator(10_000, TpchRandom64(2))
        values = [gen.next() for _ in range(20_000)]
        assert all(0 <= v < 10_000 for v in values)
        # Rank 0 should be by far the most common.
        share_0 = values.count(0) / len(values)
        assert share_0 > 0.05
        # The top 1% of ranks should carry a large share of requests.
        top = sum(1 for v in values if v < 100) / len(values)
        assert top > 0.3

    def test_zipfian_cdf_properties(self):
        gen = ZipfianGenerator(640_000_000, TpchRandom64(3))
        # The YCSB-paper property: a tiny hot fraction carries most mass
        # (theta = 0.99 over 640M keys puts ~76% of requests on the top 1%).
        assert gen.cdf(0.01) > 0.7
        assert gen.cdf(1.0) == pytest.approx(1.0, rel=1e-6)
        assert gen.cdf(0.5) < gen.cdf(0.9)

    def test_scrambled_zipfian_scatters(self):
        gen = ScrambledZipfianGenerator(10_000, TpchRandom64(4))
        values = [gen.next() for _ in range(5000)]
        # Still skewed onto few keys, but the hot keys are not rank 0..k.
        assert all(0 <= v < 10_000 for v in values)
        hottest = max(set(values), key=values.count)
        assert hottest > 100  # scattered away from the low ranks

    def test_latest_prefers_new_keys(self):
        gen = LatestGenerator(1000, TpchRandom64(5))
        values = [gen.next() for _ in range(5000)]
        assert sum(1 for v in values if v > 900) / len(values) > 0.5
        for _ in range(200):
            gen.observe_insert()
        assert gen.item_count == 1200
        later = [gen.next() for _ in range(2000)]
        assert max(later) > 1000  # new keys are now chosen

    def test_counter(self):
        c = CounterGenerator(10)
        assert [c.next() for _ in range(3)] == [10, 11, 12]
        assert c.last == 12

    def test_invalid(self):
        with pytest.raises(WorkloadError):
            UniformGenerator(0, TpchRandom64(1))
        with pytest.raises(WorkloadError):
            ZipfianGenerator(10, TpchRandom64(1), theta=1.5)


class TestWorkloads:
    def test_table6_mixes(self):
        assert WORKLOADS["A"].read == 0.5 and WORKLOADS["A"].update == 0.5
        assert WORKLOADS["B"].read == 0.95
        assert WORKLOADS["C"].read == 1.0
        assert WORKLOADS["D"].insert == 0.05
        assert WORKLOADS["D"].request_distribution == "latest"
        assert WORKLOADS["E"].scan == 0.95

    def test_pick_operation_respects_mix(self):
        rng = TpchRandom64(6)
        picks = [WORKLOADS["B"].pick_operation(rng) for _ in range(10_000)]
        read_share = picks.count("read") / len(picks)
        assert 0.93 < read_share < 0.97

    def test_invalid_mix_rejected(self):
        with pytest.raises(WorkloadError):
            WorkloadSpec("X", "bad", read=0.5, update=0.4)

    def test_key_and_record_shape(self):
        assert make_key(42) == "0" * 22 + "42"
        assert len(make_key(0)) == 24
        record = make_record(TpchRandom64(7))
        assert len(record) == 10
        assert all(len(v) == 100 for v in record.values())


_ALPHABET = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"


def _reference_record(rng):
    """The record generator before bulk draws: one ``choice`` per character."""
    return {f"field{i}": "".join(rng.choice(_ALPHABET) for _ in range(100))
            for i in range(10)}


class _RecordingCluster:
    """Just enough of a cluster to capture what a load phase inserts."""

    def __init__(self):
        self.rows = {}

    def insert(self, key, record):
        self.rows[key] = dict(record)


class TestLoadRecords:
    def test_records_and_field_values_unchanged_by_bulk_draws(self):
        rng, reference = TpchRandom64(21), TpchRandom64(21)
        assert make_record(rng) == _reference_record(reference)
        assert make_field_value(rng) == "".join(
            reference.choice(_ALPHABET) for _ in range(100))
        assert rng.getstate() == reference.getstate()

    @pytest.mark.parametrize("seed", [1, 7, 2**63 + 5])
    @pytest.mark.parametrize("count", [2, 37])
    def test_matches_per_record_loop(self, seed, count):
        # Twice: the first call may fill the memo, the second is served by it.
        for _ in range(2):
            rng, reference = TpchRandom64(seed), TpchRandom64(seed)
            assert load_records(rng, count) == [
                _reference_record(reference) for _ in range(count)]
            assert rng.getstate() == reference.getstate()

    def test_loaded_records_are_fresh_copies(self):
        first = load_records(TpchRandom64(99), 5)
        original = [dict(record) for record in first]
        first[0]["field0"] = "mutated"
        del first[1]["field3"]
        again = load_records(TpchRandom64(99), 5)
        assert again == original
        assert all(a is not b for a, b in zip(first, again))

    def test_functional_and_faulted_clients_load_identical_data(self):
        from repro.faults.runner import FaultedYcsbRun

        plain, faulted = _RecordingCluster(), _RecordingCluster()
        YcsbClient(plain, WORKLOADS["A"], record_count=50, seed=17).load()
        FaultedYcsbRun(faulted, WORKLOADS["A"], record_count=50,
                       operations=1, seed=17).load()
        assert plain.rows == faulted.rows
        assert list(plain.rows) == [make_key(i) for i in range(50)]


@pytest.mark.parametrize(
    "make_cluster",
    [
        lambda: MongoAsCluster(shard_count=4, max_chunk_docs=100),
        lambda: MongoCsCluster(shard_count=4),
        lambda: SqlCsCluster(shard_count=4),
    ],
    ids=["mongo-as", "mongo-cs", "sql-cs"],
)
class TestFunctionalRuns:
    """Every cluster implementation passes the same functional YCSB battery."""

    def test_workload_a_consistency(self, make_cluster):
        client = YcsbClient(make_cluster(), WORKLOADS["A"], record_count=400, seed=11)
        client.load()
        stats = client.run(600)
        assert stats.verification_failures == []
        assert stats.reads + stats.updates == 600
        assert stats.read_misses == 0

    def test_workload_d_appends_visible(self, make_cluster):
        client = YcsbClient(make_cluster(), WORKLOADS["D"], record_count=300, seed=12)
        client.load()
        stats = client.run(400)
        assert stats.verification_failures == []
        assert stats.inserts > 0

    def test_workload_e_scans_ordered(self, make_cluster):
        client = YcsbClient(make_cluster(), WORKLOADS["E"], record_count=300, seed=13)
        client.load()
        stats = client.run(120)
        assert stats.verification_failures == []
        assert stats.scans > 0
        assert stats.scanned_records > 0


class TestCrossSystemAgreement:
    def test_all_systems_return_identical_scan_results(self):
        """The three deployments must agree on query answers."""
        clusters = [
            MongoAsCluster(shard_count=3, max_chunk_docs=50),
            MongoCsCluster(shard_count=3),
            SqlCsCluster(shard_count=3),
        ]
        for cluster in clusters:
            for i in range(150):
                cluster.insert(make_key(i), {"field0": f"value-{i}"})
        scans = []
        for cluster in clusters:
            rows = cluster.scan(make_key(40), 12)
            scans.append([(r.get("_id") or r.get("_key"), r["field0"]) for r in rows])
        assert scans[0] == scans[1] == scans[2]
        expected = [(make_key(i), f"value-{i}") for i in range(40, 52)]
        assert scans[0] == expected
