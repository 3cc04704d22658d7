"""Tests for the dbgen-style RNGs, including the paper's RANDOM overflow bug."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.rng import SeedStream, TpchRandom, TpchRandom64, to_int32, to_int64


class TestInt32Semantics:
    def test_to_int32_identity_in_range(self):
        assert to_int32(123) == 123
        assert to_int32(-5) == -5
        assert to_int32(2**31 - 1) == 2**31 - 1

    def test_to_int32_wraps(self):
        assert to_int32(2**31) == -(2**31)
        assert to_int32(3_200_000_000) == 3_200_000_000 - 2**32

    def test_to_int64_wraps(self):
        assert to_int64(2**63) == -(2**63)
        assert to_int64(42) == 42


class TestTpchRandomOverflow:
    """Section 3.3.1: RANDOM produces negative partkeys at SF 16000."""

    def test_partkey_range_overflows_at_sf_16000(self):
        # partkey is drawn on [1, SF * 200_000]; at SF 16000 the span is
        # 3.2e9 > INT32_MAX, so the 32-bit generator must emit negatives.
        rng = TpchRandom(seed=7)
        values = [rng.random_int(1, 16000 * 200_000) for _ in range(2000)]
        assert any(v < 0 for v in values), "expected the paper's overflow bug"

    def test_no_overflow_at_sf_4000(self):
        rng = TpchRandom(seed=7)
        high = 4000 * 200_000  # 8e8 < INT32_MAX: still safe
        values = [rng.random_int(1, high) for _ in range(2000)]
        assert all(1 <= v <= high for v in values)

    def test_random64_fix_never_overflows(self):
        rng = TpchRandom64(seed=7)
        high = 16000 * 200_000
        values = [rng.random_int(1, high) for _ in range(2000)]
        assert all(1 <= v <= high for v in values)

    def test_deterministic_streams(self):
        a = [TpchRandom(seed=5).random_int(1, 100) for _ in range(10)]
        b = [TpchRandom(seed=5).random_int(1, 100) for _ in range(10)]
        assert a == b


class TestTpchRandom64:
    @given(st.integers(min_value=-1000, max_value=1000), st.integers(min_value=0, max_value=5000))
    @settings(max_examples=50)
    def test_random_int_in_bounds(self, low, width):
        rng = TpchRandom64(seed=1234)
        high = low + width
        for _ in range(20):
            assert low <= rng.random_int(low, high) <= high

    def test_random_int_rejects_empty_range(self):
        with pytest.raises(ValueError):
            TpchRandom64(1).random_int(10, 5)

    def test_uniform_and_float_bounds(self):
        rng = TpchRandom64(seed=9)
        for _ in range(100):
            assert 0.0 <= rng.random_float() < 1.0
            assert 2.0 <= rng.uniform(2.0, 3.0) < 3.0

    def test_choice_and_shuffle(self):
        rng = TpchRandom64(seed=3)
        items = list(range(20))
        assert rng.choice(items) in items
        shuffled = list(items)
        rng.shuffle(shuffled)
        assert sorted(shuffled) == items
        with pytest.raises(ValueError):
            rng.choice([])

    @given(st.integers(min_value=0, max_value=2**64 - 1),
           st.integers(min_value=0, max_value=300),
           st.one_of(st.text(min_size=1, max_size=70),
                     st.lists(st.integers(), min_size=1, max_size=40)))
    @settings(max_examples=100)
    def test_choices_matches_choice_loop(self, seed, count, items):
        bulk, looped = TpchRandom64(seed), TpchRandom64(seed)
        assert bulk.choices(items, count) == [looped.choice(items)
                                              for _ in range(count)]
        assert bulk.getstate() == looped.getstate()
        assert bulk.next_raw() == looped.next_raw()

    @pytest.mark.parametrize("empty", ["", []])
    def test_choices_rejects_empty_items(self, empty):
        rng = TpchRandom64(3)
        with pytest.raises(ValueError, match="empty sequence"):
            rng.choices(empty, 5)
        assert rng.getstate() == TpchRandom64(3).getstate()

    def test_setstate_resumes_stream(self):
        rng = TpchRandom64(8)
        rng.skip(17)
        resumed = TpchRandom64(0)
        resumed.setstate(rng.getstate())
        assert [resumed.next_raw() for _ in range(5)] == [
            rng.next_raw() for _ in range(5)]

    def test_distribution_roughly_uniform(self):
        rng = TpchRandom64(seed=11)
        counts = [0] * 10
        for _ in range(20_000):
            counts[rng.random_int(0, 9)] += 1
        assert min(counts) > 1500 and max(counts) < 2500


class TestSeedStream:
    def test_stable_and_distinct(self):
        stream = SeedStream(42)
        a = stream.seed_for("ycsb", "a")
        assert a == SeedStream(42).seed_for("ycsb", "a")
        assert a != stream.seed_for("ycsb", "b")
        assert a != SeedStream(43).seed_for("ycsb", "a")

    def test_rng_for_returns_distinct_streams(self):
        stream = SeedStream(1)
        r1 = stream.rng_for("x")
        r2 = stream.rng_for("y")
        assert [r1.random_int(0, 10**9) for _ in range(4)] != [
            r2.random_int(0, 10**9) for _ in range(4)
        ]


def _reference_seed(master_seed, *path) -> int:
    """The seed formula before per-prefix hashing: hash the whole path."""
    text = f"{master_seed}:" + "/".join(str(part) for part in path)
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8],
                          "big")


class TestSeedForPrefixCache:
    def test_matches_full_path_hash_for_1000_indices(self):
        stream = SeedStream(1234)
        for index in range(1000):
            assert stream.seed_for("op", index) == _reference_seed(1234, "op", index)
            assert stream.seed_for("op-fault", index, 2) == _reference_seed(
                1234, "op-fault", index, 2)

    @pytest.mark.parametrize("path", [
        (), ("",), ("arrivals",), (7,), (7, "x"), (2.5, 3, "y"), ("a", 1.0),
        (True,), (1,), ("1",), ("frontier", "mongo-as", "A", 0.25, 3),
    ])
    def test_matches_full_path_hash_for_mixed_parts(self, path):
        stream = SeedStream(42)
        # Twice: the second call is served from the cached prefix.
        assert stream.seed_for(*path) == _reference_seed(42, *path)
        assert stream.seed_for(*path) == _reference_seed(42, *path)

    def test_prefix_cache_does_not_leak_between_paths(self):
        stream = SeedStream(5)
        paths = [("op",), ("op", 1), ("op",), ("op", 1, 2), (True,), (1,),
                 ("op", 1)]
        assert [stream.seed_for(*p) for p in paths] == [
            _reference_seed(5, *p) for p in paths]
