"""Hive metastore: the Table-1 data layouts (partitions and buckets).

Each table descriptor knows how its data is physically laid out in HDFS —
partition directories, bucket files, and which bucket files are *empty*
because of TPC-H's sparse orderkeys — and can enumerate the compressed file
inventory at any scale factor.  That inventory is what determines Hive's map
task counts (one task per file, or per 256 MB block for bigger files).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

from repro.common.errors import ConfigurationError
from repro.tpch.schema import orderkey_bucket, sparse_orderkey, table_bytes


@dataclass(frozen=True)
class HiveTableLayout:
    """Physical layout of one Hive table (a row of the paper's Table 1)."""

    name: str
    partition_column: Optional[str] = None
    partition_count: int = 1
    bucket_column: Optional[str] = None
    bucket_count: int = 1
    # Fraction of bucket files that actually contain data (sparse keys).
    nonempty_bucket_fraction: float = 1.0

    def __post_init__(self):
        if self.partition_count < 1 or self.bucket_count < 1:
            raise ConfigurationError("partition/bucket counts must be >= 1")
        if not 0.0 < self.nonempty_bucket_fraction <= 1.0:
            raise ConfigurationError("nonempty fraction must be in (0, 1]")

    @property
    def file_count(self) -> int:
        return self.partition_count * self.bucket_count

    def file_sizes(self, scale_factor: float, compression_ratio: float) -> list[float]:
        """Compressed size of every file, in physical (bucket-id) order.

        Empty bucket files appear as explicit zeros, interleaved the way the
        sparse orderkeys leave them (ids ≡ 1..8 mod 32 hold data) so the
        map-task scheduler sees the same mix the paper's cluster saw.
        """
        total = table_bytes(self.name, scale_factor) * compression_ratio
        nonempty = max(1, round(self.file_count * self.nonempty_bucket_fraction))
        per_file = total / nonempty

        if self.nonempty_bucket_fraction >= 1.0:
            return [total / self.file_count] * self.file_count

        occupied = _occupied_buckets(self.bucket_count)
        sizes = []
        for bucket_id in range(self.bucket_count):
            sizes.append(per_file if bucket_id in occupied else 0.0)
        return sizes * self.partition_count


@functools.lru_cache(maxsize=8)
def _occupied_buckets(bucket_count: int) -> frozenset:
    """Sparse-orderkey tables: the bucket ids that ever receive a key."""
    return frozenset(orderkey_bucket(sparse_orderkey(i), bucket_count)
                     for i in range(1, 8 * bucket_count + 1))


# The paper's Table 1.  Lineitem and orders carry 512 buckets on their order
# key; the sparse keys leave 128 of those non-empty (fraction = 0.25).
TPCH_LAYOUTS: dict[str, HiveTableLayout] = {
    "customer": HiveTableLayout(
        "customer",
        partition_column="c_nationkey",
        partition_count=25,
        bucket_column="c_custkey",
        bucket_count=8,
    ),
    "lineitem": HiveTableLayout(
        "lineitem",
        bucket_column="l_orderkey",
        bucket_count=512,
        nonempty_bucket_fraction=0.25,
    ),
    "nation": HiveTableLayout("nation"),
    "orders": HiveTableLayout(
        "orders",
        bucket_column="o_orderkey",
        bucket_count=512,
        nonempty_bucket_fraction=0.25,
    ),
    "part": HiveTableLayout("part", bucket_column="p_partkey", bucket_count=8),
    "partsupp": HiveTableLayout("partsupp", bucket_column="ps_partkey", bucket_count=8),
    "region": HiveTableLayout("region"),
    "supplier": HiveTableLayout(
        "supplier",
        partition_column="s_nationkey",
        partition_count=25,
        bucket_column="s_suppkey",
        bucket_count=8,
    ),
}


class Metastore:
    """Registry of table layouts with per-table compression ratios."""

    def __init__(
        self,
        layouts: dict[str, HiveTableLayout] | None = None,
        compression_ratios: dict[str, float] | None = None,
        default_compression: float = 0.38,
    ):
        self.layouts = dict(layouts if layouts is not None else TPCH_LAYOUTS)
        self.compression_ratios = dict(compression_ratios or {})
        self.default_compression = default_compression

    def layout(self, table: str) -> HiveTableLayout:
        if table not in self.layouts:
            raise ConfigurationError(f"no layout for table {table!r}")
        return self.layouts[table]

    def compression(self, table: str) -> float:
        return self.compression_ratios.get(table, self.default_compression)

    def file_sizes(self, table: str, scale_factor: float) -> list[float]:
        """Compressed file inventory for a table at a scale factor."""
        return self.layout(table).file_sizes(scale_factor, self.compression(table))

    def compressed_bytes(self, table: str, scale_factor: float) -> float:
        return sum(self.file_sizes(table, scale_factor))

    def buckets_compatible(self, left: str, right: str) -> bool:
        """Bucketed map join eligibility: counts must be multiples."""
        a = self.layout(left).bucket_count
        b = self.layout(right).bucket_count
        return a % b == 0 or b % a == 0
