"""The five YCSB workloads of the paper's Table 6 and the record shape.

Records are 1 KB: a 24-byte zero-padded numeric key plus ten 100-byte string
fields, exactly as Section 3.4.1 describes.  Each read fetches the whole
record, each update rewrites one field, each scan reads at most 1,000
records, and each append inserts the next key after the largest loaded key.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from repro.common.errors import WorkloadError
from repro.common.rng import TpchRandom64

KEY_LENGTH = 24
FIELD_COUNT = 10
FIELD_LENGTH = 100
RECORD_BYTES = KEY_LENGTH + FIELD_COUNT * FIELD_LENGTH
MAX_SCAN_LENGTH = 1000

_ALPHABET = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
_FIELD_NAMES = tuple(f"field{i}" for i in range(FIELD_COUNT))

OP_READ = "read"
OP_UPDATE = "update"
OP_INSERT = "insert"
OP_SCAN = "scan"
OP_RMW = "rmw"  # read-modify-write (YCSB workload F, not in the paper)


@dataclass(frozen=True)
class WorkloadSpec:
    """Operation mix plus request distribution for one YCSB workload."""

    name: str
    description: str
    read: float = 0.0
    update: float = 0.0
    insert: float = 0.0
    scan: float = 0.0
    rmw: float = 0.0  # read-modify-write (workload F)
    request_distribution: str = "zipfian"  # zipfian | latest | uniform | hotspot

    def __post_init__(self):
        total = self.read + self.update + self.insert + self.scan + self.rmw
        if abs(total - 1.0) > 1e-9:
            raise WorkloadError(f"workload {self.name}: mix sums to {total}, not 1")
        if self.request_distribution not in (
            "zipfian", "latest", "uniform", "hotspot",
        ):
            raise WorkloadError(f"unknown distribution {self.request_distribution!r}")

    def pick_operation(self, rng: TpchRandom64) -> str:
        u = rng.random_float()
        if u < self.read:
            return OP_READ
        if u < self.read + self.update:
            return OP_UPDATE
        if u < self.read + self.update + self.insert:
            return OP_INSERT
        if u < self.read + self.update + self.insert + self.scan:
            return OP_SCAN
        return OP_RMW

    @property
    def write_fraction(self) -> float:
        return self.update + self.insert + self.rmw


# Table 6 of the paper, plus the YCSB-standard workload F the paper did not
# run (an extension of this reproduction).
WORKLOADS: dict[str, WorkloadSpec] = {
    "A": WorkloadSpec("A", "Update heavy", read=0.5, update=0.5),
    "B": WorkloadSpec("B", "Read heavy", read=0.95, update=0.05),
    "C": WorkloadSpec("C", "Read only", read=1.0),
    "D": WorkloadSpec("D", "Read latest", read=0.95, insert=0.05,
                      request_distribution="latest"),
    "E": WorkloadSpec("E", "Short ranges", scan=0.95, insert=0.05),
    "F": WorkloadSpec("F", "Read-modify-write (extension)", read=0.5, rmw=0.5),
}
PAPER_WORKLOADS = ("A", "B", "C", "D", "E")


def make_key(index: int) -> str:
    """The paper's key format: the integer zero-padded to 24 bytes."""
    if index < 0:
        raise WorkloadError("key index must be non-negative")
    return str(index).zfill(KEY_LENGTH)


def make_record(rng: TpchRandom64) -> dict[str, str]:
    """Ten random 100-byte string fields."""
    text = "".join(rng.choices(_ALPHABET, FIELD_COUNT * FIELD_LENGTH))
    return {name: text[i * FIELD_LENGTH:(i + 1) * FIELD_LENGTH]
            for i, name in enumerate(_FIELD_NAMES)}


def make_field_value(rng: TpchRandom64) -> str:
    return "".join(rng.choices(_ALPHABET, FIELD_LENGTH))


def load_records(rng: TpchRandom64, count: int) -> list[dict[str, str]]:
    """The ``count`` initial records: ``make_record(rng)`` called ``count`` times.

    ``rng`` is left where that loop leaves it.  The field values are a
    memoized pure function of (``rng``'s state, ``count``), so a sweep whose
    runs share a seed generates its data set once; every call still returns
    fresh dicts, so no store can alias a cached record.
    """
    rows, end_state = _initial_records(rng.getstate(), count)
    rng.setstate(end_state)
    return [dict(zip(_FIELD_NAMES, row)) for row in rows]


@functools.lru_cache(maxsize=4)
def _initial_records(state: int, count: int) -> tuple[tuple[tuple[str, ...], ...], int]:
    """Field values of ``count`` records drawn from ``state``, and the end state."""
    rng = TpchRandom64(state)
    rows = tuple(tuple(make_record(rng).values()) for _ in range(count))
    return rows, rng.getstate()
