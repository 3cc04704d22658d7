"""Deterministic random number generation for the whole reproduction.

Two generator families matter for the paper:

* :class:`TpchRandom` — a port of dbgen's Lehmer (minimal standard) generator
  with **32-bit C integer semantics** in its ``random_int`` helper.  Section
  3.3.1 of the paper reports that at the 16 TB scale factor the ``RANDOM``
  macro overflows and produces *negative* partkey/custkey values inside
  ``mk_order``; emulating 32-bit wraparound lets us reproduce (and test) that
  exact failure.
* :class:`TpchRandom64` — the authors' fix: the same interface over 64-bit
  arithmetic (a splitmix64 core), which stays correct at every scale factor.

Everything else (YCSB key choice, simulator jitter) derives seeds from
:class:`SeedStream` so runs are reproducible end to end.
"""

from __future__ import annotations

import hashlib

_INT32_MASK = 0xFFFFFFFF
_INT64_MASK = 0xFFFFFFFFFFFFFFFF

_LEHMER_MULTIPLIER = 16807
_LEHMER_MODULUS = 2**31 - 1


def to_int32(value: int) -> int:
    """Reinterpret an arbitrary integer as a C ``int32_t`` (two's complement)."""
    value &= _INT32_MASK
    if value >= 2**31:
        value -= 2**32
    return value


def to_int64(value: int) -> int:
    """Reinterpret an arbitrary integer as a C ``int64_t`` (two's complement)."""
    value &= _INT64_MASK
    if value >= 2**63:
        value -= 2**64
    return value


class TpchRandom:
    """dbgen-style Lehmer generator with 32-bit ``RANDOM(low, high)`` semantics.

    ``random_int`` follows the C expression
    ``low + (int32_t)(rand() % (int32_t)(high - low + 1))``: when the span
    exceeds ``INT32_MAX`` (which happens for partkey at SF >= 16000, where
    ``high = SF * 200000 = 3.2e9``) the cast wraps and the result can be
    negative — the bug the paper hit and fixed with RANDOM64.
    """

    def __init__(self, seed: int = 19620718):
        if seed <= 0:
            seed = 1
        self._state = seed % _LEHMER_MODULUS or 1

    def next_raw(self) -> int:
        """Advance the Lehmer state and return it (uniform on [1, 2^31 - 2])."""
        self._state = (self._state * _LEHMER_MULTIPLIER) % _LEHMER_MODULUS
        return self._state

    def random_int(self, low: int, high: int) -> int:
        """32-bit RANDOM(low, high): overflows for spans > INT32_MAX.

        The span ``high - low + 1`` is first truncated to ``int32`` the way
        dbgen's ``long`` arithmetic truncates it on an LP32/Windows build; a
        span above ``INT32_MAX`` therefore wraps negative and the modulo
        yields negative offsets — exactly the negative partkey/custkey
        symptom the paper reports for ``mk_order`` at SF 16000.
        """
        span = to_int32(high - low + 1)
        raw = self.next_raw()
        if span == 0:
            return to_int32(low)
        remainder = raw % span  # floor mod: takes the sign of the span
        return to_int32(low + remainder)

    def skip(self, count: int) -> None:
        """Discard ``count`` values (dbgen's per-row stream advancement)."""
        for _ in range(count):
            self.next_raw()


class TpchRandom64:
    """The RANDOM64 fix: 64-bit generator that never overflows at 16 TB.

    Uses a splitmix64 core, which is deterministic, fast, and has no shared
    state with Python's global ``random`` module.
    """

    def __init__(self, seed: int = 19620718):
        self._state = seed & _INT64_MASK

    def next_raw(self) -> int:
        """Advance splitmix64 and return a uniform value on [0, 2^64)."""
        self._state = (self._state + 0x9E3779B97F4A7C15) & _INT64_MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _INT64_MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _INT64_MASK
        return z ^ (z >> 31)

    def random_int(self, low: int, high: int) -> int:
        """Uniform integer on [low, high]; exact for any 64-bit span."""
        if high < low:
            raise ValueError(f"empty range [{low}, {high}]")
        span = high - low + 1
        return low + self.next_raw() % span

    def random_float(self) -> float:
        """Uniform float on [0, 1)."""
        return self.next_raw() / 2.0**64

    def uniform(self, low: float, high: float) -> float:
        """Uniform float on [low, high)."""
        return low + (high - low) * self.random_float()

    def choice(self, items):
        """Pick one element of a non-empty sequence."""
        if not items:
            raise ValueError("cannot choose from an empty sequence")
        return items[self.random_int(0, len(items) - 1)]

    def choices(self, items, count: int) -> list:
        """``count`` calls of :meth:`choice` in one loop.

        Returns exactly the values, and leaves exactly the state, that the
        ``choice`` loop would: the splitmix64 step of :meth:`next_raw` is
        inlined so bulk text generation skips two calls per draw.
        """
        if not items:
            raise ValueError("cannot choose from an empty sequence")
        size = len(items)
        state = self._state
        picked = []
        append = picked.append
        for _ in range(count):
            state = (state + 0x9E3779B97F4A7C15) & _INT64_MASK
            z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _INT64_MASK
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _INT64_MASK
            append(items[(z ^ (z >> 31)) % size])
        self._state = state
        return picked

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.random_int(0, i)
            items[i], items[j] = items[j], items[i]

    def skip(self, count: int) -> None:
        """Discard ``count`` values."""
        for _ in range(count):
            self.next_raw()

    def getstate(self) -> int:
        """The generator's state; ``setstate`` of it resumes the stream."""
        return self._state

    def setstate(self, state: int) -> None:
        """Resume the stream at a state returned by :meth:`getstate`."""
        self._state = state & _INT64_MASK


class SeedStream:
    """Derives independent, named 64-bit seeds from one master seed.

    ``SeedStream(42).seed_for("ycsb", "workload-a", 3)`` is stable across
    processes and Python versions (it hashes the textual path with SHA-256),
    so every component of a study can get its own reproducible generator.
    """

    def __init__(self, master_seed: int):
        self.master_seed = master_seed
        # First path part -> SHA-256 already fed "master:head".  The hot
        # per-op paths share a handful of heads ("op", "client", ...).
        self._prefixes: dict = {}

    def seed_for(self, *path) -> int:
        """Return the 64-bit seed associated with a component path.

        The seed hashes ``f"{master_seed}:" + "/".join(map(str, path))``;
        the hash of the first part is computed once and copied per call.
        """
        head = str(path[0]) if path else ""
        hasher = self._prefixes.get(head)
        if hasher is None:
            hasher = hashlib.sha256(f"{self.master_seed}:{head}".encode("utf-8"))
            self._prefixes[head] = hasher
        if len(path) > 1:
            hasher = hasher.copy()
            hasher.update(("/" + "/".join(map(str, path[1:]))).encode("utf-8"))
        return int.from_bytes(hasher.digest()[:8], "big")

    def rng_for(self, *path) -> TpchRandom64:
        """Return a fresh :class:`TpchRandom64` for a component path."""
        return TpchRandom64(self.seed_for(*path))
