"""YCSB ported to the transactional key-value model.

The paper's configuration (Section 5): two transaction profiles --
*update* reads two keys and writes the same two keys, *read-only* reads
two keys -- with 4-byte keys, 12-byte values, and uniform key selection.
Because updates rewrite exactly what they read, the execution is
"equivalent to an execution in which the concurrency control ensures
Serializability", which stresses snapshot freshness for update
transactions (a stale read means a failed validation).
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, List, Tuple

from repro.workloads.base import TxnContext, TxnProgram, Workload
from repro.workloads.distributions import UniformChooser, ZipfKeyGenerator

READ_ONLY_PROFILE = "ycsb-ro"
UPDATE_PROFILE = "ycsb-up"

_KEY = "u%d"  # key ``index``'s text: 4-byte-ish, the paper's tiny keys
_VALUE_ALPHABET = string.ascii_letters + string.digits
_VALUE_BITS = len(_VALUE_ALPHABET).bit_length()


@dataclass
class YCSBConfig:
    """Shape of the YCSB workload."""

    num_keys: int = 50_000
    read_only_fraction: float = 0.5
    keys_per_txn: int = 2
    value_size: int = 12
    #: "uniform" (the paper's setting) or "zipf" (rank-ordered, any
    #: s > 0; item 0 is the hottest key).
    distribution: str = "uniform"
    #: Exponent for the "zipf" distribution.
    zipf_s: float = 1.1

    def __post_init__(self) -> None:
        if self.num_keys <= 0:
            raise ValueError("num_keys must be positive")
        if not 0.0 <= self.read_only_fraction <= 1.0:
            raise ValueError("read_only_fraction must be within [0, 1]")
        if self.keys_per_txn <= 0:
            raise ValueError("keys_per_txn must be positive")
        if self.distribution not in ("uniform", "zipf"):
            raise ValueError(f"unknown distribution {self.distribution!r}")


class YCSBWorkload(Workload):
    """Generates the paper's two YCSB transaction profiles."""

    def __init__(self, config: YCSBConfig) -> None:
        self.config = config
        if config.distribution == "uniform":
            self._chooser = UniformChooser(config.num_keys)
        else:
            self._chooser = ZipfKeyGenerator(config.num_keys, config.zipf_s)

    @property
    def name(self) -> str:
        return "ycsb"

    @staticmethod
    def key(index: int) -> str:
        return _KEY % index

    def _random_value(self, rng: random.Random) -> str:
        # ``rng.choice(_VALUE_ALPHABET)`` per character, draw for draw
        # (CPython's ``_randbelow``: ``getrandbits(k)``, redrawn while out
        # of range), minus two Python calls each; tests/workloads pins it.
        alphabet, bits = _VALUE_ALPHABET, _VALUE_BITS
        size = len(alphabet)
        getrandbits = rng.getrandbits
        chars = []
        for _ in range(self.config.value_size):
            index = getrandbits(bits)
            while index >= size:
                index = getrandbits(bits)
            chars.append(alphabet[index])
        return "".join(chars)

    def load_items(self) -> Iterable[Tuple[str, str]]:
        count = self.config.num_keys
        return zip(map(_KEY.__mod__, range(count)), repeat("x" * self.config.value_size, count))

    def generate(self, rng: random.Random, node_id: int) -> TxnProgram:
        keys = [self.key(i) for i in self._chooser.sample(rng, self.config.keys_per_txn)]
        if rng.random() < self.config.read_only_fraction:
            return TxnProgram(READ_ONLY_PROFILE, True, self._read_only_body(keys))
        new_values = [self._random_value(rng) for _ in keys]
        return TxnProgram(UPDATE_PROFILE, False, self._update_body(keys, new_values))

    @staticmethod
    def _read_only_body(keys: List[str]):
        def body(ctx: TxnContext):
            values = []
            for key in keys:
                value = yield from ctx.read(key)
                values.append(value)
            return values

        return body

    @staticmethod
    def _update_body(keys: List[str], new_values: List[str]):
        def body(ctx: TxnContext):
            # Read-modify-write of the same keys (paper Section 5).
            for key in keys:
                yield from ctx.read(key)
            for key, value in zip(keys, new_values):
                ctx.write(key, value)

        return body
