"""Unit tests for the YCSB workload generator."""

import random

import pytest

from repro.workloads import YCSBConfig, YCSBWorkload
from repro.workloads.ycsb import READ_ONLY_PROFILE, UPDATE_PROFILE


def make(ro=0.5, keys=100, **kwargs):
    return YCSBWorkload(YCSBConfig(num_keys=keys, read_only_fraction=ro, **kwargs))


def test_load_items_covers_key_space():
    # In key order, each key its ``key(i)``, with the paper's 12-byte values.
    assert list(make(keys=50).load_items()) == [(f"u{i}", "x" * 12) for i in range(50)]
    assert [YCSBWorkload.key(i) for i in range(50)] == [f"u{i}" for i in range(50)]


def test_mix_matches_read_only_fraction():
    workload = make(ro=0.3, keys=1000)
    rng = random.Random(1)
    programs = [workload.generate(rng, node_id=0) for _ in range(3000)]
    ro_share = sum(p.is_read_only for p in programs) / len(programs)
    assert 0.26 < ro_share < 0.34
    profiles = {p.profile for p in programs}
    assert profiles == {READ_ONLY_PROFILE, UPDATE_PROFILE}


def test_profiles_flag_read_only_consistently():
    workload = make(ro=0.5)
    rng = random.Random(2)
    for _ in range(200):
        program = workload.generate(rng, 0)
        if program.profile == READ_ONLY_PROFILE:
            assert program.is_read_only
        else:
            assert not program.is_read_only


def test_update_program_rewrites_read_keys():
    """The paper's YCSB updates write exactly the keys they read."""
    workload = make(ro=0.0, keys=500)
    rng = random.Random(3)
    program = workload.generate(rng, 0)

    reads = []
    writes = {}

    class FakeCtx:
        def read(self, key):
            reads.append(key)
            return "old"
            yield  # pragma: no cover

        def write(self, key, value):
            writes[key] = value

    list(program.run(FakeCtx()) or [])
    assert sorted(reads) == sorted(writes)
    assert len(reads) == 2
    assert all(len(v) == 12 for v in writes.values())


def test_read_only_program_reads_two_distinct_keys():
    workload = make(ro=1.0, keys=500)
    rng = random.Random(4)
    program = workload.generate(rng, 0)

    reads = []

    class FakeCtx:
        def read(self, key):
            reads.append(key)
            return "v"
            yield  # pragma: no cover

        def write(self, key, value):  # pragma: no cover
            raise AssertionError("read-only profile must not write")

    list(program.run(FakeCtx()) or [])
    assert len(reads) == 2
    assert len(set(reads)) == 2


def test_zipfian_distribution_option():
    """YCSB's zipfian setting is the zipf law at s = 0.99 (``ext_skew``)."""
    workload = make(keys=1000, distribution="zipf", zipf_s=0.99)
    program = workload.generate(random.Random(5), 0)
    assert program.profile in (READ_ONLY_PROFILE, UPDATE_PROFILE)


def test_config_validation():
    with pytest.raises(ValueError):
        YCSBConfig(num_keys=0)
    with pytest.raises(ValueError):
        YCSBConfig(num_keys=10, read_only_fraction=1.5)
    with pytest.raises(ValueError):
        YCSBConfig(num_keys=10, keys_per_txn=0)
    with pytest.raises(ValueError):
        YCSBConfig(num_keys=10, distribution="normal")
    with pytest.raises(ValueError):  # the scrambled approximation is gone
        YCSBConfig(num_keys=10, distribution="zipfian")


def test_random_value_draws_exactly_what_rng_choice_draws():
    """``_random_value`` spells out CPython's ``choice`` (``_randbelow``:
    ``getrandbits(6)``, redrawn while >= 62) to save two Python calls per
    character.  This pins it to ``rng.choice`` draw for draw on the
    running interpreter; if it ever fails, go back to ``rng.choice`` --
    never change the stream, every key and retry pause rides on it."""
    from repro.workloads.ycsb import _VALUE_ALPHABET

    workload = make()
    size = workload.config.value_size
    fast, reference = random.Random(2021), random.Random(2021)
    for _ in range(10_000):
        expected = "".join(
            reference.choice(_VALUE_ALPHABET) for _ in range(size)
        )
        assert workload._random_value(fast) == expected
    assert fast.getstate() == reference.getstate()
