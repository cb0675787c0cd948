"""Unit tests for key-selection distributions."""

import random
from collections import Counter

import pytest

from repro.workloads import UniformChooser, ZipfKeyGenerator


def test_uniform_covers_range():
    chooser = UniformChooser(10)
    rng = random.Random(1)
    seen = {chooser.next(rng) for _ in range(500)}
    assert seen == set(range(10))


def test_uniform_sample_distinct():
    chooser = UniformChooser(100)
    rng = random.Random(2)
    sample = chooser.sample(rng, 10)
    assert len(sample) == len(set(sample)) == 10
    assert all(0 <= item < 100 for item in sample)


def test_uniform_sample_too_many_rejected():
    with pytest.raises(ValueError):
        UniformChooser(3).sample(random.Random(0), 4)


def test_uniform_validates_size():
    with pytest.raises(ValueError):
        UniformChooser(0)


def test_uniform_roughly_flat():
    chooser = UniformChooser(10)
    rng = random.Random(3)
    counts = Counter(chooser.next(rng) for _ in range(20_000))
    assert max(counts.values()) / min(counts.values()) < 1.3


# The YCSB zipfian regime (theta < 1) that ``ext_skew`` runs at 0.99.
def test_zipfian_is_skewed():
    gen, rng = ZipfKeyGenerator(1000, s=0.99), random.Random(4)
    counts = Counter(gen.next(rng) for _ in range(20_000))
    top_share = sum(count for _item, count in counts.most_common(20)) / 20_000
    assert top_share > 0.3, "top 2% of items should absorb >30% of accesses"


def test_zipfian_stays_in_range():
    gen, rng = ZipfKeyGenerator(50, s=0.8), random.Random(5)
    assert all(0 <= gen.next(rng) < 50 for _ in range(2000))


def test_zipfian_sample_distinct():
    assert len(set(ZipfKeyGenerator(100, s=0.9).sample(random.Random(6), 5))) == 5


def test_zipfian_validates_arguments():
    with pytest.raises(ValueError):
        ZipfKeyGenerator(3, s=0.99).sample(random.Random(0), 4)
    with pytest.raises(ValueError):
        ZipfKeyGenerator(10, s=-0.99)


def test_deterministic_given_seed():
    a, b = ([ZipfKeyGenerator(100, s=0.99).next(rng) for _ in range(20)]
            for rng in (random.Random(7), random.Random(7)))
    assert a == b


def test_zipf_generator_rank_ordered():
    gen = ZipfKeyGenerator(100, s=1.1)
    probs = [gen.probability(rank) for rank in range(100)]
    assert probs == sorted(probs, reverse=True)
    assert abs(sum(probs) - 1.0) < 1e-9


def test_zipf_generator_heavy_tail_skew():
    gen = ZipfKeyGenerator(1000, s=1.1)
    rng = random.Random(8)
    counts = Counter(gen.next(rng) for _ in range(20_000))
    assert counts.most_common(1)[0][0] == 0, "rank 0 must be the hottest"
    top_share = sum(count for _item, count in counts.most_common(10)) / 20_000
    assert top_share > 0.4, "top 1% of ranks should absorb >40% under s=1.1"


def test_zipf_generator_stays_in_range():
    gen = ZipfKeyGenerator(17, s=2.0)
    rng = random.Random(9)
    assert all(0 <= gen.next(rng) < 17 for _ in range(2000))


def test_zipf_generator_sample_distinct():
    gen = ZipfKeyGenerator(100, s=1.1)
    sample = gen.sample(random.Random(10), 5)
    assert len(set(sample)) == 5


def test_zipf_generator_validates_arguments():
    with pytest.raises(ValueError):
        ZipfKeyGenerator(0)
    with pytest.raises(ValueError):
        ZipfKeyGenerator(10, s=0.0)
    with pytest.raises(ValueError):
        ZipfKeyGenerator(3).sample(random.Random(0), 4)


def test_zipf_generator_deterministic_given_seed():
    a = [ZipfKeyGenerator(100).next(random.Random(11)) for _ in range(20)]
    b = [ZipfKeyGenerator(100).next(random.Random(11)) for _ in range(20)]
    assert a == b
