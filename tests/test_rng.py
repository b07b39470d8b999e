import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairaudit.rng import GOLDEN, CounterRng, derive_seed, mix64, resample_blocks

from conftest import integers

# Reference stream for seed 42, also documented in the README. Any change to
# these values breaks reproducibility of every seeded artifact.
SEED42_FIRST_10 = [
    13679457532755275413,
    2949826092126892291,
    5139283748462763858,
    6349198060258255764,
    701532786141963250,
    16015981125662989062,
    4028864712777624925,
    14769051326987775908,
    6270620877612482005,
    11408980392250668974,
]


def test_reference_stream_seed_42():
    assert CounterRng(42).u64_block(10).tolist() == SEED42_FIRST_10


def test_block_matches_scalar_stream():
    rng = CounterRng(123)
    blocks = np.concatenate([rng.u64_block(1), rng.u64_block(40), rng.u64_block(23)])
    assert blocks.tolist() == [mix64((123 + i * GOLDEN) % (1 << 64)) for i in range(1, 65)]


def test_block_split_points_do_not_matter():
    a, b = CounterRng(9), CounterRng(9)
    left = np.concatenate([a.u64_block(3), a.u64_block(17), a.u64_block(1)])
    right = b.u64_block(21)
    assert np.array_equal(left, right)


def test_uniforms_range_and_moments():
    u = CounterRng(1).uniforms(20000)
    assert np.all(u >= 0.0) and np.all(u < 1.0)
    assert abs(np.mean(u) - 0.5) < 0.01
    assert abs(np.var(u) - 1 / 12) < 0.005


def test_normals_moments_and_determinism():
    z = CounterRng(2).normals(20000)
    assert abs(np.mean(z)) < 0.03
    assert abs(np.std(z) - 1.0) < 0.02
    assert np.array_equal(z, CounterRng(2).normals(20000))


def test_normals_odd_length():
    assert len(CounterRng(3).normals(7)) == 7


def test_integers_bounds():
    v = integers(CounterRng(4), 13, 5000)
    assert v.min() >= 0 and v.max() <= 12
    # every residue shows up at this sample size
    assert len(np.unique(v)) == 13
    with pytest.raises(ValueError):
        integers(CounterRng(4), 0, 1)


def test_permutation_is_permutation():
    perm = CounterRng(5).permutation(100)
    assert sorted(perm.tolist()) == list(range(100))
    assert not np.array_equal(perm, np.arange(100))  # astronomically unlikely


def test_derive_seed_distinct_and_stable():
    seeds = {derive_seed(7, i) for i in range(1000)}
    assert len(seeds) == 1000
    assert derive_seed(7, 3) == derive_seed(7, 3)
    assert derive_seed(7, 3) != derive_seed(8, 3)


def test_mix64_masks_to_64_bits():
    assert 0 <= mix64((1 << 70) + 5) < (1 << 64)


def resample_block(seed, sizes, start, stop, step):
    """Rows ``start`` to ``stop - 1`` of ``resample_blocks(seed, sizes, stop, step)``, less each group's offset.

    Every chunk's start, shape and dtype are checked; only the rows from ``start`` on are kept."""
    starts, kept = [], []
    for s, block in resample_blocks(seed, sizes, stop, step):
        starts.append(s)
        assert block.dtype == np.int64 and block.shape == (min(step, stop - s), sum(sizes))
        if s + len(block) > start:
            kept.append(block[max(0, start - s):].copy())
    assert starts == list(range(0, stop, step))
    return np.concatenate(kept) - np.repeat(np.cumsum([0, *sizes[:-1]]), sizes)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(-(1 << 63), (1 << 64) - 1), sizes=st.lists(st.integers(0, 40), min_size=1, max_size=3),
       start=st.integers(0, 5000), rows=st.integers(1, 7), step=st.integers(1, 9))
def test_resample_block_rows_are_per_replicate_streams(seed, sizes, start, rows, step):
    block = resample_block(seed, sizes, start, start + rows, step)
    assert block.shape == (rows, sum(sizes)) and block.dtype == np.int64
    for i, row in enumerate(block):
        rng = CounterRng(derive_seed(seed, start + i))
        expected = [integers(rng, n, n) for n in sizes if n > 0]
        assert row.tolist() == (np.concatenate(expected).tolist() if expected else [])


def test_resample_block_matches_integers_at_a_large_group_size():
    sizes = [1_000_003, 7]
    block = resample_block(11, sizes, 41, 43, 1)
    for i, row in enumerate(block):
        rng = CounterRng(derive_seed(11, 41 + i))
        assert np.array_equal(row, np.concatenate([integers(rng, n, n) for n in sizes]))
