"""Deterministic stream generator: reproducibility and uniformity."""

import hashlib
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from finphase import rng

from conftest import normal_block


def test_blocks_are_deterministic():
    a = rng.u64_block(42, 0, 1000)
    b = rng.u64_block(42, 0, 1000)
    assert (a == b).all()


def test_block_offsets_compose():
    whole = rng.u64_block(7, 0, 100)
    first = rng.u64_block(7, 0, 60)
    rest = rng.u64_block(7, 60, 40)
    assert (whole == np.concatenate([first, rest])).all()


def test_seeds_give_different_streams():
    assert (rng.u64_block(1, 0, 100) != rng.u64_block(2, 0, 100)).any()


def test_derive_separates_substreams():
    s1 = rng.derive(0, 5, 1)
    s2 = rng.derive(0, 5, 2)
    assert s1 != s2
    assert (rng.u64_block(s1, 0, 100) != rng.u64_block(s2, 0, 100)).any()


def test_uniform_range_and_moments():
    u = rng.uniform_block(123, 0, 200_000)
    assert ((u >= 0) & (u < 1)).all()
    assert abs(u.mean() - 0.5) < 0.005
    assert abs(u.var() - 1 / 12) < 0.002


def test_randint_bounds_and_uniformity():
    x = rng.randint_block(9, 0, 100_000, 7)
    assert x.min() >= 0 and x.max() < 7
    counts = np.bincount(x, minlength=7)
    # 5 sigma band around the expected bin count
    expected = 100_000 / 7
    sigma = (100_000 * (1 / 7) * (6 / 7)) ** 0.5
    assert (abs(counts - expected) < 5 * sigma).all()


def test_randint_is_unbiased_for_bounds_near_2_64():
    # bound = 3 * 2**61: plain u64 % bound lands below 2**62 with
    # probability 3/4, not 2/3; the top 2**64 % bound = 2**62 draws (a
    # quarter) are rejected and redrawn
    bound = 3 * 2**61
    draws = rng.u64_block(5, 0, 100_000)
    x = rng.randint_block(5, 0, 100_000, bound)
    assert x.min() >= 0 and x.max() < bound
    assert abs((x < 2**62).mean() - 2 / 3) < 0.006  # sigma 0.0015
    kept = draws < np.uint64(2**64 - 2**62)
    assert (x[kept].astype(np.uint64) == draws[kept] % np.uint64(bound)).all()
    redrawn = np.flatnonzero(~kept).tolist()
    assert 20_000 < len(redrawn) < 30_000
    for i in redrawn[:50]:
        # the first output of substream derive(5, i) below the limit
        sub = rng.u64_block(rng.derive(5, i), 0, 64)
        assert x[i] == int(sub[sub < np.uint64(2**64 - 2**62)][0]) % bound
    # offsets are stream offsets: a later start gives the same values
    assert (rng.randint_block(5, 40_000, 60_000, bound) == x[40_000:]).all()


@pytest.mark.parametrize(
    "bound, digest",
    [
        (3 * 2**61, "bc494d1a1d851a72658b0bad29b89e506dd269d0fae0db8d16ea8b8f360c53d1"),
        (2**63 - 1, "322158db2737e2f8672c4983b3fa84cca068e85bb9c4522c2803f63968b14fb5"),
        (7, "708a7ec7a6f081dd68db7c166622b29aafd63793f63218121dd22bcd73e2b4b0"),
    ],
)
def test_randint_outputs_are_pinned(bound, digest):
    # sha256 of the int64 outputs: a change to any draw or redraw fails here
    x = rng.randint_block(5, 0, 100_000, bound)
    assert hashlib.sha256(x.tobytes()).hexdigest() == digest


def test_unbiased_mod_takes_one_bound_per_draw():
    draws = rng.u64_block(9, 100, 1000)
    bounds = np.array([3 * 2**61, 7] * 500, dtype=np.uint64)
    out = rng.unbiased_mod(9, 100, draws, bounds)
    assert out.dtype == np.uint64
    for bound in (3 * 2**61, 7):
        mask = bounds == np.uint64(bound)
        assert (out[mask] == rng.unbiased_mod(9, 100, draws, bound)[mask]).all()
    assert (out != draws % bounds).any()  # some draws of bound 3 * 2**61 were redrawn


def test_normal_block_moments():
    z = normal_block(11, 0, 200_000)
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01
    # block indexing must not overlap
    z2 = normal_block(11, 200_000, 200_000)
    assert abs(np.corrcoef(z, z2)[0, 1]) < 0.01


def test_published_splitmix64_vector():
    # splitmix64 seeded with 0: the first two outputs of the reference code
    assert rng.u64_block(0, 0, 2).tolist() == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4]


def test_block_matches_scalar_finalizer_across_slice_edges():
    # outputs are generated in 65536-value slices; an unaligned start puts
    # the slice edges at other stream offsets
    seed = 0xDEADBEEF
    for start in (0, 12_345):
        block = rng.u64_block(seed, start, 65_538 + 12_345).tolist()
        for k in (0, 65_535, 65_536, 65_537, len(block) - 1):
            z = seed + (start + k + 1) * 0x9E3779B97F4A7C15
            assert block[k] == rng._finalize_scalar(z), (start, k)


def test_empty_block():
    block = rng.u64_block(3, 10, 0)
    assert block.dtype == np.uint64 and block.shape == (0,)


def test_counter_table_is_read_only():
    # threads read the one table at the same time, so nothing may write it
    assert not rng._STRIDES.flags.writeable
    with pytest.raises(ValueError):
        rng._STRIDES[0] = 0
    expected = np.arange(1, rng._SLICE + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    assert (rng._STRIDES == expected).all()


def test_block_allocates_only_its_output_and_one_slice():
    rng.u64_block(1, 0, 10)  # anything done once per process happens here
    tracemalloc.start()
    try:
        out = rng.u64_block(1, 5, 3 * rng._SLICE + 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the scratch slice is 8 * _SLICE bytes; a second table would be as much again
    assert peak - out.nbytes < 8 * rng._SLICE + 4096


def test_threads_on_overlapping_ranges_get_the_single_thread_result():
    # more threads than cores, switching often, on ranges that share
    # their slice edges and offsets
    seed, count = 0xC0FFEE, 2 * rng._SLICE + 3
    starts = [k * 12_345 for k in range(4)]
    expected = [rng.u64_block(seed, start, count) for start in starts]
    results = {}
    barrier = threading.Barrier(len(starts))

    def draw(i):
        barrier.wait()
        results[i] = [rng.u64_block(seed, starts[i], count) for _ in range(20)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=draw, args=(i,)) for i in range(len(starts))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for i, want in enumerate(expected):
        assert len(results[i]) == 20
        assert all((got == want).all() for got in results[i]), i
