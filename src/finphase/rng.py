"""Deterministic pseudo-random streams shared by all stochastic modules.

The generator is splitmix64 run in counter mode: output ``k`` of the stream
seeded with ``s`` is ``finalize(s + (k+1) * GOLDEN) mod 2**64`` where
``finalize`` is the standard splitmix64 xor-multiply chain and GOLDEN is
0x9E3779B97F4A7C15. This is bit-identical across platforms and builds, can
be evaluated at any offset without stepping through the stream, and splits
into independent substreams by reseeding through :func:`derive`.

Uniform floats are ``(u64 >> 11) * 2**-53`` in [0, 1). Bounded integers
are ``u64 % bound`` with rejection: the top ``2**64 % bound`` values of a
uint64 would make the low residues more likely (for ``bound = 3 * 2**61``,
residues below ``2**62`` would come up 3/4 of the time, not 2/3), so such
a draw is replaced by :func:`redraw_below`. That happens with probability
below ``bound / 2**64``, so for small bounds the output is ``u64 % bound``
in all but astronomically rare cases.
"""

from __future__ import annotations

import numpy as np

_MASK = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _finalize_scalar(z: int) -> int:
    z &= _MASK
    z ^= z >> 30
    z = (z * _MIX1) & _MASK
    z ^= z >> 27
    z = (z * _MIX2) & _MASK
    z ^= z >> 31
    return z


def derive(seed: int, *tags: int) -> int:
    """Derive an independent substream seed from ``seed`` and integer tags.

    Folding each tag through the splitmix64 finalizer gives statistically
    independent streams for e.g. (seed, step, purpose) triples.
    """
    state = seed & _MASK
    for tag in tags:
        state = _finalize_scalar((state + _GOLDEN + (tag & _MASK)) & _MASK)
    return state


# Outputs are generated in slices of this many values: the slice being
# mixed, the scratch array and the counter table are 512 KiB each, so all
# three stay in a 2 MiB L2 cache, and numpy's cost per call is small next
# to a pass over 65536 values (on a Xeon with 2 MiB of L2 per core,
# 8192-value slices took 5.8 ns a value against 4.8 ns here).
_SLICE = 1 << 16
# (i + 1) * GOLDEN for i in a slice: each slice's counters are this plus
# one scalar offset. Built once, since a fresh 512 KiB table per call is
# mostly page faults; read-only, since threads read it at the same time.
_STRIDES = np.arange(1, _SLICE + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
_STRIDES.flags.writeable = False


def u64_block(seed: int, start: int, count: int) -> np.ndarray:
    """Outputs ``start .. start+count-1`` of the stream as uint64."""
    if count < 0:
        raise ValueError("count must be >= 0")
    out = np.empty(count, dtype=np.uint64)
    tmp = np.empty(min(count, _SLICE), dtype=np.uint64)
    for lo in range(0, count, _SLICE):
        z = out[lo : lo + _SLICE]
        t = tmp[: len(z)]
        np.add(_STRIDES[: len(z)], np.uint64((seed + (start + lo) * _GOLDEN) & _MASK), out=z)
        np.right_shift(z, 30, out=t)
        z ^= t
        z *= np.uint64(_MIX1)
        np.right_shift(z, 27, out=t)
        z ^= t
        z *= np.uint64(_MIX2)
        np.right_shift(z, 31, out=t)
        z ^= t
    return out


def uniform_block(seed: int, start: int, count: int) -> np.ndarray:
    """float64 uniforms in [0, 1), 53-bit resolution."""
    return (u64_block(seed, start, count) >> np.uint64(11)) * (2.0 ** -53)


def randint_block(seed: int, start: int, count: int, bound: int) -> np.ndarray:
    """int64 integers uniform on [0, bound): output ``start + i`` mod bound,
    or its :func:`redraw_below` when it lies in the biased top range."""
    if bound <= 0:
        raise ValueError("bound must be > 0")
    return unbiased_mod(seed, start, u64_block(seed, start, count), bound).astype(np.int64)


def unbiased_mod(seed: int, start: int, draws: np.ndarray, bound) -> np.ndarray:
    """``draws % bound`` as uint64, where ``draws`` are outputs ``start ..``
    of stream ``seed`` and ``bound`` is one bound in [1, 2**64) or one per
    draw: each draw in the biased top ``2**64 % bound`` values of the
    uint64 range is replaced by the :func:`redraw_below` of its output."""
    bound = np.asarray(bound, dtype=np.uint64)
    out = draws % bound
    # ~(b - 1) % b == 2**64 % b, so the biased draws are those above limit
    limit = ~(~(bound - np.uint64(1)) % bound)
    bounds = np.broadcast_to(bound, draws.shape)
    for i in np.flatnonzero(draws > limit).tolist():
        out[i] = redraw_below(seed, start + i, int(bounds[i]))
    return out


def redraw_below(seed: int, offset: int, bound: int) -> int:
    """The uniform integer on [0, bound) that replaces ``u64 % bound`` for
    output ``offset`` of stream ``seed`` when that output was rejected: the
    first output of the substream ``derive(seed, offset)`` below the
    largest multiple of ``bound`` in 2**64, mod ``bound``. Each try is
    rejected with probability below 1/2, so few are made.
    """
    stream = derive(seed, offset)
    limit = (1 << 64) - (1 << 64) % bound
    k = 1
    while (z := _finalize_scalar(stream + k * _GOLDEN)) >= limit:
        k += 1
    return z % bound

