"""Deterministic seed derivation and the split of indexed work over workers.

Bulk randomness comes from numpy's PCG64 bit generator; sub-seeds for
realizations, trials and instances are derived from a master seed and the
item's index with SplitMix64 mixing, so results do not depend on how
:func:`map_runs` splits the indices over workers. Outputs that carry run
metadata record the generator under ``GENERATOR_NAME``.
"""

from __future__ import annotations

import os
from typing import Callable, Iterator, Optional

import numpy as np

from .parser import LimitExceeded

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1
_GOLDEN = 0x9E3779B97F4A7C15
# numpy's SeedSequence constants: hashmix (A), generate_state (B), mix (L, R)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4  # SeedSequence's default pool size, in 32-bit words
SEED_CHUNK = 1 << 12  # seeds hashed at once by make_rngs

GENERATOR_NAME = "numpy-pcg64"
MAX_TASKS = 1 << 20  # realizations, instances or trials that one call may ask for


def _mix(z: int) -> int:
    # SplitMix64 finalizer (Steele, Lea & Flood's constants).
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _as_int(part):
    if isinstance(part, str):
        return int.from_bytes(part.encode("utf-8"), "little")
    if isinstance(part, np.ndarray):
        return part.astype(np.uint64)
    return int(part)


def mix_seed(master, *parts):
    """Fold `parts` (ints or short strings) into a 64-bit sub-seed.

    Each part is absorbed with one SplitMix64 round:
        state <- mix((state + GOLDEN) ^ part)
    followed by a final mix, all modulo 2^64. The master and any part may
    also be integer arrays: the result is then the uint64 array of the
    sub-seeds of their entries, because uint64 arithmetic wraps modulo 2^64
    as the masks do.
    """
    state = _as_int(master) & _MASK64
    for part in parts:
        state = _mix(((state + _GOLDEN) & _MASK64) ^ (_as_int(part) & _MASK64))
    return _mix((state + _GOLDEN) & _MASK64)


def make_rng(seed: int) -> np.random.Generator:
    """A PCG64-backed generator for the given 64-bit seed."""
    return np.random.Generator(np.random.PCG64(int(seed) & _MASK64))


def make_rngs(seeds: np.ndarray) -> Iterator[np.random.Generator]:
    """``make_rng(s)`` for each uint64 seed s, in order, with identical
    streams: each generator is built when it is reached, from the words
    `_pcg64_words` hashed for its chunk of `SEED_CHUNK` seeds."""
    # imported here: numpy.random's modules cost every start of the command line
    from numpy.random.bit_generator import ISeedSequence
    ISeedSequence.register(_Words)
    for lo in range(0, len(seeds), SEED_CHUNK):
        for words in _pcg64_words(seeds[lo:lo + SEED_CHUNK]):
            yield np.random.Generator(np.random.PCG64(_Words(words)))


class _Words:
    """A seed sequence (an `ISeedSequence` once `make_rngs` registers it)
    that hands PCG64 the four uint64 words it asks for."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _pcg64_words(seeds: np.ndarray) -> np.ndarray:
    """``SeedSequence(s).generate_state(4, np.uint64)`` for each uint64 seed
    s, as the rows of a (seeds, 4) array, by numpy's SeedSequence algorithm
    over uint32 arrays. The entropy of s is its 32-bit words, low first,
    and at most two of them: fewer than the pool holds, so the pool is
    hashed entropy padded with zeros, then mixed word into word; the state
    is the pool cycled and hashed again, two 32-bit words per uint64, low
    first."""
    seeds = np.asarray(seeds, dtype=np.uint64)
    const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ const
        const = const * _MULT_A & _MASK32
        value *= const
        return value ^ (value >> 16)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = x * _MIX_L - y * _MIX_R
        return result ^ (result >> 16)

    zero = np.zeros(seeds.shape, dtype=np.uint32)
    entropy = [(seeds & _MASK32).astype(np.uint32), (seeds >> 32).astype(np.uint32)]
    pool = [hashmix(word) for word in entropy + [zero] * (_POOL - len(entropy))]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    state, const = [], _INIT_B
    for i in range(8):  # four uint64 words
        value = pool[i % _POOL] ^ const
        const = const * _MULT_B & _MASK32
        value *= const
        state.append((value ^ (value >> 16)).astype(np.uint64))
    return np.stack([state[i] | state[i + 1] << 32 for i in range(0, 8, 2)], axis=1)


def check_task_count(count: int, what: str) -> None:
    """Raise LimitExceeded when `count` passes MAX_TASKS; called before any
    task or sub-seed is built."""
    if count > MAX_TASKS:
        raise LimitExceeded(f"{count} {what} exceed the limit of {MAX_TASKS}")


def worker_count(jobs: Optional[int], tasks: int) -> int:
    """Worker processes worth starting: `jobs`, capped at the CPU count and
    at the number of tasks, and at least 1."""
    return max(1, min(jobs or 1, os.cpu_count() or 1, tasks))


def map_runs(fn: Callable[[range], object], count: int, jobs: Optional[int]) -> list:
    """``fn(run)`` over runs of consecutive indices covering ``range(count)``,
    results in index order: one run on one worker, else ``min(count, 4 *
    workers)`` runs whose sizes differ by at most one, so slow runs even out."""
    workers = worker_count(jobs, count)
    if workers == 1:
        return [fn(range(count))]
    runs = min(count, 4 * workers)
    bounds = [count * k // runs for k in range(runs + 1)]
    # imported here: the pool's modules cost every start of the command line
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, map(range, bounds, bounds[1:])))
