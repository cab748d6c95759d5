"""Deterministic seed derivation and task fan-out.

Bulk randomness comes from numpy's PCG64 bit generator; sub-seeds for
realizations, trials, and worker tasks are derived from a master seed with
SplitMix64 mixing. The same (master, parts) always yields the same sub-seed,
so results do not depend on worker count or scheduling order. Outputs that
carry run metadata record the generator under ``GENERATOR_NAME``.
"""

from __future__ import annotations

import os
from typing import Callable, Optional, Sequence

import numpy as np

from .parser import LimitExceeded

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

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


def mix_seed(master: int, *parts):
    """Fold `parts` (ints or short strings) into a 64-bit sub-seed.

    Each part is absorbed with one SplitMix64 round:
        state <- mix((state + GOLDEN) ^ part)
    followed by a final mix, all modulo 2^64. A part may also be an integer
    array: the result is then the uint64 array of the sub-seeds of its
    entries, because uint64 arithmetic wraps modulo 2^64 as the masks do.
    """
    state = int(master) & _MASK64
    for part in parts:
        state = _mix(((state + _GOLDEN) & _MASK64) ^ (_as_int(part) & _MASK64))
    return _mix((state + _GOLDEN) & _MASK64)


def make_rng(seed: int) -> np.random.Generator:
    """A PCG64-backed generator for the given 64-bit seed."""
    return np.random.Generator(np.random.PCG64(int(seed) & _MASK64))


def check_task_count(count: int, what: str) -> None:
    """Raise LimitExceeded when `count` passes MAX_TASKS; called before any
    task or sub-seed is built."""
    if count > MAX_TASKS:
        raise LimitExceeded(f"{count} {what} exceed the limit of {MAX_TASKS}")


def worker_count(jobs: Optional[int], tasks: int) -> int:
    """Worker processes worth starting: `jobs`, capped at the CPU count and
    at the number of tasks, and at least 1."""
    return max(1, min(jobs or 1, os.cpu_count() or 1, tasks))


def map_tasks(fn: Callable, tasks: Sequence, jobs: Optional[int]) -> list:
    """``[fn(t) for t in tasks]``, spread over worker processes when
    :func:`worker_count` allows more than one. Results keep task order."""
    workers = worker_count(jobs, len(tasks))
    if workers == 1:
        return [fn(t) for t in tasks]
    # imported here: the pool's modules cost every start of the command line
    from concurrent.futures import ProcessPoolExecutor
    chunk = max(1, len(tasks) // (workers * 4))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks, chunksize=chunk))
