"""Deterministic Monte-Carlo plumbing: counter-based streams, chunked reduction.

Sampling is built on the Philox counter-based bit generator, keyed by
``(seed, stream_index)``.  Each chunk of work owns one stream, so any mix of
serial and parallel execution produces bit-identical 64-bit integer streams;
results are always combined in chunk-index order.  A sampler may draw a
chunk's stream in consecutive blocks: a generator gives the same numbers in
any split of its draws, so blocks bound a chunk's working set without
changing a sample.

A chunk returns its samples as a ``(k, n)`` array: one contiguous row of
``n`` samples per estimated quantity.  Each row is reduced on its own with
numpy's pairwise summation, whose rounding error grows with ``log n`` rather
than ``n``, and chunks are merged with the parallel Welford combine, which is
exact in a fixed order.

Chunks run on one persistent thread pool per worker count, started on first
use and left idle between calls; ``GMAC_THREADS`` is read at every call.  A
chunk function may itself call :func:`accumulate_chunks`: the nested call runs
its chunks serially in the calling worker, because waiting on the pool from
inside it could deadlock.  Idle workers exit with the interpreter.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Sequence

import numpy as np

from .model import DomainError

DEFAULT_CHUNK = 1 << 16

_STREAM_SALT = 0x9E3779B97F4A7C15  # keeps stream keys away from raw seeds

_POOLS: dict[int, ThreadPoolExecutor] = {}  # worker count -> its persistent pool
_POOLS_LOCK = threading.Lock()


class _ChunkFlag(threading.local):
    active = False  # true while this thread runs a chunk function


_IN_CHUNK = _ChunkFlag()
if hasattr(os, "register_at_fork"):  # a forked child inherits no pool threads
    os.register_at_fork(after_in_child=_POOLS.clear)


def stream_generator(seed: int, stream: int) -> np.random.Generator:
    """Generator for stream ``stream`` of the experiment keyed by ``seed``."""
    key = (np.uint64(seed & 0x7FFFFFFFFFFFFFFF) << np.uint64(1)) ^ np.uint64(_STREAM_SALT)
    bitgen = np.random.Philox(key=[np.uint64(stream & 0x7FFFFFFFFFFFFFFF), key])
    return np.random.Generator(bitgen)


def worker_count() -> int:
    """Worker cap from GMAC_THREADS (0 or unset = auto)."""
    raw = os.environ.get("GMAC_THREADS", "0")
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n <= 0:
        n = os.cpu_count() or 1
    return max(1, n)


def chunk_sizes(total: int, chunk: int = DEFAULT_CHUNK) -> list[int]:
    sizes = [chunk] * (total // chunk)
    if total % chunk:
        sizes.append(total % chunk)
    return sizes


@dataclass
class MomentAccumulator:
    """Single-pass mean/M2 accumulator per coordinate (Welford combine)."""

    count: int
    mean: np.ndarray
    m2: np.ndarray

    @classmethod
    def from_values(cls, values: np.ndarray) -> "MomentAccumulator":
        """Moments of a ``(k, n)`` block: row ``i`` holds ``n`` samples of
        coordinate ``i``, summed pairwise along the row."""
        values = np.asarray(values, dtype=np.float64)
        mean = values.mean(axis=1)
        m2 = ((values - mean[:, None]) ** 2).sum(axis=1)
        return cls(values.shape[1], mean, m2)

    def combine(self, other: "MomentAccumulator") -> "MomentAccumulator":
        n = self.count + other.count
        delta = other.mean - self.mean
        mean = self.mean + delta * (other.count / n)
        m2 = self.m2 + other.m2 + delta**2 * (self.count * other.count / n)
        return MomentAccumulator(n, mean, m2)

    @property
    def variance(self) -> np.ndarray:
        return self.m2 / max(self.count - 1, 1)

    @property
    def se_of_mean(self) -> np.ndarray:
        return np.sqrt(self.variance / self.count)


def _pool(workers: int) -> ThreadPoolExecutor:
    """The persistent pool of ``workers`` threads, started on first use."""
    with _POOLS_LOCK:
        pool = _POOLS.get(workers)
        if pool is None:
            pool = _POOLS[workers] = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix=f"confmac-mc{workers}")
        return pool


def accumulate_chunks(
    fn: Callable[[np.random.Generator, int], np.ndarray],
    seed: int,
    total: int,
    chunk: int = DEFAULT_CHUNK,
) -> MomentAccumulator:
    """Run ``fn(rng, n) -> (k, n) samples`` over chunks, reduce in chunk order.

    Each chunk's ``k`` rows are reduced along their contiguous length by
    :meth:`MomentAccumulator.from_values`.  Chunks may be evaluated
    concurrently (GMAC_THREADS workers, on the persistent pool of that
    size), but the Welford combination always proceeds in chunk-index order,
    so the result is independent of the degree of parallelism.  A call made
    from inside a chunk function runs serially.  ``total`` must be at least 1.
    """
    if total < 1:
        raise DomainError("total", f"must be >= 1, got {total}")
    sizes = chunk_sizes(total, chunk)

    def run(idx_size):
        idx, size = idx_size
        outer, _IN_CHUNK.active = _IN_CHUNK.active, True
        try:
            return MomentAccumulator.from_values(fn(stream_generator(seed, idx), size))
        finally:
            _IN_CHUNK.active = outer

    workers = worker_count()
    if workers > 1 and len(sizes) > 1 and not _IN_CHUNK.active:
        parts = list(_pool(workers).map(run, enumerate(sizes)))
    else:
        parts = [run(item) for item in enumerate(sizes)]

    return reduce(MomentAccumulator.combine, parts)


def halton(index: int, base: int) -> float:
    """Element ``index`` (1-based) of the van der Corput sequence in ``base``."""
    result = 0.0
    f = 1.0
    i = index
    while i > 0:
        f /= base
        result += f * (i % base)
        i //= base
    return result


_HALTON_BASES: Sequence[int] = (2, 3, 5, 7, 11, 13, 17)


def halton_points(count: int, dim: int) -> np.ndarray:
    """Deterministic low-discrepancy start schedule in the unit ``dim``-cube."""
    bases = _HALTON_BASES[:dim]
    pts = np.empty((count, dim))
    for i in range(count):
        for j, b in enumerate(bases):
            pts[i, j] = halton(i + 1, b)  # element 0 is the origin
    return pts
