"""Deterministic in-process fan-out.

Every sweep in the repo funnels through :func:`parallel_map`: ``jobs <= 1``
(or a single item) runs the plain loop, the reference semantics; more jobs
shard the items over a :class:`~concurrent.futures.ThreadPoolExecutor`
that shares the process's memos and read-only state. The emulated models
are pure-Python CPU work, so the GIL caps cold-sweep speedup. The
multi-process path is ``sweep --shard I/N`` plus ``merge-caches``: each
shard is its own process over its own cache, and the merged cache replays
byte-identically to a single-machine run.

Whatever the worker count, results always come back in submission order,
so any execution plan yields byte-identical downstream artefacts.
"""

from __future__ import annotations

import os
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from typing import Callable, Iterable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

#: Hard ceiling on worker threads (beyond this the GIL is the bottleneck).
MAX_JOBS = 64


def resolve_jobs(jobs: int) -> int:
    """Normalise a ``--jobs`` value: 0 or negative means "all cores"."""
    if jobs <= 0:
        jobs = os.cpu_count() or 1
    return max(1, min(int(jobs), MAX_JOBS))


def round_robin_partition(seq: Sequence[T], buckets: int) -> list[list[T]]:
    """Deterministic interleaved partition: bucket ``j`` gets ``seq[j::buckets]``.

    Bucket sizes differ by at most one and the assignment depends only on
    ``seq`` order and ``buckets``. This is the primitive under
    :mod:`repro.eval.shard`'s planner, where interleaving a canonically
    sorted grid spreads every (model, GPU, RQ) cell's items evenly across
    shards instead of handing whole cells to one worker.
    """
    if buckets < 1:
        raise ValueError(f"buckets must be >= 1, got {buckets}")
    return [list(seq[j::buckets]) for j in range(buckets)]


def _shards(seq: Sequence[T], jobs: int) -> list[Sequence[T]]:
    """Contiguous chunks — a handful per worker, so the pool amortises
    scheduling over many items while still load-balancing uneven work
    units."""
    chunk = max(1, len(seq) // (jobs * 4))
    return [seq[i : i + chunk] for i in range(0, len(seq), chunk)]


def _apply_shard(fn: Callable[[T], R], shard: Sequence[T]) -> list[R]:
    return [fn(x) for x in shard]


def parallel_map(
    fn: Callable[[T], R], items: Iterable[T], *, jobs: int = 1
) -> list[R]:
    """Apply ``fn`` to every item, fanning out across ``jobs`` threads.

    Results are returned in input order. Failure is **fail-fast**: the
    moment any shard raises, every not-yet-started shard is cancelled and
    the earliest-submitted failure propagates — a bad sweep dies in one
    shard's time instead of burning workers on doomed shards. (Shards
    already running when the failure lands finish their in-flight work;
    executors cannot preempt them.) ``jobs <= 1`` (or a single item)
    always degrades to the sequential loop.
    """
    seq: Sequence[T] = items if isinstance(items, (list, tuple)) else list(items)
    jobs = resolve_jobs(jobs)
    if jobs <= 1 or len(seq) <= 1:
        return [fn(x) for x in seq]
    jobs = min(jobs, len(seq))
    shards = _shards(seq, jobs)
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        futures = [pool.submit(_apply_shard, fn, shard) for shard in shards]
        wait(futures, return_when=FIRST_EXCEPTION)
        failed = next(
            (
                f
                for f in futures
                if f.done() and not f.cancelled() and f.exception() is not None
            ),
            None,
        )
        if failed is not None:
            pool.shutdown(wait=False, cancel_futures=True)
            raise failed.exception()
        out: list[R] = []
        for future in futures:
            out.extend(future.result())
        return out
